"""The training step as primitive tape compositions.

These are the forms :mod:`repro.autodiff.fused` replaced: TransE's and
DistMult's ``score_triples`` as chains of gathers and element-wise nodes, the
margin and logistic losses as chains of tape primitives, and
``SparseGrad.coalesce`` as a per-segment replay (``np.unique``, then one
zeroed table and one scatter per segment, summed in segment order).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.autodiff import Tensor
from repro.autodiff.tensor import scatter_add


def transe_score_triples(model, heads, relations, tails) -> Tensor:
    """``TransE.score_triples`` built from tape primitives."""
    h = model.entity.gather(heads)
    r = model.relation.gather(relations)
    t = model.entity.gather(tails)
    delta = h + r - t
    if model.norm == 1:
        return -delta.abs().sum(axis=-1)
    return -(delta ** 2).sum(axis=-1).sqrt()


def distmult_score_triples(model, heads, relations, tails) -> Tensor:
    """``DistMult.score_triples`` built from tape primitives."""
    h = model.entity.gather(heads)
    r = model.relation.gather(relations)
    t = model.entity.gather(tails)
    return (h * r * t).sum(axis=-1)


#: Model name -> its composition (the other models never changed).
SCORE_ORACLES = {"TransE": transe_score_triples, "DistMult": distmult_score_triples}


def margin_ranking_loss(positive_scores: Tensor, negative_scores: Tensor, positive_index, margin):
    """``MarginRankingLoss`` built from tape primitives."""
    expanded_positive = positive_scores.gather(positive_index)
    return (negative_scores - expanded_positive + margin).relu().mean()


def logistic_loss(positive_scores: Tensor, negative_scores: Tensor) -> Tensor:
    """``LogisticLoss`` built from tape primitives."""
    positive_term = (-positive_scores).softplus().mean()
    negative_term = negative_scores.softplus().mean()
    return positive_term + negative_term


def coalesce_by_segment(
    shape: Sequence[int], segments: List[Tuple[np.ndarray, np.ndarray]]
) -> Tuple[np.ndarray, np.ndarray]:
    """``SparseGrad.coalesce`` as a per-segment replay over ``np.unique``."""
    if not segments:
        return np.empty(0, dtype=np.int64), np.empty((0, *shape[1:]))
    all_indices = np.concatenate([indices for indices, _ in segments])
    unique, inverse = np.unique(all_indices, return_inverse=True)
    inverse = inverse.reshape(-1)
    total = None
    offset = 0
    for indices, rows in segments:
        segment = np.zeros((len(unique), *shape[1:]))
        scatter_add(segment, inverse[offset:offset + len(indices)], rows)
        total = segment if total is None else total + segment
        offset += len(indices)
    return unique, total
