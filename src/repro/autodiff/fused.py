"""One autodiff node per training score and loss.

Built from tape primitives, TransE's score records about ten nodes per call
and the margin loss seven, and ``Tensor.backward`` walks them all for every
batch.  These functions record each computation as a single node:

* :func:`translation_score` — TransE, ``-|| e[h] + r[rel] - e[t] ||_p``;
* :func:`trilinear_score` — DistMult, ``sum(e[h] * r[rel] * e[t])``;
* :func:`margin_ranking` — ``mean(max(0, margin - f(pos)[index] + f(neg)))``;
* :func:`logistic` — ``mean(softplus(-f(pos))) + mean(softplus(f(neg)))``.

Each node is bit-identical to the composition it replaces.  The forward runs
the same numpy operations in the same order, and the backward computes each
primitive's gradient with the same expression.  Row gradients go through
:meth:`Tensor._deposit_rows` (a :class:`SparseGrad` segment or a dense
scatter) in the order the tape's topological sort visits the gathers: heads,
relations, tails.  A loss node orders its parents so that the sort explores
the score graphs as it does for the composition: the margin loss processes
the negatives first, the logistic loss the positives.
``tests/models/test_fused_nodes.py`` compares the nodes with the compositions
kept in ``tests/oracles/``.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def translation_score(
    entity: Tensor,
    relation: Tensor,
    heads: np.ndarray,
    relations: np.ndarray,
    tails: np.ndarray,
    norm: int,
) -> Tensor:
    """``-|| entity[heads] + relation[relations] - entity[tails] ||`` (L1 or L2), one node."""
    heads = np.asarray(heads, dtype=np.int64)
    relations = np.asarray(relations, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    delta = entity.data[heads] + relation.data[relations] - entity.data[tails]
    if norm == 1:
        distance = np.abs(delta).sum(axis=-1)
    else:
        squared = (delta ** 2).sum(axis=-1)
        distance = squared ** 0.5

    def backward(grad: np.ndarray) -> None:
        if norm == 1:
            rows = np.expand_dims(-grad, -1) * np.sign(delta)
        else:
            # d(-sqrt(s))/ds, then d(s)/d(delta) = 2 * delta, as ``**`` computes them.
            # The root's derivative is infinite at zero distance: such a row
            # gets the zero gradient ``sign(0)`` gives it in the L1 branch.
            at_zero = squared == 0
            scale = np.where(
                at_zero, 0.0, (-grad) * 0.5 * np.where(at_zero, 1.0, squared) ** (0.5 - 1)
            )
            rows = np.expand_dims(scale, -1) * 2 * delta ** (2 - 1)
        entity._deposit_rows(heads, rows)
        relation._deposit_rows(relations, rows)
        entity._deposit_rows(tails, -rows)

    return entity._make(-distance, (entity, relation), backward)


def trilinear_score(
    entity: Tensor,
    relation: Tensor,
    heads: np.ndarray,
    relations: np.ndarray,
    tails: np.ndarray,
) -> Tensor:
    """``sum(entity[heads] * relation[relations] * entity[tails], axis=-1)``, one node."""
    heads = np.asarray(heads, dtype=np.int64)
    relations = np.asarray(relations, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    h = entity.data[heads]
    r = relation.data[relations]
    t = entity.data[tails]
    hr = h * r

    def backward(grad: np.ndarray) -> None:
        upstream = np.expand_dims(grad, -1)
        upstream_t = upstream * t
        entity._deposit_rows(heads, upstream_t * r)
        relation._deposit_rows(relations, upstream_t * h)
        entity._deposit_rows(tails, upstream * hr)

    return entity._make((hr * t).sum(axis=-1), (entity, relation), backward)


def margin_ranking(
    positive: Tensor, negative: Tensor, positive_index: np.ndarray, margin: float
) -> Tensor:
    """``mean(relu(negative - positive[positive_index] + margin))``, one node."""
    positive_index = np.asarray(positive_index, dtype=np.int64)
    hinge = negative.data - positive.data[positive_index] + margin
    active = hinge > 0
    scale = 1.0 / float(hinge.size)

    def backward(grad: np.ndarray) -> None:
        upstream = (grad * scale) * active
        if negative.requires_grad:
            negative._accumulate(upstream)
        positive._deposit_rows(positive_index, -upstream)

    # Parents (negative, positive): the sort then processes the negative
    # scores' graph first, as it does for the composition.
    return negative._make((hinge * active).sum() * scale, (negative, positive), backward)


def logistic(positive: Tensor, negative: Tensor) -> Tensor:
    """``mean(softplus(-positive)) + mean(softplus(negative))``, one node."""
    flipped = -positive.data
    positive_scale = 1.0 / float(flipped.size)
    negative_scale = 1.0 / float(negative.data.size)
    value = (
        np.logaddexp(0.0, flipped).sum() * positive_scale
        + np.logaddexp(0.0, negative.data).sum() * negative_scale
    )

    def backward(grad: np.ndarray) -> None:
        if positive.requires_grad:
            positive._accumulate(-((grad * positive_scale) * _sigmoid(flipped)))
        if negative.requires_grad:
            negative._accumulate((grad * negative_scale) * _sigmoid(negative.data))

    # Parents (positive, negative): the sort processes the positive scores'
    # graph first, as it does for the composition.
    return positive._make(value, (positive, negative), backward)


def _sigmoid(values: np.ndarray) -> np.ndarray:
    """``Tensor.softplus``'s backward factor, clipped the same way."""
    return 1.0 / (1.0 + np.exp(-np.clip(values, -60.0, 60.0)))
