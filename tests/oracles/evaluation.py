"""The link-prediction protocol one test triple at a time.

This is the form the batched evaluator replaced: one ``score_all_*`` call
and one filter-mask copy per triple and side, ranked with the mean-tie rule
below.  The identity tests and the evaluation throughput gate compare
:class:`repro.eval.LinkPredictionEvaluator` against it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.eval.ranking import SIDES, EvaluationResult, RankRecord
from repro.kg.known_index import as_triple_array


def rank_with_mean_ties(scores: np.ndarray, target_index: int, mask: np.ndarray) -> float:
    """1-based rank of ``target_index`` among candidates where ``mask`` is True."""
    target_score = scores[target_index]
    considered = scores[mask]
    higher = float(np.sum(considered > target_score))
    tied = float(np.sum(considered == target_score))
    # The target itself is always inside ``considered`` — exclude it from the tie count.
    tied_others = max(tied - 1.0, 0.0)
    return 1.0 + higher + tied_others / 2.0


def evaluate_per_triple(
    evaluator,
    scorer,
    test_triples: Optional[Sequence] = None,
    model_name: Optional[str] = None,
    sides: Tuple[str, ...] = SIDES,
) -> EvaluationResult:
    """Rank every test triple on ``sides`` against ``evaluator``'s filter."""
    source = evaluator.dataset.test if test_triples is None else test_triples
    name = model_name or getattr(scorer, "name", type(scorer).__name__)
    result = EvaluationResult(model_name=name, dataset_name=evaluator.dataset.name)
    evaluator._configure_scorer(scorer)
    triples = as_triple_array(source).tolist()
    known_index = evaluator.known_index
    all_candidates = np.ones(evaluator.dataset.num_entities, dtype=bool)
    for h, r, t in triples:
        if "tail" in sides:
            scores = np.asarray(scorer.score_all_tails(h, r), dtype=np.float64)
            raw = rank_with_mean_ties(scores, t, all_candidates)
            mask = all_candidates.copy()
            for known_tail in known_index.tails.completions(h, r).tolist():
                if known_tail != t:
                    mask[known_tail] = False
            filtered = rank_with_mean_ties(scores, t, mask)
            result.records.append(RankRecord(h, r, t, "tail", raw, filtered))
        if "head" in sides:
            scores = np.asarray(scorer.score_all_heads(r, t), dtype=np.float64)
            raw = rank_with_mean_ties(scores, h, all_candidates)
            mask = all_candidates.copy()
            for known_head in known_index.heads.completions(t, r).tolist():
                if known_head != h:
                    mask[known_head] = False
            filtered = rank_with_mean_ties(scores, h, mask)
            result.records.append(RankRecord(h, r, t, "head", raw, filtered))
    return result
