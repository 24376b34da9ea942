"""Fused score+rank path vs the materializing evaluator.

The contract: for any ``score_block_budget`` — including a pathological
budget of one element per block — the fused path produces **bit-identical**
raw and filtered ranks to the materializing path, because both reduce to the
same exact comparison counts.  Block size is purely a memory knob.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.api import EvalOptions
from repro.core.baselines import SimpleRuleModel
from repro.core.cartesian import CartesianProductPredictor
from repro.eval import LinkPredictionEvaluator, evaluate_model, rank_block
from repro.eval.sharding import mean_tie_ranks
from repro.models import ModelConfig, make_model
from repro.models.registry import ALL_EMBEDDING_MODELS

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker path only exercised under fork here",
)

BUDGETS = [1, 1_000, 50_000]


def _assert_identical_results(reference, other):
    assert len(reference.records) == len(other.records)
    for expected, actual in zip(reference.records, other.records):
        assert (expected.triple, expected.side) == (actual.triple, actual.side)
        assert expected.raw_rank == actual.raw_rank, (expected, actual)
        assert expected.filtered_rank == actual.filtered_rank, (expected, actual)


def _embedding_scorer(name, dataset, seed=11):
    extra = {"embedding_height": 4} if name == "ConvE" else {}
    model = make_model(
        name,
        dataset.num_entities,
        dataset.num_relations,
        ModelConfig(dim=16, seed=seed, extra=extra),
    )
    model.train_mode(False)
    return model


def fused_rank_row(scores, targets, known):
    """One score row ranked by the block kernel, as a one-row block."""
    targets = np.asarray(targets, dtype=np.int64)
    known = np.empty(0, dtype=np.int64) if known is None else np.asarray(known, dtype=np.int64)
    return rank_block(
        scores[None, :], targets, np.array([0, len(targets)]),
        known, np.array([0, len(known)]),
    )


# ---------------------------------------------------------------------------- row primitive
def test_fused_rank_row_matches_mean_tie_ranks_bitwise():
    rng = np.random.default_rng(7)
    scores = rng.integers(0, 6, size=64).astype(np.float64)  # heavy ties
    targets = np.array([0, 5, 5, 63, 17])
    for known in (None, np.array([], dtype=np.int64), np.array([5, 12, 17, 40])):
        raw_fused, filtered_fused = fused_rank_row(scores, targets, known)
        raw_ref, filtered_ref = mean_tie_ranks(scores, targets, known)
        np.testing.assert_array_equal(raw_fused, raw_ref)
        np.testing.assert_array_equal(filtered_fused, filtered_ref)


def test_fused_rank_row_adds_back_target_in_known_set():
    # When the target itself appears among the known entities, filtering must
    # not subtract it from its own tie group.
    scores = np.array([3.0, 1.0, 3.0, 3.0, 0.0])
    targets = np.array([2])
    known = np.array([0, 2])  # one tied competitor filtered, target re-added
    raw, filtered = fused_rank_row(scores, targets, known)
    raw_ref, filtered_ref = mean_tie_ranks(scores, targets, known)
    np.testing.assert_array_equal(raw, raw_ref)
    np.testing.assert_array_equal(filtered, filtered_ref)


# ---------------------------------------------------------------------------- full-metric identity
@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", ALL_EMBEDDING_MODELS)
def test_fused_evaluation_identical_for_embedding_models(name, budget, toy_dataset):
    scorer = _embedding_scorer(name, toy_dataset)
    reference = evaluate_model(scorer, toy_dataset)
    fused = evaluate_model(scorer, toy_dataset, options=EvalOptions(score_block_budget=budget))
    _assert_identical_results(reference, fused)


@pytest.mark.parametrize("budget", BUDGETS)
def test_fused_evaluation_identical_for_rule_scorers(budget, toy_dataset):
    scorers = [
        SimpleRuleModel(toy_dataset.train, toy_dataset.num_entities, threshold=0.5),
        CartesianProductPredictor(toy_dataset.train, toy_dataset.num_entities),
    ]
    for scorer in scorers:
        reference = evaluate_model(scorer, toy_dataset)
        fused = evaluate_model(scorer, toy_dataset, options=EvalOptions(score_block_budget=budget))
        _assert_identical_results(reference, fused)


def test_evaluator_level_budget_is_the_default(toy_dataset):
    scorer = _embedding_scorer("ComplEx", toy_dataset)
    evaluator = LinkPredictionEvaluator(toy_dataset, options=EvalOptions(score_block_budget=1))
    fused = evaluator.evaluate(scorer)
    reference = evaluate_model(scorer, toy_dataset)
    _assert_identical_results(reference, fused)


# ---------------------------------------------------------------------------- worker path
@requires_fork
@pytest.mark.parametrize("budget", [1, 50_000])
def test_fused_evaluation_identical_across_workers(budget, toy_dataset):
    scorer = _embedding_scorer("TransE", toy_dataset)
    reference = evaluate_model(scorer, toy_dataset)
    fused = evaluate_model(
        scorer, toy_dataset, options=EvalOptions(workers=2, score_block_budget=budget)
    )
    _assert_identical_results(reference, fused)
