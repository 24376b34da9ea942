"""Property tests for reduced-precision evaluation (satellite: eval dtypes).

Two guarantees worth pinning down with Hypothesis rather than examples:

1. **Well-separated scores are dtype-robust.**  When adjacent scores differ by
   more than the fp32 rounding error at their magnitude, casting the score row
   to fp32 before ranking cannot reorder or merge anything, so fp32 ranks are
   bit-identical to fp64 ranks — raw and filtered.
2. **Ties are mean-ranked identically under the fused kernel.**  The fused
   comparison-count path and the materializing ``mean_tie_ranks`` path must
   agree bitwise on arbitrarily tie-heavy rows, for every known-filter shape.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EvalOptions
from repro.backend import ScoreComputeMixin
from repro.kg import Dataset, TripleSet, Vocabulary
from repro.kg.wordnet import wn18_like
from repro.eval import evaluate_model, rank_block
from repro.eval.sharding import mean_tie_ranks
from repro.models import ModelConfig, make_model


def fused_rank_row(scores, targets, known):
    """One score row ranked by the block kernel, as a one-row block."""
    known = np.empty(0, dtype=np.int64) if known is None else known
    return rank_block(
        scores[None, :], targets, np.array([0, len(targets)]),
        known, np.array([0, len(known)]),
    )


# ---------------------------------------------------------------------------- strategies
def separated_rows(draw):
    """A score row whose distinct values survive an fp32 round-trip intact.

    Distinct integers scaled by a modest factor: adjacent values differ by at
    least ``scale`` (>= 0.5) while the fp32 ulp at the largest magnitude
    (~2e5) is ~0.015, so fp32 rounding can neither merge nor reorder them.
    """
    values = draw(
        st.lists(
            st.integers(min_value=-100_000, max_value=100_000),
            min_size=4,
            max_size=48,
            unique=True,
        )
    )
    scale = draw(st.floats(min_value=0.5, max_value=2.0, allow_nan=False))
    return np.array(values, dtype=np.float64) * scale


@st.composite
def separated_ranking_cases(draw):
    scores = separated_rows(draw)
    n = len(scores)
    targets = np.array(
        draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)), dtype=np.int64
    )
    known = draw(
        st.none()
        | st.lists(st.integers(0, n - 1), max_size=n, unique=True).map(
            lambda v: np.array(v, dtype=np.int64)
        )
    )
    return scores, targets, known


@st.composite
def tie_heavy_cases(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    modulus = draw(st.integers(min_value=1, max_value=4))  # few values => ties
    scores = np.array(
        draw(st.lists(st.integers(0, modulus), min_size=n, max_size=n)),
        dtype=np.float64,
    )
    targets = np.array(
        draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5)), dtype=np.int64
    )
    known = draw(
        st.none()
        | st.lists(st.integers(0, n - 1), max_size=n, unique=True).map(
            lambda v: np.array(v, dtype=np.int64)
        )
    )
    return scores, targets, known


# ---------------------------------------------------------------------------- property 1: fp32 rank stability
@settings(max_examples=200, deadline=None)
@given(case=separated_ranking_cases())
def test_fp32_ranks_match_fp64_on_well_separated_scores(case):
    scores, targets, known = case
    raw64, filtered64 = mean_tie_ranks(scores, targets, known)
    demoted = scores.astype(np.float32).astype(np.float64)
    raw32, filtered32 = fused_rank_row(demoted, targets, known)
    np.testing.assert_array_equal(raw32, raw64)
    np.testing.assert_array_equal(filtered32, filtered64)


@settings(max_examples=100, deadline=None)
@given(case=separated_ranking_cases())
def test_fp16_ranks_match_fp64_when_separation_survives_fp16(case):
    scores, targets, known = case
    with np.errstate(over="ignore"):  # fp16 overflow to inf is fine: guarded below
        demoted = scores.astype(np.float16).astype(np.float64)
    # fp16 has ~3 decimal digits; only assert when the cast kept all values
    # distinct, i.e. the row is genuinely fp16-separated.
    if len(np.unique(demoted)) != len(np.unique(scores)):
        return
    order64 = np.argsort(scores, kind="stable")
    order16 = np.argsort(demoted, kind="stable")
    if not np.array_equal(order64, order16):
        return
    raw64, filtered64 = mean_tie_ranks(scores, targets, known)
    raw16, filtered16 = fused_rank_row(demoted, targets, known)
    np.testing.assert_array_equal(raw16, raw64)
    np.testing.assert_array_equal(filtered16, filtered64)


# ---------------------------------------------------------------------------- property 2: tie handling
@settings(max_examples=300, deadline=None)
@given(case=tie_heavy_cases())
def test_ties_mean_ranked_identically_under_fused_kernel(case):
    scores, targets, known = case
    raw_ref, filtered_ref = mean_tie_ranks(scores, targets, known)
    raw_fused, filtered_fused = fused_rank_row(scores, targets, known)
    np.testing.assert_array_equal(raw_fused, raw_ref)
    np.testing.assert_array_equal(filtered_fused, filtered_ref)


@settings(max_examples=150, deadline=None)
@given(case=tie_heavy_cases())
def test_tie_handling_is_dtype_invariant_for_small_integer_scores(case):
    scores, targets, known = case  # integer-valued in [0, 4]: exact in fp16
    raw_ref, filtered_ref = mean_tie_ranks(scores, targets, known)
    for dtype in (np.float32, np.float16):
        demoted = scores.astype(dtype).astype(np.float64)
        raw, filtered = fused_rank_row(demoted, targets, known)
        np.testing.assert_array_equal(raw, raw_ref)
        np.testing.assert_array_equal(filtered, filtered_ref)


# ---------------------------------------------------------------------------- end-to-end fp32 evaluation
class _IntegerTableScorer(ScoreComputeMixin):
    """Scorer over an integer-valued table: exact in fp32, so the fp32 eval
    path must reproduce the fp64 metrics bit-for-bit through the real
    ``EvalCompute`` cast/export machinery."""

    name = "IntegerTable"

    def __init__(self, num_entities: int, seed: int = 0) -> None:
        self.num_entities = num_entities
        rng = np.random.default_rng(seed)
        self.tables = {
            side: rng.integers(0, 7, size=(16, num_entities)).astype(np.float64)
            for side in ("tail", "head")
        }

    def _rows(self, table: np.ndarray, index: np.ndarray) -> np.ndarray:
        compute = self.score_compute
        resident = compute.export(table)
        rows = resident[index % len(table)]
        return np.asarray(rows, dtype=np.float64)

    def score_tails_batch(self, heads, relations) -> np.ndarray:
        index = np.asarray(heads) * 3 + np.asarray(relations)
        return self._rows(self.tables["tail"], index)

    def score_heads_batch(self, relations, tails) -> np.ndarray:
        index = np.asarray(relations) * 5 + np.asarray(tails)
        return self._rows(self.tables["head"], index)

    def score_all_tails(self, head: int, relation: int) -> np.ndarray:
        return self.score_tails_batch(np.array([head]), np.array([relation]))[0]

    def score_all_heads(self, relation: int, tail: int) -> np.ndarray:
        return self.score_heads_batch(np.array([relation]), np.array([tail]))[0]


@pytest.fixture()
def integer_dataset():
    n = 10
    vocab = Vocabulary.from_labels(
        [f"e{i}" for i in range(n)], ["r0", "r1"]
    )
    train = TripleSet([(0, 0, 1), (1, 0, 2), (3, 1, 4), (5, 1, 6)])
    valid = TripleSet([(2, 0, 3)])
    test = TripleSet([(4, 0, 5), (6, 1, 7), (8, 1, 9)])
    return Dataset("integer-toy", vocab, train, valid, test)


@pytest.mark.parametrize("eval_dtype", ["fp32", "fp16"])
def test_fp_reduced_evaluation_metrics_identical_on_integer_scores(
    eval_dtype, integer_dataset
):
    scorer = _IntegerTableScorer(integer_dataset.num_entities)
    reference = evaluate_model(scorer, integer_dataset)
    scorer.set_eval_dtype("fp64")  # reset between runs
    reduced = evaluate_model(scorer, integer_dataset, options=EvalOptions(eval_dtype=eval_dtype))
    assert len(reference.records) == len(reduced.records)
    for expected, actual in zip(reference.records, reduced.records):
        assert expected.raw_rank == actual.raw_rank
        assert expected.filtered_rank == actual.filtered_rank


def test_eval_dtype_does_not_stick_to_the_scorer():
    """Every evaluation applies its own eval dtype, the default fp64 included,
    so an earlier fp16 evaluation leaves nothing behind on the scorer."""
    dataset = wn18_like("tiny", seed=1)

    def distmult():
        model = make_model(
            "DistMult", dataset.num_entities, dataset.num_relations,
            ModelConfig(dim=16, seed=2),
        )
        model.train_mode(False)
        return model

    model = distmult()
    evaluate_model(model, dataset, options=EvalOptions(eval_dtype="fp16"))
    after = evaluate_model(model, dataset)
    fresh = evaluate_model(distmult(), dataset)
    assert [(r.raw_rank, r.filtered_rank) for r in after.records] == [
        (r.raw_rank, r.filtered_rank) for r in fresh.records
    ]
    assert model.score_tails_batch(np.array([0]), np.array([0])).dtype == np.float64
