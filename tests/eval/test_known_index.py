"""The columnar known-triple index and the block rank kernel against oracles.

Two references are kept here as test-only oracles:

* the evaluator's former filter build — a dict of sets per ``(h, r)`` /
  ``(r, t)`` query over ``dataset.known_triples()`` (or the explicit
  ``filter_triples``), plus ``extra_ground_truth``, frozen into sorted int64
  arrays.  :class:`~repro.kg.known_index.KnownTripleIndex` must hold exactly
  the same per-query arrays;
* :func:`~repro.eval.sharding.mean_tie_ranks`, the per-row rank arithmetic.
  :func:`~repro.eval.sharding.rank_block` must reproduce it bit for bit on
  every (row, target) pair of a block, whatever the eval batch size, block
  budget and shard partition.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import LinkPredictionEvaluator, QueryWork, evaluate_shards, plan_shards
from repro.eval import rank_block, rank_shard, sharding
from repro.eval.sharding import mean_tie_ranks
from repro.kg import Dataset, TripleSet, Vocabulary
from repro.kg.known_index import KnownTripleIndex

NUM_ENTITIES = 7
NUM_RELATIONS = 3


# ---------------------------------------------------------------------------- oracle: filter build
def reference_filters(dataset, filter_triples=None, extra_ground_truth=None):
    """The evaluator's former dict-of-set filter build, verbatim."""
    known = set(filter_triples) if filter_triples is not None else dataset.known_triples()
    if extra_ground_truth is not None:
        known |= extra_ground_truth.as_set()
    known_tail_sets, known_head_sets = {}, {}
    for h, r, t in known:
        known_tail_sets.setdefault((h, r), set()).add(t)
        known_head_sets.setdefault((r, t), set()).add(h)
    tails = {
        query: np.fromiter(sorted(values), dtype=np.int64, count=len(values))
        for query, values in known_tail_sets.items()
    }
    heads = {
        query: np.fromiter(sorted(values), dtype=np.int64, count=len(values))
        for query, values in known_head_sets.items()
    }
    return tails, heads


def table_filters(index):
    """The index's tables decoded to the oracle's ``(h, r)`` / ``(r, t)`` dicts."""
    decoded = []
    for table, swap in ((index.tails, False), (index.heads, True)):
        anchors = (table.keys % max(1, table.entity_radix)).tolist()
        relations = (table.keys // max(1, table.entity_radix)).tolist()
        filters = {}
        for row, (anchor, relation) in enumerate(zip(anchors, relations)):
            query = (relation, anchor) if swap else (anchor, relation)
            filters[query] = table.values[table.offsets[row]:table.offsets[row + 1]]
        decoded.append(filters)
    return decoded


def assert_same_filters(index, reference):
    for ours, theirs in zip(table_filters(index), reference):
        assert set(ours) == set(theirs)
        for query, values in theirs.items():
            assert ours[query].dtype == np.int64
            assert np.array_equal(ours[query], values), query
    # Every held query answers through the lookup path too.
    tails, heads = reference
    for (h, r), values in tails.items():
        assert np.array_equal(index.tails.completions(h, r), values)
    for (r, t), values in heads.items():
        assert np.array_equal(index.heads.completions(t, r), values)


_TRIPLE = st.tuples(
    st.integers(0, NUM_ENTITIES - 1),
    st.integers(0, NUM_RELATIONS - 1),
    st.integers(0, NUM_ENTITIES - 1),
)
_SPLIT = st.lists(_TRIPLE, max_size=25)


def _dataset(train, valid, test):
    vocab = Vocabulary.from_labels(
        [f"e{i}" for i in range(NUM_ENTITIES)], [f"r{i}" for i in range(NUM_RELATIONS)]
    )
    return Dataset("oracle", vocab, TripleSet(train), TripleSet(valid), TripleSet(test))


@settings(max_examples=150, deadline=None)
@given(
    train=_SPLIT,
    valid=_SPLIT,
    test=_SPLIT,
    extra=st.none() | _SPLIT,
    filter_triples=st.none() | _SPLIT,
    shared=st.lists(_TRIPLE, max_size=6),
)
def test_index_per_query_arrays_equal_the_dict_of_set_oracle(
    train, valid, test, extra, filter_triples, shared
):
    """Cross-split duplicates (``shared`` lands in every split), empty splits,
    an alternate ground truth and explicit (possibly empty) filters all give
    the oracle's per-query arrays."""
    dataset = _dataset(train + shared, valid + shared, test + shared)
    extra_set = None if extra is None else TripleSet(extra)
    evaluator = LinkPredictionEvaluator(
        dataset, filter_triples=filter_triples, extra_ground_truth=extra_set
    )
    reference = reference_filters(dataset, filter_triples, extra_set)
    assert_same_filters(evaluator.known_index, reference)
    if filter_triples is None and extra is None:
        assert_same_filters(KnownTripleIndex.for_dataset(dataset), reference)


def test_empty_filter_holds_no_query(toy_dataset):
    index = LinkPredictionEvaluator(toy_dataset, filter_triples=[]).known_index
    assert len(index.tails) == 0 and len(index.heads) == 0
    starts, stops = index.tails.ranges(np.arange(3), np.zeros(3, dtype=np.int64))
    assert np.array_equal(starts, stops)


def test_unknown_and_out_of_range_queries_have_empty_ranges(toy_dataset):
    index = KnownTripleIndex.for_dataset(toy_dataset)
    anchors = np.array([0, 0, 7, -1, 10**9, 3])
    relations = np.array([0, 1, 3, 0, 0, 10**9])
    starts, stops = index.tails.ranges(anchors, relations)
    assert np.array_equal(index.tails.values[starts[0]:stops[0]], [4])
    assert np.array_equal(starts[1:], stops[1:])


def test_index_packs_keys_like_the_sampler():
    """Same radices and the same int64-overflow refusal as the sampler."""
    with pytest.raises(ValueError, match="2147483648 entities x 6 relations"):
        KnownTripleIndex.from_triples([(0, 5, 1)], num_entities=2**31)
    with pytest.raises(ValueError, match="non-negative"):
        KnownTripleIndex.from_triples([(0, 0, -1)])


# ---------------------------------------------------------------------------- oracle: per-row ranks
@st.composite
def ranking_blocks(draw):
    """A tie-heavy score block with multi-target rows and known lists that
    sometimes hold the row's targets and sometimes do not."""
    rows = draw(st.integers(1, 12))
    width = draw(st.integers(1, 12))
    modulus = draw(st.integers(0, 3))
    scores = np.array(
        draw(st.lists(st.integers(0, modulus), min_size=rows * width, max_size=rows * width)),
        dtype=np.float64,
    ).reshape(rows, width)
    targets, known = [], []
    for _ in range(rows):
        targets.append(draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=4)))
        known.append(draw(st.lists(st.integers(0, width - 1), max_size=width, unique=True)))
    return scores, targets, known


def _csr(runs):
    values = np.array([value for run in runs for value in run], dtype=np.int64)
    offsets = np.cumsum([0] + [len(run) for run in runs]).astype(np.int64)
    return values, offsets


def _per_row_oracle(scores, targets, known):
    raw, filtered = [], []
    for row, row_targets, row_known in zip(scores, targets, known):
        ranks = mean_tie_ranks(
            row, np.array(row_targets, dtype=np.int64), np.array(row_known, dtype=np.int64)
        )
        raw.append(ranks[0])
        filtered.append(ranks[1])
    return np.concatenate(raw), np.concatenate(filtered)


@settings(max_examples=300, deadline=None)
@given(
    case=ranking_blocks(),
    gather_budget=st.just(sharding._GATHER_BUDGET) | st.integers(1, 40),
)
def test_block_ranks_equal_per_row_mean_tie_ranks(case, gather_budget):
    """Small gather budgets split further targets over several slabs; slab
    boundaries never change a rank."""
    scores, targets, known = case
    target_values, target_offsets = _csr(targets)
    known_values, known_offsets = _csr(known)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sharding, "_GATHER_BUDGET", gather_budget)
        raw, filtered = rank_block(
            scores, target_values, target_offsets, known_values, known_offsets
        )
    expected_raw, expected_filtered = _per_row_oracle(scores, targets, known)
    assert raw.dtype == filtered.dtype == np.float64
    assert np.array_equal(raw, expected_raw)
    assert np.array_equal(filtered, expected_filtered)


class _TableScorer:
    """Query ``(a, b)`` scores row ``(a * 3 + b) % len(table)`` of a fixed table."""

    name = "Table"

    def __init__(self, table: np.ndarray) -> None:
        self.table = table
        self.num_entities = table.shape[1]

    def _rows(self, first, second):
        return self.table[(np.asarray(first) * 3 + np.asarray(second)) % len(self.table)]

    def score_tails_batch(self, heads, relations):
        return self._rows(heads, relations)

    def score_heads_batch(self, relations, tails):
        return self._rows(relations, tails)

    def score_all_tails(self, head, relation):
        return self._rows([head], [relation])[0]

    def score_all_heads(self, relation, tail):
        return self._rows([relation], [tail])[0]


def _work(side, scorer, case):
    scores, targets, known = case
    queries = np.array([(row, 0) for row in range(len(scores))], dtype=np.int64)
    target_values, target_offsets = _csr(targets)
    known_values, known_offsets = _csr(known)
    work = QueryWork(side, queries, target_values, target_offsets, known_values, known_offsets)
    rows = scorer._rows(queries[:, 0], queries[:, 1])
    return work, _per_row_oracle(rows, targets, known)


@settings(max_examples=150, deadline=None)
@given(
    case=ranking_blocks(),
    side=st.sampled_from(["tail", "head"]),
    eval_batch_size=st.integers(1, 8),
    score_block_budget=st.none() | st.integers(1, 60),
    n_workers=st.integers(1, 5),
    shard_size=st.none() | st.integers(1, 4),
)
def test_sharded_block_ranks_equal_per_row_mean_tie_ranks(
    case, side, eval_batch_size, score_block_budget, n_workers, shard_size
):
    """Batch size, block budget and the shard partition (what each worker
    ranks) never change a rank: every shard equals the per-row oracle."""
    scorer = _TableScorer(np.random.default_rng(3).integers(0, 3, (5, case[0].shape[1])) * 1.0)
    work, (expected_raw, expected_filtered) = _work(side, scorer, case)
    raw_parts, filtered_parts = [], []
    for start, stop in plan_shards(len(work), n_workers, shard_size):
        raw, filtered = rank_shard(scorer, work[start:stop], eval_batch_size, score_block_budget)
        raw_parts.append(raw)
        filtered_parts.append(filtered)
    assert np.array_equal(np.concatenate(raw_parts), expected_raw)
    assert np.array_equal(np.concatenate(filtered_parts), expected_filtered)


@pytest.mark.multiprocess
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the test-local scorer only ships to workers under fork",
)
@pytest.mark.parametrize("score_block_budget", [None, 7])
def test_worker_pool_block_ranks_equal_per_row_mean_tie_ranks(score_block_budget, capped_workers):
    rng = np.random.default_rng(11)
    width = 9
    targets = [list(rng.integers(0, width, rng.integers(1, 4))) for _ in range(10)]
    known = [sorted(set(rng.integers(0, width, rng.integers(0, 6)).tolist())) for _ in range(10)]
    case = (np.zeros((10, width)), targets, known)
    scorer = _TableScorer(rng.integers(0, 3, (5, width)) * 1.0)
    work, (expected_raw, expected_filtered) = _work("tail", scorer, case)
    ranks = evaluate_shards(
        scorer, [work], capped_workers(3), 2, 3, "fork", score_block_budget
    )["tail"]
    assert np.array_equal(ranks[0], expected_raw)
    assert np.array_equal(ranks[1], expected_filtered)


# ---------------------------------------------------------------------------- evaluator sides
def test_unknown_side_names_are_refused(toy_dataset):
    scorer = _TableScorer(np.zeros((1, toy_dataset.num_entities)))
    evaluator = LinkPredictionEvaluator(toy_dataset)
    with pytest.raises(ValueError, match='"head".*"tail"'):
        evaluator.evaluate(scorer, sides=("tails",))
    # Known names still work.
    assert len(evaluator.evaluate(scorer, sides=("tail",)).records) == len(
        toy_dataset.test
    )
