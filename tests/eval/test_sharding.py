"""Shard-merge determinism and multi-process equivalence.

The contract under test: **any** contiguous shard partition of **any**
unique-query order reproduces the single-process raw and filtered ranks
bit-identically — including massive score ties and ``n_workers > n_queries``
— and the multi-process evaluator is just that merge executed across worker
processes, so it inherits the identity for every scorer family.
"""

from __future__ import annotations

import multiprocessing
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EvalOptions
from repro.core.baselines import SimpleRuleModel
from repro.core.cartesian import CartesianProductPredictor
from repro.eval import (
    LinkPredictionEvaluator,
    QueryWork,
    evaluate_model,
    evaluate_shards,
    plan_shards,
    rank_shard,
)
from repro.models import ModelConfig, make_model
from repro.models.registry import ALL_EMBEDDING_MODELS
from repro.rules.amie import AmieConfig, AmieMiner
from repro.rules.predictor import RuleBasedPredictor
from repro.telemetry import Telemetry, scoped

#: Test-local scorer classes ship to workers by reference, which only works
#: when the child inherits this module's state via fork.
requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="test-local scorer classes only ship to workers under fork",
)


def _assert_identical_results(reference, other):
    assert len(reference.records) == len(other.records)
    for expected, actual in zip(reference.records, other.records):
        assert (expected.triple, expected.side) == (actual.triple, actual.side)
        assert expected.raw_rank == actual.raw_rank, (expected, actual)
        assert expected.filtered_rank == actual.filtered_rank, (expected, actual)


def _query_rich_triples(dataset):
    return list(dataset.train) + list(dataset.valid) + list(dataset.test)


def _with_options(evaluator, **options):
    """An evaluator with other options that shares ``evaluator``'s filter."""
    return LinkPredictionEvaluator(
        evaluator.dataset, options=EvalOptions(**options), known_index=evaluator.known_index
    )


# ---------------------------------------------------------------------------- planning
@settings(max_examples=200, deadline=None)
@given(
    num_queries=st.integers(min_value=0, max_value=200),
    n_workers=st.integers(min_value=1, max_value=16),
    shard_size=st.none() | st.integers(min_value=1, max_value=32),
)
def test_plan_shards_is_a_deterministic_contiguous_partition(
    num_queries, n_workers, shard_size
):
    shards = plan_shards(num_queries, n_workers, shard_size)
    assert shards == plan_shards(num_queries, n_workers, shard_size)
    cursor = 0
    for start, stop in shards:
        assert start == cursor and stop > start
        cursor = stop
    assert cursor == num_queries
    if num_queries == 0:
        assert shards == []
    elif shard_size is None:
        # One balanced shard per worker; n_workers > num_queries degrades to
        # singleton shards, never empty ones.
        assert len(shards) == min(n_workers, num_queries)
        sizes = [stop - start for start, stop in shards]
        assert max(sizes) - min(sizes) <= 1
    else:
        assert len(shards) == -(-num_queries // shard_size)
        assert all(stop - start <= shard_size for start, stop in shards)


# ---------------------------------------------------------------------------- merge property
class _TieHeavyScorer:
    """Few distinct score values => massive ties; no batched contract, so the
    per-query fallback inside :func:`rank_shard` is exercised too."""

    name = "TieHeavy"

    def __init__(self, num_entities: int, modulus: int = 3, seed: int = 5) -> None:
        self.num_entities = num_entities
        rng = np.random.default_rng(seed)
        self.table = rng.integers(0, modulus, size=(8, num_entities)).astype(np.float64)

    def score_all_tails(self, head: int, relation: int) -> np.ndarray:
        return self.table[(head + 2 * relation) % len(self.table)]

    def score_all_heads(self, relation: int, tail: int) -> np.ndarray:
        return self.table[(relation + 3 * tail) % len(self.table)]


_TRIPLES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=40,
)


def _side_work(triples, side):
    """The evaluator's deduplicated query order for one side, filtered by the
    same triples: targets grouped per query, known completions sorted."""
    groups = {}
    for h, r, t in triples:
        query = (h, r) if side == "tail" else (r, t)
        groups.setdefault(query, []).append(t if side == "tail" else h)
    order = sorted(groups)
    targets = [groups[query] for query in order]
    known = [sorted(set(values)) for values in targets]
    return QueryWork(
        side=side,
        queries=np.array(order, dtype=np.int64).reshape(-1, 2),
        targets=np.array([x for values in targets for x in values], dtype=np.int64),
        target_offsets=np.cumsum([0] + [len(values) for values in targets]),
        known=np.array([x for values in known for x in values], dtype=np.int64),
        known_offsets=np.cumsum([0] + [len(values) for values in known]),
    )


@settings(max_examples=60, deadline=None)
@given(
    triples=_TRIPLES,
    side=st.sampled_from(["tail", "head"]),
    n_workers=st.integers(min_value=1, max_value=64),
    shard_size=st.none() | st.integers(min_value=1, max_value=8),
    eval_batch_size=st.integers(min_value=1, max_value=7),
)
def test_any_shard_partition_reproduces_single_process_ranks(
    triples, side, n_workers, shard_size, eval_batch_size
):
    """The property at the heart of the subsystem: shard boundaries (for any
    worker count, shard size and batch size, ties included) are unobservable
    in the merged raw and filtered rank arrays."""
    scorer = _TieHeavyScorer(num_entities=8)
    work = _side_work(triples, side)
    whole_raw, whole_filtered = rank_shard(scorer, work, eval_batch_size)
    raw_parts, filtered_parts = [], []
    for start, stop in plan_shards(len(work), n_workers, shard_size):
        raw, filtered = rank_shard(scorer, work[start:stop], eval_batch_size)
        raw_parts.append(raw)
        filtered_parts.append(filtered)
    merged_raw = np.concatenate(raw_parts)
    merged_filtered = np.concatenate(filtered_parts)
    assert np.array_equal(whole_raw, merged_raw)
    assert np.array_equal(whole_filtered, merged_filtered)
    # evaluate_shards with n_workers=1 is the exact in-process path.
    in_process = evaluate_shards(scorer, [work], 1, shard_size, eval_batch_size)
    assert np.array_equal(in_process[side][0], whole_raw)
    assert np.array_equal(in_process[side][1], whole_filtered)


# ---------------------------------------------------------------------------- multi-process equivalence
@pytest.mark.multiprocess
@pytest.mark.parametrize("model_name", sorted(ALL_EMBEDDING_MODELS))
def test_embedding_models_sharded_matches_single_process(
    model_name, toy_dataset, capped_workers
):
    extra = {"embedding_height": 4} if model_name == "ConvE" else {}
    model = make_model(
        model_name,
        toy_dataset.num_entities,
        toy_dataset.num_relations,
        ModelConfig(dim=16, seed=7, extra=extra),
    )
    model.train_mode(False)
    evaluator = LinkPredictionEvaluator(toy_dataset)
    triples = _query_rich_triples(toy_dataset)
    single = evaluator.evaluate(model, test_triples=triples)
    sharded = _with_options(evaluator, workers=capped_workers(2)).evaluate(
        model, test_triples=triples
    )
    _assert_identical_results(single, sharded)


@pytest.mark.multiprocess
@pytest.mark.parametrize("scorer_kind", ["amie", "simple", "cartesian"])
def test_rule_and_baseline_predictors_sharded_matches_single_process(
    scorer_kind, toy_dataset, capped_workers
):
    if scorer_kind == "amie":
        rules = AmieMiner(toy_dataset.train, AmieConfig()).mine()
        scorer = RuleBasedPredictor(rules.rules, toy_dataset.train, toy_dataset.num_entities)
    elif scorer_kind == "simple":
        scorer = SimpleRuleModel(toy_dataset.train, toy_dataset.num_entities, threshold=0.5)
    else:
        scorer = CartesianProductPredictor(toy_dataset.train, toy_dataset.num_entities)
    evaluator = LinkPredictionEvaluator(toy_dataset)
    triples = _query_rich_triples(toy_dataset)
    single = evaluator.evaluate(scorer, test_triples=triples)
    sharded = _with_options(evaluator, workers=capped_workers(2), shard_size=2).evaluate(
        scorer, test_triples=triples
    )
    _assert_identical_results(single, sharded)


@pytest.mark.multiprocess
@requires_fork
def test_scalar_only_scorers_shard_through_the_fallback(toy_dataset, capped_workers):
    scorer = _TieHeavyScorer(toy_dataset.num_entities)
    evaluator = LinkPredictionEvaluator(toy_dataset)
    triples = _query_rich_triples(toy_dataset)
    single = evaluator.evaluate(scorer, test_triples=triples)
    sharded = _with_options(evaluator, workers=capped_workers(2)).evaluate(
        scorer, test_triples=triples
    )
    _assert_identical_results(single, sharded)


@pytest.mark.multiprocess
def test_more_workers_than_queries(toy_dataset, capped_workers):
    model = make_model(
        "DistMult", toy_dataset.num_entities, toy_dataset.num_relations, ModelConfig(dim=8, seed=3)
    )
    model.train_mode(False)
    triples = [next(iter(toy_dataset.test))]
    evaluator = LinkPredictionEvaluator(toy_dataset)
    single = evaluator.evaluate(model, test_triples=triples)
    sharded = _with_options(evaluator, workers=capped_workers(4)).evaluate(
        model, test_triples=triples
    )
    _assert_identical_results(single, sharded)
    assert len(sharded.records) == 2  # one head + one tail record


@pytest.mark.multiprocess
def test_constructor_knobs_and_evaluate_model_passthrough(toy_dataset, capped_workers):
    model = make_model(
        "ComplEx", toy_dataset.num_entities, toy_dataset.num_relations, ModelConfig(dim=8, seed=11)
    )
    model.train_mode(False)
    baseline = LinkPredictionEvaluator(toy_dataset).evaluate(model)
    via_constructor = LinkPredictionEvaluator(
        toy_dataset, options=EvalOptions(workers=capped_workers(2), shard_size=1)
    ).evaluate(model)
    _assert_identical_results(baseline, via_constructor)
    via_wrapper = evaluate_model(
        model, toy_dataset, options=EvalOptions(workers=capped_workers(2)), model_name="ComplEx"
    )
    assert baseline.metrics().as_dict() == via_wrapper.metrics().as_dict()


@pytest.mark.multiprocess
def test_sharded_metrics_equal_single_process_metrics(toy_dataset, capped_workers):
    """Aggregate metrics — not just ranks — are bit-identical when sharded."""
    scorer = SimpleRuleModel(toy_dataset.train, toy_dataset.num_entities, threshold=0.5)
    evaluator = LinkPredictionEvaluator(toy_dataset)
    single = evaluator.evaluate(scorer)
    sharded = _with_options(evaluator, workers=capped_workers(3)).evaluate(scorer)
    assert single.metrics().as_dict() == sharded.metrics().as_dict()
    assert single.metrics_by_relation().keys() == sharded.metrics_by_relation().keys()


# ---------------------------------------------------------------------------- telemetry merge
@settings(max_examples=40, deadline=None)
@given(
    triples=_TRIPLES,
    side=st.sampled_from(["tail", "head"]),
    n_workers=st.integers(min_value=1, max_value=8),
    shard_size=st.none() | st.integers(min_value=1, max_value=8),
    order_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_per_shard_telemetry_payloads_fold_to_single_process_counts(
    triples, side, n_workers, shard_size, order_seed
):
    """Telemetry inherits the shard-merge property: running each shard under
    its own scoped Telemetry (exactly what a pool worker does) and absorbing
    the payloads in ANY order reproduces the single-process metric counts."""
    scorer = _TieHeavyScorer(num_entities=8)
    work = _side_work(triples, side)

    with scoped(Telemetry(enabled=True)) as single:
        evaluate_shards(scorer, [work], 1, None, 4)
        reference = single.snapshot()["counters"]

    shards = plan_shards(len(work), n_workers, shard_size)
    payloads = []
    for start, stop in shards:
        with scoped(Telemetry(enabled=True)) as worker:
            evaluate_shards(scorer, [work[start:stop]], 1, None, 4)
            payloads.append(worker.worker_payload())
    random.Random(order_seed).shuffle(payloads)

    parent = Telemetry(enabled=True)
    for payload in payloads:
        parent.absorb_worker_payload(payload)
    merged = parent.snapshot()["counters"]
    assert merged["eval.entries"] == reference["eval.entries"]
    assert merged["eval.ranked_targets"] == reference["eval.ranked_targets"]
    assert merged["eval.shards"] == len(shards)
    spans = [r for r in parent.trace_records() if r["name"] == "eval.rank_shard"]
    assert len(spans) == len(shards)
    assert sum(r["attrs"]["entries"] for r in spans) == len(work)


@pytest.mark.multiprocess
def test_multiprocess_eval_telemetry_matches_single_process(
    toy_dataset, capped_workers
):
    """Worker payloads shipped through a real pool fold to the single-process
    counts, and enabling telemetry changes no rank."""
    model = make_model(
        "DistMult", toy_dataset.num_entities, toy_dataset.num_relations,
        ModelConfig(dim=8, seed=3),
    )
    model.train_mode(False)
    evaluator = LinkPredictionEvaluator(toy_dataset)
    sharding = _with_options(evaluator, workers=capped_workers(2))
    triples = _query_rich_triples(toy_dataset)

    untraced = evaluator.evaluate(model, test_triples=triples)
    with scoped(Telemetry(enabled=True)) as single_t:
        single = evaluator.evaluate(model, test_triples=triples)
        single_counts = single_t.snapshot()["counters"]
    with scoped(Telemetry(enabled=True)) as sharded_t:
        sharded = sharding.evaluate(model, test_triples=triples)
        sharded_counts = sharded_t.snapshot()["counters"]

    _assert_identical_results(untraced, single)   # telemetry never changes a rank
    _assert_identical_results(single, sharded)
    assert sharded_counts["eval.entries"] == single_counts["eval.entries"]
    assert sharded_counts["eval.ranked_targets"] == single_counts["eval.ranked_targets"]
    # The parent absorbed one eval.rank_shard span per worker shard.
    spans = [
        r for r in sharded_t.trace_records() if r["name"] == "eval.rank_shard"
    ]
    assert len(spans) == sharded_counts["eval.shards"]


# ---------------------------------------------------------------------------- worker cap fixture
def test_capped_workers_honours_env(monkeypatch, capped_workers):
    monkeypatch.setenv("REPRO_TEST_MAX_WORKERS", "2")
    assert capped_workers(8) == 2
    assert capped_workers(1) == 1
    monkeypatch.setenv("REPRO_TEST_MAX_WORKERS", "")
    assert capped_workers(8) == 8
