"""The micro-batching query engine: exact answers at any batching/cache state.

The tentpole acceptance tests live here:

* top-k ids **and** scores are bit-identical to the full-sort reference
  ``lexsort((ids, -row))[:k]`` for every registered embedding model (plus the
  Cartesian-product baseline, whose massive score ties stress the
  deterministic tie-break), at micro-batch sizes 1, 3 and 64, cold and warm;
* requested ranks equal the evaluator's exact mean-tie ranks;
* the full evaluation protocol, run through :class:`EngineClient` as the
  scorer, reproduces the direct evaluation bit for bit — the evaluator as a
  *client of the serving protocol*.
"""

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Query, QueryBatch
from repro.core.cartesian import CartesianProductPredictor
from repro.eval import evaluate_model
from repro.eval.sharding import mean_tie_ranks
from repro.models import ModelConfig, make_model
from repro.models.registry import MODEL_REGISTRY
from repro.serve import EngineClient, QueryEngine, known_completion_index, topk_row

ALL_MODELS = sorted(MODEL_REGISTRY)
NUM_ENTITIES, NUM_RELATIONS = 8, 4


def build_model(name, seed=11):
    if name == "ConvE":
        config = ModelConfig(dim=16, seed=seed, extra={"embedding_height": 4})
    else:
        config = ModelConfig(dim=8, seed=seed)
    model = make_model(name, NUM_ENTITIES, NUM_RELATIONS, config)
    model.train_mode(False)
    return model


def reference_topk(row, k, exclude=()):
    """Ground truth: full lexsort by (score desc, id asc), exclusions removed."""
    order = np.lexsort((np.arange(len(row)), -row))
    keep = [entity for entity in order if entity not in set(exclude)]
    return keep[:k]


# ------------------------------------------------------------------ topk_row unit
def test_topk_row_matches_full_sort_on_heavy_ties():
    row = np.array([1.0, 3.0, 3.0, 2.0, 3.0, 1.0, 2.0, 0.5])
    for k in range(1, len(row) + 1):
        ids, scores = topk_row(row, k)
        assert list(ids) == reference_topk(row, k)
        assert np.array_equal(scores, row[ids])


def test_topk_row_with_candidate_restriction():
    row = np.array([5.0, 4.0, 4.0, 4.0, 3.0, 2.0, 1.0, 0.0])
    candidates = np.array([1, 3, 5, 7], dtype=np.int64)
    ids, scores = topk_row(row, 3, candidates)
    assert list(ids) == [1, 3, 5]        # 4.0 tie broken toward smaller id
    assert np.array_equal(scores, row[ids])


def test_topk_row_k_larger_than_pool():
    row = np.array([1.0, 2.0, 3.0])
    ids, _ = topk_row(row, 10)
    assert list(ids) == [2, 1, 0]


# ------------------------------------------------------------------ the answer path
#: A few values plus both infinities; each row draws from at most three of
#: them, so ties fall at the top-k boundary.
SCORE_VALUES = (-np.inf, -1.0, 0.0, 0.5, 2.0, np.inf)


@st.composite
def answer_cases(draw):
    num_entities = draw(st.integers(1, 12))
    palette = draw(st.lists(st.sampled_from(SCORE_VALUES), min_size=1, max_size=3, unique=True))
    row = np.array(
        draw(st.lists(st.sampled_from(palette), min_size=num_entities, max_size=num_entities))
    )
    shape = draw(st.sampled_from(("empty", "partial", "all but one")))
    if shape == "empty":
        known = []
    elif shape == "partial":
        known = sorted(draw(st.sets(st.integers(0, num_entities - 1))))
    else:
        spared = draw(st.integers(0, num_entities - 1))
        known = [entity for entity in range(num_entities) if entity != spared]
    k = draw(st.integers(1, num_entities + 2))           # up to past the pool size
    side = draw(st.sampled_from(("tail", "head")))
    return row, np.array(known, dtype=np.int64), k, draw(st.booleans()), side


@settings(max_examples=300, deadline=None)
@given(case=answer_cases())
def test_answer_equals_topk_row_plus_mean_tie_ranks(case):
    """``_answer`` reads ranks off the selection; the oracle is the full
    row's ``mean_tie_ranks`` over a ``setdiff1d``-filtered ``topk_row``."""
    row, known, k, filtered, side = case
    num_entities = row.size
    anchor, relation = 0, 0
    triples = np.array(
        [(anchor, relation, e) if side == "tail" else (e, relation, anchor) for e in known],
        dtype=np.int64,
    ).reshape(-1, 3)
    engine = QueryEngine(
        SimpleNamespace(num_entities=num_entities),
        known=known_completion_index(triples, num_entities=num_entities),
    )
    query = Query(side, anchor, relation, k=k, filtered=filtered)
    result = engine._answer(query, row, cache_hit=False, batch_size=1)

    exclude = known if filtered and known.size else None
    candidates = None if exclude is None else np.setdiff1d(np.arange(num_entities), exclude)
    ids, scores = topk_row(row, k, candidates)
    raw, filtered_ranks = mean_tie_ranks(row, ids, exclude)
    assert list(result.entities) == ids.tolist()
    assert np.array_equal(np.asarray(result.scores), scores)
    expected = (filtered_ranks if filtered else raw) if ids.size else np.empty(0)
    assert np.array_equal(np.asarray(result.ranks), expected)
    assert all(type(value) is float for value in result.ranks + result.scores)


# ------------------------------------------------------------------ acceptance
@pytest.mark.parametrize("max_batch", [1, 3, 64])
@pytest.mark.parametrize("name", ALL_MODELS)
def test_topk_bit_identical_to_reference_at_any_batching(name, max_batch, toy_dataset):
    model = build_model(name)
    known = known_completion_index(toy_dataset.known_triples())
    engine = QueryEngine(model, known=known, max_batch=max_batch)
    with EngineClient(engine) as client:
        for cache_state in ("cold", "warm"):
            for h, r, t in toy_dataset.test:
                for query, row in [
                    (Query.tail(h, r, k=5), np.asarray(model.score_all_tails(h, r), dtype=np.float64)),
                    (Query.head(r, t, k=5), np.asarray(model.score_all_heads(r, t), dtype=np.float64)),
                ]:
                    result = client.query(query)
                    expected = reference_topk(row, 5)
                    assert list(result.entities) == expected, (name, cache_state, query)
                    assert np.array_equal(np.asarray(result.scores), row[expected])

                    key = query.score_key
                    exclude = known.get(key)
                    filtered = client.query(
                        Query(query.side, query.anchor, query.relation, k=5, filtered=True)
                    )
                    expected = reference_topk(row, 5, exclude=exclude)
                    assert list(filtered.entities) == expected
                    assert not set(filtered.entities) & set(np.asarray(exclude).tolist())
        assert engine.stats.cache.hits > 0   # the warm pass really hit the cache


def test_cartesian_predictor_ties_stay_deterministic(toy_dataset):
    scorer = CartesianProductPredictor(
        toy_dataset.train, toy_dataset.num_entities, density_threshold=0.75
    )
    engine = QueryEngine(scorer, max_batch=4)
    with EngineClient(engine) as client:
        for relation in range(NUM_RELATIONS):
            row = np.asarray(scorer.score_all_tails(0, relation), dtype=np.float64)
            result = client.query(Query.tail(0, relation, k=6))
            assert list(result.entities) == reference_topk(row, 6)


def test_ranks_equal_the_evaluators_mean_tie_ranks(toy_dataset):
    model = build_model("TransE")
    reference = evaluate_model(model, toy_dataset)
    engine = QueryEngine.for_dataset(model, toy_dataset)
    with EngineClient(engine) as client:
        for record in reference.records:
            if record.side == "tail":
                query = Query.tail(record.head, record.relation, k=NUM_ENTITIES)
                target = record.tail
            else:
                query = Query.head(record.relation, record.tail, k=NUM_ENTITIES)
                target = record.head
            result = client.query(query)
            position = result.entities.index(target)
            assert result.ranks[position] == record.raw_rank


@pytest.mark.parametrize("name", ["TransE", "ComplEx", "RotatE"])
def test_full_evaluation_through_the_engine_client_is_bit_identical(name, toy_dataset):
    """The evaluator as a client of the serving protocol (acceptance)."""
    model = build_model(name)
    direct = evaluate_model(model, toy_dataset)
    engine = QueryEngine(model, max_batch=16)
    with EngineClient(engine) as client:
        served = evaluate_model(client, toy_dataset, model_name=name)
    assert len(direct.records) == len(served.records)
    for ours, theirs in zip(direct.records, served.records):
        assert ours.triple == theirs.triple and ours.side == theirs.side
        assert ours.raw_rank == theirs.raw_rank
        assert ours.filtered_rank == theirs.filtered_rank
    assert direct.metrics().as_dict() == served.metrics().as_dict()


# ------------------------------------------------------------------ coalescing
def test_concurrent_identical_queries_are_scored_once():
    model = build_model("DistMult")
    engine = QueryEngine(model, max_batch=64)

    async def burst():
        return await asyncio.gather(
            *(engine.submit(Query.tail(1, 2, k=3)) for _ in range(10))
        )

    results = asyncio.run(burst())
    stats = engine.stats
    assert stats.queries == 10
    assert stats.scored_rows == 1            # deduplicated inside the flush
    assert stats.flushes == 1
    assert stats.largest_batch == 10
    assert len({tuple(result.entities) for result in results}) == 1
    assert all(result.batch_size == 10 for result in results)


def test_the_request_path_schedules_no_timer(monkeypatch):
    """A flush runs on the loop's next turn, never after a timer: a lone
    query answers, and a gathered burst is scored once in one flush."""
    model = build_model("DistMult")
    engine = QueryEngine(model, max_batch=64)

    def no_timer(*args, **kwargs):
        raise AssertionError("the request path scheduled a timer")

    async def session():
        monkeypatch.setattr(asyncio.get_running_loop(), "call_later", no_timer)
        lone = await engine.submit(Query.tail(0, 1, k=3))
        burst = await asyncio.gather(
            *(engine.submit(Query.tail(1, 2, k=3)) for _ in range(10))
        )
        return lone, burst

    lone, burst = asyncio.run(session())
    row = np.asarray(model.score_all_tails(0, 1), dtype=np.float64)
    assert list(lone.entities) == reference_topk(row, 3)
    assert lone.batch_size == 1 and not lone.cache_hit
    stats = engine.stats
    assert stats.flushes == 2 and stats.scored_rows == 2
    assert all(result.batch_size == 10 for result in burst)
    assert len({tuple(result.entities) for result in burst}) == 1


def test_max_batch_forces_early_flushes():
    model = build_model("DistMult")
    engine = QueryEngine(model, max_batch=2)

    async def burst():
        queries = [Query.tail(h, r, k=2) for h in range(4) for r in range(2)]
        return await asyncio.gather(*(engine.submit(query) for query in queries))

    results = asyncio.run(burst())
    assert len(results) == 8
    assert engine.stats.flushes >= 4          # 8 distinct queries, batches of 2


def test_cache_hits_answer_without_scoring():
    model = build_model("TransE")
    engine = QueryEngine(model, max_batch=4)

    async def twice():
        first = await engine.submit(Query.tail(0, 1, k=4))
        second = await engine.submit(Query.tail(0, 1, k=2, filtered=False))
        return first, second

    first, second = asyncio.run(twice())
    assert not first.cache_hit and second.cache_hit
    assert engine.stats.scored_rows == 1
    assert list(second.entities) == list(first.entities[:2])


def test_submit_batch_preserves_request_order():
    model = build_model("TransE")
    engine = QueryEngine(model, max_batch=8)
    batch = QueryBatch.of(
        Query.tail(3, 1, k=2), Query.head(0, 5, k=2), Query.tail(0, 0, k=2)
    )
    result = asyncio.run(engine.submit_batch(batch))
    assert [(r.side, r.anchor, r.relation) for r in result.results] == [
        ("tail", 3, 1), ("head", 5, 0), ("tail", 0, 0)
    ]


# ------------------------------------------------------------------ validation
def test_out_of_range_queries_are_rejected():
    model = build_model("TransE")
    engine = QueryEngine(model)
    with pytest.raises(ValueError, match="anchor"):
        asyncio.run(engine.submit(Query.tail(99, 0)))
    with pytest.raises(ValueError, match="relation"):
        asyncio.run(engine.submit(Query.tail(0, 99)))


def test_engine_requires_num_entities():
    class Bare:
        pass

    with pytest.raises(ValueError, match="num_entities"):
        QueryEngine(Bare())
