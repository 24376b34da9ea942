"""Serving's filter is the evaluator's known-triple index, checked against an oracle.

The reference kept here as a test-only oracle is serving's former filter
build: a dict of sets per ``(h, r)`` / ``(r, t)`` query, frozen into sorted
int64 arrays keyed by the query's ``score_key``.
:func:`repro.serve.known_completion_index` must answer every ``score_key``
with exactly the oracle's array, and an empty array where the oracle holds
no entry.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Query
from repro.kg import Dataset, TripleSet, Vocabulary
from repro.kg.known_index import KnownTripleIndex
from repro.models import ModelConfig, make_model
from repro.serve import EngineClient, QueryEngine, known_completion_index

NUM_ENTITIES = 9
NUM_RELATIONS = 4


def reference_index(triples):
    """Serving's former dict-of-set filter build, verbatim."""
    tails, heads = {}, {}
    for h, r, t in triples:
        tails.setdefault((h, r), set()).add(t)
        heads.setdefault((r, t), set()).add(h)
    index = {}
    for (h, r), values in tails.items():
        index[("tail", h, r)] = np.fromiter(sorted(values), dtype=np.int64, count=len(values))
    for (r, t), values in heads.items():
        index[("head", r, t)] = np.fromiter(sorted(values), dtype=np.int64, count=len(values))
    return index


def every_key(num_entities, num_relations):
    """Every tail-side and head-side score key over the given id ranges."""
    for anchor in range(num_entities):
        for relation in range(num_relations):
            yield ("tail", anchor, relation)
            yield ("head", relation, anchor)


_TRIPLE = st.tuples(
    st.integers(0, NUM_ENTITIES - 1),
    st.integers(0, NUM_RELATIONS - 1),
    st.integers(0, NUM_ENTITIES - 1),
)
#: The shapes a source arrives in: a split, a plain triple list, a Python
#: set (``known_triples()``) or an ``(n, 3)`` array.
_CONTAINERS = (TripleSet, list, set, lambda rows: np.array(rows, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(
    sources=st.lists(
        st.tuples(st.lists(_TRIPLE, max_size=20), st.sampled_from(_CONTAINERS)), max_size=4
    ),
    shared=st.lists(_TRIPLE, max_size=5),
    pad=st.sampled_from([0, NUM_ENTITIES, NUM_ENTITIES + 3]),
)
def test_index_answers_every_score_key_like_the_dict_of_set_oracle(sources, shared, pad):
    """Duplicates within and across sources (``shared`` lands in every one),
    any number of sources (none included) and any entity radix."""
    rows = [triples + shared for triples, _ in sources]
    index = known_completion_index(
        *(container(triples) for triples, (_, container) in zip(rows, sources)),
        num_entities=pad,
    )
    assert isinstance(index, KnownTripleIndex)
    reference = reference_index(triple for triples in rows for triple in triples)
    for key in every_key(NUM_ENTITIES + 3, NUM_RELATIONS + 1):
        ours = index.get(key)
        assert ours.dtype == np.int64
        assert np.array_equal(ours, reference.get(key, np.empty(0, dtype=np.int64))), key


def test_absent_out_of_range_and_negative_keys_are_empty():
    index = known_completion_index([(0, 0, 1), (2, 1, 3)], num_entities=5)
    assert index.get(("tail", 0, 0)).tolist() == [1]
    assert index.get(("head", 1, 3)).tolist() == [2]
    for key in [
        ("tail", 1, 0), ("head", 0, 0),           # absent
        ("tail", 5, 0), ("head", 0, 5),           # anchor at the entity radix
        ("tail", 0, 2), ("head", 2, 3),           # relation at the relation radix
        ("tail", 10**30, 0), ("head", 10**30, 1), # far beyond either radix
        ("tail", -1, 0), ("head", 0, -1),         # negative ids
        ("tail", 0, -1), ("head", -1, 3),
    ]:
        assert index.get(key).size == 0, key
    assert known_completion_index().get(("tail", 0, 0)).size == 0


@settings(max_examples=100, deadline=None)
@given(
    triples=st.lists(_TRIPLE, max_size=30),
    queries=st.lists(
        st.tuples(st.integers(-3, NUM_ENTITIES + 3), st.integers(-3, NUM_RELATIONS + 3)),
        min_size=1, max_size=20,
    ),
)
def test_scalar_completions_equal_block_ranges(triples, queries):
    """``CompletionTable.completions`` is :meth:`ranges` for one query, in and
    out of range, on both sides."""
    index = KnownTripleIndex.from_triples(triples)
    anchors = np.array([anchor for anchor, _ in queries])
    relations = np.array([relation for _, relation in queries])
    for table in (index.tails, index.heads):
        starts, stops = table.ranges(anchors, relations)
        for (anchor, relation), start, stop in zip(queries, starts, stops):
            assert np.array_equal(table.completions(anchor, relation), table.values[start:stop])


# ---------------------------------------------------------------------------- the engine
def _dataset(num_entities=NUM_ENTITIES, num_relations=NUM_RELATIONS):
    vocab = Vocabulary.from_labels(
        [f"e{i}" for i in range(num_entities)], [f"r{i}" for i in range(num_relations)]
    )
    train = TripleSet([(0, 0, 1), (0, 0, 2), (3, 1, 2), (4, 2, 5), (6, 3, 7), (2, 0, 1)])
    valid = TripleSet([(0, 0, 3), (4, 2, 5)])
    test = TripleSet([(0, 0, 4), (5, 1, 2)])
    return Dataset("filter", vocab, train, valid, test)


def _model(num_entities=NUM_ENTITIES, num_relations=NUM_RELATIONS):
    model = make_model("DistMult", num_entities, num_relations, ModelConfig(dim=8, seed=5))
    model.train_mode(False)
    return model


def test_for_dataset_filters_from_the_split_arrays_alone(monkeypatch):
    """The engine never merges the splits: with ``all_triples`` and
    ``known_triples`` refusing, filtered answers still drop every known
    completion and match the oracle-filtered reference."""
    dataset = _dataset()
    reference = reference_index(dataset.known_triples())

    def refuse():
        raise AssertionError("the serving filter must not merge the splits")

    monkeypatch.setattr(dataset, "all_triples", refuse)
    monkeypatch.setattr(dataset, "known_triples", refuse)
    model = _model()
    engine = QueryEngine.for_dataset(model, dataset, max_batch=4, max_delay=0.001)
    with EngineClient(engine) as client:
        for key in every_key(NUM_ENTITIES, NUM_RELATIONS):
            side, first, second = key
            make, score = (
                (Query.tail, model.score_all_tails) if side == "tail"
                else (Query.head, model.score_all_heads)
            )
            row = np.asarray(score(first, second), dtype=np.float64)
            known = set(reference.get(key, np.empty(0, dtype=np.int64)).tolist())
            order = np.lexsort((np.arange(NUM_ENTITIES), -row)).tolist()
            answer = client.query(make(first, second, k=NUM_ENTITIES, filtered=True))
            assert list(answer.entities) == [e for e in order if e not in known], key


def test_engine_refuses_a_filter_with_more_entities_than_the_scorer():
    """A wider filter would index past the score row (an ``IndexError`` at
    answer time); the engine refuses it when it is built."""
    model = _model()
    with pytest.raises(ValueError, match=f"covers {NUM_ENTITIES + 1} entities.*has {NUM_ENTITIES}"):
        QueryEngine(model, known=known_completion_index([(NUM_ENTITIES, 0, 0)]))
    with pytest.raises(ValueError, match="covers 400 entities"):
        QueryEngine(model, known=known_completion_index([(0, 0, 1)], num_entities=400))
    # A filter over a prefix of the scorer's entities is fine.
    QueryEngine(model, known=known_completion_index([(0, 0, 1)]))


@pytest.mark.parametrize(
    "entities, relations, message",
    [
        (NUM_ENTITIES + 3, NUM_RELATIONS, "has 9 entities but dataset 'filter' has 12"),
        (NUM_ENTITIES, NUM_RELATIONS + 2, "has 4 relations but dataset 'filter' has 6"),
    ],
)
def test_for_dataset_refuses_a_dataset_the_model_was_not_trained_on(entities, relations, message):
    with pytest.raises(ValueError, match=message):
        QueryEngine.for_dataset(_model(), _dataset(entities, relations))
