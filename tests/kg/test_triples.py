"""Unit and property tests for the TripleSet container and its indexes."""

import base64
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.kg import TripleSet, merge

TRIPLES = [(0, 0, 1), (1, 0, 2), (2, 1, 0), (0, 1, 2), (3, 0, 1)]


@pytest.fixture()
def triples() -> TripleSet:
    return TripleSet(TRIPLES)


def test_len_and_membership(triples):
    assert len(triples) == len(TRIPLES)
    assert (0, 0, 1) in triples
    assert (9, 9, 9) not in triples


def test_duplicates_are_ignored():
    ts = TripleSet([(0, 0, 1), (0, 0, 1)])
    assert len(ts) == 1
    assert ts.add((0, 0, 1)) is False
    assert ts.add((0, 0, 2)) is True


def test_pairs_and_relation_views(triples):
    assert triples.pairs_of(0) == {(0, 1), (1, 2), (3, 1)}
    assert triples.relation_size(0) == 3
    assert triples.relations == [0, 1]
    assert {h for h, _ in triples.pairs_of(1)} == {2, 0}
    assert {t for _, t in triples.pairs_of(1)} == {0, 2}


def test_entities(triples):
    assert triples.entities == {0, 1, 2, 3}


def test_to_array_and_back(triples):
    array = triples.to_array()
    assert array.shape == (len(TRIPLES), 3)
    rebuilt = TripleSet.from_array(array)
    assert rebuilt == triples


def test_empty_to_array():
    assert TripleSet().to_array().shape == (0, 3)


#: ``pickle.dumps(TripleSet(TRIPLES), protocol=4)`` as written by releases
#: whose TripleSet also held ``(h, r) -> tails`` / ``(r, t) -> heads`` dicts
#: (disk caches hold such pickles).
FORMER_PICKLE = (
    "gASViAEAAAAAAACMEHJlcHJvLmtnLnRyaXBsZXOUjAlUcmlwbGVTZXSUk5QpgZR9lCiMCF90cmlwbGVzlF2UKEsA"
    "SwBLAYeUSwFLAEsCh5RLAksBSwCHlEsASwFLAoeUSwNLAEsBh5RljAtfdHJpcGxlX3NldJSPlChoCWgKaAtoCGgH"
    "kIwFX3NwX2+UjAtjb2xsZWN0aW9uc5SMC2RlZmF1bHRkaWN0lJOUjAhidWlsdGluc5SMA3NldJSTlIWUUpQoSwBL"
    "AIaUj5QoSwGQSwFLAIaUj5QoSwKQSwJLAYaUj5QoSwCQSwBLAYaUj5QoSwKQSwNLAIaUj5QoSwGQdYwFX3BvX3OU"
    "aBFoFIWUUpQoSwBLAYaUj5QoSwBLA5BLAEsChpSPlChLAZBLAUsAhpSPlChLApBLAUsChpSPlChLAJB1jAxfYnlf"
    "cmVsYXRpb26UaBFoEowEbGlzdJSTlIWUUpQoSwBdlChLAEsBhpRLAUsChpRLA0sBhpRlSwFdlChLAksAhpRLAEsC"
    "hpRldXViLg=="
)


def test_pickles_of_the_former_layout_still_load(triples):
    former = pickle.loads(base64.b64decode(FORMER_PICKLE))
    assert former == triples
    assert list(former) == TRIPLES
    assert former.pairs_of(0) == triples.pairs_of(0)
    assert former.relation_size(1) == 2
    assert former.add((4, 1, 0)) is True and (4, 1, 0) in former
    assert former.filter_relations([1]).as_set() == {(2, 1, 0), (0, 1, 2), (4, 1, 0)}


def test_filter_relations(triples):
    only_zero = triples.filter_relations([0])
    assert len(only_zero) == 3
    assert all(r == 0 for _, r, _ in only_zero)


def test_filter_predicate(triples):
    heads_zero = triples.filter(lambda t: t[0] == 0)
    assert len(heads_zero) == 2


def test_merge_and_merged_with(triples):
    other = TripleSet([(5, 2, 6), (0, 0, 1)])
    union = merge(triples, other)
    assert len(union) == len(TRIPLES) + 1


triple_strategy = st.tuples(
    st.integers(0, 20), st.integers(0, 5), st.integers(0, 20)
)


@given(st.lists(triple_strategy, max_size=80))
def test_property_indexes_consistent_with_contents(raw):
    """Every index view must agree with the raw triple list."""
    ts = TripleSet(raw)
    unique = set(raw)
    assert len(ts) == len(unique)
    assert ts.as_set() == unique
    for h, r, t in unique:
        assert (h, t) in ts.pairs_of(r)
    total_from_relations = sum(ts.relation_size(r) for r in ts.relations)
    assert total_from_relations == len(unique)


@given(st.lists(triple_strategy, max_size=60), st.lists(triple_strategy, max_size=60))
def test_property_merge_is_set_union(first, second):
    merged = merge(TripleSet(first), TripleSet(second))
    assert merged.as_set() == set(first) | set(second)
