"""Tests for the redundancy detectors and Cartesian-product analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.redundancy import redundancy_report, relation_overlap
from repro.core import (
    CartesianProductPredictor,
    StreamingPairIndexBuilder,
    analyse_redundancy,
    analyse_redundancy_from_pair_sets,
    find_cartesian_relations,
)
from repro.core.redundancy import build_pair_sets, overlap_counts
from repro.kg import TripleSet


# ------------------------------------------------------------------ handcrafted fixtures
def reverse_pair_kg(n: int = 20) -> TripleSet:
    """Relation 1 is the exact reverse of relation 0."""
    triples = []
    for i in range(n):
        triples.append((i, 0, i + 100))
        triples.append((i + 100, 1, i))
    return TripleSet(triples)


def duplicate_kg(overlap: int = 18, extra: int = 2) -> TripleSet:
    """Relation 1 duplicates relation 0 on ``overlap`` of its pairs."""
    triples = []
    for i in range(overlap + extra):
        triples.append((i, 0, i + 100))
        if i < overlap:
            triples.append((i, 1, i + 100))
        else:
            triples.append((i, 1, i + 200))
    return TripleSet(triples)


# ------------------------------------------------------------------ overlap / duplicates
def test_relation_overlap_shares():
    kg = duplicate_kg()
    overlap = relation_overlap(build_pair_sets(kg), 0, 1)
    assert overlap.overlap == 18
    assert overlap.share_of_a == pytest.approx(0.9)
    assert overlap.share_of_b == pytest.approx(0.9)
    assert overlap.exceeds(0.8, 0.8)
    assert not overlap.exceeds(0.95, 0.8)


def test_find_duplicate_relations_detects_engineered_pair():
    found = analyse_redundancy(duplicate_kg()).duplicate_pairs
    assert len(found) == 1
    pair = {found[0].relation_a, found[0].relation_b}
    assert pair == {0, 1}


def test_find_duplicate_relations_respects_thresholds():
    report = analyse_redundancy(duplicate_kg(), theta_1=0.95, theta_2=0.95)
    assert report.duplicate_pairs == []


def test_find_reverse_duplicate_relations():
    report = analyse_redundancy(reverse_pair_kg())
    found = report.reverse_pairs + report.reverse_duplicate_pairs
    assert len(found) == 1
    assert found[0].reversed_b is True


def test_find_symmetric_relations():
    triples = []
    for i in range(0, 20, 2):
        triples.append((i, 0, i + 1))
        triples.append((i + 1, 0, i))
    triples.extend([(0, 1, 5), (2, 1, 7)])
    symmetric = analyse_redundancy(TripleSet(triples)).symmetric_relations
    assert symmetric == [0]


def test_analyse_redundancy_classifies_crisp_reverse_pairs():
    report = analyse_redundancy(reverse_pair_kg())
    assert len(report.reverse_pairs) == 1
    assert report.reverse_duplicate_pairs == []
    assert report.redundant_relations() == {0, 1}
    partners = report.reverse_partners()
    assert partners[0] == {1} and partners[1] == {0}


def test_analyse_redundancy_keeps_loose_overlap_as_reverse_duplicate():
    triples = []
    for i in range(20):
        triples.append((i, 0, i + 100))
        if i < 17:
            triples.append((i + 100, 1, i))
        else:
            triples.append((i + 100, 1, (i + 1) % 20))
    report = analyse_redundancy(TripleSet(triples))
    assert len(report.reverse_duplicate_pairs) == 1
    assert report.reverse_pairs == []


def test_detectors_against_generator_provenance(fb_tiny):
    """Every relation the generator marked as a reverse pair must be detected."""
    report = analyse_redundancy(fb_tiny.all_triples())
    detected = report.redundant_relations()
    for relation_id in range(fb_tiny.num_relations):
        provenance = fb_tiny.provenance_of(relation_id)
        if provenance.kind == "reverse_pair":
            assert relation_id in detected, fb_tiny.relation_name(relation_id)


# ------------------------------------------------------------------ Cartesian relations
def cartesian_kg(subjects: int = 6, objects: int = 5, coverage: float = 1.0) -> TripleSet:
    triples = []
    cells = [(s, 100 + o) for s in range(subjects) for o in range(objects)]
    keep = int(round(coverage * len(cells)))
    for s, o in cells[:keep]:
        triples.append((s, 0, o))
    return TripleSet(triples)


def test_cartesian_density_full_grid():
    assert find_cartesian_relations(cartesian_kg())[0].density == pytest.approx(1.0)
    assert find_cartesian_relations(TripleSet()) == []


def test_find_cartesian_relations_needs_triples_or_pair_sets():
    with pytest.raises(ValueError, match="needs triples or pair_sets"):
        find_cartesian_relations()
    assert find_cartesian_relations(pair_sets={}) == []


def test_find_cartesian_relations_detects_grid():
    found = find_cartesian_relations(cartesian_kg(coverage=0.9))
    assert [item.relation for item in found] == [0]
    assert found[0].density > 0.8


def test_find_cartesian_relations_rejects_sparse_and_degenerate():
    assert find_cartesian_relations(cartesian_kg(coverage=0.4)) == []
    # Single-object star relations are not Cartesian grids.
    star = TripleSet([(i, 0, 99) for i in range(20)])
    assert find_cartesian_relations(star) == []


def test_find_cartesian_relations_in_fb_replica(fb_tiny):
    detected = find_cartesian_relations(fb_tiny.all_triples(), density_threshold=0.75)
    names = {fb_tiny.relation_name(item.relation) for item in detected}
    assert any("climate" in name for name in names)
    # Every detected relation must have been generated as Cartesian or be a
    # dense grid by construction.
    for item in detected:
        provenance = fb_tiny.provenance_of(item.relation)
        assert provenance.cartesian or item.density > 0.75


def test_cartesian_predictor_scores_grid_members():
    kg = cartesian_kg(coverage=0.9)
    predictor = CartesianProductPredictor(kg, num_entities=120)
    assert predictor.is_cartesian(0)
    tail_scores = predictor.score_all_tails(0, 0)
    assert tail_scores[100] > 0.9
    assert tail_scores[50] < 0.5
    head_scores = predictor.score_all_heads(0, 100)
    assert head_scores[2] > 0.9


def test_cartesian_predictor_fallback_for_normal_relations():
    kg = TripleSet([(0, 0, 10), (1, 0, 11), (2, 0, 12), (3, 0, 13)])
    predictor = CartesianProductPredictor(kg, num_entities=20)
    assert not predictor.is_cartesian(0)
    scores = predictor.score_all_tails(0, 0)
    assert 0 < scores[10] <= 0.5
    assert predictor.name == "CartesianProduct"


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(2, 8))
def test_property_full_grid_is_always_detected(subjects, objects):
    kg = cartesian_kg(subjects, objects, coverage=1.0)
    found = find_cartesian_relations(kg)
    assert [item.relation for item in found] == [0]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 3), st.integers(0, 15)), max_size=60))
def test_property_overlap_shares_bounded(raw):
    kg = TripleSet(raw)
    relations = kg.relations
    if len(relations) < 2:
        return
    overlap = relation_overlap(build_pair_sets(kg), relations[0], relations[1])
    assert 0.0 <= overlap.share_of_a <= 1.0
    assert 0.0 <= overlap.share_of_b <= 1.0


# ------------------------------------------------------------------ inverted-index generator
_SMALL_TRIPLES = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 4), st.integers(0, 8)), max_size=80
)


def _buckets_of_direction(report, reversed_b):
    """The same-direction bucket, or the reversed ones with the self-reversal."""
    if not reversed_b:
        return report.duplicate_pairs
    return report.reverse_pairs, report.reverse_duplicate_pairs, report.symmetric_relations


@pytest.mark.parametrize("reversed_b", [False, True])
@pytest.mark.parametrize("theta", [0.0, 0.5, 0.8])
def test_inverted_index_matches_brute_force_on_fb_replica(fb_tiny, reversed_b, theta):
    triples = fb_tiny.all_triples()
    expected = redundancy_report(build_pair_sets(triples), theta, theta)
    found = analyse_redundancy(triples, theta, theta)
    assert _buckets_of_direction(found, reversed_b) == _buckets_of_direction(
        expected, reversed_b
    )


@settings(max_examples=30, deadline=None)
@given(_SMALL_TRIPLES)
def test_property_inverted_index_matches_brute_force(raw):
    kg = TripleSet(raw)
    assert analyse_redundancy(kg, 0.3, 0.3) == redundancy_report(build_pair_sets(kg), 0.3, 0.3)


@settings(max_examples=150, deadline=None)
@given(
    _SMALL_TRIPLES,
    st.tuples(
        st.sampled_from([0.0, 0.3, 0.5, 0.8]), st.sampled_from([0.0, 0.3, 0.8])
    ).filter(lambda thetas: thetas[0] != thetas[1]),
    st.data(),
)
def test_property_every_audit_path_equals_the_oracle_report(raw, thetas, data):
    """θ1 applies to the earlier relation of a pair and θ2 to the later one, on
    every path; the streamed report also holds after retractions."""
    theta_1, theta_2 = thetas
    retracted = data.draw(st.sets(st.sampled_from(raw))) if raw else set()
    surviving = TripleSet(triple for triple in raw if triple not in retracted)
    expected = redundancy_report(build_pair_sets(surviving), theta_1, theta_2)
    assert analyse_redundancy(surviving, theta_1, theta_2) == expected
    assert analyse_redundancy_from_pair_sets(
        build_pair_sets(surviving), theta_1, theta_2
    ) == expected
    builder = StreamingPairIndexBuilder()
    builder.observe("train", raw)
    builder.retract(retracted)
    assert builder.report(theta_1, theta_2) == expected


# ------------------------------------------------------------------ pair-set entry points
@pytest.mark.parametrize("theta", [0.0, 0.8])
def test_detectors_accept_pair_sets_without_triples(toy_dataset, theta):
    triples = toy_dataset.all_triples()
    report = analyse_redundancy_from_pair_sets(build_pair_sets(triples), theta, theta)
    assert report == analyse_redundancy(triples, theta, theta)
    # The toy dataset has a reverse pair and a symmetric relation.
    assert report.reverse_pairs + report.reverse_duplicate_pairs
    assert report.symmetric_relations


# ------------------------------------------------------------------ maintained overlap counts
def _assert_counts_match_sweep(builder: StreamingPairIndexBuilder) -> None:
    """The maintained maps equal a from-scratch sweep, and so does the report."""
    pair_sets = builder.pair_sets
    assert builder.same_counts == overlap_counts(pair_sets)
    assert builder.reversed_counts == overlap_counts(
        pair_sets, reversed_b=True, include_self=True
    )
    triples = TripleSet(
        [(h, relation, t) for relation, pairs in pair_sets.items() for h, t in pairs]
    )
    for theta in (0.0, 0.8):
        assert builder.report(theta, theta) == analyse_redundancy(triples, theta, theta)


def test_maintained_counts_self_loop_held_by_two_relations():
    builder = StreamingPairIndexBuilder()
    builder.observe("train", [(4, 0, 4), (4, 1, 4)])
    # A self-loop is its own reverse: it counts once towards each relation's
    # symmetry numerator and once towards the pair, in both directions.
    assert builder.same_counts == {(0, 1): 1}
    assert builder.reversed_counts == {(0, 0): 1, (0, 1): 1, (1, 1): 1}
    assert builder.report().symmetric_relations == [0, 1]
    _assert_counts_match_sweep(builder)
    builder.retract([(4, 0, 4)])
    assert builder.same_counts == {}
    assert builder.reversed_counts == {(1, 1): 1}
    _assert_counts_match_sweep(builder)


@pytest.mark.parametrize("retract_first", [(1, 0, 2), (2, 0, 1)])
@pytest.mark.parametrize("observe_first", [(1, 0, 2), (2, 0, 1)])
def test_maintained_counts_symmetric_pair_either_order(observe_first, retract_first):
    pair, reverse = (1, 0, 2), (2, 0, 1)
    builder = StreamingPairIndexBuilder()
    builder.observe("train", [observe_first])
    assert builder.reversed_counts == {}
    builder.observe("train", [reverse if observe_first == pair else pair])
    # Both (1, 2) and (2, 1) join T_0 ∩ reverse(T_0) with the second triple.
    assert builder.reversed_counts == {(0, 0): 2}
    assert builder.report().symmetric_relations == [0]
    _assert_counts_match_sweep(builder)
    builder.retract([retract_first])
    # The count reached zero, so its key is gone, as in a fresh sweep.
    assert builder.reversed_counts == {}
    assert builder.report().symmetric_relations == []
    _assert_counts_match_sweep(builder)
    builder.retract([reverse if retract_first == pair else pair])
    assert builder.pair_sets == {} and builder.pair_index == {}
    assert builder.same_counts == {} and builder.reversed_counts == {}


def test_maintained_counts_pair_held_by_three_relations():
    builder = StreamingPairIndexBuilder()
    builder.observe("train", [(1, 0, 2), (1, 1, 2), (1, 2, 2), (2, 2, 1)])
    assert builder.same_counts == {(0, 1): 1, (0, 2): 1, (1, 2): 1}
    assert builder.reversed_counts == {(0, 2): 1, (1, 2): 1, (2, 2): 2}
    _assert_counts_match_sweep(builder)
    builder.retract([(1, 1, 2)])
    assert builder.same_counts == {(0, 2): 1}
    assert builder.reversed_counts == {(0, 2): 1, (2, 2): 2}
    _assert_counts_match_sweep(builder)


def test_retracting_an_absent_triple_changes_nothing():
    builder = StreamingPairIndexBuilder()
    builder.observe("train", [(1, 0, 2), (2, 1, 1), (1, 1, 2), (3, 0, 3)])

    def state():
        return (
            {relation: set(pairs) for relation, pairs in builder.pair_sets.items()},
            {pair: list(posting) for pair, posting in builder.pair_index.items()},
            dict(builder.same_counts),
            dict(builder.reversed_counts),
        )

    before = state()
    # An unknown pair, a pair another relation holds, the reverse of a held
    # pair, and an unknown relation.
    builder.retract([(5, 0, 6), (2, 0, 1), (3, 1, 3), (1, 7, 2)])
    assert state() == before
    _assert_counts_match_sweep(builder)


def test_cartesian_predictor_batched_rows_match_single_queries():
    kg = cartesian_kg(coverage=0.9)
    predictor = CartesianProductPredictor(kg, num_entities=120)
    heads = np.array([0, 1, 0])
    relations = np.array([0, 0, 0])
    batched = predictor.score_tails_batch(heads, relations)
    assert batched.shape == (3, 120)
    for row, (h, r) in zip(batched, zip(heads, relations)):
        np.testing.assert_array_equal(row, predictor.score_all_tails(int(h), int(r)))
