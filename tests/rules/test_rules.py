"""Tests for the AMIE-style miner, rule statistics and rule-based prediction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.rules import SeedLoopMiner

from repro.core import make_fb15k237_like, make_wn18rr_like, make_yago_dr_like
from repro.kg import TripleSet, fb15k_like, wn18_like, yago3_like
from repro.rules import AmieConfig, AmieMiner, Atom, Rule, RuleBasedPredictor, X, Y, Z


# ------------------------------------------------------------------ rule statistics
def test_rule_quality_measures():
    rule = Rule(
        body=(Atom(0, X, Y),),
        head=Atom(1, X, Y),
        support=8,
        body_size=10,
        pca_body_size=9,
        head_size=16,
    )
    assert rule.std_confidence == pytest.approx(0.8)
    assert rule.pca_confidence == pytest.approx(8 / 9)
    assert rule.head_coverage == pytest.approx(0.5)
    assert rule.length == 1
    assert rule.is_same_direction_rule
    assert not rule.is_inverse_rule


def test_inverse_rule_classification():
    rule = Rule(
        body=(Atom(0, Y, X),), head=Atom(1, X, Y),
        support=5, body_size=5, pca_body_size=5, head_size=5,
    )
    assert rule.is_inverse_rule
    assert not rule.is_same_direction_rule
    path = Rule(
        body=(Atom(0, X, Z), Atom(1, Z, Y)), head=Atom(2, X, Y),
        support=3, body_size=4, pca_body_size=3, head_size=6,
    )
    assert not path.is_inverse_rule and not path.is_same_direction_rule
    assert path.length == 2


def test_rule_render_with_names():
    rule = Rule(
        body=(Atom(0, Y, X),), head=Atom(1, X, Y),
        support=5, body_size=5, pca_body_size=5, head_size=5,
    )
    text = rule.render(["directed_by", "director_of"])
    assert "directed_by(?y, ?x)" in text and "director_of(?x, ?y)" in text


def test_zero_denominators_do_not_crash():
    rule = Rule(body=(Atom(0, X, Y),), head=Atom(1, X, Y), support=0, body_size=0, pca_body_size=0, head_size=0)
    assert rule.std_confidence == 0.0
    assert rule.pca_confidence == 0.0
    assert rule.head_coverage == 0.0


# ------------------------------------------------------------------ mining
@pytest.fixture()
def reverse_kg() -> TripleSet:
    """Relation 1 is the exact reverse of relation 0; relation 2 is noise."""
    triples = []
    for i in range(20):
        triples.append((i, 0, i + 100))
        triples.append((i + 100, 1, i))
    triples.extend([(0, 2, 5), (1, 2, 7), (3, 2, 9)])
    return TripleSet(triples)


def test_miner_finds_inverse_rule(reverse_kg):
    report = AmieMiner(reverse_kg, AmieConfig(max_body_atoms=1)).mine()
    inverse_rules = [r for r in report.rules if r.is_inverse_rule and r.head.relation == 1]
    assert inverse_rules, "expected r0(y,x) => r1(x,y) to be mined"
    best = max(inverse_rules, key=lambda r: r.pca_confidence)
    assert best.body[0].relation == 0
    assert best.pca_confidence == pytest.approx(1.0)
    assert report.num_inverse >= 1


def test_miner_finds_symmetric_rule():
    triples = []
    for i in range(0, 20, 2):
        triples.append((i, 0, i + 1))
        triples.append((i + 1, 0, i))
    report = AmieMiner(TripleSet(triples), AmieConfig(max_body_atoms=1)).mine()
    symmetric = [
        r for r in report.rules
        if r.head.relation == 0 and r.body[0].relation == 0 and r.is_inverse_rule
    ]
    assert symmetric and symmetric[0].std_confidence == pytest.approx(1.0)


def test_miner_finds_duplicate_rule():
    triples = []
    for i in range(15):
        triples.append((i, 0, i + 50))
        triples.append((i, 1, i + 50))
    report = AmieMiner(TripleSet(triples), AmieConfig(max_body_atoms=1)).mine()
    duplicates = [r for r in report.rules if r.is_same_direction_rule]
    assert duplicates
    assert report.num_same_direction >= 2  # both directions of the implication


def test_miner_finds_path_rule():
    """lives_in(x,z) ∧ in_country(z,y) ⇒ citizen_of(x,y)."""
    triples = []
    for person in range(12):
        city = 100 + person % 4
        country = 200 + (person % 4) // 2
        triples.append((person, 0, city))       # lives_in
        triples.append((city, 1, country))      # in_country
        triples.append((person, 2, country))    # citizen_of
    report = AmieMiner(TripleSet(triples), AmieConfig()).mine()
    path_rules = [r for r in report.rules if r.length == 2 and r.head.relation == 2]
    assert path_rules
    best = max(path_rules, key=lambda r: r.pca_confidence)
    assert {atom.relation for atom in best.body} == {0, 1}
    assert best.pca_confidence > 0.9
    assert report.num_path >= 1


def test_min_support_threshold_filters_rules(reverse_kg):
    strict = AmieMiner(reverse_kg, AmieConfig(min_support=1000)).mine()
    assert len(strict.rules) == 0


def test_min_pca_confidence_filters_noise():
    triples = [(0, 0, 1), (2, 0, 3), (4, 0, 5), (0, 1, 9), (2, 1, 8)]
    report = AmieMiner(TripleSet(triples), AmieConfig(min_pca_confidence=0.99, min_support=1)).mine()
    noisy = [r for r in report.rules if r.head.relation == 1 and r.body[0].relation == 0]
    assert not noisy


# ------------------------------------------------------------------ prediction
def test_predictor_ranks_reverse_answer_first(reverse_kg):
    report = AmieMiner(reverse_kg, AmieConfig()).mine()
    predictor = RuleBasedPredictor(report.rules, reverse_kg, num_entities=130)
    # Query (105, r1, ?) — the training set contains (5, r0, 105), so the
    # inverse rule instantiates to answer 5.
    scores = predictor.score_all_tails(105, 1)
    assert scores.argmax() == 5
    head_scores = predictor.score_all_heads(0, 105)
    assert head_scores.argmax() == 5
    assert predictor.num_rules() == len(report.rules)
    assert predictor.name == "AMIE"


def test_predictor_scores_zero_without_applicable_rules(reverse_kg):
    predictor = RuleBasedPredictor([], reverse_kg, num_entities=130)
    assert predictor.score_all_tails(0, 0).sum() == 0.0


def test_predictor_pointwise_scores(reverse_kg):
    report = AmieMiner(reverse_kg, AmieConfig()).mine()
    predictor = RuleBasedPredictor(report.rules, reverse_kg, num_entities=130)
    assert predictor.score_all_tails(105, 1)[5] > 0.5


def test_predictor_uses_path_rules():
    triples = []
    for person in range(12):
        city = 100 + person % 4
        country = 120 + (person % 4) // 2
        triples.append((person, 0, city))
        triples.append((city, 1, country))
        if person != 0:
            triples.append((person, 2, country))
    train = TripleSet(triples)
    report = AmieMiner(train, AmieConfig()).mine()
    predictor = RuleBasedPredictor(report.rules, train, num_entities=130)
    # Person 0 has no direct citizen_of triple; the path rule must still find it.
    scores = predictor.score_all_tails(0, 2)
    assert scores[120] > 0


# ------------------------------------------------------------------ path mining
@pytest.mark.parametrize(
    "build",
    [
        lambda: wn18_like("tiny", seed=16),
        lambda: make_wn18rr_like(wn18_like("tiny", seed=16)),
        lambda: fb15k_like("tiny", seed=13)[0],
        lambda: make_fb15k237_like(fb15k_like("tiny", seed=13)[0]),
        lambda: yago3_like("tiny", seed=21),
        lambda: make_yago_dr_like(yago3_like("tiny", seed=21)),
        lambda: wn18_like("small", seed=16),
        lambda: make_wn18rr_like(wn18_like("small", seed=16)),
        lambda: fb15k_like("small", seed=13)[0],
        lambda: make_fb15k237_like(fb15k_like("small", seed=13)[0]),
        lambda: yago3_like("small", seed=21),
        lambda: make_yago_dr_like(yago3_like("small", seed=21)),
    ],
    ids=[
        "wn18", "wn18rr", "fb15k", "fb15k237", "yago3", "yago3dr",
        "wn18-small", "wn18rr-small", "fb15k-small", "fb15k237-small", "yago3-small",
        "yago3dr-small",
    ],
)
def test_path_mining_equals_the_seed_loop(build):
    """Rules, their order and their statistics equal the per-pair walk's."""
    train = build().train
    config = AmieConfig(min_support=1, min_head_coverage=0.0, min_pca_confidence=0.0)
    for miner_config in (AmieConfig(), config):
        expected = SeedLoopMiner(train, miner_config).mine()
        actual = AmieMiner(train, miner_config).mine()
        assert actual.rules == expected.rules
        assert actual.num_path == expected.num_path


@st.composite
def small_graphs(draw):
    """Up to 14 entities, 4 relations and 80 triples.

    Half the subjects are one hub; self-loops and pairs linked by two
    relations are drawn on purpose as well as by chance.
    """
    entity = st.integers(0, 13)
    relation = st.integers(0, 3)
    hub = draw(entity)
    subject = st.one_of(st.just(hub), entity)
    triples = draw(st.lists(st.tuples(subject, relation, entity), max_size=64))
    for node, r in draw(st.lists(st.tuples(entity, relation), max_size=4)):
        triples.append((node, r, node))
    for h, t, r1, r2 in draw(st.lists(st.tuples(subject, entity, relation, relation), max_size=6)):
        triples.extend([(h, r1, t), (h, r2, t)])
    return TripleSet(triples)


@settings(max_examples=300, deadline=None)
@given(
    train=small_graphs(),
    config=st.sampled_from([AmieConfig()] + [
        AmieConfig(min_support=1, min_head_coverage=0.0, min_pca_confidence=0.0,
                   max_path_rules_per_head=cut)
        for cut in (50, 1, 2)
    ]),
)
def test_path_mining_equals_the_oracle_on_small_graphs(train, config):
    """The array joins mine the per-pair walk's rules, in its order, on any graph.

    A cut of 1 or 2 rules per head falls inside PCA-confidence ties, where
    the first-reach order decides which rules are kept.
    """
    expected = SeedLoopMiner(train, config).mine()
    actual = AmieMiner(train, config).mine()
    assert actual.rules == expected.rules
    assert actual.num_path == expected.num_path


def test_config_refuses_min_support_below_one():
    with pytest.raises(ValueError, match="min_support"):
        AmieConfig(min_support=0)
