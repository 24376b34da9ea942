"""Tests for the metrics, the ranking protocol and filtered evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.evaluation import rank_with_mean_ties

from repro.eval import (
    LinkPredictionEvaluator,
    RankingMetrics,
    better_of,
    evaluate_model,
    metrics_from_rank_pairs,
)
from repro.eval.sharding import mean_tie_ranks
from repro.kg import TripleSet


# ------------------------------------------------------------------ metrics
def test_ranking_metrics_from_known_ranks():
    metrics = RankingMetrics.from_ranks([1, 2, 10, 100])
    assert metrics.count == 4
    assert metrics.mean_rank == pytest.approx(28.25)
    assert metrics.mean_reciprocal_rank == pytest.approx((1 + 0.5 + 0.1 + 0.01) / 4)
    assert metrics.hits_at_1 == pytest.approx(0.25)
    assert metrics.hits_at_10 == pytest.approx(0.75)


def test_ranking_metrics_empty_is_nan():
    metrics = RankingMetrics.from_ranks([])
    assert metrics.count == 0
    assert np.isnan(metrics.mean_rank)


def test_metric_pair_as_dict_uses_paper_prefixes():
    pair = metrics_from_rank_pairs([1, 2], [1, 1])
    row = pair.as_dict()
    assert row["MRR"] == pytest.approx(0.75)
    assert row["FMRR"] == pytest.approx(1.0)
    assert row["FHits@1"] == pytest.approx(100.0)


def test_better_of_directions():
    assert better_of("FMRR", 0.5, 0.3) == -1
    assert better_of("FMR", 10, 20) == -1
    assert better_of("FMR", 30, 20) == 1
    assert better_of("Hits@10", 50, 50) == 0


@given(st.lists(st.integers(1, 500), min_size=1, max_size=60))
def test_property_metric_bounds(ranks):
    metrics = RankingMetrics.from_ranks(ranks)
    assert 1.0 <= metrics.mean_rank <= 500.0
    assert 0.0 < metrics.mean_reciprocal_rank <= 1.0
    assert 0.0 <= metrics.hits_at_1 <= metrics.hits_at_3 <= metrics.hits_at_10 <= 1.0


# ------------------------------------------------------------------ tie-aware rank helper
def test_rank_with_mean_ties():
    scores = np.array([0.9, 0.5, 0.5, 0.1])
    mask = np.ones(4, dtype=bool)
    assert rank_with_mean_ties(scores, 0, mask) == 1.0
    assert rank_with_mean_ties(scores, 1, mask) == 2.5  # tied with index 2
    assert rank_with_mean_ties(scores, 3, mask) == 4.0
    mask[0] = False
    assert rank_with_mean_ties(scores, 1, mask) == 1.5


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(st.integers(0, 3), min_size=1, max_size=12),
    data=st.data(),
)
def test_property_oracle_rank_equals_mean_tie_ranks(scores, data):
    """The oracle's masked rank and the count-based rank agree bit for bit."""
    scores = np.asarray(scores, dtype=np.float64)   # few values: heavy ties
    target = data.draw(st.integers(0, len(scores) - 1))
    known = np.asarray(
        data.draw(st.lists(st.integers(0, len(scores) - 1), unique=True)), dtype=np.int64
    )
    everything = np.ones(len(scores), dtype=bool)
    mask = everything.copy()
    mask[known[known != target]] = False
    raw, filtered = mean_tie_ranks(scores, np.array([target]), known)
    assert raw.tolist() == [rank_with_mean_ties(scores, target, everything)]
    assert filtered.tolist() == [rank_with_mean_ties(scores, target, mask)]


# ------------------------------------------------------------------ the protocol
class OracleScorer:
    """Knows the training set: scores observed completions 1, everything else 0."""

    name = "Oracle"

    def __init__(self, triples: TripleSet, num_entities: int) -> None:
        self.num_entities = num_entities
        self.tails, self.heads = {}, {}
        for h, r, t in triples:
            self.tails.setdefault((h, r), set()).add(t)
            self.heads.setdefault((r, t), set()).add(h)

    def score_all_tails(self, head, relation):
        scores = np.zeros(self.num_entities)
        for tail in self.tails.get((head, relation), ()):
            scores[tail] = 1.0
        return scores

    def score_all_heads(self, relation, tail):
        scores = np.zeros(self.num_entities)
        for head in self.heads.get((relation, tail), ()):
            scores[head] = 1.0
        return scores


def test_filtered_rank_removes_known_positives(toy_dataset):
    """An oracle that knows every triple must get perfect *filtered* ranks on
    test triples it has seen, while raw ranks are penalized by the other true
    completions sharing the top score."""
    oracle = OracleScorer(toy_dataset.all_triples(), toy_dataset.num_entities)
    result = evaluate_model(oracle, toy_dataset)
    filtered = result.filtered_metrics()
    assert filtered.hits_at_1 == pytest.approx(1.0)
    assert filtered.mean_rank == pytest.approx(1.0)
    raw = result.raw_metrics()
    assert raw.mean_rank >= filtered.mean_rank


def test_evaluation_produces_two_records_per_test_triple(toy_dataset):
    oracle = OracleScorer(toy_dataset.all_triples(), toy_dataset.num_entities)
    result = evaluate_model(oracle, toy_dataset)
    assert len(result.records) == 2 * len(toy_dataset.test)
    sides = {record.side for record in result.records}
    assert sides == {"head", "tail"}


def test_evaluator_single_side_and_subset(toy_dataset):
    oracle = OracleScorer(toy_dataset.all_triples(), toy_dataset.num_entities)
    evaluator = LinkPredictionEvaluator(toy_dataset)
    subset = [next(iter(toy_dataset.test))]
    result = evaluator.evaluate(oracle, test_triples=subset, sides=("tail",))
    assert len(result.records) == 1
    assert result.records[0].side == "tail"


def test_extra_ground_truth_improves_filtered_rank(toy_dataset):
    """Adding a larger ground truth (Freebase in Table 3) can only help filtered ranks."""
    # A scorer that (wrongly, per the benchmark) also believes (3, born_in, 6).
    class Believer(OracleScorer):
        def score_all_tails(self, head, relation):
            scores = super().score_all_tails(head, relation)
            if head == 3 and relation == 3:
                scores[6] = 2.0  # ranked above the true test tail 7
                scores[7] = 1.0
            return scores

    believer = Believer(toy_dataset.all_triples(), toy_dataset.num_entities)
    plain = evaluate_model(believer, toy_dataset)
    extra = TripleSet([(3, 3, 6)])
    augmented = evaluate_model(believer, toy_dataset, extra_ground_truth=extra)

    def tail_rank(result):
        return next(
            record.filtered_rank
            for record in result.records
            if record.triple == (3, 3, 7) and record.side == "tail"
        )

    assert augmented.metrics().filtered.mean_rank <= plain.metrics().filtered.mean_rank
    assert tail_rank(augmented) < tail_rank(plain)


def test_metrics_by_relation_and_side(toy_dataset):
    oracle = OracleScorer(toy_dataset.all_triples(), toy_dataset.num_entities)
    result = evaluate_model(oracle, toy_dataset)
    by_relation = result.metrics_by_relation()
    assert set(by_relation) == set(toy_dataset.test_relations())
    by_side = result.metrics_by_side()
    assert set(by_side) == {"head", "tail"}
    assert by_side["tail"].filtered.count == len(toy_dataset.test)


def test_as_row_contains_model_and_dataset(toy_dataset):
    oracle = OracleScorer(toy_dataset.all_triples(), toy_dataset.num_entities)
    row = evaluate_model(oracle, toy_dataset, model_name="Oracle").as_row()
    assert row["model"] == "Oracle"
    assert row["dataset"] == "toy"
    assert "FMRR" in row


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 30), st.integers(0, 1000))
def test_property_random_scorer_ranks_within_bounds(num_entities, seed):
    """Ranks are always within [1, num_entities] and filtered ≤ raw."""
    rng = np.random.default_rng(seed)

    class RandomScorer:
        name = "Random"

        def score_all_tails(self, head, relation):
            return rng.random(num_entities)

        def score_all_heads(self, relation, tail):
            return rng.random(num_entities)

    from repro.kg import Dataset, Vocabulary

    vocab = Vocabulary.from_labels([f"e{i}" for i in range(num_entities)], ["r"])
    train = TripleSet([(i, 0, (i + 1) % num_entities) for i in range(num_entities - 1)])
    test = TripleSet([(num_entities - 1, 0, 0)])
    dataset = Dataset("rand", vocab, train, TripleSet(), test)
    result = evaluate_model(RandomScorer(), dataset)
    for record in result.records:
        assert 1.0 <= record.filtered_rank <= record.raw_rank <= num_entities
