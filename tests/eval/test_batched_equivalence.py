"""Regression tests: the batched evaluator must be bit-identical to the seed
per-triple protocol (kept as the oracle ``tests/oracles/evaluation.py``) for
every model family and for the rule/Cartesian/simple predictors, and must
score each unique ``(h, r)`` / ``(r, t)`` query exactly once per run."""

import numpy as np
import pytest
from oracles.evaluation import evaluate_per_triple

from repro.api import EvalOptions
from repro.core.baselines import SimpleRuleModel
from repro.core.cartesian import CartesianProductPredictor
from repro.eval import LinkPredictionEvaluator
from repro.models import ModelConfig, make_model
from repro.models.registry import ALL_EMBEDDING_MODELS
from repro.rules.amie import AmieConfig, AmieMiner
from repro.rules.predictor import RuleBasedPredictor


def _assert_identical_results(reference, batched):
    assert len(reference.records) == len(batched.records)
    for expected, actual in zip(reference.records, batched.records):
        assert expected.triple == actual.triple
        assert expected.side == actual.side
        assert expected.raw_rank == actual.raw_rank, (expected, actual)
        assert expected.filtered_rank == actual.filtered_rank, (expected, actual)


def _query_rich_triples(dataset):
    """Every triple of the dataset — lots of shared (h, r) / (r, t) queries."""
    return list(dataset.train) + list(dataset.valid) + list(dataset.test)


@pytest.fixture(params=sorted(ALL_EMBEDDING_MODELS))
def embedding_model(request, toy_dataset):
    extra = {"embedding_height": 4} if request.param == "ConvE" else {}
    model = make_model(
        request.param,
        toy_dataset.num_entities,
        toy_dataset.num_relations,
        ModelConfig(dim=16, seed=7, extra=extra),
    )
    model.train_mode(False)
    return model


def test_embedding_models_batched_matches_per_triple(embedding_model, toy_dataset):
    evaluator = LinkPredictionEvaluator(toy_dataset)
    triples = _query_rich_triples(toy_dataset)
    reference = evaluate_per_triple(evaluator, embedding_model, test_triples=triples)
    batched = evaluator.evaluate(embedding_model, test_triples=triples)
    _assert_identical_results(reference, batched)


@pytest.mark.parametrize("scorer_kind", ["amie", "simple", "cartesian"])
def test_rule_and_baseline_predictors_batched_matches_per_triple(scorer_kind, toy_dataset):
    if scorer_kind == "amie":
        rules = AmieMiner(toy_dataset.train, AmieConfig()).mine()
        scorer = RuleBasedPredictor(rules.rules, toy_dataset.train, toy_dataset.num_entities)
    elif scorer_kind == "simple":
        scorer = SimpleRuleModel(toy_dataset.train, toy_dataset.num_entities, threshold=0.5)
    else:
        scorer = CartesianProductPredictor(toy_dataset.train, toy_dataset.num_entities)
    evaluator = LinkPredictionEvaluator(toy_dataset)
    triples = _query_rich_triples(toy_dataset)
    reference = evaluate_per_triple(evaluator, scorer, test_triples=triples)
    batched = evaluator.evaluate(scorer, test_triples=triples)
    _assert_identical_results(reference, batched)


def test_results_independent_of_eval_batch_size(toy_dataset):
    model = make_model(
        "DistMult", toy_dataset.num_entities, toy_dataset.num_relations, ModelConfig(dim=8, seed=3)
    )
    model.train_mode(False)
    triples = _query_rich_triples(toy_dataset)
    evaluator = LinkPredictionEvaluator(toy_dataset)
    baseline = evaluator.evaluate(model, test_triples=triples)
    for batch_size in (1, 2, 3, 1000):
        other = LinkPredictionEvaluator(
            toy_dataset,
            options=EvalOptions(batch_size=batch_size),
            known_index=evaluator.known_index,
        ).evaluate(model, test_triples=triples)
        _assert_identical_results(baseline, other)


@pytest.mark.parametrize("side", ["head", "tail"])
def test_single_side_evaluation_matches_per_triple(side, toy_dataset):
    scorer = SimpleRuleModel(toy_dataset.train, toy_dataset.num_entities, threshold=0.5)
    evaluator = LinkPredictionEvaluator(toy_dataset)
    triples = _query_rich_triples(toy_dataset)
    reference = evaluate_per_triple(evaluator, scorer, test_triples=triples, sides=(side,))
    batched = evaluator.evaluate(scorer, test_triples=triples, sides=(side,))
    _assert_identical_results(reference, batched)
    assert len(batched.records) == len(triples)
    assert {record.side for record in batched.records} == {side}


def test_evaluators_share_a_prebuilt_or_lazy_known_index(toy_dataset):
    scorer = SimpleRuleModel(toy_dataset.train, toy_dataset.num_entities, threshold=0.5)
    triples = _query_rich_triples(toy_dataset)
    first = LinkPredictionEvaluator(toy_dataset)
    options = EvalOptions(batch_size=3)
    prebuilt = LinkPredictionEvaluator(toy_dataset, options=options, known_index=first.known_index)
    lazy = LinkPredictionEvaluator(
        toy_dataset, options=options, known_index=lambda: first.known_index
    )
    assert prebuilt.known_index is first.known_index
    assert lazy.known_index is first.known_index
    own = LinkPredictionEvaluator(toy_dataset, options=options)
    assert own.known_index is not first.known_index
    reference = own.evaluate(scorer, test_triples=triples)
    _assert_identical_results(reference, prebuilt.evaluate(scorer, test_triples=triples))
    _assert_identical_results(reference, lazy.evaluate(scorer, test_triples=triples))


class _CountingScorer:
    """Records every query the evaluator asks for, delegating to uniform scores."""

    name = "Counting"

    def __init__(self, num_entities):
        self.num_entities = num_entities
        self.tail_queries = []
        self.head_queries = []

    def score_all_tails(self, head, relation):
        raise AssertionError("batched contract must be preferred when present")

    def score_all_heads(self, relation, tail):
        raise AssertionError("batched contract must be preferred when present")

    def score_tails_batch(self, heads, relations):
        self.tail_queries.extend(zip(heads.tolist(), relations.tolist()))
        return np.zeros((len(heads), self.num_entities))

    def score_heads_batch(self, relations, tails):
        self.head_queries.extend(zip(relations.tolist(), tails.tolist()))
        return np.zeros((len(relations), self.num_entities))


@pytest.mark.parametrize("eval_batch_size", [2, 256])
def test_each_unique_query_scored_exactly_once(toy_dataset, eval_batch_size):
    triples = _query_rich_triples(toy_dataset)
    scorer = _CountingScorer(toy_dataset.num_entities)
    evaluator = LinkPredictionEvaluator(toy_dataset, options=EvalOptions(batch_size=eval_batch_size))
    evaluator.evaluate(scorer, test_triples=triples)
    unique_tail_queries = {(h, r) for h, r, _ in triples}
    unique_head_queries = {(r, t) for _, r, t in triples}
    assert len(scorer.tail_queries) == len(set(scorer.tail_queries)) == len(unique_tail_queries)
    assert len(scorer.head_queries) == len(set(scorer.head_queries)) == len(unique_head_queries)
    assert set(scorer.tail_queries) == unique_tail_queries
    assert set(scorer.head_queries) == unique_head_queries
