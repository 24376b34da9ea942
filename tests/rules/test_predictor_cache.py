"""The rule predictor keeps no score rows: it pickles for evaluation workers,
and an evaluation does not grow its pickle."""

import pickle

import numpy as np
import pytest

from repro.eval import evaluate_model
from repro.kg import TripleSet, wn18_like
from repro.rules import AmieConfig, AmieMiner, RuleBasedPredictor


@pytest.fixture()
def predictor() -> RuleBasedPredictor:
    triples = []
    for i in range(20):
        triples.append((i, 0, i + 100))
        triples.append((i + 100, 1, i))
    kg = TripleSet(triples)
    report = AmieMiner(kg, AmieConfig(max_body_atoms=1)).mine()
    return RuleBasedPredictor(report.rules, kg, num_entities=130)


def test_predictor_still_pickles_for_sharded_eval(predictor):
    predictor.score_tails_batch(np.array([0]), np.array([0]))
    clone = pickle.loads(pickle.dumps(predictor))
    assert np.array_equal(
        clone.score_all_tails(0, 0), predictor.score_all_tails(0, 0)
    )


def test_evaluation_leaves_no_score_row_in_the_pickle():
    dataset = wn18_like("tiny")
    report = AmieMiner(dataset.train, AmieConfig()).mine()
    predictor = RuleBasedPredictor(report.rules, dataset.train, dataset.num_entities)
    before = len(pickle.dumps(predictor))
    evaluate_model(predictor, dataset)
    grown = len(pickle.dumps(predictor)) - before
    assert grown < dataset.num_entities * np.dtype(np.float64).itemsize
