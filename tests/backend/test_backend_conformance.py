"""Eval dtype conformance: fp64 scoring is bit-identical to the seed.

Configuring a scorer with ``set_eval_dtype("fp64")`` (or not configuring it
at all) must leave every score, rank and gradient **bitwise** equal to a
freshly-built reference scorer: the reference configuration is a pure
pass-through, so any byte of difference is a threading bug in the kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import SimpleRuleModel
from repro.core.cartesian import CartesianProductPredictor
from repro.eval import evaluate_model
from repro.models import ALL_EMBEDDING_MODELS, ModelConfig, make_model
from repro.rules.amie import AmieConfig, AmieMiner
from repro.rules.predictor import RuleBasedPredictor

NUM_ENTITIES = 30
NUM_RELATIONS = 5

HEADS = np.array([0, 3, 7, 7, 12])
RELATIONS = np.array([0, 1, 2, 2, 4])
TAILS = np.array([1, 4, 9, 2, 20])


def build_model(name: str, seed: int = 0):
    extra = {"embedding_height": 4} if name == "ConvE" else {}
    model = make_model(
        name, NUM_ENTITIES, NUM_RELATIONS, ModelConfig(dim=16, seed=seed, extra=extra)
    )
    model.train_mode(False)
    return model


def build_rule_scorers(toy_dataset):
    rules = AmieMiner(toy_dataset.train, AmieConfig()).mine()
    return [
        RuleBasedPredictor(rules.rules, toy_dataset.train, toy_dataset.num_entities),
        SimpleRuleModel(toy_dataset.train, toy_dataset.num_entities, threshold=0.5),
        CartesianProductPredictor(toy_dataset.train, toy_dataset.num_entities),
    ]


def assert_scorer_bitwise_identical(configured, reference, num_entities):
    """Every scoring surface of ``configured`` byte-equals ``reference``."""
    queries_h = HEADS % num_entities
    queries_r = RELATIONS % max(
        1, getattr(reference, "num_relations", NUM_RELATIONS)
    )
    queries_t = TAILS % num_entities
    np.testing.assert_array_equal(
        configured.score_tails_batch(queries_h, queries_r),
        reference.score_tails_batch(queries_h, queries_r),
    )
    np.testing.assert_array_equal(
        configured.score_heads_batch(queries_r, queries_t),
        reference.score_heads_batch(queries_r, queries_t),
    )
    np.testing.assert_array_equal(
        configured.score_all_tails(int(queries_h[0]), int(queries_r[0])),
        reference.score_all_tails(int(queries_h[0]), int(queries_r[0])),
    )
    np.testing.assert_array_equal(
        configured.score_all_heads(int(queries_r[0]), int(queries_t[0])),
        reference.score_all_heads(int(queries_r[0]), int(queries_t[0])),
    )


# ---------------------------------------------------------------------------- numpy bit-identity
@pytest.mark.parametrize("name", ALL_EMBEDDING_MODELS)
def test_numpy_backend_scores_bit_identical(name):
    configured = build_model(name)
    configured.set_eval_dtype("fp64")
    reference = build_model(name)
    assert_scorer_bitwise_identical(configured, reference, NUM_ENTITIES)
    # Pointwise scores ride the autodiff path: equally untouched.
    np.testing.assert_array_equal(
        configured.score_triples_np(HEADS, RELATIONS, TAILS),
        reference.score_triples_np(HEADS, RELATIONS, TAILS),
    )


@pytest.mark.parametrize("name", ALL_EMBEDDING_MODELS)
def test_numpy_backend_gradients_bit_identical(name):
    configured = build_model(name)
    configured.set_eval_dtype("fp64")
    loss_a = configured.score_triples(HEADS, RELATIONS, TAILS).sum()
    loss_a.backward()
    grads_a = {
        key: np.array(p.grad) for key, p in configured.parameters().items()
    }
    reference = build_model(name)
    loss_b = reference.score_triples(HEADS, RELATIONS, TAILS).sum()
    loss_b.backward()
    for key, parameter in reference.parameters().items():
        np.testing.assert_array_equal(grads_a[key], parameter.grad, err_msg=key)


def test_numpy_backend_rule_scorers_bit_identical(toy_dataset):
    for configured, reference in zip(
        build_rule_scorers(toy_dataset), build_rule_scorers(toy_dataset)
    ):
        configured.set_eval_dtype("fp64")
        assert_scorer_bitwise_identical(
            configured, reference, toy_dataset.num_entities
        )


@pytest.mark.parametrize("name", ["TransE", "ComplEx", "ConvE"])
def test_numpy_backend_evaluation_ranks_bit_identical(name, toy_dataset):
    configured = make_model(
        name,
        toy_dataset.num_entities,
        toy_dataset.num_relations,
        ModelConfig(dim=16, seed=3, extra={"embedding_height": 4} if name == "ConvE" else {}),
    )
    configured.train_mode(False)
    configured.set_eval_dtype("fp64")
    reference = make_model(
        name,
        toy_dataset.num_entities,
        toy_dataset.num_relations,
        ModelConfig(dim=16, seed=3, extra={"embedding_height": 4} if name == "ConvE" else {}),
    )
    reference.train_mode(False)
    configured_result = evaluate_model(configured, toy_dataset)
    reference_result = evaluate_model(reference, toy_dataset)
    for expected, actual in zip(reference_result.records, configured_result.records):
        assert expected.raw_rank == actual.raw_rank
        assert expected.filtered_rank == actual.filtered_rank

