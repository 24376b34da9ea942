"""The one scorer contract: batched kernels, and ``score_all_*`` as their view.

Every scorer — the ten embedding models and the AMIE, simple-rule and
Cartesian predictors — implements ``score_tails_batch`` /
``score_heads_batch``; ``score_all_tails`` / ``score_all_heads`` are row 0 of
a one-row batch, never the brute-force ``score_triples_np`` sweep.  An
embedding model without the kernels cannot be built.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import SimpleRuleModel
from repro.core.cartesian import CartesianProductPredictor
from repro.kg import TripleSet
from repro.models import ALL_EMBEDDING_MODELS, ModelConfig, make_model
from repro.models.base import KGEModel
from repro.rules import AmieConfig, AmieMiner, RuleBasedPredictor


def _predictor_train() -> TripleSet:
    """A reverse pair (0, 1), a near-duplicate of 0 (2), a 3x3 grid (3)."""
    triples = [(i, 0, (i + 4) % 10) for i in range(10)]
    triples += [((i + 4) % 10, 1, i) for i in range(10)]
    triples += [(i, 2, (i + 4) % 10) for i in range(9)]
    triples += [(s, 3, o) for s in (20, 21, 22) for o in (23, 24, 25)]
    triples += [(i, 4, i + 10) for i in range(10)]
    return TripleSet(triples)


PREDICTORS = {
    "AMIE": lambda train: RuleBasedPredictor(
        AmieMiner(train, AmieConfig()).mine().rules, train, 30
    ),
    "SimpleModel": lambda train: SimpleRuleModel(train, 30),
    "CartesianProduct": lambda train: CartesianProductPredictor(train, 30),
}

ALL_SCORERS = list(ALL_EMBEDDING_MODELS) + list(PREDICTORS)


def build(name: str, seed: int = 0):
    if name in PREDICTORS:
        return PREDICTORS[name](_predictor_train())
    extra = {"embedding_height": 4} if name == "ConvE" else {}
    model = make_model(name, 30, 5, ModelConfig(dim=16, seed=seed, extra=extra))
    model.train_mode(False)
    return model


# ---------------------------------------------------------------------------- one-row view
@pytest.mark.parametrize("name", ALL_SCORERS)
def test_score_all_is_the_one_row_batch(name):
    """Per-query sweeps equal row 0 of the batched kernel, bitwise."""
    model = build(name)
    np.testing.assert_array_equal(
        model.score_all_tails(3, 2),
        model.score_tails_batch(np.array([3]), np.array([2]))[0],
    )
    np.testing.assert_array_equal(
        model.score_all_heads(2, 7),
        model.score_heads_batch(np.array([2]), np.array([7]))[0],
    )


@pytest.mark.parametrize("name", ALL_EMBEDDING_MODELS)
def test_score_all_routes_through_batch_kernel_not_brute_force(name):
    model = build(name)
    calls = {"batch_tails": 0, "batch_heads": 0, "brute": 0}
    original_tails = type(model).score_tails_batch
    original_heads = type(model).score_heads_batch
    original_np = type(model).score_triples_np

    def counted_tails(self, heads, relations):
        calls["batch_tails"] += 1
        return original_tails(self, heads, relations)

    def counted_heads(self, relations, tails):
        calls["batch_heads"] += 1
        return original_heads(self, relations, tails)

    def counted_np(self, heads, relations, tails):
        calls["brute"] += 1
        return original_np(self, heads, relations, tails)

    model.score_tails_batch = counted_tails.__get__(model)
    model.score_heads_batch = counted_heads.__get__(model)
    model.score_triples_np = counted_np.__get__(model)

    # Call the unbound base methods so the counted instance wrappers observe
    # the routing.
    KGEModel.score_all_tails(model, 1, 1)
    KGEModel.score_all_heads(model, 1, 1)
    if type(model).score_tails_batch is not KGEModel.score_tails_batch:
        assert calls["batch_tails"] == 1
        assert calls["brute"] == 0
    if type(model).score_heads_batch is not KGEModel.score_heads_batch:
        assert calls["batch_heads"] == 1
        assert calls["brute"] == 0


@pytest.mark.parametrize("name", ALL_SCORERS)
def test_empty_batch_returns_empty_matrix(name):
    model = build(name)
    none = np.array([], dtype=np.int64)
    assert model.score_tails_batch(none, none).shape == (0, 30)
    assert model.score_heads_batch(none, none).shape == (0, 30)


# ---------------------------------------------------------------------------- no kernels
class _TripleOnlyModel(KGEModel):
    """Implements ``score_triples`` and neither batched kernel."""

    def score_triples(self, heads, relations, tails):  # pragma: no cover - never built
        raise AssertionError("a model without batched kernels must not be built")


def test_a_model_without_batched_kernels_cannot_be_built():
    with pytest.raises(TypeError, match="score_tails_batch"):
        _TripleOnlyModel(9, 2, ModelConfig(dim=4, seed=1))
