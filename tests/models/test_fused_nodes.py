"""The fused training nodes against the primitive compositions they replace.

``repro.autodiff.fused`` records TransE's and DistMult's ``score_triples``
and the margin and logistic losses as one tape node each.  These tests hold
them to the compositions kept in ``tests/oracles/training.py``, byte for
byte: the loss, the gradient deposits (sparse segments in order, or the dense
``.grad``), and the parameters and optimizer state after three steps, for
every model, loss, optimizer and gradient mode.  A finite-difference check
covers each fused node's backward on its own.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.training import SCORE_ORACLES, logistic_loss, margin_ranking_loss

from repro.autodiff import Parameter, Tensor, numerical_gradient
from repro.autodiff.fused import logistic, margin_ranking, translation_score, trilinear_score
from repro.models import ALL_EMBEDDING_MODELS, ModelConfig, make_model, make_optimizer
from repro.models.losses import SelfAdversarialLoss, make_loss

NUM_ENTITIES = 5
NUM_RELATIONS = 3
BATCH = 4
STEPS = 3


def _model(name, seed, norm, grid):
    extra = {"embedding_height": 4} if name == "ConvE" else {}
    if name == "TransE":
        extra["norm"] = norm
    model = make_model(
        name, NUM_ENTITIES, NUM_RELATIONS,
        ModelConfig(dim=16 if name == "ConvE" else 4, seed=seed, extra=extra),
    )
    if grid is not None:
        # Quarter steps times ``grid``: sums are exact, so equal scores and
        # hinges at exactly 0 occur; relation row 0 is zero, so ``(e, 0, e)``
        # has ``delta == 0`` for TransE; ``grid = 8`` drives DistMult scores
        # past the ±60 sigmoid clip.
        rng = np.random.default_rng(seed)
        for key, parameter in model.parameters().items():
            parameter.data[...] = rng.integers(-4, 5, size=parameter.data.shape) / 4 * grid
            if key.startswith("relation"):
                parameter.data[0] = 0.0
    return model


def _batches(seed, grid):
    """``STEPS`` batches of (positives, negatives, positive_index), duplicates likely."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(STEPS):
        positives = np.column_stack([
            rng.integers(0, NUM_ENTITIES, BATCH),
            rng.integers(0, NUM_RELATIONS, BATCH),
            rng.integers(0, NUM_ENTITIES, BATCH),
        ])
        if grid is not None:
            positives[0] = (2, 0, 2)
        index = np.repeat(np.arange(BATCH), 2)
        negatives = positives[index].copy()
        negatives[1::2, 0] = rng.integers(0, NUM_ENTITIES, BATCH)
        negatives[2::2, 2] = rng.integers(0, NUM_ENTITIES, BATCH - 1)
        # negatives[0] repeats its positive: with margin 0 its hinge is 0.
        batches.append((positives, negatives, index))
    return batches


def _deposits(model):
    """Each parameter's pending gradient, read without folding sparse segments."""
    found = {}
    for name, parameter in model.parameters().items():
        if parameter.sparse_grad is not None:
            found[name] = [(ids.tobytes(), rows.tobytes()) for ids, rows in parameter.sparse_grad._segments]
        if parameter.dense_grad is not None:
            found[f"{name}.grad"] = parameter.dense_grad.tobytes()
    return found


def _train(model, score, loss, optimizer, batches):
    trace = []
    for positives, negatives, index in batches:
        positive = score(positives[:, 0], positives[:, 1], positives[:, 2])
        negative = score(negatives[:, 0], negatives[:, 1], negatives[:, 2])
        value = loss(positive, negative, index)
        model.zero_grad()
        value.backward()
        trace.append(
            (
                np.asarray(value.data).tobytes(),
                positive.grad.tobytes(),
                negative.grad.tobytes(),
                _deposits(model),
            )
        )
        optimizer.step()
    trace.append({name: p.data.tobytes() for name, p in model.parameters().items()})
    trace.append({key: np.asarray(v).tobytes() for key, v in optimizer.state_dict().items()})
    return trace


def _run(name, loss_name, optimizer_name, sparse, weight_decay, norm, margin, grid, seed, oracle):
    model = _model(name, seed, norm, grid)
    for parameter in model.parameters().values():
        parameter.sparse_updates = sparse
    optimizer = make_optimizer(
        optimizer_name, model.parameters(), 0.05, weight_decay=weight_decay
    )
    score = model.score_triples
    if oracle and name in SCORE_ORACLES:
        score = lambda *triples: SCORE_ORACLES[name](model, *triples)  # noqa: E731
    loss = make_loss(loss_name, margin=margin)
    if oracle and loss_name == "margin":
        loss = lambda p, n, index: margin_ranking_loss(p, n, index, margin)  # noqa: E731
    elif oracle and loss_name == "bce":
        loss = lambda p, n, index: logistic_loss(p, n)  # noqa: E731
    elif loss_name == "self_adversarial":
        assert isinstance(loss, SelfAdversarialLoss)  # the composition, unchanged
    return _train(model, score, loss, optimizer, _batches(seed, grid))


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
@pytest.mark.parametrize("optimizer_name", ["sgd", "adagrad", "adam"])
@pytest.mark.parametrize("loss_name", ["margin", "bce", "self_adversarial"])
@pytest.mark.parametrize("name", ALL_EMBEDDING_MODELS)
@settings(max_examples=3, deadline=None)
@given(
    weight_decay=st.sampled_from([0.0, 0.01]),
    norm=st.sampled_from([1, 2]),
    margin=st.sampled_from([0.0, 0.5, 1.0]),
    grid=st.sampled_from([None, 1.0, 8.0]),
    seed=st.integers(0, 2**16),
)
def test_three_steps_equal_the_composition(
    name, loss_name, optimizer_name, sparse, weight_decay, norm, margin, grid, seed
):
    if norm == 2 and grid is not None:
        # An exact zero delta is the L2 norm's singular point (0 ** -0.5).
        grid = None
    arguments = (name, loss_name, optimizer_name, sparse, weight_decay, norm, margin, grid, seed)
    assert _run(*arguments, oracle=False) == _run(*arguments, oracle=True)


# ------------------------------------------------------------------ the losses alone
#: Scores on, inside and past the ±60 sigmoid clip, zeros of both signs, and
#: quarter steps (so ``negative == positive - margin`` is exact).
SCORES = st.sampled_from([-61.0, -60.0, -59.75, -1.25, -0.0, 0.0, 0.25, 1.0, 59.75, 60.0, 61.0])


@settings(max_examples=200, deadline=None)
@given(
    positives=st.lists(SCORES, min_size=1, max_size=5),
    per_positive=st.integers(1, 3),
    offsets=st.lists(st.sampled_from([0.0, 0.0, 0.25, -0.25, 3.0, -3.0]), min_size=15, max_size=15),
    margin=st.sampled_from([0.0, 0.5, 1.0]),
    seed_grad=st.sampled_from([1.0, 0.5, -2.0, 0.0]),
)
def test_the_loss_nodes_equal_the_compositions(positives, per_positive, offsets, margin, seed_grad):
    index = np.repeat(np.arange(len(positives)), per_positive)
    # Offset 0 puts the hinge at exactly 0.
    negatives = np.asarray(positives)[index] - margin + np.asarray(offsets[: len(index)])
    for fused, composed in (
        (lambda p, n: margin_ranking(p, n, index, margin),
         lambda p, n: margin_ranking_loss(p, n, index, margin)),
        (logistic, logistic_loss),
    ):
        results = []
        for loss in (fused, composed):
            positive = Tensor(np.asarray(positives), requires_grad=True)
            negative = Tensor(negatives, requires_grad=True)
            value = loss(positive, negative)
            value.backward(np.asarray(seed_grad))
            results.append(
                (np.asarray(value.data).tobytes(), positive.grad.tobytes(), negative.grad.tobytes())
            )
        assert results[0] == results[1]


# ------------------------------------------------------------------ finite differences
def _indices(rng, size, count):
    return rng.integers(0, size, count)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("kind", ["transe_l1", "transe_l2", "distmult"])
def test_fused_score_gradients_match_finite_differences(kind, sparse):
    rng = np.random.default_rng(7)
    entity_values = rng.normal(size=(6, 3))
    relation_values = rng.normal(size=(2, 3))
    heads, relations, tails = _indices(rng, 6, 8), _indices(rng, 2, 8), _indices(rng, 6, 8)
    weights = rng.normal(size=8)

    def score(entity, relation):
        if kind == "distmult":
            return trilinear_score(entity, relation, heads, relations, tails)
        return translation_score(entity, relation, heads, relations, tails, 1 if kind == "transe_l1" else 2)

    entity = Parameter(entity_values.copy(), sparse_updates=sparse)
    relation = Parameter(relation_values.copy(), sparse_updates=sparse)
    (score(entity, relation) * Tensor(weights)).sum().backward()

    def objective(entity_data, relation_data):
        return float((score(Tensor(entity_data), Tensor(relation_data)).data * weights).sum())

    np.testing.assert_allclose(
        entity.grad,
        numerical_gradient(lambda values: objective(values, relation_values), entity_values.copy()),
        rtol=1e-6, atol=1e-7,
    )
    np.testing.assert_allclose(
        relation.grad,
        numerical_gradient(lambda values: objective(entity_values, values), relation_values.copy()),
        rtol=1e-6, atol=1e-7,
    )


@pytest.mark.parametrize("kind", ["margin", "logistic"])
def test_fused_loss_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(11)
    positive_values = rng.normal(size=4)
    index = np.repeat(np.arange(4), 2)
    # Hinges at least 0.05 away from the kink.
    negative_values = positive_values[index] - 1.0 + rng.choice([-1, 1], 8) * rng.uniform(0.05, 1.0, 8)

    def loss(positive, negative):
        if kind == "margin":
            return margin_ranking(positive, negative, index, 1.0)
        return logistic(positive, negative)

    positive = Tensor(positive_values.copy(), requires_grad=True)
    negative = Tensor(negative_values.copy(), requires_grad=True)
    loss(positive, negative).backward()
    np.testing.assert_allclose(
        positive.grad,
        numerical_gradient(
            lambda values: float(loss(Tensor(values), Tensor(negative_values)).data),
            positive_values.copy(),
        ),
        rtol=1e-6, atol=1e-8,
    )
    np.testing.assert_allclose(
        negative.grad,
        numerical_gradient(
            lambda values: float(loss(Tensor(positive_values), Tensor(values)).data),
            negative_values.copy(),
        ),
        rtol=1e-6, atol=1e-8,
    )
