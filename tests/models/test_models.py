"""Model-zoo tests: every embedding model satisfies the shared contract."""

import numpy as np
import pytest

from repro.models import (
    ALL_EMBEDDING_MODELS,
    ModelConfig,
    UnknownModelError,
    make_model,
    resolve_model_class,
)

NUM_ENTITIES = 30
NUM_RELATIONS = 5


def build(name: str, dim: int = 16, seed: int = 0):
    extra = {"embedding_height": 4} if name == "ConvE" else {}
    model = make_model(
        name, NUM_ENTITIES, NUM_RELATIONS, ModelConfig(dim=dim, seed=seed, extra=extra)
    )
    # Scoring-contract tests compare repeated forward passes, so stochastic
    # regularization (ConvE's dropout) is disabled; the trainer re-enables it.
    model.train_mode(False)
    return model


@pytest.fixture(params=ALL_EMBEDDING_MODELS)
def model(request):
    return build(request.param)


def test_registry_rejects_unknown_models():
    with pytest.raises(UnknownModelError):
        resolve_model_class("HolE")


def test_registry_is_case_insensitive():
    assert resolve_model_class("transe").__name__ == "TransE"
    assert resolve_model_class("TUCKER").__name__ == "TuckER"


def test_model_rejects_empty_graph():
    with pytest.raises(ValueError):
        build_cls = resolve_model_class("TransE")
        build_cls(0, 3, ModelConfig())


def test_score_triples_shape_and_type(model):
    heads = np.array([0, 1, 2, 3])
    relations = np.array([0, 1, 2, 0])
    tails = np.array([4, 5, 6, 7])
    scores = model.score_triples(heads, relations, tails)
    assert scores.shape == (4,)
    np.testing.assert_allclose(scores.data, model.score_triples_np(heads, relations, tails))


def test_scores_are_deterministic(model):
    heads = np.array([1, 2])
    relations = np.array([0, 1])
    tails = np.array([3, 4])
    was_training = model.training
    model.train_mode(False)
    first = model.score_triples_np(heads, relations, tails)
    second = model.score_triples_np(heads, relations, tails)
    model.train_mode(was_training)
    np.testing.assert_allclose(first, second)


def test_same_seed_same_scores():
    for name in ALL_EMBEDDING_MODELS:
        a = build(name, seed=7)
        b = build(name, seed=7)
        a.train_mode(False)
        b.train_mode(False)
        heads, relations, tails = np.array([0, 1]), np.array([0, 1]), np.array([2, 3])
        np.testing.assert_allclose(
            a.score_triples_np(heads, relations, tails),
            b.score_triples_np(heads, relations, tails),
        )


def test_score_all_tails_matches_pointwise_scores(model):
    model.train_mode(False)
    head, relation = 2, 1
    all_scores = model.score_all_tails(head, relation)
    assert all_scores.shape == (NUM_ENTITIES,)
    candidates = np.arange(NUM_ENTITIES)
    pointwise = model.score_triples_np(
        np.full(NUM_ENTITIES, head), np.full(NUM_ENTITIES, relation), candidates
    )
    np.testing.assert_allclose(all_scores, pointwise, atol=1e-8)


def test_score_all_heads_matches_pointwise_scores(model):
    model.train_mode(False)
    relation, tail = 2, 5
    all_scores = model.score_all_heads(relation, tail)
    candidates = np.arange(NUM_ENTITIES)
    pointwise = model.score_triples_np(
        candidates, np.full(NUM_ENTITIES, relation), np.full(NUM_ENTITIES, tail)
    )
    np.testing.assert_allclose(all_scores, pointwise, atol=1e-8)


def test_gradients_reach_every_parameter(model):
    """One backward pass must populate a gradient for every registered parameter."""
    heads = np.arange(8) % NUM_ENTITIES
    relations = np.arange(8) % NUM_RELATIONS
    tails = (np.arange(8) + 3) % NUM_ENTITIES
    scores = model.score_triples(heads, relations, tails)
    (scores ** 2).sum().backward()
    missing = [
        name
        for name, parameter in model.parameters().items()
        if parameter.grad is None or not np.any(parameter.grad)
    ]
    # Entity-bias style parameters may legitimately receive a zero gradient on
    # particular batches, but no parameter may be disconnected from the graph.
    disconnected = [
        name for name, parameter in model.parameters().items() if parameter.grad is None
    ]
    assert not disconnected, f"parameters disconnected from the graph: {disconnected}"
    assert len(missing) <= 1, f"parameters with all-zero gradients: {missing}"


def test_zero_grad_clears_gradients(model):
    heads, relations, tails = np.array([0]), np.array([0]), np.array([1])
    model.score_triples(heads, relations, tails).sum().backward()
    model.zero_grad()
    assert all(p.grad is None for p in model.parameters().values())


def test_apply_constraints_keeps_entity_norms_bounded():
    model = build("TransE")
    model.parameters()["entity"].data *= 100.0
    model.apply_constraints()
    norms = np.linalg.norm(model.parameters()["entity"].data, axis=1)
    assert np.all(norms <= 1.0 + 1e-9)


def test_rotate_constraint_wraps_phases():
    model = build("RotatE")
    model.parameters()["phase"].data[:] = 10.0
    model.apply_constraints()
    phases = model.parameters()["phase"].data
    assert np.all(phases <= np.pi) and np.all(phases >= -np.pi)


def test_num_parameters_positive(model):
    assert model.num_parameters() > 0
    assert model.name in ALL_EMBEDDING_MODELS


def test_conve_rejects_inconsistent_reshape():
    with pytest.raises(ValueError):
        make_model(
            "ConvE",
            NUM_ENTITIES,
            NUM_RELATIONS,
            ModelConfig(dim=16, extra={"embedding_height": 5}),
        )


def _conve(dim: int, **extra):
    model = make_model(
        "ConvE", NUM_ENTITIES, NUM_RELATIONS, ModelConfig(dim=dim, seed=3, extra=extra)
    )
    model.train_mode(False)
    return model


@pytest.mark.parametrize("dim", [12, 16, 24])
def test_conve_default_reshape_is_four_rows_where_they_fit(dim):
    """Without embedding_height ConvE builds bit-identically to height 4."""
    chosen, explicit = _conve(dim), _conve(dim, embedding_height=4)
    assert chosen.height == 4
    for name, parameter in explicit.parameters().items():
        assert np.array_equal(chosen.parameters()[name].data, parameter.data), name
    np.testing.assert_array_equal(chosen.score_all_tails(1, 2), explicit.score_all_tails(1, 2))
    np.testing.assert_array_equal(chosen.score_all_heads(2, 3), explicit.score_all_heads(2, 3))


@pytest.mark.parametrize("dim", [8, 9, 10, 18])
def test_conve_picks_a_fitting_reshape_when_four_rows_do_not_fit(dim):
    model = _conve(dim)
    assert model.height * model.width == dim
    assert 2 * model.height >= model.kernel_size and model.width >= model.kernel_size
    scores = model.score_all_tails(0, 1)
    assert scores.shape == (NUM_ENTITIES,) and np.all(np.isfinite(scores))


def test_conve_without_a_fitting_reshape_names_dims_that_work():
    with pytest.raises(ValueError, match="6, 8"):
        _conve(7)


def test_distmult_is_symmetric_complex_is_not():
    distmult = build("DistMult")
    complex_model = build("ComplEx")
    heads, relations, tails = np.array([1]), np.array([2]), np.array([4])
    forward = distmult.score_triples_np(heads, relations, tails)
    backward = distmult.score_triples_np(tails, relations, heads)
    np.testing.assert_allclose(forward, backward)
    forward_c = complex_model.score_triples_np(heads, relations, tails)
    backward_c = complex_model.score_triples_np(tails, relations, heads)
    assert not np.allclose(forward_c, backward_c)


def test_translational_scores_are_nonpositive():
    """Distance-based scores are negated distances, hence never positive."""
    for name in ("TransE", "TransH", "TransR", "TransD", "RotatE"):
        model = build(name)
        heads = np.arange(10) % NUM_ENTITIES
        relations = np.arange(10) % NUM_RELATIONS
        tails = (np.arange(10) + 1) % NUM_ENTITIES
        scores = model.score_triples_np(heads, relations, tails)
        assert np.all(scores <= 1e-9)


def test_transe_l2_gradient_is_zero_at_zero_distance():
    """``h + r - t == 0`` back-propagates zeros under the L2 norm, not NaN.

    The square root's derivative is infinite there; the row gets the zero
    gradient the L1 norm gives it through ``sign(0)``, without a warning
    (the suite turns warnings into errors), and other rows keep their bits.
    """

    def entity_grad(heads, tails):
        model = make_model("TransE", 3, 1, ModelConfig(dim=4, seed=0, extra={"norm": 2}))
        model.relation.data[0] = 0.0
        relations = np.zeros(len(heads), dtype=np.int64)
        model.score_triples(np.array(heads), relations, np.array(tails)).sum().backward()
        return model.entity.grad

    at_zero = entity_grad([1], [1])
    assert at_zero.tolist() == np.zeros((3, 4)).tolist()
    mixed = entity_grad([1, 0], [1, 2])
    alone = entity_grad([0], [2])
    assert np.isfinite(alone).all() and np.abs(alone).sum() > 0
    assert mixed.tobytes() == alone.tobytes()
