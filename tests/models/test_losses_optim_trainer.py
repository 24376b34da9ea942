"""Tests for losses, optimizers and the shared training loop."""

import numpy as np
import pytest

from repro.autodiff import Parameter, Tensor
from repro.eval import evaluate_model
from repro.models import (
    Adagrad,
    Adam,
    LogisticLoss,
    MarginRankingLoss,
    ModelConfig,
    SGD,
    SelfAdversarialLoss,
    TrainingConfig,
    TrainingRun,
    make_loss,
    make_model,
    make_optimizer,
    train_model,
)

# ------------------------------------------------------------------ losses
def test_make_loss_factory():
    assert isinstance(make_loss("margin"), MarginRankingLoss)
    assert isinstance(make_loss("bce"), LogisticLoss)
    assert isinstance(make_loss("self_adversarial"), SelfAdversarialLoss)
    with pytest.raises(ValueError):
        make_loss("hinge-of-doom")


def test_margin_loss_pairs_negatives_with_their_positive():
    loss_fn = MarginRankingLoss(margin=1.0)
    positives = Tensor(np.array([5.0, 0.0]), requires_grad=True)
    negatives = Tensor(np.array([0.0, 0.0, 0.0, 0.0]), requires_grad=True)
    positive_index = np.array([0, 0, 1, 1])
    loss = loss_fn(positives, negatives, positive_index)
    # Pairs with the strong positive contribute 0, the weak positive contributes 1.
    assert loss.item() == pytest.approx(0.5)


def test_logistic_loss_decreases_with_better_separation():
    loss_fn = LogisticLoss()
    index = np.array([0, 1])
    bad = loss_fn(
        Tensor(np.array([0.0, 0.0]), requires_grad=True),
        Tensor(np.array([0.0, 0.0]), requires_grad=True),
        index,
    )
    good = loss_fn(
        Tensor(np.array([5.0, 5.0]), requires_grad=True),
        Tensor(np.array([-5.0, -5.0]), requires_grad=True),
        index,
    )
    assert good.item() < bad.item()


def test_self_adversarial_loss_weights_sum_to_one_per_group():
    loss_fn = SelfAdversarialLoss(margin=2.0)
    positives = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    negatives = Tensor(np.array([0.5, -0.5, 1.0, 0.0]), requires_grad=True)
    index = np.array([0, 0, 1, 1])
    loss = loss_fn(positives, negatives, index)
    assert np.isfinite(loss.item())
    loss.backward()  # must not raise


# ------------------------------------------------------------------ optimizers
def _quadratic_parameter():
    return {"w": Parameter(np.array([5.0, -3.0]))}


@pytest.mark.parametrize("name,learning_rate", [("sgd", 0.3), ("adagrad", 2.0), ("adam", 0.3)])
def test_optimizers_minimize_a_quadratic(name, learning_rate):
    parameters = _quadratic_parameter()
    optimizer = make_optimizer(name, parameters, learning_rate=learning_rate)
    for _ in range(400):
        optimizer.zero_grad()
        loss = (parameters["w"] * parameters["w"]).sum()
        loss.backward()
        optimizer.step()
    np.testing.assert_allclose(parameters["w"].data, [0.0, 0.0], atol=0.1)


def test_make_optimizer_rejects_unknown():
    with pytest.raises(ValueError):
        make_optimizer("lion", _quadratic_parameter(), 0.1)
    with pytest.raises(ValueError):
        SGD(_quadratic_parameter(), learning_rate=0.0)


def test_optimizer_skips_parameters_without_gradients():
    parameters = {"used": Parameter(np.ones(2)), "unused": Parameter(np.ones(2))}
    optimizer = Adam(parameters, learning_rate=0.1)
    (parameters["used"] * 2).sum().backward()
    optimizer.step()
    np.testing.assert_allclose(parameters["unused"].data, np.ones(2))
    assert not np.allclose(parameters["used"].data, np.ones(2))


def test_adagrad_accumulates_squared_gradients():
    parameters = {"w": Parameter(np.array([1.0]))}
    optimizer = Adagrad(parameters, learning_rate=1.0)
    (parameters["w"] * 2).sum().backward()
    optimizer.step()
    first_step = 1.0 - parameters["w"].data[0]
    parameters["w"].zero_grad()
    (parameters["w"] * 2).sum().backward()
    before = parameters["w"].data[0]
    optimizer.step()
    second_step = before - parameters["w"].data[0]
    assert second_step < first_step  # effective learning rate shrinks


# ------------------------------------------------------------------ trainer
def test_training_reduces_loss_and_beats_untrained(toy_dataset):
    config = ModelConfig(dim=16, seed=0)
    untrained = make_model("DistMult", toy_dataset.num_entities, toy_dataset.num_relations, config)
    untrained_result = evaluate_model(untrained, toy_dataset)

    trained = make_model("DistMult", toy_dataset.num_entities, toy_dataset.num_relations, config)
    result = train_model(
        trained,
        toy_dataset,
        TrainingConfig(epochs=80, batch_size=8, num_negatives=4, learning_rate=0.05, seed=0),
    )
    assert result.epochs_run == 80
    assert result.final_loss < result.epoch_losses[0]
    trained_result = evaluate_model(trained, toy_dataset)
    assert (
        trained_result.filtered_metrics().mean_reciprocal_rank
        >= untrained_result.filtered_metrics().mean_reciprocal_rank
    )


def test_trainer_respects_loss_override(toy_dataset):
    model = make_model("TransE", toy_dataset.num_entities, toy_dataset.num_relations, ModelConfig(dim=8))
    trainer = TrainingRun(model, toy_dataset, TrainingConfig(epochs=1, loss="bce"))
    assert isinstance(trainer.loss_fn, LogisticLoss)
    trainer = TrainingRun(model, toy_dataset, TrainingConfig(epochs=1))
    assert isinstance(trainer.loss_fn, MarginRankingLoss)


def test_trainer_uniform_sampler_option(toy_dataset):
    model = make_model("TransE", toy_dataset.num_entities, toy_dataset.num_relations, ModelConfig(dim=8))
    trainer = TrainingRun(model, toy_dataset, TrainingConfig(epochs=2, sampler="uniform"))
    result = trainer.train()
    assert result.epochs_run == 2
    assert result.seconds > 0
    assert model.training is False  # trainer leaves the model in eval mode


def test_training_is_reproducible(toy_dataset):
    losses = []
    for _ in range(2):
        model = make_model(
            "DistMult", toy_dataset.num_entities, toy_dataset.num_relations, ModelConfig(dim=8, seed=3)
        )
        result = train_model(model, toy_dataset, TrainingConfig(epochs=5, seed=3))
        losses.append(result.epoch_losses)
    np.testing.assert_allclose(losses[0], losses[1])
