"""Lifecycle tests for :class:`~repro.models.trainer.TrainingRun`.

Covers the callback protocol, periodic validation + patience-based early
stopping, the NaN-loss abort, determinism (bit-identical repeat runs), the
touched-rows constraint contract, and bit-identical checkpoint resume
(parameters, optimizer state — including Adam's step counts — and all RNG
streams).
"""

import logging

import numpy as np
import pytest

from repro.models import (
    ModelConfig,
    NaNLossError,
    TrainingCallback,
    TrainingConfig,
    TrainingRun,
    make_model,
    train_model,
)


def _make(model_name, dataset, dim=8, seed=3, **extra_config):
    extra = {"embedding_height": 4} if model_name == "ConvE" else {}
    if model_name == "ConvE":
        dim = 16  # the 4x4 reshape needs width >= the 3x3 kernel
    model = make_model(
        model_name, dataset.num_entities, dataset.num_relations,
        ModelConfig(dim=dim, seed=seed, extra=extra),
    )
    config = TrainingConfig(epochs=4, batch_size=4, num_negatives=2, seed=seed, **extra_config)
    return model, config


# ------------------------------------------------------------------ determinism
def test_same_seed_runs_are_bit_identical(toy_dataset):
    """Regression: equal configs => equal loss curves AND equal parameters."""
    curves, finals = [], []
    for _ in range(2):
        model, config = _make("DistMult", toy_dataset)
        result = train_model(model, toy_dataset, config)
        curves.append(result.epoch_losses)
        finals.append({name: p.data.copy() for name, p in model.parameters().items()})
    assert np.array_equal(curves[0], curves[1])
    for name in finals[0]:
        assert np.array_equal(finals[0][name], finals[1][name]), name


# ------------------------------------------------------------------ callbacks
class _Recorder(TrainingCallback):
    def __init__(self):
        self.epoch_begins = []
        self.epoch_ends = []
        self.batch_ends = 0
        self.validations = []

    def on_epoch_begin(self, run, epoch):
        self.epoch_begins.append(epoch)

    def on_batch_end(self, run, epoch, batch_index, loss):
        self.batch_ends += 1
        assert np.isfinite(loss)

    def on_epoch_end(self, run, epoch, mean_loss):
        self.epoch_ends.append((epoch, mean_loss))

    def on_validation(self, run, epoch, mrr):
        self.validations.append((epoch, mrr))


def test_callbacks_see_every_lifecycle_event(toy_dataset):
    model, config = _make("DistMult", toy_dataset, validate_every=2)
    recorder = _Recorder()
    result = TrainingRun(model, toy_dataset, config, callbacks=[recorder]).train()
    assert recorder.epoch_begins == [0, 1, 2, 3]
    assert [epoch for epoch, _ in recorder.epoch_ends] == [0, 1, 2, 3]
    batches_per_epoch = -(-len(toy_dataset.train) // config.batch_size)
    assert recorder.batch_ends == 4 * batches_per_epoch
    assert [epoch for epoch, _ in recorder.validations] == [1, 3]
    assert [mrr for _, mrr in recorder.validations] == result.validation_mrrs
    assert result.validation_epochs == [2, 4]


class _StopAfterFirstEpoch(TrainingCallback):
    def on_epoch_end(self, run, epoch, mean_loss):
        run.request_stop()


def test_callback_can_request_stop(toy_dataset):
    model, config = _make("DistMult", toy_dataset)
    result = TrainingRun(model, toy_dataset, config, callbacks=[_StopAfterFirstEpoch()]).train()
    assert result.epochs_run == 1
    assert model.training is False


# ------------------------------------------------------------------ validation / early stopping
def test_early_stopping_on_stale_validation(toy_dataset):
    """With a vanishing learning rate the MRR never improves => patience fires."""
    model, config = _make(
        "DistMult",
        toy_dataset,
        learning_rate=1e-12,
        validate_every=1,
        patience=2,
    )
    config.epochs = 50
    result = TrainingRun(model, toy_dataset, config).train()
    assert result.stopped_early is True
    # First validation sets the best, the next two are stale.
    assert result.epochs_run == 3
    assert result.best_epoch == 1
    assert result.validation_epochs == [1, 2, 3]
    assert result.best_validation_mrr == pytest.approx(result.validation_mrrs[0])


def test_validation_skipped_on_empty_valid_split(toy_dataset, caplog):
    from repro.kg import Dataset, TripleSet

    no_valid = Dataset(
        name="toy-novalid",
        vocab=toy_dataset.vocab,
        train=toy_dataset.train,
        valid=TripleSet(),
        test=toy_dataset.test,
    )
    model, config = _make("DistMult", no_valid, validate_every=1)
    config.epochs = 2
    with caplog.at_level(logging.WARNING, logger="repro.training"):
        result = TrainingRun(model, no_valid, config).train()
    assert result.validation_mrrs == []
    assert any("empty validation split" in message for message in caplog.messages)


# ------------------------------------------------------------------ NaN abort
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # nan flows through softplus
def test_nan_loss_aborts_with_context(toy_dataset):
    model, config = _make("DistMult", toy_dataset)
    model.parameters()["entity"].data[:] = np.nan
    run = TrainingRun(model, toy_dataset, config)
    with pytest.raises(NaNLossError, match=r"epoch 1, batch 1"):
        run.train()


# ------------------------------------------------------------------ logging
def test_epoch_progress_goes_through_logging_not_print(toy_dataset, caplog, capsys):
    model, config = _make("DistMult", toy_dataset, verbose=True, log_every=1)
    with caplog.at_level(logging.INFO, logger="repro.training"):
        TrainingRun(model, toy_dataset, config).train()
    assert any("epoch 1/4" in message for message in caplog.messages)
    assert capsys.readouterr().out == ""  # nothing printed to stdout


# ------------------------------------------------------------------ constraints
def test_touched_rows_constraints_only_normalize_touched_rows(toy_dataset):
    model = make_model(
        "TransE", toy_dataset.num_entities, toy_dataset.num_relations, ModelConfig(dim=8, seed=0)
    )
    entity = model.parameters()["entity"].data
    entity[:] = 5.0  # every row far outside the unit ball
    model.apply_constraints(touched_entities=np.array([1, 3]))
    norms = np.linalg.norm(entity, axis=1)
    assert norms[1] == pytest.approx(1.0)
    assert norms[3] == pytest.approx(1.0)
    untouched = np.delete(np.arange(len(entity)), [1, 3])
    assert np.all(norms[untouched] > 1.0)
    # The all-rows behaviour is preserved for direct calls.
    model.apply_constraints()
    assert np.all(np.linalg.norm(entity, axis=1) <= 1.0 + 1e-9)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("sparse", [True, False])
def test_entity_norms_stay_bounded_after_training(toy_dataset, optimizer, sparse):
    """Every row an optimizer step can move must be re-normalized.

    Regression: dense Adam moves rows outside the batch through momentum
    decay, so touched-rows-only constraints would leave norms > 1; the
    trainer must fall back to an all-rows pass for non-row-bounded steps.
    """
    model, config = _make("TransE", toy_dataset, optimizer=optimizer, sparse_updates=sparse)
    entity = model.parameters()["entity"].data
    entity *= 3.0  # start far outside the unit ball
    train_model(model, toy_dataset, config)
    touched = np.unique(toy_dataset.train.to_array()[:, [0, 2]])
    norms = np.linalg.norm(entity, axis=1)
    # Rows that appear in training batches are normalized in every mode; for
    # configurations whose steps move further rows (dense Adam), all rows are.
    assert np.all(norms[touched] <= 1.0 + 1e-9)
    if optimizer == "adam" and not sparse:
        assert np.all(norms <= 1.0 + 1e-9)


def test_rotate_constraint_wraps_only_touched_relations():
    from repro.models import RotatE

    model = RotatE(4, 3, ModelConfig(dim=4, seed=0))
    model.parameters()["phase"].data[:] = 10.0
    model.apply_constraints(touched_relations=np.array([1]))
    phase = model.parameters()["phase"].data
    assert np.all(np.abs(phase[1]) <= np.pi)
    assert np.all(phase[0] == 10.0) and np.all(phase[2] == 10.0)


# ------------------------------------------------------------------ checkpoint / resume
@pytest.mark.parametrize(
    "model_name,optimizer", [("TransE", "sgd"), ("DistMult", "adagrad"), ("ConvE", "adam")]
)
def test_checkpoint_resume_is_bit_identical(toy_dataset, tmp_path, model_name, optimizer):
    """Save at epoch 3, resume in a fresh run, match the uninterrupted run."""
    total_epochs = 6

    def fresh():
        model, config = _make(model_name, toy_dataset, optimizer=optimizer)
        config.epochs = total_epochs
        return model, config

    # Uninterrupted reference.
    model_a, config_a = fresh()
    result_a = TrainingRun(model_a, toy_dataset, config_a).train()

    # Interrupted: 3 epochs, checkpoint, then a brand-new run resumes.
    model_b, config_b = fresh()
    config_b.epochs = 3
    first_leg = TrainingRun(model_b, toy_dataset, config_b)
    first_leg.train()
    checkpoint = first_leg.save_checkpoint(tmp_path / "ckpt.npz")

    model_c, config_c = fresh()
    second_leg = TrainingRun(model_c, toy_dataset, config_c)
    second_leg.restore(checkpoint)
    assert second_leg.epoch == 3
    result_c = second_leg.train()

    assert np.array_equal(result_a.epoch_losses, result_c.epoch_losses)
    for name, parameter in model_a.parameters().items():
        assert np.array_equal(parameter.data, model_c.parameters()[name].data), name


def test_adam_step_count_survives_resume(toy_dataset, tmp_path):
    model, config = _make("DistMult", toy_dataset, optimizer="adam")
    config.epochs = 2
    run = TrainingRun(model, toy_dataset, config)
    run.train()
    steps_taken = run.optimizer._step_count
    assert steps_taken > 0
    checkpoint = run.save_checkpoint(tmp_path / "adam.npz")

    model2, config2 = _make("DistMult", toy_dataset, optimizer="adam")
    resumed = TrainingRun(model2, toy_dataset, config2)
    assert resumed.optimizer._step_count == 0
    resumed.restore(checkpoint)
    assert resumed.optimizer._step_count == steps_taken


def test_periodic_checkpoints_written_by_the_loop(toy_dataset, tmp_path):
    model, config = _make(
        "DistMult",
        toy_dataset,
        checkpoint_dir=str(tmp_path / "ckpts"),
        checkpoint_every=2,
    )
    TrainingRun(model, toy_dataset, config).train()
    written = sorted(p.name for p in (tmp_path / "ckpts").iterdir())
    assert written == ["checkpoint-epoch-0002.npz", "checkpoint-epoch-0004.npz"]


def test_restore_rejects_mismatched_model(toy_dataset, tmp_path):
    model, config = _make("DistMult", toy_dataset)
    run = TrainingRun(model, toy_dataset, config)
    run.train()
    checkpoint = run.save_checkpoint(tmp_path / "d.npz")

    other_model, other_config = _make("TransE", toy_dataset)
    with pytest.raises(ValueError, match="written for model"):
        TrainingRun(other_model, toy_dataset, other_config).restore(checkpoint)


# ------------------------------------------------------------------ restore_best
class _ParamSnapshots(TrainingCallback):
    """Record a full parameter snapshot at every validation pass."""

    def __init__(self):
        self.snapshots = {}

    def on_validation(self, run, epoch, mrr):
        self.snapshots[epoch + 1] = {
            name: p.data.copy() for name, p in run.model.parameters().items()
        }


def test_restore_best_reloads_best_epoch_parameters(toy_dataset):
    """With restore_best the final parameters are the best epoch's, not the last."""
    snapshots = _ParamSnapshots()
    model, config = _make(
        "DistMult", toy_dataset, learning_rate=1e-12, validate_every=1, restore_best=True
    )
    result = TrainingRun(model, toy_dataset, config, callbacks=[snapshots]).train()
    # A vanishing learning rate keeps the MRR flat, so the strictly-better
    # rule pins the best at the first validation.
    assert result.best_epoch == 1
    assert result.restored_best is True
    best = snapshots.snapshots[result.best_epoch]
    last = snapshots.snapshots[max(snapshots.snapshots)]
    for name, parameter in model.parameters().items():
        assert np.array_equal(parameter.data, best[name]), name
    # ... and the best genuinely differs from the last epoch's parameters.
    assert any(
        not np.array_equal(best[name], last[name]) for name in best
    )


def test_restore_best_off_keeps_last_epoch_parameters(toy_dataset):
    snapshots = _ParamSnapshots()
    model, config = _make("DistMult", toy_dataset, learning_rate=1e-12, validate_every=1)
    result = TrainingRun(model, toy_dataset, config, callbacks=[snapshots]).train()
    assert result.restored_best is False
    last = snapshots.snapshots[max(snapshots.snapshots)]
    for name, parameter in model.parameters().items():
        assert np.array_equal(parameter.data, last[name]), name


def test_restore_best_resume_is_bit_identical(toy_dataset, tmp_path):
    """The best-parameter snapshot rides along in checkpoints."""
    total_epochs = 6

    def fresh():
        model, config = _make(
            "DistMult", toy_dataset, learning_rate=1e-12, validate_every=1,
            restore_best=True,
        )
        config.epochs = total_epochs
        return model, config

    model_a, config_a = fresh()
    result_a = TrainingRun(model_a, toy_dataset, config_a).train()
    assert result_a.restored_best is True

    model_b, config_b = fresh()
    config_b.epochs = 3
    first_leg = TrainingRun(model_b, toy_dataset, config_b)
    first_leg.train()
    checkpoint = first_leg.save_checkpoint(tmp_path / "best.npz")

    model_c, config_c = fresh()
    second_leg = TrainingRun(model_c, toy_dataset, config_c)
    second_leg.restore(checkpoint)
    result_c = second_leg.train()

    assert result_c.best_epoch == result_a.best_epoch
    for name, parameter in model_a.parameters().items():
        assert np.array_equal(parameter.data, model_c.parameters()[name].data), name


def test_restore_best_without_validation_warns_and_is_inert(toy_dataset, caplog):
    model, config = _make("DistMult", toy_dataset, restore_best=True)
    with caplog.at_level(logging.WARNING, logger="repro.training"):
        result = TrainingRun(model, toy_dataset, config).train()
    assert result.restored_best is False
    assert any("restore_best" in message for message in caplog.messages)


def test_resume_with_validation_state_continues_early_stopping(toy_dataset, tmp_path):
    """Early-stop bookkeeping (best MRR, staleness) survives the checkpoint."""
    model, config = _make(
        "DistMult", toy_dataset, learning_rate=1e-12, validate_every=1, patience=2
    )
    config.epochs = 2
    run = TrainingRun(model, toy_dataset, config)
    run.train()  # 2 epochs: best at epoch 1, one stale check
    checkpoint = run.save_checkpoint(tmp_path / "val.npz")

    model2, config2 = _make(
        "DistMult", toy_dataset, learning_rate=1e-12, validate_every=1, patience=2
    )
    config2.epochs = 50
    resumed = TrainingRun(model2, toy_dataset, config2)
    resumed.restore(checkpoint)
    result = resumed.train()
    # One more stale validation (epoch 3) exhausts the patience of 2.
    assert result.stopped_early is True
    assert result.epochs_run == 3
    assert result.best_epoch == 1


def test_a_dense_run_after_a_sparse_run_trains_dense(toy_dataset):
    """The config sets ``sparse_updates`` on every parameter, in both directions."""
    model, config = _make("DistMult", toy_dataset, sparse_updates=True)
    TrainingRun(model, toy_dataset, config).train()
    assert all(p.sparse_updates for p in model.parameters().values())

    class _GradientModes(TrainingCallback):
        def __init__(self):
            self.sparse = []

        def on_batch_end(self, run, epoch, batch_index, loss):
            self.sparse.extend(p.sparse_grad is not None for p in run.model.parameters().values())

    modes = _GradientModes()
    _, dense_config = _make("DistMult", toy_dataset, sparse_updates=False)
    TrainingRun(model, toy_dataset, dense_config, callbacks=[modes]).train()
    assert not any(p.sparse_updates for p in model.parameters().values())
    assert modes.sparse and not any(modes.sparse)
