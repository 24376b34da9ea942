"""The lifecycle-managed training loop shared by every embedding model.

The paper trains every model with negative sampling over the training split
(Section 2.1): each positive triple is paired with corrupted triples and the
model's loss (margin ranking, logistic, or self-adversarial) is minimized by a
stochastic optimizer.  :class:`TrainingRun` implements that loop on top of the
autodiff engine; it is deliberately model-agnostic so the experiment drivers
can sweep over the whole model zoo with a single configuration object.

Beyond the bare epoch loop, a run manages the full training lifecycle:

* **sparse row updates** (``TrainingConfig.sparse_updates``, on by default):
  embedding gathers accumulate row-indexed gradients and the optimizer
  updates only the touched rows, making the step cost O(batch × dim) instead
  of O(num_entities × dim) — see :mod:`repro.models.optim` for the exact
  equivalence guarantees per optimizer;
* **touched-rows constraints**: ``apply_constraints`` receives the unique
  entity/relation ids of each batch, so post-step normalization is O(batch)
  in *both* the sparse and the dense mode (identical schedules keep the two
  modes bit-comparable);
* a **callback protocol** (:class:`TrainingCallback`: epoch begin/end, batch
  end, validation) for metrics sinks and custom schedules;
* **periodic validation** (``validate_every``) of filtered MRR on the
  validation split through the same batched/sharded
  :class:`~repro.eval.ranking.LinkPredictionEvaluator` used for testing;
* **patience-based early stopping** (``patience`` validation checks without a
  new best MRR);
* **best-checkpoint restoration** (``restore_best``): the parameters at the
  best validation MRR are snapshotted and reloaded before :meth:`train`
  returns, so an early-stopped run hands back its best model, not its last;
  the snapshot rides along in checkpoints, keeping resume bit-identical;
* a **NaN-loss abort** that raises :class:`NaNLossError` with the exact
  epoch/batch instead of silently optimizing garbage;
* **checkpointing** (``checkpoint_dir`` / ``checkpoint_every``): parameters,
  optimizer state and all three RNG streams go into one ``.npz``; restoring
  into a freshly constructed run resumes **bit-identically** (the loss curve
  and final parameters equal the uninterrupted run's).

Determinism: the epoch shuffle is drawn from a dedicated
``np.random.default_rng(config.seed)`` stream (exactly one permutation per
epoch, nothing else), negative sampling from ``config.seed + 1``, and
model-level randomness (initialization, ConvE dropout) from
``ModelConfig.seed`` — so two runs with equal configs produce bit-identical
loss curves and parameters, which the regression suite asserts.

Progress is reported through ``logging.getLogger("repro.training")`` (never
bare ``print``); the CLI maps ``--verbose`` / ``--quiet`` onto log levels.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..api.schema import TRAINING_DEFAULTS
from ..autodiff.tensor import unique_rows
from ..eval.ranking import DEFAULT_EVAL_BATCH_SIZE, LinkPredictionEvaluator
from ..telemetry import get_telemetry
from ..kg.dataset import Dataset
from ..kg.sampling import BernoulliNegativeSampler, UniformNegativeSampler
from .base import KGEModel
from .losses import make_loss
from .optim import make_optimizer

logger = logging.getLogger("repro.training")

#: Bump when the checkpoint payload layout changes.
CHECKPOINT_VERSION = 1


class NaNLossError(RuntimeError):
    """A training batch produced a non-finite loss.

    Raised instead of letting NaNs propagate silently through the parameters;
    the message pinpoints the model, dataset, epoch and batch.  Typical
    remedies: lower the learning rate, switch optimizer, or shrink the margin.
    """


@dataclass
class TrainingConfig:
    """Hyper-parameters and lifecycle knobs of a training run.

    Hyper-parameter defaults derive from the knob schema of
    :mod:`repro.api.schema` — the same definitions behind
    ``ExperimentSpec.training`` (whose ``training_config()`` builds this
    class) and the generated CLI flags — so the three surfaces cannot drift
    apart.
    """

    epochs: int = TRAINING_DEFAULTS["epochs"]
    batch_size: int = TRAINING_DEFAULTS["batch_size"]
    learning_rate: float = TRAINING_DEFAULTS["learning_rate"]
    optimizer: str = TRAINING_DEFAULTS["optimizer"]
    num_negatives: int = TRAINING_DEFAULTS["num_negatives"]
    loss: str = TRAINING_DEFAULTS["loss"]
    margin: float = TRAINING_DEFAULTS["margin"]
    sampler: str = TRAINING_DEFAULTS["sampler"]
    seed: int = 0
    verbose: bool = False
    log_every: int = 10
    #: Row-indexed gradients + lazy per-row optimizer updates (the fast path).
    #: ``False`` selects the dense reference path the sparse engine is
    #: regression-tested against.
    sparse_updates: bool = TRAINING_DEFAULTS["sparse_updates"]
    #: Epochs between validation-MRR passes (0 = no validation).
    validate_every: int = TRAINING_DEFAULTS["validate_every"]
    #: Validation checks without a new best filtered MRR before stopping
    #: (0 = never stop early; only meaningful with ``validate_every > 0``).
    patience: int = TRAINING_DEFAULTS["patience"]
    #: Keep an in-memory snapshot of the parameters at the best validation
    #: MRR and reload it before :meth:`TrainingRun.train` returns (so early
    #: stopping hands back the *best* model, not the last one).  The snapshot
    #: rides along in checkpoints, keeping resumed runs bit-identical.
    restore_best: bool = TRAINING_DEFAULTS["restore_best"]
    #: Unique queries per batched evaluator call during validation.
    validation_batch_size: int = DEFAULT_EVAL_BATCH_SIZE
    #: Worker processes for the sharded validation evaluator (1 = in-process).
    validation_workers: int = 1
    #: Directory for periodic checkpoints (None = no checkpointing).
    checkpoint_dir: Optional[str] = TRAINING_DEFAULTS["checkpoint_dir"]
    #: Epochs between checkpoints (0 disables periodic saves even with a dir).
    checkpoint_every: int = TRAINING_DEFAULTS["checkpoint_every"]
    #: L2 weight decay folded into the optimizer step; sparse runs decay only
    #: the batch rows, keeping regularized steps O(batch).
    weight_decay: float = TRAINING_DEFAULTS["weight_decay"]


@dataclass
class TrainingResult:
    """Summary of a completed training run."""

    model_name: str
    dataset_name: str
    epoch_losses: List[float] = field(default_factory=list)
    seconds: float = 0.0
    #: 1-based epochs at which validation ran, aligned with ``validation_mrrs``.
    validation_epochs: List[int] = field(default_factory=list)
    validation_mrrs: List[float] = field(default_factory=list)
    stopped_early: bool = False
    #: 1-based epoch of the best validation MRR seen (None = never validated).
    best_epoch: Optional[int] = None
    #: The final parameters are the ``best_epoch`` snapshot, not the last
    #: epoch's (``TrainingConfig.restore_best``).
    restored_best: bool = False

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")

    @property
    def epochs_run(self) -> int:
        return len(self.epoch_losses)

    @property
    def best_validation_mrr(self) -> float:
        return max(self.validation_mrrs) if self.validation_mrrs else float("nan")


class TrainingCallback:
    """Lifecycle hooks of a :class:`TrainingRun` (all optional no-ops).

    Subclass and override what you need; every hook receives the run, so
    callbacks can inspect ``run.model`` / ``run.result`` or request a stop by
    calling ``run.request_stop()``.
    """

    def on_epoch_begin(self, run: "TrainingRun", epoch: int) -> None:
        """Called before the first batch of ``epoch`` (0-based)."""

    def on_batch_end(self, run: "TrainingRun", epoch: int, batch_index: int, loss: float) -> None:
        """Called after each optimizer step with the batch loss."""

    def on_epoch_end(self, run: "TrainingRun", epoch: int, mean_loss: float) -> None:
        """Called after the last batch of ``epoch`` with the mean epoch loss."""

    def on_validation(self, run: "TrainingRun", epoch: int, mrr: float) -> None:
        """Called after a validation pass with the filtered validation MRR."""


class TrainingRun:
    """Trains one :class:`~repro.models.base.KGEModel` on one dataset.

    The run object is resumable state: construct it (model, dataset, config
    must match the original run — same seeds included), optionally
    :meth:`restore` a checkpoint, then :meth:`train` runs the remaining
    epochs.  ``train()`` may be called once per run object.
    """

    def __init__(
        self,
        model: KGEModel,
        dataset: "Dataset",
        config: Optional[TrainingConfig] = None,
        callbacks: Sequence[TrainingCallback] = (),
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.config = config or TrainingConfig()
        self.callbacks: List[TrainingCallback] = list(callbacks)
        self.rng = np.random.default_rng(self.config.seed)

        loss_name = self.config.loss
        if loss_name == "default":
            loss_name = model.default_loss
        self.loss_fn = make_loss(loss_name, margin=self.config.margin)

        sampler_class = (
            BernoulliNegativeSampler if self.config.sampler == "bernoulli" else UniformNegativeSampler
        )
        self.sampler = sampler_class(
            dataset.train,
            num_entities=dataset.num_entities,
            rng=np.random.default_rng(self.config.seed + 1),
            filtered=True,
        )
        # Set in both directions: a model a sparse run touched trains dense
        # under a dense config.
        for parameter in model.parameters().values():
            parameter.sparse_updates = self.config.sparse_updates
        self.optimizer = make_optimizer(
            self.config.optimizer,
            model.parameters(),
            self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        #: Next epoch to run (0-based); advanced by ``train`` and ``restore``.
        self.epoch = 0
        self.result = TrainingResult(model_name=model.name, dataset_name=dataset.name)
        self._best_mrr = -np.inf
        self._stale_validations = 0
        self._stop_requested = False
        self._validator: Optional[LinkPredictionEvaluator] = None
        #: Parameter snapshot at the best validation MRR (``restore_best``).
        self._best_params: Optional[Dict[str, np.ndarray]] = None
        #: Refreshed at the top of :meth:`train` (telemetry may be enabled
        #: between construction and the run; a no-op singleton when off).
        self._rows_touched = get_telemetry().counter("train.rows_touched")
        if self.config.restore_best and self.config.validate_every <= 0:
            logger.warning(
                "restore_best is set but validate_every=%d disables validation; "
                "no best checkpoint will ever be captured",
                self.config.validate_every,
            )

    # -- callback / control surface ----------------------------------------------
    def request_stop(self) -> None:
        """Stop after the current epoch (usable from callbacks)."""
        self._stop_requested = True

    def _emit(self, hook: str, *args) -> None:
        for callback in self.callbacks:
            getattr(callback, hook)(self, *args)

    # -- the loop -----------------------------------------------------------------
    def train(self) -> TrainingResult:
        """Run the remaining epochs and return the loss curve + lifecycle log."""
        train_array = self.dataset.train.to_array()
        config = self.config
        started = time.perf_counter()
        self.model.train_mode(True)
        telemetry = get_telemetry()
        self._rows_touched = telemetry.counter("train.rows_touched")
        epoch_counter = telemetry.counter("train.epochs")
        batch_counter = telemetry.counter("train.batches")
        loss_gauge = telemetry.gauge("train.loss")
        epoch_seconds = telemetry.histogram("train.epoch_seconds")

        while self.epoch < config.epochs and not self._stop_requested:
            epoch = self.epoch
            self._emit("on_epoch_begin", epoch)
            order = self.rng.permutation(len(train_array))
            epoch_loss = 0.0
            num_batches = 0
            epoch_started = time.perf_counter()
            with telemetry.span(
                "train.epoch",
                model=self.model.name,
                dataset=self.dataset.name,
                epoch=epoch + 1,
            ):
                for batch_index, start in enumerate(range(0, len(order), config.batch_size)):
                    batch = train_array[order[start:start + config.batch_size]]
                    loss = self._train_batch(batch, epoch, batch_index)
                    epoch_loss += loss
                    num_batches += 1
                    self._emit("on_batch_end", epoch, batch_index, loss)
            mean_loss = epoch_loss / max(1, num_batches)
            self.result.epoch_losses.append(mean_loss)
            self.epoch += 1
            epoch_counter.add(1)
            batch_counter.add(num_batches)
            loss_gauge.set(mean_loss)
            if telemetry.enabled:
                epoch_seconds.observe(time.perf_counter() - epoch_started)
            self._log_epoch(epoch, mean_loss, started)
            self._emit("on_epoch_end", epoch, mean_loss)
            if config.validate_every > 0 and (epoch + 1) % config.validate_every == 0:
                self._validate(epoch)
            if (
                config.checkpoint_dir
                and config.checkpoint_every > 0
                and self.epoch % config.checkpoint_every == 0
            ):
                self.save_checkpoint(
                    Path(config.checkpoint_dir) / f"checkpoint-epoch-{self.epoch:04d}.npz"
                )

        self.model.train_mode(False)
        self._restore_best_params()
        self.result.seconds += time.perf_counter() - started
        return self.result

    def _restore_best_params(self) -> None:
        """Reload the best-validation snapshot into the model (``restore_best``)."""
        if not (self.config.restore_best and self._best_params is not None):
            return
        for name, parameter in self.model.parameters().items():
            parameter.data[...] = self._best_params[name]
        # Restored values invalidate gradients and model-level caches.
        self.model.zero_grad()
        self.result.restored_best = True
        logger.info(
            "[%s on %s] restored best-validation parameters from epoch %s "
            "(MRR %.4f; last trained epoch %d)",
            self.model.name,
            self.dataset.name,
            self.result.best_epoch,
            self._best_mrr,
            self.epoch,
        )

    def _train_batch(self, batch: np.ndarray, epoch: int, batch_index: int) -> float:
        telemetry = get_telemetry()
        with telemetry.span("train.sample"):
            negatives, positive_index = self.sampler.sample(batch, self.config.num_negatives)
        with telemetry.span("train.forward"):
            positive_scores = self.model.score_triples(batch[:, 0], batch[:, 1], batch[:, 2])
            negative_scores = self.model.score_triples(
                negatives[:, 0], negatives[:, 1], negatives[:, 2]
            )
            loss = self.loss_fn(positive_scores, negative_scores, positive_index)
            value = float(loss.item())
        if not np.isfinite(value):
            raise NaNLossError(
                f"non-finite loss ({value!r}) training {self.model.name} on "
                f"{self.dataset.name} at epoch {epoch + 1}, batch {batch_index + 1}; "
                f"lower the learning rate ({self.config.learning_rate}) or switch "
                f"optimizers ({self.config.optimizer!r})"
            )
        with telemetry.span("train.backward"):
            # The model's zero_grad is the single authoritative pre-backward
            # clear: it wipes dense and sparse gradients and drops model-level
            # caches.
            self.model.zero_grad()
            loss.backward()
        with telemetry.span("train.step"):
            row_bounded = self.optimizer.step()
        with telemetry.span("train.constrain"):
            if row_bounded:
                # Every update only moved rows inside the batch's gradient
                # support, so constraining those rows is complete — and the
                # schedule is identical in sparse and dense mode, which keeps
                # SGD/Adagrad bit-comparable across the two.
                touched_entities = unique_rows(
                    np.concatenate([batch[:, 0], batch[:, 2], negatives[:, 0], negatives[:, 2]]),
                    self.model.num_entities,
                )
                touched_relations = unique_rows(
                    np.concatenate([batch[:, 1], negatives[:, 1]]), self.model.num_relations
                )
                self._rows_touched.add(len(touched_entities) + len(touched_relations))
                self.model.apply_constraints(
                    touched_entities=touched_entities, touched_relations=touched_relations
                )
            else:
                # Dense Adam momentum moves rows outside the batch; only an
                # all-rows pass keeps constraints tight.
                self.model.apply_constraints()
        return value

    def _log_epoch(self, epoch: int, mean_loss: float, started: float) -> None:
        cadence = max(1, self.config.log_every)
        level = (
            logging.INFO
            if self.config.verbose and (epoch + 1) % cadence == 0
            else logging.DEBUG
        )
        logger.log(
            level,
            "[%s on %s] epoch %d/%d loss=%.4f (%.1fs)",
            self.model.name,
            self.dataset.name,
            epoch + 1,
            self.config.epochs,
            mean_loss,
            time.perf_counter() - started,
        )

    # -- validation / early stopping -----------------------------------------------
    def _validate(self, epoch: int) -> None:
        valid_triples = list(self.dataset.valid)
        if not valid_triples:
            logger.warning(
                "validate_every=%d but %s has an empty validation split; skipping",
                self.config.validate_every,
                self.dataset.name,
            )
            return
        if self._validator is None:
            from ..api.options import EvalOptions

            self._validator = LinkPredictionEvaluator(
                self.dataset,
                options=EvalOptions(
                    batch_size=self.config.validation_batch_size,
                    workers=self.config.validation_workers,
                ),
            )
        self.model.train_mode(False)
        try:
            outcome = self._validator.evaluate(
                self.model, test_triples=valid_triples, model_name=self.model.name
            )
        finally:
            self.model.train_mode(True)
        mrr = outcome.filtered_metrics().mean_reciprocal_rank
        self.result.validation_epochs.append(epoch + 1)
        self.result.validation_mrrs.append(mrr)
        logger.info(
            "[%s on %s] epoch %d validation MRR=%.4f (best %.4f)",
            self.model.name,
            self.dataset.name,
            epoch + 1,
            mrr,
            max(self._best_mrr, mrr),
        )
        self._emit("on_validation", epoch, mrr)
        if mrr > self._best_mrr:
            self._best_mrr = mrr
            self.result.best_epoch = epoch + 1
            self._stale_validations = 0
            if self.config.restore_best:
                self._best_params = {
                    name: parameter.data.copy()
                    for name, parameter in self.model.parameters().items()
                }
        else:
            self._stale_validations += 1
            if 0 < self.config.patience <= self._stale_validations:
                self._stop_requested = True
                self.result.stopped_early = True
                logger.info(
                    "[%s on %s] early stop after epoch %d: no improvement in %d "
                    "validation checks (best MRR %.4f at epoch %s)",
                    self.model.name,
                    self.dataset.name,
                    epoch + 1,
                    self._stale_validations,
                    self._best_mrr,
                    self.result.best_epoch,
                )

    # -- checkpointing ---------------------------------------------------------------
    def save_checkpoint(self, path: Union[str, Path]) -> Path:
        """Write parameters, optimizer state, RNG streams and progress to ``path``.

        The payload is a flat ``.npz``; restoring it into a freshly
        constructed, identically configured run resumes bit-identically.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload: Dict[str, np.ndarray] = {
            "meta__version": np.asarray(CHECKPOINT_VERSION),
            "meta__model": np.asarray(self.model.name),
            "meta__dataset": np.asarray(self.dataset.name),
            "rng__trainer": _encode_rng(self.rng),
            "rng__sampler": _encode_rng(self.sampler.rng),
            "rng__model": _encode_rng(self.model.rng),
            "progress__epoch": np.asarray(self.epoch),
            "progress__epoch_losses": np.asarray(self.result.epoch_losses),
            "progress__validation_epochs": np.asarray(
                self.result.validation_epochs, dtype=np.int64
            ),
            "progress__validation_mrrs": np.asarray(self.result.validation_mrrs),
            "progress__best_mrr": np.asarray(self._best_mrr),
            "progress__stale_validations": np.asarray(self._stale_validations),
            "progress__best_epoch": np.asarray(
                -1 if self.result.best_epoch is None else self.result.best_epoch
            ),
            "progress__seconds": np.asarray(self.result.seconds),
        }
        for name, parameter in self.model.parameters().items():
            payload[f"param__{name}"] = parameter.data
        if self._best_params is not None:
            # Optional additive keys (readers that predate them ignore them),
            # so the checkpoint version stays unchanged.
            for name, data in self._best_params.items():
                payload[f"best__{name}"] = data
        for key, value in self.optimizer.state_dict().items():
            payload[f"opt__{key}"] = value
        np.savez(path, **payload)
        logger.info(
            "[%s on %s] checkpoint after epoch %d written to %s",
            self.model.name,
            self.dataset.name,
            self.epoch,
            path,
        )
        return path

    def restore(self, path: Union[str, Path]) -> "TrainingRun":
        """Load a checkpoint written by :meth:`save_checkpoint` into this run.

        The run must be freshly constructed with the same model architecture,
        dataset and config as the run that saved the checkpoint; mismatching
        model/dataset names or parameter shapes raise ``ValueError``.
        """
        path = Path(path)
        with np.load(path, allow_pickle=False) as data:
            version = int(data["meta__version"])
            if version != CHECKPOINT_VERSION:
                raise ValueError(
                    f"checkpoint version {version} != supported {CHECKPOINT_VERSION}"
                )
            for label, expected in (("model", self.model.name), ("dataset", self.dataset.name)):
                stored = str(data[f"meta__{label}"])
                if stored != expected:
                    raise ValueError(
                        f"checkpoint was written for {label} {stored!r}, "
                        f"this run uses {expected!r}"
                    )
            for name, parameter in self.model.parameters().items():
                stored_param = data[f"param__{name}"]
                if stored_param.shape != parameter.data.shape:
                    raise ValueError(
                        f"parameter shape mismatch for {name!r}: "
                        f"{stored_param.shape} != {parameter.data.shape}"
                    )
                parameter.data[...] = stored_param
            best_keys = [key for key in data.files if key.startswith("best__")]
            if best_keys:
                self._best_params = {key[len("best__"):]: data[key] for key in best_keys}
            self.optimizer.load_state_dict(
                {key[len("opt__"):]: data[key] for key in data.files if key.startswith("opt__")}
            )
            self.rng.bit_generator.state = _decode_rng(data["rng__trainer"])
            self.sampler.rng.bit_generator.state = _decode_rng(data["rng__sampler"])
            self.model.rng.bit_generator.state = _decode_rng(data["rng__model"])
            self.epoch = int(data["progress__epoch"])
            self.result.epoch_losses = [float(x) for x in data["progress__epoch_losses"]]
            self.result.validation_epochs = [int(x) for x in data["progress__validation_epochs"]]
            self.result.validation_mrrs = [float(x) for x in data["progress__validation_mrrs"]]
            self._best_mrr = float(data["progress__best_mrr"])
            self._stale_validations = int(data["progress__stale_validations"])
            best_epoch = int(data["progress__best_epoch"])
            self.result.best_epoch = None if best_epoch < 0 else best_epoch
            self.result.seconds = float(data["progress__seconds"])
        # Restored parameter values invalidate any model-level caches.
        self.model.zero_grad()
        logger.info(
            "[%s on %s] restored checkpoint %s (resuming at epoch %d)",
            self.model.name,
            self.dataset.name,
            path,
            self.epoch + 1,
        )
        return self


def _encode_rng(rng: np.random.Generator) -> np.ndarray:
    """Serialize a Generator's bit-generator state to a 0-d unicode array."""
    return np.asarray(json.dumps(rng.bit_generator.state))


def _decode_rng(encoded: np.ndarray) -> dict:
    return json.loads(str(encoded[()]))


def train_model(
    model: KGEModel,
    dataset: Dataset,
    config: Optional[TrainingConfig] = None,
    callbacks: Sequence[TrainingCallback] = (),
) -> TrainingResult:
    """Convenience wrapper: construct a :class:`TrainingRun` and run it."""
    return TrainingRun(model, dataset, config, callbacks=callbacks).train()
