"""The shared interface of every knowledge-graph embedding model.

All ten models evaluated in the paper (Tables 5, 6, 11, 13) expose the same
surface so that the trainer, the evaluator and the per-relation analysis never
special-case a model:

* ``score_triples(h, r, t)`` — a differentiable plausibility score for a batch
  of triples; **higher means more plausible** for every model (distance-based
  models return negated distances).
* ``score_tails_batch(heads, relations)`` / ``score_heads_batch(relations,
  tails)`` — the **batched scoring contract**: one ``(B, E)`` matrix of
  candidate scores for ``B`` link-prediction queries at once.  This is the
  primary surface of the ranking protocol; every model in the zoo overrides
  both with a truly vectorized kernel, and the base class provides a
  brute-force fallback (one ``score_triples_np`` sweep per query) so
  third-party scorers that only implement the single-triple contract keep
  working.
* ``score_all_tails(h, r)`` / ``score_all_heads(r, t)`` — single-query score
  vectors.  When a subclass ships a vectorized batched kernel these delegate
  to it as a one-row batch (so per-query callers never pay the brute-force
  sweep twice); only scorers implementing nothing but the single-triple
  contract fall back to the original ``score_triples`` sweep.
* ``set_eval_dtype(eval_dtype)`` — selects the dtype the batched kernels
  compute in (:mod:`repro.backend`); the default fp64 is bit-identical to the
  seed implementation.
* ``parameters()`` — the trainable :class:`~repro.autodiff.tensor.Parameter`
  objects for the optimizer.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..autodiff import Parameter, Tensor
from ..backend import ScoreComputeMixin


@dataclass
class ModelConfig:
    """Hyper-parameters shared by every model.

    ``extra`` carries model-specific settings (e.g. relation dimension for
    TransR, number of convolution filters for ConvE) so experiment configs can
    stay declarative.
    """

    dim: int = 32
    seed: int = 0
    margin: float = 1.0
    regularization: float = 0.0
    loss: str = "default"
    extra: Dict[str, float] = field(default_factory=dict)


class KGEModel(ScoreComputeMixin, ABC):
    """Abstract base of all embedding models.

    Sub-classes register their trainable tensors through
    :meth:`register_parameter` and implement :meth:`score_triples`.
    """

    #: Loss family the trainer uses unless the config overrides it:
    #: ``"margin"`` (ranking loss on positive/negative pairs) or ``"bce"``
    #: (logistic / binary cross-entropy on labelled triples).
    default_loss: str = "margin"

    #: Whether entity embeddings should be L2-normalized after each update
    #: (the constraint used by the translational family).
    normalize_entities: bool = False

    def __init__(self, num_entities: int, num_relations: int, config: Optional[ModelConfig] = None) -> None:
        if num_entities <= 0 or num_relations <= 0:
            raise ValueError("model needs at least one entity and one relation")
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.config = config or ModelConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self._parameters: Dict[str, Parameter] = {}
        self.training = True

    # -- parameter registry -------------------------------------------------
    def register_parameter(self, name: str, values: np.ndarray) -> Parameter:
        parameter = Parameter(values, name=name)
        self._parameters[name] = parameter
        return parameter

    def parameters(self) -> Dict[str, Parameter]:
        return dict(self._parameters)

    def zero_grad(self) -> None:
        """Clear every parameter's pending gradients (dense **and** sparse).

        This is the authoritative zero-grad of a training step: the trainer
        calls it (and only it) before each backward pass, and model
        subclasses hook it to invalidate caches derived from parameter
        values (e.g. ConvE's all-entity hidden matrix).
        ``Optimizer.zero_grad`` delegates to the same per-parameter method
        for optimizer-only usage over bare parameter dictionaries.
        """
        for parameter in self._parameters.values():
            parameter.zero_grad()
        self.invalidate_score_tables()

    def train_mode(self, enabled: bool = True) -> None:
        self.training = enabled
        self.invalidate_score_tables()

    # -- initialization helpers -----------------------------------------------
    def uniform_init(self, *shape: int, scale: Optional[float] = None) -> np.ndarray:
        """Xavier-style uniform initialization used by most of the models."""
        if scale is None:
            scale = 6.0 / np.sqrt(shape[-1])
        return self.rng.uniform(-scale, scale, size=shape)

    def normal_init(self, *shape: int, std: float = 0.1) -> np.ndarray:
        return self.rng.normal(0.0, std, size=shape)

    # -- scoring -------------------------------------------------------------------
    @abstractmethod
    def score_triples(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> Tensor:
        """Differentiable scores of a batch of triples (higher = more plausible)."""

    def score_triples_np(
        self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray
    ) -> np.ndarray:
        """Plain-numpy scores (no gradient bookkeeping kept by the caller)."""
        return self.score_triples(np.asarray(heads), np.asarray(relations), np.asarray(tails)).data

    def _overrides(self, method_name: str) -> bool:
        """True when this subclass replaced the base implementation."""
        return getattr(type(self), method_name) is not getattr(KGEModel, method_name)

    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """Scores of ``(h_i, r_i, t)`` for every entity ``t`` — shape ``(B, E)``.

        Subclasses override this with vectorized kernels.  The default prefers
        an overridden :meth:`score_all_tails` (one tuned sweep per query) and
        only falls back to brute-force ``score_triples_np`` sweeps for scorers
        that implement nothing but the single-triple contract.
        """
        heads = np.asarray(heads, dtype=np.int64).reshape(-1)
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        if self._overrides("score_all_tails"):
            rows = [self.score_all_tails(int(h), int(r)) for h, r in zip(heads, relations)]
        else:
            candidates = np.arange(self.num_entities)
            rows = [
                self.score_triples_np(
                    np.full(self.num_entities, h, dtype=np.int64),
                    np.full(self.num_entities, r, dtype=np.int64),
                    candidates,
                )
                for h, r in zip(heads, relations)
            ]
        if not rows:
            return self.score_compute.export(np.empty((0, self.num_entities)))
        return self.score_compute.export(np.stack(rows))

    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """Scores of ``(h, r_i, t_i)`` for every entity ``h`` — shape ``(B, E)``.

        Same delegation policy as :meth:`score_tails_batch`, for the head side.
        """
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        tails = np.asarray(tails, dtype=np.int64).reshape(-1)
        if self._overrides("score_all_heads"):
            rows = [self.score_all_heads(int(r), int(t)) for r, t in zip(relations, tails)]
        else:
            candidates = np.arange(self.num_entities)
            rows = [
                self.score_triples_np(
                    candidates,
                    np.full(self.num_entities, r, dtype=np.int64),
                    np.full(self.num_entities, t, dtype=np.int64),
                )
                for r, t in zip(relations, tails)
            ]
        if not rows:
            return self.score_compute.export(np.empty((0, self.num_entities)))
        return self.score_compute.export(np.stack(rows))

    def score_all_tails(self, head: int, relation: int) -> np.ndarray:
        """Scores of ``(head, relation, t)`` for every entity ``t``.

        Delegates to an overridden :meth:`score_tails_batch` as a one-row
        batch, so per-query callers of a model with a vectorized kernel never
        pay the brute-force sweep.  Scorers without a batched kernel keep the
        original ``score_triples_np`` sweep.
        """
        if self._overrides("score_tails_batch"):
            row = self.score_tails_batch(
                np.array([head], dtype=np.int64), np.array([relation], dtype=np.int64)
            )
            return np.asarray(row, dtype=np.float64)[0]
        candidates = np.arange(self.num_entities)
        heads = np.full(self.num_entities, head, dtype=np.int64)
        relations = np.full(self.num_entities, relation, dtype=np.int64)
        return self.score_triples_np(heads, relations, candidates)

    def score_all_heads(self, relation: int, tail: int) -> np.ndarray:
        """Scores of ``(h, relation, tail)`` for every entity ``h``.

        Same delegation policy as :meth:`score_all_tails`, for the head side.
        """
        if self._overrides("score_heads_batch"):
            row = self.score_heads_batch(
                np.array([relation], dtype=np.int64), np.array([tail], dtype=np.int64)
            )
            return np.asarray(row, dtype=np.float64)[0]
        candidates = np.arange(self.num_entities)
        relations = np.full(self.num_entities, relation, dtype=np.int64)
        tails = np.full(self.num_entities, tail, dtype=np.int64)
        return self.score_triples_np(candidates, relations, tails)

    # -- constraints ------------------------------------------------------------------
    def apply_constraints(
        self,
        touched_entities: Optional[np.ndarray] = None,
        touched_relations: Optional[np.ndarray] = None,
    ) -> None:
        """Hook applied after every optimizer step (e.g. entity normalization).

        ``touched_entities`` / ``touched_relations`` restrict the constraint
        to the given rows — the trainer passes the unique entity/relation ids
        of the current batch (positives and negatives), so the per-step cost
        is O(batch) instead of O(num_entities).  ``None`` keeps the original
        all-rows behaviour for direct callers.
        """
        if self.normalize_entities and "entity" in self._parameters:
            embeddings = self._parameters["entity"].data
            if touched_entities is None:
                norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
                np.divide(embeddings, np.maximum(norms, 1.0), out=embeddings)
            else:
                rows = np.asarray(touched_entities, dtype=np.int64)
                block = embeddings[rows]
                norms = np.linalg.norm(block, axis=1, keepdims=True)
                embeddings[rows] = block / np.maximum(norms, 1.0)

    # -- presentation --------------------------------------------------------------------
    @property
    def name(self) -> str:
        return type(self).__name__

    def num_parameters(self) -> int:
        """Total number of scalar parameters (for reporting model sizes)."""
        return int(sum(p.data.size for p in self._parameters.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.name}(entities={self.num_entities}, relations={self.num_relations}, "
            f"dim={self.config.dim}, parameters={self.num_parameters()})"
        )
