"""The shared interface of every knowledge-graph embedding model.

All ten models evaluated in the paper (Tables 5, 6, 11, 13) expose the same
surface so that the trainer, the evaluator and the per-relation analysis never
special-case a model:

* ``score_triples(h, r, t)`` — a differentiable plausibility score for a batch
  of triples; **higher means more plausible** for every model (distance-based
  models return negated distances).
* ``score_tails_batch(heads, relations)`` / ``score_heads_batch(relations,
  tails)`` — the **scorer contract**: one ``(B, E)`` matrix of candidate
  scores for ``B`` link-prediction queries at once.  Evaluation and serving
  call nothing else; both are abstract, so every model ships a vectorized
  kernel for each side.
* ``score_all_tails(h, r)`` / ``score_all_heads(r, t)`` — single-query score
  vectors: row 0 of a one-row batch, from
  :class:`~repro.backend.ScoreComputeMixin`.
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
    :meth:`register_parameter` and implement :meth:`score_triples`,
    :meth:`score_tails_batch` and :meth:`score_heads_batch`.
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

    @abstractmethod
    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """Scores of ``(h_i, r_i, t)`` for every entity ``t`` — shape ``(B, E)``."""

    @abstractmethod
    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """Scores of ``(h, r_i, t_i)`` for every entity ``h`` — shape ``(B, E)``."""

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
