"""Training losses used by the embedding models.

Section 2.1 of the paper describes the two loss families used by the compared
models: the margin-based ranking loss and the logistic loss.  RotatE adds a
self-adversarial negative-sampling loss.  All three are provided here on top
of the autodiff engine, operating on "higher is more plausible" scores.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, logsigmoid
from ..autodiff.fused import logistic, margin_ranking


class LossFunction:
    """Interface: combine positive and negative scores into a scalar loss."""

    name = "loss"

    def __call__(
        self, positive_scores: Tensor, negative_scores: Tensor, positive_index: np.ndarray
    ) -> Tensor:
        raise NotImplementedError


class MarginRankingLoss(LossFunction):
    """``mean(max(0, γ - f(pos) + f(neg)))`` over all (positive, negative) pairs."""

    name = "margin"

    def __init__(self, margin: float = 1.0) -> None:
        self.margin = float(margin)

    def __call__(
        self, positive_scores: Tensor, negative_scores: Tensor, positive_index: np.ndarray
    ) -> Tensor:
        return margin_ranking(positive_scores, negative_scores, positive_index, self.margin)


class LogisticLoss(LossFunction):
    """``mean(log(1 + exp(-y * f(x))))`` with y = +1 / -1 (the paper's logistic loss)."""

    name = "bce"

    def __call__(
        self, positive_scores: Tensor, negative_scores: Tensor, positive_index: np.ndarray
    ) -> Tensor:
        return logistic(positive_scores, negative_scores)


class SelfAdversarialLoss(LossFunction):
    """RotatE's self-adversarial negative sampling loss.

    Negatives are weighted by a softmax over their current scores (with
    temperature ``alpha``); weights are treated as constants (no gradient
    flows through them), exactly as in the original implementation.
    """

    name = "self_adversarial"

    def __init__(self, margin: float = 6.0, alpha: float = 1.0) -> None:
        self.margin = float(margin)
        self.alpha = float(alpha)

    def __call__(
        self, positive_scores: Tensor, negative_scores: Tensor, positive_index: np.ndarray
    ) -> Tensor:
        positive_term = -logsigmoid(positive_scores + self.margin).mean()
        weights = _grouped_softmax(
            self.alpha * negative_scores.data, np.asarray(positive_index)
        )
        negative_term = -(
            logsigmoid(-(negative_scores + self.margin)) * Tensor(weights)
        ).sum() * (1.0 / max(1, len(positive_scores)))
        return positive_term + negative_term


def _grouped_softmax(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Softmax of ``values`` computed independently within each group id."""
    weights = np.zeros_like(values)
    for group in np.unique(groups):
        mask = groups == group
        group_values = values[mask]
        shifted = np.exp(group_values - group_values.max())
        weights[mask] = shifted / shifted.sum()
    return weights


def make_loss(name: str, margin: float = 1.0) -> LossFunction:
    """Factory resolving a loss family name used in model/trainer configs."""
    if name in ("margin", "margin_ranking"):
        return MarginRankingLoss(margin=margin)
    if name in ("bce", "logistic"):
        return LogisticLoss()
    if name in ("self_adversarial", "rotate"):
        return SelfAdversarialLoss(margin=margin)
    raise ValueError(f"unknown loss function: {name!r}")
