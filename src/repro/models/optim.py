"""Optimizers for the embedding models (SGD, Adagrad, Adam), sparse-aware.

The original codebases the paper benchmarks (OpenKE, ConvE, RotatE, TuckER)
use SGD, Adagrad or Adam depending on the model; the same three are provided
here, operating on the :class:`~repro.autodiff.tensor.Parameter` dictionaries
exposed by :class:`~repro.models.base.KGEModel`.

Every optimizer consumes gradients through two paths:

* **dense** — the reference path: ``parameter.grad`` holds a full array and
  the update touches every row (the seed behaviour, kept verbatim);
* **sparse** — when a parameter carries a pending
  :class:`~repro.autodiff.tensor.SparseGrad` (embedding tables gathered with
  ``sparse_updates`` enabled), only the coalesced touched rows are updated.
  For SGD and Adagrad the sparse update is bit-identical to the dense one
  (untouched rows receive an exact zero update in the dense path); Adam uses
  *lazy* per-row state — each row keeps its own step count for bias
  correction, so a touched row sees exactly the update a dense Adam would
  apply to a parameter that had only ever been stepped when that row was
  touched.  Momentum of untouched rows does **not** decay, which is the
  standard sparse/LazyAdam trade-off of large-scale embedding systems.

``weight_decay`` folds an L2 penalty gradient (``wd * parameter``) into
whichever gradient path is active *before* the update rule runs.  On the
sparse path only the batch rows pay the decay, so regularized sparse training
keeps its O(batch) per-step cost — the same lazy-regularization trade-off as
the per-row Adam state.  When every row is touched, the sparse decayed update
is bit-identical to the dense one.

``state_dict()`` / ``load_state_dict()`` expose the optimizer state as flat
numpy arrays so the trainer can checkpoint and resume bit-identically —
including Adam's global ``_step_count`` and per-row lazy step counts.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..autodiff import Parameter


class Optimizer:
    """Base optimizer over a named parameter dictionary."""

    #: Whether a *dense* update can only move rows with a nonzero gradient.
    #: True for SGD/Adagrad (zero-grad rows receive an exactly-zero update);
    #: False for Adam, whose momentum moves every row once it is nonzero.
    dense_update_is_row_bounded = True

    def __init__(
        self,
        parameters: Dict[str, Parameter],
        learning_rate: float = 0.01,
        weight_decay: float = 0.0,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if weight_decay < 0:
            raise ValueError("weight decay must be non-negative")
        self.parameters = dict(parameters)
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)

    def zero_grad(self) -> None:
        """Clear dense and sparse gradients of every managed parameter.

        This delegates to the same per-parameter ``zero_grad`` that
        :meth:`repro.models.base.KGEModel.zero_grad` uses; the trainer calls
        the **model's** method (the authoritative path, which also drops
        model-level caches such as ConvE's hidden-matrix cache) — this one
        exists for optimizer-only usage over bare parameter dictionaries.
        """
        for parameter in self.parameters.values():
            parameter.zero_grad()

    def step(self) -> bool:
        """Apply all pending updates.

        Returns True when every update this step was **row-bounded** — it can
        only have moved rows inside the gradient's support (sparse updates,
        and dense SGD/Adagrad updates).  Dense Adam updates move rows outside
        the batch, so they return False; the trainer uses the flag to decide
        whether touched-rows constraints suffice or every row must be
        re-constrained.
        """
        row_bounded = True
        for name, parameter in self.parameters.items():
            pending = self._pending_sparse(parameter)
            if pending is not None:
                indices, rows = pending
                if self.weight_decay:
                    # L2 decay folded into the gradient rows: only the batch
                    # rows pay it, keeping regularized sparse steps O(batch)
                    # (the standard decoupling of sparse embedding systems).
                    rows = rows + self.weight_decay * parameter.data[indices]
                self._update_sparse(name, parameter, indices, rows)
            elif parameter.grad is not None:
                if self.weight_decay:
                    parameter.dense_grad = (
                        parameter.grad + self.weight_decay * parameter.data
                    )
                self._update(name, parameter)
                row_bounded &= self.dense_update_is_row_bounded
        return row_bounded

    def _pending_sparse(
        self, parameter: Parameter
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Coalesced ``(indices, rows)`` if the parameter's gradient is purely sparse.

        Mixed contributions (a parameter that received both gather and dense
        gradients in one graph) fall back to the dense path: returning
        ``None`` makes ``step`` read ``parameter.grad``, which folds the
        sparse segments in.
        """
        sparse = getattr(parameter, "sparse_grad", None)
        if sparse is None or sparse.is_empty():
            return None
        if getattr(parameter, "dense_grad", None) is not None:
            return None
        return sparse.coalesce()

    def _update(self, name: str, parameter: Parameter) -> None:
        raise NotImplementedError

    def _update_sparse(
        self, name: str, parameter: Parameter, indices: np.ndarray, rows: np.ndarray
    ) -> None:
        raise NotImplementedError

    # -- checkpointing --------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Optimizer state as flat numpy arrays (stable keys, npz-friendly)."""
        return {}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        if state:
            raise ValueError(
                f"{type(self).__name__} carries no state but got keys {sorted(state)}"
            )


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def _update(self, name: str, parameter: Parameter) -> None:
        parameter.data -= self.learning_rate * parameter.grad

    def _update_sparse(
        self, name: str, parameter: Parameter, indices: np.ndarray, rows: np.ndarray
    ) -> None:
        parameter.data[indices] -= self.learning_rate * rows


class Adagrad(Optimizer):
    """Adagrad with per-parameter accumulated squared gradients.

    The sparse update reads and writes only the touched rows of the
    accumulator, so the step cost is O(touched × dim); the accumulator array
    itself is allocated densely once (it is optimizer *state*, not a
    per-step temporary).
    """

    def __init__(
        self,
        parameters: Dict[str, Parameter],
        learning_rate: float = 0.1,
        epsilon: float = 1e-10,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, learning_rate, weight_decay=weight_decay)
        self.epsilon = epsilon
        self._accumulators = {name: np.zeros_like(p.data) for name, p in self.parameters.items()}

    def _update(self, name: str, parameter: Parameter) -> None:
        accumulator = self._accumulators[name]
        accumulator += parameter.grad ** 2
        parameter.data -= self.learning_rate * parameter.grad / (np.sqrt(accumulator) + self.epsilon)

    def _update_sparse(
        self, name: str, parameter: Parameter, indices: np.ndarray, rows: np.ndarray
    ) -> None:
        accumulator = self._accumulators[name]
        accumulator[indices] += rows ** 2
        parameter.data[indices] -= (
            self.learning_rate * rows / (np.sqrt(accumulator[indices]) + self.epsilon)
        )

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {f"acc__{name}": value for name, value in self._accumulators.items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for name, accumulator in self._accumulators.items():
            stored = np.asarray(state[f"acc__{name}"])
            if stored.shape != accumulator.shape:
                raise ValueError(
                    f"accumulator shape mismatch for {name!r}: "
                    f"{stored.shape} != {accumulator.shape}"
                )
            accumulator[...] = stored


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015), lazy on sparse rows.

    The dense path is the textbook update with the global step count
    ``_step_count``.  The sparse path keeps one step count **per row**
    (allocated on first sparse touch): a touched row advances its own count,
    decays its own moments, and is bias-corrected with its own count — so the
    row sees exactly the dense update of a parameter stepped only when the
    row was touched.  Rows never touched keep their moments unchanged (no
    decay), which is where lazy Adam deliberately departs from dense Adam.
    """

    #: A dense Adam update moves every row with nonzero momentum regardless
    #: of the current gradient, so it is never row-bounded.
    dense_update_is_row_bounded = False
    #: Initial length of the per-step-count bias-correction tables.
    _BIAS_TABLE_SIZE = 64

    def __init__(
        self,
        parameters: Dict[str, Parameter],
        learning_rate: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, learning_rate, weight_decay=weight_decay)
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._first_moment = {name: np.zeros_like(p.data) for name, p in self.parameters.items()}
        self._second_moment = {name: np.zeros_like(p.data) for name, p in self.parameters.items()}
        self._step_count = 0
        self._row_steps: Dict[str, np.ndarray] = {}
        # Bias-correction tables indexed by step count (derived state, not
        # checkpointed); see ``_bias_corrections``.
        self._bias1 = np.empty(0)
        self._bias2 = np.empty(0)

    def step(self) -> bool:
        self._step_count += 1
        return super().step()

    def _update(self, name: str, parameter: Parameter) -> None:
        gradient = parameter.grad
        m = self._first_moment[name]
        v = self._second_moment[name]
        m *= self.beta1
        m += (1.0 - self.beta1) * gradient
        v *= self.beta2
        v += (1.0 - self.beta2) * gradient ** 2
        m_hat = m / (1.0 - self.beta1 ** self._step_count)
        v_hat = v / (1.0 - self.beta2 ** self._step_count)
        parameter.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def _bias_corrections(self, steps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``1 - beta1 ** k`` and ``1 - beta2 ** k`` per entry of ``steps``.

        The values come from tables built with the same *scalar* ``beta **
        int`` the dense path computes (numpy's vectorized pow differs from
        Python's by an ulp at some exponents, which would break the per-row
        equivalence).  The tables start at ``_BIAS_TABLE_SIZE`` entries and
        double whenever a step count outgrows them.
        """
        needed = int(steps.max()) + 1 if steps.size else 0
        if needed > len(self._bias1):
            size = max(2 * len(self._bias1), self._BIAS_TABLE_SIZE)
            while size < needed:
                size *= 2
            self._bias1 = np.array([1.0 - self.beta1 ** k for k in range(size)])
            self._bias2 = np.array([1.0 - self.beta2 ** k for k in range(size)])
        return self._bias1[steps], self._bias2[steps]

    def _update_sparse(
        self, name: str, parameter: Parameter, indices: np.ndarray, rows: np.ndarray
    ) -> None:
        # ``indices`` are unique (coalesced), so the updated moment rows can
        # be reused instead of gathered again.  The row update runs in place
        # on the gathered copies, with the dense update's operations in the
        # dense update's order.
        m = self._first_moment[name]
        v = self._second_moment[name]
        steps = self._row_steps.get(name)
        if steps is None:
            steps = self._row_steps[name] = np.zeros(parameter.data.shape[0], dtype=np.int64)
        t = steps[indices] + 1
        steps[indices] = t
        bias1, bias2 = self._bias_corrections(t)
        trailing = [1] * (rows.ndim - 1)
        m_rows = m[indices]
        m_rows *= self.beta1
        scaled = rows * (1.0 - self.beta1)
        m_rows += scaled
        v_rows = v[indices]
        v_rows *= self.beta2
        np.square(rows, out=scaled)
        scaled *= 1.0 - self.beta2
        v_rows += scaled
        m[indices] = m_rows
        v[indices] = v_rows
        denominator = v_rows / bias2.reshape(-1, *trailing)
        np.sqrt(denominator, out=denominator)
        denominator += self.epsilon
        update = m_rows / bias1.reshape(-1, *trailing)
        update *= self.learning_rate
        update /= denominator
        parameter.data[indices] -= update

    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {"step_count": np.asarray(self._step_count)}
        for name in self.parameters:
            state[f"m__{name}"] = self._first_moment[name]
            state[f"v__{name}"] = self._second_moment[name]
        for name, steps in self._row_steps.items():
            state[f"rowsteps__{name}"] = steps
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self._step_count = int(state["step_count"])
        for name in self.parameters:
            for moments, key in ((self._first_moment, f"m__{name}"), (self._second_moment, f"v__{name}")):
                stored = np.asarray(state[key])
                if stored.shape != moments[name].shape:
                    raise ValueError(
                        f"moment shape mismatch for {name!r}: "
                        f"{stored.shape} != {moments[name].shape}"
                    )
                moments[name][...] = stored
        self._row_steps = {}
        prefix = "rowsteps__"
        for key, value in state.items():
            if key.startswith(prefix):
                self._row_steps[key[len(prefix):]] = np.asarray(value, dtype=np.int64).copy()


def make_optimizer(
    name: str,
    parameters: Dict[str, Parameter],
    learning_rate: float,
    weight_decay: float = 0.0,
) -> Optimizer:
    """Factory resolving an optimizer name used in trainer configs."""
    lowered = name.lower()
    if lowered == "sgd":
        return SGD(parameters, learning_rate, weight_decay=weight_decay)
    if lowered == "adagrad":
        return Adagrad(parameters, learning_rate, weight_decay=weight_decay)
    if lowered == "adam":
        return Adam(parameters, learning_rate, weight_decay=weight_decay)
    raise ValueError(f"unknown optimizer: {name!r}")
