"""The evaluation dtype of candidate scoring, and the one-query score view.

Every candidate scorer — the embedding models and the AMIE/simple-rule/
Cartesian predictors — implements the batched score kernels and mixes in
:class:`ScoreComputeMixin`, which derives ``score_all_tails`` /
``score_all_heads`` from them and whose ``set_eval_dtype`` knob selects the
precision they compute in.  The kernels reach their parameter tables and buffers through the
scorer's :class:`EvalCompute`, which is a *pass-through* at fp64 — ``table()``
returns ``parameter.data`` itself and ``export()`` returns its argument — so
the default path stays bit-identical to the seed's numpy float64 arithmetic.
At fp32/fp16 it casts, caching one cast table per parameter.

Only the dtype name is stored on a scorer, so pickling a scorer into an
evaluation worker ships one string.  This module imports nothing but numpy,
so the knob schema can read :data:`DTYPE_SPECS` from it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

#: Canonical evaluation dtype names accepted everywhere a dtype knob appears.
DTYPE_SPECS = ("fp64", "fp32", "fp16")

_NUMPY_DTYPES = {
    "fp64": np.float64,
    "fp32": np.float32,
    "fp16": np.float16,
}


def canonical_dtype(spec: str) -> str:
    """Validate and normalise an evaluation dtype name."""
    name = str(spec).lower()
    if name not in DTYPE_SPECS:
        raise ValueError(
            f"unknown eval dtype {spec!r}; expected one of {', '.join(DTYPE_SPECS)}"
        )
    return name


def numpy_dtype(spec: str) -> np.dtype:
    """The numpy dtype object for a canonical dtype name."""
    return np.dtype(_NUMPY_DTYPES[canonical_dtype(spec)])


class EvalCompute:
    """An eval dtype with cached cast parameter tables."""

    __slots__ = ("dtype_name", "_dtype", "_tables")

    def __init__(self, eval_dtype: str = "fp64") -> None:
        self.dtype_name = canonical_dtype(eval_dtype)
        self._dtype = numpy_dtype(self.dtype_name)
        self._tables: Dict[int, np.ndarray] = {}

    def __reduce__(self):
        return (EvalCompute, (self.dtype_name,))

    @property
    def is_reference(self) -> bool:
        """True on the fp64 bit-identity configuration."""
        return self.dtype_name == "fp64"

    def table(self, parameter: Any) -> np.ndarray:
        """A parameter's embedding table in the eval dtype.

        At fp64 this is ``parameter.data`` itself (live, never stale).
        Otherwise the cast table is cached per parameter; callers invalidate
        via :meth:`invalidate` when parameters mutate.
        """
        if self.is_reference:
            return parameter.data
        key = id(parameter)
        cached = self._tables.get(key)
        if cached is None:
            cached = np.asarray(parameter.data, dtype=self._dtype)
            self._tables[key] = cached
        return cached

    def array(self, values: Any) -> np.ndarray:
        """One-off cast of an intermediate host array (no caching)."""
        return np.asarray(values, dtype=self._dtype)

    def export(self, scores: Any) -> Any:
        """A finished score matrix in the eval dtype (itself at fp64)."""
        if self.is_reference:
            return scores
        return self.array(scores)

    def index(self, indices: Any) -> np.ndarray:
        """Indices as an int64 array."""
        return np.asarray(indices, dtype=np.int64)

    def empty(self, shape: Any) -> np.ndarray:
        """Uninitialised score buffer in the eval dtype."""
        return np.empty(shape, dtype=self._dtype)

    def invalidate(self) -> None:
        """Drop cached parameter tables (call after parameters mutate)."""
        self._tables.clear()


class ScoreComputeMixin:
    """Eval dtype selection and the one-query view of a candidate scorer.

    A scorer implements the batched kernels ``score_tails_batch(heads,
    relations)`` and ``score_heads_batch(relations, tails)``, each returning
    a ``(B, E)`` score matrix; ``score_all_tails`` / ``score_all_heads`` are
    row 0 of a one-row batch, as float64.

    Class-attribute defaults mean existing instances and old pickles behave as
    the reference configuration without any ``__init__`` changes.
    """

    _score_dtype_name: str = "fp64"

    def score_all_tails(self, head: int, relation: int) -> np.ndarray:
        """Scores of ``(head, relation, t)`` for every entity ``t``."""
        row = self.score_tails_batch(
            np.array([head], dtype=np.int64), np.array([relation], dtype=np.int64)
        )
        return np.asarray(row, dtype=np.float64)[0]

    def score_all_heads(self, relation: int, tail: int) -> np.ndarray:
        """Scores of ``(h, relation, tail)`` for every entity ``h``."""
        row = self.score_heads_batch(
            np.array([relation], dtype=np.int64), np.array([tail], dtype=np.int64)
        )
        return np.asarray(row, dtype=np.float64)[0]

    def set_eval_dtype(self, eval_dtype: str = "fp64") -> None:
        """Select the dtype the batched score kernels compute in."""
        self._score_dtype_name = canonical_dtype(eval_dtype)
        self.__dict__["_score_compute"] = None

    @property
    def score_compute(self) -> EvalCompute:
        compute: Optional[EvalCompute] = self.__dict__.get("_score_compute")
        if compute is None:
            compute = EvalCompute(self._score_dtype_name)
            self.__dict__["_score_compute"] = compute
        return compute

    def invalidate_score_tables(self) -> None:
        """Drop any cast parameter tables (post-update hook)."""
        compute: Optional[EvalCompute] = self.__dict__.get("_score_compute")
        if compute is not None:
            compute.invalidate()
