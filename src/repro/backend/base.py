"""Array-backend interface: the operations candidate scoring and ranking use.

The model score kernels and the evaluator's rank kernel only ever touch a
small slice of the numpy API: allocation, host transfer, row gathers,
elementwise math, reductions and comparison counts.  :class:`ArrayBackend`
names exactly that slice so an alternative carrier (Torch) can be swapped in
behind a registry while numpy remains the bit-identity reference.

Design note: elementwise math and reductions are exposed through the
backend's ``xp`` namespace (the array module itself for numpy, a thin
translation shim for torch) rather than one method per ufunc — kernels call
``xp.sqrt(...)``/``xp.sum(..., axis=-1)`` and stay readable.  Operations with
semantics that differ across libraries (comparison counting, index arrays,
host transfer) get explicit methods.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Tuple

import numpy as np

#: Canonical evaluation dtype names accepted everywhere a dtype knob appears.
DTYPE_SPECS = ("fp64", "fp32", "fp16")

_NUMPY_DTYPES = {
    "fp64": np.float64,
    "fp32": np.float32,
    "fp16": np.float16,
}


class BackendError(RuntimeError):
    """Base class for backend resolution failures."""


class UnknownBackendError(BackendError):
    """Raised when a backend name is not in the registry."""


class BackendUnavailableError(BackendError):
    """Raised when a registered backend's library is not importable."""


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


class ArrayBackend(ABC):
    """Abstract carrier for the array operations the reproduction uses."""

    #: Registry name; also what ``get_backend`` resolves.
    name: str = "abstract"

    # -- availability ------------------------------------------------------
    @classmethod
    @abstractmethod
    def is_available(cls) -> bool:
        """True when the backing library imports in this interpreter."""

    # -- namespaces and dtypes --------------------------------------------
    @property
    @abstractmethod
    def xp(self) -> Any:
        """Module-like namespace for elementwise math and reductions."""

    @abstractmethod
    def dtype(self, spec: str) -> Any:
        """Backend-native dtype object for a canonical name ('fp64'...)."""

    # -- construction and host transfer -----------------------------------
    @abstractmethod
    def asarray(self, data: Any, spec: Optional[str] = None) -> Any:
        """Coerce ``data`` to a backend array (optionally in dtype ``spec``)."""

    @abstractmethod
    def from_numpy(self, array: np.ndarray, spec: Optional[str] = None) -> Any:
        """Transfer a host numpy array onto the backend."""

    @abstractmethod
    def to_numpy(self, array: Any) -> np.ndarray:
        """Transfer a backend array back to host numpy."""

    @abstractmethod
    def zeros(self, shape: Any, spec: str = "fp64") -> Any:
        """Allocate a zero-filled backend array."""

    @abstractmethod
    def empty(self, shape: Any, spec: str = "fp64") -> Any:
        """Allocate an uninitialised backend array."""

    @abstractmethod
    def index_array(self, indices: Any) -> Any:
        """Coerce ``indices`` to the backend's 64-bit integer index type."""

    # -- gather ------------------------------------------------------------
    @abstractmethod
    def take_rows(self, table: Any, indices: Any) -> Any:
        """Row gather ``table[indices]`` (advanced indexing on axis 0)."""

    # -- fused comparison counting ----------------------------------------
    @abstractmethod
    def compare_counts(
        self, scores: Any, thresholds: Any
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-threshold counts of ``scores`` strictly greater / exactly equal.

        ``scores`` is one ``(E,)`` row compared against every threshold, or a
        ``(M, E)`` block whose row ``i`` is compared against threshold ``i``.
        Returns two host int64 arrays of shape ``thresholds.shape``.  This is
        the fused ``count_higher`` kernel the rank path is built on: the
        (|thresholds|, E) comparison happens on-device and only the counts
        cross back to the host.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r}>"
