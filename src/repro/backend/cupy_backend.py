"""Optional CuPy backend: GPU-resident arrays behind the numpy-mirroring API.

CuPy intentionally mirrors the numpy namespace, so ``xp`` is the ``cupy``
module itself and most operations are one-liners.  The two real divergences
are scatter-add (``cupyx.scatter_add`` instead of ``np.add.at``) and host
transfer (``cupy.asnumpy``).  The import is guarded: the backend registers
itself but reports unavailable when the library (or a usable GPU) is absent.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from .base import ArrayBackend, numpy_dtype

try:  # pragma: no cover - exercised only on machines with a CUDA stack
    import cupy  # type: ignore
    import cupyx  # type: ignore

    _CUPY_OK = True
    try:
        cupy.zeros(1)  # fail fast when no device is usable
    except Exception:  # pragma: no cover
        _CUPY_OK = False
except ImportError:  # pragma: no cover - the common case in CPU containers
    cupy = None  # type: ignore
    cupyx = None  # type: ignore
    _CUPY_OK = False


class CupyBackend(ArrayBackend):
    """CUDA arrays via CuPy; numpy-compatible enough to run the autodiff tape."""

    name = "cupy"
    supports_autodiff = True

    @classmethod
    def is_available(cls) -> bool:
        return _CUPY_OK

    @property
    def xp(self) -> Any:
        return cupy

    def dtype(self, spec: str) -> Any:
        return numpy_dtype(spec)

    def asarray(self, data: Any, spec: Optional[str] = None) -> Any:
        if spec is None:
            return cupy.asarray(data)
        return cupy.asarray(data, dtype=numpy_dtype(spec))

    def asarray_float(self, data: Any) -> Any:
        return cupy.asarray(data, dtype=cupy.float64)

    def from_numpy(self, array: np.ndarray, spec: Optional[str] = None) -> Any:
        return self.asarray(array, spec)

    def to_numpy(self, array: Any) -> np.ndarray:
        return cupy.asnumpy(array)

    def cast(self, array: Any, spec: str) -> Any:
        return cupy.asarray(array, dtype=numpy_dtype(spec))

    def zeros(self, shape: Any, spec: str = "fp64") -> Any:
        return cupy.zeros(shape, dtype=numpy_dtype(spec))

    def empty(self, shape: Any, spec: str = "fp64") -> Any:
        return cupy.empty(shape, dtype=numpy_dtype(spec))

    def arange(self, n: int) -> Any:
        return cupy.arange(n, dtype=cupy.int64)

    def index_array(self, indices: Any) -> Any:
        return cupy.asarray(indices, dtype=cupy.int64)

    def take_rows(self, table: Any, indices: Any) -> Any:
        return table[indices]

    def scatter_add(self, target: Any, indices: Any, updates: Any) -> None:
        cupyx.scatter_add(target, indices, updates)

    def matmul(self, a: Any, b: Any) -> Any:
        return a @ b

    def einsum(self, spec: str, *operands: Any) -> Any:
        return cupy.einsum(spec, *operands)

    def compare_counts(self, scores: Any, thresholds: Any) -> Tuple[np.ndarray, np.ndarray]:
        rows = scores if scores.ndim == 2 else scores[None, :]
        greater = (rows > thresholds[:, None]).sum(axis=1)
        equal = (rows == thresholds[:, None]).sum(axis=1)
        return cupy.asnumpy(greater), cupy.asnumpy(equal)

    def as_strided(self, array: Any, shape: Sequence[int], strides: Sequence[int]) -> Any:
        return cupy.lib.stride_tricks.as_strided(array, shape=shape, strides=strides)

    def ascontiguous(self, array: Any) -> Any:
        return cupy.ascontiguousarray(array)
