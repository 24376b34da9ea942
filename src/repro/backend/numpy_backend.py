"""Reference numpy backend: the bit-identity baseline for every other carrier."""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from .base import ArrayBackend, numpy_dtype


class NumpyBackend(ArrayBackend):
    """Host numpy arrays; every operation is bitwise equal to the seed implementation."""

    name = "numpy"
    supports_autodiff = True

    @classmethod
    def is_available(cls) -> bool:
        return True

    @property
    def xp(self) -> Any:
        return np

    def dtype(self, spec: str) -> np.dtype:
        return numpy_dtype(spec)

    def asarray(self, data: Any, spec: Optional[str] = None) -> np.ndarray:
        if spec is None:
            return np.asarray(data)
        return np.asarray(data, dtype=numpy_dtype(spec))

    def asarray_float(self, data: Any) -> np.ndarray:
        return np.asarray(data, dtype=np.float64)

    def from_numpy(self, array: np.ndarray, spec: Optional[str] = None) -> np.ndarray:
        return self.asarray(array, spec)

    def to_numpy(self, array: Any) -> np.ndarray:
        return np.asarray(array)

    def cast(self, array: Any, spec: str) -> np.ndarray:
        return np.asarray(array, dtype=numpy_dtype(spec))

    def zeros(self, shape: Any, spec: str = "fp64") -> np.ndarray:
        return np.zeros(shape, dtype=numpy_dtype(spec))

    def empty(self, shape: Any, spec: str = "fp64") -> np.ndarray:
        return np.empty(shape, dtype=numpy_dtype(spec))

    def arange(self, n: int) -> np.ndarray:
        return np.arange(n, dtype=np.int64)

    def index_array(self, indices: Any) -> np.ndarray:
        return np.asarray(indices, dtype=np.int64)

    def take_rows(self, table: np.ndarray, indices: Any) -> np.ndarray:
        return table[indices]

    def scatter_add(self, target: np.ndarray, indices: Any, updates: Any) -> None:
        """``np.add.at(target, indices, updates)``, via a 1-D scatter where possible.

        For a C-contiguous target with two or more dims and in-range signed
        integer row indices, the rows are scattered as flat offsets ``index *
        width + column`` into ``target.reshape(-1)`` (a view).  Each cell
        receives its contributions in the same order as the 2-D
        ``np.add.at``, so the sums are bitwise equal, negative indices
        included.  The 1-D ``np.add.at`` is several times faster than the
        2-D one.  Anything else (a tuple of per-axis indices, or an
        out-of-range index, which raises ``IndexError``) takes ``np.add.at``
        on the target itself.
        """
        index = np.asarray(indices)
        if (
            isinstance(indices, tuple)
            or target.ndim < 2
            or not target.flags.c_contiguous
            or index.dtype.kind != "i"
            or (index.size and not -len(target) <= index.min() <= index.max() < len(target))
        ):
            np.add.at(target, indices, updates)
            return
        width = math.prod(target.shape[1:])
        rows = index.astype(np.int64, copy=False).reshape(-1, 1)
        offsets = (rows * width + np.arange(width)).reshape(-1)
        values = np.broadcast_to(updates, index.shape + target.shape[1:]).reshape(-1)
        np.add.at(target.reshape(-1), offsets, values)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def einsum(self, spec: str, *operands: np.ndarray) -> np.ndarray:
        return np.einsum(spec, *operands)

    def compare_counts(
        self, scores: np.ndarray, thresholds: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        rows = scores if scores.ndim == 2 else scores[None, :]
        column = thresholds[:, None]
        # A row holds fewer than 2**31 candidates; the int32 reduction of the
        # boolean mask is about twice as fast as the default int64 one.
        greater = np.add.reduce(rows > column, axis=1, dtype=np.int32)
        equal = np.add.reduce(rows == column, axis=1, dtype=np.int32)
        return greater.astype(np.int64), equal.astype(np.int64)

    def as_strided(
        self, array: np.ndarray, shape: Sequence[int], strides: Sequence[int]
    ) -> np.ndarray:
        return np.lib.stride_tricks.as_strided(array, shape=shape, strides=strides)

    def ascontiguous(self, array: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(array)
