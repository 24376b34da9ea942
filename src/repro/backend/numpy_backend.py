"""Reference numpy backend: the bit-identity baseline for every other carrier."""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from .base import ArrayBackend, numpy_dtype


class NumpyBackend(ArrayBackend):
    """Host numpy arrays; every operation is bitwise equal to the seed implementation."""

    name = "numpy"

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

    def from_numpy(self, array: np.ndarray, spec: Optional[str] = None) -> np.ndarray:
        return self.asarray(array, spec)

    def to_numpy(self, array: Any) -> np.ndarray:
        return np.asarray(array)

    def zeros(self, shape: Any, spec: str = "fp64") -> np.ndarray:
        return np.zeros(shape, dtype=numpy_dtype(spec))

    def empty(self, shape: Any, spec: str = "fp64") -> np.ndarray:
        return np.empty(shape, dtype=numpy_dtype(spec))

    def index_array(self, indices: Any) -> np.ndarray:
        return np.asarray(indices, dtype=np.int64)

    def take_rows(self, table: np.ndarray, indices: Any) -> np.ndarray:
        return table[indices]

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
