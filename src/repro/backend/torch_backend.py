"""Optional Torch backend for the scoring/evaluation layer.

Torch's namespace is close to numpy but not identical (``dim`` vs ``axis``,
``keepdim`` vs ``keepdims``, ``clamp`` vs ``clip``), so ``xp`` here is a thin
translation shim exposing only the functions the score kernels use.  Torch is
scoped to candidate scoring and fused ranking, where it covers fp32/fp16 eval
and (when built with CUDA) GPU execution; training stays on the numpy tape.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from .base import ArrayBackend, canonical_dtype

try:  # pragma: no cover - torch is absent in the default container
    import torch  # type: ignore

    _TORCH_OK = True
except ImportError:
    torch = None  # type: ignore
    _TORCH_OK = False


class _TorchNamespace:
    """numpy-flavoured façade over the torch functions score kernels use."""

    @staticmethod
    def _reduce(fn, array, axis=None, keepdims=False):
        if axis is None:
            result = fn(array)
            return result.reshape((1,) * array.dim()) if keepdims else result
        return fn(array, dim=axis, keepdim=keepdims)

    def sum(self, array, axis=None, keepdims=False):
        return self._reduce(torch.sum, array, axis, keepdims)

    def mean(self, array, axis=None, keepdims=False):
        return self._reduce(torch.mean, array, axis, keepdims)

    def abs(self, array):
        return torch.abs(array)

    def sqrt(self, array):
        return torch.sqrt(array)

    def exp(self, array):
        return torch.exp(array)

    def log(self, array):
        return torch.log(array)

    def cos(self, array):
        return torch.cos(array)

    def sin(self, array):
        return torch.sin(array)

    def tanh(self, array):
        return torch.tanh(array)

    def sign(self, array):
        return torch.sign(array)

    def maximum(self, a, b):
        return torch.maximum(a, self._like(b, a))

    def minimum(self, a, b):
        return torch.minimum(a, self._like(b, a))

    def clip(self, array, low, high):
        return torch.clamp(array, min=low, max=high)

    def where(self, condition, a, b):
        return torch.where(condition, a, b)

    def stack(self, arrays, axis=0):
        return torch.stack(list(arrays), dim=axis)

    def zeros_like(self, array):
        return torch.zeros_like(array)

    def ones_like(self, array):
        return torch.ones_like(array)

    def einsum(self, spec, *operands):
        return torch.einsum(spec, *operands)

    @staticmethod
    def _like(value, reference):
        if torch.is_tensor(value):
            return value
        return torch.as_tensor(value, dtype=reference.dtype, device=reference.device)


class TorchBackend(ArrayBackend):
    """Torch tensors (CPU by default, CUDA when available) for scoring/eval."""

    name = "torch"

    def __init__(self) -> None:
        self._xp = _TorchNamespace() if _TORCH_OK else None
        self._device = None
        if _TORCH_OK:
            self._device = torch.device("cuda" if torch.cuda.is_available() else "cpu")

    @classmethod
    def is_available(cls) -> bool:
        return _TORCH_OK

    @property
    def xp(self) -> Any:
        return self._xp

    def dtype(self, spec: str) -> Any:
        name = canonical_dtype(spec)
        return {"fp64": torch.float64, "fp32": torch.float32, "fp16": torch.float16}[name]

    def asarray(self, data: Any, spec: Optional[str] = None) -> Any:
        dtype = None if spec is None else self.dtype(spec)
        if torch.is_tensor(data):
            return data.to(device=self._device, dtype=dtype or data.dtype)
        return torch.as_tensor(np.asarray(data), dtype=dtype, device=self._device)

    def from_numpy(self, array: np.ndarray, spec: Optional[str] = None) -> Any:
        return self.asarray(array, spec)

    def to_numpy(self, array: Any) -> np.ndarray:
        if torch.is_tensor(array):
            return array.detach().cpu().numpy()
        return np.asarray(array)

    def zeros(self, shape: Any, spec: str = "fp64") -> Any:
        return torch.zeros(tuple(np.atleast_1d(shape)), dtype=self.dtype(spec), device=self._device)

    def empty(self, shape: Any, spec: str = "fp64") -> Any:
        return torch.empty(tuple(np.atleast_1d(shape)), dtype=self.dtype(spec), device=self._device)

    def index_array(self, indices: Any) -> Any:
        if torch.is_tensor(indices):
            return indices.to(device=self._device, dtype=torch.int64)
        return torch.as_tensor(np.asarray(indices, dtype=np.int64), device=self._device)

    def take_rows(self, table: Any, indices: Any) -> Any:
        return table[indices]

    def compare_counts(self, scores: Any, thresholds: Any) -> Tuple[np.ndarray, np.ndarray]:
        rows = scores if scores.dim() == 2 else scores[None, :]
        greater = (rows > thresholds[:, None]).sum(dim=1)
        equal = (rows == thresholds[:, None]).sum(dim=1)
        return self.to_numpy(greater).astype(np.int64), self.to_numpy(equal).astype(np.int64)
