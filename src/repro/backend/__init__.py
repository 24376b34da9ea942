"""Pluggable array backends for candidate scoring and ranking.

``get_backend("numpy" | "torch" | "auto")`` resolves a singleton
:class:`~repro.backend.base.ArrayBackend`; numpy is always available and is
the bit-identity reference, Torch is detected at runtime and raises
:class:`BackendUnavailableError` when its library is absent.  The autodiff
tape does not use a backend: it is numpy throughout.
"""

from __future__ import annotations

from typing import Any, Dict, List, Type

from .base import (
    DTYPE_SPECS,
    ArrayBackend,
    BackendError,
    BackendUnavailableError,
    UnknownBackendError,
    canonical_dtype,
    numpy_dtype,
)
from .compute import EvalCompute, ScoreComputeMixin
from .numpy_backend import NumpyBackend
from .torch_backend import TorchBackend

__all__ = [
    "ArrayBackend",
    "BackendError",
    "BackendUnavailableError",
    "UnknownBackendError",
    "DTYPE_SPECS",
    "EvalCompute",
    "ScoreComputeMixin",
    "NumpyBackend",
    "TorchBackend",
    "available_backends",
    "canonical_dtype",
    "numpy_dtype",
    "get_backend",
]

_REGISTRY: Dict[str, Type[ArrayBackend]] = {
    "numpy": NumpyBackend,
    "torch": TorchBackend,
}

#: Resolution order for ``get_backend("auto")``: prefer the accelerator,
#: fall back to the numpy reference.
_AUTO_ORDER = ("torch", "numpy")

_INSTANCES: Dict[str, ArrayBackend] = {}


def available_backends() -> List[str]:
    """Names of registered backends whose libraries import in this process."""
    return [name for name, cls in _REGISTRY.items() if cls.is_available()]


def get_backend(name: Any = "numpy") -> ArrayBackend:
    """Resolve a backend by name ("auto" picks the best available)."""
    if isinstance(name, ArrayBackend):
        return name
    key = str(name).lower()
    if key == "auto":
        for candidate in _AUTO_ORDER:
            if _REGISTRY[candidate].is_available():
                key = candidate
                break
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY) + ["auto"])
        raise UnknownBackendError(f"unknown backend {name!r}; expected one of: {known}")
    cls = _REGISTRY[key]
    if not cls.is_available():
        raise BackendUnavailableError(
            f"backend {key!r} is registered but its library is not importable here; "
            f"available: {', '.join(available_backends())}"
        )
    instance = _INSTANCES.get(key)
    if instance is None:
        instance = cls()
        _INSTANCES[key] = instance
    return instance

