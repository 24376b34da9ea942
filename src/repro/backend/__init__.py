"""Pluggable array backends for the reproduction's hot paths.

``get_backend("numpy" | "torch" | "auto")`` resolves a singleton
:class:`~repro.backend.base.ArrayBackend`; numpy is always available and is
the bit-identity reference, Torch is detected at runtime and raises
:class:`BackendUnavailableError` when its library is absent.

The autodiff engine additionally has a process-wide *active* backend
(:func:`active_backend` / :func:`set_active_backend` / :func:`use_backend`)
that primal and gradient arrays route through; only backends with
``supports_autodiff`` may be activated there, which is numpy alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Type

from .base import (
    DTYPE_SPECS,
    ArrayBackend,
    BackendCapabilityError,
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
    "BackendCapabilityError",
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
    "active_backend",
    "set_active_backend",
    "use_backend",
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


_ACTIVE: ArrayBackend | None = None


def active_backend() -> ArrayBackend:
    """The backend the autodiff engine currently routes arrays through."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = get_backend("numpy")
    return _ACTIVE


def set_active_backend(name: Any) -> ArrayBackend:
    """Switch the autodiff engine's array carrier (numpy only)."""
    global _ACTIVE
    backend = get_backend(name)
    if not backend.supports_autodiff:
        raise BackendCapabilityError(
            f"backend {backend.name!r} does not support the autodiff tape; "
            "it is scoped to candidate scoring and fused ranking "
            "(use set_score_backend on a model instead)"
        )
    _ACTIVE = backend
    return backend


@contextmanager
def use_backend(name: Any):
    """Context manager form of :func:`set_active_backend`."""
    global _ACTIVE
    previous = active_backend()
    set_active_backend(name)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
