"""Backend registry, numpy-backend op semantics and the tape's scatter.

The registry contract: names resolve to singletons, unavailable accelerators
fail loudly with a dedicated error, and ``auto`` always resolves to
*something* (numpy is unconditionally available).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff.tensor import scatter_add
from repro.backend import (
    ArrayBackend,
    BackendUnavailableError,
    DTYPE_SPECS,
    EvalCompute,
    NumpyBackend,
    TorchBackend,
    UnknownBackendError,
    available_backends,
    canonical_dtype,
    get_backend,
    numpy_dtype,
)


# ---------------------------------------------------------------------------- registry
def test_numpy_backend_always_available():
    assert "numpy" in available_backends()
    backend = get_backend("numpy")
    assert isinstance(backend, NumpyBackend)
    assert backend.name == "numpy"


def test_backends_are_singletons():
    assert get_backend("numpy") is get_backend("numpy")


def test_unknown_backend_raises():
    with pytest.raises(UnknownBackendError):
        get_backend("tensorflow")


def test_the_removed_cupy_backend_is_unknown():
    with pytest.raises(UnknownBackendError):
        get_backend("cupy")


def test_auto_resolves_to_an_available_backend():
    backend = get_backend("auto")
    assert isinstance(backend, ArrayBackend)
    assert backend.name in available_backends()


@pytest.mark.parametrize("name", ["torch"])
def test_unavailable_accelerators_fail_loudly(name):
    if name in available_backends():
        pytest.skip(f"{name} is importable here; unavailability path not reachable")
    with pytest.raises(BackendUnavailableError):
        get_backend(name)


def test_array_backend_contract_is_the_scoring_slice():
    """The contract names what candidate scoring and ranking call, and no more."""
    assert ArrayBackend.__abstractmethods__ == {
        "is_available", "xp", "dtype",
        "asarray", "from_numpy", "to_numpy",
        "zeros", "empty",
        "index_array", "take_rows", "compare_counts",
    }
    tape_only = (
        "asarray_float", "cast", "arange", "scatter_add", "matmul",
        "einsum", "as_strided", "ascontiguous", "rng", "supports_autodiff",
    )
    for backend_class in (ArrayBackend, NumpyBackend, TorchBackend):
        assert not [name for name in tape_only if hasattr(backend_class, name)], backend_class


# ---------------------------------------------------------------------------- dtypes
def test_dtype_specs_canonicalize():
    assert set(DTYPE_SPECS) == {"fp64", "fp32", "fp16"}
    assert canonical_dtype("fp32") == "fp32"
    assert numpy_dtype("fp64") == np.dtype(np.float64)
    assert numpy_dtype("fp16") == np.dtype(np.float16)
    with pytest.raises(ValueError):
        canonical_dtype("bf16")


# ---------------------------------------------------------------------------- numpy op semantics
def test_compare_counts_matches_reference_expressions():
    rng = np.random.default_rng(0)
    backend = get_backend("numpy")
    scores = rng.integers(0, 5, size=50).astype(np.float64)   # heavy ties
    thresholds = scores[[3, 10, 33]]
    greater, equal = backend.compare_counts(scores, thresholds)
    np.testing.assert_array_equal(
        greater, (scores[None, :] > thresholds[:, None]).sum(axis=1)
    )
    np.testing.assert_array_equal(
        equal, (scores[None, :] == thresholds[:, None]).sum(axis=1)
    )
    assert greater.dtype == np.int64 and equal.dtype == np.int64


def test_scatter_add_accumulates_duplicates():
    target = np.zeros((4, 2))
    scatter_add(
        target, np.array([1, 1, 3]), np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    )
    np.testing.assert_array_equal(target[1], [4.0, 6.0])
    np.testing.assert_array_equal(target[3], [5.0, 6.0])


def _scatter_cases():
    rng = np.random.default_rng(7)
    rows = rng.integers(-9, 9, size=40)                     # duplicates, negatives
    yield "1d", rng.normal(size=9), rows, rng.normal(size=40)
    yield "2d_zero", np.zeros((9, 5)), rows, rng.normal(size=(40, 5))
    yield "2d_nonzero", rng.normal(size=(9, 5)), rows, rng.normal(size=(40, 5))
    yield "3d", rng.normal(size=(9, 3, 4)), rows, rng.normal(size=(40, 3, 4))
    yield "2d_index", rng.normal(size=(9, 5)), rows.reshape(8, 5), rng.normal(size=(8, 5, 5))
    yield "broadcast_row", rng.normal(size=(9, 5)), rows, rng.normal(size=5)
    yield "int32_index", rng.normal(size=(9, 5)), rows.astype(np.int32), rng.normal(size=(40, 5))
    yield "non_contiguous", rng.normal(size=(5, 9)).T, rows, rng.normal(size=(40, 5))
    yield "per_axis_tuple", rng.normal(size=(9, 5)), (rows, rows % 5), rng.normal(size=40)
    yield "empty", rng.normal(size=(9, 5)), rows[:0], np.empty((0, 5))


@pytest.mark.parametrize("case", list(_scatter_cases()), ids=lambda case: case[0])
def test_scatter_add_is_bitwise_the_add_at_reference(case):
    _, target, indices, updates = case
    expected = target.copy()
    np.add.at(expected, indices, updates)
    result = target.copy(order="K")
    assert result.flags.c_contiguous == target.flags.c_contiguous
    scatter_add(result, indices, updates)
    assert result.shape == expected.shape
    assert result.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [9, -10])
def test_scatter_add_out_of_range_index_raises(bad):
    target = np.zeros((9, 5))
    with pytest.raises(IndexError):
        scatter_add(target, np.array([0, bad, 1]), np.ones((3, 5)))


# ---------------------------------------------------------------------------- EvalCompute
def test_reference_compute_is_pure_passthrough():
    from repro.autodiff import Parameter

    compute = EvalCompute("numpy", "fp64")
    assert compute.is_reference
    parameter = Parameter(np.arange(6, dtype=np.float64).reshape(3, 2))
    assert compute.table(parameter) is parameter.data
    scores = np.ones((2, 3))
    assert compute.export(scores) is scores
    assert compute.as_numpy(scores) is scores


def test_non_reference_compute_casts_and_caches():
    from repro.autodiff import Parameter

    compute = EvalCompute("numpy", "fp32")
    assert not compute.is_reference
    parameter = Parameter(np.arange(6, dtype=np.float64).reshape(3, 2))
    table = compute.table(parameter)
    assert table.dtype == np.float32
    assert compute.table(parameter) is table          # cached
    compute.invalidate()
    assert compute.table(parameter) is not table      # cache dropped


def test_compute_pickles_by_name():
    import pickle

    compute = EvalCompute("numpy", "fp32")
    clone = pickle.loads(pickle.dumps(compute))
    assert clone.backend_name == "numpy"
    assert clone.dtype_name == "fp32"
    assert clone.backend is get_backend("numpy")
