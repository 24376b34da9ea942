"""Eval dtypes, the rank kernel's comparison counts and the tape's scatter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff.tensor import scatter_add
from repro.backend import DTYPE_SPECS, EvalCompute, canonical_dtype, numpy_dtype
from repro.eval.sharding import compare_counts


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
    scores = rng.integers(0, 5, size=50).astype(np.float64)   # heavy ties
    thresholds = scores[[3, 10, 33]]
    greater, equal = compare_counts(scores, thresholds)
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

    compute = EvalCompute("fp64")
    assert compute.is_reference
    parameter = Parameter(np.arange(6, dtype=np.float64).reshape(3, 2))
    assert compute.table(parameter) is parameter.data
    scores = np.ones((2, 3))
    assert compute.export(scores) is scores


def test_non_reference_compute_casts_and_caches():
    from repro.autodiff import Parameter

    compute = EvalCompute("fp32")
    assert not compute.is_reference
    parameter = Parameter(np.arange(6, dtype=np.float64).reshape(3, 2))
    table = compute.table(parameter)
    assert table.dtype == np.float32
    assert compute.table(parameter) is table          # cached
    compute.invalidate()
    assert compute.table(parameter) is not table      # cache dropped


def test_compute_pickles_by_name():
    import pickle

    compute = EvalCompute("fp32")
    clone = pickle.loads(pickle.dumps(compute))
    assert clone.dtype_name == "fp32"
