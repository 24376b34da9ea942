"""Tests for the sparse (row-indexed) gather gradients.

The contract under test: with ``Parameter.sparse_updates`` enabled, gather
backwards accumulate ``(indices, rows)`` segments into ``Parameter.sparse_grad``
whose coalesced / densified forms are **bit-identical** to what the dense
``np.add.at`` backward produces — including duplicate indices within a batch
and multiple gathers of the same parameter in one graph.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.training import coalesce_by_segment

from repro.autodiff import Parameter, SparseGrad, Tensor, numerical_gradient
from repro.autodiff.tensor import unique_rows

NUM_ROWS = 12
DIM = 5


def _dense_reference(data, gathers):
    """The dense-path gradient of the same sequence of gather backwards."""
    parameter = Parameter(data.copy())
    for indices, grad in gathers:
        parameter.gather(indices).backward(grad)
    return parameter.grad


def _sparse_parameter(data, gathers):
    parameter = Parameter(data.copy(), sparse_updates=True)
    for indices, grad in gathers:
        parameter.gather(indices).backward(grad)
    return parameter


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_segments=st.integers(1, 4),
    lengths=st.lists(st.integers(1, 20), min_size=4, max_size=4),
)
def test_sparse_gather_matches_dense_add_at_reference(seed, num_segments, lengths):
    """Property: sparse-accumulated grad == dense ``np.add.at`` reference, bitwise."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(NUM_ROWS, DIM))
    gathers = [
        (
            rng.integers(0, NUM_ROWS, size=lengths[i]),      # duplicates likely
            rng.normal(size=(lengths[i], DIM)),
        )
        for i in range(num_segments)
    ]
    dense = _dense_reference(data, gathers)
    parameter = _sparse_parameter(data, gathers)

    assert parameter.sparse_grad is not None
    assert parameter.sparse_grad.num_segments == num_segments
    indices, rows = parameter.sparse_grad.coalesce()
    # Coalesced rows are exactly the dense gradient's touched rows ...
    assert np.array_equal(rows, dense[indices])
    # ... untouched rows are exactly zero in the dense reference ...
    untouched = np.setdiff1d(np.arange(NUM_ROWS), indices)
    assert not np.any(dense[untouched])
    # ... and both materializations agree bit-for-bit.
    assert np.array_equal(parameter.sparse_grad.to_dense(), dense)
    assert np.array_equal(parameter.grad, dense)  # .grad folds on demand


def test_duplicate_indices_within_one_gather_coalesce():
    parameter = Parameter(np.zeros((4, 2)), sparse_updates=True)
    indices = np.array([1, 1, 3, 1])
    grad = np.array([[1.0, 2.0], [10.0, 20.0], [5.0, 5.0], [100.0, 200.0]])
    parameter.gather(indices).backward(grad)
    unique, rows = parameter.sparse_grad.coalesce()
    assert unique.tolist() == [1, 3]
    np.testing.assert_array_equal(rows, [[111.0, 222.0], [5.0, 5.0]])


def test_sparse_gather_on_1d_parameter():
    """Bias-style (rows are scalars) tables coalesce too."""
    parameter = Parameter(np.zeros(6), sparse_updates=True)
    parameter.gather(np.array([2, 2, 5])).backward(np.array([1.0, 2.0, 4.0]))
    unique, rows = parameter.sparse_grad.coalesce()
    assert unique.tolist() == [2, 5]
    np.testing.assert_array_equal(rows, [3.0, 4.0])
    np.testing.assert_array_equal(parameter.grad, [0.0, 0.0, 3.0, 0.0, 0.0, 4.0])


def test_mixed_sparse_and_dense_contributions_fold_once():
    """A parameter used via gather *and* dense ops must not double count."""
    data = np.arange(8.0).reshape(4, 2)
    parameter = Parameter(data.copy(), sparse_updates=True)
    loss = parameter.gather(np.array([0, 1])).sum() + (parameter * 2.0).sum()
    loss.backward()
    expected = np.full((4, 2), 2.0)
    expected[0] += 1.0
    expected[1] += 1.0
    first_read = parameter.grad
    np.testing.assert_array_equal(first_read, expected)
    # Folding is idempotent: a second read returns the same array.
    np.testing.assert_array_equal(parameter.grad, expected)
    assert parameter.sparse_grad is None


def test_gradcheck_still_works_with_sparse_updates():
    """The on-demand dense fold keeps finite-difference gradcheck usable."""
    rng = np.random.default_rng(5)
    data = rng.normal(size=(6, 3))
    indices = np.array([0, 2, 2, 5])
    parameter = Parameter(data.copy(), sparse_updates=True)
    (parameter.gather(indices) ** 2).sum().backward()

    def objective(values):
        return float((values[indices] ** 2).sum())

    numeric = numerical_gradient(objective, data.copy())
    np.testing.assert_allclose(parameter.grad, numeric, atol=1e-6)


def test_gather_on_intermediate_tensor_stays_dense():
    """Only leaf Parameters route sparse; plain tensors keep np.add.at."""
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    doubled = x * 2.0
    doubled.gather(np.array([0, 0, 2])).sum().backward()
    np.testing.assert_array_equal(x.grad, [4.0, 0.0, 2.0])


def test_zero_grad_clears_sparse_segments():
    parameter = Parameter(np.zeros((3, 2)), sparse_updates=True)
    parameter.gather(np.array([1])).backward(np.ones((1, 2)))
    assert not parameter.sparse_grad.is_empty()
    parameter.zero_grad()
    assert parameter.sparse_grad is None and parameter.dense_grad is None
    assert parameter.grad is None


def test_sparse_flag_defaults_off_and_survives_pickling():
    default = Parameter(np.zeros((2, 2)))
    assert default.sparse_updates is False
    default.gather(np.array([0])).backward(np.ones((1, 2)))
    assert default.sparse_grad is None          # dense route taken
    assert default.dense_grad is not None

    enabled = Parameter(np.arange(4.0).reshape(2, 2), sparse_updates=True)
    enabled.gather(np.array([1])).backward(np.ones((1, 2)))
    clone = pickle.loads(pickle.dumps(enabled))
    assert clone.sparse_updates is True
    assert clone.sparse_grad is None            # pending grads are not shipped
    assert clone.grad is None
    np.testing.assert_array_equal(clone.data, enabled.data)


def test_sparse_grad_empty_and_clear():
    sparse = SparseGrad((4, 2))
    assert sparse.is_empty() and sparse.entry_count() == 0
    assert sparse.touched_indices().size == 0
    indices, rows = sparse.coalesce()
    assert indices.size == 0 and rows.shape == (0, 2)
    np.testing.assert_array_equal(sparse.to_dense(), np.zeros((4, 2)))
    sparse.add([1, 2], np.ones((2, 2)))
    assert sparse.entry_count() == 2
    assert sparse.touched_indices().tolist() == [1, 2]
    sparse.clear()
    assert sparse.is_empty()
    with pytest.raises(ValueError):
        SparseGrad(())


@pytest.mark.parametrize("optimizer_name", ["sgd", "adagrad", "adam"])
def test_a_sparse_step_with_a_negative_gather_id_equals_the_dense_step(optimizer_name):
    """``-1`` and ``rows - 1`` name one row, which the step updates once with both terms."""
    from repro.models import make_optimizer

    data = np.random.default_rng(2).normal(size=(5, 3))
    indices = np.array([-1, 4, 1])
    grad = np.random.default_rng(3).normal(size=(3, 3))
    stepped = []
    for sparse in (False, True):
        parameter = Parameter(data.copy(), sparse_updates=sparse)
        parameter.gather(indices).backward(grad)
        if sparse:
            unique, rows = parameter.sparse_grad.coalesce()
            assert unique.tolist() == [1, 4]
            assert rows.tobytes() == _dense_reference(data, [(indices, grad)])[[1, 4]].tobytes()
        make_optimizer(optimizer_name, {"table": parameter}, 0.5).step()
        stepped.append(parameter.data)
    assert stepped[0].tobytes() == stepped[1].tobytes()


def test_an_id_below_minus_rows_raises():
    sparse = SparseGrad((4, 2))
    with pytest.raises(IndexError):
        sparse.add([0, -5], np.ones((2, 2)))


#: Gradient values, with zeros of both signs (a cell fed only ``-0.0`` sums to
#: ``+0.0`` from its zero start in both forms).
ROW_VALUES = st.sampled_from([-0.0, 0.0, 1.0, -1.5, 0.1, 1e-300, -3.25e5]) | st.floats(
    -10.0, 10.0, allow_nan=False
)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    num_rows=st.integers(1, 7),
    width=st.sampled_from([None, 1, 3]),
    num_segments=st.integers(1, 6),
)
def test_coalesce_equals_the_per_segment_replay(data, num_rows, width, num_segments):
    """One-pass coalesce == the ``np.unique`` + per-segment scatter replay, bytewise."""
    shape = (num_rows,) if width is None else (num_rows, width)
    cells = 1 if width is None else width
    sparse = SparseGrad(shape)
    for _ in range(num_segments):
        count = data.draw(st.integers(0, 8))
        ids = data.draw(st.lists(st.integers(-num_rows, num_rows - 1), min_size=count, max_size=count))
        values = data.draw(st.lists(ROW_VALUES, min_size=count * cells, max_size=count * cells))
        sparse.add(ids, np.asarray(values, dtype=np.float64).reshape(count, *shape[1:]))
    expected_ids, expected_rows = coalesce_by_segment(shape, sparse._segments)
    ids, rows = sparse.coalesce()
    assert ids.tobytes() == expected_ids.tobytes()
    assert rows.shape == expected_rows.shape
    assert rows.tobytes() == expected_rows.tobytes()
    assert sparse.touched_indices().tobytes() == ids.tobytes()
    assert sparse.to_dense()[ids].tobytes() == rows.tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), num_rows=st.integers(1, 20))
def test_unique_rows_equals_np_unique(data, num_rows):
    """The marking table reads off ``np.unique``'s sorted int64 rows."""
    ids = np.asarray(data.draw(st.lists(st.integers(0, num_rows - 1), max_size=40)), dtype=np.int64)
    every_row = np.asarray(data.draw(st.permutations(range(num_rows))), dtype=np.int64)
    for case in (ids, np.concatenate([ids, ids[::-1]]), np.empty(0, dtype=np.int64), every_row):
        rows = unique_rows(case, num_rows)
        assert rows.dtype == np.int64
        assert rows.tobytes() == np.unique(case).tobytes()
