"""Gradient checks for every autodiff operator against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import Parameter, Tensor, numerical_gradient

RNG = np.random.default_rng(0)


def check_gradient(build, shape, atol=1e-6):
    """Compare autodiff gradient of scalar ``build(tensor)`` with finite differences."""
    values = RNG.normal(size=shape)
    tensor = Parameter(values.copy())
    build(tensor).backward()

    def scalar(raw):
        return build(Tensor(raw, requires_grad=True)).item()

    numeric = numerical_gradient(scalar, values.copy())
    assert tensor.grad is not None
    np.testing.assert_allclose(tensor.grad, numeric, atol=atol, rtol=1e-4)


# ------------------------------------------------------------------ elementwise & arithmetic
@pytest.mark.parametrize(
    "name,build",
    [
        ("add", lambda x: (x + 2.0).sum()),
        ("radd", lambda x: (3.0 + x).sum()),
        ("sub", lambda x: (x - 1.5).sum()),
        ("rsub", lambda x: (1.5 - x).sum()),
        ("neg", lambda x: (-x).sum()),
        ("mul", lambda x: (x * 3.0).sum()),
        ("div", lambda x: (x / 2.0).sum()),
        ("rdiv", lambda x: (2.0 / (x * x + 1.0)).sum()),
        ("pow", lambda x: (x ** 3).sum()),
        ("exp", lambda x: x.exp().sum()),
        ("abs", lambda x: (x + 0.37).abs().sum()),
        ("sigmoid", lambda x: x.sigmoid().sum()),
        ("tanh", lambda x: x.tanh().sum()),
        ("relu", lambda x: (x + 0.21).relu().sum()),
        ("softplus", lambda x: x.softplus().sum()),
        ("sqrt", lambda x: (x * x + 1.0).sqrt().sum()),
        ("cos", lambda x: x.cos().sum()),
        ("sin", lambda x: x.sin().sum()),
        ("clamp_min", lambda x: (x + 0.13).clamp_min(0.0).sum()),
        ("mean", lambda x: (x * x).mean()),
        ("sum_axis", lambda x: (x.sum(axis=1) ** 2).sum()),
        ("max_axis", lambda x: x.max(axis=1).sum()),
        ("reshape", lambda x: (x.reshape(6, 2) ** 2).sum()),
        ("transpose", lambda x: (x.transpose() @ x).sum()),
        ("chain", lambda x: ((x * 2 + 1).sigmoid() * x.tanh()).sum()),
    ],
)
def test_unary_and_binary_op_gradients(name, build):
    check_gradient(build, (4, 3))


def test_mul_gradient_flows_to_both_operands():
    a = Parameter(RNG.normal(size=(3, 3)))
    b = Parameter(RNG.normal(size=(3, 3)))
    (a * b).sum().backward()
    np.testing.assert_allclose(a.grad, b.data)
    np.testing.assert_allclose(b.grad, a.data)


def test_matmul_gradients():
    a_values = RNG.normal(size=(4, 3))
    b_values = RNG.normal(size=(3, 2))
    a = Parameter(a_values.copy())
    b = Parameter(b_values.copy())
    ((a @ b) ** 2).sum().backward()
    numeric_a = numerical_gradient(
        lambda raw: ((Tensor(raw) @ Tensor(b_values)).data ** 2).sum(), a_values.copy()
    )
    numeric_b = numerical_gradient(
        lambda raw: ((Tensor(a_values) @ Tensor(raw)).data ** 2).sum(), b_values.copy()
    )
    np.testing.assert_allclose(a.grad, numeric_a, atol=1e-5)
    np.testing.assert_allclose(b.grad, numeric_b, atol=1e-5)


def test_batched_matmul_gradients():
    check_gradient(lambda x: ((x @ x.transpose(0, 2, 1)) ** 2).sum(), (2, 3, 4), atol=1e-5)


def test_broadcasting_gradient_shapes():
    a = Parameter(RNG.normal(size=(4, 1)))
    b = Parameter(RNG.normal(size=(1, 5)))
    (a * b + a).sum().backward()
    assert a.grad.shape == (4, 1)
    assert b.grad.shape == (1, 5)


def test_gather_accumulates_repeated_indices():
    table = Parameter(np.zeros((5, 2)))
    indices = np.array([1, 1, 3])
    (table.gather(indices) + 1.0).sum().backward()
    expected = np.zeros((5, 2))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_allclose(table.grad, expected)


def test_concat_gradient_splits_correctly():
    a = Parameter(RNG.normal(size=(2, 3)))
    b = Parameter(RNG.normal(size=(2, 2)))
    out = a.concat([b], axis=1)
    (out * np.arange(10).reshape(2, 5)).sum().backward()
    np.testing.assert_allclose(a.grad, np.arange(10).reshape(2, 5)[:, :3])
    np.testing.assert_allclose(b.grad, np.arange(10).reshape(2, 5)[:, 3:])


def test_dropout_identity_when_not_training():
    x = Parameter(RNG.normal(size=(4, 4)))
    rng = np.random.default_rng(0)
    assert x.dropout(0.5, rng, training=False) is x
    assert x.dropout(0.0, rng, training=True) is x


def test_dropout_scales_kept_units():
    x = Parameter(np.ones((1000,)))
    rng = np.random.default_rng(0)
    out = x.dropout(0.5, rng, training=True)
    kept = out.data[out.data > 0]
    np.testing.assert_allclose(kept, 2.0)
    out.sum().backward()
    assert x.grad is not None


def test_dropout_mask_is_drawn_from_the_given_generator():
    values = RNG.normal(size=(3, 5))
    x = Parameter(values.copy())
    out = x.dropout(0.25, np.random.default_rng(11), training=True)
    mask = (np.random.default_rng(11).random((3, 5)) < 0.75) / 0.75
    assert out.data.tobytes() == (values * mask).tobytes()
    out.sum().backward()
    assert x.grad.tobytes() == mask.tobytes()


# ------------------------------------------------------------------ carrier
def test_tensor_data_is_a_float64_numpy_array():
    sources = ([1, 2, 3], np.arange(3, dtype=np.int32), np.ones(3, dtype=np.float32))
    for source in sources:
        tensor = Tensor(source)
        assert type(tensor.data) is np.ndarray and tensor.data.dtype == np.float64
        assert Tensor(tensor).data is tensor.data
    table = Parameter(np.arange(8.0).reshape(4, 2))
    rows = table.gather([3, 0, 3])   # a plain list gathers like an int64 array
    assert rows.data.dtype == np.float64
    np.testing.assert_array_equal(rows.data, [[6.0, 7.0], [0.0, 1.0], [6.0, 7.0]])
    rows.sum().backward()
    np.testing.assert_array_equal(table.grad, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [2.0, 2.0]])


# ------------------------------------------------------------------ mechanics
def test_backward_requires_grad():
    with pytest.raises(RuntimeError):
        Tensor(np.ones(3)).backward()


def test_gradients_accumulate_across_backward_calls():
    x = Parameter(np.array([1.0, 2.0]))
    (x * 2).sum().backward()
    (x * 2).sum().backward()
    np.testing.assert_allclose(x.grad, [4.0, 4.0])
    x.zero_grad()
    assert x.grad is None


def test_detach_stops_gradient():
    x = Parameter(np.array([1.0, 2.0]))
    y = x.detach()
    assert y.requires_grad is False


def test_diamond_graph_gradient():
    """A value used twice must receive the sum of both path gradients."""
    x = Parameter(np.array([3.0]))
    y = x * 2
    z = y + y * y
    z.sum().backward()
    # d/dx (2x + 4x^2) = 2 + 8x = 26 at x=3
    np.testing.assert_allclose(x.grad, [26.0])


def test_pow_rejects_tensor_exponent():
    x = Parameter(np.ones(2))
    with pytest.raises(TypeError):
        x ** np.ones(2)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=2, max_size=8),
    st.lists(st.floats(-3, 3), min_size=2, max_size=8),
)
def test_property_sum_linearity(first, second):
    """backward of a linear combination equals the combination of coefficients."""
    n = min(len(first), len(second))
    a = Parameter(np.array(first[:n]))
    weights = np.array(second[:n])
    (a * weights).sum().backward()
    np.testing.assert_allclose(a.grad, weights, atol=1e-9)
