"""Functional helpers on :class:`~repro.autodiff.tensor.Tensor`.

These cover what the model zoo needs beyond the basic operators: stable
binary cross-entropy, the 2D convolution used by ConvE (implemented with
im2col so both the forward and the backward pass are plain matrix products),
and small composition helpers.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor


def stack_rows(tensors: list[Tensor]) -> Tensor:
    """Stack 1-D tensors of equal length into a 2-D tensor (rows)."""
    if not tensors:
        raise ValueError("cannot stack an empty list of tensors")
    expanded = [t.reshape(1, *t.shape) for t in tensors]
    return expanded[0].concat(expanded[1:], axis=0)


def logsigmoid(x: Tensor) -> Tensor:
    """log(sigmoid(x)) computed stably as -softplus(-x)."""
    return -((-x).softplus())


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean BCE between ``logits`` and 0/1 ``targets`` (stable form).

    Uses ``softplus(x) - x * y`` which is the numerically stable expansion of
    ``-[y log σ(x) + (1-y) log(1-σ(x))]``.
    """
    targets = np.asarray(targets, dtype=np.float64)
    per_example = logits.softplus() - logits * targets
    return per_example.mean()


def margin_ranking_loss(
    positive_scores: Tensor, negative_scores: Tensor, margin: float
) -> Tensor:
    """Mean hinge loss ``max(0, margin - s(pos) + s(neg))``.

    Scores follow the "higher is better" convention used throughout
    :mod:`repro.models`.
    """
    return (negative_scores - positive_scores + margin).relu().mean()


def _im2col(
    images: np.ndarray, kernel_height: int, kernel_width: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``(n, c, h, w)`` images into ``(n, out_h * out_w, c * kh * kw)`` patches."""
    n, channels, height, width = images.shape
    out_h = height - kernel_height + 1
    out_w = width - kernel_width + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("kernel larger than input in conv2d")
    strides = images.strides
    patch_view = np.lib.stride_tricks.as_strided(
        images,
        shape=(n, channels, out_h, out_w, kernel_height, kernel_width),
        strides=(strides[0], strides[1], strides[2], strides[3], strides[2], strides[3]),
    )
    columns = patch_view.transpose(0, 2, 3, 1, 4, 5).reshape(
        n, out_h * out_w, channels * kernel_height * kernel_width
    )
    return np.ascontiguousarray(columns), (out_h, out_w)


def conv2d(inputs: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Valid (no padding, stride 1) 2-D convolution.

    Parameters
    ----------
    inputs:
        ``(n, in_channels, h, w)`` tensor.
    weight:
        ``(out_channels, in_channels, kh, kw)`` tensor.
    bias:
        Optional ``(out_channels,)`` tensor.

    Returns
    -------
    ``(n, out_channels, out_h, out_w)`` tensor.
    """
    n, in_channels, height, width = inputs.shape
    out_channels, weight_in_channels, kernel_h, kernel_w = weight.shape
    if in_channels != weight_in_channels:
        raise ValueError("conv2d channel mismatch between inputs and weight")

    columns, (out_h, out_w) = _im2col(inputs.data, kernel_h, kernel_w)
    flat_weight = weight.data.reshape(out_channels, -1)
    output = columns @ flat_weight.T  # (n, out_h*out_w, out_channels)
    output = output.transpose(0, 2, 1).reshape(n, out_channels, out_h, out_w)
    if bias is not None:
        output = output + bias.data.reshape(1, out_channels, 1, 1)

    parents = (inputs, weight) if bias is None else (inputs, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(n, out_channels, out_h * out_w).transpose(0, 2, 1)
        if weight.requires_grad:
            grad_weight = np.einsum("npo,npk->ok", grad_flat, columns)
            weight._accumulate(grad_weight.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if inputs.requires_grad:
            grad_columns = grad_flat @ flat_weight  # (n, out_h*out_w, c*kh*kw)
            grad_inputs = np.zeros_like(inputs.data)
            patches = grad_columns.reshape(n, out_h, out_w, in_channels, kernel_h, kernel_w)
            for i in range(kernel_h):
                for j in range(kernel_w):
                    grad_inputs[:, :, i:i + out_h, j:j + out_w] += patches[
                        :, :, :, :, i, j
                    ].transpose(0, 3, 1, 2)
            inputs._accumulate(grad_inputs)

    return inputs._make(output, parents, backward)


def linear(inputs: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``inputs @ weight.T + bias``."""
    out = inputs @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def numerical_gradient(fn, value: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar ``fn`` at ``value``.

    Used by the autodiff test-suite to verify every operator's backward pass.
    """
    value = np.asarray(value, dtype=np.float64)
    grad = np.zeros_like(value)
    flat_value = value.reshape(-1)
    flat_grad = grad.reshape(-1)
    for index in range(flat_value.size):
        original = flat_value[index]
        flat_value[index] = original + epsilon
        upper = fn(value)
        flat_value[index] = original - epsilon
        lower = fn(value)
        flat_value[index] = original
        flat_grad[index] = (upper - lower) / (2.0 * epsilon)
    return grad
