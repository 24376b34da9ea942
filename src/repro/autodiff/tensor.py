"""A small reverse-mode automatic differentiation engine on numpy arrays.

The original experiments in the paper were run on the authors' GPU machine
using PyTorch/TensorFlow-based codebases (OpenKE, ConvE, RotatE, TuckER).
Neither framework is available in this offline environment, so this module
provides the minimal substrate those models actually need: a ``Tensor`` that
records the computation graph and can back-propagate gradients through the
element-wise, matmul, reduction, gather and reshape operations the scoring
functions use.

Design notes
------------
* Gradients are accumulated into ``Tensor.grad`` as plain numpy arrays.
* Broadcasting is supported; ``_unbroadcast`` sums gradients back to the
  original shape.
* ``Tensor.gather`` is the embedding lookup: its backward pass scatters
  with :func:`scatter_add` (``np.add.at`` semantics, run as a bitwise-equal
  flat 1-D scatter) so repeated indices accumulate correctly.  When the
  gathered tensor is a :class:`Parameter` with ``sparse_updates`` enabled,
  the backward pass skips the dense scatter entirely and appends the
  ``(indices, rows)`` pair to the parameter's :class:`SparseGrad` instead — a
  training batch then costs O(batch × dim) rather than O(num_rows × dim) per
  embedding table.
* ``Parameter.grad`` stays the compatibility surface: reading it folds any
  pending sparse segments into the dense gradient (reproducing the dense
  scatter bit-for-bit), so gradcheck and third-party consumers keep working.
  Sparse-aware optimizers read ``Parameter.sparse_grad`` directly and never
  pay the densification.
* The graph is built eagerly per batch and freed after ``backward``; there is
  no tape reuse, which keeps the implementation small and predictable.
  The training hot path (TransE/DistMult scores, margin/logistic losses)
  records one node per call (:mod:`repro.autodiff.fused`) instead of a chain
  of primitives, with bit-identical values and gradient deposits.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, "Tensor"]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so its shape matches ``shape`` (reverse of broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def scatter_add(target: np.ndarray, indices: ArrayLike, updates: ArrayLike) -> None:
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


def _row_ids(indices: ArrayLike, rows: int) -> np.ndarray:
    """``indices`` as flat int64 row ids in ``[0, rows)``.

    Negative ids wrap the way numpy indexing wraps them, so ``-1`` and
    ``rows - 1`` name one row; an id below ``-rows`` raises ``IndexError``
    like the gather it came from.
    """
    ids = np.asarray(indices, dtype=np.int64).reshape(-1)
    if ids.size and ids.min() < 0:
        ids = np.where(ids < 0, ids + rows, ids)
        if ids.min() < 0:
            raise IndexError(f"row index out of range for a table of {rows} rows")
    return ids


def unique_rows(ids: np.ndarray, rows: int) -> np.ndarray:
    """The sorted unique values of the row ids ``ids`` in ``[0, rows)``, as int64.

    They are read off a row-marking table, without the sort ``np.unique`` makes.
    """
    marks = np.zeros(rows, dtype=bool)
    marks[ids] = True
    return np.flatnonzero(marks)


class SparseGrad:
    """Row-indexed gradient of an axis-0 gather on a 2-D (or 1-D) table.

    Each gather backward (:meth:`Tensor._deposit_rows`) appends one
    *segment* — the raw ``(indices, rows)`` pair, duplicates and all, with
    negative ids wrapped into ``[0, rows)`` — in accumulation order.
    Duplicate indices are only summed when the gradient is consumed:

    * :meth:`coalesce` returns ``(unique_indices, summed_rows)`` restricted to
      the touched rows (what the lazy optimizers consume);
    * :meth:`to_dense` materializes the full dense gradient.

    Both reductions scatter each segment on its own into zeros with
    ``np.add.at`` (cells receive their contributions in index order) and
    then add the segments left to right, so the result is bit-identical to
    the dense backward path, which scatters each gather into a full zero
    table and sums the tables the same way.
    """

    __slots__ = ("shape", "_segments")

    def __init__(self, shape: Tuple[int, ...]) -> None:
        if not shape:
            raise ValueError("SparseGrad needs at least one (row) dimension")
        self.shape = tuple(shape)
        self._segments: List[Tuple[np.ndarray, np.ndarray]] = []

    def add(self, indices: ArrayLike, rows: ArrayLike) -> None:
        """Append one gather's ``(indices, rows)`` contribution."""
        ids = _row_ids(indices, self.shape[0])
        rows = np.asarray(rows, dtype=np.float64).reshape(ids.size, *self.shape[1:])
        self._segments.append((ids, rows))

    def is_empty(self) -> bool:
        return not self._segments

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def entry_count(self) -> int:
        """Total gathered rows across segments (before coalescing)."""
        return sum(len(indices) for indices, _ in self._segments)

    def _ids(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every segment's ids in order, and their sorted unique values."""
        ids = np.concatenate([indices for indices, _ in self._segments])
        return ids, unique_rows(ids, self.shape[0])

    def touched_indices(self) -> np.ndarray:
        """Sorted unique row indices with a pending contribution."""
        if not self._segments:
            return np.empty(0, dtype=np.int64)
        return self._ids()[1]

    def coalesce(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(unique_indices, rows)`` with duplicate contributions summed.

        One pass: the unique ids and each id's slot come from one marking
        table; each segment is scattered with one flat ``np.add.at`` into its
        own row of a zeroed ``(segments, unique × width)`` block; the block
        rows are then added left to right.  ``rows[i]`` therefore equals the
        dense gradient's row ``unique_indices[i]`` bit-for-bit.  The sum over
        segments is written out on purpose: numpy does not promise
        ``np.add.reduceat`` or an axis reduction this order, and ``reduceat``
        differs from it in the last bits.
        """
        if not self._segments:
            return np.empty(0, dtype=np.int64), np.empty((0, *self.shape[1:]))
        ids, unique = self._ids()
        slots = np.empty(self.shape[0], dtype=np.int64)
        slots[unique] = np.arange(len(unique))
        inverse = slots[ids]
        width = math.prod(self.shape[1:])
        cells = (inverse[:, None] * width + np.arange(width)).reshape(-1)
        block = np.zeros((len(self._segments), len(unique) * width))
        start = 0
        for segment, (_, rows) in zip(block, self._segments):
            stop = start + rows.size
            np.add.at(segment, cells[start:stop], rows.reshape(-1))
            start = stop
        total = block[0]
        for segment in block[1:]:
            total += segment
        return unique, total.reshape(len(unique), *self.shape[1:])

    def to_dense(self) -> np.ndarray:
        """The full dense gradient (bitwise equal to the dense backward path)."""
        total: Optional[np.ndarray] = None
        for indices, rows in self._segments:
            full = np.zeros(self.shape)
            scatter_add(full, indices, rows)
            total = full if total is None else total + full
        return total if total is not None else np.zeros(self.shape)

    def clear(self) -> None:
        self._segments = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SparseGrad(shape={self.shape}, segments={self.num_segments}, "
            f"entries={self.entry_count()})"
        )


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # -- construction helpers ------------------------------------------------
    @staticmethod
    def ensure(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{label})"

    # -- pickling -------------------------------------------------------------
    # The autodiff graph (`_backward` closures and parent links) is dropped on
    # pickling: it is per-batch state that cannot cross a process boundary,
    # and shipped tensors only need their values.  This is what makes trained
    # models spawn-safe payloads for the sharded evaluation workers.
    def __getstate__(self) -> Tuple[np.ndarray, Optional[np.ndarray], bool, Optional[str]]:
        return (self.data, self.grad, self.requires_grad, self.name)

    def __setstate__(
        self, state: Tuple[np.ndarray, Optional[np.ndarray], bool, Optional[str]]
    ) -> None:
        self.data, self.grad, self.requires_grad, self.name = state
        self._backward = None
        self._parents = ()

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph construction ----------------------------------------------------
    def _make(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data)
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor (default seed gradient: ones)."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        # Topological order via iterative DFS.
        order: List[Tensor] = []
        visited: set[int] = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Free the graph reference for non-leaf nodes.
                if node is not self:
                    node._backward = None
                    node._parents = ()

    # -- arithmetic ----------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-Tensor.ensure(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor.ensure(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        return self._make(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor.ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                grad_self = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(grad_self, self.shape))
            if other.requires_grad:
                grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(grad_other, other.shape))

        return self._make(data, (self, other), backward)

    # -- element-wise functions --------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return self._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return self._make(data, (self,), backward)

    def cos(self) -> "Tensor":
        data = np.cos(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad * np.sin(self.data))

        return self._make(data, (self,), backward)

    def sin(self) -> "Tensor":
        data = np.sin(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.cos(self.data))

        return self._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data ** 2))

        return self._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(data, (self,), backward)

    def softplus(self) -> "Tensor":
        """Numerically stable log(1 + exp(x))."""
        data = np.logaddexp(0.0, self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                sig = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
                self._accumulate(grad * sig)

        return self._make(data, (self,), backward)

    def clamp_min(self, minimum: float) -> "Tensor":
        mask = self.data > minimum
        data = np.maximum(self.data, minimum)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(data, (self,), backward)

    # -- reductions ------------------------------------------------------------------------
    def sum(self, axis: Optional[int | Tuple[int, ...]] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(expanded, self.shape).copy())

        return self._make(data, (self,), backward)

    def mean(self, axis: Optional[int | Tuple[int, ...]] = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = grad if keepdims else np.expand_dims(grad, axis=axis)
            maxima = self.data.max(axis=axis, keepdims=True)
            mask = self.data == maxima
            counts = mask.sum(axis=axis, keepdims=True)
            self._accumulate(np.broadcast_to(expanded, self.shape) * mask / counts)

        return self._make(data, (self,), backward)

    # -- shape manipulation -------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return self._make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.ndim)))
        data = self.data.transpose(axes_tuple)
        inverse = np.argsort(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return self._make(data, (self,), backward)

    def _sparse_sink(self) -> Optional[SparseGrad]:
        """Where gather should route a row-indexed gradient (None = dense)."""
        return None

    def _deposit_rows(self, indices: np.ndarray, rows: np.ndarray) -> None:
        """Accumulate the gradient ``rows`` of the gathered rows ``self[indices]``.

        The backward of :meth:`gather`, and of the fused nodes in
        :mod:`repro.autodiff.fused`, which gather inside one node.  A
        :class:`Parameter` with ``sparse_updates`` enabled receives a
        :class:`SparseGrad` segment; anything else a dense scatter
        (:func:`scatter_add`, ``np.add.at`` semantics, so repeated indices
        accumulate) into a zero table.
        """
        if not self.requires_grad:
            return
        sink = self._sparse_sink()
        if sink is not None:
            sink.add(indices, rows)
            return
        full = np.zeros_like(self.data)
        scatter_add(full, indices, rows)
        self._accumulate(full)

    def gather(self, indices: np.ndarray) -> "Tensor":
        """Row lookup (embedding gather) along axis 0.

        The backward pass goes through :meth:`_deposit_rows`: a dense scatter,
        or, for a :class:`Parameter` with ``sparse_updates`` enabled, the raw
        ``(indices, rows)`` pair appended to the parameter's
        :class:`SparseGrad`, keeping the step cost proportional to the batch.
        """
        indices = np.asarray(indices, dtype=np.int64)
        data = self.data[indices]

        def backward(grad: np.ndarray) -> None:
            self._deposit_rows(indices, grad)

        return self._make(data, (self,), backward)

    def concat(self, others: Iterable["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [self, *[Tensor.ensure(o) for o in others]]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0, *sizes])

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate(grad[tuple(slicer)])

        return self._make(data, tensors, backward)

    def dropout(self, rate: float, rng: np.random.Generator, training: bool = True) -> "Tensor":
        """Inverted dropout; identity when not training or rate == 0."""
        if not training or rate <= 0.0:
            return self
        keep = 1.0 - rate
        mask = (rng.random(self.shape) < keep) / keep

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(self.data * mask, (self,), backward)


class Parameter(Tensor):
    """A trainable tensor (always requires grad).

    With ``sparse_updates`` enabled (off by default), :meth:`Tensor.gather`
    backward passes accumulate into :attr:`sparse_grad` as row-indexed
    ``(indices, rows)`` segments instead of dense scatters.  Reading
    :attr:`grad` folds any pending sparse segments into the dense gradient on
    demand — bit-identical to what the dense backward would have produced —
    so gradient checks and any code written against the dense contract keep
    working unmodified.  Sparse-aware optimizers consume :attr:`sparse_grad`
    directly and never trigger the fold.
    """

    __slots__ = ("sparse_grad", "sparse_updates")

    #: The inherited slot descriptor for the dense gradient storage; the
    #: ``grad`` property below shadows the slot name on this subclass.
    _dense_grad_slot = Tensor.grad

    def __init__(
        self, data: ArrayLike, name: Optional[str] = None, sparse_updates: bool = False
    ) -> None:
        super().__init__(data, requires_grad=True, name=name)
        self.sparse_grad: Optional[SparseGrad] = None
        self.sparse_updates = bool(sparse_updates)

    # -- gradient surfaces ----------------------------------------------------
    @property
    def dense_grad(self) -> Optional[np.ndarray]:
        """The dense gradient storage only (no sparse folding)."""
        return Parameter._dense_grad_slot.__get__(self)

    @dense_grad.setter
    def dense_grad(self, value: Optional[np.ndarray]) -> None:
        Parameter._dense_grad_slot.__set__(self, value)

    @property
    def grad(self) -> Optional[np.ndarray]:
        """Dense gradient, folding pending sparse segments in on first read."""
        dense = self.dense_grad
        if self.sparse_grad is not None and not self.sparse_grad.is_empty():
            fold = self.sparse_grad.to_dense()
            dense = fold if dense is None else dense + fold
            self.dense_grad = dense
            self.sparse_grad = None
        return dense

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self.dense_grad = value

    def _sparse_sink(self) -> Optional[SparseGrad]:
        if not self.sparse_updates:
            return None
        if self.sparse_grad is None:
            self.sparse_grad = SparseGrad(self.data.shape)
        return self.sparse_grad

    def zero_grad(self) -> None:
        self.dense_grad = None
        self.sparse_grad = None

    # -- pickling -------------------------------------------------------------
    # Pending gradients (dense and sparse) are per-batch state; like the
    # autodiff graph they are dropped so shipped parameters stay lean.
    def __getstate__(self):
        return (self.data, None, self.requires_grad, self.name, self.sparse_updates)

    def __setstate__(self, state) -> None:
        *base, sparse_updates = state
        self.sparse_grad = None
        self.sparse_updates = bool(sparse_updates)
        super().__setstate__(tuple(base))
