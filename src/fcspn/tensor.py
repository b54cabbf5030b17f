"""Dense n-d arrays with a reverse-mode gradient tape.

Every differentiable operation in this package funnels through
:func:`record`: it computes its result eagerly with numpy, then (when grad
mode is on and an input requires grad) appends a tape node holding a closure
that maps the output gradient to input gradients.  The tape is a flat list in
creation order, which is already a topological order, so :func:`backward`
walks it once in reverse.  The walk consumes the tape: it pops each node,
hands the pullback its output's gradient and then drops both, so a closure's
saved activations and an op output's gradient are freed as soon as that
pullback returns.  Only leaf tensors (parameters, inputs) keep ``grad``.

Numeric conventions:

* the dtype follows the arrays: :class:`Tensor` and :func:`record` keep
  a float32 or float64 array's dtype and turn anything else into
  float64, every op allocates in the dtype of its inputs, and a gradient
  is stored in its tensor's dtype.  Built models are float64, and every
  stated tolerance assumes it unless a test states a float32 one; models
  loaded from a checkpoint are float32, the precision the file holds;
* reductions delegate to numpy's pairwise summation, so results are
  bit-deterministic for a given build mode;
* every public operation checks its output for NaN/Inf and raises
  :class:`NumericError` instead of propagating silently.

The tape is process-global and confined to one logical training thread.
Tensors themselves are safe to share for concurrent reads.  The worker
thread inside :func:`fcspn.ops.conv3d` runs the odd half of a call's slabs:
it only reads arrays and writes its own disjoint slabs of an output or a
fresh sum of products; it never records or walks the tape.  A training
step splits its crops into two halves, each with a tape of its own: on two
or more CPUs the second half runs in a forked worker process that has its
own copy of this module, each process pinned to one CPU; on one CPU
(``taskset -c 0``, say) the caller runs both halves, one tape after the
other, with the same bits (:mod:`fcspn.train`).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class NumericError(ArithmeticError):
    """Raised when an operation produces or receives NaN/Inf values."""


class FormatError(ValueError):
    """Raised on malformed binary container data (bad magic, truncation)."""


def _as_float(data) -> np.ndarray:
    """``data`` as a C-contiguous float32 or float64 array: either keeps
    its dtype, any other becomes float64."""
    arr = np.asarray(data)
    dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float64
    # asarray with order="C", not ascontiguousarray: the latter turns
    # rank-0 arrays into shape (1,)
    return np.asarray(arr, dtype=dtype, order="C")


def _check_finite(arr: np.ndarray, op: str) -> None:
    # min and max reach every NaN and infinity without a bool temporary
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise NumericError(f"{op} produced non-finite values")


# ---------------------------------------------------------------------------
# tensor and tape
# ---------------------------------------------------------------------------

class Tensor:
    """A dense array plus an optional gradient slot.

    ``data`` is always a C-contiguous float32 or float64 numpy array.
    ``grad``, once populated by :func:`backward`, has the same shape and
    dtype.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = _as_float(data)
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class TapeNode:
    """One recorded operation: its output and a pullback closure.

    The closure receives dLoss/dOutput and accumulates dLoss/dInput into each
    input tensor's ``grad`` slot.  Inputs and saved activations live in the
    closure, and die with the node when :func:`backward` pops it and the
    pullback returns.
    """

    __slots__ = ("out", "fn")

    def __init__(self, out: Tensor, fn: Callable[[np.ndarray], None]):
        self.out = out
        self.fn = fn


_TAPE: list[TapeNode] = []
_GRAD_ENABLED = True


class no_grad:
    """Context manager that suspends tape recording (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def tape_size() -> int:
    return len(_TAPE)


def clear_tape() -> None:
    _TAPE.clear()


def will_record(inputs: Sequence[Tensor]) -> bool:
    """Whether :func:`record` keeps a node for an op on ``inputs``."""
    return _GRAD_ENABLED and any(t.requires_grad for t in inputs)


def record(op: str, inputs: Sequence[Tensor], out_data: np.ndarray,
           fn: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap ``out_data`` in a Tensor, recording a tape node if grads are live.

    ``fn`` is only retained (and the output only marked ``requires_grad``)
    when grad mode is enabled and at least one input requires grad.
    """
    needs = will_record(inputs)
    out = Tensor.__new__(Tensor)
    out.data = _as_float(out_data)
    _check_finite(out.data, op)
    out.requires_grad = needs
    out.grad = None
    if needs:
        _TAPE.append(TapeNode(out, fn))
    return out


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``, in ``t``'s dtype: the first gradient is
    stored as given, later ones are summed into a new array.  No code
    writes into a gradient in place, so a stored gradient may share memory
    with the output gradient it came from.  An op output's ``grad`` lives
    only until :func:`backward` takes it for that op's pullback; a leaf
    tensor's stays until ``zero_grad``."""
    if t.grad is None:
        t.grad = np.asarray(g, dtype=t.data.dtype)
    else:
        t.grad = np.add(t.grad, g, dtype=t.data.dtype)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf tensor the scalar ``loss`` depends on.

    Walks the tape in reverse creation order (a valid reverse-topological
    order by construction) and consumes it as it goes: each node is popped
    and its output's ``grad`` taken (and reset to None) for the pullback,
    and the node, its closure and that gradient are released before the
    next node is popped.  So memory held falls as the walk proceeds, every
    op output (``loss`` included) ends with ``grad`` None, and a second
    backward without a new forward raises.  Leaf gradients accumulate
    across calls until ``zero_grad``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not _TAPE:
        raise RuntimeError("backward called with an empty tape "
                           "(no recorded forward, or tape already consumed)")
    if not any(node.out is loss for node in _TAPE):
        raise RuntimeError("backward called on a loss the tape did not record")
    try:
        accumulate(loss, np.ones_like(loss.data))
        # pop in place, never rebind: observers may hold the list itself
        while _TAPE:
            node = _TAPE.pop()
            g, node.out.grad = node.out.grad, None
            if g is not None:  # None: a branch not upstream of the loss
                node.fn(g)
    finally:
        _TAPE.clear()


# ---------------------------------------------------------------------------
# creation
# ---------------------------------------------------------------------------

def _validate_shape(shape) -> tuple:
    shape = tuple(int(s) for s in shape)
    for s in shape:
        if s < 1:
            raise ShapeError(f"extents must be >= 1, got shape {shape}")
    return shape


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(_validate_shape(shape), dtype=np.float64), requires_grad)


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(_validate_shape(shape), value, dtype=np.float64), requires_grad)


def kaiming_normal(shape, rng: np.random.Generator,
                   requires_grad: bool = False) -> Tensor:
    """Scaled normal fill, std = sqrt(2 / fan_in), where fan_in is the
    product of every extent after the first (a conv weight's cin x kernel)."""
    shape = _validate_shape(shape)
    std = np.sqrt(2.0 / math.prod(shape[1:]))
    return Tensor(rng.normal(0.0, std, shape), requires_grad)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down the axes numpy broadcast up from ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")

    def fn(g):
        if a.requires_grad:
            accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            accumulate(b, _unbroadcast(g, b.shape))

    return record("add", (a, b), a.data + b.data, fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")
    ad, bd = a.data, b.data

    def fn(g):
        if a.requires_grad:
            accumulate(a, _unbroadcast(g * bd, a.shape))
        if b.requires_grad:
            accumulate(b, _unbroadcast(g * ad, b.shape))

    return record("mul", (a, b), ad * bd, fn)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # split by sign so exp never overflows
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def fn(g):
        if a.requires_grad:
            accumulate(a, g * out * (1.0 - out))

    return record("sigmoid", (a,), out, fn)


# ---------------------------------------------------------------------------
# reductions and shape plumbing
# ---------------------------------------------------------------------------

def _normalize_axes(a: Tensor, axes, op: str):
    if axes is None:
        return tuple(range(a.data.ndim))
    axes = tuple(int(ax) for ax in axes)
    if len(set(axes)) != len(axes):
        raise ShapeError(f"{op}: duplicate axes {axes}")
    for ax in axes:
        if not 0 <= ax < a.data.ndim:
            raise ShapeError(f"{op}: axis {ax} out of range for shape {a.shape}")
    return axes


def reduce_sum(a: Tensor, axes=None) -> Tensor:
    axes = _normalize_axes(a, axes, "sum")
    shape = a.shape

    def fn(g):
        if a.requires_grad:
            accumulate(a, np.broadcast_to(np.expand_dims(g, axes), shape))

    return record("sum", (a,), a.data.sum(axis=axes), fn)


def reduce_mean(a: Tensor, axes=None) -> Tensor:
    axes = _normalize_axes(a, axes, "mean")
    shape = a.shape
    n = 1
    for ax in axes:
        n *= shape[ax]

    def fn(g):
        if a.requires_grad:
            accumulate(a, np.broadcast_to(np.expand_dims(g, axes), shape) / n)

    return record("mean", (a,), a.data.mean(axis=axes), fn)


def astype(a: Tensor, dtype) -> Tensor:
    """``a`` in ``dtype``, float32 or float64; ``a`` itself, not a copy,
    when it already has that dtype."""
    if a.data.dtype == dtype:
        return a

    def fn(g):
        if a.requires_grad:
            accumulate(a, g)

    return record("astype", (a,), a.data.astype(dtype), fn)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    old = a.shape

    def fn(g):
        if a.requires_grad:
            accumulate(a, g.reshape(old))

    return record("reshape", (a,), a.data.reshape(shape), fn)


# ---------------------------------------------------------------------------
# bounded reads of binary files
# ---------------------------------------------------------------------------

class BoundedReader:
    """A binary file read only in sizes checked against the bytes left; the
    end is found once, with seek and tell, so ``io.BytesIO`` works too."""

    def __init__(self, fh):
        self.fh = fh
        here = fh.tell()
        self.end = fh.seek(0, 2)
        fh.seek(here)

    def left(self) -> int:
        return self.end - self.fh.tell()

    def read(self, n: int, what: str) -> bytes:
        """Exactly ``n`` bytes of ``what``; if fewer remain, FormatError
        before anything of size ``n`` is allocated."""
        if n > self.left():
            raise FormatError(f"truncated {what} at offset {self.fh.tell()}: "
                              f"{n} bytes claimed, {self.left()} remain")
        return self.fh.read(n)

    def check_end(self, what: str) -> None:
        """FormatError if bytes follow ``what``; they are counted, not read."""
        if self.left():
            raise FormatError(f"{self.left()} trailing bytes after {what} "
                              f"at offset {self.fh.tell()}")

