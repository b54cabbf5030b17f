"""Differentiable building blocks for volumetric feature maps.

Feature maps are channel-major, ``(channels, crops, depth, height,
width)``: a batch of crops is one array whose crop axis every op carries,
so each half of an optimizer step's crops (:mod:`fcspn.train`) is one
forward and one backward pass, and one scene is a batch of one.
Normalization statistics are per (channel, crop), so a crop's pass does
not depend on the other crops of its batch.
Each op registers its pullback on the global tape via
:func:`fcspn.tensor.record`.

:func:`conv3d` runs all three of its products through one routine: build
the channel-major columns of one slab of the output grid (crops, planes
or a band of rows, under a cache-sized byte budget) as windows of one
zero-padded copy of the part of the input the slab reads, and multiply
the weights by them.  Its scratch memory does not grow with the scene or
the batch.  The pullback keeps the input, not the columns: it rebuilds them
slab by slab for the weight gradient, and computes the input gradient as
the correlation of the output gradient with the flipped, transposed
kernel, one call of the routine per stride phase.  Every product splits
its slabs one way, whatever the CPU count: the even ones and the odd ones
(:func:`_halves`).  On a process allowed two or more CPUs, the one thread
of a standard-library executor (:func:`_worker`) runs the odd half beside
the caller, so a run gives the same bits on one CPU and on two.

:func:`batchnorm` is a normalization and the ReLU that follows it, as one
op: it centres its input into one fresh array and divides, scales, shifts
and clamps at zero in place in it.  Its pullback takes the ReLU's mask
from that output, so the map before the ReLU is never held on the tape.
The decoder's join is never built: :func:`upsample` resamples a map to
its mirror's extents, a few channels at a time, and :func:`join_conv3d`
convolves the two as if stacked on the channel axis, each slab's padded
block filled from both maps in place, through the same routine as
:func:`conv3d`.

:class:`Conv` and :class:`Norm` wrap :func:`conv3d` and :func:`batchnorm` as
layers that own their tensors and register them, with the running
statistics, in a :class:`ModelParams` under a dotted layer path.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor, accumulate, record

Triple = Tuple[int, int, int]

BN_EPS = 1e-5
BN_MOMENTUM = 0.9

# bytes of column matrix conv3d builds per slab of its output grid, forward
# and pullback: a fixed bound on its scratch memory, not a setting.  Two
# slabs in flight, one per thread, hold 1 MiB, half of a 2 MiB L2; of 0.5,
# 1, 2 and 4 MiB in flight that gave the fastest convolutions at the
# training step's shapes.  upsample's width and height passes keep to the
# same budget, one run of channels at a time.
_SLAB_BYTES = 1 << 19


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


_executor = None
_executor_start = threading.Lock()


def _worker():
    """The one-thread executor that runs the odd half of a convolution's
    slabs (:func:`_halves`) beside the caller, created on first use, never
    at import.

    numpy releases the GIL while it copies a strided window into columns
    and while it multiplies, so two threads build and multiply slabs at
    once.  A job only reads arrays and writes its own slabs of an output or
    a fresh sum; it calls only this module's private functions, never a
    public one or the tape.  A second caller's job waits its turn behind
    the first's.
    """
    global _executor
    with _executor_start:
        if _executor is None:
            from concurrent.futures import ThreadPoolExecutor
            _executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="fcspn-conv3d")
    return _executor


def _stop_worker() -> None:
    """Shut the worker thread down and wait for it to exit; the next
    two-CPU convolution starts a new one.  A process forks only once no
    thread of its own is alive."""
    global _executor
    with _executor_start:
        executor, _executor = _executor, None
    if executor is not None:
        executor.shutdown(wait=True)


def _forget_worker() -> None:
    # a forked child has no worker thread, and a lock some other thread
    # held at the fork stays held in the child
    global _executor, _executor_start
    _executor = None
    _executor_start = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Conv3dSpec:
    """Static geometry of one convolution: kernel, stride, padding.

    ``padding=None`` selects the centered default ``floor(k/2)`` per axis,
    which preserves extents at stride 1 for odd kernels.
    """

    kernel: Triple
    stride: Triple = (1, 1, 1)
    padding: Optional[Triple] = None

    def __post_init__(self):
        object.__setattr__(self, "kernel", tuple(int(k) for k in self.kernel))
        object.__setattr__(self, "stride", tuple(int(s) for s in self.stride))
        if self.padding is not None:
            object.__setattr__(self, "padding", tuple(int(p) for p in self.padding))
        for k in self.kernel:
            if k < 1:
                raise ShapeError(f"kernel extents must be >= 1, got {self.kernel}")
        for s in self.stride:
            if s < 1:
                raise ShapeError(f"strides must be >= 1, got {self.stride}")
        if self.padding is not None:
            for p in self.padding:
                if p < 0:
                    raise ShapeError(f"padding must be >= 0, got {self.padding}")

    def pad(self) -> Triple:
        if self.padding is not None:
            return self.padding
        return tuple(k // 2 for k in self.kernel)

    def out_extents(self, extents: Triple) -> Triple:
        """Output extents: floor((n + 2p - k) / s) + 1 per axis."""
        out = []
        for n, k, s, p in zip(extents, self.kernel, self.stride, self.pad()):
            span = n + 2 * p - k
            if span < 0:
                raise ShapeError(
                    f"kernel {k} exceeds padded extent {n + 2 * p}")
            out.append(span // s + 1)
        return tuple(out)


def _crops(arr: np.ndarray) -> np.ndarray:
    """``arr`` as (C, N, D, H, W); a (C, D, H, W) map is its one-crop view,
    which only conv3d and batchnorm take: perfbench/test_harness.py calls
    them on rank-4 maps."""
    return arr if arr.ndim == 5 else arr[:, None]


def _slabs(crops: int, depth: int, height: int, row_bytes: int):
    """(crops, planes, rows) slices that tile an output grid of ``crops`` x
    ``depth`` x ``height`` rows, each slab at most ``_SLAB_BYTES`` of
    columns at ``row_bytes`` per output row (one row at least): runs of
    whole crops while one crop fits, else runs of planes within one crop
    while one plane fits, else bands of rows within one plane."""
    rows = max(1, _SLAB_BYTES // row_bytes)
    if rows < height:
        return [(slice(c, c + 1), slice(z, z + 1), slice(y, min(y + rows, height)))
                for c in range(crops) for z in range(depth)
                for y in range(0, height, rows)]
    planes = rows // height
    if planes < depth:
        return [(slice(c, c + 1), slice(z, min(z + planes, depth)), slice(0, height))
                for c in range(crops) for z in range(0, depth, planes)]
    step = planes // depth
    return [(slice(c, min(c + step, crops)), slice(0, depth), slice(0, height))
            for c in range(0, crops, step)]


def _slab_columns(parts, origin: Triple, kernel: Triple, stride: Triple,
                  ow: int, slab) -> np.ndarray:
    """The channel-major column matrix of one slab ``(crops, planes, rows)``
    of an output grid ``ow`` wide: rows ``(c, i, j, k)`` and columns the
    slab's output voxels ``(n, z, y, x)``, whose entry is ``src[c, n, origin
    + stride * (z, y, x) + (i, j, k)]``, zero where that falls outside
    ``src``, the channel join of ``parts``: (C_i, N, D, H, W) arrays of any
    strides and equal extents.  Every slab copies the part of each array it
    reads into that array's channels of one zero-padded block and windows
    the block, so ``src`` itself is never built."""
    cs, zs, ys = slab
    c = sum(len(part) for part in parts)
    dtype = np.result_type(*parts)
    (kd, kh, kw), (sd, sh, sw) = kernel, stride
    nc, nz, ny = cs.stop - cs.start, zs.stop - zs.start, ys.stop - ys.start
    lo = (origin[0] + sd * zs.start, origin[1] + sh * ys.start, origin[2])
    size = (sd * (nz - 1) + kd, sh * (ny - 1) + kh, sw * (ow - 1) + kw)
    inside = tuple(slice(max(a, 0), max(a, 0, min(a + k, e)))
                   for a, k, e in zip(lo, size, parts[0].shape[2:]))
    window = tuple(slice(r.start - a, r.stop - a) for r, a in zip(inside, lo))
    block = np.zeros((c, nc) + size, dtype=dtype)
    at = 0
    for part in parts:
        block[(slice(at, at + len(part)), slice(None)) + window] = (
            part[(slice(None), cs) + inside])
        at += len(part)
    s = block.strides
    win = np.ndarray((c, kd, kh, kw, nc, nz, ny, ow), dtype, block, strides=(
        s[0], s[2], s[3], s[4], s[1], s[2] * sd, s[3] * sh, s[4] * sw))
    return win.reshape(c * kd * kh * kw, -1)


def _halves(slabs, run):
    """``(run(slabs[::2]), run(slabs[1::2]))``: the odd slabs run on the
    thread of :func:`_worker` when this process may use two CPUs, else on
    the caller after the even ones.  Each thread builds one slab at a time,
    so the columns in flight stay within two slab budgets."""
    if len(slabs) < 2 or _cpus() < 2:
        return run(slabs[::2]), run(slabs[1::2])
    job = [run]  # emptied by the job, so its arrays are dropped before it completes
    try:
        odd = _worker().submit(lambda: job.pop()(slabs[1::2]))
    except RuntimeError:  # the interpreter is exiting and takes no new jobs
        return run(slabs[::2]), run(slabs[1::2])
    try:
        even = run(slabs[::2])
    finally:
        odd.exception()  # waits for the odd half, whatever the even half raised
    return even, odd.result()


def _correlate(parts, wm: np.ndarray, origin: Triple, kernel: Triple,
               stride: Triple, out: np.ndarray) -> None:
    """Fill ``out`` (M, N, od, oh, ow) with ``wm`` (M, C*kd*kh*kw) times the
    columns of :func:`_slab_columns` over the channel parts ``parts``, one
    GEMM per slab of :func:`_slabs`; each product goes straight into its
    part of ``out`` when ``out`` is one contiguous block (a strided view,
    one stride phase of an input gradient, takes a copy).  :func:`_halves`
    splits the slabs between the caller and the worker thread, which write
    disjoint parts of ``out``.
    """
    n, od, oh, ow = out.shape[1:]
    direct = out.flags.c_contiguous

    def run(slabs):
        for slab in slabs:
            cols = _slab_columns(parts, origin, kernel, stride, ow, slab)
            part = out[(slice(None),) + slab]
            if direct:
                np.matmul(wm, cols, out=part.reshape(len(part), -1))
            else:
                part[...] = (wm @ cols).reshape(part.shape)

    itemsize = np.result_type(*parts).itemsize
    _halves(_slabs(n, od, oh, wm.shape[1] * ow * itemsize), run)


def _weight_grad(parts, g: np.ndarray, origin: Triple, kernel: Triple,
                 stride: Triple, dtype) -> np.ndarray:
    """The (M, C*kd*kh*kw) weight gradient: ``g`` (M, N, od, oh, ow) times
    the transposed columns of the channel parts ``parts``.  :func:`_halves`
    splits the slabs of :func:`_slabs`; each half sums its products in slab
    order, and the gradient is the even sum plus the odd sum whether or not
    the worker thread ran the odd half, so its bits do not depend on the
    CPU count.
    """
    m, n, od, oh, ow = g.shape
    inner = sum(len(part) for part in parts) * kernel[0] * kernel[1] * kernel[2]

    def run(slabs):
        gw = np.zeros((m, inner), dtype=dtype)
        for slab in slabs:
            cols = _slab_columns(parts, origin, kernel, stride, ow, slab)
            gw += g[(slice(None),) + slab].reshape(m, -1) @ cols.T
        return gw

    itemsize = np.result_type(*parts).itemsize
    even, odd = _halves(_slabs(n, od, oh, inner * ow * itemsize), run)
    even += odd
    return even


def _phases(extents: Triple, spec: Conv3dSpec):
    """Stride phases of conv3d's input gradient, as ``(positions, taps,
    kernel, origin)`` triples over the three axes.

    On an axis of stride ``s`` and padding ``p``, phase ``e`` holds the
    input positions ``e, e + s, ...``, which only the taps ``r, r + s,
    ...`` with ``r = (e + p) % s`` reach, ``kernel`` of them.  With those
    taps flipped, the phase's gradient is a stride-1 correlation of the
    output gradient whose first output reads it at ``origin = (e + p) // s
    - (kernel - 1)``.  Phases that hold no position, or that no tap
    reaches, are left out: their gradient is zero.
    """
    out = []
    for phase in itertools.product(*(range(s) for s in spec.stride)):
        axes = []
        for e, n, k, s, p in zip(phase, extents, spec.kernel, spec.stride, spec.pad()):
            r = (e + p) % s
            taps = len(range(r, k, s))
            if taps == 0 or e >= n:
                break
            axes.append((slice(e, n, s), slice(r, k, s), taps, (e + p) // s - (taps - 1)))
        else:
            out.append(tuple(zip(*axes)))
    return out


def conv3d(x: Tensor, w: Tensor, b: Optional[Tensor], spec: Conv3dSpec) -> Tensor:
    """Strided cross-correlation of ``x`` (C,N,D,H,W) with ``w`` (M,C,kd,kh,kw).

    ``x`` may also be the one-crop view (C,D,H,W); the output has the same
    rank.  Forward multiplies the flattened weights by a channel-major
    column matrix (rows ``(c, i, j, k)``, columns the output voxels) built
    one slab of the output grid at a time (:func:`_slabs`), each slab's
    product written straight into its part of the output.  The pullback
    keeps only the input.  The weight gradient sums ``g @ cols.T`` over the
    same slabs, rebuilding each one's columns.  The input gradient is the
    correlation of ``g`` with the flipped, transposed kernel (Dumoulin &
    Visin, arXiv 1603.07285), split by stride phase (:func:`_phases`): the
    input positions ``e, e + s, ...`` of one phase see only the taps ``r,
    r + s, ...``, so each phase is a stride-1 correlation through the same
    slab routine, written into that phase's positions of the gradient.
    The forward and each phase go through :func:`_correlate`, the weight
    gradient through :func:`_weight_grad`; both split a call's slabs into
    the even and the odd ones (:func:`_halves`), and run the odd ones on a
    worker thread when they can.
    """
    if x.data.ndim not in (4, 5):
        raise ShapeError(f"conv3d input must be rank 4 or 5, got {x.shape}")
    return _conv("conv3d", [x], w, b, spec)


def join_conv3d(x: Tensor, mirror: Tensor, w: Tensor, spec: Conv3dSpec) -> Tensor:
    """:func:`conv3d`, without a bias, of the channel join of ``x``
    (Cx,N,D,H,W) and ``mirror`` (Cm,N,D,H,W), two maps of equal extents,
    with ``w`` (M,Cx+Cm,kd,kh,kw), without allocating the join.

    Each slab's zero-padded block takes its first ``Cx`` channels from
    ``x`` and the rest from ``mirror`` (:func:`_slab_columns`), so the
    columns, the GEMMs and the bits are those of :func:`conv3d` on
    ``np.concatenate([x, mirror])``.  The input gradient is computed into
    one (Cx+Cm)-channel buffer, and each map takes its own channels of it
    (Pleiss et al., "Memory-Efficient Implementation of DenseNets", arXiv
    1707.06990: a conv over a concatenation never needs the concatenation).
    """
    if (x.data.ndim != 5 or mirror.data.ndim != 5
            or x.shape[1:] != mirror.shape[1:]):
        raise ShapeError(f"join_conv3d takes (C, N, D, H, W) maps of one crop count "
                         f"and extents, got {x.shape} and mirror {mirror.shape}")
    return _conv("join_conv3d", [x, mirror], w, None, spec)


def _conv(op: str, xs, w: Tensor, b: Optional[Tensor], spec: Conv3dSpec) -> Tensor:
    """The convolution of :func:`conv3d` over the channel join of the maps
    ``xs``, recorded on the tape as ``op``."""
    if w.data.ndim != 5:
        raise ShapeError(f"conv3d weights must be rank 5, got {w.shape}")
    if w.shape[2:] != spec.kernel:
        raise ShapeError(f"weights {w.shape} do not match kernel {spec.kernel}")
    parts = [_crops(x.data) for x in xs]
    cin = sum(len(part) for part in parts)
    n, d, h, wd = parts[0].shape[1:]
    cout = w.shape[0]
    if w.shape[1] != cin:
        raise ShapeError(f"weights expect {w.shape[1]} input channels, got {cin}")
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"bias shape {b.shape} does not match {cout} filters")

    origin = tuple(-p for p in spec.pad())
    grid = (n,) + spec.out_extents((d, h, wd))
    out = np.empty((cout,) + grid, dtype=np.result_type(*parts, w.data))
    _correlate(parts, w.data.reshape(cout, -1), origin, spec.kernel, spec.stride, out)
    if b is not None:
        out += b.data[:, None, None, None, None]

    wd_data = w.data

    def fn(g):
        g = g.reshape((cout,) + grid)
        if b is not None and b.requires_grad:
            accumulate(b, g.sum(axis=(1, 2, 3, 4)))
        if w.requires_grad:
            gw = _weight_grad(parts, g, origin, spec.kernel, spec.stride, wd_data.dtype)
            accumulate(w, gw.reshape(w.shape))
        if any(x.requires_grad for x in xs):
            # phases without taps stay 0
            dx = np.zeros((cin,) + parts[0].shape[1:], dtype=np.result_type(*parts))
            for pos, taps, kernel, start in _phases((d, h, wd), spec):
                wt = wd_data[(slice(None), slice(None)) + taps][:, :, ::-1, ::-1, ::-1]
                _correlate([g], wt.transpose(1, 0, 2, 3, 4).reshape(cin, -1), start,
                           kernel, (1, 1, 1), dx[(slice(None), slice(None)) + pos])
            at = 0
            for x in xs:
                if x.requires_grad:
                    accumulate(x, dx[at:at + x.shape[0]].reshape(x.shape))
                at += x.shape[0]

    inputs = (*xs, w) if b is None else (*xs, w, b)
    return record(op, inputs, out.reshape((cout,) + xs[0].shape[1:-3] + grid[1:]), fn)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

class BatchNormState:
    """Running statistics for one normalization layer, one entry per
    channel, and ``folded``: the (channels, crops) means and variances
    :meth:`fold` took last, None before the first."""

    def __init__(self, channels: int):
        if channels < 1:
            raise ShapeError("channels must be >= 1")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.folded: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def channels(self) -> int:
        return self.running_mean.shape[0]

    def fold(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Fold per-crop statistics, (channels, crops) each, into the
        running estimates (0.9 old + 0.1 new), crop by crop in crop order."""
        for k in range(mean.shape[1]):
            self.running_mean = (BN_MOMENTUM * self.running_mean
                                 + (1 - BN_MOMENTUM) * mean[:, k])
            self.running_var = (BN_MOMENTUM * self.running_var
                                + (1 - BN_MOMENTUM) * var[:, k])
        self.folded = (mean, var)


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
              training: bool) -> Tensor:
    """Normalize each crop of ``x`` (C,N,D,H,W) over its voxels, scale and
    shift, then apply the ReLU that follows every normalization in the
    network: ``relu(gamma * xhat + beta)``.  ``x`` may also be the
    one-crop view (C,D,H,W).

    Training mode normalizes each (channel, crop) with its biased
    statistics and folds them into the running estimates
    (:meth:`BatchNormState.fold`), so a batch leaves the same running
    statistics as its crops passed one at a time; eval mode normalizes
    with the running estimates alone.

    The forward allocates one output-sized array, the centred input, and
    divides, scales, shifts and clamps at zero in place in it, so the map
    before the ReLU is never a tape output (one stored map where a norm
    feeds its activation, as in Rota Bulò et al., arXiv 1712.02616).  The
    pullback keeps the input, its own output and the per-(channel, crop)
    statistics, not a normalized copy of the input: it masks the gradient
    by ``out > 0``, which equals the pre-ReLU ``y > 0``, and recomputes the
    normalized input from the input and the statistics.
    In eval mode it keeps the running mean array of the forward: an update
    replaces that array and never writes into it.
    """
    xd = _crops(x.data)
    c = xd.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"scale/shift must have shape ({c},), got {gamma.shape} and {beta.shape}")
    if state.channels != c:
        raise ShapeError(f"state tracks {state.channels} channels, input has {c}")
    axes = (2, 3, 4)
    expand = (slice(None), None, None, None, None)

    if training:
        if xd[0, 0].size == 1:
            warnings.warn(
                "batchnorm over a single element per channel; variance is "
                "zero and the output reduces to relu(shift)",
                RuntimeWarning)
        mu = xd.mean(axis=axes, keepdims=True)
        centered = xd - mu
        var = (centered * centered).mean(axis=axes, keepdims=True)
        state.fold(mu[:, :, 0, 0, 0], var[:, :, 0, 0, 0])
    else:
        mu = state.running_mean[expand]
        centered = xd - mu
        var = state.running_var[expand]

    s = np.sqrt(var + BN_EPS)
    # centered is a fresh array: divide, scale, shift and clamp in place in
    # it, in the dtypes of ``gamma * xhat + beta`` (a wider scale or shift
    # widens it)
    out = np.divide(centered, s, out=centered)
    out = out.astype(np.result_type(out, gamma.data), copy=False)
    np.multiply(out, gamma.data[expand], out=out)
    out = out.astype(np.result_type(out, beta.data), copy=False)
    np.add(out, beta.data[expand], out=out)
    np.maximum(out, 0.0, out=out)
    gd = gamma.data

    def fn(g):
        # the ReLU's mask: out > 0 exactly where its input was
        g = g.reshape(out.shape) * (out > 0)
        # the forward's normalized input, recomputed bitwise from x
        xhat = _crops(x.data) - mu
        np.divide(xhat, s, out=xhat)
        # per (channel, crop) sums, shared by the scale/shift and input terms
        gsum = g.sum(axis=axes, keepdims=True)
        gxsum = (g * xhat).sum(axis=axes, keepdims=True)
        if beta.requires_grad:
            accumulate(beta, gsum.sum(axis=(1, 2, 3, 4)))
        if gamma.requires_grad:
            accumulate(gamma, gxsum.sum(axis=(1, 2, 3, 4)))
        if x.requires_grad:
            if training:
                m = xhat[0, 0].size
                g = g - gsum / m - xhat * (gxsum / m)
            accumulate(x, (gd[expand] / s * g).reshape(x.shape))

    return record("batchnorm", (x, gamma, beta), out.reshape(x.shape), fn)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def _axis_matrix(n: int, m: int, dtype) -> np.ndarray:
    """The (m, n) matrix, in ``dtype``, of 1-d linear resampling from ``n``
    samples to ``m``: row o blends the two inputs around o's position.

    Corner-aligned: output o samples position o*(n-1)/(m-1), so first and
    last samples always coincide with the input endpoints.
    """
    a = np.zeros((m, n), dtype=dtype)
    if n == 1 or m == 1:
        a[:, 0] = 1.0
        return a
    rows = np.arange(m)
    pos = rows * ((n - 1) / (m - 1))
    lo = np.minimum(np.floor(pos).astype(np.intp), n - 2)
    w = (pos - lo).astype(dtype, copy=False)
    a[rows, lo] = 1.0 - w
    a[rows, lo + 1] = w
    return a


def _resample(arr: np.ndarray, mats) -> np.ndarray:
    """Apply the depth, height and width matrices ``mats`` to the last three
    axes of ``arr`` (C, ...), one GEMM per axis (width, height, then depth),
    over runs of whole channels whose width and height passes together hold
    at most ``_SLAB_BYTES``, one channel at least; the depth GEMM writes each
    run straight into its channels of the result."""
    a_d, a_h, a_w = mats
    c, *lead, d, h, w = arr.shape
    dd, hh, ww = a_d.shape[0], a_h.shape[0], a_w.shape[0]
    out = np.empty((c, *lead, dd, hh, ww), dtype=np.result_type(arr, *mats))
    passes = math.prod(lead) * d * (h + hh) * ww * out.itemsize  # per channel
    step = max(1, _SLAB_BYTES // passes)
    for at in range(0, c, step):
        part = arr[at:at + step].reshape(-1, w) @ a_w.T
        part = a_h @ part.reshape(-1, h, ww)
        np.matmul(a_d, part.reshape(-1, d, hh * ww),
                  out=out[at:at + step].reshape(-1, dd, hh * ww))
    return out


def upsample(x: Tensor, extents) -> Tensor:
    """``x`` (C,N,D,H,W) resampled to ``extents`` (D',H',W'), the decoder's
    upsampling before each join.

    The resampling is corner-aligned and separable: one (target, source)
    tap matrix ``A`` per axis (:func:`_axis_matrix`), applied by
    :func:`_resample` over runs of channels, so its scratch memory stays
    within one slab budget (or one channel's passes, where those exceed
    it).  The pullback applies each ``A.T`` through the
    same routine.
    """
    extents = tuple(int(e) for e in extents)
    if x.data.ndim != 5 or len(extents) != 3 or min(extents) < 1:
        raise ShapeError(f"upsample takes a (C, N, D, H, W) map and three extents, "
                         f"got {x.shape} and {extents}")
    mats = [_axis_matrix(n, m, x.data.dtype) for n, m in zip(x.shape[-3:], extents)]

    def fn(g):
        accumulate(x, _resample(g, [a.T for a in mats]))

    return record("upsample", (x,), _resample(x.data, mats), fn)


# ---------------------------------------------------------------------------
# layers and their registry
# ---------------------------------------------------------------------------

class ModelParams:
    """Everything a checkpoint stores, keyed by dotted layer path: the
    learnable tensors and the batchnorm running statistics, in registration
    order, plus the tensors the SGD step decays (``decay=True``: conv weights).
    """

    def __init__(self):
        self._tensors: Dict[str, Tensor] = {}
        self._states: Dict[str, BatchNormState] = {}
        self._decayed: List[Tensor] = []

    def register(self, path: str, tensor: Tensor, decay: bool = False) -> Tensor:
        if path in self._tensors:
            raise ShapeError(f"duplicate parameter path {path!r}")
        if any(t is tensor for t in self._tensors.values()):
            raise ShapeError(f"tensor for {path!r} already registered")
        self._tensors[path] = tensor
        if decay:
            self._decayed.append(tensor)
        return tensor

    def register_state(self, path: str, state: BatchNormState) -> BatchNormState:
        self._states[path] = state
        return state

    def paths(self) -> List[str]:
        return list(self._tensors)

    def get(self, path: str) -> Tensor:
        return self._tensors[path]

    def items(self) -> List[Tuple[str, Tensor]]:
        return list(self._tensors.items())

    def states(self) -> List[Tuple[str, BatchNormState]]:
        return list(self._states.items())

    def decayed(self) -> List[Tensor]:
        return list(self._decayed)

    def cast(self, dtype) -> None:
        """Convert every tensor and running statistic to ``dtype``."""
        for t in self._tensors.values():
            t.data = t.data.astype(dtype)
        for s in self._states.values():
            s.running_mean = s.running_mean.astype(dtype)
            s.running_var = s.running_var.astype(dtype)

    def arrays(self) -> List[np.ndarray]:
        """Everything stored, in checkpoint order: the tensors sorted by
        path, then per norm, sorted by path, its running mean and variance."""
        out = [self._tensors[p].data for p in sorted(self._tensors)]
        for p in sorted(self._states):
            out += [self._states[p].running_mean, self._states[p].running_var]
        return out


class Conv:
    """:func:`conv3d` with registered weights, Kaiming-normal from ``rng``
    (zero when it is None), and an optional zero bias."""

    def __init__(self, params: ModelParams, path: str, cin: int, cout: int,
                 kernel, stride, rng: Optional[np.random.Generator], bias: bool):
        self.spec = Conv3dSpec(kernel=kernel, stride=stride)
        shape = (cout, cin) + self.spec.kernel
        w = (T.zeros(shape, requires_grad=True) if rng is None else
             T.kaiming_normal(shape, rng, requires_grad=True))
        self.w = params.register(path + ".weights", w, decay=True)
        self.b = params.register(
            path + ".bias", T.zeros((cout,), requires_grad=True)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return conv3d(x, self.w, self.b, self.spec)


class Norm:
    """:func:`batchnorm`, normalization then ReLU, with a registered scale,
    shift and running statistics."""

    def __init__(self, params: ModelParams, path: str, channels: int):
        self.scale = params.register(
            path + ".scale", T.full((channels,), 1.0, requires_grad=True))
        self.shift = params.register(
            path + ".shift", T.zeros((channels,), requires_grad=True))
        self.state = params.register_state(path, BatchNormState(channels))

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return batchnorm(x, self.scale, self.shift, self.state, training)
