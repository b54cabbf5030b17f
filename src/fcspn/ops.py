"""Differentiable building blocks for volumetric feature maps.

Feature maps are channel-major, ``(channels, crops, depth, height,
width)``: a training batch is one array whose crop axis every op carries,
so one optimizer step is one forward and one backward pass.  A
``(channels, depth, height, width)`` map is the one-crop view of the same
code.  Normalization statistics are per (channel, crop).  Each op
registers its pullback on the global tape via
:func:`fcspn.tensor.record`.

:func:`conv3d` is one GEMM per slab of (crop, output-depth planes) over a
channel-major column matrix, the slab sized by a fixed byte budget, so its
scratch memory does not grow with the scene or the batch; its pullback
keeps the padded input, not the columns, and rebuilds them slab by slab
for the weight gradient.

:class:`Conv` and :class:`Norm` wrap :func:`conv3d` and :func:`batchnorm` as
layers that own their tensors and register them, with the running
statistics, in a :class:`ModelParams` under a dotted layer path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as T
from .tensor import ShapeError, Tensor, accumulate, record

Triple = Tuple[int, int, int]

BN_EPS = 1e-5
BN_MOMENTUM = 0.9

# bytes of column matrix conv3d builds per slab of (crop, output-depth
# planes), one plane at least: a fixed bound on its scratch memory, forward
# and pullback, not a setting
_SLAB_BYTES = 32 << 20


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
    """``arr`` as (C, N, D, H, W); a (C, D, H, W) map is its one-crop view."""
    return arr if arr.ndim == 5 else arr[:, None]


def _slabs(crops: int, depth: int, plane_bytes: int):
    """(crop, output-depth plane) slices that tile conv3d's output, each slab
    at most ``_SLAB_BYTES`` of columns (one plane at least): runs of whole
    crops while one crop fits, else runs of planes within one crop."""
    planes = max(1, _SLAB_BYTES // plane_bytes)
    if planes >= depth:
        step = planes // depth
        return [(slice(c, c + step), slice(0, depth)) for c in range(0, crops, step)]
    return [(slice(c, c + 1), slice(z, z + planes))
            for c in range(crops) for z in range(0, depth, planes)]


def conv3d(x: Tensor, w: Tensor, b: Optional[Tensor], spec: Conv3dSpec) -> Tensor:
    """Strided cross-correlation of ``x`` (C,N,D,H,W) with ``w`` (M,C,kd,kh,kw).

    ``x`` may also be the one-crop view (C,D,H,W); the output has the same
    rank.  Forward multiplies the flattened weights by a channel-major
    column matrix (rows ``(c, i, j, k)``, columns the output voxels) built a
    slab of (crop, output-depth planes) at a time, each slab's product
    written straight into its part of the output.  The pullback keeps only
    the padded input and walks the same slabs: it accumulates the weight
    gradient over them, rebuilding each one's columns, and adds one product
    ``w[:, :, i, j, k].T @ g`` per kernel offset and slab into that
    offset's strided window of a padded input-gradient buffer.
    """
    if x.data.ndim not in (4, 5):
        raise ShapeError(f"conv3d input must be rank 4 or 5, got {x.shape}")
    if w.data.ndim != 5:
        raise ShapeError(f"conv3d weights must be rank 5, got {w.shape}")
    if w.shape[2:] != spec.kernel:
        raise ShapeError(f"weights {w.shape} do not match kernel {spec.kernel}")
    xd = _crops(x.data)
    cin, n, d, h, wd = xd.shape
    cout = w.shape[0]
    if w.shape[1] != cin:
        raise ShapeError(f"weights expect {w.shape[1]} input channels, got {cin}")
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"bias shape {b.shape} does not match {cout} filters")

    kd, kh, kw = spec.kernel
    sd, sh, sw = spec.stride
    pd, ph, pw = spec.pad()
    od, oh, ow = spec.out_extents((d, h, wd))

    xp = np.pad(xd, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    # (C, kd, kh, kw, N, od, oh, ow) view, strided to the output grid
    win = sliding_window_view(xp, (kd, kh, kw), axis=(2, 3, 4))[
        :, :, ::sd, ::sh, ::sw].transpose(0, 5, 6, 7, 1, 2, 3, 4)
    inner = cin * kd * kh * kw
    wm = w.data.reshape(cout, inner)
    out = np.empty((cout, n, od, oh, ow), dtype=T.DTYPE)
    slabs = _slabs(n, od, inner * oh * ow * out.itemsize)
    for cs, zs in slabs:
        np.matmul(wm, win[..., cs, zs, :, :].reshape(inner, -1),
                  out=out[:, cs, zs].reshape(cout, -1))
    if b is not None:
        out += b.data[:, None, None, None, None]

    wd_data = w.data

    def fn(g):
        g = g.reshape(cout, n, od, oh, ow)
        if b is not None and b.requires_grad:
            accumulate(b, g.sum(axis=(1, 2, 3, 4)))
        if w.requires_grad:
            gw = sum(g[:, cs, zs].reshape(cout, -1)
                     @ win[..., cs, zs, :, :].reshape(inner, -1).T for cs, zs in slabs)
            accumulate(w, gw.reshape(w.shape))
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for cs, zs in slabs:
                gs = g[:, cs, zs]
                gm = gs.reshape(cout, -1)
                part = (cin,) + gs.shape[1:]
                z0, nz = zs.start * sd, gs.shape[2]  # the slab reads planes from z0
                for i in range(kd):
                    for j in range(kh):
                        for k in range(kw):
                            dxp[:, cs,
                                z0 + i: z0 + i + sd * (nz - 1) + 1: sd,
                                j: j + sh * (oh - 1) + 1: sh,
                                k: k + sw * (ow - 1) + 1: sw] += (
                                    wd_data[:, :, i, j, k].T @ gm).reshape(part)
            accumulate(x, dxp[:, :, pd: pd + d, ph: ph + h, pw: pw + wd].reshape(x.shape))

    inputs = (x, w) if b is None else (x, w, b)
    return record("conv3d", inputs, out.reshape((cout,) + x.shape[1:-3] + (od, oh, ow)), fn)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

class BatchNormState:
    """Running statistics for one normalization layer, one entry per channel."""

    def __init__(self, channels: int):
        if channels < 1:
            raise ShapeError("channels must be >= 1")
        self.running_mean = np.zeros(channels, dtype=T.DTYPE)
        self.running_var = np.ones(channels, dtype=T.DTYPE)

    @property
    def channels(self) -> int:
        return self.running_mean.shape[0]


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
              training: bool) -> Tensor:
    """Normalize each crop of ``x`` (C,N,D,H,W) over its voxels, then scale
    and shift; ``x`` may also be the one-crop view (C,D,H,W).

    Training mode normalizes each (channel, crop) with its biased
    statistics and folds them into the running estimates (0.9 old + 0.1
    new) crop by crop, in crop order, so a batch leaves the same running
    statistics as its crops passed one at a time; eval mode normalizes
    with the running estimates alone.
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
                "zero and the output reduces to the shift parameter",
                RuntimeWarning)
        mu = xd.mean(axis=axes, keepdims=True)
        centered = xd - mu
        var = (centered * centered).mean(axis=axes, keepdims=True)
        for k in range(xd.shape[1]):
            state.running_mean = (BN_MOMENTUM * state.running_mean
                                  + (1 - BN_MOMENTUM) * mu[:, k, 0, 0, 0])
            state.running_var = (BN_MOMENTUM * state.running_var
                                 + (1 - BN_MOMENTUM) * var[:, k, 0, 0, 0])
    else:
        centered = xd - state.running_mean[expand]
        var = state.running_var[expand]

    s = np.sqrt(var + BN_EPS)
    xhat = np.divide(centered, s, out=centered)  # centered is a fresh array
    out = gamma.data[expand] * xhat + beta.data[expand]
    gd = gamma.data

    def fn(g):
        g = g.reshape(xhat.shape)
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

def _axis_taps(n: int, m: int):
    """Source index pairs and blend weights for 1-d linear resampling.

    Corner-aligned: output o samples position o*(n-1)/(m-1), so first and
    last samples always coincide with the input endpoints.
    """
    if n == 1 or m == 1:
        lo = np.zeros(m, dtype=np.intp)
        return lo, lo, np.zeros(m)
    pos = np.arange(m) * ((n - 1) / (m - 1))
    lo = np.minimum(np.floor(pos).astype(np.intp), n - 2)
    return lo, lo + 1, pos - lo


def _axis_matrix(n: int, m: int) -> np.ndarray:
    """The (m, n) matrix of :func:`_axis_taps`: row o holds output o's two
    blend weights."""
    lo, hi, w = _axis_taps(n, m)
    a = np.zeros((m, n), dtype=T.DTYPE)
    rows = np.arange(m)
    a[rows, lo] = 1.0 - w
    a[rows, hi] += w
    return a


def _resample_axis(arr: np.ndarray, axis: int, lo, hi, w):
    shape = [1] * arr.ndim
    shape[axis] = len(w)
    wb = w.reshape(shape)
    return np.take(arr, lo, axis=axis) * (1 - wb) + np.take(arr, hi, axis=axis) * wb


def trilinear_upsample(x: Tensor, target: Triple) -> Tensor:
    """Corner-aligned separable linear resampling of the last three axes of
    ``x`` (C,N,D,H,W) or (C,D,H,W) to ``target``.

    Forward gathers two taps per output sample along each axis; the
    pullback applies the transposed tap matrix ``A.T`` of each axis, in
    reverse axis order.
    """
    if x.data.ndim not in (4, 5):
        raise ShapeError(f"trilinear_upsample input must be rank 4 or 5, got {x.shape}")
    target = tuple(int(t) for t in target)
    if len(target) != 3 or any(t < 1 for t in target):
        raise ShapeError(f"target extents must be three values >= 1, got {target}")

    axes = range(x.data.ndim - 3, x.data.ndim)
    sources = x.shape[-3:]
    out = x.data
    for axis, n, m in zip(axes, sources, target):
        out = _resample_axis(out, axis, *_axis_taps(n, m))

    def fn(g):
        if x.requires_grad:
            for axis, n, m in reversed(list(zip(axes, sources, target))):
                g = np.moveaxis(np.tensordot(g, _axis_matrix(n, m), axes=(axis, 0)),
                                -1, axis)
            accumulate(x, g)

    return record("trilinear_upsample", (x,), out, fn)


# ---------------------------------------------------------------------------
# channel plumbing
# ---------------------------------------------------------------------------

def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Stack two feature maps along the channel axis; every other extent
    (crops and spatial) must agree."""
    if a.data.ndim != b.data.ndim:
        raise ShapeError(f"rank mismatch: {a.shape} vs {b.shape}")
    if a.shape[1:] != b.shape[1:]:
        raise ShapeError(f"non-channel extents differ: {a.shape} vs {b.shape}")
    ca = a.shape[0]

    def fn(g):
        if a.requires_grad:
            accumulate(a, g[:ca])
        if b.requires_grad:
            accumulate(b, g[ca:])

    return record("concat", (a, b), np.concatenate([a.data, b.data], axis=0), fn)


# ---------------------------------------------------------------------------
# layers and their registry
# ---------------------------------------------------------------------------

class ModelParams:
    """Everything a checkpoint stores, keyed by dotted layer path: the
    learnable tensors and the batchnorm running statistics, in registration
    order, plus the tensors the L2 term decays (``decay=True``: conv weights).
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

    def total_count(self) -> int:
        return sum(t.size for t in self._tensors.values())

    def arrays(self) -> List[Tuple[str, np.ndarray]]:
        """(name, array) of everything stored, in checkpoint order: the
        tensors sorted by path, then per norm, sorted by path, its running
        mean and variance."""
        out = [(f"tensor {p!r}", self._tensors[p].data) for p in sorted(self._tensors)]
        for p in sorted(self._states):
            for field in ("running_mean", "running_var"):
                out.append((f"running statistics {p + '.' + field!r}",
                            getattr(self._states[p], field)))
        return out


class Conv:
    """:func:`conv3d` with registered weights, Kaiming-normal from ``rng``
    (zero when it is None), and an optional zero bias."""

    def __init__(self, params: ModelParams, path: str, cin: int, cout: int,
                 kernel, stride, rng: Optional[np.random.Generator], bias: bool):
        self.spec = Conv3dSpec(kernel=kernel, stride=stride)
        shape = (cout, cin) + self.spec.kernel
        w = (T.zeros(shape, requires_grad=True) if rng is None else
             T.kaiming_normal(shape, int(np.prod(shape[1:])), rng, requires_grad=True))
        self.w = params.register(path + ".weights", w, decay=True)
        self.b = params.register(
            path + ".bias", T.zeros((cout,), requires_grad=True)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return conv3d(x, self.w, self.b, self.spec)


class Norm:
    """:func:`batchnorm` with a registered scale, shift and running statistics."""

    def __init__(self, params: ModelParams, path: str, channels: int):
        self.scale = params.register(
            path + ".scale", T.full((channels,), 1.0, requires_grad=True))
        self.shift = params.register(
            path + ".shift", T.zeros((channels,), requires_grad=True))
        self.state = params.register_state(path, BatchNormState(channels))

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return batchnorm(x, self.scale, self.shift, self.state, training)
