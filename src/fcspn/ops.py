"""Differentiable building blocks for volumetric feature maps.

All ops take and return :class:`~fcspn.tensor.Tensor` values shaped
``(channels, depth, height, width)`` with no batch axis; training batches are
formed by accumulating gradients over several crops.  Each op registers its
pullback on the global tape via :func:`fcspn.tensor.record`.

:func:`conv3d` is one GEMM per slab of output-depth planes over a
channel-major column matrix, the slab sized by a fixed byte budget, so its
scratch memory does not grow with the scene; its pullback keeps the padded
input, not the columns, and rebuilds them once for the weight gradient.

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

# bytes of column matrix conv3d builds per slab of output-depth planes (one
# plane at least): a fixed bound on its forward scratch memory, not a setting
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


def conv3d(x: Tensor, w: Tensor, b: Optional[Tensor], spec: Conv3dSpec) -> Tensor:
    """Strided cross-correlation of ``x`` (C,D,H,W) with ``w`` (M,C,kd,kh,kw).

    Forward multiplies the flattened weights by a channel-major column
    matrix (rows ``(c, i, j, k)``, columns the output voxels) built a slab of
    output-depth planes at a time, each slab's product written straight into
    its planes of the output.  The pullback keeps only the padded input: it
    rebuilds the whole column matrix once for the weight gradient and
    scatters one strided slice per kernel offset back into a padded buffer
    for the input gradient.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv3d input must be rank 4, got {x.shape}")
    if w.data.ndim != 5:
        raise ShapeError(f"conv3d weights must be rank 5, got {w.shape}")
    if w.shape[2:] != spec.kernel:
        raise ShapeError(f"weights {w.shape} do not match kernel {spec.kernel}")
    cin, d, h, wd = x.shape
    cout = w.shape[0]
    if w.shape[1] != cin:
        raise ShapeError(f"weights expect {w.shape[1]} input channels, got {cin}")
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"bias shape {b.shape} does not match {cout} filters")

    kd, kh, kw = spec.kernel
    sd, sh, sw = spec.stride
    pd, ph, pw = spec.pad()
    od, oh, ow = spec.out_extents((d, h, wd))

    xp = np.pad(x.data, ((0, 0), (pd, pd), (ph, ph), (pw, pw)))
    # (C, kd, kh, kw, od, oh, ow) view, strided to the output grid
    win = sliding_window_view(xp, (kd, kh, kw), axis=(1, 2, 3))[
        :, ::sd, ::sh, ::sw].transpose(0, 4, 5, 6, 1, 2, 3)
    inner = cin * kd * kh * kw
    wm = w.data.reshape(cout, inner)
    out = np.empty((cout, od, oh, ow), dtype=T.DTYPE)
    planes = max(1, _SLAB_BYTES // (inner * oh * ow * out.itemsize))
    for z0 in range(0, od, planes):
        z1 = min(od, z0 + planes)
        np.matmul(wm, win[..., z0:z1, :, :].reshape(inner, -1),
                  out=out[:, z0:z1].reshape(cout, -1))
    if b is not None:
        out += b.data[:, None, None, None]

    wd_data = w.data

    def fn(g):
        if b is not None and b.requires_grad:
            accumulate(b, g.sum(axis=(1, 2, 3)))
        if w.requires_grad:
            gm = g.reshape(cout, -1)
            accumulate(w, (gm @ win.reshape(inner, -1).T).reshape(w.shape))
        if x.requires_grad:
            # wg[c, i, j, k, od, oh, ow] = sum_m w[m,c,i,j,k] g[m,od,oh,ow]
            wg = np.tensordot(wd_data, g, axes=(0, 0))
            dxp = np.zeros_like(xp)
            for i in range(kd):
                for j in range(kh):
                    for k in range(kw):
                        dxp[:,
                            i: i + sd * (od - 1) + 1: sd,
                            j: j + sh * (oh - 1) + 1: sh,
                            k: k + sw * (ow - 1) + 1: sw] += wg[:, i, j, k]
            accumulate(x, dxp[:, pd: pd + d, ph: ph + h, pw: pw + wd])

    inputs = (x, w) if b is None else (x, w, b)
    return record("conv3d", inputs, out, fn)


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
    """Normalize over every non-channel axis, then scale and shift.

    Training mode normalizes with the biased batch statistics and folds them
    into the running estimates (0.9 old + 0.1 new); eval mode normalizes with
    the running estimates alone.
    """
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"scale/shift must have shape ({c},), got {gamma.shape} and {beta.shape}")
    if state.channels != c:
        raise ShapeError(f"state tracks {state.channels} channels, input has {c}")
    axes = tuple(range(1, x.data.ndim))
    n = int(np.prod([x.shape[a] for a in axes])) if axes else 1
    expand = (slice(None),) + (None,) * len(axes)

    if training:
        if n == 1:
            warnings.warn(
                "batchnorm over a single element per channel; variance is "
                "zero and the output reduces to the shift parameter",
                RuntimeWarning)
        mu = x.data.mean(axis=axes) if axes else x.data.copy()
        var = x.data.var(axis=axes) if axes else np.zeros_like(x.data)
        state.running_mean = BN_MOMENTUM * state.running_mean + (1 - BN_MOMENTUM) * mu
        state.running_var = BN_MOMENTUM * state.running_var + (1 - BN_MOMENTUM) * var
    else:
        mu = state.running_mean
        var = state.running_var

    s = np.sqrt(var + BN_EPS)
    xhat = (x.data - mu[expand]) / s[expand]
    out = gamma.data[expand] * xhat + beta.data[expand]
    gd = gamma.data

    def fn(g):
        if beta.requires_grad:
            accumulate(beta, g.sum(axis=axes) if axes else g.copy())
        if gamma.requires_grad:
            accumulate(gamma, (g * xhat).sum(axis=axes) if axes else g * xhat)
        if x.requires_grad:
            if training:
                gm = g.mean(axis=axes, keepdims=True) if axes else g
                gx = (g * xhat).mean(axis=axes, keepdims=True) if axes else g * xhat
                accumulate(x, gd[expand] / s[expand] * (g - gm - xhat * gx))
            else:
                accumulate(x, gd[expand] / s[expand] * g)

    return record("batchnorm", (x, gamma, beta), out, fn)


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


def _resample_axis(arr: np.ndarray, axis: int, lo, hi, w):
    shape = [1] * arr.ndim
    shape[axis] = len(w)
    wb = w.reshape(shape)
    return np.take(arr, lo, axis=axis) * (1 - wb) + np.take(arr, hi, axis=axis) * wb


def _scatter_axis(g: np.ndarray, axis: int, n: int, lo, hi, w):
    shape = [1] * g.ndim
    shape[axis] = len(w)
    wb = w.reshape(shape)
    out_shape = list(g.shape)
    out_shape[axis] = n
    out = np.zeros(out_shape, dtype=g.dtype)
    gm = np.moveaxis(out, axis, 0)
    np.add.at(gm, lo, np.moveaxis(g * (1 - wb), axis, 0))
    np.add.at(gm, hi, np.moveaxis(g * wb, axis, 0))
    return out


def trilinear_upsample(x: Tensor, target: Triple) -> Tensor:
    """Corner-aligned separable linear resampling of (C,D,H,W) to ``target``."""
    if x.data.ndim != 4:
        raise ShapeError(f"trilinear_upsample input must be rank 4, got {x.shape}")
    target = tuple(int(t) for t in target)
    if len(target) != 3 or any(t < 1 for t in target):
        raise ShapeError(f"target extents must be three values >= 1, got {target}")

    taps = [_axis_taps(x.shape[1 + a], target[a]) for a in range(3)]
    out = x.data
    for a in range(3):
        out = _resample_axis(out, 1 + a, *taps[a])
    sources = x.shape[1:]

    def fn(g):
        if x.requires_grad:
            for a in reversed(range(3)):
                g = _scatter_axis(g, 1 + a, sources[a], *taps[a])
            accumulate(x, g)

    return record("trilinear_upsample", (x,), out, fn)


# ---------------------------------------------------------------------------
# channel plumbing
# ---------------------------------------------------------------------------

def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Stack two feature maps along the channel axis; spatial extents must agree."""
    if a.data.ndim != b.data.ndim:
        raise ShapeError(f"rank mismatch: {a.shape} vs {b.shape}")
    if a.shape[1:] != b.shape[1:]:
        raise ShapeError(f"spatial extents differ: {a.shape} vs {b.shape}")
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
