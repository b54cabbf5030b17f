"""The encoder/decoder 3D network and its checkpoint file.

Layout, reading a ``(1, N, B, H, W)`` batch of N cubes, or one (B, H, W)
cube as a batch of one (``FcspnModel._as_input`` lists every input form),
down to per-pixel class scores; every layer carries the crop axis N and
reduces per crop.  One conv pair,
conv -> norm -> relu -> conv -> norm -> relu with a (kernel, stride) per
conv, builds every double convolution below.  Each norm -> relu is one op,
``ops.Norm``, so the tape holds one map per normalization:

* stem: conv(5,1,1)/stride(5,1,1) -> norm -> relu, compressing the spectral
  axis by five while widening to ``base_channels``;
* three down blocks, each a pair conv(3,3,3)/(2,1,1), conv(1,3,3)/(1,2,2)
  -> dual separable residual unit(s) (two pairs each) ->
  squeeze-excitation channel gate; channels double per block, extents
  halve (ceil);
* three up blocks, each resampling its input to the extents of the
  matching down block's input (``ops.upsample``), then a pair conv(5,1,1),
  conv(3,3,3) whose first conv reads the resampled map and that mirror as
  one channel join without building it (``ops.join_conv3d``); channels
  retrace 8x -> 4x -> 2x -> 1x;
* head: mean over the residual spectral axis, then a 1x1 conv to class
  logits of shape ``(num_classes, N, H, W)``, or ``(num_classes, H, W)``
  for one cube; the same mean plane feeds the affinity branch of the
  refinement stage (:mod:`fcspn.cspn`).

Every layer, the affinity branch included, is an ``ops.Conv`` or
``ops.Norm`` registered under its dotted path in one ``ops.ModelParams``;
the checkpoint stores that registry in path order.  Convolutions that feed
a normalization layer carry no bias (the shift would be absorbed); the
attention gate conv and the head conv do.  All weights come from one
caller-supplied generator so builds are reproducible.  A built model is
float64 and a loaded checkpoint float32, the precision the file holds; the
input is cast once to the parameters' dtype.
"""

from __future__ import annotations

import numbers
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import cspn, data, ops
from . import tensor as T
from .tensor import FormatError, NumericError, ShapeError, Tensor

CHECKPOINT_MAGIC = b"FCSP"
CHECKPOINT_VERSION = 3

# Validation bound on ``cspn_steps``, not a setting: far above the paper's 24,
# it stops a corrupt checkpoint header from asking for billions of steps.
MAX_CSPN_STEPS = 1024


def check_int(name: str, value, low: int, high: Optional[int] = None) -> None:
    """ShapeError naming ``name`` unless ``value`` is a Python or numpy
    integer (a bool is not one) from ``low`` to ``high``, None for no bound."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ShapeError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ShapeError(f"{name} must be {bound}, got {value}")


@dataclass(frozen=True)
class ModelConfig:
    """Static architecture knobs; every parameter count follows from these."""

    in_bands: int
    num_classes: int
    base_channels: int = 16
    dsr_per_stage: int = 1
    attention_enabled: bool = True
    cspn_steps: int = 24

    def __post_init__(self):
        check_int("in_bands", self.in_bands, 5)  # the stem kernel's depth
        check_int("num_classes", self.num_classes, 1, data.MAX_CLASSES)  # a label map's ids
        check_int("base_channels", self.base_channels, 1)
        check_int("dsr_per_stage", self.dsr_per_stage, 0)
        if self.attention_enabled not in (False, True):
            raise ShapeError(
                f"attention_enabled must be False or True, got {self.attention_enabled!r}")
        check_int("cspn_steps", self.cspn_steps, 0, MAX_CSPN_STEPS)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

class _ConvPair:
    """conv -> norm -> relu -> conv -> norm -> relu; ``halves`` gives each
    conv's (kernel, stride).  Given an up block's ``mirror``, the input is
    first resampled to the mirror's extents (:func:`ops.upsample`), and the
    first conv runs over the channel join of the two
    (:func:`ops.join_conv3d`), which is never allocated; no caller holds
    the resampled map, so without a tape it is freed as soon as that conv
    returns, before the first norm runs.
    """

    def __init__(self, params, path, cin, cout, halves, rng):
        (kernel_a, stride_a), (kernel_b, stride_b) = halves
        self.conv_a = ops.Conv(params, path + ".conv_a", cin, cout,
                               kernel_a, stride_a, rng, bias=False)
        self.norm_a = ops.Norm(params, path + ".norm_a", cout)
        self.conv_b = ops.Conv(params, path + ".conv_b", cout, cout,
                               kernel_b, stride_b, rng, bias=False)
        self.norm_b = ops.Norm(params, path + ".norm_b", cout)

    def __call__(self, x, training, mirror=None):
        if mirror is None:
            x = self.conv_a(x)
        else:
            x = ops.join_conv3d(ops.upsample(x, mirror.shape[-3:]), mirror,
                                self.conv_a.w, self.conv_a.spec)
        x = self.norm_a(x, training)
        return self.norm_b(self.conv_b(x), training)

    def out_extents(self, extents):
        return self.conv_b.spec.out_extents(self.conv_a.spec.out_extents(extents))


class _DsrUnit:
    """Residual pair of separable branches: out = x + left(x) + right(x).

    The left branch convolves in-plane first then along the spectral axis;
    the right branch does the reverse.
    """

    SPATIAL = ((1, 3, 3), (1, 1, 1))
    SPECTRAL = ((3, 1, 1), (1, 1, 1))

    def __init__(self, params, path, channels, rng):
        self.left = _ConvPair(params, path + ".left", channels, channels,
                              (self.SPATIAL, self.SPECTRAL), rng)
        self.right = _ConvPair(params, path + ".right", channels, channels,
                               (self.SPECTRAL, self.SPATIAL), rng)

    def __call__(self, x, training):
        return T.add(x, T.add(self.left(x, training), self.right(x, training)))


class _Attention:
    """Squeeze-excitation gate: x * sigmoid(gate(mean over D, H, W of x)),
    the mean taken per crop.

    The same function in training and inference; it keeps no statistics.
    """

    def __init__(self, params, path, channels, rng):
        self.gate = ops.Conv(params, path + ".gate", channels, channels,
                             (1, 1, 1), (1, 1, 1), rng, bias=True)

    def __call__(self, x):
        squeezed = T.reshape(T.reduce_mean(x, axes=(2, 3, 4)), x.shape[:2] + (1, 1, 1))
        return T.mul(x, T.sigmoid(self.gate(squeezed)))


class _DownBlock(_ConvPair):
    """A strided conv pair, then the residual units and the channel gate."""

    HALVES = (((3, 3, 3), (2, 1, 1)), ((1, 3, 3), (1, 2, 2)))

    def __init__(self, params, path, cin, cout, config, rng):
        super().__init__(params, path, cin, cout, self.HALVES, rng)
        self.dsr = [_DsrUnit(params, f"{path}.dsr{j + 1}", cout, rng)
                    for j in range(config.dsr_per_stage)]
        self.attention = (_Attention(params, path + ".attn", cout, rng)
                          if config.attention_enabled else None)

    def __call__(self, x, training):
        t = super().__call__(x, training)
        for unit in self.dsr:
            t = unit(t, training)
        if self.attention is not None:
            t = self.attention(t)
        return t


# (kernel, stride) of each conv of an up block's pair
_UP_HALVES = (((5, 1, 1), (1, 1, 1)), ((3, 3, 3), (1, 1, 1)))


# ---------------------------------------------------------------------------
# the assembled network
# ---------------------------------------------------------------------------

class FcspnModel:
    """Full network plus affinity branch, one registry for both; conv
    weights are Kaiming-normal from ``rng``, or zero when it is None."""

    MIN_SPATIAL = 8

    def __init__(self, config: ModelConfig, rng: Optional[np.random.Generator]):
        self.config = config
        self.params = ops.ModelParams()
        b = config.base_channels

        self.stem_conv = ops.Conv(self.params, "stem.conv", 1, b,
                                  (5, 1, 1), (5, 1, 1), rng, bias=False)
        self.stem_norm = ops.Norm(self.params, "stem.norm", b)

        self.downs = []
        c = b
        for i in range(3):
            self.downs.append(_DownBlock(self.params, f"down{i + 1}",
                                         c, 2 * c, config, rng))
            c *= 2
        # decoder channel plan: x carries 8b, 4b, 2b into the three up blocks,
        # each joined with the mirror of 4b, 2b, b channels
        self.ups = []
        for i in range(3):
            cmir = c // 2
            self.ups.append(_ConvPair(self.params, f"up{i + 1}", c + cmir, cmir,
                                      _UP_HALVES, rng))
            c = cmir

        self.head_conv = ops.Conv(self.params, "head.conv", b, config.num_classes,
                                  (1, 1, 1), (1, 1, 1), rng, bias=True)
        self.affinity = cspn.AffinityBranch(self.params, "affinity", b, rng)

    @property
    def dtype(self):
        """The parameters' dtype: float64 when built, float32 when loaded."""
        return self.stem_conv.w.data.dtype

    # -- shape bookkeeping ---------------------------------------------------

    def deepest_extents(self, height: int, width: int) -> Tuple[int, int, int]:
        """(D, H, W) of the last down block's output for an input of the
        configured band count; :class:`ShapeError` below ``MIN_SPATIAL``."""
        if height < self.MIN_SPATIAL or width < self.MIN_SPATIAL:
            raise ShapeError(
                f"spatial extents must be >= {self.MIN_SPATIAL}, got {height}x{width}")
        ext = self.stem_conv.spec.out_extents((self.config.in_bands, height, width))
        for down in self.downs:
            ext = down.out_extents(ext)
        return ext

    def _as_input(self, x: Tensor) -> Tensor:
        """``x`` as the (1, N, B, H, W) batch the layers take, in the
        parameters' dtype; a (B, H, W) cube is a batch of one, and so is the
        (1, B, H, W) cube perfbench/workload.py's classify_scene passes.
        The input is data: it is cast with numpy and never differentiated."""
        if x.data.ndim == 3 or (x.data.ndim == 4 and x.shape[0] == 1):
            x = T.reshape(x, (1, 1) + x.shape[-3:])
        if x.data.ndim != 5 or x.shape[0] != 1:
            raise ShapeError(
                f"input must be (B, H, W), (1, B, H, W) or (1, N, B, H, W), got {x.shape}")
        if x.shape[2] != self.config.in_bands:
            raise ShapeError(
                f"model expects {self.config.in_bands} bands, got {x.shape[2]}")
        self.deepest_extents(x.shape[3], x.shape[4])  # validates spatial extents
        return x if x.data.dtype == self.dtype else Tensor(x.data.astype(self.dtype))

    # -- inference -----------------------------------------------------------

    def _run(self, x: Tensor, training: bool) -> Tuple[Tensor, Tensor]:
        """(logits (K, N, H, W), spectral-mean plane (C, N, 1, H, W) of the
        decoder output)."""
        x = self._as_input(x)
        t = self.stem_norm(self.stem_conv(x), training)
        mirrors = []
        for down in self.downs:
            mirrors.append(t)
            t = down(t, training)
        # each mirror is released once its up block has used it
        for up in self.ups:
            t = up(t, training, mirrors.pop())
        c, n, _, nh, nw = t.shape
        plane = T.reshape(T.reduce_mean(t, axes=(2,)), (c, n, 1, nh, nw))
        logits = T.reshape(self.head_conv(plane), (self.config.num_classes, n, nh, nw))
        return logits, plane

    @staticmethod
    def _shaped_like(x: Tensor, scores: Tensor) -> Tensor:
        """(K, N, H, W) scores for a batch input, (K, H, W) for one cube."""
        if x.data.ndim == 5:
            return scores
        return T.reshape(scores, scores.shape[:1] + scores.shape[2:])

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        """Class logits, no refinement: (num_classes, H, W) for one cube,
        (num_classes, N, H, W) for a (1, N, B, H, W) batch."""
        return self._shaped_like(x, self._run(x, training)[0])

    def forward_refined(self, x: Tensor, training: bool = False) -> Tuple[Tensor, Tensor]:
        """(refined, unrefined): :meth:`forward`'s logits after the configured
        ``cspn_steps`` of propagation, and those logits as they are."""
        logits, plane = self._run(x, training)
        kappa = cspn.normalize_affinity(self.affinity.forward(plane, training))
        refined = cspn.refine(logits, kappa, self.config.cspn_steps)
        return self._shaped_like(x, refined), self._shaped_like(x, logits)


def build(config: ModelConfig, rng: Optional[np.random.Generator] = None) -> FcspnModel:
    """Construct a model with freshly initialized parameters."""
    return FcspnModel(config, rng if rng is not None else np.random.default_rng(0))


# ---------------------------------------------------------------------------
# checkpoint file: "FCSP" header + one f32 payload
# ---------------------------------------------------------------------------
# layout, little-endian:
#   magic "FCSP" | u32 version | u32 in_bands | u32 num_classes
#   | u32 base_channels | u32 dsr_per_stage | u8 attention | u32 cspn_steps
#   | f32 values of ``ModelParams.arrays()``, row-major, back to back: the
#     learnable tensors sorted by path, then running mean and variance per
#     norm, sorted by path; the header fixes every shape

_HEADER = "<4sIIIIIBI"


def _payload_floats(config: ModelConfig) -> int:
    """The number of values ``ModelParams.arrays()`` holds for ``config``,
    counted from the layer plan alone, so a header can be checked against
    the payload before any array is allocated.  A conv holds its weights and
    bias, a norm four values per channel: scale, shift and running mean and
    variance."""
    def conv(cin, cout, kernel, bias=False):
        return cout * (cin * kernel[0] * kernel[1] * kernel[2] + bias)

    def pair(cin, cout, halves):
        (kernel_a, _), (kernel_b, _) = halves
        return conv(cin, cout, kernel_a) + conv(cout, cout, kernel_b) + 8 * cout

    b, unit = config.base_channels, (_DsrUnit.SPATIAL, _DsrUnit.SPECTRAL)
    n = conv(1, b, (5, 1, 1)) + 4 * b                                   # stem
    for c in (2 * b, 4 * b, 8 * b):                                     # downs
        n += pair(c // 2, c, _DownBlock.HALVES)
        n += config.dsr_per_stage * (pair(c, c, unit) + pair(c, c, unit[::-1]))
        n += conv(c, c, (1, 1, 1), True) if config.attention_enabled else 0
    for c in (4 * b, 2 * b, b):                 # ups: 2c resampled + c mirror in
        n += pair(3 * c, c, _UP_HALVES)
    n += conv(b, config.num_classes, (1, 1, 1), True)                   # head
    n += conv(b, b, (1, 3, 3)) + 4 * b + conv(b, 8, (1, 3, 3), True)    # affinity
    return n


def save_checkpoint(model: FcspnModel, path) -> None:
    """Write ``model`` to ``path``; NumericError, before the file is opened,
    if a value is NaN, infinite or beyond float32's range."""
    cfg = model.config
    at = struct.calcsize(_HEADER)
    for arr in model.params.arrays():
        if not np.all(np.abs(arr) <= np.finfo(np.float32).max):
            raise NumericError(
                f"cannot save checkpoint: the array at offset {at} holds NaN, "
                f"infinity or a value beyond float32's range")
        at += 4 * arr.size
    with open(path, "wb") as fh:
        fh.write(struct.pack(_HEADER, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                             cfg.in_bands, cfg.num_classes, cfg.base_channels,
                             cfg.dsr_per_stage, int(cfg.attention_enabled),
                             cfg.cspn_steps))
        for arr in model.params.arrays():
            fh.write(arr.astype("<f4").tobytes())


def load_checkpoint(path) -> FcspnModel:
    with open(path, "rb") as fh:
        src = T.BoundedReader(fh)
        raw = src.read(struct.calcsize(_HEADER), "checkpoint header")
        magic, version, bands, classes, base, dsr, attn, steps = struct.unpack(_HEADER, raw)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        if attn not in (0, 1):
            raise FormatError(
                f"bad checkpoint header: attention byte {attn}, expected 0 or 1")
        try:
            config = ModelConfig(in_bands=bands, num_classes=classes,
                                 base_channels=base, dsr_per_stage=dsr,
                                 attention_enabled=bool(attn), cspn_steps=steps)
        except ShapeError as err:
            raise FormatError(f"bad checkpoint header: {err}") from err
        left, need = src.left(), 4 * _payload_floats(config)
        if left != need:
            gap = (f"{left - need} trailing bytes" if left > need
                   else f"{need - left} bytes short")
            raise FormatError(
                f"checkpoint payload is {left} bytes, {need} expected: {gap}")
        # every tensor and statistic is read from the file below, so the
        # model starts from zeros instead of drawing weights, in float32,
        # the precision the file holds
        model = FcspnModel(config, None)
        model.params.cast(np.float32)
        for arr in model.params.arrays():
            at = fh.tell()
            values = src.read(4 * arr.size, "checkpoint payload")
            arr[...] = np.frombuffer(values, dtype="<f4").reshape(arr.shape)
            if not np.all(np.isfinite(arr)):
                raise FormatError(
                    f"checkpoint payload holds NaN or infinity in the array at offset {at}")
    return model
