"""The encoder/decoder 3D network and its checkpoint file.

Layout, reading a ``(1, N, B, H, W)`` batch of N cubes (or one cube,
``(1, B, H, W)`` or ``(B, H, W)``) down to per-pixel class scores; every
layer carries the crop axis N and reduces per crop:

* stem: conv(5,1,1)/stride(5,1,1) -> norm -> relu, compressing the spectral
  axis by five while widening to ``base_channels``;
* three down blocks, each conv(3,3,3)/(2,1,1) -> norm -> relu ->
  conv(1,3,3)/(1,2,2) -> norm -> relu -> dual separable residual unit(s) ->
  squeeze-excitation channel gate; channels double per block, extents
  halve (ceil);
* three up blocks, each resampling to the extents of the matching down
  block's input, concatenating with it, then conv(5,1,1) -> norm -> relu ->
  conv(3,3,3) -> norm -> relu; channels retrace 8x -> 4x -> 2x -> 1x;
* head: mean over the residual spectral axis, then a 1x1 conv to class
  logits of shape ``(num_classes, N, H, W)``, or ``(num_classes, H, W)``
  for one cube; the same mean plane feeds the affinity branch of the
  refinement stage (:mod:`fcspn.cspn`).

Every layer, the affinity branch included, is an ``ops.Conv`` or
``ops.Norm`` registered under its dotted path in one ``ops.ModelParams``;
the checkpoint stores that registry in path order.  Convolutions that feed
a normalization layer carry no bias (the shift would be absorbed); the
attention gate conv and the head conv do.  All weights come from one
caller-supplied generator so builds are reproducible.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import cspn, ops
from . import tensor as T
from .tensor import FormatError, ShapeError, Tensor

CHECKPOINT_MAGIC = b"FCSP"
CHECKPOINT_VERSION = 2

# Validation bound on ``cspn_steps``, not a setting: far above the paper's 24,
# it stops a corrupt checkpoint header from asking for billions of steps.
MAX_CSPN_STEPS = 1024


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
        if self.in_bands < 5:
            raise ShapeError(f"in_bands must be >= 5 (stem kernel), got {self.in_bands}")
        if self.num_classes < 1:
            raise ShapeError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.base_channels < 1:
            raise ShapeError(f"base_channels must be >= 1, got {self.base_channels}")
        if self.dsr_per_stage < 0:
            raise ShapeError(f"dsr_per_stage must be >= 0, got {self.dsr_per_stage}")
        if not 0 <= self.cspn_steps <= MAX_CSPN_STEPS:
            raise ShapeError(f"cspn_steps must be in [0, {MAX_CSPN_STEPS}], "
                             f"got {self.cspn_steps}")


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

class _DsrBranch:
    """conv -> norm -> relu -> conv -> norm -> relu with separable kernels."""

    def __init__(self, params, path, channels, kernels, rng):
        self.conv_a = ops.Conv(params, path + ".conv_a", channels, channels,
                               kernels[0], (1, 1, 1), rng, bias=False)
        self.norm_a = ops.Norm(params, path + ".norm_a", channels)
        self.conv_b = ops.Conv(params, path + ".conv_b", channels, channels,
                               kernels[1], (1, 1, 1), rng, bias=False)
        self.norm_b = ops.Norm(params, path + ".norm_b", channels)

    def __call__(self, x, training):
        t = T.relu(self.norm_a(self.conv_a(x), training))
        return T.relu(self.norm_b(self.conv_b(t), training))


class _DsrUnit:
    """Residual pair of separable branches: out = x + left(x) + right(x).

    The left branch convolves in-plane first then along the spectral axis;
    the right branch does the reverse.
    """

    SPATIAL = (1, 3, 3)
    SPECTRAL = (3, 1, 1)

    def __init__(self, params, path, channels, rng):
        self.left = _DsrBranch(params, path + ".left", channels,
                               (self.SPATIAL, self.SPECTRAL), rng)
        self.right = _DsrBranch(params, path + ".right", channels,
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
        rank = x.data.ndim
        squeezed = T.reshape(T.reduce_mean(x, axes=range(rank - 3, rank)),
                             x.shape[:-3] + (1, 1, 1))
        return T.mul(x, T.sigmoid(self.gate(squeezed)))


class _DownBlock:
    def __init__(self, params, path, cin, cout, config, rng):
        self.conv_a = ops.Conv(params, path + ".conv_a", cin, cout,
                               (3, 3, 3), (2, 1, 1), rng, bias=False)
        self.norm_a = ops.Norm(params, path + ".norm_a", cout)
        self.conv_b = ops.Conv(params, path + ".conv_b", cout, cout,
                               (1, 3, 3), (1, 2, 2), rng, bias=False)
        self.norm_b = ops.Norm(params, path + ".norm_b", cout)
        self.dsr = [_DsrUnit(params, f"{path}.dsr{j + 1}", cout, rng)
                    for j in range(config.dsr_per_stage)]
        self.attention = (_Attention(params, path + ".attn", cout, rng)
                          if config.attention_enabled else None)

    def __call__(self, x, training):
        t = T.relu(self.norm_a(self.conv_a(x), training))
        t = T.relu(self.norm_b(self.conv_b(t), training))
        for unit in self.dsr:
            t = unit(t, training)
        if self.attention is not None:
            t = self.attention(t)
        return t

    def out_extents(self, extents):
        return self.conv_b.spec.out_extents(self.conv_a.spec.out_extents(extents))


class _UpBlock:
    def __init__(self, params, path, cin, cout, rng):
        self.conv_a = ops.Conv(params, path + ".conv_a", cin, cout,
                               (5, 1, 1), (1, 1, 1), rng, bias=False)
        self.norm_a = ops.Norm(params, path + ".norm_a", cout)
        self.conv_b = ops.Conv(params, path + ".conv_b", cout, cout,
                               (3, 3, 3), (1, 1, 1), rng, bias=False)
        self.norm_b = ops.Norm(params, path + ".norm_b", cout)

    def __call__(self, x, mirror, training):
        t = ops.trilinear_upsample(x, mirror.shape[-3:])
        t = ops.concat_channels(t, mirror)
        t = T.relu(self.norm_a(self.conv_a(t), training))
        return T.relu(self.norm_b(self.conv_b(t), training))


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
            self.ups.append(_UpBlock(self.params, f"up{i + 1}",
                                     c + cmir, cmir, rng))
            c = cmir

        self.head_conv = ops.Conv(self.params, "head.conv", b, config.num_classes,
                                  (1, 1, 1), (1, 1, 1), rng, bias=True)
        self.affinity = cspn.AffinityBranch(self.params, "affinity", b, rng)

    # -- shape bookkeeping ---------------------------------------------------

    def shape_plan(self, height: int, width: int) -> List[Tuple[str, Tuple[int, ...]]]:
        """Extents of every stage for an input of the configured band count."""
        if height < self.MIN_SPATIAL or width < self.MIN_SPATIAL:
            raise ShapeError(
                f"spatial extents must be >= {self.MIN_SPATIAL}, got {height}x{width}")
        b = self.config.base_channels
        plan = [("input", (1, self.config.in_bands, height, width))]
        ext = self.stem_conv.spec.out_extents((self.config.in_bands, height, width))
        plan.append(("stem", (b,) + ext))
        mirrors = []
        ch = b
        for i, down in enumerate(self.downs):
            mirrors.append((ch,) + ext)
            ch *= 2
            ext = down.out_extents(ext)
            plan.append((f"down{i + 1}", (ch,) + ext))
        for i, mirror in enumerate(reversed(mirrors)):
            plan.append((f"up{i + 1}", mirror))
        plan.append(("head", (self.config.num_classes, height, width)))
        return plan

    def _as_input(self, x: Tensor) -> Tensor:
        """``x`` as the (1, N, B, H, W) batch the layers take; a (B, H, W)
        or (1, B, H, W) cube is a batch of one."""
        if x.data.ndim == 3 or (x.data.ndim == 4 and x.shape[0] == 1):
            x = T.reshape(x, (1, 1) + x.shape[-3:])
        if x.data.ndim != 5 or x.shape[0] != 1:
            raise ShapeError(
                f"input must be (B, H, W), (1, B, H, W) or (1, N, B, H, W), got {x.shape}")
        if x.shape[2] != self.config.in_bands:
            raise ShapeError(
                f"model expects {self.config.in_bands} bands, got {x.shape[2]}")
        self.shape_plan(x.shape[3], x.shape[4])  # validates spatial extents
        return x

    # -- inference -----------------------------------------------------------

    def _run(self, x: Tensor, training: bool) -> Tuple[Tensor, Tensor]:
        """(logits (K, N, H, W), spectral-mean plane (C, N, 1, H, W) of the
        decoder output)."""
        x = self._as_input(x)
        t = T.relu(self.stem_norm(self.stem_conv(x), training))
        mirrors = []
        for down in self.downs:
            mirrors.append(t)
            t = down(t, training)
        for up, mirror in zip(self.ups, reversed(mirrors)):
            t = up(t, mirror, training)
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

    def forward_refined(self, x: Tensor, steps: Optional[int] = None,
                        training: bool = False) -> Tuple[Tensor, Tensor]:
        """(refined, unrefined) logits, shaped as :meth:`forward`'s;
        ``steps`` overrides the configured count."""
        logits, plane = self._run(x, training)
        kappa = cspn.normalize_affinity(self.affinity.forward(plane, training))
        steps = self.config.cspn_steps if steps is None else steps
        refined = cspn.refine(logits, kappa, steps)
        return self._shaped_like(x, refined), self._shaped_like(x, logits)


def build(config: ModelConfig, rng: Optional[np.random.Generator] = None) -> FcspnModel:
    """Construct a model with freshly initialized parameters."""
    return FcspnModel(config, rng if rng is not None else np.random.default_rng(0))


# ---------------------------------------------------------------------------
# checkpoint file: "FCSP" header + TSR1 records
# ---------------------------------------------------------------------------
# layout, little-endian:
#   magic "FCSP" | u32 version | u32 in_bands | u32 num_classes
#   | u32 base_channels | u32 dsr_per_stage | u8 attention | u32 cspn_steps
#   | TSR1 records of ``ModelParams.arrays()``: the learnable tensors sorted
#     by path, then running mean and variance per norm, sorted by path

_HEADER = "<4sIIIIIBI"


def _min_floats(config: ModelConfig) -> int:
    """A lower bound on the values ``build(config)`` allocates: down3.conv_b,
    the residual units of down1 and the head conv."""
    b = config.base_channels
    return (9 * (8 * b) ** 2 + 96 * b * b * config.dsr_per_stage
            + (b + 1) * config.num_classes)


def save_checkpoint(model: FcspnModel, path) -> None:
    cfg = model.config
    with open(path, "wb") as fh:
        fh.write(struct.pack(_HEADER, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                             cfg.in_bands, cfg.num_classes, cfg.base_channels,
                             cfg.dsr_per_stage, int(cfg.attention_enabled),
                             cfg.cspn_steps))
        for _, arr in model.params.arrays():
            T.write_tensor_record(fh, arr)


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
        left = src.left()
        if 4 * _min_floats(config) > left:
            raise FormatError(
                f"checkpoint header asks for at least {_min_floats(config)} "
                f"parameters, more than the {left} bytes after it can hold")
        # every tensor and statistic is read from the file below, so the
        # model starts from zeros instead of drawing weights
        model = FcspnModel(config, None)
        for name, target in model.params.arrays():
            arr = T.read_tensor_record(fh)
            if arr.shape != target.shape:
                raise FormatError(
                    f"checkpoint {name} has shape {arr.shape}, expected {target.shape}")
            target[...] = arr
        src.check_end("checkpoint payload")
    return model
