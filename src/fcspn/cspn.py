"""Affinity-driven spatial propagation over per-class score maps.

A small learned branch emits eight raw affinities per pixel, one per
non-center cell of the 3x3 neighborhood.  :func:`normalize_affinity` rescales
them so their absolute values sum to one and assigns the center the
complement of their signed sum; :func:`propagate_step` then mixes every class
channel with its shifted neighbors under that shared kernel, and
:func:`refine` repeats the step a fixed number of times.

Update rule, per pixel (i, j) and class channel l:

    h[l,i,j] <- kappa_c[i,j] * h[l,i,j] + sum_n kappa_n[i,j] * h[l,i-a,j-b]

with (a, b) running over :data:`OFFSETS` and off-image neighbors reading
zero.  The implementation uses the algebraically equal form
``h + sum_n kappa_n * (shift_n(h) - h)``, which makes a constant map an
exact fixed point at interior pixels and makes all-zero affinities an exact
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import ops
from . import tensor as T
from .tensor import ShapeError, Tensor, accumulate, record

# Non-center cells of the 3x3 stencil, row-major.  Channel i of a raw or
# normalized affinity field refers to OFFSETS[i]; channel 8 of a normalized
# field is the center weight.
OFFSETS: Tuple[Tuple[int, int], ...] = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


@dataclass(frozen=True)
class AffinityField:
    """Raw per-pixel neighbor weights and their normalized form.

    ``raw`` has shape (8, H, W); ``normalized`` has shape (9, H, W) with the
    center weight in channel 8.  Off-center channels of ``normalized`` sum to
    one in absolute value wherever any raw value is nonzero, and each lies in
    (-1, 1).
    """

    raw: Tensor
    normalized: Tensor


def normalize_affinity(raw: Tensor) -> AffinityField:
    """Rescale raw affinities per pixel and derive the center weight.

    kappa_n = raw_n / sum_m |raw_m| and kappa_c = 1 - sum_n kappa_n.  A pixel
    whose raw vector is all zero gets the identity kernel (center 1) and a
    zero gradient, the one point where the quotient is undefined.
    """
    if raw.data.ndim != 3 or raw.shape[0] != 8:
        raise ShapeError(f"raw affinities must have shape (8, H, W), got {raw.shape}")
    r = raw.data
    z = np.abs(r).sum(axis=0)
    safe = np.where(z == 0.0, 1.0, z)
    kap = r / safe
    out = np.concatenate([kap, (1.0 - kap.sum(axis=0))[None]], axis=0)

    def fn(g):
        if raw.requires_grad:
            gn = g[:8] - g[8]
            inner = (gn * kap).sum(axis=0)
            dr = (gn - np.sign(r) * inner) / safe
            accumulate(raw, np.where(z == 0.0, 0.0, dr))

    return AffinityField(raw=raw, normalized=record("normalize_affinity", (raw,), out, fn))


def propagate_step(h: Tensor, aff: AffinityField) -> Tensor:
    """One simultaneous stencil update of every class channel.

    Reads only the incoming map (double-buffered by construction) and writes
    ``h + sum_n kappa_n * (shift_n(h) - h)``, which equals the center-weighted
    form because kappa_c complements the signed neighbor sum.
    """
    k = aff.normalized
    if h.data.ndim != 3:
        raise ShapeError(f"score map must have shape (c, H, W), got {h.shape}")
    if k.data.ndim != 3 or k.shape[0] != 9 or k.shape[1:] != h.shape[1:]:
        raise ShapeError(
            f"normalized affinities {k.shape} do not match score map {h.shape}")
    hd, kd = h.data, k.data
    nh, nw = hd.shape[1:]

    hp = np.pad(hd, ((0, 0), (1, 1), (1, 1)))
    shifts = [hp[:, 1 - a: 1 - a + nh, 1 - b: 1 - b + nw] for a, b in OFFSETS]
    out = hd.copy()
    for idx in range(8):
        out += kd[idx] * (shifts[idx] - hd)

    def fn(g):
        if h.requires_grad:
            dh = g * (1.0 - kd[:8].sum(axis=0))
            for idx, (a, b) in enumerate(OFFSETS):
                tp = np.pad(kd[idx] * g, ((0, 0), (1, 1), (1, 1)))
                dh += tp[:, 1 + a: 1 + a + nh, 1 + b: 1 + b + nw]
            accumulate(h, dh)
        if k.requires_grad:
            dk = np.zeros_like(kd)
            for idx in range(8):
                dk[idx] = (g * (shifts[idx] - hd)).sum(axis=0)
            accumulate(k, dk)

    return record("propagate_step", (h, k), out, fn)


def refine(logits: Tensor, aff: AffinityField, steps: int) -> Tensor:
    """Apply :func:`propagate_step` ``steps`` times; zero steps is the identity.

    The stencil is always the 3x3 one of :data:`OFFSETS`, with off-image
    neighbors reading zero.
    """
    if steps < 0:
        raise ShapeError(f"steps must be >= 0, got {steps}")
    out = logits
    for _ in range(steps):
        out = propagate_step(out, aff)
    return out


class AffinityBranch:
    """Two-layer head that maps decoder features to raw affinities.

    The spectral axis is collapsed by its mean, then two 3x3 in-plane
    convolutions (normalization and ReLU between them) produce one channel
    per neighbor offset.  The final layer starts at zero so refinement
    begins as the identity and cannot disturb the score map early on.
    """

    SPEC = ops.Conv3dSpec(kernel=(1, 3, 3), stride=(1, 1, 1), padding=(0, 1, 1))

    def __init__(self, channels: int, rng: np.random.Generator):
        if channels < 1:
            raise ShapeError("channels must be >= 1")
        self.channels = channels
        fan_in = channels * 9
        self.mix_w = T.kaiming_normal((channels, channels, 1, 3, 3), fan_in, rng,
                                      requires_grad=True)
        self.norm_scale = T.full((channels,), 1.0, requires_grad=True)
        self.norm_shift = T.zeros((channels,), requires_grad=True)
        self.norm_state = ops.BatchNormState(channels)
        self.head_w = T.zeros((8, channels, 1, 3, 3), requires_grad=True)
        self.head_b = T.zeros((8,), requires_grad=True)

    def named_parameters(self):
        """Learnable tensors as (relative path, tensor, kind) triples."""
        return [
            ("mix.weights", self.mix_w, "conv_weight"),
            ("norm.scale", self.norm_scale, "bn_scale"),
            ("norm.shift", self.norm_shift, "bn_shift"),
            ("head.weights", self.head_w, "conv_weight"),
            ("head.bias", self.head_b, "bias"),
        ]

    def named_states(self):
        return [("norm", self.norm_state)]

    def forward(self, features: Tensor, training: bool = False) -> Tensor:
        if features.data.ndim != 4:
            raise ShapeError(f"features must be rank 4, got {features.shape}")
        if features.shape[0] != self.channels:
            raise ShapeError(
                f"branch expects {self.channels} channels, got {features.shape[0]}")
        c, _, nh, nw = features.shape
        plane = T.reshape(T.reduce_mean(features, axes=(1,)), (c, 1, nh, nw))
        mixed = ops.conv3d(plane, self.mix_w, None, self.SPEC)
        mixed = ops.batchnorm(mixed, self.norm_scale, self.norm_shift,
                              self.norm_state, training)
        mixed = T.relu(mixed)
        raw = ops.conv3d(mixed, self.head_w, self.head_b, self.SPEC)
        return T.reshape(raw, (8, nh, nw))
