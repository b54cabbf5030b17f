"""Affinity-driven spatial propagation over per-class score maps.

A small learned branch (:class:`AffinityBranch`, whose layers sit in the
network's one parameter registry) emits eight raw affinities per pixel, one
per non-center cell of the 3x3 neighborhood.  :func:`normalize_affinity`
rescales them so their absolute values sum to one; :func:`propagate_step`
then mixes every class channel of a ``(channels, crops, height, width)``
batch with its shifted neighbors under its crop's kernel, and
:func:`refine` repeats the step a fixed number of times.

Update rule, per crop c, pixel (i, j) and class channel l:

    h[l,c,i,j] <- (1 - sum_n kappa_n[c,i,j]) * h[l,c,i,j]
                  + sum_n kappa_n[c,i,j] * h[l,c,i-a,j-b]

with (a, b) running over :data:`OFFSETS` and off-image neighbors reading
zero.  The implementation uses the algebraically equal form
``h + sum_n kappa_n * (shift_n(h) - h)``, which makes a constant map an
exact fixed point at interior pixels and makes all-zero affinities an exact
identity.  Each step reads its shifts from a zero-padded copy of the map;
the pullback pads the map it holds again, so the tape keeps no padded copy
between forward and backward.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import ops
from . import tensor as T
from .tensor import ShapeError, Tensor, accumulate, record

# Non-center cells of the 3x3 stencil, row-major.  Channel i of a raw or
# normalized affinity tensor refers to OFFSETS[i].
OFFSETS: Tuple[Tuple[int, int], ...] = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


def normalize_affinity(raw: Tensor) -> Tensor:
    """Rescale raw affinities per pixel: kappa_n = raw_n / sum_m |raw_m|.

    ``raw`` is (8, N, H, W), one map per crop; kappa has its shape.
    Wherever any raw value is nonzero the channels sum to one in absolute
    value and each lies in [-1, 1].  A pixel whose raw vector is all zero
    gets kappa 0 (the identity kernel) and a zero gradient, the one point
    where the quotient is undefined.
    """
    if raw.data.ndim != 4 or raw.shape[0] != 8:
        raise ShapeError(f"raw affinities must have shape (8, N, H, W), got {raw.shape}")
    r = raw.data
    z = np.abs(r).sum(axis=0)
    safe = np.where(z == 0.0, 1.0, z)
    kap = r / safe

    def fn(g):
        if raw.requires_grad:
            inner = (g * kap).sum(axis=0)
            dr = (g - np.sign(r) * inner) / safe
            accumulate(raw, np.where(z == 0.0, 0.0, dr))

    return record("normalize_affinity", (raw,), kap, fn)


def propagate_step(h: Tensor, kappa: Tensor) -> Tensor:
    """One simultaneous stencil update of every class channel.

    Reads only the incoming map (double-buffered by construction) and writes
    ``h + sum_n kappa_n * (shift_n(h) - h)``, which equals the center-weighted
    form with center weight ``1 - sum_n kappa_n``.  ``h`` is (c, N, H, W)
    and ``kappa`` the matching (8, N, H, W) output of
    :func:`normalize_affinity`; shifts act on the last two axes only.
    """
    if h.data.ndim != 4:
        raise ShapeError(f"score map must have shape (c, N, H, W), got {h.shape}")
    if kappa.shape != (8,) + h.shape[1:]:
        raise ShapeError(
            f"normalized affinities {kappa.shape} do not match score map {h.shape}")
    hd, kd = h.data, kappa.data
    nh, nw = hd.shape[-2:]

    # every shift is a window of one zero-padded copy of h, and the
    # h-pullback scatters into the same layout along the transposed stencil.
    # The forward's copy dies when it returns; the pullback pads h again,
    # so the tape holds no padded map between forward and backward.
    pad = ((0, 0), (0, 0), (1, 1), (1, 1))
    windows = [(Ellipsis, slice(1 - a, 1 - a + nh), slice(1 - b, 1 - b + nw))
               for a, b in OFFSETS]
    inside = (Ellipsis, slice(1, -1), slice(1, -1))
    hp = np.pad(hd, pad)
    out = hd.copy()
    for idx, win in enumerate(windows):
        out += kd[idx] * (hp[win] - hd)

    def fn(g):
        hp = np.pad(hd, pad)
        if h.requires_grad:
            gp = np.zeros_like(hp)
            gp[inside] = g * (1.0 - kd.sum(axis=0))
            for idx, win in enumerate(windows):
                gp[win] += kd[idx] * g
            accumulate(h, gp[inside])
        if kappa.requires_grad:
            accumulate(kappa, np.stack([(g * (hp[win] - hd)).sum(axis=0)
                                        for win in windows]))

    return record("propagate_step", (h, kappa), out, fn)


def refine(logits: Tensor, kappa: Tensor, steps: int) -> Tensor:
    """Apply :func:`propagate_step` ``steps`` times; zero steps is the identity.

    The stencil is always the 3x3 one of :data:`OFFSETS`, with off-image
    neighbors reading zero.
    """
    if steps < 0:
        raise ShapeError(f"steps must be >= 0, got {steps}")
    out = logits
    for _ in range(steps):
        out = propagate_step(out, kappa)
    return out


class AffinityBranch:
    """Two-layer head from the decoder's spectral-mean plane to raw affinities.

    Two 3x3 in-plane convolutions, with an ``ops.Norm`` (normalization
    ending in the ReLU) between them, turn the (C, N, 1, H, W) plane into
    one channel per neighbor offset; they are ``ops.Conv``/``ops.Norm``
    layers registered under ``path`` like the rest of the network.  The
    head starts at zero so refinement begins as the identity and cannot
    disturb the score map early on.
    """

    def __init__(self, params: ops.ModelParams, path: str, channels: int,
                 rng: np.random.Generator):
        self.mix = ops.Conv(params, path + ".mix", channels, channels,
                            (1, 3, 3), (1, 1, 1), rng, bias=False)
        self.norm = ops.Norm(params, path + ".norm", channels)
        self.head = ops.Conv(params, path + ".head", channels, 8,
                             (1, 3, 3), (1, 1, 1), None, bias=True)

    def forward(self, plane: Tensor, training: bool = False) -> Tensor:
        """Raw affinities (8, N, H, W) of a (C, N, 1, H, W) plane."""
        if plane.data.ndim != 5 or plane.shape[2] != 1:
            raise ShapeError(f"plane must have shape (C, N, 1, H, W), got {plane.shape}")
        raw = self.head(self.norm(self.mix(plane), training))
        return T.reshape(raw, raw.shape[:2] + raw.shape[3:])
