"""Affinity-driven spatial propagation over per-class score maps.

A small learned branch (:class:`AffinityBranch`, whose layers sit in the
network's one parameter registry) emits eight raw affinities per pixel, one
per non-center cell of the 3x3 neighborhood.  :func:`normalize_affinity`
rescales them so their absolute values sum to one; :func:`refine` then
mixes every class channel of a ``(channels, crops, height, width)`` batch
with its shifted neighbors under its crop's kernel, a fixed number of
times, and records all of those steps as one tape node.

Update rule, per crop c, pixel (i, j) and class channel l:

    h[l,c,i,j] <- (1 - sum_n kappa_n[c,i,j]) * h[l,c,i,j]
                  + sum_n kappa_n[c,i,j] * h[l,c,i-a,j-b]

with (a, b) running over :data:`OFFSETS` and off-image neighbors reading
zero.  The implementation uses the algebraically equal form
``h + sum_n kappa_n * (shift_n(h) - h)``, which makes a constant map an
exact fixed point at interior pixels and makes all-zero affinities an exact
identity.  Each step reads its shifts from a zero-padded copy of the map;
the pullback pads each step's map again, so the tape keeps no padded copy
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


def _shifted(hd: np.ndarray, windows):
    """``shift_n(hd) - hd`` for each of :data:`OFFSETS`, read from one
    zero-padded copy of ``hd`` that dies with the iterator."""
    hp = np.pad(hd, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for win in windows:
        yield hp[win] - hd


def refine(logits: Tensor, kappa: Tensor, steps: int) -> Tensor:
    """``steps`` updates of every class channel of the (c, N, H, W)
    ``logits`` under the matching (8, N, H, W) ``kappa`` of
    :func:`normalize_affinity`, as one tape node; zero steps returns
    ``logits`` itself.  Each step reads only the incoming map.  The node
    keeps each step's input map, unpadded, and its pullback drops each map
    once its step is done; without a node no map is kept.
    """
    if steps < 0:
        raise ShapeError(f"steps must be >= 0, got {steps}")
    if logits.data.ndim != 4:
        raise ShapeError(f"score map must have shape (c, N, H, W), got {logits.shape}")
    if kappa.shape != (8,) + logits.shape[1:]:
        raise ShapeError(
            f"normalized affinities {kappa.shape} do not match score map {logits.shape}")
    if steps == 0:
        return logits
    kd = kappa.data
    c, n, nh, nw = logits.shape
    # _shifted's windows; the pullback scatters along them into its layout
    windows = [(Ellipsis, slice(1 - a, 1 - a + nh), slice(1 - b, 1 - b + nw))
               for a, b in OFFSETS]
    keep = T.will_record((logits, kappa))
    maps, hd = [], logits.data
    for _ in range(steps):
        if keep:
            maps.append(hd)
        out = hd.copy()
        for k, shift in zip(kd, _shifted(hd, windows)):
            out += k * shift
        hd = out

    def fn(g):
        center = 1.0 - kd.sum(axis=0)
        for step in range(steps, 0, -1):
            hd = maps.pop()
            if kappa.requires_grad:
                accumulate(kappa, np.stack([(g * shift).sum(axis=0)
                                            for shift in _shifted(hd, windows)]))
            if step > 1 or logits.requires_grad:
                gp = np.zeros((c, n, nh + 2, nw + 2), hd.dtype)
                gp[..., 1:-1, 1:-1] = g * center
                for k, win in zip(kd, windows):
                    gp[win] += k * g
                g = gp[..., 1:-1, 1:-1]
        if logits.requires_grad:
            accumulate(logits, g)

    return record("refine", (logits, kappa), hd, fn)


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
