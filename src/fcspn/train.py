"""Masked focal loss, momentum SGD with weight decay, and the crop-batch loop.

One optimizer step consumes a batch of randomly positioned crops (full
spectral extent, fixed spatial window), stacked on the network's crop axis:
the batch runs forward once, the focal loss averages each crop's own mean
over the ``(classes, crops, H, W)`` logits, and one backward pass
distributes the gradient.  An epoch is one optimizer step.  Only the focal
loss is on the tape, so ``.grad`` is the loss gradient; :func:`sgd_step`
decays the conv weights, for SGD the same update as an L2 penalty's gradient.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import tensor as T
from .data import HsiCube, LabelMap, SplitMask
from .model import FcspnModel
from .ops import ModelParams
from .tensor import NumericError, ShapeError, Tensor, accumulate, record


@dataclass(frozen=True)
class TrainConfig:
    """Optimization knobs; the five core values follow the reference recipe."""

    batch_size: int = 20
    weight_decay: float = 1e-5
    epochs: int = 60
    momentum: float = 0.9
    learning_rate: float = 0.01
    focal_gamma: float = 2.0
    crop_size: Tuple[int, int] = (64, 64)
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1 or self.seed < 0:
            raise ShapeError("batch_size and epochs must be >= 1, seed >= 0")
        rates = (self.weight_decay, self.momentum, self.learning_rate, self.focal_gamma)
        if not (np.isfinite(rates).all() and min(rates) >= 0):
            raise ShapeError("rates and exponents must be finite and >= 0")
        object.__setattr__(self, "crop_size",
                           (int(self.crop_size[0]), int(self.crop_size[1])))
        if min(self.crop_size) < 1:
            raise ShapeError(f"crop_size must be >= 1, got {self.crop_size}")


def focal_loss(logits: Tensor, labels: np.ndarray, gamma: float) -> Tensor:
    """Mean over crops of each crop's mean of -(1 - p_t)^gamma * log(p_t)
    over its labeled pixels.

    ``logits`` is (c, N, H, W) with ``labels`` an (N, H, W) integer id
    array.  Id 0 marks unlabeled pixels, which contribute nothing to the
    value or the gradient; every crop needs at least one labeled pixel.
    """
    if logits.data.ndim != 4:
        raise ShapeError(f"logits must be (c, N, H, W), got {logits.shape}")
    if labels.shape != logits.shape[1:]:
        raise ShapeError(f"labels {labels.shape} do not match logits {logits.shape}")
    if gamma < 0:
        raise ShapeError(f"gamma must be >= 0, got {gamma}")
    z = logits.data
    crops = z.shape[1]
    kk, ii, jj = np.nonzero(labels > 0)
    counts = np.bincount(kk, minlength=crops)
    if counts.min() == 0:
        raise ValueError("focal loss needs at least one labeled pixel in every crop")
    tt = labels[kk, ii, jj].astype(np.intp) - 1
    if tt.max() >= logits.shape[0]:
        raise ShapeError(
            f"label id {tt.max() + 1} exceeds {logits.shape[0]} classes")

    zmax = z.max(axis=0, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=0, keepdims=True)) + zmax
    logp = z - lse
    logpt = logp[tt, kk, ii, jj]
    pt = np.exp(logpt)
    one_minus = 1.0 - pt
    # pixels come crop by crop, so each crop's terms are one contiguous run
    terms = np.split(-(one_minus ** gamma) * logpt, np.cumsum(counts)[:-1])
    value = np.asarray(sum(np.mean(part) for part in terms) * (1.0 / crops),
                       dtype=z.dtype)

    def fn(g):
        if not logits.requires_grad:
            return
        # d/dz_k of -(1-p)^g log p is (A - B) * (delta_tk - p_k), where the
        # A term vanishes both at gamma = 0 and in the p -> 1 limit
        with np.errstate(divide="ignore", invalid="ignore"):
            a = gamma * one_minus ** (gamma - 1.0) * pt * logpt
        a = np.where(one_minus == 0.0, 0.0, a)
        coeff = (a - one_minus ** gamma) * (float(g) * (1.0 / crops) / counts[kk])
        p = np.exp(logp)
        dz = np.zeros_like(z)
        dz[:, kk, ii, jj] = -p[:, kk, ii, jj] * coeff
        dz[tt, kk, ii, jj] += coeff
        accumulate(logits, dz)

    return record("focal_loss", (logits,), value, fn)


def l2_penalty(params: ModelParams, weight_decay: float) -> np.ndarray:
    """(weight_decay / 2) * sum of squared convolution weights, as a 0-d
    array in the weights' dtype; a value to report, not a tape node.

    Normalization scales/shifts and biases are excluded on purpose; decaying
    them would fight the normalization layers rather than regularize.
    """
    weights = params.decayed()
    value = 0.5 * weight_decay * sum(float(np.sum(w.data ** 2)) for w in weights)
    dtype = np.result_type(*(w.data for w in weights)) if weights else np.float64
    return np.asarray(value, dtype=dtype)


def sgd_step(params: ModelParams, velocity: Dict[str, np.ndarray],
             config: TrainConfig) -> None:
    """v <- momentum * v + grad; w <- w - lr * v, with ``velocity`` keyed by
    parameter path and a new path's v zero.  Unused grads count as zero, and
    a conv weight's (``params.decayed()``) gains ``weight_decay * w``."""
    bad = [path for path, t in params.items()
           if t.grad is not None and not np.all(np.isfinite(t.grad))]
    if bad:
        raise NumericError(
            "non-finite gradient for parameter(s): " + ", ".join(sorted(bad)))
    decayed = {id(t) for t in params.decayed()}
    for path, t in params.items():
        grad = t.grad if t.grad is not None else 0.0
        if id(t) in decayed:  # decay first, the order an L2 penalty's gradient sums in
            grad = np.asarray(config.weight_decay * t.data, dtype=t.data.dtype) + grad
        v = velocity.get(path)
        if v is None:
            v = velocity[path] = np.zeros_like(t.data)
        v *= config.momentum
        v += grad
        t.data = t.data - config.learning_rate * v


def zero_grads(params: ModelParams) -> None:
    for _, t in params.items():
        t.zero_grad()


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TraceRow:
    epoch: int
    focal: float
    l2: float
    total: float


def _sample_crop(rng, height, width, crop, train_labels):
    """Crop origin with at least one training label inside, or raise."""
    ch, cw = crop
    for _ in range(200):
        r = int(rng.integers(0, height - ch + 1))
        c = int(rng.integers(0, width - cw + 1))
        if np.any(train_labels[r: r + ch, c: c + cw] > 0):
            return r, c
    raise ValueError("could not sample a crop containing training labels")


def fit_crop(model: FcspnModel, crop_size: Tuple[int, int],
             height: int, width: int) -> Tuple[int, int]:
    """``crop_size`` clamped to the scene; :class:`ShapeError` if ``model``
    cannot train on it (under ``MIN_SPATIAL``, or a one-voxel deepest block)."""
    ch, cw = min(crop_size[0], height), min(crop_size[1], width)
    deepest = model.deepest_extents(ch, cw)
    if int(np.prod(deepest)) == 1:
        raise ShapeError(
            f"crop {ch}x{cw} leaves down3 a single voxel {deepest}, so its "
            "batch normalization has one element per channel and passes no "
            "gradient; use a larger crop")
    return ch, cw


def train(cube: HsiCube, labels: LabelMap, split: SplitMask, model: FcspnModel,
          config: TrainConfig,
          on_epoch: Optional[Callable[[int, TraceRow], bool]] = None,
          trace_path=None) -> List[TraceRow]:
    """Optimize ``model`` in place; returns (and optionally writes) the trace.

    Each of the ``config.epochs`` steps runs ``batch_size`` crops of the
    ``split.train`` pixels as one batch, averages their losses and decays
    the conv weights once, in :func:`sgd_step`.  A crop :func:`fit_crop`
    rejects raises before the first step.  Deterministic for a given config.
    ``on_epoch`` may return True to stop early (the target-reached case).
    ``trace_path`` gets the rows of the finished steps also when a step
    raises (a non-finite gradient, say); a check before the first step
    writes nothing.
    """
    values, grid = cube.values, labels.grid
    if grid.shape != values.shape[1:] or split.grid.shape != grid.shape:
        raise ShapeError("cube, labels, and split extents disagree")
    train_labels = np.where(split.train, grid, 0)
    if not np.any(train_labels > 0):
        raise ValueError("training split selects no labeled pixels")

    height, width = grid.shape
    ch, cw = fit_crop(model, config.crop_size, height, width)
    if (ch, cw) != config.crop_size:
        warnings.warn(
            f"crop {config.crop_size} exceeds scene {height}x{width}; clamping",
            RuntimeWarning)

    rng = np.random.default_rng(config.seed)
    velocity: Dict[str, np.ndarray] = {}
    rows: List[TraceRow] = []
    try:
        for epoch in range(config.epochs):
            T.clear_tape()
            zero_grads(model.params)
            origins = [_sample_crop(rng, height, width, (ch, cw), train_labels)
                       for _ in range(config.batch_size)]
            # stacked in the model's dtype, so no second copy of the
            # batch is alive during the step
            x = T.Tensor(np.stack([values[:, r: r + ch, c: c + cw]
                                   for r, c in origins], dtype=model.dtype)[None])
            crop_labels = np.stack([train_labels[r: r + ch, c: c + cw]
                                    for r, c in origins])
            refined, _ = model.forward_refined(x, training=True)
            focal = focal_loss(refined, crop_labels, config.focal_gamma)
            T.backward(focal)
            penalty = l2_penalty(model.params, config.weight_decay)
            sgd_step(model.params, velocity, config)
            rows.append(TraceRow(epoch, focal.item(), penalty.item(),
                                 (focal.data + penalty).item()))
            if on_epoch is not None and on_epoch(epoch, rows[-1]):
                break
    finally:
        if trace_path is not None:
            write_trace(rows, trace_path)
    return rows


def write_trace(rows: List[TraceRow], path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["epoch", "focal", "l2", "total"])
        for row in rows:
            out.writerow([row.epoch] + [f"{v:.9g}" for v in (row.focal, row.l2, row.total)])
