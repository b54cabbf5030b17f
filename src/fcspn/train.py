"""Masked focal loss, L2 penalty, momentum SGD, and the crop-batch loop.

One optimizer step consumes a batch of randomly positioned crops (full
spectral extent, fixed spatial window): each crop runs forward through the
network and the refinement stage, its focal loss joins a running sum, and a
single backward pass distributes the averaged gradient.  Regularization
enters the loss once, as an explicit penalty term, rather than as optimizer
weight decay, so the parameter-square-sum term is never applied twice.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import tensor as T
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
    steps_per_epoch: int = 1

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1 or self.steps_per_epoch < 1:
            raise ShapeError("batch_size, epochs, and steps_per_epoch must be >= 1")
        if min(self.weight_decay, self.momentum,
               self.learning_rate, self.focal_gamma) < 0:
            raise ShapeError("rates and exponents must be >= 0")
        object.__setattr__(self, "crop_size",
                           (int(self.crop_size[0]), int(self.crop_size[1])))
        if min(self.crop_size) < 1:
            raise ShapeError(f"crop_size must be >= 1, got {self.crop_size}")


def _label_grid(labels) -> np.ndarray:
    grid = getattr(labels, "grid", labels)
    return np.asarray(grid)


def focal_loss(logits: Tensor, labels, gamma: float) -> Tensor:
    """Mean of -(1 - p_t)^gamma * log(p_t) over labeled pixels.

    ``labels`` is an (H, W) integer grid (or a LabelMap); id 0 marks
    unlabeled pixels, which contribute nothing to the value or the gradient.
    """
    grid = _label_grid(labels)
    if logits.data.ndim != 3:
        raise ShapeError(f"logits must be (c, H, W), got {logits.shape}")
    if grid.shape != logits.shape[1:]:
        raise ShapeError(f"labels {grid.shape} do not match logits {logits.shape}")
    if gamma < 0:
        raise ShapeError(f"gamma must be >= 0, got {gamma}")
    ii, jj = np.nonzero(grid > 0)
    n = ii.size
    if n == 0:
        raise ValueError("focal loss needs at least one labeled pixel")
    tt = grid[ii, jj].astype(np.intp) - 1
    if tt.max() >= logits.shape[0]:
        raise ShapeError(
            f"label id {tt.max() + 1} exceeds {logits.shape[0]} classes")

    z = logits.data
    zmax = z.max(axis=0, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=0, keepdims=True)) + zmax
    logp = z - lse
    logpt = logp[tt, ii, jj]
    pt = np.exp(logpt)
    one_minus = 1.0 - pt
    value = np.asarray(np.mean(-(one_minus ** gamma) * logpt))

    def fn(g):
        if not logits.requires_grad:
            return
        # d/dz_k of -(1-p)^g log p is (A - B) * (delta_tk - p_k), where the
        # A term vanishes both at gamma = 0 and in the p -> 1 limit
        with np.errstate(divide="ignore", invalid="ignore"):
            a = gamma * one_minus ** (gamma - 1.0) * pt * logpt
        a = np.where(one_minus == 0.0, 0.0, a)
        coeff = (a - one_minus ** gamma) * (float(g) / n)
        p = np.exp(logp)
        dz = np.zeros_like(z)
        dz[:, ii, jj] = -p[:, ii, jj] * coeff
        dz[tt, ii, jj] += coeff
        accumulate(logits, dz)

    return record("focal_loss", (logits,), value, fn)


def l2_penalty(params: ModelParams, weight_decay: float) -> Tensor:
    """(weight_decay / 2) * sum of squared convolution weights.

    Normalization scales/shifts and biases are excluded on purpose; decaying
    them would fight the normalization layers rather than regularize.
    """
    weights = params.decayed()
    value = 0.5 * weight_decay * sum(float(np.sum(w.data ** 2)) for w in weights)

    def fn(g):
        for w in weights:
            if w.requires_grad:
                accumulate(w, (float(g) * weight_decay) * w.data)

    return record("l2_penalty", tuple(weights), np.asarray(value), fn)


class OptimizerState:
    """Momentum buffer per parameter path, shapes mirroring the registry."""

    def __init__(self, params: ModelParams):
        self.velocity: Dict[str, np.ndarray] = {
            path: np.zeros(t.shape, dtype=T.DTYPE)
            for path, t in params.items()
        }


def sgd_step(params: ModelParams, state: OptimizerState,
             config: TrainConfig) -> None:
    """v <- momentum * v + grad; w <- w - lr * v.  Unused grads count as zero."""
    bad = [path for path, t in params.items()
           if t.grad is not None and not np.all(np.isfinite(t.grad))]
    if bad:
        raise NumericError(
            "non-finite gradient for parameter(s): " + ", ".join(sorted(bad)))
    for path, t in params.items():
        grad = t.grad if t.grad is not None else 0.0
        v = state.velocity[path]
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
    step: int
    focal: float
    l2: float
    total: float


def _crop_bounds(extent: int, size: int) -> int:
    return max(0, extent - size)


def _sample_crop(rng, height, width, crop, train_labels):
    """Crop origin with at least one training label inside, or raise."""
    ch, cw = crop
    for _ in range(200):
        r = int(rng.integers(0, _crop_bounds(height, ch) + 1))
        c = int(rng.integers(0, _crop_bounds(width, cw) + 1))
        if np.any(train_labels[r: r + ch, c: c + cw] > 0):
            return r, c
    raise ValueError("could not sample a crop containing training labels")


def train(cube, labels, split, model: FcspnModel, config: TrainConfig,
          on_epoch: Optional[Callable[[int, TraceRow], bool]] = None,
          trace_path=None) -> List[TraceRow]:
    """Optimize ``model`` in place; returns (and optionally writes) the trace.

    ``cube`` supplies (B, H, W) values, ``labels`` the (H, W) class grid, and
    ``split`` the boolean training mask (LabelMap/SplitMask containers or
    plain arrays).  One optimizer step averages ``batch_size`` crop losses
    and adds the L2 term once.  Deterministic for a given config.
    ``on_epoch`` may return True to stop early (the target-reached case).
    """
    values = np.asarray(getattr(cube, "values", cube))
    grid = _label_grid(labels)
    mask = np.asarray(getattr(split, "train", split))
    if values.ndim != 3:
        raise ShapeError(f"cube values must be (B, H, W), got {values.shape}")
    if grid.shape != values.shape[1:] or mask.shape != grid.shape:
        raise ShapeError("cube, labels, and split extents disagree")
    train_labels = np.where(mask, grid, 0)
    if not np.any(train_labels > 0):
        raise ValueError("training split selects no labeled pixels")

    height, width = grid.shape
    ch, cw = config.crop_size
    if ch > height or cw > width:
        warnings.warn(
            f"crop {config.crop_size} exceeds scene {height}x{width}; clamping",
            RuntimeWarning)
        ch, cw = min(ch, height), min(cw, width)

    rng = np.random.default_rng(config.seed)
    state = OptimizerState(model.params)
    rows: List[TraceRow] = []
    for epoch in range(config.epochs):
        for step in range(config.steps_per_epoch):
            T.clear_tape()
            zero_grads(model.params)
            focal_sum: Optional[Tensor] = None
            for _ in range(config.batch_size):
                r, c = _sample_crop(rng, height, width, (ch, cw), train_labels)
                x = T.Tensor(values[None, :, r: r + ch, c: c + cw])
                refined, _ = model.forward_refined(x, training=True)
                part = focal_loss(refined, train_labels[r: r + ch, c: c + cw],
                                  config.focal_gamma)
                focal_sum = part if focal_sum is None else T.add(focal_sum, part)
            focal_mean = T.scale(focal_sum, 1.0 / config.batch_size)
            penalty = l2_penalty(model.params, config.weight_decay)
            total = T.add(focal_mean, penalty)
            T.backward(total)
            sgd_step(model.params, state, config)
            rows.append(TraceRow(epoch, step, focal_mean.item(),
                                 penalty.item(), total.item()))
        if on_epoch is not None and on_epoch(epoch, rows[-1]):
            break
    if trace_path is not None:
        write_trace(rows, trace_path)
    return rows


def write_trace(rows: List[TraceRow], path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["epoch", "step", "focal", "l2", "total"])
        for row in rows:
            out.writerow([row.epoch, row.step,
                          f"{row.focal:.9g}", f"{row.l2:.9g}", f"{row.total:.9g}"])
