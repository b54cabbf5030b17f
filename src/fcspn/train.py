"""Masked focal loss, momentum SGD with weight decay, and the crop-batch loop.

One optimizer step consumes a batch of randomly positioned crops (full
spectral extent, fixed spatial window), split into two contiguous halves
the same way on any CPU count: the first ceil(N/2) crops and the rest.
Each half is stacked on the network's crop axis and runs forward, focal
loss (the mean of its crops' own means over the ``(classes, crops, H, W)``
logits) and backward once, in :func:`_half_step`; the step's loss and
gradients are ``(n1 * L1 + n2 * L2) / N``, summed in that order, and its
normalization statistics are folded in crop order, the first half's crops
first.  On a process allowed two or more CPUs the second half runs in a
forked worker process (:class:`_Worker`) while the first runs in the
caller, each pinned to a CPU of its own, so their convolutions take the
one-thread path; otherwise the caller runs both halves, one after the
other.  Both ways give the same bits; ``taskset -c 0`` gives one process.
An epoch is one optimizer step.  Only the focal loss is on the tape, so
``.grad`` is the loss gradient; :func:`sgd_step` decays the conv weights,
for SGD the same update as an L2 penalty's gradient.
"""

from __future__ import annotations

import csv
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import ops
from . import tensor as T
from .data import HsiCube, LabelMap, SplitMask
from .model import FcspnModel, check_int
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
        check_int("batch_size", self.batch_size, 1)
        check_int("epochs", self.epochs, 1)
        check_int("seed", self.seed, 0)
        rates = (self.weight_decay, self.momentum, self.learning_rate, self.focal_gamma)
        if not (np.isfinite(rates).all() and min(rates) >= 0):
            raise ShapeError("rates and exponents must be finite and >= 0")
        crop = self.crop_size
        if not (isinstance(crop, (tuple, list)) and len(crop) == 2):
            raise ShapeError(f"crop_size must be two integers, got {crop!r}")
        for side in crop:
            check_int(f"each side of crop_size {tuple(crop)}", side, 1)
        object.__setattr__(self, "crop_size", (int(crop[0]), int(crop[1])))


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


def _half_step(model: FcspnModel, values: np.ndarray, train_labels: np.ndarray,
               origins: List[Tuple[int, int]], crop: Tuple[int, int],
               gamma: float) -> Tuple[np.ndarray, list]:
    """Forward, focal loss and backward of the crops at ``origins``, stacked
    as one batch; returns the loss and each parameter's gradient, in
    ``params.items()`` order (None where the loss does not reach it).  The
    normalization layers fold the crops' statistics as they run."""
    ch, cw = crop
    T.clear_tape()
    zero_grads(model.params)
    # stacked in the model's dtype, so no second copy of the batch is
    # alive during the step
    x = T.Tensor(np.stack([values[:, r: r + ch, c: c + cw] for r, c in origins],
                          dtype=model.dtype)[None])
    crop_labels = np.stack([train_labels[r: r + ch, c: c + cw] for r, c in origins])
    refined, _ = model.forward_refined(x, training=True)
    focal = focal_loss(refined, crop_labels, gamma)
    T.backward(focal)
    return focal.data, [t.grad for _, t in model.params.items()]


# OpenBLAS's thread-count functions under the prefixes and suffixes of its
# builds; numpy's wheels ship the 64-bit "scipy_openblas" one
_BLAS_THREADS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                 ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                 ("openblas_get_num_threads", "openblas_set_num_threads"))


def _blas_threads(count: Optional[int] = None) -> Optional[int]:
    """How many threads the loaded OpenBLAS runs, None where none is found;
    then, unless ``count`` is None, make it run ``count``.

    A process pinned to one CPU needs one: after a fork OpenBLAS starts its
    threads anew from the thread that calls it next, so they share that
    thread's CPU and spin beside it.  On a 2-core host a batch-20 step of
    32x32 crops at base 8 took 6.3 s that way, against 0.33 s.
    """
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1].lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for get_name, set_name in _BLAS_THREADS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                before = get()
                if count is not None:
                    put(count)
                return before
    return None


class _Worker:
    """A forked copy of the caller that runs the second half of each step.

    It inherits the cube, the training labels and the model; each step the
    caller sends the current parameter values and the half's crop origins,
    and it returns the half's loss, gradients and per-crop normalization
    statistics (or the exception it raised).  The caller and the worker are
    each pinned to one allowed CPU (the same one when only one is allowed)
    and run one OpenBLAS thread (:func:`_blas_threads`); :meth:`close`
    restores the caller's affinity and BLAS threads.  The worker ignores
    Ctrl-C and exits on EOF on its pipe, so it never outlives the caller.
    """

    def __init__(self, model, values, train_labels, crop, gamma):
        import multiprocessing  # about 12 ms, paid only by a split step

        self.affinity = os.sched_getaffinity(0)
        cpus = sorted(self.affinity)
        context = multiprocessing.get_context("fork")
        self.conn, there = context.Pipe()
        self.process = context.Process(
            target=_serve, name="fcspn-train-worker", daemon=True,
            args=(there, self.conn, cpus[1 % len(cpus)], model, values,
                  train_labels, crop, gamma))
        self.process.start()
        there.close()
        os.sched_setaffinity(0, {cpus[0]})
        self.blas_threads = _blas_threads(1)

    def send(self, params: ModelParams, origins) -> None:
        self.conn.send(([t.data for _, t in params.items()], origins))

    def receive(self):
        """(loss, gradients, statistics) of the half last sent."""
        try:
            out = self.conn.recv()
        except EOFError:
            raise RuntimeError("the training worker exited during a step") from None
        if isinstance(out, Exception):
            raise out
        return out

    def close(self) -> None:
        self.conn.close()
        self.process.join(timeout=5)
        if self.process.is_alive():  # still in a step whose result nobody reads
            self.process.terminate()
            self.process.join()
        os.sched_setaffinity(0, self.affinity)
        _blas_threads(self.blas_threads)


def _serve(conn, callers_end, cpu, model, values, train_labels, crop, gamma):
    """:class:`_Worker`'s loop, in the forked process."""
    import signal  # loaded already, by multiprocessing

    callers_end.close()  # so the caller's exit reaches this process as EOF
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller's finally ends it
    os.sched_setaffinity(0, {cpu})
    _blas_threads(1)
    while True:
        try:
            arrays, origins = conn.recv()
        except EOFError:
            return
        for (_, t), data in zip(model.params.items(), arrays):
            t.data = data
        try:
            loss, grads = _half_step(model, values, train_labels, origins, crop, gamma)
            out = loss, grads, [s.folded for _, s in model.params.states()]
        except Exception as exc:  # re-raised by the caller
            out = exc
        try:
            conn.send(out)
        except ConnectionError:  # the caller stopped without reading it
            return


def _start_worker(model, values, train_labels, crop, gamma) -> Optional[_Worker]:
    """A :class:`_Worker`, or None when this process may use one CPU, the
    platform has no CPU affinity or another thread is alive (a fork copies
    only the calling thread)."""
    if ops._cpus() < 2 or not hasattr(os, "sched_setaffinity"):
        return None
    ops._stop_worker()
    if threading.active_count() > 1:
        return None
    return _Worker(model, values, train_labels, crop, gamma)


def train(cube: HsiCube, labels: LabelMap, split: SplitMask, model: FcspnModel,
          config: TrainConfig,
          on_epoch: Optional[Callable[[int, TraceRow], bool]] = None,
          trace_path=None) -> List[TraceRow]:
    """Optimize ``model`` in place; returns (and optionally writes) the trace.

    Each of the ``config.epochs`` steps runs ``batch_size`` crops of the
    ``split.train`` pixels in two halves (module docstring), averages their
    losses and decays the conv weights once, in :func:`sgd_step`.  A crop
    :func:`fit_crop` rejects raises before the first step.  Deterministic
    for a given config, on any CPU count.  ``on_epoch`` may return True to
    stop early (the target-reached case).  ``trace_path`` gets the rows of
    the finished steps also when a step raises (a non-finite gradient, in
    either half, say); a check before the first step writes nothing.  A
    worker process lives only as long as this call, and while it does,
    ``on_epoch`` runs on the caller's one CPU.
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
    n = config.batch_size
    first = (n + 1) // 2  # the first half's crop count; the second's is n - first
    params = model.params
    worker = None
    try:
        if n > first:
            worker = _start_worker(model, values, train_labels, (ch, cw),
                                   config.focal_gamma)
        for epoch in range(config.epochs):
            origins = [_sample_crop(rng, height, width, (ch, cw), train_labels)
                       for _ in range(n)]
            halves = [half for half in (origins[:first], origins[first:]) if half]
            if worker is not None:
                worker.send(params, halves[1])
            here = halves[:1] if worker is not None else halves
            parts = [_half_step(model, values, train_labels, half, (ch, cw),
                                config.focal_gamma) for half in here]
            if worker is not None:
                loss, grads, stats = worker.receive()
                for (_, state), (mean, var) in zip(params.states(), stats):
                    state.fold(mean, var)
                parts.append((loss, grads))
            # (n1 * L1 + n2 * L2) / N, the same sums on one CPU or two
            sizes = [len(half) for half in halves]
            focal = sum(k * loss for k, (loss, _) in zip(sizes, parts)) / n
            for i, (_, t) in enumerate(params.items()):
                per_half = [grads[i] for _, grads in parts]
                t.grad = None if per_half[0] is None else sum(
                    k * g for k, g in zip(sizes, per_half)) / n
            penalty = l2_penalty(params, config.weight_decay)
            sgd_step(params, velocity, config)
            rows.append(TraceRow(epoch, float(focal), penalty.item(),
                                 (focal + penalty).item()))
            if on_epoch is not None and on_epoch(epoch, rows[-1]):
                break
    finally:
        if worker is not None:
            worker.close()
        if trace_path is not None:
            write_trace(rows, trace_path)
    return rows


def write_trace(rows: List[TraceRow], path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["epoch", "focal", "l2", "total"])
        for row in rows:
            out.writerow([row.epoch] + [f"{v:.9g}" for v in (row.focal, row.l2, row.total)])
