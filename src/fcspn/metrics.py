"""Confusion counting and the three summary scores: OA, AA, Cohen's kappa.

Rows index the reference class, columns the predicted class.  Evaluation
restricts itself to labeled test pixels; training pixels would inflate every
score.  Every score takes the :class:`ConfusionMatrix` that :func:`confusion`
builds.  Chance agreement for kappa is computed from exact integer marginal
products so the degenerate p_e = 1 case is detected without float fuzz.
"""

import csv
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np


@dataclass
class ConfusionMatrix:
    """c x c nonnegative integer counts; counts.sum() is the pixels scored."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"confusion matrix must be square, got {counts.shape}")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValueError(f"confusion counts must be integers, got {counts.dtype}")
        if counts.min() < 0:
            raise ValueError("confusion counts must be nonnegative")
        self.counts = counts.astype(np.int64)


def _grid(x) -> np.ndarray:
    return np.asarray(getattr(x, "grid", x))


def confusion(pred, ref, mask=None,
              classes: Optional[int] = None) -> ConfusionMatrix:
    """Count (reference, predicted) pairs over the evaluation pixels.

    ``mask`` is a boolean array over the grid (a split's ``test`` half, say),
    or None for every labeled reference pixel.  The class count c is
    ``classes``, else a LabelMap reference's ``num_classes`` (ValueError
    without either); both grids' ids at scored pixels must lie in 1..c.
    """
    pred_grid = _grid(pred)
    ref_grid = _grid(ref)
    for name, grid in (("prediction", pred_grid), ("reference", ref_grid)):
        if grid.dtype.kind not in "iu":
            raise ValueError(f"{name} ids must be integers, got a {grid.dtype} grid")
    if pred_grid.shape != ref_grid.shape:
        raise ValueError(
            f"prediction {pred_grid.shape} and reference {ref_grid.shape} disagree")
    if classes is None:
        classes = getattr(ref, "num_classes", None)
    if classes is None:
        raise ValueError("unknown class count: pass classes= or a LabelMap reference")
    scored = ref_grid > 0
    if mask is not None:
        where = np.asarray(mask, dtype=bool)
        if where.shape != ref_grid.shape:
            raise ValueError(
                f"mask {where.shape} does not match grids {ref_grid.shape}")
        scored &= where
    if not np.any(scored):
        raise ValueError("no pixels selected for evaluation")
    r = ref_grid[scored].astype(np.int64)
    p = pred_grid[scored].astype(np.int64)
    if r.max() > classes:
        raise ValueError(f"reference id {r.max()} exceeds {classes} classes")
    if p.min() < 1 or p.max() > classes:
        raise ValueError(
            f"predicted ids must lie in 1..{classes}, got {p.min()}..{p.max()}")
    counts = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(counts, (r - 1, p - 1), 1)
    return ConfusionMatrix(counts)


def oa(cm: ConfusionMatrix) -> float:
    """Overall accuracy: trace over total."""
    counts = cm.counts
    total = counts.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(counts) / total)


def per_class_accuracy(cm: ConfusionMatrix) -> np.ndarray:
    """Diagonal over row sums (the recall reading of per-class accuracy)."""
    counts = cm.counts
    rows = counts.sum(axis=1)
    if np.any(rows == 0):
        missing = int(np.flatnonzero(rows == 0)[0]) + 1
        raise ValueError(f"class {missing} has no reference pixels")
    return np.diag(counts) / rows


def aa(cm: ConfusionMatrix) -> float:
    """Average accuracy: unweighted mean of per-class accuracies."""
    return float(per_class_accuracy(cm).mean())


def kappa(cm: ConfusionMatrix) -> float:
    """Cohen's kappa: agreement corrected for the chance rate of the marginals."""
    counts = cm.counts
    total = int(counts.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    observed = float(np.trace(counts) / total)
    chance_num = int(counts.sum(axis=1) @ counts.sum(axis=0))
    chance_den = total * total
    if chance_num == chance_den:
        if observed == 1.0:
            return 1.0
        raise ValueError("chance agreement is 1 but observed agreement is not")
    expected = chance_num / chance_den
    return float((observed - expected) / (1.0 - expected))


def format_report(cm: ConfusionMatrix, class_names: Sequence[str]) -> List[List[str]]:
    """Per-class accuracy rows, then OA, AA, and kappa x 100, all in percent."""
    classes = cm.counts.shape[0]
    if len(class_names) != classes:
        raise ValueError(f"{len(class_names)} names for {classes} classes")
    rows = [["class", "accuracy"]]
    for name, acc in zip(class_names, per_class_accuracy(cm)):
        rows.append([name, f"{100 * acc:.2f}"])
    rows.append(["OA", f"{100 * oa(cm):.2f}"])
    rows.append(["AA", f"{100 * aa(cm):.2f}"])
    rows.append(["kappa_x100", f"{100 * kappa(cm):.2f}"])
    return rows


def write_report(rows: Sequence[Sequence[str]], path) -> None:
    """Write the rows :func:`format_report` returned as a CSV file."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
