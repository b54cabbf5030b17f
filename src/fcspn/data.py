"""Hyperspectral scene containers, binary IO, splits, and a synthetic generator.

Cubes travel as HSC1 files (band-major float32), label maps as HSL1
(row-major uint16 plus a class-name table), and train/test splits as HSS1
(row-major uint8: 0 unlabeled, 1 train, 2 test).  All three are little-endian
and fully specified here.  Readers check each size a header claims against
the bytes left before reading it, and count trailing bytes without reading
them (``tensor.BoundedReader``), so a malformed file is
rejected before any large allocation.  The synthetic generator builds
Voronoi regions with smooth per-class spectra so that a nearest-centroid
oracle can certify separability before any training happens.
"""

import colorsys
import csv
import math
import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .tensor import BoundedReader, FormatError

CUBE_MAGIC = b"HSC1"
LABEL_MAGIC = b"HSL1"
SPLIT_MAGIC = b"HSS1"

# Extents are u32 in the container headers, but payloads this large would
# not be addressable anyway; reject early instead of letting numpy try.
_MAX_ELEMENTS = 1 << 31


@dataclass
class HsiCube:
    """A (bands, rows, cols) reflectance stack, stored float32 like the file."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float32, order="C")
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise FormatError(f"cube values must be (B, H, W), got {arr.shape}")
        self.values = arr

    @property
    def bands(self) -> int:
        return self.values.shape[0]

    @property
    def rows(self) -> int:
        return self.values.shape[1]

    @property
    def cols(self) -> int:
        return self.values.shape[2]


@dataclass
class LabelMap:
    """Class-id grid; 0 marks unlabeled pixels, ids 1..c index class_names."""

    grid: np.ndarray
    class_names: List[str]

    def __post_init__(self):
        grid = np.asarray(self.grid)
        if grid.ndim != 2 or min(grid.shape) < 1:
            raise FormatError(f"label grid must be (H, W), got {grid.shape}")
        if grid.min() < 0 or grid.max() > len(self.class_names):
            raise FormatError(
                f"label ids must lie in 0..{len(self.class_names)}, "
                f"got range {grid.min()}..{grid.max()}")
        self.grid = grid.astype(np.uint16)
        self.class_names = [str(n) for n in self.class_names]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


@dataclass
class SplitMask:
    """Disjoint boolean train/test masks over the labeled pixels."""

    train: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        train = np.asarray(self.train, dtype=bool)
        test = np.asarray(self.test, dtype=bool)
        if train.ndim != 2 or train.shape != test.shape:
            raise FormatError(
                f"split masks must be matching (H, W), got {train.shape} "
                f"and {test.shape}")
        if np.any(train & test):
            raise FormatError("train and test masks overlap")
        self.train = train
        self.test = test

    def to_grid(self) -> np.ndarray:
        grid = np.zeros(self.train.shape, dtype=np.uint8)
        grid[self.train] = 1
        grid[self.test] = 2
        return grid

    @classmethod
    def from_grid(cls, grid: np.ndarray) -> "SplitMask":
        grid = np.asarray(grid)
        if grid.max(initial=0) > 2 or grid.min(initial=0) < 0:
            raise FormatError("split grid values must be 0, 1, or 2")
        return cls(grid == 1, grid == 2)


# ---------------------------------------------------------------------------
# container IO
# ---------------------------------------------------------------------------

def _check_magic(src: BoundedReader, magic: bytes, kind: str) -> None:
    got = src.read(4, "magic")
    if got != magic:
        raise FormatError(
            f"bad magic at offset 0: expected {magic!r} ({kind}), got {got!r}")


def _check_extents(extents: Sequence[int], what: str) -> None:
    if min(extents) < 1:
        raise FormatError(f"{what} extents must be >= 1, got {tuple(extents)}")
    if math.prod(extents) > _MAX_ELEMENTS:
        raise FormatError(f"{what} extents {tuple(extents)} overflow")


def save_cube(cube: HsiCube, path) -> None:
    with open(path, "wb") as fh:
        fh.write(CUBE_MAGIC)
        fh.write(struct.pack("<III", cube.bands, cube.rows, cube.cols))
        fh.write(cube.values.astype("<f4").tobytes())


def load_cube(path) -> HsiCube:
    with open(path, "rb") as fh:
        src = BoundedReader(fh)
        _check_magic(src, CUBE_MAGIC, "cube")
        bands, rows, cols = struct.unpack("<III", src.read(12, "cube header"))
        _check_extents((bands, rows, cols), "cube")
        payload = src.read(4 * bands * rows * cols, "cube payload")
        src.check_end("cube payload")
    values = np.frombuffer(payload, dtype="<f4").reshape(bands, rows, cols)
    return HsiCube(values)


def save_labels(labels: LabelMap, path) -> None:
    with open(path, "wb") as fh:
        fh.write(LABEL_MAGIC)
        rows, cols = labels.grid.shape
        fh.write(struct.pack("<III", rows, cols, labels.num_classes))
        fh.write(labels.grid.astype("<u2").tobytes())
        for name in labels.class_names:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)


def load_labels(path) -> LabelMap:
    with open(path, "rb") as fh:
        src = BoundedReader(fh)
        _check_magic(src, LABEL_MAGIC, "labels")
        rows, cols, classes = struct.unpack("<III", src.read(12, "label header"))
        _check_extents((rows, cols), "label")
        payload = src.read(2 * rows * cols, "label payload")
        grid = np.frombuffer(payload, dtype="<u2").reshape(rows, cols)
        left = src.left()
        if 2 * classes > left:  # each name takes at least its 2-byte length
            raise FormatError(f"truncated name table: {classes} names claimed, "
                              f"{left} bytes remain")
        names = []
        for index in range(classes):
            (length,) = struct.unpack("<H", src.read(2, f"name length {index}"))
            names.append(src.read(length, f"name {index}").decode("utf-8"))
        src.check_end("name table")
    return LabelMap(grid, names)


def save_split(split: SplitMask, path) -> None:
    with open(path, "wb") as fh:
        fh.write(SPLIT_MAGIC)
        rows, cols = split.train.shape
        fh.write(struct.pack("<II", rows, cols))
        fh.write(split.to_grid().tobytes())


def load_split(path) -> SplitMask:
    with open(path, "rb") as fh:
        src = BoundedReader(fh)
        _check_magic(src, SPLIT_MAGIC, "split")
        rows, cols = struct.unpack("<II", src.read(8, "split header"))
        _check_extents((rows, cols), "split")
        payload = src.read(rows * cols, "split payload")
        src.check_end("split payload")
    grid = np.frombuffer(payload, dtype=np.uint8).reshape(rows, cols)
    return SplitMask.from_grid(grid)


# ---------------------------------------------------------------------------
# normalization and splits
# ---------------------------------------------------------------------------

def normalize(cube: HsiCube) -> HsiCube:
    """Per-band min-max scaling to [0, 1]; a constant band maps to zeros."""
    values = cube.values
    lo = values.min(axis=(1, 2), keepdims=True)
    hi = values.max(axis=(1, 2), keepdims=True)
    span = hi - lo
    scaled = (values - lo) / np.where(span == 0, np.float32(1), span)
    return HsiCube(scaled)


def parse_strategy(text: str) -> Tuple[str, float]:
    """Parse 'per_class:200' or 'fraction:0.05'; bare names take defaults."""
    name, _, arg = text.partition(":")
    if name == "per_class":
        count = int(arg) if arg else 200
        if count < 1:
            raise ValueError(f"per_class count must be >= 1, got {count}")
        return name, count
    if name == "fraction":
        frac = float(arg) if arg else 0.05
        if not 0.0 < frac <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {frac}")
        return name, frac
    raise ValueError(
        f"unknown strategy {text!r}; expected per_class:N or fraction:F")


def _per_class_count(total: int, requested: int) -> int:
    if total >= requested:
        return requested
    # small classes fall back to a fifth of their pixels, at least one
    return max(1, -(-total // 5))


def _fraction_count(total: int, frac: float) -> int:
    # epsilon guards the float product when frac*total lands on an integer
    return min(total, max(1, math.ceil(frac * total - 1e-9)))


def sample_split(labels: LabelMap, strategy: Union[str, Tuple[str, float]],
                 seed: int) -> SplitMask:
    """Draw the training pixels per class; everything else labeled is test.

    ``strategy`` is ``per_class:N`` (N per class, capped for small classes)
    or ``fraction:F`` (stratified ceil(F*N) per class), as a string or as the
    pair :func:`parse_strategy` returns.  Deterministic for a given seed.
    """
    name, arg = parse_strategy(strategy) if isinstance(strategy, str) else strategy
    grid = labels.grid
    rng = np.random.default_rng(seed)
    train = np.zeros(grid.shape, dtype=bool)
    flat = grid.ravel()
    for cls in range(1, labels.num_classes + 1):
        pixels = np.flatnonzero(flat == cls)
        if pixels.size == 0:
            raise ValueError(f"class {cls} has no labeled pixels")
        if name == "per_class":
            count = _per_class_count(pixels.size, int(arg))
        else:
            count = _fraction_count(pixels.size, arg)
        chosen = rng.choice(pixels, size=count, replace=False)
        train.ravel()[chosen] = True
    return SplitMask(train, (grid > 0) & ~train)


def split_report(labels: LabelMap, split: SplitMask) -> List[Tuple[str, int, int]]:
    """Per-class (name, train count, test count) rows, in class-id order."""
    rows = []
    for cls, cls_name in enumerate(labels.class_names, start=1):
        members = labels.grid == cls
        rows.append((cls_name, int((members & split.train).sum()),
                     int((members & split.test).sum())))
    return rows


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------

def _bump_signature(rng: np.random.Generator, bands: int) -> np.ndarray:
    """A smooth random spectrum: four Gaussian bumps rescaled into [0.2, 0.8]."""
    grid = np.linspace(0.0, 1.0, bands)
    spectrum = np.zeros(bands)
    for _ in range(4):
        center = rng.uniform(0.0, 1.0)
        width = rng.uniform(0.08, 0.3)
        spectrum += rng.uniform(0.2, 1.0) * np.exp(-0.5 * ((grid - center) / width) ** 2)
    lo, hi = spectrum.min(), spectrum.max()
    if hi == lo:
        return np.full(bands, 0.5)
    return 0.2 + 0.6 * (spectrum - lo) / (hi - lo)


def _draw_signatures(rng: np.random.Generator, classes: int,
                     bands: int) -> np.ndarray:
    """Class spectra kept mutually distant so centroids stay separable."""
    best, best_gap = None, -1.0
    for _ in range(200):
        sigs = np.stack([_bump_signature(rng, bands) for _ in range(classes)])
        diff = sigs[:, None, :] - sigs[None, :, :]
        rms = np.sqrt((diff ** 2).mean(axis=2))
        gap = rms[~np.eye(classes, dtype=bool)].min()
        if gap > best_gap:
            best, best_gap = sigs, gap
        if gap >= 0.15:
            break
    return best


def synth_scene(classes: int = 3, size: int = 32, bands: int = 20,
                noise: float = 0.02, seed: int = 0) -> Tuple[HsiCube, LabelMap]:
    """A ``size`` x ``size`` scene of Voronoi regions with per-class bump
    spectra plus white noise.

    Every pixel is labeled.  Same seed, same scene.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if bands < 1 or noise < 0:
        raise ValueError("bands must be >= 1 and noise >= 0")
    if size < 1:
        raise ValueError(f"scene must be at least 1x1, got {size}x{size}")

    rng = np.random.default_rng(seed)
    signatures = _draw_signatures(rng, classes, bands)

    rr, cc = np.mgrid[0:size, 0:size]
    for _ in range(100):
        sites = rng.uniform((0, 0), (size, size), (3 * classes, 2))
        site_class = np.arange(3 * classes) % classes + 1
        dist2 = ((rr[..., None] - sites[:, 0]) ** 2
                 + (cc[..., None] - sites[:, 1]) ** 2)
        grid = site_class[dist2.argmin(axis=2)]
        if len(np.unique(grid)) == classes:
            break

    values = signatures[grid - 1].transpose(2, 0, 1)
    if noise > 0:
        values = values + noise * rng.standard_normal(values.shape)
    names = [f"class_{cls}" for cls in range(1, classes + 1)]
    return HsiCube(values), LabelMap(grid, names)


def nearest_centroid_oa(cube: HsiCube, labels: LabelMap) -> float:
    """Fraction of labeled pixels whose spectrum sits nearest its own class mean.

    A training-free separability oracle: scores near 1.0 mean any reasonable
    classifier should master the scene.
    """
    grid = labels.grid
    spectra = cube.values.reshape(cube.bands, -1).T.astype(np.float64)
    flat = grid.ravel()
    labeled = flat > 0
    if not np.any(labeled):
        raise ValueError("no labeled pixels to score")
    centroids = np.stack([spectra[flat == cls].mean(axis=0)
                          for cls in range(1, labels.num_classes + 1)])
    dist2 = ((spectra[labeled, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    predicted = dist2.argmin(axis=1) + 1
    return float((predicted == flat[labeled]).mean())


# ---------------------------------------------------------------------------
# palettes
# ---------------------------------------------------------------------------

def make_palette(class_names: Sequence[str]) -> List[Tuple[int, int, int, int, str]]:
    """(class_id, r, g, b, name) rows; hues spread evenly around the wheel."""
    rows = []
    for cls, name in enumerate(class_names, start=1):
        hue = (cls - 1) / len(class_names)
        rgb = colorsys.hsv_to_rgb(hue, 0.85, 0.95)
        rows.append((cls, *(int(round(255 * ch)) for ch in rgb), name))
    return rows


def save_palette(rows: Sequence[Tuple[int, int, int, int, str]], path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["class_id", "r", "g", "b", "name"])
        for row in rows:
            out.writerow(row)


def load_palette(path) -> List[Tuple[int, int, int, int, str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["class_id", "r", "g", "b", "name"]:
            raise FormatError(f"palette header must be class_id,r,g,b,name, got {header}")
        rows = []
        for record in reader:
            if len(record) != 5:
                raise FormatError(f"palette row needs 5 fields, got {record}")
            cls, red, green, blue = (int(field) for field in record[:4])
            if cls < 0 or not all(0 <= c <= 255 for c in (red, green, blue)):
                raise FormatError(
                    f"palette row needs class_id >= 0 and r,g,b in 0..255, got {record}")
            rows.append((cls, red, green, blue, record[4]))
    return rows
