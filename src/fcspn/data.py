"""Hyperspectral scene containers, binary IO, splits, and a synthetic generator.

Cubes travel as HSC1 files (band-major float32), label maps as HSL1
(row-major uint16 plus a class-name table), and train/test splits as HSS1
(row-major uint8: 0 unlabeled, 1 train, 2 test; ``SplitMask`` holds this
grid as it is).  All three are little-endian and fully specified here.
Readers check each size a header claims against the bytes left before
reading it, and count trailing bytes without reading them
(``tensor.BoundedReader``), so a malformed file is rejected before any
large allocation.  The synthetic generator builds
Voronoi regions with smooth per-class spectra so that a nearest-centroid
oracle can certify separability before any training happens.
"""

import math
import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .tensor import BoundedReader, FormatError

CUBE_MAGIC = b"HSC1"
LABEL_MAGIC = b"HSL1"
SPLIT_MAGIC = b"HSS1"

# Extents are u32 in the container headers, but payloads this large would
# not be addressable anyway; reject early instead of letting numpy try.
_MAX_ELEMENTS = 1 << 31
_MAX_CLASS_ID = np.iinfo(np.uint16).max
_MAX_NAME_BYTES = np.iinfo(np.uint16).max  # HSL1 prefixes each name with a u16


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
        if grid.dtype.kind not in "iu":
            raise FormatError(f"label ids must be integers, got a {grid.dtype} grid")
        if len(self.class_names) > _MAX_CLASS_ID:
            raise FormatError(f"class ids are uint16, so at most {_MAX_CLASS_ID} "
                              f"classes; got {len(self.class_names)} names")
        for name in self.class_names:
            size = len(str(name).encode("utf-8"))
            if size > _MAX_NAME_BYTES:
                raise FormatError(f"a class name holds at most {_MAX_NAME_BYTES} "
                                  f"UTF-8 bytes; got one of {size}")
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
    """A train/test split as the grid HSS1 stores: 0 unlabeled, 1 train,
    2 test.  One code per pixel, so train and test cannot overlap."""

    grid: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid)
        if grid.ndim != 2:
            raise FormatError(f"split grid must be (H, W), got {grid.shape}")
        if (grid.dtype.kind not in "iu" or grid.min(initial=0) < 0
                or grid.max(initial=0) > 2):
            raise FormatError("split grid values must be 0, 1, or 2")
        self.grid = grid.astype(np.uint8)

    @property
    def train(self) -> np.ndarray:
        return self.grid == 1

    @property
    def test(self) -> np.ndarray:
        return self.grid == 2


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
    if not np.all(np.isfinite(values)):
        raise FormatError("cube payload holds NaN or infinity")
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
        rows, cols = split.grid.shape
        fh.write(struct.pack("<II", rows, cols))
        fh.write(split.grid.tobytes())


def load_split(path) -> SplitMask:
    with open(path, "rb") as fh:
        src = BoundedReader(fh)
        _check_magic(src, SPLIT_MAGIC, "split")
        rows, cols = struct.unpack("<II", src.read(8, "split header"))
        _check_extents((rows, cols), "split")
        payload = src.read(rows * cols, "split payload")
        src.check_end("split payload")
    return SplitMask(np.frombuffer(payload, dtype=np.uint8).reshape(rows, cols))


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
    """Parse ``per_class:N`` (N >= 1) or ``fraction:F`` (0 < F < 1); any
    other text, a bare name included, raises one ValueError naming it."""
    name, _, arg = text.partition(":")
    try:
        value = {"per_class": int, "fraction": float}[name](arg)
    except (KeyError, ValueError):
        raise ValueError(f"unknown strategy {text!r}; "
                         "expected per_class:N or fraction:F") from None
    if name == "per_class" and value < 1:
        raise ValueError(f"per_class count must be >= 1, got {value}")
    if name == "fraction" and not 0.0 < value < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {value}")
    return name, value


def _per_class_count(total: int, requested: int) -> int:
    if total > requested:
        return requested
    # a class of at most N pixels falls back to a fifth of them, at least
    # one, so it keeps test pixels
    return max(1, -(-total // 5))


def _fraction_count(total: int, frac: float) -> int:
    # epsilon guards the float product when frac*total lands on an integer;
    # a class of two or more pixels keeps at least one test pixel
    return max(1, min(total - 1, math.ceil(frac * total - 1e-9)))


def sample_split(labels: LabelMap, strategy: str, seed: int) -> SplitMask:
    """Draw the training pixels per class; everything else labeled is test.

    ``strategy`` is ``per_class:N`` (N per class; a class of N pixels or
    fewer gives a fifth of them, at least one) or ``fraction:F``
    (stratified ceil(F*N) per class, at most all but one), as read by
    :func:`parse_strategy`.  So every class keeps a training pixel and a
    test pixel; a class with fewer than two labeled pixels cannot, and
    raises ``ValueError``.  Deterministic for a given seed.
    """
    name, arg = parse_strategy(strategy)
    rng = np.random.default_rng(seed)
    flat = labels.grid.ravel()
    codes = np.where(flat > 0, 2, 0).astype(np.uint8)
    for cls in range(1, labels.num_classes + 1):
        pixels = np.flatnonzero(flat == cls)
        if pixels.size == 0:
            raise ValueError(f"class {cls} has no labeled pixels")
        if pixels.size == 1:
            raise ValueError(f"class {cls} has one labeled pixel: it cannot "
                             "give both a training and a test pixel")
        if name == "per_class":
            count = _per_class_count(pixels.size, arg)
        else:
            count = _fraction_count(pixels.size, arg)
        codes[rng.choice(pixels, size=count, replace=False)] = 1
    return SplitMask(codes.reshape(labels.grid.shape))


def split_report(labels: LabelMap, split: SplitMask) -> List[Tuple[str, int, int]]:
    """Per-class (name, train count, test count) rows, in class-id order."""
    train, test = split.train, split.test
    rows = []
    for cls, cls_name in enumerate(labels.class_names, start=1):
        members = labels.grid == cls
        rows.append((cls_name, int((members & train).sum()),
                     int((members & test).sum())))
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

    Every pixel is labeled and every class has a region; ValueError,
    before anything is drawn, if the scene has fewer pixels than classes,
    and if none of 100 layouts gives each class a pixel.  Same seed, same
    scene.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if bands < 1 or not (np.isfinite(noise) and noise >= 0):
        raise ValueError(f"bands must be >= 1 and noise finite and >= 0, "
                         f"got {bands} and {noise}")
    if size < 1:
        raise ValueError(f"scene must be at least 1x1, got {size}x{size}")
    if classes > size * size:
        raise ValueError(f"a {size}x{size} scene has {size * size} pixels, too few "
                         f"to give each of {classes} classes a pixel")

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
    else:
        raise ValueError(f"no Voronoi layout of 100 drawn gives each of {classes} "
                         f"classes a pixel of the {size}x{size} scene")

    values = signatures[grid - 1].transpose(2, 0, 1)
    if noise > 0:
        values = values + noise * rng.standard_normal(values.shape)
    names = [f"class_{cls}" for cls in range(1, classes + 1)]
    return HsiCube(values), LabelMap(grid, names)


def nearest_centroid_oa(cube: HsiCube, labels: LabelMap) -> float:
    """Fraction of labeled pixels whose spectrum sits nearest its own class mean.

    A training-free separability oracle: scores near 1.0 mean any reasonable
    classifier should master the scene.  Distances are taken one class at a
    time, so memory does not grow with the class count.
    """
    grid = labels.grid
    spectra = cube.values.reshape(cube.bands, -1).T.astype(np.float64)
    flat = grid.ravel()
    labeled = flat > 0
    if not np.any(labeled):
        raise ValueError("no labeled pixels to score")
    centroids = np.stack([spectra[flat == cls].mean(axis=0)
                          for cls in range(1, labels.num_classes + 1)])
    points = spectra[labeled]
    dist2 = np.stack([((points - c) ** 2).sum(axis=1) for c in centroids], axis=1)
    predicted = dist2.argmin(axis=1) + 1
    return float((predicted == flat[labeled]).mean())

