import struct
import tracemalloc

import numpy as np
import pytest

from fcspn import data as D
from fcspn import model as M
from fcspn.tensor import FormatError


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_cube_coerces_to_f32():
    cube = D.HsiCube(np.arange(8, dtype=np.float64).reshape(2, 2, 2))
    assert cube.values.dtype == np.float32
    assert (cube.bands, cube.rows, cube.cols) == (2, 2, 2)


def test_cube_rejects_bad_rank():
    with pytest.raises(FormatError):
        D.HsiCube(np.zeros((2, 2)))


def test_labelmap_rejects_out_of_range():
    with pytest.raises(FormatError):
        D.LabelMap(np.array([[0, 3]]), ["a", "b"])


def test_labelmap_rejects_non_integer_ids():
    # a cast to uint16 would turn [[0.6, 1.9]] into [[0, 1]]
    with pytest.raises(FormatError, match="must be integers"):
        D.LabelMap(np.array([[0.6, 1.9]]), ["a", "b"])
    with pytest.raises(FormatError, match="must be integers"):
        D.LabelMap(np.array([[0.0, 1.0]]), ["a", "b"])


def test_split_grid_round_trip():
    grid = np.array([[0, 1], [2, 1]], dtype=np.uint8)
    split = D.SplitMask(grid)
    assert np.array_equal(split.grid, grid)
    assert np.array_equal(split.train, [[False, True], [False, True]])
    assert np.array_equal(split.test, [[False, False], [True, False]])


def test_split_rejects_bad_code_and_rank():
    with pytest.raises(FormatError, match="0, 1, or 2"):
        D.SplitMask(np.array([[0, 3]]))
    with pytest.raises(FormatError, match="must be \\(H, W\\)"):
        D.SplitMask(np.zeros((2, 2, 2), dtype=np.uint8))


# ---------------------------------------------------------------------------
# container IO
# ---------------------------------------------------------------------------

def test_cube_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    cube = D.HsiCube(rng.uniform(0, 1, (3, 4, 5)))
    path = tmp_path / "scene.hsc"
    D.save_cube(cube, path)
    again = D.load_cube(path)
    assert np.array_equal(again.values, cube.values)
    D.save_cube(again, tmp_path / "second.hsc")
    assert path.read_bytes() == (tmp_path / "second.hsc").read_bytes()


def test_cube_header_layout(tmp_path):
    path = tmp_path / "scene.hsc"
    D.save_cube(D.HsiCube(np.zeros((204, 145, 145), dtype=np.float32)[:, :2, :2]), path)
    raw = path.read_bytes()
    assert raw[:4] == b"HSC1"
    assert struct.unpack("<III", raw[4:16]) == (204, 2, 2)


def test_cube_wrong_magic_names_offset(tmp_path):
    path = tmp_path / "bad.hsc"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="offset 0"):
        D.load_cube(path)


def test_cube_truncated_payload(tmp_path):
    path = tmp_path / "short.hsc"
    path.write_bytes(b"HSC1" + struct.pack("<III", 2, 2, 2) + b"\x00" * 10)
    with pytest.raises(FormatError, match="truncated"):
        D.load_cube(path)


def test_cube_trailing_bytes(tmp_path):
    path = tmp_path / "extra.hsc"
    D.save_cube(D.HsiCube(np.zeros((1, 1, 1))), path)
    path.write_bytes(path.read_bytes() + b"!")
    with pytest.raises(FormatError, match="trailing"):
        D.load_cube(path)


def test_cube_extent_overflow(tmp_path):
    path = tmp_path / "huge.hsc"
    path.write_bytes(b"HSC1" + struct.pack("<III", 4096, 4096, 4096))
    with pytest.raises(FormatError, match="overflow"):
        D.load_cube(path)


def test_labels_round_trip(tmp_path):
    labels = D.LabelMap(np.array([[0, 1], [2, 2]]), ["corn", "oats"])
    path = tmp_path / "gt.hsl"
    D.save_labels(labels, path)
    again = D.load_labels(path)
    assert np.array_equal(again.grid, labels.grid)
    assert again.class_names == ["corn", "oats"]


def test_labels_layout(tmp_path):
    path = tmp_path / "gt.hsl"
    D.save_labels(D.LabelMap(np.array([[1]]), ["x"]), path)
    raw = path.read_bytes()
    assert raw[:4] == b"HSL1"
    assert struct.unpack("<III", raw[4:16]) == (1, 1, 1)
    assert struct.unpack("<H", raw[16:18]) == (1,)
    assert raw[18:21] == struct.pack("<H", 1) + b"x"


def test_labels_truncated_name_table(tmp_path):
    path = tmp_path / "gt.hsl"
    D.save_labels(D.LabelMap(np.array([[1]]), ["material"]), path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError, match="truncated"):
        D.load_labels(path)


def test_labels_id_beyond_class_count(tmp_path):
    path = tmp_path / "gt.hsl"
    payload = b"HSL1" + struct.pack("<III", 1, 1, 1)
    payload += struct.pack("<H", 9) + struct.pack("<H", 1) + b"x"
    path.write_bytes(payload)
    with pytest.raises(FormatError):
        D.load_labels(path)


def test_labels_many_class_names(tmp_path):
    # rows * cols * classes passes 2**31, but the file is about 190 KB
    names = [f"c{i}" for i in range(32769)]
    grid = (np.arange(65536) % 32770).reshape(65536, 1)
    path = tmp_path / "gt.hsl"
    D.save_labels(D.LabelMap(grid, names), path)
    again = D.load_labels(path)
    assert np.array_equal(again.grid, grid)
    assert again.class_names == names


def test_labels_class_ids_fit_uint16(tmp_path):
    # with 65536 names, id 65536 would be stored as 0 and read back unlabeled
    names = [f"c{i}" for i in range(65536)]
    with pytest.raises(FormatError, match="uint16"):
        D.LabelMap(np.array([[65536, 1]]), names)
    grid = np.array([[65535, 1, 0]])
    path = tmp_path / "gt.hsl"
    D.save_labels(D.LabelMap(grid, names[:-1]), path)
    again = D.load_labels(path)
    assert np.array_equal(again.grid, grid)
    assert again.class_names == names[:-1]


def test_labelmap_refuses_a_name_hsl1_cannot_hold(tmp_path):
    # HSL1 stores each name's UTF-8 byte count as a u16; "é" is two bytes
    path = tmp_path / "gt.hsl"
    grid = np.array([[1, 2]])
    with pytest.raises(FormatError, match="65535 UTF-8 bytes"):
        D.save_labels(D.LabelMap(grid, ["a", "é" * 32768]), path)
    assert not path.exists()
    D.save_labels(D.LabelMap(grid, ["a", "x" * 65535]), path)
    assert D.load_labels(path).class_names == ["a", "x" * 65535]


def test_labels_name_count_checked_against_file(tmp_path):
    path = tmp_path / "gt.hsl"
    path.write_bytes(b"HSL1" + struct.pack("<III", 1, 1, 2**32 - 1) + bytes(4))
    with pytest.raises(FormatError, match="names claimed"):
        D.load_labels(path)


@pytest.mark.parametrize("loader, raw", [
    (D.load_cube, b"HSC1" + struct.pack("<III", 2, 0, 2)),
    (D.load_labels, b"HSL1" + struct.pack("<III", 0, 2, 1)),
    (D.load_split, b"HSS1" + struct.pack("<II", 2, 0)),
], ids=["cube", "label", "split"])
def test_zero_extent_rejected(tmp_path, loader, raw):
    path = tmp_path / "zero.bin"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="extents must be >= 1"):
        loader(path)


def test_split_round_trip(tmp_path):
    split = D.SplitMask(np.array([[0, 1, 2], [2, 2, 1]], dtype=np.uint8))
    path = tmp_path / "split.hss"
    D.save_split(split, path)
    again = D.load_split(path)
    assert np.array_equal(again.grid, split.grid)
    assert path.read_bytes()[:4] == b"HSS1"


def test_split_bad_code(tmp_path):
    path = tmp_path / "split.hss"
    path.write_bytes(b"HSS1" + struct.pack("<II", 1, 1) + b"\x07")
    with pytest.raises(FormatError):
        D.load_split(path)


def _save_checkpoint(model_path):
    config = M.ModelConfig(in_bands=20, num_classes=3, base_channels=2)
    M.save_checkpoint(M.build(config, np.random.default_rng(0)), model_path)


LOADERS = {
    "cube": (D.load_cube, lambda p: D.save_cube(D.HsiCube(np.ones((1, 1, 1))), p)),
    "labels": (D.load_labels,
               lambda p: D.save_labels(D.LabelMap(np.array([[1]]), ["x"]), p)),
    "split": (D.load_split,
              lambda p: D.save_split(D.SplitMask(np.array([[1]])), p)),
    "checkpoint": (M.load_checkpoint, _save_checkpoint),
}


@pytest.mark.parametrize("junk", ["magic", "trailing"])
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_loader_rejects_large_file_in_bounded_memory(tmp_path, kind, junk):
    load, save = LOADERS[kind]
    path = tmp_path / kind
    save(path)
    raw = path.read_bytes()
    if junk == "magic":
        raw = b"NOPE" + raw[4:]
    path.write_bytes(raw + bytes(8 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=junk):
            load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_example():
    cube = D.HsiCube(np.array([2.0, 4.0, 6.0]).reshape(1, 1, 3))
    out = D.normalize(cube)
    assert np.array_equal(out.values.ravel(), [0.0, 0.5, 1.0])


def test_normalize_constant_band():
    cube = D.HsiCube(np.full((2, 2, 2), 7.0))
    out = D.normalize(cube)
    assert np.array_equal(out.values, np.zeros((2, 2, 2), dtype=np.float32))


def test_normalize_idempotent_and_bounded():
    rng = np.random.default_rng(1)
    cube = D.HsiCube(rng.uniform(-50, 90, (4, 6, 5)))
    once = D.normalize(cube)
    assert once.values.min() >= 0.0 and once.values.max() <= 1.0
    twice = D.normalize(once)
    assert np.array_equal(once.values, twice.values)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def _uniform_labels(counts):
    """A 1-row label map with the requested number of pixels per class."""
    ids = np.concatenate([np.full(n, cls + 1) for cls, n in enumerate(counts)])
    return D.LabelMap(ids.reshape(1, -1), [f"c{k}" for k in range(len(counts))])


def test_per_class_draws_exact_count():
    labels = _uniform_labels([2000, 500])
    split = D.sample_split(labels, "per_class:200", seed=0)
    per_class = [int((split.train & (labels.grid == cls)).sum()) for cls in (1, 2)]
    assert per_class == [200, 200]
    assert np.array_equal(split.test, (labels.grid > 0) & ~split.train)


def test_small_class_capped_at_fifth():
    # a class of exactly N pixels is small too: taking all N would leave
    # it no test pixel
    labels = _uniform_labels([300, 46, 28, 3, 200])
    split = D.sample_split(labels, "per_class:200", seed=1)
    per_class = [int((split.train & (labels.grid == cls)).sum())
                 for cls in (1, 2, 3, 4, 5)]
    assert per_class == [200, 10, 6, 1, 40]


def test_fraction_rounds_up():
    labels = _uniform_labels([100, 30, 7])
    split = D.sample_split(labels, "fraction:0.05", seed=3)
    per_class = [int((split.train & (labels.grid == cls)).sum())
                 for cls in (1, 2, 3)]
    assert per_class == [5, 2, 1]


def test_fraction_leaves_a_test_pixel():
    # ceil(0.6 * 2) would take both pixels of the 2-pixel class
    labels = _uniform_labels([2, 10])
    split = D.sample_split(labels, "fraction:0.6", seed=0)
    rows = [(n_train, n_test) for _, n_train, n_test in D.split_report(labels, split)]
    assert rows == [(1, 1), (6, 4)]


def test_split_deterministic_and_disjoint():
    rng = np.random.default_rng(4)
    grid = rng.integers(0, 4, (20, 20))
    labels = D.LabelMap(grid, ["a", "b", "c"])
    one = D.sample_split(labels, "per_class:30", seed=9)
    two = D.sample_split(labels, "per_class:30", seed=9)
    assert np.array_equal(one.train, two.train)
    assert not np.any(one.train & one.test)
    assert np.array_equal(one.train | one.test, grid > 0)
    other = D.sample_split(labels, "per_class:30", seed=10)
    assert not np.array_equal(one.train, other.train)


def test_empty_class_errors():
    labels = D.LabelMap(np.array([[1, 1]]), ["a", "ghost"])
    with pytest.raises(ValueError, match="class 2"):
        D.sample_split(labels, "per_class:200", seed=0)


@pytest.mark.parametrize("strategy", ["per_class:200", "fraction:0.5"])
def test_single_pixel_class_errors(strategy):
    # its one pixel would be trained on and never tested
    labels = D.LabelMap(np.array([[1, 1, 1, 2]]), ["a", "b"])
    with pytest.raises(ValueError, match="class 2 has one labeled pixel"):
        D.sample_split(labels, strategy, seed=0)


def test_parse_strategy():
    assert D.parse_strategy("per_class:200") == ("per_class", 200)
    assert D.parse_strategy("fraction:0.05") == ("fraction", 0.05)
    for bad in ("knn:3", "fraction:0", "fraction:1", "fraction:1.5", "per_class:0",
                "per_class", "fraction"):
        with pytest.raises(ValueError):
            D.parse_strategy(bad)


def test_split_report_counts():
    labels = _uniform_labels([10, 40])
    split = D.sample_split(labels, "fraction:0.1", seed=0)
    report = D.split_report(labels, split)
    assert report == [("c0", 1, 9), ("c1", 4, 36)]


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------

def test_synth_all_labeled_and_deterministic():
    cube, labels = D.synth_scene(classes=3, size=32, bands=20, noise=0.02, seed=5)
    assert cube.values.shape == (20, 32, 32)
    assert labels.grid.shape == (32, 32)
    assert labels.grid.min() >= 1
    assert sorted(np.unique(labels.grid)) == [1, 2, 3]
    cube2, labels2 = D.synth_scene(classes=3, size=32, bands=20, noise=0.02, seed=5)
    assert np.array_equal(cube.values, cube2.values)
    assert np.array_equal(labels.grid, labels2.grid)


def test_synth_sigma_zero_constant_spectra():
    cube, labels = D.synth_scene(classes=2, size=10, bands=8, noise=0.0, seed=6)
    for cls in (1, 2):
        spectra = cube.values[:, labels.grid == cls]
        assert np.array_equal(spectra, np.repeat(spectra[:, :1], spectra.shape[1], 1))


def test_synth_default_is_separable():
    cube, labels = D.synth_scene()
    assert D.nearest_centroid_oa(cube, labels) > 0.99


def test_oracle_memory_does_not_grow_with_classes():
    # every pixel is labeled; the peak must stay near a few pixels x bands
    # float64 arrays, where all 12 classes at once need about 19 MiB of differences
    cube, labels = D.synth_scene(classes=12, size=64, bands=50, noise=0.3, seed=0)
    tracemalloc.start()
    try:
        oa = D.nearest_centroid_oa(cube, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    # reference: all classes' distances in one broadcast
    spectra = cube.values.reshape(cube.bands, -1).T.astype(np.float64)
    flat = labels.grid.ravel()
    centroids = np.stack([spectra[flat == cls].mean(axis=0) for cls in range(1, 13)])
    dist2 = ((spectra[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assert oa == np.mean(dist2.argmin(axis=1) + 1 == flat)


def test_synth_identical_signatures_confusable():
    # two classes sharing one spectrum: centroids coincide up to noise, so
    # the oracle does no better than chance on the smaller class
    rng = np.random.default_rng(7)
    grid = np.ones((16, 16), dtype=np.uint16)
    grid[:, 8:] = 2
    sig = rng.uniform(0.2, 0.8, 12)
    values = np.broadcast_to(sig[:, None, None], (12, 16, 16))
    values = values + 0.02 * rng.standard_normal(values.shape)
    oa = D.nearest_centroid_oa(D.HsiCube(values), D.LabelMap(grid, ["a", "b"]))
    assert 0.3 < oa < 0.7


def test_synth_heavy_noise_degrades_oracle():
    cube, labels = D.synth_scene(noise=10.0, seed=8)
    assert D.nearest_centroid_oa(cube, labels) < 0.9


def test_synth_refuses_a_scene_without_every_class():
    # one pixel cannot hold 3 classes, nor four pixels 5
    with pytest.raises(ValueError, match="each of 3 classes"):
        D.synth_scene(classes=3, size=1)
    with pytest.raises(ValueError, match="each of 5 classes"):
        D.synth_scene(classes=5, size=2, seed=0)


def test_synth_refuses_more_classes_than_pixels_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("signatures were drawn")

    monkeypatch.setattr(D, "_draw_signatures", no_draw)
    with pytest.raises(ValueError, match="64 pixels, too few .* each of 1000 classes"):
        D.synth_scene(classes=1000, size=8)
    with pytest.raises(AssertionError, match="signatures were drawn"):
        D.synth_scene(classes=9, size=3)  # as many classes as pixels
    monkeypatch.undo()
    # ... which no layout of seed 0 gives every class
    with pytest.raises(ValueError, match="no Voronoi layout .* each of 9 classes"):
        D.synth_scene(classes=9, size=3, bands=4)


def test_synth_validation():
    with pytest.raises(ValueError):
        D.synth_scene(classes=1)
    with pytest.raises(ValueError):
        D.synth_scene(noise=-0.1)

