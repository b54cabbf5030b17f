import argparse
import colorsys
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fcspn import cli, data, model, train
from fcspn.tensor import Tensor, no_grad

TINY_CONFIG = """\
# tiny setup so the pipeline finishes in seconds
model.base_channels = 2
train.epochs = 2
train.batch_size = 2
train.crop_size = 12
cspn.steps = 2
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A synthetic scene plus one trained checkpoint, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    assert cli.main(["synth", "--out", str(root / "scene"), "--classes", "2",
                     "--size", "16", "--bands", "8", "--noise", "0.05",
                     "--seed", "1"]) == 0
    (root / "tiny.cfg").write_text(TINY_CONFIG)
    assert cli.main(["train",
                     "--cube", str(root / "scene.hsc1"),
                     "--labels", str(root / "scene.hsl1"),
                     "--config", str(root / "tiny.cfg"),
                     "--strategy", "per_class:20",
                     "--out-ckpt", str(root / "model.ckpt")]) == 0
    return root


def _train_args(root, ckpt, *extra):
    return ["train", "--cube", str(root / "scene.hsc1"),
            "--labels", str(root / "scene.hsl1"),
            "--config", str(root / "tiny.cfg"),
            "--strategy", "per_class:20", "--out-ckpt", str(ckpt), *extra]


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_key_defaults_match_dataclasses():
    assert cli.RunConfig().build(model.ModelConfig, in_bands=20, num_classes=3) == \
        model.ModelConfig(in_bands=20, num_classes=3)
    assert cli.RunConfig().build(train.TrainConfig) == train.TrainConfig()


def test_train_help_lists_every_key_with_its_default(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["train", "--help"])
    assert info.value.code == 0
    printed = re.findall(r"^  (\S+) = (\S+)  \(", capsys.readouterr().out, re.M)
    assert [key for key, _ in printed] == list(cli.CONFIG_KEYS)
    # each printed default, read back as a config file, is the field's default
    echo = tmp_path / "echo.cfg"
    echo.write_text("".join(f"{key} = {value}\n" for key, value in printed))
    cfg = cli.RunConfig(str(echo))
    assert cfg.build(model.ModelConfig, in_bands=20, num_classes=3) == \
        model.ModelConfig(in_bands=20, num_classes=3)
    assert cfg.build(train.TrainConfig) == train.TrainConfig()


def test_every_option_is_named_in_this_file():
    # static: an option that no test here names is an option no test runs
    source = Path(__file__).read_text()
    parser = cli.build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    unnamed = [(command, option) for command, sub in commands.items()
               for action in sub._actions for option in action.option_strings
               if option not in ("-h", "--help") and f'"{option}"' not in source]
    assert unnamed == []


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_defaults(tmp_path, capsys):
    assert cli.main(["synth", "--out", str(tmp_path / "s")]) == 0
    out = capsys.readouterr().out
    match = re.search(r"nearest-centroid OA: ([0-9.]+)", out)
    assert match and float(match.group(1)) > 0.99
    assert sorted(path.name for path in tmp_path.iterdir()) == ["s.hsc1", "s.hsl1"]
    cube = data.load_cube(tmp_path / "s.hsc1")
    assert (cube.bands, cube.rows, cube.cols) == (20, 32, 32)


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "fcspn", "synth",
                           "--out", str(tmp_path / "s"), "--size", "9"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == ["s.hsc1", "s.hsl1"]


@pytest.mark.parametrize("blocked", ["hsl1-directory", "missing-directory"])
def test_synth_checks_its_outputs_before_drawing(tmp_path, capsys, monkeypatch, blocked):
    def no_draw(*args, **kwargs):
        raise AssertionError("the scene was drawn")

    monkeypatch.setattr(data, "synth_scene", no_draw)
    if blocked == "hsl1-directory":
        out = tmp_path / "s"
        (tmp_path / "s.hsl1").mkdir()
    else:
        out = tmp_path / "nodir" / "s"
    before = sorted(tmp_path.rglob("*"))
    rc = cli.main(["synth", "--out", str(out)])
    assert rc == 3
    assert f"cannot write --out {out}." in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_synth_heavy_noise_degrades(tmp_path, capsys):
    assert cli.main(["synth", "--out", str(tmp_path / "n"), "--noise", "10"]) == 0
    match = re.search(r"nearest-centroid OA: ([0-9.]+)", capsys.readouterr().out)
    assert float(match.group(1)) < 0.9


@pytest.mark.parametrize("flag, value", [("--classes", "1"), ("--size", "0"),
                                         ("--bands", "0"), ("--bands", "1"),
                                         ("--bands", "2"), ("--noise", "-1"),
                                         ("--noise", "nan"), ("--noise", "inf"),
                                         ("--size", "1")],
                         ids=["classes", "size", "bands", "one-band", "two-bands", "noise",
                              "noise-nan", "noise-inf", "size-below-classes"])
def test_synth_bad_flag_is_usage_error(tmp_path, capsys, flag, value):
    rc = cli.main(["synth", "--out", str(tmp_path / "x"), flag, value])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x.hsc1").exists()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_outputs(workdir):
    assert (workdir / "model.ckpt").exists()
    trace = (workdir / "model.ckpt.trace.csv").read_text().strip().splitlines()
    assert trace[0] == "epoch,focal,l2,total"
    assert len(trace) == 3  # 2 epochs, one step each
    for line in trace[1:]:
        assert all(np.isfinite(float(v)) for v in line.split(",")[1:])
    split = data.load_split(workdir / "model.ckpt.split.hss1")
    labels = data.load_labels(workdir / "scene.hsl1")
    assert np.array_equal(split.train | split.test, labels.grid > 0)


def test_train_split_report_fraction(workdir, tmp_path, capsys):
    # argparse keeps the last --strategy, so appending one overrides the helper
    assert cli.main(_train_args(workdir, tmp_path / "f.ckpt",
                                "--strategy", "fraction:0.25")) == 0
    out = capsys.readouterr().out
    labels = data.load_labels(workdir / "scene.hsl1")
    for cls, name in enumerate(labels.class_names, start=1):
        total = int((labels.grid == cls).sum())
        want = (total + 3) // 4  # ceil of a quarter
        assert re.search(rf"{name}: train={want} test={total - want}", out)


def test_train_same_seed_identical_checkpoints(workdir, tmp_path):
    seeded = tmp_path / "seed.cfg"
    seeded.write_text(TINY_CONFIG + "train.seed = 11\n")
    for name in ("a.ckpt", "b.ckpt"):
        # argparse keeps the last --config, so appending one overrides the helper
        assert cli.main(_train_args(workdir, tmp_path / name,
                                    "--config", str(seeded))) == 0
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_train_unknown_config_key(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.base_channels = 2\nmodel.bogus = 1\n")
    rc = cli.main(["train", "--cube", str(workdir / "scene.hsc1"),
                   "--labels", str(workdir / "scene.hsl1"),
                   "--config", str(bad),
                   "--out-ckpt", str(tmp_path / "x.ckpt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "model.bogus" in err


def test_train_bad_config_value(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("train.epochs = banana\n")
    rc = cli.main(["train", "--cube", str(workdir / "scene.hsc1"),
                   "--labels", str(workdir / "scene.hsl1"),
                   "--config", str(bad),
                   "--out-ckpt", str(tmp_path / "x.ckpt")])
    assert rc == 2
    assert "train.epochs" in capsys.readouterr().err


def test_train_config_checked_before_data_is_read(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.attention_enabled = maybe\n")
    rc = cli.main(["train", "--cube", str(tmp_path / "absent.hsc1"),
                   "--labels", str(tmp_path / "absent.hsl1"),
                   "--config", str(bad), "--out-ckpt", str(tmp_path / "x.ckpt")])
    assert rc == 2
    assert "bad.cfg line 1: model.attention_enabled expects on/off, got 'maybe'" in \
        capsys.readouterr().err


@pytest.mark.parametrize("value", ["true", "yes", "1", "false", "no", "0", "On"])
def test_train_boolean_key_takes_only_on_or_off(tmp_path, capsys, value):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"model.attention_enabled = {value}\n")
    rc = cli.main(["train", "--cube", str(tmp_path / "absent.hsc1"),
                   "--labels", str(tmp_path / "absent.hsl1"),
                   "--config", str(bad), "--out-ckpt", str(tmp_path / "x.ckpt")])
    assert rc == 2
    assert f"model.attention_enabled expects on/off, got {value!r}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("line, flags, message", [
    ("model.base_channels = 0", (), "base_channels must be >= 1"),
    ("train.batch_size = 0", (), "batch_size"),
    ("", ("--strategy", "bogus:1"), "unknown strategy 'bogus:1'"),
    ("", ("--strategy", "per_class:"),
     "unknown strategy 'per_class:'; expected per_class:N or fraction:F"),
    ("", ("--strategy", "per_class:abc"),
     "unknown strategy 'per_class:abc'; expected per_class:N or fraction:F"),
    ("", ("--strategy", "fraction:x"),
     "unknown strategy 'fraction:x'; expected per_class:N or fraction:F"),
    ("", ("--strategy", "fraction:1"), "fraction must be in (0, 1), got 1.0"),
    ("train.learning_rate = nan", (), "finite"),
    ("train.learning_rate = inf", (), "finite"),
    ("train.momentum = nan", (), "finite"),
    ("train.weight_decay = inf", (), "finite"),
    ("train.focal_gamma = nan", (), "finite"),
    ("train.seed = -1", (), "seed must be >= 0"),
    ("train.epochs = 2\ntrain.epochs = 3", (),
     "line 2: train.epochs already set on line 1"),
], ids=["base-channels", "batch-size", "strategy", "strategy-no-count",
        "strategy-bad-count", "strategy-bad-fraction", "strategy-fraction-one",
        "rate-nan", "rate-inf",
        "momentum-nan", "decay-inf", "gamma-nan", "seed-key", "key-twice"])
def test_train_bad_setting_exits_2_before_data_is_read(workdir, tmp_path, capsys,
                                                      line, flags, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    for root in (tmp_path, workdir):  # no scene files under tmp_path
        rc = cli.main(["train", "--cube", str(root / "scene.hsc1"),
                       "--labels", str(root / "scene.hsl1"), "--config", str(bad),
                       "--out-ckpt", str(tmp_path / "x.ckpt"), *flags])
        out, err = capsys.readouterr()
        assert rc == 2, root
        assert message in err
        assert out == ""  # no split report before the error
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("content", [None, b"train.epochs = 2\xff\n"],
                         ids=["missing", "undecodable"])
def test_train_unreadable_config_exits_2_before_data_is_read(workdir, tmp_path, capsys,
                                                            content):
    cfg = tmp_path / "run.cfg"
    if content is not None:
        cfg.write_bytes(content)
    for root in (tmp_path, workdir):  # no scene files under tmp_path
        rc = cli.main(["train", "--cube", str(root / "scene.hsc1"),
                       "--labels", str(root / "scene.hsl1"), "--config", str(cfg),
                       "--out-ckpt", str(tmp_path / "x.ckpt")])
        out, err = capsys.readouterr()
        assert rc == 2, root
        assert f"config error: cannot read {cfg}" in err
        assert out == ""
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("crop, message", [("4", "spatial extents must be >= 8"),
                                           ("8", "leaves down3 a single voxel")],
                         ids=["below-minimum", "single-voxel-down3"])
def test_train_crop_the_model_cannot_train_on_exits_2(workdir, tmp_path, capsys,
                                                      crop, message):
    cfg = tmp_path / "crop.cfg"
    cfg.write_text(TINY_CONFIG.replace("train.crop_size = 12",
                                       f"train.crop_size = {crop}"))
    rc = cli.main(_train_args(workdir, tmp_path / "x.ckpt", "--config", str(cfg)))
    out, err = capsys.readouterr()
    assert rc == 2
    assert "config error" in err and message in err
    assert out == ""  # no split report
    assert [path.name for path in tmp_path.iterdir()] == ["crop.cfg"]


@pytest.mark.parametrize("bands, rows, named", [(4, 16, True), (8, 16, False),
                                                (8, 7, True)],
                         ids=["four-bands", "no-class-names", "scene-below-8-rows"])
def test_train_scene_the_model_cannot_fit_is_data_error(workdir, tmp_path, capsys,
                                                        bands, rows, named):
    # the cube's band count and the label map's class count size the model,
    # and no crop of a scene below 8 rows fits it
    cube = data.load_cube(workdir / "scene.hsc1")
    labels = data.load_labels(workdir / "scene.hsl1")
    data.save_cube(data.HsiCube(cube.values[:bands, :rows]), tmp_path / "cut.hsc1")
    grid = labels.grid[:rows]
    data.save_labels(data.LabelMap(grid, labels.class_names) if named else
                     data.LabelMap(np.zeros_like(grid), []), tmp_path / "cut.hsl1")
    written = sorted(tmp_path.iterdir())
    rc = cli.main(["train", "--cube", str(tmp_path / "cut.hsc1"),
                   "--labels", str(tmp_path / "cut.hsl1"),
                   "--config", str(workdir / "tiny.cfg"),
                   "--out-ckpt", str(tmp_path / "x.ckpt")])
    out, err = capsys.readouterr()
    assert rc == 3
    assert "data error" in err
    assert out == ""
    assert sorted(tmp_path.iterdir()) == written


@pytest.mark.parametrize("line", ["train.momentum = fast",
                                  "model.attention_enabled = maybe",
                                  "train.crop_size = 12by12"],
                         ids=["float", "on-off", "crop"])
def test_train_bad_typed_config_value(workdir, tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG + line + "\n")
    # argparse keeps the last --config, so appending one overrides the helper
    rc = cli.main(_train_args(workdir, tmp_path / "x.ckpt", "--config", str(bad)))
    assert rc == 2
    assert line.split(" = ")[0] in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


def test_train_bad_strategy_is_usage_error(workdir, tmp_path):
    rc = cli.main(_train_args(workdir, tmp_path / "x.ckpt",
                              "--strategy", "knn:3"))
    assert rc == 2


def test_train_nan_cube_is_data_error(workdir, tmp_path):
    cube = data.HsiCube(np.full((8, 16, 16), np.nan, dtype=np.float32))
    data.save_cube(cube, tmp_path / "nan.hsc1")
    cfg = tmp_path / "one.cfg"
    cfg.write_text("model.base_channels = 2\ntrain.epochs = 1\n"
                   "train.batch_size = 1\ntrain.crop_size = 9\ncspn.steps = 0\n")
    rc = cli.main(["train", "--cube", str(tmp_path / "nan.hsc1"),
                   "--labels", str(workdir / "scene.hsl1"),
                   "--config", str(cfg), "--strategy", "per_class:20",
                   "--out-ckpt", str(tmp_path / "nan.ckpt")])
    assert rc == 3
    assert not (tmp_path / "nan.ckpt").exists()


def test_train_weights_beyond_float32_exit_4(workdir, tmp_path, capsys):
    # the weights leave float32's range during training: the trace of the
    # finished steps is kept, and neither a checkpoint nor a split is written
    cfg = tmp_path / "wild.cfg"
    cfg.write_text(TINY_CONFIG.replace("train.epochs = 2", "train.epochs = 3")
                   + "train.learning_rate = 1e30\n")
    ckpt = tmp_path / "wild.ckpt"
    rc = cli.main(_train_args(workdir, ckpt, "--config", str(cfg)))
    assert rc == 4
    assert "float32's range" in capsys.readouterr().err
    assert len((tmp_path / "wild.ckpt.trace.csv").read_text().splitlines()) == 4
    assert not ckpt.exists()
    assert not (tmp_path / "wild.ckpt.split.hss1").exists()


@pytest.mark.parametrize("flag", ["--out-ckpt", "--out-trace", "--out-split"])
def test_train_missing_output_directory_fails_before_any_work(workdir, tmp_path, capsys,
                                                              monkeypatch, flag):
    def no_read(*args):
        raise AssertionError("the cube was read")

    monkeypatch.setattr(data, "load_cube", no_read)
    missing = str(tmp_path / "nodir" / "out")
    rc = cli.main(_train_args(workdir, tmp_path / "m.ckpt", flag, missing))
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == ""  # no split report
    assert missing in err
    assert list(tmp_path.iterdir()) == []


def test_train_single_pixel_class_exits_3_before_training(workdir, tmp_path, capsys):
    labels = data.load_labels(workdir / "scene.hsl1")
    grid = labels.grid.copy()
    lone = np.argwhere(grid == 2)[0]
    grid[grid == 2] = 1
    grid[tuple(lone)] = 2
    data.save_labels(data.LabelMap(grid, labels.class_names), tmp_path / "lone.hsl1")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc = cli.main(["train", "--cube", str(workdir / "scene.hsc1"),
                   "--labels", str(tmp_path / "lone.hsl1"),
                   "--config", str(workdir / "tiny.cfg"),
                   "--out-ckpt", str(out_dir / "x.ckpt")])
    out, err = capsys.readouterr()
    assert rc == 3
    assert "class 2 has one labeled pixel" in err
    assert out == ""  # no split report, no step
    assert list(out_dir.iterdir()) == []  # no checkpoint, trace or split


def test_train_missing_cube_is_data_error(workdir, tmp_path):
    rc = cli.main(["train", "--cube", str(tmp_path / "absent.hsc1"),
                   "--labels", str(workdir / "scene.hsl1"),
                   "--out-ckpt", str(tmp_path / "x.ckpt")])
    assert rc == 3


def test_train_label_size_mismatch_is_data_error(workdir, tmp_path, capsys):
    labels = data.load_labels(workdir / "scene.hsl1")
    data.save_labels(data.LabelMap(labels.grid[:, :12], labels.class_names),
                     tmp_path / "narrow.hsl1")
    rc = cli.main(["train", "--cube", str(workdir / "scene.hsc1"),
                   "--labels", str(tmp_path / "narrow.hsl1"),
                   "--out-ckpt", str(tmp_path / "x.ckpt")])
    assert rc == 3
    assert "disagree" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _classify_args(workdir, out_map, *extra):
    return ["classify", "--cube", str(workdir / "scene.hsc1"),
            "--ckpt", str(workdir / "model.ckpt"),
            "--out-map", str(out_map), *extra]


def test_classify_outputs(workdir, tmp_path):
    out_map = tmp_path / "pred.hsl1"
    assert cli.main(_classify_args(workdir, out_map)) == 0
    pred = data.load_labels(out_map)
    assert pred.grid.shape == (16, 16)
    assert pred.grid.min() >= 1 and pred.grid.max() <= 2
    raw = (tmp_path / "pred.hsl1.ppm").read_bytes()
    assert raw.startswith(b"P6\n16 16\n255\n")
    assert len(raw) == len(b"P6\n16 16\n255\n") + 16 * 16 * 3


def test_classify_ppm_colours_class_k_with_the_kth_hue(workdir, tmp_path):
    # of K classes, class k is hue (k - 1) / K at saturation 0.85, value 0.95
    out_map = tmp_path / "pred.hsl1"
    assert cli.main(_classify_args(workdir, out_map)) == 0
    grid = data.load_labels(out_map).grid
    classes = model.load_checkpoint(workdir / "model.ckpt").config.num_classes
    wheel = np.array([(0, 0, 0)] + [
        tuple(int(round(255 * ch))
              for ch in colorsys.hsv_to_rgb((k - 1) / classes, 0.85, 0.95))
        for k in range(1, classes + 1)], dtype=np.uint8)
    assert len(set(map(tuple, wheel[1:]))) == classes
    height, width = grid.shape
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    raw = (tmp_path / "pred.hsl1.ppm").read_bytes()
    assert raw[:len(header)] == header
    image = np.frombuffer(raw[len(header):], dtype=np.uint8)
    assert np.array_equal(image.reshape(height, width, 3), wheel[grid])


@pytest.mark.parametrize("flag", ["--out-map", "--out-ppm"])
def test_classify_missing_output_directory_fails_before_any_work(workdir, tmp_path,
                                                                 capsys, monkeypatch,
                                                                 flag):
    def no_read(*args):
        raise AssertionError("the cube was read")

    monkeypatch.setattr(data, "load_cube", no_read)
    missing = str(tmp_path / "nodir" / "out")
    rc = cli.main(_classify_args(workdir, tmp_path / "pred.hsl1", flag, missing))
    assert rc == 3
    assert missing in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_classify_map_equals_float64_inference(workdir, tmp_path):
    # classify computes in the checkpoint's float32; the same f32-rounded
    # weights in float64 give the same map
    out_map = tmp_path / "pred.hsl1"
    assert cli.main(_classify_args(workdir, out_map)) == 0
    net = model.load_checkpoint(workdir / "model.ckpt")
    assert net.params.get("head.conv.weights").data.dtype == np.float32
    net.params.cast(np.float64)
    cube = data.normalize(data.load_cube(workdir / "scene.hsc1"))
    with no_grad():
        logits, _ = net.forward_refined(Tensor(cube.values[None]))
    assert logits.data.dtype == np.float64
    want = logits.data.argmax(axis=0).astype(np.uint16) + 1
    assert np.array_equal(data.load_labels(out_map).grid, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_classify_non_finite_cube_is_data_error(workdir, tmp_path, capsys, bad):
    values = data.load_cube(workdir / "scene.hsc1").values.copy()
    values[3, 5, 7] = bad
    data.save_cube(data.HsiCube(values), tmp_path / "bad.hsc1")
    rc = cli.main(["classify", "--cube", str(tmp_path / "bad.hsc1"),
                   "--ckpt", str(workdir / "model.ckpt"),
                   "--out-map", str(tmp_path / "pred.hsl1")])
    assert rc == 3
    assert "NaN or infinity" in capsys.readouterr().err
    assert not (tmp_path / "pred.hsl1").exists()


def test_classify_non_finite_checkpoint_is_data_error(workdir, tmp_path, capsys):
    # save_checkpoint refuses NaN, so it goes into the file's bytes: the
    # payload follows the 29-byte header in sorted path order
    net = model.load_checkpoint(workdir / "model.ckpt")
    paths = sorted(net.params.paths())
    before = sum(net.params.get(path).size
                 for path in paths[:paths.index("up2.conv_b.weights")])
    raw = bytearray((workdir / "model.ckpt").read_bytes())
    struct.pack_into("<f", raw, 29 + 4 * (before + 4), np.nan)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    rc = cli.main(["classify", "--cube", str(workdir / "scene.hsc1"),
                   "--ckpt", str(bad), "--out-map", str(tmp_path / "pred.hsl1")])
    assert rc == 3
    assert "NaN or infinity" in capsys.readouterr().err
    assert not (tmp_path / "pred.hsl1").exists()


def test_classify_other_checkpoint_version_is_data_error(workdir, tmp_path, capsys):
    raw = bytearray((workdir / "model.ckpt").read_bytes())
    struct.pack_into("<I", raw, 4, model.CHECKPOINT_VERSION - 1)
    old = tmp_path / "old.ckpt"
    old.write_bytes(bytes(raw))
    rc = cli.main(["classify", "--cube", str(workdir / "scene.hsc1"),
                   "--ckpt", str(old), "--out-map", str(tmp_path / "pred.hsl1")])
    assert rc == 3
    assert "version" in capsys.readouterr().err
    assert not (tmp_path / "pred.hsl1").exists()


def test_classify_bad_running_variance_is_data_error(workdir, tmp_path, capsys):
    net = model.load_checkpoint(workdir / "model.ckpt")
    dict(net.params.states())["affinity.norm"].running_var = np.ones(5)  # 2 channels
    bad = tmp_path / "bad.ckpt"
    model.save_checkpoint(net, bad)
    rc = cli.main(["classify", "--cube", str(workdir / "scene.hsc1"),
                   "--ckpt", str(bad), "--out-map", str(tmp_path / "pred.hsl1")])
    assert rc == 3
    assert "12 trailing bytes" in capsys.readouterr().err  # 3 floats
    assert not (tmp_path / "pred.hsl1").exists()


def test_classify_impossible_checkpoint_header_is_data_error(workdir, tmp_path,
                                                            monkeypatch, capsys):
    huge = tmp_path / "huge.ckpt"
    huge.write_bytes(struct.pack("<4sIIIIIBI", model.CHECKPOINT_MAGIC,
                                 model.CHECKPOINT_VERSION, 8, 2, 1 << 20, 1, 1, 4)
                     + bytes(4))

    def no_build(*args, **kwargs):
        raise AssertionError("build called before the header was bounded")

    monkeypatch.setattr(model, "FcspnModel", no_build)
    rc = cli.main(["classify", "--cube", str(workdir / "scene.hsc1"),
                   "--ckpt", str(huge), "--out-map", str(tmp_path / "pred.hsl1")])
    assert rc == 3
    assert "bytes" in capsys.readouterr().err
    assert not (tmp_path / "pred.hsl1").exists()


def test_classify_unbounded_cspn_steps_is_data_error(workdir, tmp_path, capsys):
    raw = bytearray((workdir / "model.ckpt").read_bytes())
    struct.pack_into("<I", raw, struct.calcsize("<4sIIIIIB"), 2**32 - 1)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    rc = cli.main(["classify", "--cube", str(workdir / "scene.hsc1"),
                   "--ckpt", str(bad), "--out-map", str(tmp_path / "pred.hsl1")])
    assert rc == 3
    assert "cspn_steps" in capsys.readouterr().err
    assert not (tmp_path / "pred.hsl1").exists()


def test_classify_band_mismatch(workdir, tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path / "other"),
                     "--bands", "6", "--size", "16"]) == 0
    rc = cli.main(["classify", "--cube", str(tmp_path / "other.hsc1"),
                   "--ckpt", str(workdir / "model.ckpt"),
                   "--out-map", str(tmp_path / "x.hsl1")])
    assert rc == 3


def test_classify_more_classes_than_a_label_map_holds_exits_3_before_forward(
        workdir, tmp_path, capsys, monkeypatch):
    # base 1, no residual unit, no gate, no propagation: the head holds a
    # weight and a bias per class, so 70000 classes take 2 * 4465 floats
    # more than the most a label map holds
    classes = data.MAX_CLASSES + 4465
    most = model.ModelConfig(in_bands=8, num_classes=data.MAX_CLASSES, base_channels=1,
                             dsr_per_stage=0, attention_enabled=False, cspn_steps=0)
    floats = model._payload_floats(most) + 2 * (classes - data.MAX_CLASSES)
    wide = tmp_path / "wide.ckpt"
    wide.write_bytes(struct.pack("<4sIIIIIBI", model.CHECKPOINT_MAGIC,
                                 model.CHECKPOINT_VERSION, 8, classes, 1, 0, 0, 0)
                     + bytes(4 * floats))

    def no_forward(*args, **kwargs):
        raise AssertionError("forward_refined ran")

    monkeypatch.setattr(model.FcspnModel, "forward_refined", no_forward)
    rc = cli.main(["classify", "--cube", str(workdir / "scene.hsc1"),
                   "--ckpt", str(wide), "--out-map", str(tmp_path / "pred.hsl1")])
    assert rc == 3
    assert f"num_classes must be in [1, {data.MAX_CLASSES}]" in capsys.readouterr().err
    assert not (tmp_path / "pred.hsl1").exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_perfect_prediction(workdir, tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    rc = cli.main(["eval", "--pred", str(workdir / "scene.hsl1"),
                   "--ref", str(workdir / "scene.hsl1"),
                   "--out-csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "OA: 100.00" in out and "AA: 100.00" in out
    assert "kappa_x100: 100.00" in out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "class,accuracy"
    assert lines[-1] == "kappa_x100,100.00"
    assert len(lines) == 1 + 2 + 3  # header, per-class rows, three summaries


def test_eval_uses_test_half_of_split(workdir, tmp_path, capsys):
    out_map = tmp_path / "pred.hsl1"
    assert cli.main(_classify_args(workdir, out_map)) == 0
    rc = cli.main(["eval", "--pred", str(out_map),
                   "--ref", str(workdir / "scene.hsl1"),
                   "--split", str(workdir / "model.ckpt.split.hss1")])
    assert rc == 0
    assert "OA:" in capsys.readouterr().out


def test_eval_disjoint_split_errors(workdir, tmp_path):
    empty = data.SplitMask(np.zeros((16, 16), dtype=np.uint8))
    data.save_split(empty, tmp_path / "empty.hss1")
    rc = cli.main(["eval", "--pred", str(workdir / "scene.hsl1"),
                   "--ref", str(workdir / "scene.hsl1"),
                   "--split", str(tmp_path / "empty.hss1")])
    assert rc == 3


def test_eval_missing_output_directory_fails_before_any_work(workdir, tmp_path, capsys,
                                                             monkeypatch):
    def no_read(*args):
        raise AssertionError("a label map was read")

    monkeypatch.setattr(data, "load_labels", no_read)
    missing = str(tmp_path / "nodir" / "report.csv")
    rc = cli.main(["eval", "--pred", str(workdir / "scene.hsl1"),
                   "--ref", str(workdir / "scene.hsl1"), "--out-csv", missing])
    assert rc == 3
    assert missing in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flag", [
    ("train", "--out-ckpt"), ("classify", "--out-map"), ("eval", "--out-csv")])
def test_output_naming_a_directory_fails_before_any_work(workdir, tmp_path, capsys,
                                                         monkeypatch, command, flag):
    def no_read(*args):
        raise AssertionError("an input was read")

    monkeypatch.setattr(data, "load_cube", no_read)
    monkeypatch.setattr(data, "load_labels", no_read)
    target = tmp_path / "out"
    target.mkdir()
    argv = {"train": _train_args(workdir, target),
            "classify": _classify_args(workdir, target),
            "eval": ["eval", "--pred", str(workdir / "scene.hsl1"),
                     "--ref", str(workdir / "scene.hsl1"), "--out-csv", str(target)]}
    rc = cli.main(argv[command])
    out, err = capsys.readouterr()
    assert rc == 3
    assert f"{flag} {target}: it is a directory" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == [target]  # no trace beside it
    assert list(target.iterdir()) == []


# ---------------------------------------------------------------------------
# one file per path
# ---------------------------------------------------------------------------

_TRAIN = ["train", "--cube", "scene.hsc1", "--labels", "scene.hsl1",
          "--config", "tiny.cfg", "--strategy", "per_class:20"]
_CLASSIFY = ["classify", "--cube", "scene.hsc1", "--ckpt", "model.ckpt"]
_EVAL = ["eval", "--pred", "scene.hsl1", "--ref", "scene.hsl1",
         "--split", "model.ckpt.split.hss1"]


@pytest.mark.parametrize("argv, message", [
    (_TRAIN + ["--out-ckpt", "m.ckpt", "--out-split", "m.ckpt"],
     "--out-split and --out-ckpt"),
    (_TRAIN + ["--out-ckpt", "m.ckpt", "--out-split", "m.ckpt.trace.csv"],
     "--out-split and --out-trace"),
    (_TRAIN + ["--out-ckpt", "scene.hsc1"], "--out-ckpt and --cube"),
    (_TRAIN + ["--out-ckpt", "m.ckpt", "--out-trace", "./sub/../tiny.cfg"],
     "--out-trace and --config"),
    (_TRAIN + ["--out-ckpt", "link.ckpt"], "--out-ckpt and --labels"),
    (_CLASSIFY + ["--out-map", "q.hsl1", "--out-ppm", "q.hsl1"],
     "--out-ppm and --out-map"),
    (_CLASSIFY + ["--out-map", "model.ckpt"], "--out-map and --ckpt"),
    (_CLASSIFY + ["--out-map", "q.hsl1", "--out-ppm", "scene.hsc1"],
     "--out-ppm and --cube"),
    (_EVAL + ["--out-csv", "scene.hsl1"], "--out-csv and --ref"),
    (_EVAL + ["--out-csv", "link.ckpt"], "--out-csv and --ref"),
    (_EVAL + ["--out-csv", "model.ckpt.split.hss1"], "--out-csv and --split"),
], ids=["train-split-on-ckpt", "train-split-on-default-trace", "train-ckpt-on-cube",
        "train-trace-on-config", "train-ckpt-symlink-to-labels",
        "classify-ppm-on-map", "classify-map-on-ckpt", "classify-ppm-on-cube",
        "eval-csv-on-labels", "eval-csv-symlink-to-labels", "eval-csv-on-split"])
def test_two_paths_of_one_run_naming_one_file_exit_2(workdir, tmp_path, monkeypatch,
                                                     capsys, argv, message):
    for name in ("scene.hsc1", "scene.hsl1", "tiny.cfg", "model.ckpt",
                 "model.ckpt.split.hss1"):
        (tmp_path / name).write_bytes((workdir / name).read_bytes())
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.ckpt").symlink_to("scene.hsl1")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()
              if path.is_file()}

    def no_read(*args):
        raise AssertionError("an input was read")

    for module, name in ((data, "load_cube"), (data, "load_labels"),
                         (data, "load_split"), (model, "load_checkpoint")):
        monkeypatch.setattr(module, name, no_read)
    monkeypatch.chdir(tmp_path)
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert rc == 2
    assert "config error" in err and message in err
    assert out == ""
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()
            if path.is_file()} == before
