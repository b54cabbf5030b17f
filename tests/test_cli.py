import re
import struct

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
    # CONFIG_KEYS repeats the dataclass defaults as strings; they must agree
    assert cli.model_config_from(cli.RunConfig(), 20, 3) == \
        model.ModelConfig(in_bands=20, num_classes=3)
    assert cli.train_config_from(cli.RunConfig(), None) == train.TrainConfig()


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_defaults(tmp_path, capsys):
    assert cli.main(["synth", "--out", str(tmp_path / "s")]) == 0
    out = capsys.readouterr().out
    match = re.search(r"nearest-centroid OA: ([0-9.]+)", out)
    assert match and float(match.group(1)) > 0.99
    assert (tmp_path / "s.hsc1").exists()
    assert (tmp_path / "s.hsl1").exists()
    assert (tmp_path / "s.palette.csv").exists()
    cube = data.load_cube(tmp_path / "s.hsc1")
    assert (cube.bands, cube.rows, cube.cols) == (20, 32, 32)


def test_synth_heavy_noise_degrades(tmp_path, capsys):
    assert cli.main(["synth", "--out", str(tmp_path / "n"), "--noise", "10"]) == 0
    match = re.search(r"nearest-centroid OA: ([0-9.]+)", capsys.readouterr().out)
    assert float(match.group(1)) < 0.9


def test_synth_one_class_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        cli.main(["synth", "--out", str(tmp_path / "x"), "--classes", "1"])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_outputs(workdir):
    assert (workdir / "model.ckpt").exists()
    trace = (workdir / "model.ckpt.trace.csv").read_text().strip().splitlines()
    assert trace[0] == "epoch,step,focal,l2,total"
    assert len(trace) == 3  # 2 epochs, one step each
    for line in trace[1:]:
        assert all(np.isfinite(float(v)) for v in line.split(",")[2:])
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
    for name in ("a.ckpt", "b.ckpt"):
        assert cli.main(_train_args(workdir, tmp_path / name,
                                    "--seed", "11")) == 0
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_train_flag_overrides_config_seed(workdir, tmp_path):
    flagged = tmp_path / "seed.cfg"
    flagged.write_text(TINY_CONFIG + "train.seed = 5\n")
    assert cli.main(["train", "--cube", str(workdir / "scene.hsc1"),
                     "--labels", str(workdir / "scene.hsl1"),
                     "--config", str(flagged), "--strategy", "per_class:20",
                     "--seed", "7", "--out-ckpt", str(tmp_path / "flag.ckpt")]) == 0
    assert cli.main(_train_args(workdir, tmp_path / "plain.ckpt",
                                "--seed", "7")) == 0
    assert (tmp_path / "flag.ckpt").read_bytes() == \
        (tmp_path / "plain.ckpt").read_bytes()


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


def test_train_nan_cube_exits_numeric(workdir, tmp_path):
    cube = data.HsiCube(np.full((8, 16, 16), np.nan, dtype=np.float32))
    data.save_cube(cube, tmp_path / "nan.hsc1")
    cfg = tmp_path / "one.cfg"
    cfg.write_text("model.base_channels = 2\ntrain.epochs = 1\n"
                   "train.batch_size = 1\ntrain.crop_size = 9\ncspn.steps = 0\n")
    rc = cli.main(["train", "--cube", str(tmp_path / "nan.hsc1"),
                   "--labels", str(workdir / "scene.hsl1"),
                   "--config", str(cfg), "--strategy", "per_class:20",
                   "--out-ckpt", str(tmp_path / "nan.ckpt")])
    assert rc == 4


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


def test_classify_steps_zero_equals_refine_off(workdir, tmp_path):
    out_map = tmp_path / "zero.hsl1"
    assert cli.main(_classify_args(workdir, out_map, "--steps", "0")) == 0
    net = model.load_checkpoint(workdir / "model.ckpt")
    cube = data.normalize(data.load_cube(workdir / "scene.hsc1"))
    with no_grad():
        logits = net.forward(Tensor(cube.values[None].astype(np.float64)))
    want = logits.data.argmax(axis=0).astype(np.uint16) + 1
    assert np.array_equal(data.load_labels(out_map).grid, want)


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
    assert "running statistics" in capsys.readouterr().err
    assert not (tmp_path / "pred.hsl1").exists()


def test_classify_impossible_checkpoint_header_is_data_error(workdir, tmp_path,
                                                            monkeypatch, capsys):
    huge = tmp_path / "huge.ckpt"
    huge.write_bytes(struct.pack("<4sIIIIIBI", model.CHECKPOINT_MAGIC,
                                 model.CHECKPOINT_VERSION, 8, 2, 1 << 20, 1, 1, 4)
                     + bytes(4))

    def no_build(*args, **kwargs):
        raise AssertionError("build called before the header was bounded")

    monkeypatch.setattr(model, "build", no_build)
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


def test_classify_palette_file(workdir, tmp_path):
    palette = tmp_path / "p.csv"
    data.save_palette([(1, 255, 0, 0, "a"), (2, 0, 0, 255, "b")], palette)
    out_map = tmp_path / "pal.hsl1"
    assert cli.main(_classify_args(workdir, out_map, "--palette", str(palette),
                                   "--out-ppm", str(tmp_path / "pal.ppm"))) == 0
    raw = (tmp_path / "pal.ppm").read_bytes()
    body = raw.split(b"\n255\n", 1)[1]
    pixels = {tuple(body[k: k + 3]) for k in range(0, len(body), 3)}
    assert pixels <= {(255, 0, 0), (0, 0, 255)}


@pytest.mark.parametrize("row, message", [
    ("-1,255,0,0,x", "class_id >= 0"),
    ("1,300,0,0,x", "0..255"),
    ("1,255,0,0", "5 fields"),
], ids=["negative-class", "channel-range", "four-fields"])
def test_classify_bad_palette_row_is_data_error(workdir, tmp_path, capsys,
                                                row, message):
    palette = tmp_path / "p.csv"
    palette.write_text(f"class_id,r,g,b,name\n{row}\n")
    rc = cli.main(_classify_args(workdir, tmp_path / "pal.hsl1",
                                 "--palette", str(palette)))
    assert rc == 3
    err = capsys.readouterr().err
    assert message in err and str(row.split(",")) in err


def test_classify_max_steps_accepted(workdir, tmp_path):
    steps = str(model.MAX_CSPN_STEPS)
    assert cli.main(_classify_args(workdir, tmp_path / "s.hsl1", "--steps", steps)) == 0


@pytest.mark.parametrize("steps", [-1, model.MAX_CSPN_STEPS + 1])
def test_classify_steps_out_of_range_is_usage_error(workdir, tmp_path, steps):
    with pytest.raises(SystemExit) as info:
        cli.main(_classify_args(workdir, tmp_path / "s.hsl1", "--steps", str(steps)))
    assert info.value.code == 2
    assert not (tmp_path / "s.hsl1").exists()


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
    empty = data.SplitMask(np.zeros((16, 16), dtype=bool),
                           np.zeros((16, 16), dtype=bool))
    data.save_split(empty, tmp_path / "empty.hss1")
    rc = cli.main(["eval", "--pred", str(workdir / "scene.hsl1"),
                   "--ref", str(workdir / "scene.hsl1"),
                   "--split", str(tmp_path / "empty.hss1")])
    assert rc == 3
