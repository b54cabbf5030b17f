import math
import warnings

import numpy as np
import pytest

import gradcheck
from fcspn import data as D
from fcspn import model as M
from fcspn import ops
from fcspn import tensor as T
from fcspn import train as TR


def setup_function(_):
    T.clear_tape()


# ---------------------------------------------------------------------------
# focal loss
# ---------------------------------------------------------------------------

def test_focal_single_pixel_half_probability():
    # two equal logits -> p_t = 0.5; gamma 2 -> 0.25 * ln 2
    logits = T.zeros((2, 1, 1, 1))
    labels = np.array([[[1]]])
    loss = TR.focal_loss(logits, labels, gamma=2.0)
    assert loss.item() == pytest.approx(0.25 * math.log(2), abs=1e-12)


def test_focal_gamma_zero_is_cross_entropy():
    rng = np.random.default_rng(1)
    z = rng.uniform(-2, 2, (4, 1, 5, 6))
    labels = rng.integers(0, 5, (1, 5, 6))
    zc, lc = z[:, 0], labels[0]
    ii, jj = np.nonzero(lc > 0)
    logp = zc - (np.log(np.exp(zc - zc.max(0)).sum(0)) + zc.max(0))
    want = -logp[lc[ii, jj] - 1, ii, jj].mean()
    got = TR.focal_loss(T.Tensor(z), labels, gamma=0.0).item()
    assert got == pytest.approx(want, abs=1e-12)


def test_focal_perfect_prediction_is_zero():
    labels = np.array([[[1, 2]]])
    z = np.full((2, 1, 1, 2), -60.0)
    z[0, 0, 0, 0] = 60.0
    z[1, 0, 0, 1] = 60.0
    loss = TR.focal_loss(T.Tensor(z), labels, gamma=2.0)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_focal_ignores_unlabeled():
    rng = np.random.default_rng(2)
    z = rng.uniform(-1, 1, (3, 1, 4, 4))
    labels = rng.integers(0, 4, (1, 4, 4))
    labels[0, 0, 0] = 0
    base = TR.focal_loss(T.Tensor(z), labels, gamma=2.0).item()
    z2 = z.copy()
    z2[:, labels == 0] = 99.0
    again = TR.focal_loss(T.Tensor(z2), labels, gamma=2.0).item()
    assert again == pytest.approx(base, abs=1e-15)


def test_focal_unlabeled_pixels_get_zero_grad():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, (1, 4, 4))
    labels[0, 1, 1] = 0
    t = T.Tensor(rng.uniform(-1, 1, (2, 1, 4, 4)), requires_grad=True)
    T.backward(TR.focal_loss(t, labels, gamma=2.0))
    assert np.array_equal(t.grad[:, labels == 0], np.zeros((2, (labels == 0).sum())))


def test_focal_batch_is_mean_of_crop_means():
    rng = np.random.default_rng(6)
    z = rng.uniform(-2, 2, (3, 4, 5, 5))
    labels = rng.integers(1, 4, (4, 5, 5))
    for k, unlabeled in enumerate((0, 5, 17, 24)):  # 25, 20, 8 and 1 labeled
        labels[k].flat[:unlabeled] = 0
    batch = T.Tensor(z, requires_grad=True)
    T.backward(TR.focal_loss(batch, labels, gamma=2.0))
    values, grads = [], []
    for k in range(4):
        crop = T.Tensor(z[:, k:k + 1], requires_grad=True)
        part = TR.focal_loss(crop, labels[k:k + 1], gamma=2.0)
        T.backward(part)
        values.append(part.item())
        grads.append(crop.grad)
    with T.no_grad():
        pooled = TR.focal_loss(T.Tensor(z.reshape(3, 1, 20, 5)),
                               labels.reshape(1, 20, 5), gamma=2.0).item()
    want = sum(values) / 4
    assert abs(pooled - want) > 1e-3  # a pooled mean weighs crops by label count
    assert TR.focal_loss(T.Tensor(z), labels, gamma=2.0).item() == pytest.approx(
        want, rel=1e-15)
    assert np.allclose(batch.grad, np.concatenate(grads, axis=1) / 4, rtol=1e-15, atol=0)


def test_focal_every_crop_needs_a_label():
    labels = np.ones((2, 3, 3), dtype=int)
    labels[1] = 0
    with pytest.raises(ValueError, match="every crop"):
        TR.focal_loss(T.zeros((2, 2, 3, 3)), labels, gamma=2.0)


def test_focal_no_labels_errors():
    with pytest.raises(ValueError):
        TR.focal_loss(T.zeros((2, 1, 3, 3)), np.zeros((1, 3, 3), dtype=int), gamma=2.0)


def test_focal_label_out_of_range():
    with pytest.raises(T.ShapeError):
        TR.focal_loss(T.zeros((2, 1, 2, 2)), np.full((1, 2, 2), 3), gamma=2.0)


@pytest.mark.parametrize("gamma", [0.0, 2.0])
def test_focal_gradcheck(gamma):
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 4, (1, 3, 4))
    labels.flat[0] = 1  # at least one labeled pixel

    def build(z):
        return TR.focal_loss(z, labels, gamma=gamma)

    for _ in range(10):
        gradcheck.check_grads(build, [rng.uniform(-2, 2, (3, 1, 3, 4))])


# ---------------------------------------------------------------------------
# l2 penalty
# ---------------------------------------------------------------------------

def _one_weight_params(value):
    params = ops.ModelParams()
    w = T.Tensor(np.asarray(value), requires_grad=True)
    params.register("w.weights", w, decay=True)
    params.register("w.bias", T.Tensor([3.0], requires_grad=True))
    params.register("n.scale", T.Tensor([2.0], requires_grad=True))
    return params, w


def test_l2_examples():
    params, _ = _one_weight_params([2.0])
    assert TR.l2_penalty(params, 1e-5).item() == pytest.approx(2e-5, abs=1e-18)
    assert TR.l2_penalty(params, 2e-5).item() == pytest.approx(4e-5, abs=1e-18)
    zero, _ = _one_weight_params([0.0])
    assert TR.l2_penalty(zero, 1e-5).item() == 0.0


def test_l2_excludes_norm_and_bias():
    params, w = _one_weight_params([2.0, -1.0])
    assert TR.l2_penalty(params, 0.5).item() == pytest.approx(0.25 * (4 + 1), abs=1e-15)
    bias, scale = params.get("w.bias"), params.get("n.scale")
    for t in (w, bias, scale):
        t.grad = np.full(t.shape, 0.5)
    cfg = TR.TrainConfig(weight_decay=0.5, momentum=0.0, learning_rate=0.1)
    TR.sgd_step(params, {}, cfg)
    # only the conv weight is decayed: it moves by lr * (g + wd * w)
    assert np.allclose(w.data, [2.0 - 0.1 * (0.5 + 1.0), -1.0 - 0.1 * (0.5 - 0.5)],
                       atol=1e-15)
    assert np.allclose(bias.data, [3.0 - 0.1 * 0.5], atol=1e-15)
    assert np.allclose(scale.data, [2.0 - 0.1 * 0.5], atol=1e-15)


# ---------------------------------------------------------------------------
# sgd
# ---------------------------------------------------------------------------

def _params_with_grad(g):
    params, w = _one_weight_params([1.0])
    w.grad = np.asarray([g])
    return params, w


def test_sgd_first_step():
    params, w = _params_with_grad(3.0)
    TR.sgd_step(params, {}, TR.TrainConfig())
    assert w.data[0] == pytest.approx(1.0 - 0.01 * (3.0 + 1e-5 * 1.0), abs=1e-15)


def test_sgd_two_steps_momentum():
    params, w = _params_with_grad(2.0)
    state = {}
    cfg = TR.TrainConfig()
    TR.sgd_step(params, state, cfg)
    w1 = w.data[0]
    w.grad = np.asarray([2.0])
    TR.sgd_step(params, state, cfg)
    # v1 = g + wd w0, v2 = 0.9 v1 + g + wd w1; w2 = w0 - 0.01 (v1 + v2)
    v1 = 2.0 + 1e-5 * 1.0
    v2 = 0.9 * v1 + 2.0 + 1e-5 * w1
    assert w.data[0] == pytest.approx(1.0 - 0.01 * (v1 + v2), abs=1e-15)


def test_sgd_zero_grad_noop():
    # a zero loss gradient leaves bias and scale alone; only the decay
    # moves the conv weight
    params, w = _params_with_grad(0.0)
    others = [params.get("w.bias"), params.get("n.scale")]
    for t in others:
        t.grad = np.zeros(t.shape)
    TR.sgd_step(params, {}, TR.TrainConfig())
    assert w.data[0] == 1.0 - 0.01 * (1e-5 * 1.0)
    assert [t.data[0] for t in others] == [3.0, 2.0]


def test_sgd_momentum_zero_is_plain_descent():
    cfg = TR.TrainConfig(momentum=0.0, learning_rate=0.1)
    params, w = _params_with_grad(1.5)
    state = {}
    expected = 1.0
    for _ in range(3):
        w.grad = np.asarray([1.5])
        TR.sgd_step(params, state, cfg)
        expected -= 0.1 * (1.5 + 1e-5 * expected)
    assert w.data[0] == pytest.approx(expected, abs=1e-12)


def test_sgd_nan_grad_aborts_with_path():
    params, w = _params_with_grad(float("nan"))
    with pytest.raises(T.NumericError, match="w.weights"):
        TR.sgd_step(params, {}, TR.TrainConfig())


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _toy_scene(rng, size=12, bands=10, classes=2):
    cube = D.HsiCube(rng.uniform(0, 1, (bands, size, size)))
    labels = D.LabelMap(rng.integers(1, classes + 1, (size, size)),
                        [f"class_{k}" for k in range(1, classes + 1)])
    return cube, labels, D.SplitMask(np.ones((size, size), dtype=np.uint8))


def _toy_model(rng, bands=10, classes=2):
    cfg = M.ModelConfig(in_bands=bands, num_classes=classes,
                        base_channels=2, cspn_steps=2)
    return M.FcspnModel(cfg, rng)


def _fast_cfg(**kw):
    kw.setdefault("batch_size", 3)
    kw.setdefault("epochs", 2)
    kw.setdefault("crop_size", (9, 9))
    return TR.TrainConfig(**kw)


def test_train_trace_is_finite_and_complete(tmp_path):
    rng = np.random.default_rng(5)
    cube, labels, split = _toy_scene(rng)
    model = _toy_model(np.random.default_rng(6))
    trace = tmp_path / "trace.csv"
    rows = TR.train(cube, labels, split, model, _fast_cfg(), trace_path=trace)
    assert len(rows) == 2
    assert all(np.isfinite([r.focal, r.l2, r.total]).all() for r in rows)
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "epoch,focal,l2,total"
    assert len(lines) == 3


def test_train_grad_is_the_focal_loss_gradient_alone(monkeypatch):
    # replay the step's two halves on an identical model with the focal
    # loss as the only loss: every gradient, conv weights included, must
    # equal (2 * g1 + 1 * g2) / 3; on one CPU both halves run here
    monkeypatch.setattr(ops, "_cpus", lambda: 1)
    cube, labels, split = _toy_scene(np.random.default_rng(5))
    model = _toy_model(np.random.default_rng(6))
    twin = _toy_model(np.random.default_rng(6))
    batch = []
    forward_refined, focal_loss = model.forward_refined, TR.focal_loss

    def spy_forward(x, **kw):
        batch.append(x.data.copy())
        return forward_refined(x, **kw)

    def spy_focal(logits, crop_labels, gamma):
        batch.append((crop_labels, gamma))
        return focal_loss(logits, crop_labels, gamma)

    monkeypatch.setattr(model, "forward_refined", spy_forward)
    monkeypatch.setattr(TR, "focal_loss", spy_focal)
    TR.train(cube, labels, split, model, _fast_cfg(epochs=1))
    halves = []
    for x, (crop_labels, gamma) in zip(batch[::2], batch[1::2]):
        T.clear_tape()
        TR.zero_grads(twin.params)
        refined, _ = twin.forward_refined(T.Tensor(x), training=True)
        T.backward(focal_loss(refined, crop_labels, gamma))
        halves.append((x.shape[1], {path: t.grad for path, t in twin.params.items()}))
    assert [size for size, _ in halves] == [2, 1]
    assert model.params.decayed()
    for path, t in model.params.items():
        want = (2 * halves[0][1][path] + 1 * halves[1][1][path]) / 3
        assert np.array_equal(t.grad, want), path


def test_train_failed_step_keeps_trace_of_finished_steps(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    cube, labels, split = _toy_scene(rng)
    model = _toy_model(np.random.default_rng(6))
    calls = []
    sgd_step = TR.sgd_step

    def diverge_on_third_call(*args):
        calls.append(None)
        if len(calls) == 3:
            raise T.NumericError("non-finite gradient for parameter(s): head.conv.weights")
        sgd_step(*args)

    monkeypatch.setattr(TR, "sgd_step", diverge_on_third_call)
    trace = tmp_path / "trace.csv"
    with pytest.raises(T.NumericError, match="head.conv.weights"):
        TR.train(cube, labels, split, model, _fast_cfg(epochs=5), trace_path=trace)
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "epoch,focal,l2,total"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]

    # a check before the first step leaves no trace file
    early = tmp_path / "early.csv"
    with pytest.raises(T.ShapeError, match="single voxel"):
        TR.train(cube, labels, split, model, _fast_cfg(crop_size=(8, 8)),
                 trace_path=early)
    assert not early.exists()


def test_train_zero_lr_constant_trace():
    rng = np.random.default_rng(7)
    cube, labels, split = _toy_scene(rng)
    model = _toy_model(np.random.default_rng(8))
    # crop covers the scene, so every batch sees identical data
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = TR.train(cube, labels, split, model,
                        _fast_cfg(learning_rate=0.0, epochs=3, crop_size=(30, 30)))
    totals = [r.total for r in rows]
    assert max(totals) - min(totals) < 1e-12


def test_train_is_deterministic():
    rng = np.random.default_rng(9)
    cube, labels, split = _toy_scene(rng)

    def run():
        model = _toy_model(np.random.default_rng(10))
        TR.train(cube, labels, split, model, _fast_cfg(seed=3))
        return model

    a, b = run(), run()
    for path in a.params.paths():
        assert np.array_equal(a.params.get(path).data, b.params.get(path).data), path


def test_train_early_stop():
    rng = np.random.default_rng(11)
    cube, labels, split = _toy_scene(rng)
    model = _toy_model(np.random.default_rng(12))
    rows = TR.train(cube, labels, split, model, _fast_cfg(epochs=5),
                    on_epoch=lambda epoch, row: epoch == 1)
    assert rows[-1].epoch == 1


def test_train_crop_clamp_warns():
    rng = np.random.default_rng(13)
    cube, labels, split = _toy_scene(rng)
    model = _toy_model(np.random.default_rng(14))
    with pytest.warns(RuntimeWarning, match="clamping"):
        TR.train(cube, labels, split, model,
                 _fast_cfg(epochs=1, crop_size=(64, 64)))


def test_one_pass_per_step(monkeypatch):
    # the tape just before each backward holds one forward pass over one
    # half of the step's crops, whatever the batch size; crops run one at a
    # time would grow it with the batch.  On one CPU both halves run here:
    # one backward at batch 1, two at batch 4
    monkeypatch.setattr(ops, "_cpus", lambda: 1)
    rng = np.random.default_rng(17)
    cube, labels, split = _toy_scene(rng)
    sizes = []
    backward = T.backward

    def counted(loss):
        sizes.append(T.tape_size())
        backward(loss)

    monkeypatch.setattr(T, "backward", counted)
    for batch_size in (1, 4):
        model = _toy_model(np.random.default_rng(18))
        TR.train(cube, labels, split, model, _fast_cfg(batch_size=batch_size, epochs=1))
    assert len(sizes) == 3
    assert sizes[0] == sizes[1] == sizes[2], sizes


def test_train_requires_labeled_split():
    rng = np.random.default_rng(15)
    cube, labels, _ = _toy_scene(rng)
    model = _toy_model(np.random.default_rng(16))
    nothing = np.zeros_like(labels.grid, dtype=np.uint8)
    with pytest.raises(ValueError):
        TR.train(cube, labels, D.SplitMask(nothing),
                 model, _fast_cfg())


# ---------------------------------------------------------------------------
# gradient reach
# ---------------------------------------------------------------------------

NETWORK = ("stem.", "down", "up", "head.")


def _first_step_loss_grads(crop):
    """Loss gradient of every registered parameter after one seeded step:
    ``grad`` itself, which holds no weight decay, so a tensor the loss
    never reaches reads exactly zero."""
    cube, labels = D.synth_scene(classes=3, size=32, bands=20, noise=0.02,
                                 seed=21)
    cube = D.normalize(cube)
    split = D.sample_split(labels, "per_class:50", seed=21)
    model = M.build(M.ModelConfig(in_bands=20, num_classes=3, base_channels=4,
                                  cspn_steps=2), np.random.default_rng(21))
    cfg = TR.TrainConfig(batch_size=2, epochs=1, crop_size=(crop, crop), seed=21)
    TR.train(cube, labels, split, model, cfg)
    return {path: np.zeros_like(t.data) if t.grad is None else t.grad
            for path, t in model.params.items()}


@pytest.mark.parametrize("crop, prefixes", [
    pytest.param(32, NETWORK, id="32x32-network"),
    pytest.param(32, ("affinity.",), id="32x32-affinity", marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 'CSPN refinement does nothing': the affinity head "
               "starts at zero, where normalize_affinity passes no gradient")),
    pytest.param(9, NETWORK, id="9x9-network"),
])
def test_first_step_reaches_every_parameter(crop, prefixes):
    grads = _first_step_loss_grads(crop)
    for prefix in prefixes:
        assert any(path.startswith(prefix) for path in grads), prefix
    dead = [path for path, g in grads.items()
            if path.startswith(prefixes) and not np.any(g)]
    assert not dead, f"no loss gradient reaches {dead}"


def test_minimum_extent_and_single_voxel_rules_both_hold():
    # at 100 bands and 4x4 the layers would give down3 (3, 1, 1), more than
    # one voxel, so only the minimum extent rejects that input
    wide = M.build(M.ModelConfig(in_bands=100, num_classes=3, base_channels=2))
    ext = wide.stem_conv.spec.out_extents((100, 4, 4))
    for down in wide.downs:
        ext = down.out_extents(ext)
    assert ext == (3, 1, 1)
    with pytest.raises(T.ShapeError, match="spatial extents must be >= 8, got 4x4"):
        wide.forward(T.zeros((100, 4, 4)))
    with pytest.raises(T.ShapeError, match="spatial extents must be >= 8, got 4x4"):
        TR.fit_crop(wide, (4, 4), 16, 16)
    # at 20 bands and 8x8 the input is accepted, and only the crop rule
    # rejects training on it
    narrow = M.build(M.ModelConfig(in_bands=20, num_classes=3, base_channels=2))
    assert narrow.forward(T.zeros((20, 8, 8))).shape == (3, 8, 8)
    with pytest.raises(T.ShapeError, match="leaves down3 a single voxel"):
        TR.fit_crop(narrow, (8, 8), 16, 16)
    assert TR.fit_crop(narrow, (9, 9), 16, 16) == (9, 9)


def test_train_rejects_crop_with_single_voxel_down3():
    # at 8x8 and 20 bands down3 is 1x1x1: its batchnorm would see one
    # element per channel and pass no gradient to any down3 tensor
    cube, labels = D.synth_scene(classes=3, size=16, bands=20, noise=0.02, seed=21)
    model = M.build(M.ModelConfig(in_bands=20, num_classes=3, base_channels=2,
                                  cspn_steps=2), np.random.default_rng(21))
    assert model.deepest_extents(8, 8) == (1, 1, 1)
    before = {path: t.data.copy() for path, t in model.params.items()}
    states = [(s.running_mean.copy(), s.running_var.copy())
              for _, s in model.params.states()]
    cfg = TR.TrainConfig(batch_size=2, epochs=1, crop_size=(8, 8), seed=21)
    with pytest.raises(T.ShapeError, match="8x8"):
        TR.train(D.normalize(cube), labels,
                 D.SplitMask((labels.grid > 0).astype(np.uint8)),
                 model, cfg)
    for path, t in model.params.items():
        assert np.array_equal(t.data, before[path]), path
        assert t.grad is None, path
    for (mean, var), (_, state) in zip(states, model.params.states()):
        assert np.array_equal(state.running_mean, mean)
        assert np.array_equal(state.running_var, var)


def test_config_validation():
    with pytest.raises(T.ShapeError):
        TR.TrainConfig(batch_size=0)
    with pytest.raises(T.ShapeError):
        TR.TrainConfig(momentum=-0.1)
    with pytest.raises(T.ShapeError):
        TR.TrainConfig(crop_size=(0, 8))


@pytest.mark.parametrize("field, value", [
    ("batch_size", 2.0), ("batch_size", True), ("epochs", 1.5), ("epochs", "3"),
    ("seed", 1.0), ("seed", False), ("crop_size", (32, 32, 32)),
    ("crop_size", (32.7, 16)), ("crop_size", (32,)), ("crop_size", 32),
    ("crop_size", (True, 8))])
def test_integer_settings_must_be_integers(field, value):
    # a float side is refused, not truncated, and a crop of one or three
    # sides is refused, not indexed or cut to two; numpy integers are integers
    numpy_ints = {"batch_size": np.int64(2), "epochs": np.int32(3),
                  "seed": np.uint8(4), "crop_size": (np.int64(16), np.int16(8))}
    assert TR.TrainConfig(**{field: numpy_ints[field]})
    with pytest.raises(T.ShapeError, match=field):
        TR.TrainConfig(**{field: value})
