"""Acceptance gates: one test per release criterion, A1 through A8.

Each test prints a single verdict line so a verbose run doubles as the
sign-off record.  The gates cover gradient correctness, convolution
equivalence against a brute-force oracle, end-to-end overfit training,
propagation identities, refinement benefit on a corrupted map, separable
parameter accounting, metric oracles, and bitwise determinism.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

import gradcheck
import oracles
from fcspn import cspn
from fcspn import data as D
from fcspn import metrics as ME
from fcspn import model as M
from fcspn import ops
from fcspn import tensor as T
from fcspn import train as TR


def _verdict(name, detail):
    print(f"{name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# A1: gradient oracle over every differentiable operation


def _grad_conv3d(rng):
    worst = 0.0
    for i in range(20):
        kernel = tuple(int(rng.integers(1, 4)) for _ in range(3))
        stride = tuple(int(rng.integers(1, 3)) for _ in range(3))
        padding = None if i % 3 == 0 else tuple(
            int(rng.integers(0, 2)) for _ in range(3))
        spec = ops.Conv3dSpec(kernel=kernel, stride=stride, padding=padding)
        cin, cout = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        x = rng.normal(0.0, 1.0, (cin,) + tuple(
            int(rng.integers(k, k + 3)) for k in kernel))
        w = rng.normal(0.0, 0.5, (cout, cin) + kernel)
        arrays = [x, w]
        if i % 2 == 0:
            arrays.append(rng.normal(0.0, 0.5, (cout,)))
        with T.no_grad():
            probe = ops.conv3d(T.Tensor(x), T.Tensor(w), None, spec)
        proj = gradcheck.projection(probe.shape, rng)

        def build(xt, wt, bt=None):
            return gradcheck.project(ops.conv3d(xt, wt, bt, spec), proj)

        worst = max(worst, gradcheck.check_grads(build, arrays))
    return worst


def _grad_batchnorm(rng):
    worst = 0.0
    for i in range(20):
        training = i < 12
        c = int(rng.integers(1, 4))
        x = rng.normal(0.0, 1.5, (c,) + tuple(
            int(rng.integers(2, 4)) for _ in range(3)))
        gamma = rng.uniform(0.5, 1.5, c)
        beta = rng.uniform(-0.5, 0.5, c)
        state = ops.BatchNormState(c)
        if not training:
            state.running_mean[:] = rng.uniform(-0.5, 0.5, c)
            state.running_var[:] = rng.uniform(0.5, 2.0, c)
        proj = gradcheck.projection(x.shape, rng)

        def build(xt, gt, bt):
            return gradcheck.project(
                ops.batchnorm(xt, gt, bt, state, training), proj)

        worst = max(worst, gradcheck.check_grads(build, [x, gamma, beta]))
    return worst


def _grad_upsample_concat(rng):
    worst = 0.0
    for _ in range(20):
        c, cm = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        x = rng.normal(0.0, 1.0, (c, 1) + tuple(
            int(rng.integers(1, 5)) for _ in range(3)))
        target = (1,) + tuple(int(rng.integers(1, 6)) for _ in range(3))
        mirror = rng.normal(0.0, 1.0, (cm,) + target)
        proj = gradcheck.projection((c + cm,) + target, rng)

        def build(xt, mt):
            return gradcheck.project(ops.upsample_concat(xt, mt), proj)

        worst = max(worst, gradcheck.check_grads(build, [x, mirror]))
    return worst


def _grad_attention(rng):
    worst = 0.0
    for _ in range(20):
        channels = int(rng.integers(1, 4))
        x = rng.normal(0.0, 1.0, (channels, 1, int(rng.integers(2, 4)),
                                  int(rng.integers(3, 5)),
                                  int(rng.integers(3, 5))))
        att = M._Attention(ops.ModelParams(), "att", channels, rng)
        w = rng.normal(0.0, 1.0, (channels, channels, 1, 1, 1))
        b = rng.uniform(-0.5, 0.5, channels)
        proj = gradcheck.projection(x.shape, rng)

        def build(xt, wt, bt):
            att.gate.w, att.gate.b = wt, bt
            return gradcheck.project(att(xt), proj)

        worst = max(worst, gradcheck.check_grads(build, [x, w, b],
                                                 nonzero=True))
    return worst


def _grad_dsr(rng):
    worst = 0.0
    for i in range(20):
        channels = int(rng.integers(2, 4))
        x = rng.normal(0.0, 1.0, (channels, 3, 4, 4))
        params = ops.ModelParams()
        unit = M._DsrUnit(params, "dsr", channels, rng)
        training = i % 2 == 0
        if not training:
            for _, state in params.states():
                state.running_mean[:] = rng.uniform(-0.3, 0.3, channels)
                state.running_var[:] = rng.uniform(0.5, 2.0, channels)
        proj = gradcheck.projection(x.shape, rng)

        def build(xt):
            return gradcheck.project(unit(xt, training), proj)

        worst = max(worst, gradcheck.check_grads(build, [x]))
    return worst


def _grad_focal(rng):
    worst = 0.0
    for i in range(20):
        c = int(rng.integers(2, 4))
        hh, ww = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        logits = rng.normal(0.0, 1.2, (c, 1, hh, ww))
        labels = rng.integers(0, c + 1, (1, hh, ww))
        labels[0, 0, 0] = 1
        gamma = (0.0, 0.5, 1.0, 2.0, 3.0)[i % 5]

        def build(lt):
            return TR.focal_loss(lt, labels, gamma)

        worst = max(worst, gradcheck.check_grads(build, [logits]))
    return worst


def _grad_normalize_affinity(rng):
    worst = 0.0
    for _ in range(20):
        hh, ww = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        # Magnitudes bounded away from zero keep the |.| kink out of the
        # finite-difference stencil.
        raw = (rng.uniform(0.2, 1.5, (8, 1, hh, ww))
               * rng.choice([-1.0, 1.0], (8, 1, hh, ww)))
        proj = gradcheck.projection((8, 1, hh, ww), rng)

        def build(rt):
            return gradcheck.project(cspn.normalize_affinity(rt), proj)

        worst = max(worst, gradcheck.check_grads(build, [raw], nonzero=True))
    return worst


def _grad_refine(rng):
    worst = 0.0
    for _ in range(20):
        c = int(rng.integers(1, 3))
        hh, ww = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        steps = int(rng.integers(2, 4))
        h0 = rng.normal(0.0, 1.0, (c, 1, hh, ww))
        k0 = rng.uniform(-0.4, 0.4, (8, 1, hh, ww))
        proj = gradcheck.projection((c, 1, hh, ww), rng)

        def build(ht, kt, steps=steps):
            return gradcheck.project(cspn.refine(ht, kt, steps), proj)

        worst = max(worst, gradcheck.check_grads(build, [h0, k0],
                                                 nonzero=True))
    return worst


def test_a1_gradient_oracle():
    """Analytic gradients match central differences (< 1e-4) for every op."""
    # (name, check, seed); each seed is fixed so that the instances of one
    # check do not depend on which other checks are listed
    checks = [
        ("conv3d", _grad_conv3d, 11),
        ("batchnorm", _grad_batchnorm, 12),
        ("upsample_concat", _grad_upsample_concat, 13),
        ("attention", _grad_attention, 15),
        ("dsr_unit", _grad_dsr, 16),
        ("focal_loss", _grad_focal, 18),
        ("normalize_affinity", _grad_normalize_affinity, 19),
        ("refine", _grad_refine, 20),
    ]
    start = time.perf_counter()
    worst = {}
    for name, fn, seed in checks:
        worst[name] = fn(np.random.default_rng(seed))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"gradient suite took {elapsed:.1f}s"
    peak = max(worst.values())
    assert peak < 1e-4
    _verdict("A1 gradient oracle",
             f"{len(checks)} ops x 20 instances, max rel err {peak:.2e}, "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# A2: conv3d forward agrees with the nested-loop oracle


def test_a2_convolution_equivalence():
    """conv3d matches brute force within 1e-12 on 100 randomized shapes."""
    rng = np.random.default_rng(202)
    worst = 0.0
    strided = padded = 0
    for i in range(100):
        kernel = tuple(int(rng.integers(1, 4)) for _ in range(3))
        stride = tuple(int(rng.integers(1, 3)) for _ in range(3))
        padding = None if i % 4 == 0 else tuple(
            int(rng.integers(0, 3)) for _ in range(3))
        spec = ops.Conv3dSpec(kernel=kernel, stride=stride, padding=padding)
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        extents = tuple(int(rng.integers(k, 8)) for k in kernel)
        x = rng.normal(0.0, 1.0, (cin,) + extents)
        w = rng.normal(0.0, 0.5, (cout, cin) + kernel)
        b = rng.normal(0.0, 0.5, (cout,)) if i % 2 == 0 else None
        with T.no_grad():
            got = ops.conv3d(T.Tensor(x), T.Tensor(w),
                             None if b is None else T.Tensor(b), spec).data
        pad = (tuple(k // 2 for k in kernel) if padding is None else padding)
        want = oracles.conv3d_reference(x, w, b, stride, pad)
        assert got.shape == want.shape
        worst = max(worst, float(np.max(np.abs(got - want))))
        strided += any(s > 1 for s in stride)
        padded += padding is not None and any(p > 0 for p in padding)
    assert strided > 0 and padded > 0
    assert worst <= 1e-12
    _verdict("A2 convolution equivalence",
             f"100 shapes, extents <= 7, max abs diff {worst:.2e}")


# ---------------------------------------------------------------------------
# A3: end-to-end overfit on a synthetic scene


@pytest.fixture(scope="module")
def overfit_run():
    """Train the full network on one synthetic scene until it overfits."""
    start = time.perf_counter()
    cube, labels = D.synth_scene(classes=3, size=32, bands=20, noise=0.02,
                                 seed=7)
    cube = D.normalize(cube)
    split = D.sample_split(labels, "per_class:200", seed=7)
    net = M.build(M.ModelConfig(in_bands=20, num_classes=3, base_channels=8,
                                cspn_steps=2),
                  np.random.default_rng(7))
    x = T.Tensor(cube.values)
    history = []

    def eval_oa(epoch, row):
        if epoch % 2 == 0:  # evaluate every second step
            return False
        with T.no_grad():
            refined, _ = net.forward_refined(x, training=False)
        pred = np.argmax(refined.data, axis=0) + 1
        oa = float(np.mean(pred[split.train] == labels.grid[split.train]))
        history.append(oa)
        return oa >= 0.98

    cfg = TR.TrainConfig(epochs=120, crop_size=(32, 32), seed=7)
    TR.train(cube, labels, split, net, cfg, on_epoch=eval_oa)
    return SimpleNamespace(net=net, cube=cube, labels=labels, split=split,
                           history=history,
                           elapsed=time.perf_counter() - start)


def test_a3_end_to_end_overfit(overfit_run):
    """The stock recipe reaches train-split OA >= 0.95 within 120 steps."""
    stock = TR.TrainConfig()
    assert (stock.batch_size, stock.weight_decay, stock.epochs,
            stock.momentum, stock.learning_rate) == (20, 1e-5, 60, 0.9, 0.01)
    history = overfit_run.history
    assert len(history) <= 60
    best = max(history)
    assert best >= 0.95, f"train OA peaked at {best:.4f}"
    assert overfit_run.elapsed < 600.0
    _verdict("A3 end-to-end overfit",
             f"train OA {best:.4f} at epoch {int(np.argmax(history)) + 1}, "
             f"{overfit_run.elapsed:.1f}s")


# ---------------------------------------------------------------------------
# A4: propagation identities


def test_a4_propagation_identities():
    """Normalization invariants, constant fixed point, and max principle."""
    rng = np.random.default_rng(404)
    with T.no_grad():
        # The normalized kernel sums to one in absolute value on 100k pixels.
        raw = (rng.uniform(0.2, 1.5, (8, 1, 250, 400))
               * rng.choice([-1.0, 1.0], (8, 1, 250, 400)))
        k = cspn.normalize_affinity(T.Tensor(raw)).data
        inv_err = float(np.max(np.abs(np.abs(k).sum(axis=0) - 1.0)))
        assert inv_err < 1e-12

        # A constant map is a bitwise fixed point away from the border.
        for steps in range(1, 6):
            h = T.Tensor(np.full((2, 1, 16, 16), 3.7))
            field = cspn.normalize_affinity(
                T.Tensor(rng.uniform(0.1, 1.0, (8, 1, 16, 16))))
            out = cspn.refine(h, field, steps)
            interior = out.data[:, :, steps:-steps, steps:-steps]
            assert np.all(interior == 3.7)

        # Nonnegative affinities keep every value inside the initial range.
        breach = 0.0
        for _ in range(1000):
            h0 = rng.normal(0.0, 1.0, (1, 1, 8, 8))
            h0 -= h0.mean()
            field = cspn.normalize_affinity(
                T.Tensor(rng.uniform(0.0, 1.0, (8, 1, 8, 8))))
            steps = int(rng.integers(0, 33))
            out = cspn.refine(T.Tensor(h0), field, steps).data
            breach = max(breach, float(np.max(out - h0.max())),
                         float(np.max(h0.min() - out)))
        assert breach <= 1e-12
    _verdict("A4 propagation identities",
             f"invariant err {inv_err:.2e}, exact interior fixed point, "
             f"max-principle breach {breach:.2e} over 1000 maps")


# ---------------------------------------------------------------------------
# A5: refinement repairs a corrupted classification map


def _scene_affinity(values, sharp):
    """Spectral-similarity affinities: exp(-d2/tau) per neighbor offset."""
    bands, hh, ww = values.shape
    pad = np.full((bands, hh + 2, ww + 2), np.nan)
    pad[:, 1:-1, 1:-1] = values
    d2 = np.zeros((8, hh, ww))
    valid = np.zeros((8, hh, ww), dtype=bool)
    for idx, (dy, dx) in enumerate(cspn.OFFSETS):
        shifted = pad[:, 1 + dy:1 + dy + hh, 1 + dx:1 + dx + ww]
        dist = np.mean((shifted - values) ** 2, axis=0)
        valid[idx] = np.isfinite(dist)
        d2[idx] = np.where(valid[idx], dist, 0.0)
    tau = float(d2[valid].mean()) * sharp
    return np.where(valid, np.exp(-d2 / tau), 0.0)


def test_a5_refinement_benefit(overfit_run):
    """Propagation lifts OA of a salt-corrupted map by >= 2 points, 9/10."""
    cube, labels = overfit_run.cube, overfit_run.labels
    net = overfit_run.net
    classes = labels.num_classes
    with T.no_grad():
        logits = net.forward(T.Tensor(cube.values), training=False)
    base_pred = np.argmax(logits.data, axis=0).astype(np.int64) + 1
    field = cspn.normalize_affinity(
        T.Tensor(_scene_affinity(cube.values.astype(np.float64), sharp=0.25)[:, None]))
    steps = 3
    ref = labels.grid
    total = ref.size

    margins = []
    for i in range(10):
        rng = np.random.default_rng(1000 + i)
        noisy = base_pred.copy()
        hit = rng.choice(total, size=total // 10, replace=False)
        bump = rng.integers(1, classes, size=hit.size)
        noisy.flat[hit] = (noisy.flat[hit] - 1 + bump) % classes + 1
        onehot = np.eye(classes)[noisy - 1].transpose(2, 0, 1)[:, None]
        with T.no_grad():
            refined = cspn.refine(T.Tensor(onehot), field, steps).data[:, 0]
        oa_noisy = float(np.mean(noisy == ref))
        oa_refined = float(np.mean(np.argmax(refined, axis=0) + 1 == ref))
        margins.append(oa_refined - oa_noisy)
    wins = sum(m >= 0.02 for m in margins)
    assert wins >= 9, f"margins {['%.4f' % m for m in margins]}"
    _verdict("A5 refinement benefit",
             f"{wins}/10 seeds gained >= 2 points, min {min(margins):+.4f}, "
             f"mean {float(np.mean(margins)):+.4f}")


# ---------------------------------------------------------------------------
# A6: separable parameter accounting


def test_a6_separable_parameter_count(overfit_run):
    """One residual unit spends 24 kernel cells per channel pair, not 27."""
    params = overfit_run.net.params
    left = [p for p in params.paths()
            if ".left.conv_a.weights" in p]
    assert left
    prefix = left[0].split(".left.")[0]
    kernels = []
    for branch in ("left", "right"):
        for conv in ("conv_a", "conv_b"):
            shape = params.get(f"{prefix}.{branch}.{conv}.weights").shape
            kernels.append(shape[2:])
    per_pair = sum(int(np.prod(k)) for k in kernels)
    assert sorted(kernels) == [(1, 3, 3), (1, 3, 3), (3, 1, 1), (3, 1, 1)]
    assert per_pair == 24
    assert per_pair < 3 ** 3 == 27
    _verdict("A6 separable parameters",
             f"unit {prefix}: 9+3+3+9 = {per_pair} cells per channel pair "
             f"vs 27 dense")


# ---------------------------------------------------------------------------
# A7: metric oracles


def test_a7_metrics_oracle():
    """Hand-checked kappa, near-zero kappa under chance, report layout."""
    cm = ME.ConfusionMatrix(np.array([[45, 5], [10, 40]]))
    kappa = ME.kappa(cm)
    assert abs(kappa - 0.70) <= 1e-12

    rng = np.random.default_rng(707)
    ref = rng.integers(1, 4, 10_000).astype(np.uint16)
    pred = rng.integers(1, 4, 10_000).astype(np.uint16)
    chance = ME.kappa(ME.confusion(pred, ref, classes=3))
    assert abs(chance) < 0.05

    rows = ME.format_report(cm, ["limestone", "shale"])
    assert rows[0] == ["class", "accuracy"]
    assert rows[1] == ["limestone", "90.00"]
    assert rows[2] == ["shale", "80.00"]
    assert [r[0] for r in rows[3:]] == ["OA", "AA", "kappa_x100"]
    assert rows[5] == ["kappa_x100", "70.00"]
    _verdict("A7 metrics oracle",
             f"kappa err {abs(kappa - 0.70):.1e}, chance kappa {chance:+.4f}")


# ---------------------------------------------------------------------------
# A8: bitwise deterministic training


def test_a8_deterministic_checkpoints(tmp_path):
    """Two identically seeded runs serialize byte-for-byte equal models."""
    cube, labels = D.synth_scene(classes=2, size=12, bands=8, noise=0.05,
                                 seed=3)
    cube = D.normalize(cube)
    split = D.sample_split(labels, "per_class:10", seed=2)
    cfg = TR.TrainConfig(batch_size=3, epochs=4, crop_size=(9, 9), seed=5)
    blobs = []
    for name in ("first.ckpt", "second.ckpt"):
        net = M.build(M.ModelConfig(in_bands=8, num_classes=2,
                                    base_channels=2, cspn_steps=2),
                      np.random.default_rng(11))
        TR.train(cube, labels, split, net, cfg)
        path = tmp_path / name
        M.save_checkpoint(net, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    _verdict("A8 determinism",
             f"identical checkpoints, {len(blobs[0])} bytes each")
