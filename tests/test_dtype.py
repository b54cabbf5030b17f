"""The dtype follows the arrays: float32 in, float32 out, gradients included.

A float32 op is checked against the same op run in float64 on the same
float32-rounded inputs, so the difference is the arithmetic's alone.  The
tolerance is ``TOL32`` of the float64 result's largest magnitude (or of
1, if that is smaller), forward and pullback alike: about eight times the
largest difference these draws give, 2.4e-7 for the conv3d output.
"""

import numpy as np
import pytest

from fcspn import cspn
from fcspn import model as M
from fcspn import ops
from fcspn import tensor as T
from fcspn import train as TR

TOL32 = 2e-6


def setup_function(_):
    T.clear_tape()


def _pair(rng, shape, low=-1.0, high=1.0):
    """One draw as float32 and as its exact float64 copy."""
    a32 = rng.uniform(low, high, shape).astype(np.float32)
    return a32, a32.astype(np.float64)


def _close32(got, want):
    assert got.dtype == np.float32 and want.dtype == np.float64
    scale = max(1.0, float(np.abs(want).max()))
    assert float(np.abs(got - want).max()) <= TOL32 * scale


def _run(op, arrays, upstream):
    """``op``'s output and the gradient of sum(out * upstream) for each of
    ``arrays``."""
    T.clear_tape()
    inputs = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = op(*inputs)
    T.backward(T.reduce_sum(T.mul(out, T.Tensor(upstream))))
    return out.data, [t.grad for t in inputs]


def _agree(op, rng, shapes, out_shape, low=-1.0, high=1.0):
    pairs = [_pair(rng, shape, low, high) for shape in shapes]
    up32, up64 = _pair(rng, out_shape)
    out32, grads32 = _run(op, [p[0] for p in pairs], up32)
    out64, grads64 = _run(op, [p[1] for p in pairs], up64)
    _close32(out32, out64)
    for g32, g64 in zip(grads32, grads64):
        _close32(g32, g64)


def test_conv3d_float32_agrees():
    spec = ops.Conv3dSpec(kernel=(3, 3, 3), stride=(2, 1, 2))
    _agree(lambda x, w, b: ops.conv3d(x, w, b, spec), np.random.default_rng(1),
           [(3, 2, 5, 6, 7), (4, 3, 3, 3, 3), (4,)], (4, 2, 3, 6, 4))


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_float32_agrees(training):
    rng = np.random.default_rng(2)
    mean32, mean64 = _pair(rng, 3)
    var32, var64 = _pair(rng, 3, 0.5, 2.0)
    states = {}
    for dtype, mean, var in ((np.float32, mean32, var32), (np.float64, mean64, var64)):
        states[dtype] = ops.BatchNormState(3)
        states[dtype].running_mean, states[dtype].running_var = mean, var

    def op(dtype):
        return lambda x, gamma, beta: ops.batchnorm(x, gamma, beta, states[dtype],
                                                   training)

    shapes = [(3, 2, 4, 5, 6), (3,), (3,)]
    x32, x64 = zip(*[_pair(rng, shape) for shape in shapes])
    up32, up64 = _pair(rng, shapes[0])
    out32, grads32 = _run(op(np.float32), x32, up32)
    out64, grads64 = _run(op(np.float64), x64, up64)
    _close32(out32, out64)
    for g32, g64 in zip(grads32, grads64):
        _close32(g32, g64)
    for name in ("running_mean", "running_var"):
        _close32(getattr(states[np.float32], name), getattr(states[np.float64], name))


def test_trilinear_upsample_float32_agrees():
    _agree(ops.upsample_concat, np.random.default_rng(3),
           [(2, 2, 3, 4, 5), (1, 2, 5, 7, 9)], (3, 2, 5, 7, 9))


def test_normalize_affinity_float32_agrees():
    _agree(cspn.normalize_affinity, np.random.default_rng(4), [(8, 2, 5, 6)],
           (8, 2, 5, 6))


def test_refine_float32_agrees():
    _agree(lambda h, kappa: cspn.refine(h, kappa, 3), np.random.default_rng(5),
           [(3, 2, 5, 6), (8, 2, 5, 6)], (3, 2, 5, 6), -0.125, 0.125)


def test_astype_is_identity_at_the_same_dtype():
    x = T.Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    assert T.astype(x, np.float32) is x
    wide = T.astype(x, np.float64)
    assert wide.data.dtype == np.float64
    T.backward(T.reduce_sum(wide))
    assert x.grad.dtype == np.float32 and np.array_equal(x.grad, np.ones((2, 3)))


# ---------------------------------------------------------------------------
# a whole training step keeps the model's dtype
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("loaded, dtype", [(True, np.float32), (False, np.float64)])
def test_training_step_keeps_the_model_dtype(tmp_path, monkeypatch, loaded, dtype):
    """Every recorded output, every gradient handed to ``accumulate`` (so
    before it casts), every parameter gradient and every velocity is in the
    model's dtype: float32 loaded from a checkpoint, float64 built."""
    rng = np.random.default_rng(6)
    net = M.build(M.ModelConfig(in_bands=10, num_classes=3, base_channels=2,
                                cspn_steps=2), rng)
    if loaded:
        M.save_checkpoint(net, tmp_path / "m.fcsp")
        net = M.load_checkpoint(tmp_path / "m.fcsp")

    outputs, grads = [], []
    record, accumulate = T.record, T.accumulate

    def spy_record(op, inputs, out_data, fn):
        out = record(op, inputs, out_data, fn)
        outputs.append((op, out.data.dtype))
        return out

    def spy_accumulate(t, g):
        grads.append((t.data.dtype, np.asarray(g).dtype))
        accumulate(t, g)

    for module in (T, ops, cspn, TR):
        monkeypatch.setattr(module, "record", spy_record)
        monkeypatch.setattr(module, "accumulate", spy_accumulate)

    x = T.Tensor(rng.uniform(0, 1, (1, 2, 10, 12, 12)).astype(np.float32))
    labels = rng.integers(1, 4, (2, 12, 12))
    refined, _ = net.forward_refined(x, training=True)
    T.backward(TR.focal_loss(refined, labels, 2.0))
    velocity = {}
    TR.sgd_step(net.params, velocity, TR.TrainConfig())

    assert outputs and [op for op, d in outputs if d != dtype] == []
    assert grads and all(t == g == dtype for t, g in grads)
    assert all(t.grad.dtype == dtype for _, t in net.params.items())
    assert all(t.data.dtype == dtype for _, t in net.params.items())
    assert velocity and all(v.dtype == dtype for v in velocity.values())
    for _, norm in net.params.states():
        assert norm.running_mean.dtype == norm.running_var.dtype == dtype
