"""Self-tests of the benchmark's tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import numpy as np

import fcspn
from fcspn import cli, ops, tensor as T  # noqa: F401  (cli: a traced module)

import spans


def snapshot():
    """Every attribute the tracer may touch, by identity."""
    attrs = {}
    for name in spans.MODULES:
        module = getattr(fcspn, name)
        attrs.update({(module, attr): value for attr, value in vars(module).items()})
    for mod_name, cls_name, meth in spans.METHODS:
        cls = getattr(getattr(fcspn, mod_name), cls_name)
        attrs[(cls, meth)] = vars(cls)[meth]
    return attrs


def small_conv():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.normal(size=(2, 4, 5, 6)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(3, 2, 3, 3, 3)), requires_grad=True)
    spec = ops.Conv3dSpec(kernel=(3, 3, 3), stride=(2, 1, 1))
    return x, w, spec


def test_conv3d_work_matches_hand_count():
    x, w, spec = small_conv()
    # padding 1 on every axis: depth (4 + 2 - 3) // 2 + 1 = 2, height 5,
    # width 6, so 60 output positions; each reads 2 channels x 27 taps
    rows, inner, cout = 2 * 5 * 6, 2 * 27, 3
    assert spans.conv3d_work(x, w, None, spec) == {
        "flops": 2 * rows * inner * cout, "col_bytes": rows * inner * 8}
    assert 2 * rows * inner * cout == 19440
    assert rows * inner * 8 == 25920


def test_traced_conv3d_counts_work_and_backward():
    x, w, spec = small_conv()
    T.clear_tape()
    tracer = spans.Tracer(fcspn)
    tracer.install()
    try:
        out = ops.conv3d(x, w, None, spec)
        T.backward(T.reduce_sum(out))
    finally:
        tracer.restore()
    conv = tracer.stats["ops.conv3d"]
    assert conv.calls == 1 and conv.bwd_calls == 1
    assert dict(conv.counts) == {"flops": 19440, "col_bytes": 25920}
    assert tracer.stats["tensor.backward"].counts["tape_nodes"] == 2
    assert tracer.stats["tensor.reduce_sum"].bwd_calls == 1


def test_tracing_leaves_results_unchanged():
    def grads(traced):
        x, w, spec = small_conv()
        tracer = spans.Tracer(fcspn)
        if traced:
            tracer.install()
        try:
            out = ops.batchnorm(ops.conv3d(x, w, None, spec), T.full((3,), 1.0),
                                T.zeros((3,)), ops.BatchNormState(3), True)
            T.backward(T.reduce_sum(T.mul(out, out)))
        finally:
            tracer.restore()
        return out.data, x.grad, w.grad

    for plain, traced in zip(grads(False), grads(True)):
        assert np.array_equal(plain, traced)


def test_restore_puts_back_every_attribute():
    before = snapshot()
    tracer = spans.Tracer(fcspn)
    tracer.install()
    try:
        patched = {key for key, value in snapshot().items() if before.get(key) is not value}
        assert (ops, "conv3d") in patched
        assert (ops, "record") in patched and (T, "record") in patched
        assert (fcspn.model.FcspnModel, "forward_refined") in patched
        assert (fcspn.train, "train") not in patched
        assert len(patched) == len(tracer.targets())
    finally:
        tracer.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_excludes_children():
    tracer = spans.Tracer(fcspn)
    tracer.begin("outer")
    tracer.begin("inner")
    inner = tracer.end()
    outer = tracer.end()
    stats = tracer.stats
    assert stats["inner"].own == inner
    assert abs(stats["outer"].own - (outer - inner)) < 1e-12
