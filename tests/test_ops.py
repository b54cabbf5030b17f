import ast
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import gradcheck
import oracles
from fcspn import ops
from fcspn import tensor as T


def setup_function(_):
    T.clear_tape()


# ---------------------------------------------------------------------------
# conv3d
# ---------------------------------------------------------------------------

def test_conv_out_extents():
    spec = ops.Conv3dSpec(kernel=(5, 1, 1), stride=(5, 1, 1), padding=(2, 0, 0))
    assert spec.out_extents((204, 64, 64)) == (41, 64, 64)
    assert spec.out_extents((20, 32, 32)) == (4, 32, 32)
    spec = ops.Conv3dSpec(kernel=(3, 3, 3), stride=(2, 1, 1))
    assert spec.out_extents((41, 64, 64)) == (21, 64, 64)


def test_conv_default_padding_preserves_extents():
    spec = ops.Conv3dSpec(kernel=(3, 3, 3))
    assert spec.pad() == (1, 1, 1)
    assert spec.out_extents((5, 6, 7)) == (5, 6, 7)


def test_conv_kernel_too_large():
    spec = ops.Conv3dSpec(kernel=(5, 1, 1), padding=(0, 0, 0))
    with pytest.raises(T.ShapeError):
        spec.out_extents((4, 3, 3))


def _budget_planes(monkeypatch, planes, x_shape, w_shape, spec):
    """Set conv3d's slab budget to ``planes`` output-depth planes of columns."""
    _, oh, ow = spec.out_extents(x_shape[-3:])
    monkeypatch.setattr(ops, "_SLAB_BYTES",
                        planes * int(np.prod(w_shape[1:])) * oh * ow * 8)


def _two_plane_slabs(monkeypatch, partial):
    """A per-case hook for the checks below: two planes per slab, appending
    to ``partial`` whether the case spans several slabs, the last part full."""
    def hook(x_shape, w_shape, spec):
        od = spec.out_extents(x_shape[-3:])[0]
        partial.append(od > 2 and od % 2 == 1)
        _budget_planes(monkeypatch, 2, x_shape, w_shape, spec)
    return hook


def _budget_rows(monkeypatch, rows, x_shape, w_shape, spec):
    """Set conv3d's slab budget to ``rows`` output rows of columns."""
    ow = spec.out_extents(x_shape[-3:])[2]
    monkeypatch.setattr(ops, "_SLAB_BYTES", rows * int(np.prod(w_shape[1:])) * ow * 8)


def _two_row_bands(monkeypatch, partial):
    """A per-case hook for the checks below: two output rows per slab,
    appending to ``partial`` whether the case's planes end on a band of
    one row."""
    def hook(x_shape, w_shape, spec):
        oh = spec.out_extents(x_shape[-3:])[1]
        partial.append(oh > 2 and oh % 2 == 1)
        _budget_rows(monkeypatch, 2, x_shape, w_shape, spec)
    return hook


def _oracle_cases(hook):
    """The 100 random (case, x, w, b, spec) of the loop-oracle checks:
    strides up to 3, some past the kernel so that input positions no tap
    reads occur, and padding up to 2.  ``hook`` sees each case's shapes
    before it is yielded."""
    rng = np.random.default_rng(42)
    for case in range(100):
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 4))
        extents = tuple(int(e) for e in rng.integers(1, 8, 3))
        kernel = tuple(int(rng.integers(1, n + 1)) for n in extents)
        stride = tuple(int(s) for s in rng.integers(1, 4, 3))
        if rng.uniform() < 0.5:
            padding = tuple(k // 2 for k in kernel)
        else:
            padding = tuple(int(p) for p in rng.integers(0, 3, 3))
        x = rng.uniform(-1, 1, (cin,) + extents)
        w = rng.uniform(-1, 1, (cout, cin) + kernel)
        b = rng.uniform(-1, 1, cout) if rng.uniform() < 0.5 else None
        spec = ops.Conv3dSpec(kernel=kernel, stride=stride, padding=padding)
        hook(x.shape, w.shape, spec)
        yield case, x, w, b, spec


def _check_conv_oracle(hook):
    for case, x, w, b, spec in _oracle_cases(hook):
        got = ops.conv3d(T.Tensor(x), T.Tensor(w),
                         None if b is None else T.Tensor(b), spec).data
        want = oracles.conv3d_reference(x, w, b, spec.stride, spec.pad())
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12, f"case {case}"


def _check_conv_input_grad_oracle(hook):
    rng = np.random.default_rng(43)
    for case, x, w, b, spec in _oracle_cases(hook):
        T.clear_tape()
        xt = T.Tensor(x, requires_grad=True)
        out = ops.conv3d(xt, T.Tensor(w), None if b is None else T.Tensor(b), spec)
        g = rng.uniform(-1, 1, out.shape)
        T.backward(T.reduce_sum(T.mul(out, T.Tensor(g))))
        want = oracles.conv3d_input_grad_reference(g, w, x.shape, spec.stride, spec.pad())
        assert np.max(np.abs(xt.grad - want)) <= 1e-12, f"case {case}"


def test_conv_matches_loop_oracle():
    _check_conv_oracle(lambda *shapes: None)


def test_conv_matches_loop_oracle_multi_slab(monkeypatch):
    partial = []
    _check_conv_oracle(_two_plane_slabs(monkeypatch, partial))
    assert sum(partial) >= 10


def test_conv_matches_loop_oracle_row_bands(monkeypatch):
    partial = []
    _check_conv_oracle(_two_row_bands(monkeypatch, partial))
    assert sum(partial) >= 30  # 37 of the 100 cases


def test_conv_input_grad_matches_loop_oracle():
    _check_conv_input_grad_oracle(lambda *shapes: None)


def test_conv_input_grad_matches_loop_oracle_row_bands(monkeypatch):
    partial = []
    _check_conv_input_grad_oracle(_two_row_bands(monkeypatch, partial))
    assert sum(partial) >= 30  # 37 of the 100 cases


def _check_conv_grads(hook):
    rng = np.random.default_rng(7)
    cases = [
        ((2, 5, 4, 4), (3, 2, 3, 3, 3), (1, 1, 1), None),
        ((2, 6, 5, 5), (2, 2, 3, 3, 3), (2, 1, 1), None),
        ((1, 5, 4, 4), (2, 1, 5, 1, 1), (5, 1, 1), (2, 0, 0)),
        ((3, 4, 5, 5), (2, 3, 1, 3, 3), (1, 2, 2), None),
        ((2, 3, 3, 3), (2, 2, 2, 2, 2), (1, 1, 1), (0, 0, 0)),
        ((2, 3, 5, 4, 4), (2, 2, 3, 3, 3), (2, 1, 1), None),
        ((2, 2, 3, 4, 5), (3, 2, 1, 3, 3), (1, 2, 2), None),
    ]
    for xs, ws, stride, padding in cases:
        spec = ops.Conv3dSpec(kernel=ws[2:], stride=stride, padding=padding)
        hook(xs, ws, spec)
        proj = gradcheck.projection(
            (ws[0],) + xs[1:-3] + spec.out_extents(xs[-3:]), rng)

        def build(x, w, b):
            return gradcheck.project(ops.conv3d(x, w, b, spec), proj)

        arrs = [rng.uniform(-1, 1, xs), rng.uniform(-1, 1, ws),
                rng.uniform(-1, 1, ws[0])]
        gradcheck.check_grads(build, arrs, nonzero=True)


def test_conv_gradcheck():
    _check_conv_grads(lambda *shapes: None)


def test_conv_gradcheck_multi_slab(monkeypatch):
    partial = []
    _check_conv_grads(_two_plane_slabs(monkeypatch, partial))
    assert sum(partial) >= 2


def test_conv_gradcheck_row_bands(monkeypatch):
    partial = []
    _check_conv_grads(_two_row_bands(monkeypatch, partial))
    assert sum(partial) >= 2


def test_conv_slab_budget_keeps_output_bitwise(monkeypatch):
    rng = np.random.default_rng(8)
    x = T.Tensor(rng.uniform(-1, 1, (16, 7, 32, 32)))
    w = T.Tensor(rng.uniform(-1, 1, (16, 16, 3, 3, 3)))
    b = T.Tensor(rng.uniform(-1, 1, 16))
    spec = ops.Conv3dSpec(kernel=(3, 3, 3))
    _budget_planes(monkeypatch, 7, x.shape, w.shape, spec)
    one = ops.conv3d(x, w, b, spec).data
    _budget_planes(monkeypatch, 3, x.shape, w.shape, spec)  # slabs 3, 3, 1
    many = ops.conv3d(x, w, b, spec).data
    assert np.array_equal(one, many)


@pytest.mark.parametrize("kernel, stride", [((3, 3, 3), (1, 1, 1)),
                                            ((1, 3, 3), (1, 2, 2)),
                                            ((3, 3, 3), (2, 1, 1))])
def test_conv_row_bands_keep_results_bitwise(monkeypatch, kernel, stride):
    # integer-valued data: BLAS picks its GEMM kernel by matrix size, and a
    # band of two rows is small enough for OpenBLAS's small-matrix kernel,
    # which rounds float sums in another order; with integers every sum is
    # exact, so any difference is an error in the tiling
    rng = np.random.default_rng(11)
    spec = ops.Conv3dSpec(kernel=kernel, stride=stride)
    x = rng.integers(-4, 5, (3, 2, 5, 9, 11)).astype(float)
    w = rng.integers(-4, 5, (4, 3) + kernel).astype(float)
    b = rng.integers(-4, 5, 4).astype(float)
    g = rng.integers(-4, 5, (4, 2) + spec.out_extents(x.shape[-3:])).astype(float)

    def run():
        T.clear_tape()
        ts = [T.Tensor(a, requires_grad=True) for a in (x, w, b)]
        out = ops.conv3d(*ts, spec)
        T.backward(T.reduce_sum(T.mul(out, T.Tensor(g))))
        return [out.data] + [t.grad for t in ts]

    monkeypatch.setattr(ops, "_SLAB_BYTES", 1 << 30)  # one slab
    whole = run()
    _budget_rows(monkeypatch, 2, x.shape, w.shape, spec)
    assert spec.out_extents(x.shape[-3:])[1] % 2 == 1  # ends on a partial band
    for want, got in zip(whole, run()):
        assert np.array_equal(want, got)


@pytest.mark.parametrize("budget_rows", [0, 1, 2, 5, 9, 18, 45, 1000])
def test_slabs_tile_the_grid_once(monkeypatch, budget_rows):
    crops, depth, height, row_bytes = 3, 5, 9, 8
    monkeypatch.setattr(ops, "_SLAB_BYTES", budget_rows * row_bytes)
    seen = np.zeros((crops, depth, height), dtype=int)
    for cs, zs, ys in ops._slabs(crops, depth, height, row_bytes):
        seen[cs, zs, ys] += 1
        rows = (cs.stop - cs.start) * (zs.stop - zs.start) * (ys.stop - ys.start)
        assert rows <= max(1, budget_rows)
    assert (seen == 1).all()


def test_conv_pullback_keeps_no_column_matrix():
    rng = np.random.default_rng(9)
    x = T.Tensor(rng.uniform(-1, 1, (16, 8, 32, 32)), requires_grad=True)
    w = T.Tensor(rng.uniform(-1, 1, (16, 16, 3, 3, 3)), requires_grad=True)
    tracemalloc.start()
    try:
        out = ops.conv3d(x, w, None, ops.Conv3dSpec(kernel=(3, 3, 3)))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.requires_grad  # the tape holds the pullback
    # the output and the padded input; the column matrix alone is 27x x
    assert held < 4 * x.data.nbytes, held


def test_conv_pullback_memory_is_bounded(monkeypatch):
    # the pullback builds no full-batch column matrix or tensordot: either
    # has 216 rows over every output voxel of the batch, 27 x.nbytes
    monkeypatch.setattr(ops, "_SLAB_BYTES", 1 << 20)
    rng = np.random.default_rng(10)
    x = T.Tensor(rng.uniform(-1, 1, (8, 8, 4, 32, 32)), requires_grad=True)
    w = T.Tensor(rng.uniform(-1, 1, (8, 8, 3, 3, 3)), requires_grad=True)
    out = ops.conv3d(x, w, None, ops.Conv3dSpec(kernel=(3, 3, 3)))
    g = rng.uniform(-1, 1, out.shape)
    pullback = T._TAPE[-1].fn
    tracemalloc.start()
    try:
        pullback(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad is not None and w.grad is not None
    assert peak < 4 * x.data.nbytes, peak


def test_conv_shape_errors():
    spec = ops.Conv3dSpec(kernel=(3, 3, 3))
    with pytest.raises(T.ShapeError):
        ops.conv3d(T.zeros((4, 4, 4)), T.zeros((2, 2, 3, 3, 3)), None, spec)
    with pytest.raises(T.ShapeError):
        ops.conv3d(T.zeros((2, 4, 4, 4)), T.zeros((2, 3, 3, 3, 3)), None, spec)
    with pytest.raises(T.ShapeError):
        ops.conv3d(T.zeros((2, 4, 4, 4)), T.zeros((2, 2, 3, 3, 3)),
                   T.zeros((3,)), spec)


# ---------------------------------------------------------------------------
# conv3d's worker thread
# ---------------------------------------------------------------------------

@pytest.fixture
def two_threads(monkeypatch):
    """A multi-slab conv3d forward with two CPUs allowed, the serial output
    it must give, and a list that gains an entry per job submitted to the
    worker thread."""
    rng = np.random.default_rng(12)
    x = rng.integers(-4, 5, (4, 2, 6, 10, 10)).astype(float)
    w = rng.integers(-4, 5, (4, 4, 3, 3, 3)).astype(float)
    spec = ops.Conv3dSpec(kernel=(3, 3, 3))
    _budget_planes(monkeypatch, 1, x.shape, w.shape, spec)  # 12 slabs, 6 a thread

    def conv(xd=x):
        return ops.conv3d(T.Tensor(xd), T.Tensor(w), None, spec).data

    monkeypatch.setattr(ops, "_cpus", lambda: 1)
    want = conv()
    monkeypatch.setattr(ops, "_cpus", lambda: 2)
    handoffs = []
    submit = ThreadPoolExecutor.submit

    def counted(pool, job):
        handoffs.append(True)
        return submit(pool, job)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
    return conv, want, handoffs


def test_helper_error_reaches_caller_and_helper_survives(monkeypatch, two_threads):
    conv, want, handoffs = two_threads
    caller = threading.current_thread()
    columns = ops._slab_columns

    def failing(*args):
        if threading.current_thread() is not caller:
            raise RuntimeError("slab failed on the worker")
        return columns(*args)

    monkeypatch.setattr(ops, "_slab_columns", failing)
    with pytest.raises(RuntimeError, match="slab failed on the worker"):
        conv()
    monkeypatch.setattr(ops, "_slab_columns", columns)
    assert len(handoffs) == 1
    assert np.array_equal(conv(), want)
    assert len(handoffs) == 2


def _conv_in_child(conv, want):
    assert np.array_equal(conv(), want)


@pytest.mark.filterwarnings("ignore:.*multi-threaded.*:DeprecationWarning")
def test_forked_child_runs_multi_slab_conv(two_threads):
    conv, want, handoffs = two_threads
    assert np.array_equal(conv(), want)  # the parent's worker thread runs
    assert handoffs
    child = multiprocessing.get_context("fork").Process(
        target=_conv_in_child, args=(conv, want))
    child.start()
    child.join(timeout=60)
    if child.is_alive():  # waiting on a worker thread the fork did not copy
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_two_callers_get_serial_results(two_threads):
    conv, want, handoffs = two_threads
    barrier = threading.Barrier(2, timeout=60)
    results = [[], []]

    def caller(k):
        barrier.wait()
        for _ in range(6):
            results[k].append(conv())

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in callers)
    assert handoffs
    for got in results:
        assert len(got) == 6
        assert all(np.array_equal(out, want) for out in got)


def _run_python(code):
    """The words ``code`` prints, run in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(ops.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.split()


def test_importing_fcspn_starts_no_thread():
    code = ("import sys, threading, fcspn.cli; "
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
    assert _run_python(code) == ["1", "False"]


def test_importing_fcspn_loads_no_multiprocessing():
    # the training worker imports it as it starts; at import it would cost
    # every command, classify included, about 12 ms
    code = "import sys, fcspn.cli; print('multiprocessing' in sys.modules)"
    assert _run_python(code) == ["False"]


def test_package_imports_only_numpy_and_the_standard_library():
    # the pipeline is numpy-only: every absolute import, at any depth of a
    # module, names numpy or a standard-library module; relative imports
    # stay inside the package
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = {}
    for path in sorted(Path(ops.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                where = f"{path.name}:{node.lineno}"
                found.setdefault(name.split(".")[0], []).append(where)
    assert "numpy" in found
    assert {top: where for top, where in found.items() if top not in allowed} == {}


def test_interrupt_in_the_callers_half_waits_for_the_worker(monkeypatch, two_threads):
    conv, want, handoffs = two_threads
    caller = threading.current_thread()
    columns = ops._slab_columns
    interrupted = threading.Event()
    odd_slabs = []

    def columns_after_an_interrupt(*args):
        if threading.current_thread() is caller:
            if not interrupted.is_set():  # the caller's first slab
                interrupted.set()
                raise KeyboardInterrupt
        else:  # the worker's half starts once the caller's has failed
            assert interrupted.wait(timeout=60)
            odd_slabs.append(args[-1])
        return columns(*args)

    monkeypatch.setattr(ops, "_slab_columns", columns_after_an_interrupt)
    with pytest.raises(KeyboardInterrupt):
        conv()
    # the interrupt left the caller only once the worker's half had run
    assert len(odd_slabs) == 6
    monkeypatch.setattr(ops, "_slab_columns", columns)
    for _ in range(3):
        assert np.array_equal(conv(), want)
    assert len(handoffs) == 4


# two CPUs allowed and one output plane per slab: the 3x3x3 conv of the
# (2, 1, 8, 8, 8) map below splits into 8 slabs
_MULTI_SLAB = """
import threading
import numpy as np
from fcspn import ops, tensor as T
ops._cpus = lambda: 2
ops._SLAB_BYTES = 8 * 8 * 2 * 27 * 8
spec = ops.Conv3dSpec(kernel=(3, 3, 3))
x = T.Tensor(np.ones((2, 1, 8, 8, 8)))
w = T.Tensor(np.ones((2, 2, 3, 3, 3)))
def convs():
    for _ in range(5):
        ops.conv3d(x, w, None, spec)
"""


def test_two_callers_share_one_worker_thread():
    # the threads that built columns, other than the two callers, and the
    # worker threads alive at the end
    code = _MULTI_SLAB + """
builders = set()
columns = ops._slab_columns
def spied(*args):
    builders.add(threading.current_thread())
    return columns(*args)
ops._slab_columns = spied
barrier = threading.Barrier(2)
def caller():
    barrier.wait()
    convs()
callers = [threading.Thread(target=caller) for _ in range(2)]
for t in callers:
    t.start()
for t in callers:
    t.join()
workers = builders - set(callers)
print(len(workers), all(t.name.startswith("fcspn-conv3d") for t in workers),
      sum(t.name.startswith("fcspn-conv3d") for t in threading.enumerate()))
"""
    assert _run_python(code) == ["1", "True", "1"]


def test_conv_runs_after_the_main_thread_has_returned():
    # the interpreter's exit shuts the worker down before it joins the
    # other threads; a caller thread still running convs then runs both
    # halves itself
    code = _MULTI_SLAB + """
import time
convs()
def late():
    threading.main_thread().join()
    while any(t.name.startswith("fcspn-conv3d") for t in threading.enumerate()):
        time.sleep(0.01)
    convs()
    print("done", flush=True)
threading.Thread(target=late).start()
"""
    assert _run_python(code) == ["done"]


def test_conv_keeps_no_array_once_it_returns(two_threads):
    conv, _, handoffs = two_threads
    x = np.random.default_rng(13).integers(-4, 5, (4, 2, 6, 10, 10)).astype(float)
    out = conv(x)
    assert handoffs
    while out.base is not None:  # the array conv3d allocated
        out = out.base
    refs = [weakref.ref(x), weakref.ref(out)]
    del x, out
    assert [r() for r in refs] == [None, None]


# ---------------------------------------------------------------------------
# batchnorm
# ---------------------------------------------------------------------------

def _bn_params(c):
    gamma = T.full((c,), 1.0, requires_grad=True)
    beta = T.zeros((c,), requires_grad=True)
    return gamma, beta


def test_bn_train_normalizes():
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.uniform(-3, 5, (3, 4, 5, 6)))
    gamma, beta = _bn_params(3)
    out = ops.batchnorm(x, gamma, beta, ops.BatchNormState(3), training=True).data
    xd = x.data
    oracle = ((xd - xd.mean(axis=(1, 2, 3), keepdims=True))
              / np.sqrt(xd.var(axis=(1, 2, 3), keepdims=True) + 1e-5))
    # the op ends in the ReLU that follows every norm in the network
    assert np.allclose(out, np.maximum(oracle, 0), atol=1e-10)


def test_bn_running_stats_blend():
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, (2, 3, 3, 3))
    state = ops.BatchNormState(2)
    gamma, beta = _bn_params(2)
    ops.batchnorm(T.Tensor(x), gamma, beta, state, training=True)
    mu = x.mean(axis=(1, 2, 3))
    var = x.var(axis=(1, 2, 3))
    assert np.allclose(state.running_mean, 0.1 * mu, atol=1e-12)
    assert np.allclose(state.running_var, 0.9 + 0.1 * var, atol=1e-12)


def test_bn_eval_uses_running_stats():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, (2, 2, 2, 2))
    state = ops.BatchNormState(2)
    state.running_mean = np.array([1.0, -1.0])
    state.running_var = np.array([4.0, 0.25])
    gamma = T.Tensor([2.0, 3.0])
    beta = T.Tensor([0.5, -0.5])
    out = ops.batchnorm(T.Tensor(x), gamma, beta, state, training=False).data
    want = (gamma.data[:, None, None, None]
            * (x - state.running_mean[:, None, None, None])
            / np.sqrt(state.running_var + 1e-5)[:, None, None, None]
            + beta.data[:, None, None, None])
    assert np.allclose(out, np.maximum(want, 0), atol=1e-12)
    # eval must not move the running stats
    assert np.array_equal(state.running_mean, [1.0, -1.0])


def test_bn_single_element_warns_and_yields_shift():
    x = T.Tensor(np.array([3.0, -2.0]).reshape(2, 1, 1, 1))
    gamma = T.Tensor([2.0, 2.0])
    beta = T.Tensor([0.25, -0.25])
    with pytest.warns(RuntimeWarning):
        out = ops.batchnorm(x, gamma, beta, ops.BatchNormState(2), training=True)
    # the shift, through the trailing ReLU
    assert np.allclose(out.data.ravel(), np.maximum([0.25, -0.25], 0), atol=1e-12)


def test_bn_gradcheck_train_and_eval():
    rng = np.random.default_rng(4)
    for shape in ((2, 3, 2, 2), (2, 2, 3, 2, 2)):
        for training in (True, False):
            state = ops.BatchNormState(2)
            state.running_mean = rng.uniform(-1, 1, 2)
            state.running_var = rng.uniform(0.5, 2.0, 2)
            proj = gradcheck.projection(shape, rng)

            def build(x, gamma, beta):
                return gradcheck.project(
                    ops.batchnorm(x, gamma, beta, state, training=training), proj)

            arrs = [rng.uniform(-1, 1, shape),
                    rng.uniform(0.5, 1.5, 2), rng.uniform(-0.5, 0.5, 2)]
            gradcheck.check_grads(build, arrs, nonzero=True)


@pytest.mark.parametrize("training", [True, False])
def test_bn_pullback_keeps_no_input_sized_array(training):
    rng = np.random.default_rng(12)
    x = T.Tensor(rng.uniform(-1, 1, (4, 3, 4, 8, 8)), requires_grad=True)
    gamma, beta = _bn_params(4)
    ops.batchnorm(x, gamma, beta, ops.BatchNormState(4), training=training)
    held = [cell.cell_contents for cell in T._TAPE[-1].fn.__closure__]
    assert any(value is x for value in held)  # the input, not a copy of it
    # besides gamma and the per-(channel, crop) statistics, one array the
    # size of the input: the op's own output, which the ReLU's mask reads
    large = [value for value in held if isinstance(value, np.ndarray)
             and value.size > x.shape[0] * x.shape[1]]
    assert len(large) == 1, [value.shape for value in large]
    assert np.shares_memory(large[0], T._TAPE[-1].out.data)


def test_bn_eval_pullback_uses_the_statistics_of_its_forward():
    rng = np.random.default_rng(13)
    xs = rng.uniform(-1, 1, (2, 3, 2, 3, 3))
    g = rng.uniform(-1, 1, xs.shape)

    def grads(update_between):
        state = ops.BatchNormState(2)
        state.running_mean = np.array([0.3, -0.2])
        state.running_var = np.array([1.5, 0.7])
        x = T.Tensor(xs, requires_grad=True)
        gamma = T.Tensor([1.2, 0.8], requires_grad=True)
        beta = T.Tensor([0.1, -0.1], requires_grad=True)
        out = ops.batchnorm(x, gamma, beta, state, training=False)
        if update_between:
            with T.no_grad():
                ops.batchnorm(T.Tensor(rng.uniform(-3, 3, xs.shape)), gamma, beta,
                              state, training=True)
            assert not np.array_equal(state.running_mean, [0.3, -0.2])
        T.backward(T.reduce_sum(T.mul(out, T.Tensor(g))))
        return [t.grad for t in (x, gamma, beta)]

    for want, got in zip(grads(False), grads(True)):
        assert np.array_equal(want, got)


def test_bn_eval_allocates_one_output():
    # the output, centred, divided, scaled and shifted in place, plus
    # record's finiteness mask, one byte per value; out-of-place scale and
    # shift would hold three output-sized arrays at once
    rng = np.random.default_rng(15)
    x = T.Tensor(rng.uniform(-2, 2, (4, 2, 8, 32, 32)))
    state = ops.BatchNormState(4)
    state.running_mean, state.running_var = rng.uniform(-1, 1, 4), rng.uniform(0.5, 2, 4)
    gamma, beta = _bn_params(4)
    tracemalloc.start()
    try:
        with T.no_grad():
            out = ops.batchnorm(x, gamma, beta, state, training=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.data.nbytes + out.size + (16 << 10), peak


# ---------------------------------------------------------------------------
# the decoder join: upsample, then a conv over the unbuilt channel join
# ---------------------------------------------------------------------------

def _upsampled(x, target):
    """``x`` resampled to ``target``."""
    x = x if isinstance(x, T.Tensor) else T.Tensor(x)
    return ops.upsample(x, target).data


def test_trilinear_axis_example():
    x = T.Tensor(np.array([0.0, 2.0]).reshape(1, 1, 2, 1, 1))
    out = _upsampled(x, (4, 1, 1)).ravel()
    assert np.allclose(out, [0, 2 / 3, 4 / 3, 2], atol=1e-12)


def test_trilinear_identity_and_constant():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (2, 1, 3, 4, 5))
    same = _upsampled(x, (3, 4, 5))
    assert np.allclose(same, x, atol=1e-12)
    const = _upsampled(T.full((2, 1, 2, 2, 2), 3.5), (5, 7, 3))
    assert np.allclose(const, 3.5, atol=1e-12)


@pytest.mark.parametrize("shape, target, dtype", [
    ((2, 1, 3, 4, 2), (5, 7, 4), np.float64),
    ((64, 3, 1, 4, 4), (1, 8, 8), np.float64),      # up1 of a 32x32 training batch
    ((32, 3, 1, 8, 8), (2, 16, 16), np.float64),    # up2
    ((16, 3, 2, 16, 16), (4, 32, 32), np.float64),  # up3
    ((16, 3, 2, 16, 16), (4, 32, 32), np.float32),  # up3 of a loaded checkpoint
], ids=["tiny", "up1", "up2", "up3", "up3-float32"])
def test_trilinear_matches_separable_oracle(shape, target, dtype):
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, shape).astype(dtype)
    got = _upsampled(x, target)
    want = x.astype(np.float64)
    for axis, m in zip(range(x.ndim - 3, x.ndim), target):
        want = np.apply_along_axis(oracles.trilinear_axis_reference, axis, want, m)
    assert got.dtype == dtype
    # float32 within 4 eps of the largest magnitude, float64 within 1e-12
    tol = (4 * np.finfo(np.float32).eps * np.abs(want).max() if dtype == np.float32
           else 1e-12)
    assert np.allclose(got, want, rtol=0, atol=tol)


def test_trilinear_endpoints_pinned():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, (1, 1, 4, 3, 3))
    out = _upsampled(x, (9, 3, 3))
    assert np.allclose(out[:, :, 0], x[:, :, 0], atol=1e-12)
    assert np.allclose(out[:, :, -1], x[:, :, -1], atol=1e-12)


def test_trilinear_gradcheck():
    rng = np.random.default_rng(9)
    for shape in ((2, 1, 3, 4, 3), (2, 2, 3, 4, 3)):
        target = (5, 6, 3)
        proj = gradcheck.projection(shape[:-3] + target, rng)

        def build(x):
            return gradcheck.project(ops.upsample(x, target), proj)

        gradcheck.check_grads(build, [rng.uniform(-1, 1, shape)], nonzero=True)


@pytest.mark.parametrize("shape, target", [
    ((64, 3, 1, 4, 4), (1, 8, 8)),     # up1 of a 32x32 training batch
    ((32, 3, 1, 8, 8), (2, 16, 16)),   # up2
    ((16, 3, 2, 16, 16), (4, 32, 32)),  # up3
    ((16, 1, 2, 64, 64), (4, 128, 128)),  # up3 of a 128x128 scene
])
def test_trilinear_pullback_is_adjoint(shape, target):
    # <A x, g> = <x, A^T g>: the pullback is the transpose of the forward
    rng = np.random.default_rng(10)
    x = T.Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
    g = rng.uniform(-1, 1, shape[:-3] + target)
    out = ops.upsample(x, target)
    T.backward(T.reduce_sum(T.mul(out, T.Tensor(g))))
    forward, adjoint = np.sum(out.data * g), np.sum(x.data * x.grad)
    assert abs(forward - adjoint) <= 1e-14 * abs(forward)


@pytest.mark.parametrize("shape, target, dtype", [
    ((16, 3, 2, 16, 16), (4, 32, 32), np.float64),   # up3 of a 32x32 training batch
    ((16, 3, 2, 16, 16), (4, 32, 32), np.float32),
    ((4, 1, 10, 64, 64), (20, 128, 128), np.float64),  # a 128x128 scene's up3
    ((32, 1, 5, 32, 32), (10, 64, 64), np.float32),    # a 128x128 scene's up2
])
def test_upsample_chunks_keep_results_bitwise(monkeypatch, shape, target, dtype):
    # runs of several channels (the training batch), of one channel (the
    # scene's up3, whose one channel's passes exceed the budget) and runs
    # that end on a short one, against the whole map as one run
    rng = np.random.default_rng(16)
    x = rng.uniform(-1, 1, shape).astype(dtype)
    g = rng.uniform(-1, 1, shape[:-3] + target).astype(dtype)

    def run():
        T.clear_tape()
        xt = T.Tensor(x, requires_grad=True)
        out = ops.upsample(xt, target)
        T.backward(T.reduce_sum(T.mul(out, T.Tensor(g))))
        return out.data, xt.grad

    chunked = run()
    monkeypatch.setattr(ops, "_SLAB_BYTES", 1 << 40)
    whole = run()
    for want, got in zip(whole, chunked):
        assert np.array_equal(want, got)


def test_upsample_allocates_only_its_output_and_one_chunks_passes():
    # the output, plus the width and height passes of one run of channels
    # while they run (record's finiteness mask, one byte per value, comes
    # after); the passes of the whole map at once are 768 KiB here, more
    # than the 512 KiB budget of one run
    rng = np.random.default_rng(14)
    x = T.Tensor(rng.uniform(-1, 1, (8, 2, 4, 16, 16)))
    tracemalloc.start()
    try:
        with T.no_grad():
            out = ops.upsample(x, (8, 32, 32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    width = 2 * x.data.nbytes   # (8, 2, 4, 16, 32); upsampled (8, 2, 8, 32, 32) is 8x
    height = 4 * x.data.nbytes  # (8, 2, 4, 32, 32)
    assert out.shape == (8, 2, 8, 32, 32)
    assert width + height > ops._SLAB_BYTES
    assert peak <= out.data.nbytes + ops._SLAB_BYTES + (64 << 10), peak


def test_concat_values_and_grads():
    # at equal extents the resampling is the identity, and a 1x1x1 conv
    # with identity weights returns its input: the join is the two maps
    # stacked, and its gradient splits back between them
    rng = np.random.default_rng(13)
    a = rng.uniform(-1, 1, (2, 1, 3, 3, 3))
    b = rng.uniform(-1, 1, (4, 1, 3, 3, 3))
    ta = T.Tensor(a, requires_grad=True)
    tb = T.Tensor(b, requires_grad=True)
    assert np.array_equal(ops.upsample(ta, (3, 3, 3)).data, a)
    eye = T.Tensor(np.eye(6).reshape(6, 6, 1, 1, 1))
    out = ops.join_conv3d(ta, tb, eye, ops.Conv3dSpec(kernel=(1, 1, 1)))
    assert out.shape == (6, 1, 3, 3, 3)
    assert np.array_equal(out.data[:2], a)
    assert np.array_equal(out.data[2:], b)
    proj = gradcheck.projection(out.shape, rng)
    T.backward(gradcheck.project(out, proj))
    assert np.allclose(ta.grad, proj.data[:2], atol=1e-12)
    assert np.allclose(tb.grad, proj.data[2:], atol=1e-12)


def test_concat_extent_mismatch():
    # upsample takes any extents of a rank-5 map; the join's two maps must
    # agree in rank, crops and extents, and the weights must span both
    spec = ops.Conv3dSpec(kernel=(1, 1, 1))
    w = T.zeros((1, 4, 1, 1, 1))
    with pytest.raises(T.ShapeError):
        ops.upsample(T.zeros((2, 3, 3, 3)), (3, 3, 4))
    with pytest.raises(T.ShapeError):
        ops.upsample(T.zeros((2, 3, 3)), (3, 3, 3))
    with pytest.raises(T.ShapeError):
        ops.upsample(T.zeros((2, 1, 3, 3, 3)), (3, 3))
    with pytest.raises(T.ShapeError):
        ops.join_conv3d(T.zeros((2, 3, 3, 3)), T.zeros((2, 1, 3, 3, 3)), w, spec)
    with pytest.raises(T.ShapeError):
        ops.join_conv3d(T.zeros((2, 2, 3, 3, 3)), T.zeros((2, 3, 3, 3, 3)), w, spec)
    with pytest.raises(T.ShapeError):
        ops.join_conv3d(T.zeros((2, 1, 3, 3, 3)), T.zeros((2, 1, 3, 3, 4)), w, spec)
    with pytest.raises(T.ShapeError):
        ops.join_conv3d(T.zeros((2, 1, 3, 3, 3)), T.zeros((1, 1, 3, 3, 3)), w, spec)


def test_join_conv3d_gradcheck():
    rng = np.random.default_rng(17)
    spec = ops.Conv3dSpec(kernel=(5, 1, 1))
    for shape, target in (((2, 1, 2, 3, 2), (4, 5, 3)), ((2, 2, 1, 2, 2), (2, 4, 4))):
        mshape = (1,) + shape[1:-3] + target
        proj = gradcheck.projection((2,) + mshape[1:], rng)

        def build(x, m, w):
            up = ops.upsample(x, target)
            return gradcheck.project(ops.join_conv3d(up, m, w, spec), proj)

        gradcheck.check_grads(build, [rng.uniform(-1, 1, shape),
                                      rng.uniform(-1, 1, mshape),
                                      rng.uniform(-1, 1, (2, 3, 5, 1, 1))],
                              nonzero=True)


# (x, mirror) shapes of the up blocks' joins, and the up conv's kernel
_UP_JOINS = {
    # a batch of three 32x32x20 crops at base 8, the training step's model
    "train-up1": ((64, 3, 1, 8, 8), (32, 3, 1, 8, 8)),
    "train-up2": ((32, 3, 2, 16, 16), (16, 3, 2, 16, 16)),
    "train-up3": ((16, 3, 4, 32, 32), (8, 3, 4, 32, 32)),
    # a 128x128x100 scene's extents at base 4, a quarter of the classify
    # model's channels: the full width needs half a GiB of float64 here
    "scene-up1": ((32, 1, 5, 32, 32), (16, 1, 5, 32, 32)),
    "scene-up2": ((16, 1, 10, 64, 64), (8, 1, 10, 64, 64)),
    "scene-up3": ((8, 1, 20, 128, 128), (4, 1, 20, 128, 128)),
}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("block", list(_UP_JOINS))
def test_join_conv3d_equals_conv3d_on_the_concatenation(monkeypatch, block, dtype, cpus):
    # the same columns, the same GEMMs, the same bits: the output and the
    # x, mirror and weight gradients, on one CPU and with the worker thread
    monkeypatch.setattr(ops, "_cpus", lambda: cpus)
    rng = np.random.default_rng(18)
    xs, ms = _UP_JOINS[block]
    x, m = (rng.uniform(-1, 1, s).astype(dtype) for s in (xs, ms))
    w = (rng.uniform(-1, 1, (ms[0], xs[0] + ms[0], 5, 1, 1)) / xs[0]).astype(dtype)
    g = rng.uniform(-1, 1, (ms[0],) + ms[1:]).astype(dtype)
    spec = ops.Conv3dSpec(kernel=(5, 1, 1))

    def backward(out):
        T.backward(T.reduce_sum(T.mul(out, T.Tensor(g))))
        return out.data

    T.clear_tape()
    cat, wt = (T.Tensor(a, requires_grad=True) for a in (np.concatenate([x, m]), w))
    out = backward(ops.conv3d(cat, wt, None, spec))
    stacked = out, cat.grad[:len(x)], cat.grad[len(x):], wt.grad
    ts = [T.Tensor(a, requires_grad=True) for a in (x, m, w)]
    out = backward(ops.join_conv3d(*ts, spec))
    for want, got in zip(stacked, [out] + [t.grad for t in ts]):
        assert got.dtype == dtype
        assert np.array_equal(want, got)


@pytest.mark.parametrize("cpus", [1, 2])
def test_join_conv3d_allocates_no_join(monkeypatch, cpus):
    # without a tape: the output, record's finiteness mask and what the two
    # threads' slabs hold, each thread at most one slab's padded block and
    # columns and the columns of the slab before (a slab budget each);
    # building the join first, as a concatenation and a conv over it do,
    # holds 6 MiB here
    monkeypatch.setattr(ops, "_cpus", lambda: cpus)
    rng = np.random.default_rng(19)
    x = T.Tensor(rng.uniform(-1, 1, (32, 2, 8, 32, 32)))
    mirror = T.Tensor(rng.uniform(-1, 1, (16, 2, 8, 32, 32)))
    w = T.Tensor(rng.uniform(-1, 1, (8, 48, 5, 1, 1)))
    tracemalloc.start()
    try:
        with T.no_grad():
            out = ops.join_conv3d(x, mirror, w, ops.Conv3dSpec(kernel=(5, 1, 1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    join = x.data.nbytes + mirror.data.nbytes
    bound = out.data.nbytes + out.size + 6 * ops._SLAB_BYTES
    assert bound < join
    assert peak <= bound, peak
