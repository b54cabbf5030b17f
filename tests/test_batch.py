"""A batch of crops through each op equals the crops one at a time, stacked.

Every op carries a crop axis (axis 1 of its feature maps).  Outputs and
input gradients of a batch must be bitwise equal to the results of its
one-crop slices ``a[:, k:k+1]``, concatenated on that axis.  Parameter
gradients sum over crops in another order, so they agree to 1e-13
relative.  Batchnorm's running statistics must be bitwise equal to folding
the crops in one at a time.

The conv3d batch test runs on integer-valued data: BLAS picks its GEMM
kernel by matrix size, and OpenBLAS's small-matrix kernel sums in another
order than its blocked one, so a product over three crops' columns may
round differently from three per-crop products.  With integers every sum
is exact, and any difference is an error in the crop plumbing, not in
BLAS's rounding.

conv3d's one-thread and two-thread paths run the same slabs and add the
same products in the same order, so they must be bitwise equal on float
data, and so must a short training run on one CPU and on two: a training
step runs its crops in the same two halves either way, the second in a
worker process when two CPUs are allowed.
"""

import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import oracles
from fcspn import cspn
from fcspn import data as D
from fcspn import model as M
from fcspn import ops
from fcspn import tensor as T
from fcspn import train as TR

N = 3


def setup_function(_):
    T.clear_tape()


@pytest.fixture(autouse=True)
def _affinity_and_blas_threads_kept():
    # a training worker pins its caller to one CPU and one BLAS thread; a
    # test that leaves either behind fails here, not in whichever test
    # reads them next
    before = os.sched_getaffinity(0), TR._blas_threads()
    yield
    assert (os.sched_getaffinity(0), TR._blas_threads()) == before


def _run(fn, arrays, proj):
    """Output of ``fn`` and the gradient of sum(out * proj) for each input."""
    T.clear_tape()
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*tensors)
    T.backward(T.reduce_sum(T.mul(out, T.Tensor(proj))))
    return out.data, [t.grad for t in tensors]


def _check(fn, batched, shared, rng):
    """Compare ``fn`` on ``batched`` arrays (crop axis 1) plus ``shared``
    parameters against the same call on each crop's slice of the batch."""
    with T.no_grad():
        shape = fn(*[T.Tensor(a) for a in batched + shared]).shape
    proj = rng.integers(-3, 4, shape).astype(float)
    out, grads = _run(fn, batched + shared, proj)
    per = [_run(fn, [a[:, k:k + 1] for a in batched] + shared, proj[:, k:k + 1])
           for k in range(N)]
    assert np.array_equal(out, np.concatenate([o for o, _ in per], axis=1))
    for i in range(len(batched)):
        assert np.array_equal(grads[i], np.concatenate([g[i] for _, g in per], axis=1)), i
    for i in range(len(batched), len(batched) + len(shared)):
        want = sum(g[i] for _, g in per)
        assert np.max(np.abs(grads[i] - want)) <= 1e-13 * np.max(np.abs(want)), i


# (kernel, stride, bias) of every convolution the network and its
# affinity branch run, with the default centered padding
NETWORK_CONVS = [
    ((5, 1, 1), (5, 1, 1), False),  # stem
    ((3, 3, 3), (2, 1, 1), False),  # down conv_a
    ((1, 3, 3), (1, 2, 2), False),  # down conv_b
    ((1, 3, 3), (1, 1, 1), False),  # residual units, affinity mix
    ((3, 1, 1), (1, 1, 1), False),  # residual units
    ((1, 1, 1), (1, 1, 1), True),   # attention gate, head
    ((5, 1, 1), (1, 1, 1), False),  # up conv_a
    ((3, 3, 3), (1, 1, 1), False),  # up conv_b
    ((1, 3, 3), (1, 1, 1), True),   # affinity head
]


@pytest.mark.parametrize("kernel, stride, bias", NETWORK_CONVS)
@pytest.mark.parametrize("slab", ["whole-batch", "one-plane"])
def test_conv3d_batch_equals_crops(monkeypatch, kernel, stride, bias, slab):
    rng = np.random.default_rng(1)
    if slab == "one-plane":
        monkeypatch.setattr(ops, "_SLAB_BYTES", 1)
    spec = ops.Conv3dSpec(kernel=kernel, stride=stride)
    x = rng.integers(-4, 5, (2, N, 10, 6, 7)).astype(float)
    shared = [rng.integers(-4, 5, (3, 2) + kernel).astype(float)]
    if bias:
        shared.append(rng.integers(-4, 5, 3).astype(float))

    def fn(x, w, b=None):
        return ops.conv3d(x, w, b, spec)

    _check(fn, [x], shared, rng)


@pytest.mark.parametrize("kernel, stride, bias",
                         NETWORK_CONVS + [((3, 3, 3), (2, 2, 3), True)])
def test_conv3d_two_threads_equal_one(monkeypatch, kernel, stride, bias):
    # every network convolution plus one of 12 stride phases, on float
    # data, at one output plane per slab: an odd count of at least 3, so
    # the worker's half is one slab shorter than the caller's
    rng = np.random.default_rng(7)
    spec = ops.Conv3dSpec(kernel=kernel, stride=stride)
    arrays = [rng.uniform(-1, 1, (2, N, 13, 8, 5)),
              rng.uniform(-1, 1, (3, 2) + kernel)]
    if bias:
        arrays.append(rng.uniform(-1, 1, 3))
    od, oh, ow = spec.out_extents(arrays[0].shape[-3:])
    proj = rng.uniform(-1, 1, (3, N, od, oh, ow))
    row_bytes = arrays[1][0].size * ow * 8
    monkeypatch.setattr(ops, "_SLAB_BYTES", oh * row_bytes)
    slabs = len(ops._slabs(N, od, oh, row_bytes))
    assert slabs >= 3 and slabs % 2
    handoffs = []
    submit = ThreadPoolExecutor.submit

    def counted(pool, job):
        handoffs.append(True)
        return submit(pool, job)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)

    def fn(x, w, b=None):
        return ops.conv3d(x, w, b, spec)

    monkeypatch.setattr(ops, "_cpus", lambda: 1)
    one = _run(fn, arrays, proj)
    assert not handoffs
    monkeypatch.setattr(ops, "_cpus", lambda: 2)
    two = _run(fn, arrays, proj)
    assert handoffs
    # the output and every gradient, the weights' included: both paths add
    # the same products in the same order
    assert np.array_equal(one[0], two[0])
    for want, got in zip(one[1], two[1]):
        assert np.array_equal(want, got)


def test_training_bits_do_not_depend_on_the_cpu_count(monkeypatch):
    cube, labels = D.synth_scene(classes=4, size=48, bands=20, seed=3)
    cube = D.normalize(cube)
    split = D.sample_split(labels, "per_class:15", seed=3)
    config = TR.TrainConfig(batch_size=2, epochs=2, crop_size=(32, 32), seed=3)

    def digest(cpus):
        monkeypatch.setattr(ops, "_cpus", lambda: cpus)
        model = M.build(M.ModelConfig(in_bands=20, num_classes=4, base_channels=8,
                                      cspn_steps=8), np.random.default_rng(3))
        rows = TR.train(cube, labels, split, model, config)
        params = hashlib.sha256(b"".join(a.tobytes() for a in model.params.arrays()))
        trace = hashlib.sha256(repr([(r.focal, r.l2, r.total) for r in rows]).encode())
        return params.hexdigest(), trace.hexdigest()

    made = _spy_workers(monkeypatch)
    assert digest(1) == digest(2)
    # digest(2) ran its second halves in a process that then exited by itself
    assert [w.process.exitcode for w in made] == [0]


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_batchnorm_batch_equals_crops(training):
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 3, (4, N, 2, 3, 5))
    init = (rng.uniform(-1, 1, 4), rng.uniform(0.5, 2.0, 4))

    def state():
        fresh = ops.BatchNormState(4)
        fresh.running_mean, fresh.running_var = init[0].copy(), init[1].copy()
        return fresh

    def fn(x, gamma, beta):
        return ops.batchnorm(x, gamma, beta, state(), training)

    _check(fn, [x], [rng.uniform(0.5, 1.5, 4), rng.uniform(-0.5, 0.5, 4)], rng)
    batch, folded = state(), state()
    ops.batchnorm(T.Tensor(x), T.full((4,), 1.0), T.zeros((4,)), batch, training)
    for k in range(N):
        ops.batchnorm(T.Tensor(x[:, k:k + 1]), T.full((4,), 1.0), T.zeros((4,)),
                      folded, training)
    assert np.array_equal(batch.running_mean, folded.running_mean)
    assert np.array_equal(batch.running_var, folded.running_var)
    assert np.array_equal(batch.running_mean, init[0]) != training


def test_trilinear_batch_equals_crops():
    rng = np.random.default_rng(3)
    _check(ops.upsample_concat, [rng.uniform(-1, 1, (2, N, 2, 5, 4)),
                                 rng.uniform(-1, 1, (1, N, 4, 9, 7))], [], rng)


def test_concat_batch_equals_crops():
    rng = np.random.default_rng(4)
    _check(ops.upsample_concat, [rng.uniform(-1, 1, (2, N, 2, 3, 3)),
                                 rng.uniform(-1, 1, (3, N, 2, 3, 3))], [], rng)


def test_normalize_affinity_batch_equals_crops():
    rng = np.random.default_rng(5)
    raw = rng.uniform(0.2, 1.0, (8, N, 4, 5)) * rng.choice([-1.0, 1.0], (8, N, 4, 5))
    _check(cspn.normalize_affinity, [raw], [], rng)


def test_refine_batch_equals_crops():
    rng = np.random.default_rng(6)
    kappa = cspn.normalize_affinity(
        T.Tensor(rng.uniform(-1, 1, (8, N, 5, 6)))).data

    def fn(h, kappa):
        return cspn.refine(h, kappa, 3)

    _check(fn, [rng.uniform(-1, 1, (3, N, 5, 6)), kappa], [], rng)


def test_layers_refuse_the_one_crop_view():
    # past the model's entrance every map carries its crop axis; only
    # conv3d and batchnorm still take a rank-4 map
    rng = np.random.default_rng(8)
    params = ops.ModelParams()
    kappa = T.zeros((8, 4, 5))
    calls = {
        "upsample_concat": lambda: ops.upsample_concat(T.zeros((2, 2, 3, 3)),
                                                       T.zeros((1, 4, 5, 5))),
        "normalize_affinity": lambda: cspn.normalize_affinity(T.zeros((8, 4, 5))),
        "refine": lambda: cspn.refine(T.zeros((3, 4, 5)), kappa, 1),
        "refine, 0 steps": lambda: cspn.refine(T.zeros((3, 4, 5)), kappa, 0),
        "AffinityBranch.forward": lambda: cspn.AffinityBranch(
            params, "affinity", 4, rng).forward(T.zeros((4, 1, 4, 5))),
        "focal_loss": lambda: TR.focal_loss(T.zeros((2, 4, 5)),
                                            np.ones((4, 5), dtype=int), 2.0),
        "_Attention": lambda: M._Attention(params, "attn", 2, rng)(T.zeros((2, 3, 4, 5))),
    }
    taken = []
    for name, call in calls.items():
        try:
            call()
            taken.append(name)
        except T.ShapeError:
            pass
        T.clear_tape()
    assert taken == []


# ---------------------------------------------------------------------------
# the training step's worker process
# ---------------------------------------------------------------------------

def _spy_workers(monkeypatch):
    """The list every ``train._Worker`` started from now on goes to."""
    made = []

    class Spy(TR._Worker):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(TR, "_Worker", Spy)
    return made


@pytest.fixture
def workers(monkeypatch):
    # two CPUs faked, so a batch of two or more starts a worker also under
    # taskset -c 0, where the caller and the worker share the one CPU
    monkeypatch.setattr(ops, "_cpus", lambda: 2)
    return _spy_workers(monkeypatch)


def _scene():
    cube, labels = D.synth_scene(classes=3, size=32, bands=20, seed=4)
    return D.normalize(cube), labels, D.sample_split(labels, "per_class:30", seed=4)


def _model():
    return M.build(M.ModelConfig(in_bands=20, num_classes=3, base_channels=4,
                                 cspn_steps=4), np.random.default_rng(4))


def _config(batch_size, epochs=3):
    return TR.TrainConfig(batch_size=batch_size, epochs=epochs, crop_size=(16, 16), seed=4)


def _gone_and_unpinned(affinity):
    return multiprocessing.active_children() == [] and os.sched_getaffinity(0) == affinity


@pytest.mark.parametrize("batch_size", [2, 5])
def test_worker_steps_match_the_one_pass_oracle(workers, batch_size):
    # the halves re-associate the loss and gradient sums (a normalization
    # scale's gradient, a sum that cancels, moves by up to ~1e-14
    # relative), and each step amplifies what the last one moved: up to
    # 3e-13 after 3 steps on the seeds tried, so 1e-12 relative
    cube, labels, split = _scene()
    model, twin = _model(), _model()
    rows = TR.train(cube, labels, split, model, _config(batch_size))
    assert len(workers) == 1
    want = np.array(oracles.one_pass_training(cube, labels, split, twin, _config(batch_size)))
    got = np.array([(r.focal, r.l2, r.total) for r in rows])
    assert got.shape == want.shape == (3, 3)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    # every parameter within 1e-12 of the largest parameter magnitude
    ours = np.concatenate([t.data.ravel() for _, t in model.params.items()])
    theirs = np.concatenate([t.data.ravel() for _, t in twin.params.items()])
    assert np.max(np.abs(ours - theirs)) <= 1e-12 * np.max(np.abs(theirs))
    for (path, state), (_, reference) in zip(model.params.states(), twin.params.states()):
        for a, b in ((state.running_mean, reference.running_mean),
                     (state.running_var, reference.running_var)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), path


def test_batch_of_one_starts_no_worker_and_keeps_the_one_pass_bytes(workers, tmp_path):
    # one crop is one half: the step is the one-pass step, bit for bit
    cube, labels, split = _scene()
    model, twin = _model(), _model()
    rows = TR.train(cube, labels, split, model, _config(1))
    want = oracles.one_pass_training(cube, labels, split, twin, _config(1))
    assert workers == []
    assert [(r.focal, r.l2, r.total) for r in rows] == want
    M.save_checkpoint(model, tmp_path / "split.ckpt")
    M.save_checkpoint(twin, tmp_path / "one-pass.ckpt")
    assert (tmp_path / "split.ckpt").read_bytes() == (tmp_path / "one-pass.ckpt").read_bytes()


class _Stop(Exception):
    pass


@pytest.mark.parametrize("stop", ["return", "early-stop", "on-epoch-raises"])
def test_worker_is_gone_and_affinity_restored_after_train(workers, stop):
    cube, labels, split = _scene()
    affinity, pinned = os.sched_getaffinity(0), []
    blas, blas_during = TR._blas_threads(), []

    def on_epoch(epoch, row):
        pinned.append(os.sched_getaffinity(0))
        blas_during.append(TR._blas_threads())
        if stop == "on-epoch-raises":
            raise _Stop("on_epoch raised")
        return stop == "early-stop"

    try:
        TR.train(cube, labels, split, _model(), _config(2, 2), on_epoch=on_epoch)
    except _Stop:
        assert stop == "on-epoch-raises"
    assert len(pinned) == (2 if stop == "return" else 1)
    # the caller ran its half on one of the CPUs it was allowed, with one
    # BLAS thread where an OpenBLAS is loaded
    assert all(len(cpus) == 1 and cpus <= affinity for cpus in pinned)
    assert set(blas_during) == ({None} if blas is None else {1})
    assert len(workers) == 1
    assert _gone_and_unpinned(affinity)
    assert TR._blas_threads() == blas


def test_worker_error_reaches_the_caller_with_the_finished_rows(workers, monkeypatch, tmp_path):
    # the worker's second call of focal_loss raises; the caller re-raises it
    # with its message, after the first step's row went to the trace
    caller, calls, focal_loss = os.getpid(), [], TR.focal_loss

    def fails_in_the_worker(logits, crop_labels, gamma):
        if os.getpid() != caller:
            calls.append(None)
            if len(calls) == 2:
                raise T.NumericError("focal_loss produced non-finite values")
        return focal_loss(logits, crop_labels, gamma)

    monkeypatch.setattr(TR, "focal_loss", fails_in_the_worker)
    cube, labels, split = _scene()
    affinity = os.sched_getaffinity(0)
    trace = tmp_path / "trace.csv"
    with pytest.raises(T.NumericError, match="focal_loss produced non-finite values"):
        TR.train(cube, labels, split, _model(), _config(2, 4), trace_path=trace)
    assert calls == []  # the caller's own copy never counted
    lines = trace.read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0"]
    assert len(workers) == 1 and workers[0].process.exitcode == 0
    assert _gone_and_unpinned(affinity)


def test_worker_forks_only_once_no_other_thread_is_alive(workers, monkeypatch):
    cube, labels, split = _scene()
    # conv3d's worker thread is alive here: train shuts it down and forks
    x = np.random.default_rng(1).uniform(-1, 1, (2, 2, 6, 10, 10))
    with monkeypatch.context() as m:
        m.setattr(ops, "_SLAB_BYTES", 1)  # one row a slab: many slabs
        ops.conv3d(T.Tensor(x), T.Tensor(np.ones((2, 2, 3, 3, 3))), None,
                   ops.Conv3dSpec(kernel=(3, 3, 3), stride=(1, 1, 1)))
    assert any(t.name.startswith("fcspn-conv3d") for t in threading.enumerate())
    one = TR.train(cube, labels, split, _model(), _config(2, 1))
    assert len(workers) == 1
    # a thread of the caller's own: the caller runs both halves itself
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        two = TR.train(cube, labels, split, _model(), _config(2, 1))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert len(workers) == 1
    assert [(r.focal, r.total) for r in one] == [(r.focal, r.total) for r in two]


_KILLED_CALLER = """
import multiprocessing, os, signal
import numpy as np
from fcspn import data as D, model as M, ops, train as TR
ops._cpus = lambda: 2
cube, labels = D.synth_scene(classes=3, size=32, bands=20, seed=4)
split = D.sample_split(labels, "per_class:30", seed=4)
model = M.build(M.ModelConfig(in_bands=20, num_classes=3, base_channels=4,
                              cspn_steps=4), np.random.default_rng(4))

def on_epoch(epoch, row):
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)

TR.train(D.normalize(cube), labels, split, model,
         TR.TrainConfig(batch_size=2, epochs=5, crop_size=(16, 16)), on_epoch=on_epoch)
"""


def _running(pid) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_worker_exits_when_its_caller_is_killed():
    # SIGKILL runs no finally in the caller; the worker sees EOF on its pipe
    env = dict(os.environ)
    src = str(Path(ops.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    caller = subprocess.Popen([sys.executable, "-c", _KILLED_CALLER], env=env,
                              stdout=subprocess.PIPE, text=True)
    with caller.stdout:
        pids = [int(word) for word in caller.stdout.readline().split()]
    assert caller.wait(timeout=120) == -signal.SIGKILL
    assert len(pids) == 1
    deadline = time.monotonic() + 30
    while _running(pids[0]) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = _running(pids[0])
    if left:
        os.kill(pids[0], signal.SIGKILL)
    assert not left
