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
data, and so must a short training run on one CPU and on two.
"""

import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fcspn import cspn
from fcspn import data as D
from fcspn import model as M
from fcspn import ops
from fcspn import tensor as T
from fcspn import train as TR

N = 3


def setup_function(_):
    T.clear_tape()


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

    assert digest(1) == digest(2)


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


def test_propagate_step_batch_equals_crops():
    rng = np.random.default_rng(6)
    kappa = cspn.normalize_affinity(
        T.Tensor(rng.uniform(-1, 1, (8, N, 5, 6)))).data
    _check(cspn.propagate_step, [rng.uniform(-1, 1, (3, N, 5, 6)), kappa], [], rng)


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
        "propagate_step": lambda: cspn.propagate_step(T.zeros((3, 4, 5)), kappa),
        "refine": lambda: cspn.refine(T.zeros((3, 4, 5)), kappa, 1),
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
