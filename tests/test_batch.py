"""A batch of crops through each op equals the crops one at a time, stacked.

Every op carries a crop axis (axis 1 of its feature maps).  Outputs and
input gradients of a batch must be bitwise equal to the per-crop results
stacked on that axis.  Parameter gradients sum over crops in another
order, so they agree to 1e-13 relative.  Batchnorm's running statistics
must be bitwise equal to folding the crops in one at a time.

conv3d runs on integer-valued data: BLAS picks its GEMM kernel by matrix
size, and OpenBLAS's small-matrix kernel sums in another order than its
blocked one, so a product over three crops' columns may round differently
from three per-crop products.  With integers every sum is exact, and any
difference is an error in the crop plumbing, not in BLAS's rounding.
For the same reason conv3d's one-thread and two-thread paths are compared
on integer-valued data too.
"""

import numpy as np
import pytest

from fcspn import cspn, ops
from fcspn import tensor as T

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
    parameters against the same call on each crop."""
    with T.no_grad():
        shape = fn(*[T.Tensor(a) for a in batched + shared]).shape
    proj = rng.integers(-3, 4, shape).astype(float)
    out, grads = _run(fn, batched + shared, proj)
    per = [_run(fn, [a[:, k] for a in batched] + shared, proj[:, k]) for k in range(N)]
    assert np.array_equal(out, np.stack([o for o, _ in per], axis=1))
    for i in range(len(batched)):
        assert np.array_equal(grads[i], np.stack([g[i] for _, g in per], axis=1)), i
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
    # every network convolution plus one of 12 stride phases, at a budget
    # that cuts the forward's grid into an odd number of slabs, and into
    # more of them, still odd, at the half budget of the two-thread path
    rng = np.random.default_rng(7)
    spec = ops.Conv3dSpec(kernel=kernel, stride=stride)
    x = rng.integers(-4, 5, (2, N, 13, 8, 5)).astype(float)
    arrays = [x, rng.integers(-4, 5, (3, 2) + kernel).astype(float)]
    if bias:
        arrays.append(rng.integers(-4, 5, 3).astype(float))
    od, oh, ow = spec.out_extents(x.shape[-3:])
    proj = rng.integers(-3, 4, (3, N, od, oh, ow)).astype(float)
    row_bytes = int(np.prod(arrays[1].shape[1:])) * ow * 8
    for rows in range(2, N * od * oh):
        monkeypatch.setattr(ops, "_SLAB_BYTES", rows * row_bytes)
        whole, half = (len(ops._slabs(N, od, oh, row_bytes, t)) for t in (1, 2))
        if whole % 2 and half % 2 and 3 <= whole < half:
            break
    else:
        pytest.fail("no budget gives odd slab counts")
    handoffs = []
    start = ops._Helper.start

    def counted(helper, job):
        handoffs.append(True)
        start(helper, job)

    monkeypatch.setattr(ops._Helper, "start", counted)

    def fn(x, w, b=None):
        return ops.conv3d(x, w, b, spec)

    def both(arrays):
        monkeypatch.setattr(ops, "_cpus", lambda: 1)
        one = _run(fn, arrays, proj)
        assert not handoffs
        monkeypatch.setattr(ops, "_cpus", lambda: 2)
        two = _run(fn, arrays, proj)
        assert handoffs
        handoffs.clear()
        return one, two

    one, two = both(arrays)
    assert np.array_equal(one[0], two[0])
    for want, got in zip(one[1], two[1]):
        assert np.array_equal(want, got)
    # the weight gradient adds the same per-slab products in the same order
    # on both paths, so it is bitwise equal on float data too
    one, two = both([rng.uniform(-1, 1, x.shape)] + arrays[1:])
    assert np.array_equal(one[1][1], two[1][1])


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
        ops.batchnorm(T.Tensor(x[:, k]), T.full((4,), 1.0), T.zeros((4,)),
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
