import math
import tracemalloc
import weakref

import numpy as np
import pytest

import gradcheck
import oracles
from fcspn import tensor as T


def setup_function(_):
    T.clear_tape()


# ---------------------------------------------------------------------------
# creation
# ---------------------------------------------------------------------------

def test_zeros_fill():
    t = T.zeros((2, 2))
    assert t.shape == (2, 2)
    assert np.array_equal(t.data, [[0, 0], [0, 0]])


def test_constant_fill():
    t = T.full((3,), 1.0)
    assert np.array_equal(t.data, [1, 1, 1])


def test_kaiming_std():
    rng = np.random.default_rng(3)
    t = T.kaiming_normal((200, 50), rng=rng)
    assert t.data.std() == pytest.approx(math.sqrt(2 / 50), rel=0.05)


def test_bad_extent_rejected():
    with pytest.raises(T.ShapeError):
        T.zeros((0, 3))
    with pytest.raises(T.ShapeError):
        T.zeros((2, -1))


def test_nonfinite_rejected():
    with pytest.raises(T.NumericError):
        T.full((2,), float("inf"))
    with pytest.raises(T.NumericError):
        T.Tensor([1.0, float("nan")])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "+inf", "-inf"])
def test_each_nonfinite_value_rejected_in_a_tensor_and_an_op(bad):
    values = np.zeros((3, 4))
    values[1, 2] = bad
    with pytest.raises(T.NumericError, match="tensor"):
        T.Tensor(values)
    # every op output goes through record
    x = T.Tensor(np.zeros((3, 4)), requires_grad=True)
    with pytest.raises(T.NumericError, match="probe"):
        T.record("probe", [x], values, lambda g: None)
    assert T.tape_size() == 0


def test_empty_tensor_passes_the_finite_check():
    assert T.Tensor(np.zeros(0)).size == 0


def test_finite_check_allocates_no_temporary():
    # a bool mask of the values would hold one byte per value, 2 MiB here
    values = np.random.default_rng(0).uniform(-1, 1, 1 << 21).astype(np.float32)
    tracemalloc.start()
    try:
        T.Tensor(values)
        T.record("probe", [], values, lambda g: None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, peak


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def test_sigmoid_at_zero():
    assert T.sigmoid(T.Tensor(0.0)).item() == 0.5


def test_add_values():
    out = T.add(T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [4, 6])


def test_incompatible_shapes():
    with pytest.raises(T.ShapeError):
        T.add(T.zeros((2, 3)), T.zeros((4,)))


def test_broadcast_matches_materialization_oracle():
    rng = np.random.default_rng(11)
    shapes = [(1,), (3,), (2, 1), (1, 3), (2, 3), (3, 1, 2), (1, 3, 1, 2), (3, 3, 3, 3)]
    for sa in shapes:
        for sb in shapes:
            try:
                target = np.broadcast_shapes(sa, sb)
            except ValueError:
                continue
            a = rng.uniform(-1, 1, sa)
            b = rng.uniform(-1, 1, sb)
            am = oracles.broadcast_materialize(a, target)
            bm = oracles.broadcast_materialize(b, target)
            assert np.array_equal(T.add(T.Tensor(a), T.Tensor(b)).data, am + bm)
            assert np.array_equal(T.mul(T.Tensor(a), T.Tensor(b)).data, am * bm)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def test_reduce_examples():
    assert T.reduce_mean(T.Tensor([[1.0, 3.0], [5.0, 7.0]])).item() == 4.0
    assert T.reduce_sum(T.Tensor([1.0, 2.0, 3.0]), axes=(0,)).item() == 6.0


def test_reduce_empty_axes_is_identity():
    x = T.Tensor([[1.0, 2.0]])
    out = T.reduce_sum(x, axes=())
    assert np.array_equal(out.data, x.data)


def test_reduce_duplicate_axes_rejected():
    with pytest.raises(T.ShapeError):
        T.reduce_sum(T.zeros((2, 2)), axes=(0, 0))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_linear():
    w = T.Tensor([2.0, 3.0], requires_grad=True)
    x = T.Tensor([1.0, 1.0])
    loss = T.reduce_sum(T.mul(w, x))
    T.backward(loss)
    assert np.array_equal(w.grad, [1, 1])


def test_backward_sigmoid_gate():
    x = T.Tensor(0.0, requires_grad=True)
    loss = T.sigmoid(x)
    T.backward(loss)
    assert x.grad == pytest.approx(0.25)


def test_backward_requires_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = T.mul(x, T.Tensor(2.0))
    with pytest.raises(T.ShapeError):
        T.backward(y)


def test_backward_refuses_a_loss_off_the_tape():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = T.reduce_sum(x)
    with T.no_grad():
        unrecorded = T.reduce_sum(x)
    for loss in (T.Tensor(2.0), unrecorded):
        with pytest.raises(RuntimeError, match="did not record"):
            T.backward(loss)
        assert loss.grad is None
    # the refusal leaves the tape for the real loss
    assert T.tape_size() == 1 and x.grad is None
    T.backward(y)
    assert np.array_equal(x.grad, [1.0, 1.0])


def test_second_backward_rejected():
    x = T.Tensor(1.0, requires_grad=True)
    loss = T.mul(x, T.Tensor(2.0))
    T.backward(loss)
    with pytest.raises(RuntimeError):
        T.backward(loss)


def test_backward_sum_of_graphs_is_sum_of_backwards():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, (3, 2))

    def f(t):
        return T.reduce_sum(T.mul(T.mul(t, t), t))

    def g(t):
        return T.reduce_mean(T.sigmoid(t))

    x = T.Tensor(a, requires_grad=True)
    T.backward(T.add(f(x), g(x)))
    combined = x.grad.copy()

    x.zero_grad()
    T.backward(f(x))
    gf = x.grad.copy()
    x.zero_grad()
    T.backward(g(x))
    gg = x.grad.copy()
    assert np.allclose(combined, gf + gg, atol=1e-12)


def test_backward_consumes_the_tape_as_it_walks():
    rng = np.random.default_rng(29)
    a, b = rng.uniform(-1, 1, (2, 3, 4))
    x = T.Tensor(a, requires_grad=True)
    w = T.Tensor(b, requires_grad=True)
    s = T.sigmoid(x)
    p = T.mul(s, w)
    q = T.add(p, x)
    r = T.sigmoid(q)
    loss = T.reduce_sum(r)
    outs = [s, p, q, r, loss]
    assert T.tape_size() == len(outs)  # one node per op, in creation order

    refs = []  # weakref to each node's pullback, by tape index
    walked = []

    def checked(k, fn):
        def pullback(g):
            assert T.tape_size() == k  # nodes 0..k-1 are not yet walked
            assert outs[k].grad is None  # taken before the pullback runs
            for j in walked:
                assert refs[j]() is None, f"pullback {j} outlived its node"
                assert outs[j].grad is None
            fn(g)
            walked.append(k)
        return pullback

    for k, node in enumerate(T._TAPE):
        refs.append(weakref.ref(node.fn))
        node.fn = checked(k, node.fn)
    del node
    T.backward(loss)

    assert walked == [4, 3, 2, 1, 0]
    assert T.tape_size() == 0
    assert all(ref() is None for ref in refs)
    assert all(out.grad is None for out in outs)
    # leaf gradients, by hand
    sa = 1 / (1 + np.exp(-a))
    rq = 1 / (1 + np.exp(-(sa * b + a)))
    dq = rq * (1 - rq)
    assert np.allclose(w.grad, dq * sa, rtol=0, atol=1e-14)
    assert np.allclose(x.grad, dq + dq * b * sa * (1 - sa), rtol=0, atol=1e-14)


def test_backward_memory_does_not_grow_with_depth():
    # 32 element-wise ops on a 1 MiB array: kept until the walk ended,
    # their output gradients alone would be 32 MiB
    rng = np.random.default_rng(31)
    x = T.Tensor(rng.uniform(-1, 1, 1 << 17), requires_grad=True)
    half = T.Tensor(0.5)
    h = x
    for k in range(32):
        h = T.sigmoid(h) if k % 2 else T.mul(h, half)
    loss = T.reduce_sum(h)
    tracemalloc.start()
    try:
        T.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad is not None and np.any(x.grad != 0)
    assert peak < 4 * x.data.nbytes, peak


def test_gradcheck_composed_graph():
    rng = np.random.default_rng(17)

    def build(a, b):
        y = T.mul(T.sigmoid(a), T.add(b, T.mul(a, a)))
        return T.reduce_sum(y)

    for i in range(20):
        arrs = [rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, (2, 3))]
        gradcheck.check_grads(build, arrs)


def test_gradcheck_broadcast_ops():
    rng = np.random.default_rng(19)

    def build(a, b):
        return T.reduce_sum(T.mul(T.add(a, b), a))

    for i in range(10):
        arrs = [rng.uniform(-1, 1, (2, 3, 2)), rng.uniform(-1, 1, (3, 1))]
        gradcheck.check_grads(build, arrs)


def test_gradcheck_reductions():
    rng = np.random.default_rng(23)
    proj = gradcheck.projection((2, 4), rng)

    def build(a):
        m = T.reduce_mean(a, axes=(1,))
        s = T.reduce_sum(a, axes=(2,))
        return T.add(T.reduce_sum(T.mul(s, proj)), T.reduce_sum(m))

    for i in range(10):
        gradcheck.check_grads(build, [rng.uniform(-1, 1, (2, 4, 3))])


def test_no_grad_suppresses_tape():
    x = T.Tensor(1.0, requires_grad=True)
    with T.no_grad():
        y = T.mul(x, T.Tensor(3.0))
    assert not y.requires_grad
    assert T.tape_size() == 0
