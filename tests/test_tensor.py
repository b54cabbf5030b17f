import io
import math
import struct

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
    t = T.kaiming_normal((200, 50), fan_in=50, rng=rng)
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


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def test_relu_values():
    out = T.relu(T.Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0, 0, 2])


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
        return T.reduce_sum(T.relu(T.mul(t, t)))

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


def test_gradcheck_composed_graph():
    rng = np.random.default_rng(17)

    def build(a, b):
        y = T.mul(T.sigmoid(a), T.add(b, T.relu(a)))
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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_tsr1_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    t = T.Tensor(rng.uniform(-1, 1, (2, 3, 4)).astype(np.float32))
    p = tmp_path / "t.tsr"
    with open(p, "wb") as fh:
        T.write_tensor_record(fh, t.data)
    with open(p, "rb") as fh:
        back = T.Tensor(T.read_tensor_record(fh))
    assert back.shape == (2, 3, 4)
    assert np.array_equal(back.data, t.data)


def test_tsr1_layout(tmp_path):
    t = T.Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    p = tmp_path / "t.tsr"
    with open(p, "wb") as fh:
        T.write_tensor_record(fh, t.data)
    raw = p.read_bytes()
    assert raw[:4] == b"TSR1"
    assert raw[4] == 2
    assert np.frombuffer(raw[5:13], dtype="<u4").tolist() == [2, 3]
    assert np.frombuffer(raw[13:], dtype="<f4").tolist() == [0, 1, 2, 3, 4, 5]


def test_tsr1_bad_magic(tmp_path):
    p = tmp_path / "bad.tsr"
    p.write_bytes(b"XXXX\x01\x02\x00\x00\x00")
    with open(p, "rb") as fh, pytest.raises(T.FormatError):
        T.read_tensor_record(fh)


def test_tsr1_truncated(tmp_path):
    p = tmp_path / "short.tsr"
    p.write_bytes(b"TSR1\x01\x04\x00\x00\x00" + b"\x00" * 7)
    with open(p, "rb") as fh, pytest.raises(T.FormatError):
        T.read_tensor_record(fh)


class _RecordingReader(io.BytesIO):
    """An in-memory file that remembers the size of every read."""

    def __init__(self, raw):
        super().__init__(raw)
        self.reads = []

    def read(self, size=-1):
        self.reads.append(size)
        return super().read(size)


def test_tsr1_payload_checked_before_read():
    # the header claims 1000 values (4000 bytes); 3 bytes short of that remain
    fh = _RecordingReader(b"TSR1\x01" + struct.pack("<I", 1000) + b"\x00" * 3997)
    with pytest.raises(T.FormatError, match="4000 bytes claimed, 3997 remain"):
        T.read_tensor_record(fh)
    assert max(fh.reads) < 4000


@pytest.mark.parametrize("extents, message", [
    ((2, 0), "invalid extent 0"),
    ((2**31 + 1,), "invalid extent"),
    ((2**20, 2**20), "extent overflow"),
], ids=["zero", "too-large", "overflow"])
def test_tsr1_bad_extents_rejected(extents, message):
    raw = b"TSR1" + struct.pack(f"<B{len(extents)}I", len(extents), *extents)
    with pytest.raises(T.FormatError, match=message):
        T.read_tensor_record(io.BytesIO(raw))
