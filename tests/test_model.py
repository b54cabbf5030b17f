import io
import struct
import tracemalloc

import numpy as np
import pytest

import gradcheck
from fcspn import data as D
from fcspn import model as M
from fcspn import ops
from fcspn import tensor as T


def setup_function(_):
    T.clear_tape()


def _tiny(bands=20, classes=3, base=2, **kw):
    return M.ModelConfig(in_bands=bands, num_classes=classes,
                         base_channels=base, **kw)


# ---------------------------------------------------------------------------
# extents
# ---------------------------------------------------------------------------

def test_stem_extent_examples():
    m = M.build(_tiny(bands=204, base=4))
    assert m.stem_conv.spec.out_extents((204, 64, 64)) == (41, 64, 64)
    m = M.build(_tiny(bands=20, base=4))
    assert m.stem_conv.spec.out_extents((20, 32, 32)) == (4, 32, 32)


def test_down_chain_doubles_and_halves():
    m = M.build(M.ModelConfig(in_bands=200, num_classes=3, base_channels=16))
    ext = m.stem_conv.spec.out_extents((200, 64, 64))
    assert ext == (40, 64, 64)
    for down, channels, halved in zip(m.downs, (32, 64, 128),
                                      ((20, 32, 32), (10, 16, 16), (5, 8, 8))):
        assert down.conv_b.w.shape[0] == channels
        ext = down.out_extents(ext)
        assert ext == halved
    assert m.deepest_extents(64, 64) == (5, 8, 8)


@pytest.mark.parametrize("bands,height,width", [(20, 9, 13), (37, 16, 10)])
def test_deepest_extents_match_the_forward(bands, height, width, monkeypatch):
    # the first up block joins down3's output with its mirror
    joined = []
    join = ops.upsample_concat

    def spy(x, mirror):
        joined.append(x.shape)
        return join(x, mirror)

    monkeypatch.setattr(ops, "upsample_concat", spy)
    m = M.build(_tiny(bands=bands, base=2), np.random.default_rng(3))
    m.forward(T.zeros((bands, height, width)))
    assert joined[0][2:] == m.deepest_extents(height, width)


def test_down_block_ceil_division():
    m = M.build(_tiny(bands=20, base=16))
    assert m.downs[0].out_extents((5, 4, 4)) == (3, 2, 2)


def test_forward_shapes_match_plan():
    rng = np.random.default_rng(1)
    m = M.build(_tiny(bands=20, classes=3, base=4), rng)
    x = T.Tensor(rng.uniform(-1, 1, (1, 20, 16, 16)))
    logits = m.forward(x)
    assert logits.shape == (3, 16, 16)


def test_forward_batch_matches_cubes():
    rng = np.random.default_rng(2)
    m = M.build(_tiny(bands=20, classes=3, base=2), rng)
    x = rng.uniform(-1, 1, (1, 2, 20, 9, 9))
    refined, logits = m.forward_refined(T.Tensor(x))
    assert refined.shape == logits.shape == (3, 2, 9, 9)
    for k in range(2):
        one, _ = m.forward_refined(T.Tensor(x[:, k]))
        assert one.shape == (3, 9, 9)
        # the batch's GEMMs may pick another BLAS kernel than one cube's
        assert np.allclose(refined.data[:, k], one.data, rtol=0, atol=1e-12)


def test_forward_refined_unrefined_scores_are_forward(tmp_path):
    rng = np.random.default_rng(3)
    built = M.build(_tiny(bands=20, classes=3, base=2, cspn_steps=3), rng)
    M.save_checkpoint(built, tmp_path / "m.fcsp")
    loaded = M.load_checkpoint(tmp_path / "m.fcsp")
    x = T.Tensor(rng.uniform(-1, 1, (20, 12, 12)).astype(np.float32))
    for net, dtype in ((built, np.float64), (loaded, np.float32)):
        with T.no_grad():
            _, unrefined = net.forward_refined(x)
            plain = net.forward(x)
        assert unrefined.data.dtype == plain.data.dtype == dtype
        assert unrefined.data.tobytes() == plain.data.tobytes()


def test_forward_rejects_bad_inputs():
    m = M.build(_tiny())
    with pytest.raises(T.ShapeError):
        m.forward(T.zeros((1, 20, 7, 8)))
    with pytest.raises(T.ShapeError):
        m.forward(T.zeros((1, 12, 8, 8)))
    with pytest.raises(T.ShapeError):
        m.forward(T.zeros((2, 20, 8, 8)))
    with pytest.raises(T.ShapeError):
        m.forward(T.zeros((2, 1, 20, 8, 8)))
    with pytest.raises(T.ShapeError):
        M.ModelConfig(in_bands=4, num_classes=2)


def test_forward_refined_peak_memory_is_bounded():
    # a float32 model on a 128x128x20 cube, base 8, under no_grad: the
    # tracemalloc peak measured 17.15 MiB with out-of-place batchnorm and a
    # separate upsampled map before each decoder join, 13.15 MiB with each
    # forward output allocated once.  The bound is 10% over the latter, so
    # an op that brings back a full-size temporary fails it.
    rng = np.random.default_rng(0)
    net = M.build(M.ModelConfig(in_bands=20, num_classes=4, base_channels=8), rng)
    net.params.cast(np.float32)
    x = T.Tensor(rng.uniform(-1, 1, (20, 128, 128)).astype(np.float32))
    tracemalloc.start()
    try:
        with T.no_grad():
            net.forward_refined(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 14.5 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_training_forward_tape_memory_is_bounded():
    # a float64 model, base 8, 24 CSPN steps, on a batch of four 32x32x20
    # crops in training mode: tracemalloc's current bytes with the tape full
    # read 33.50 MiB when the tape held each pre-ReLU map and each step's
    # padded copy, 26.52 MiB with the ReLU folded into its normalization,
    # 30.08 MiB with the pullback re-padding, and 23.10 MiB with both.  The
    # bound is 10% over the last, so undoing either half fails it.
    rng = np.random.default_rng(0)
    net = M.build(M.ModelConfig(in_bands=20, num_classes=4, base_channels=8,
                                cspn_steps=24), rng)
    x = T.Tensor(rng.uniform(-1, 1, (1, 4, 20, 32, 32)))
    tracemalloc.start()
    try:
        net.forward_refined(x, training=True)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert T.tape_size() > 0
    assert held < 25.4 * 2 ** 20, f"held {held / 2 ** 20:.2f} MiB"


def test_num_classes_bounded_by_label_map_ids():
    assert _tiny(classes=D.MAX_CLASSES).num_classes == D.MAX_CLASSES
    for classes in (0, D.MAX_CLASSES + 1):
        with pytest.raises(T.ShapeError, match="num_classes"):
            _tiny(classes=classes)


def test_cspn_steps_bounded():
    assert _tiny(cspn_steps=M.MAX_CSPN_STEPS).cspn_steps == M.MAX_CSPN_STEPS
    for steps in (-1, M.MAX_CSPN_STEPS + 1):
        with pytest.raises(T.ShapeError, match="cspn_steps"):
            _tiny(cspn_steps=steps)


# ---------------------------------------------------------------------------
# block behavior
# ---------------------------------------------------------------------------

def test_dsr_zeroed_branches_are_identity():
    rng = np.random.default_rng(2)
    params = ops.ModelParams()
    unit = M._DsrUnit(params, "dsr", 3, rng)
    for p in params.paths():
        if p.endswith("weights"):
            params.get(p).data[:] = 0.0
    x = T.Tensor(rng.uniform(-1, 1, (3, 4, 5, 5)))
    out = unit(x, training=True)
    assert np.array_equal(out.data, x.data)


def test_dsr_preserves_shape():
    rng = np.random.default_rng(3)
    unit = M._DsrUnit(ops.ModelParams(), "dsr", 2, rng)
    x = T.Tensor(rng.uniform(-1, 1, (2, 3, 6, 7)))
    assert unit(x, training=True).shape == x.shape


def test_dsr_separable_weight_budget():
    # kernel cells per channel pair: (9 + 3) per branch, both branches = 24,
    # versus 27 for one dense 3x3x3 kernel
    params = ops.ModelParams()
    M._DsrUnit(params, "dsr", 3, np.random.default_rng(0))
    cells = sum(int(np.prod(params.get(p).shape[2:]))
                for p in params.paths() if p.endswith("weights"))
    assert cells == 24
    assert cells < 3 * 3 * 3


def test_attention_matches_squeeze_excitation():
    rng = np.random.default_rng(4)
    attn = M._Attention(ops.ModelParams(), "attn", 3, rng)
    attn.gate.b.data[:] = rng.uniform(-0.5, 0.5, 3)
    x = rng.uniform(-1, 1, (3, 1, 2, 4, 4))
    z = attn.gate.w.data.reshape(3, 3) @ x.mean(axis=(2, 3, 4)) + attn.gate.b.data[:, None]
    want = x / (1.0 + np.exp(-z))[:, :, None, None, None]
    out = attn(T.Tensor(x)).data
    assert np.allclose(out, want, atol=1e-12)
    # the gate depends on the input, unlike a fixed per-channel scale
    other = attn(T.Tensor(2.0 * x)).data
    assert not np.allclose(other, 2.0 * out, atol=1e-6)


def test_attention_bounds():
    rng = np.random.default_rng(5)
    attn = M._Attention(ops.ModelParams(), "attn", 2, rng)
    x = T.Tensor(rng.uniform(-2, 2, (2, 1, 3, 5, 5)))
    out = attn(x)
    ratio = out.data / np.where(x.data == 0, 1, x.data)
    assert np.all(np.abs(out.data) <= np.abs(x.data))
    assert np.all((ratio > 0) | (x.data == 0))


def test_head_zero_weights_gives_bias_logits():
    rng = np.random.default_rng(6)
    m = M.build(_tiny(bands=20, classes=3, base=2), rng)
    m.head_conv.w.data[:] = 0.0
    m.head_conv.b.data[:] = [0.5, -1.0, 2.0]
    logits = m.forward(T.Tensor(rng.uniform(-1, 1, (1, 20, 8, 8)))).data
    for j, v in enumerate([0.5, -1.0, 2.0]):
        assert np.allclose(logits[j], v, atol=1e-12)


def test_head_class_permutation_symmetry():
    rng = np.random.default_rng(7)
    m = M.build(_tiny(bands=20, classes=4, base=2), rng)
    x = T.Tensor(rng.uniform(-1, 1, (1, 20, 8, 8)))
    base = m.forward(x).data
    perm = [2, 0, 3, 1]
    m.head_conv.w.data[:] = m.head_conv.w.data[perm]
    m.head_conv.b.data[:] = m.head_conv.b.data[perm]
    permuted = m.forward(x).data
    assert np.allclose(permuted, base[perm], atol=1e-12)


def test_zero_stem_weights_zero_output():
    rng = np.random.default_rng(8)
    m = M.build(_tiny(bands=20, base=2), rng)
    m.stem_conv.w.data[:] = 0.0
    x = T.Tensor(rng.uniform(-1, 1, (1, 20, 8, 8)))
    out = m.stem_norm(m.stem_conv(x), False)
    assert np.array_equal(out.data, np.zeros_like(out.data))


# ---------------------------------------------------------------------------
# parameter registry
# ---------------------------------------------------------------------------

def _expected_count(cfg):
    b, c, r = cfg.base_channels, cfg.num_classes, cfg.dsr_per_stage
    total = 5 * b + 2 * b  # stem conv + norm
    ch = b
    for _ in range(3):
        m = 2 * ch
        total += 27 * ch * m + 2 * m          # conv_a + norm_a
        total += 9 * m * m + 2 * m            # conv_b + norm_b
        total += r * (24 * m * m + 8 * m)     # dsr units
        if cfg.attention_enabled:
            total += m * m + m                # gate conv + bias
        ch = m
    for cx, cout in ((8 * b, 4 * b), (4 * b, 2 * b), (2 * b, b)):
        total += 5 * (cx + cout) * cout + 2 * cout
        total += 27 * cout * cout + 2 * cout
    total += b * c + c                        # head conv + bias
    total += 9 * b * b + 2 * b + 72 * b + 8   # affinity branch
    return total


@pytest.mark.parametrize("cfg", [
    _tiny(bands=20, classes=3, base=2),
    _tiny(bands=103, classes=9, base=4, dsr_per_stage=2),
    _tiny(bands=20, classes=5, base=3, attention_enabled=False),
])
def test_param_count_closed_form(cfg):
    m = M.build(cfg)
    assert sum(t.size for _, t in m.params.items()) == _expected_count(cfg)


def test_param_count_default_config_regression():
    m = M.build(M.ModelConfig(in_bands=204, num_classes=15))
    assert sum(t.size for _, t in m.params.items()) == _expected_count(m.config)
    assert sum(t.size for _, t in m.params.items()) == 1254455


def test_duplicate_path_rejected():
    params = ops.ModelParams()
    t = T.zeros((2,), requires_grad=True)
    params.register("a.weights", t, decay=True)
    with pytest.raises(T.ShapeError):
        params.register("a.weights", T.zeros((2,)), decay=True)
    with pytest.raises(T.ShapeError):
        params.register("b.weights", t, decay=True)


def test_param_paths_are_stable_for_config():
    a = M.build(_tiny(), np.random.default_rng(1))
    b = M.build(_tiny(), np.random.default_rng(2))
    assert a.params.paths() == b.params.paths()
    assert "down1.conv_a.weights" in a.params.paths()
    assert "affinity.head.weights" in a.params.paths()


# ---------------------------------------------------------------------------
# checkpoint file
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    m = M.build(_tiny(bands=20, classes=3, base=2), rng)
    x = T.Tensor(rng.uniform(-1, 1, (1, 20, 9, 9)))
    with T.no_grad():
        m.forward(x, training=True)  # move the running statistics
    p = tmp_path / "model.fcsp"
    M.save_checkpoint(m, p)
    back = M.load_checkpoint(p)
    assert back.config == m.config
    for path in m.params.paths():
        want = m.params.get(path).data.astype("<f4").astype(np.float64)
        assert back.params.get(path).data.dtype == np.float32, path
        assert np.array_equal(back.params.get(path).data, want), path
    with T.no_grad():
        a = m.forward(x).data
        b = back.forward(x).data
    assert np.allclose(a, b, atol=1e-4)


def test_load_checkpoint_draws_no_weights(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    m = M.build(_tiny(bands=20, classes=3, base=2), rng)
    p = tmp_path / "model.fcsp"
    M.save_checkpoint(m, p)

    def no_draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random weights")

    monkeypatch.setattr(T, "kaiming_normal", no_draw)
    back = M.load_checkpoint(p)
    for path in m.params.paths():
        want = m.params.get(path).data.astype("<f4").astype(np.float64)
        assert np.array_equal(back.params.get(path).data, want), path


def test_checkpoint_save_is_stable(tmp_path):
    m = M.build(_tiny(bands=20, classes=3, base=2), np.random.default_rng(10))
    p1, p2 = tmp_path / "a.fcsp", tmp_path / "b.fcsp"
    M.save_checkpoint(m, p1)
    M.save_checkpoint(M.load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("value", [1e39, -np.inf, np.nan], ids=["beyond-f32", "inf", "nan"])
def test_checkpoint_save_refuses_what_float32_cannot_hold(tmp_path, value):
    # refused before the file is opened, with no cast warning
    m = M.build(_tiny(bands=20, classes=3, base=2), np.random.default_rng(12))
    m.params.get("up2.conv_b.weights").data.flat[4] = value
    p = tmp_path / "model.fcsp"
    with pytest.raises(T.NumericError, match="float32's range"):
        M.save_checkpoint(m, p)
    assert not p.exists()


def test_checkpoint_layout(tmp_path):
    m = M.build(_tiny(bands=20, classes=3, base=2), np.random.default_rng(21))
    p = tmp_path / "model.fcsp"
    M.save_checkpoint(m, p)
    raw = p.read_bytes()
    header = struct.calcsize("<4sIIIIIBI")
    assert header == 29 and raw[:4] == M.CHECKPOINT_MAGIC
    statistics = sum(state.running_mean.size + state.running_var.size
                     for _, state in m.params.states())
    assert len(raw) == header + 4 * sum(t.size for _, t in m.params.items()) + 4 * statistics
    first = m.params.get(sorted(m.params.paths())[0]).data
    assert np.array_equal(np.frombuffer(raw, "<f4", first.size, header),
                          first.astype("<f4").ravel())


class _RecordingReader(io.BytesIO):
    """An in-memory file that remembers the size of every read."""

    def __init__(self, raw):
        super().__init__(raw)
        self.reads = []

    def read(self, size=-1):
        self.reads.append(size)
        return super().read(size)


@pytest.mark.parametrize("delta, message", [(-4, "4 bytes short"),
                                            (4, "4 trailing bytes")],
                         ids=["one-float-short", "one-float-long"])
def test_checkpoint_payload_size_checked_before_read(tmp_path, monkeypatch,
                                                     delta, message):
    m = M.build(_tiny(bands=20, classes=3, base=2), np.random.default_rng(22))
    p = tmp_path / "model.fcsp"
    M.save_checkpoint(m, p)
    raw = p.read_bytes()
    fh = _RecordingReader(raw[:delta] if delta < 0 else raw + bytes(delta))
    monkeypatch.setattr(M, "open", lambda *args: fh, raising=False)
    with pytest.raises(T.FormatError, match=message):
        M.load_checkpoint(p)
    assert fh.reads == [struct.calcsize("<4sIIIIIBI")]  # the header only


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.fcsp"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(T.FormatError):
        M.load_checkpoint(p)


@pytest.mark.parametrize("delta", [-1, 1], ids=["older", "newer"])
def test_checkpoint_other_version_rejected(tmp_path, delta):
    m = M.build(_tiny(bands=20, classes=3, base=2), np.random.default_rng(16))
    p = tmp_path / "model.fcsp"
    M.save_checkpoint(m, p)
    raw = bytearray(p.read_bytes())
    assert struct.unpack_from("<I", raw, 4)[0] == M.CHECKPOINT_VERSION
    struct.pack_into("<I", raw, 4, M.CHECKPOINT_VERSION + delta)
    p.write_bytes(bytes(raw))
    with pytest.raises(T.FormatError, match="version"):
        M.load_checkpoint(p)


def test_checkpoint_truncated(tmp_path):
    m = M.build(_tiny(bands=20, classes=3, base=2), np.random.default_rng(11))
    p = tmp_path / "model.fcsp"
    M.save_checkpoint(m, p)
    clipped = tmp_path / "clipped.fcsp"
    clipped.write_bytes(p.read_bytes()[:-20])
    with pytest.raises(T.FormatError):
        M.load_checkpoint(clipped)


def test_checkpoint_roundtrip_every_batchnorm_state(tmp_path):
    rng = np.random.default_rng(18)
    m = M.build(_tiny(bands=20, classes=3, base=2), rng)
    with T.no_grad():  # move every running statistic, the affinity norm's too
        m.forward_refined(T.Tensor(rng.uniform(-1, 1, (1, 20, 16, 16))),
                          training=True)
    saved = dict(m.params.states())
    assert not np.array_equal(saved["affinity.norm"].running_mean, np.zeros(2))
    p = tmp_path / "model.fcsp"
    M.save_checkpoint(m, p)
    back = dict(M.load_checkpoint(p).params.states())
    assert back.keys() == saved.keys()
    assert "affinity.norm" in back
    for path, state in saved.items():
        for name in ("running_mean", "running_var"):
            want = getattr(state, name).astype("<f4").astype(np.float64)
            got = getattr(back[path], name)
            assert got.dtype == np.float32, (path, name)
            assert np.array_equal(got, want), (path, name)


HUGE_HEADERS = {
    "base_channels": dict(classes=3, base=1 << 20, dsr=1),
    # the most a label map holds: one class more is refused by the
    # num_classes bound before the payload is sized (tested below)
    "num_classes": dict(classes=D.MAX_CLASSES, base=2, dsr=1),
    "dsr_per_stage": dict(classes=3, base=2, dsr=1 << 30),
}


def _huge_checkpoint(path, classes, base, dsr, payload=4):
    """A header claiming a network far larger than the ``payload`` zero
    bytes after it."""
    path.write_bytes(struct.pack("<4sIIIIIBI", M.CHECKPOINT_MAGIC,
                                 M.CHECKPOINT_VERSION, 20, classes, base, dsr,
                                 1, 4) + bytes(payload))


@pytest.mark.parametrize("field", sorted(HUGE_HEADERS))
def test_checkpoint_header_bounded_before_build(tmp_path, monkeypatch, field):
    p = tmp_path / "huge.fcsp"
    _huge_checkpoint(p, **HUGE_HEADERS[field])

    def no_build(*args, **kwargs):
        raise AssertionError("model built before the header was bounded")

    monkeypatch.setattr(M, "FcspnModel", no_build)
    with pytest.raises(T.FormatError, match="bytes"):
        M.load_checkpoint(p)


def test_checkpoint_short_payload_rejected_in_bounded_memory(tmp_path):
    # 330 residual units per stage need about 84 MB of float32 values: 8 MiB
    # of junk is short, and the loader must say so before it allocates them
    p = tmp_path / "junk.fcsp"
    _huge_checkpoint(p, classes=3, base=8, dsr=330, payload=8 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(T.FormatError, match="bytes short"):
            M.load_checkpoint(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"


def _patched_header(tmp_path, offset, value):
    """A saved tiny checkpoint with the u32 header field at ``offset`` set."""
    m = M.build(_tiny(bands=20, classes=3, base=2), np.random.default_rng(19))
    p = tmp_path / "patched.fcsp"
    M.save_checkpoint(m, p)
    raw = bytearray(p.read_bytes())
    struct.pack_into("<I", raw, offset, value)
    p.write_bytes(bytes(raw))
    return p


def test_checkpoint_unbounded_cspn_steps_rejected_before_build(tmp_path, monkeypatch):
    p = _patched_header(tmp_path, struct.calcsize("<4sIIIIIB"), 2**32 - 1)

    def no_build(*args, **kwargs):
        raise AssertionError("model built before the header was checked")

    monkeypatch.setattr(M, "FcspnModel", no_build)
    with pytest.raises(T.FormatError, match="cspn_steps"):
        M.load_checkpoint(p)


def test_checkpoint_more_classes_than_a_label_map_holds_rejected_before_build(
        tmp_path, monkeypatch):
    p = _patched_header(tmp_path, struct.calcsize("<4sII"), D.MAX_CLASSES + 1)

    def no_build(*args, **kwargs):
        raise AssertionError("model built before the header was checked")

    monkeypatch.setattr(M, "FcspnModel", no_build)
    with pytest.raises(T.FormatError, match="num_classes"):
        M.load_checkpoint(p)


@pytest.mark.parametrize("value", [2, -1, "yes", None])
def test_attention_flag_must_be_bool(value):
    # save_checkpoint writes int() of the flag as one byte that
    # load_checkpoint reads back only as 0 or 1
    with pytest.raises(T.ShapeError, match="attention_enabled"):
        M.ModelConfig(in_bands=20, num_classes=3, base_channels=2, attention_enabled=value)


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
@pytest.mark.parametrize("field", ["in_bands", "num_classes", "base_channels",
                                   "dsr_per_stage", "cspn_steps"])
def test_integer_fields_must_be_integers(field, value):
    # refused when the config is built, not later in forward_refined or
    # save_checkpoint; a numpy integer is an integer
    good = dict(in_bands=20, num_classes=3, base_channels=2, dsr_per_stage=1,
                cspn_steps=2)
    assert getattr(M.ModelConfig(**{**good, field: np.int64(good[field])}),
                   field) == good[field]
    with pytest.raises(T.ShapeError, match=field):
        M.ModelConfig(**{**good, field: value})


@pytest.mark.parametrize("byte", [2, 7, 255])
def test_checkpoint_attention_byte_must_be_bool(tmp_path, byte):
    m = M.build(_tiny(bands=20, classes=3, base=2), np.random.default_rng(20))
    p = tmp_path / "model.fcsp"
    M.save_checkpoint(m, p)
    raw = bytearray(p.read_bytes())
    offset = struct.calcsize("<4sIIIII")
    assert raw[offset] == 1
    raw[offset] = byte
    p.write_bytes(bytes(raw))
    with pytest.raises(T.FormatError, match=f"attention byte {byte}"):
        M.load_checkpoint(p)


def test_checkpoint_rejected_header_value_is_format_error(tmp_path):
    p = _patched_header(tmp_path, struct.calcsize("<4sI"), 0)  # in_bands
    with pytest.raises(T.FormatError, match="in_bands") as info:
        M.load_checkpoint(p)
    assert isinstance(info.value.__cause__, T.ShapeError)


@pytest.mark.parametrize("kw", [{}, {"dsr_per_stage": 0}, {"dsr_per_stage": 2},
                                {"attention_enabled": False}])
def test_checkpoint_payload_count_is_exact(kw):
    for base, classes in ((1, 1), (2, 3), (5, 7)):
        cfg = _tiny(bands=20, classes=classes, base=base, **kw)
        assert M._payload_floats(cfg) == sum(
            a.size for a in M.build(cfg).params.arrays())


def test_checkpoint_running_variance_shape_checked(tmp_path):
    m = M.build(_tiny(bands=20, classes=3, base=2), np.random.default_rng(17))
    dict(m.params.states())["affinity.norm"].running_var = np.ones(5)  # 2 channels
    p = tmp_path / "model.fcsp"
    M.save_checkpoint(m, p)
    with pytest.raises(T.FormatError, match="12 trailing bytes"):  # 3 floats
        M.load_checkpoint(p)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_dsr_gradcheck():
    rng = np.random.default_rng(12)
    unit = M._DsrUnit(ops.ModelParams(), "dsr", 2, rng)
    proj = gradcheck.projection((2, 3, 3, 3), rng)

    def build(x, wl, wr):
        unit.left.conv_a.w = wl
        unit.right.conv_b.w = wr
        return gradcheck.project(unit(x, training=True), proj)

    arrs = [rng.uniform(-1, 1, (2, 3, 3, 3)),
            rng.uniform(-0.5, 0.5, (2, 2, 1, 3, 3)),
            rng.uniform(-0.5, 0.5, (2, 2, 1, 3, 3))]
    gradcheck.check_grads(build, arrs)


def test_attention_gradcheck():
    rng = np.random.default_rng(13)
    attn = M._Attention(ops.ModelParams(), "attn", 2, rng)
    proj = gradcheck.projection((2, 1, 2, 3, 3), rng)

    def build(x, wg, bg):
        attn.gate.w = wg
        attn.gate.b = bg
        return gradcheck.project(attn(x), proj)

    arrs = [rng.uniform(-1, 1, (2, 1, 2, 3, 3)),
            rng.uniform(-1, 1, (2, 2, 1, 1, 1)),
            rng.uniform(-0.5, 0.5, 2)]
    gradcheck.check_grads(build, arrs, nonzero=True)


def test_end_to_end_directional_gradcheck():
    rng = np.random.default_rng(14)
    m = M.build(_tiny(bands=10, classes=3, base=2, cspn_steps=2), rng)
    proj = gradcheck.projection((3, 9, 9), rng)

    def build(x, head_w, stem_w):
        m.head_conv.w = head_w
        m.stem_conv.w = stem_w
        refined, _ = m.forward_refined(x, training=True)
        return gradcheck.project(refined, proj)

    arrs = [rng.uniform(-1, 1, (1, 10, 9, 9)),
            rng.uniform(-0.5, 0.5, (3, 2, 1, 1, 1)),
            rng.uniform(-0.5, 0.5, (2, 1, 5, 1, 1))]
    # at 9x9 down3's batchnorm sees four voxels per channel, and the loss
    # bends enough that a 1e-5 step crosses a ReLU kink on one direction
    for _ in range(3):
        gradcheck.check_directional(build, arrs, rng, h=1e-6)
        arrs = [rng.uniform(-1, 1, a.shape) * 0.8 for a in
                [arrs[0], arrs[1], arrs[2]]]


def test_end_to_end_exact_gradcheck_small_params():
    rng = np.random.default_rng(15)
    m = M.build(_tiny(bands=10, classes=2, base=2), rng)
    proj = gradcheck.projection((2, 9, 9), rng)

    def build(head_w, head_b):
        m.head_conv.w = head_w
        m.head_conv.b = head_b
        return gradcheck.project(m.forward(base_x, training=True), proj)

    base_x = T.Tensor(rng.uniform(-1, 1, (1, 10, 9, 9)))
    arrs = [rng.uniform(-0.5, 0.5, (2, 2, 1, 1, 1)), rng.uniform(-0.5, 0.5, 2)]
    gradcheck.check_grads(build, arrs)
