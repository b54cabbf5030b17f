import tracemalloc

import numpy as np
import pytest

import gradcheck
import oracles
from fcspn import cspn
from fcspn import ops
from fcspn import tensor as T


def setup_function(_):
    T.clear_tape()


def _rand_raw(rng, hw, low=-1.0, high=1.0):
    """Raw affinities of one crop, (8, 1) + hw."""
    return rng.uniform(low, high, (8, 1) + hw)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_uniform_example():
    k = cspn.normalize_affinity(T.full((8, 1, 1, 1), 1.0)).data.ravel()
    assert np.allclose(k, 1 / 8, atol=1e-15)


def test_normalize_single_support_example():
    raw = np.zeros((8, 1, 1, 1))
    raw[0] = 2.0
    k = cspn.normalize_affinity(T.Tensor(raw)).data.ravel()
    assert np.allclose(k, [1, 0, 0, 0, 0, 0, 0, 0], atol=1e-15)


def test_normalize_signed_example():
    raw = np.zeros((8, 1, 1, 1))
    raw[0], raw[1] = 1.0, -1.0
    k = cspn.normalize_affinity(T.Tensor(raw)).data.ravel()
    assert np.allclose(k[:2], [0.5, -0.5], atol=1e-15)
    assert np.allclose(k[2:], 0, atol=1e-15)


def test_normalize_all_zero_is_identity_kernel():
    k = cspn.normalize_affinity(T.zeros((8, 1, 2, 2))).data
    assert np.array_equal(k, np.zeros((8, 1, 2, 2)))


def test_normalize_invariants_random():
    rng = np.random.default_rng(31)
    k = cspn.normalize_affinity(T.Tensor(_rand_raw(rng, (13, 17)))).data
    assert k.shape == (8, 1, 13, 17)
    assert np.max(np.abs(np.abs(k).sum(axis=0) - 1.0)) < 1e-12
    assert np.all(np.abs(k) < 1.0)


def test_normalize_gradcheck():
    rng = np.random.default_rng(32)
    for _ in range(5):
        # keep |raw| away from 0 so finite differences never cross the kink
        raw = rng.uniform(0.2, 1.0, (8, 1, 3, 4)) * rng.choice([-1.0, 1.0], (8, 1, 3, 4))
        proj = gradcheck.projection((8, 1, 3, 4), rng)

        def build(raw, proj=proj):
            return gradcheck.project(cspn.normalize_affinity(raw), proj)

        gradcheck.check_grads(build, [raw], nonzero=True)


def test_normalize_zero_pixel_gets_zero_grad():
    raw = np.zeros((8, 1, 1, 2))
    raw[:, 0, 0, 1] = 0.5
    t = T.Tensor(raw, requires_grad=True)
    T.backward(T.reduce_sum(T.mul(cspn.normalize_affinity(t),
                                  T.Tensor(np.arange(1.0, 17.0).reshape(8, 1, 1, 2)))))
    assert np.any(t.grad[:, 0, 0, 1])
    assert np.array_equal(t.grad[:, 0, 0, 0], np.zeros(8))


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_propagate_matches_stencil_oracle():
    rng = np.random.default_rng(33)
    for _ in range(20):
        h = rng.uniform(-1, 1, (3, 1, 5, 5))
        aff = cspn.normalize_affinity(T.Tensor(_rand_raw(rng, (5, 5))))
        got = cspn.refine(T.Tensor(h), aff, 1).data[:, 0]
        want = oracles.propagate_reference(h[:, 0], aff.data[:, 0], cspn.OFFSETS)
        assert np.max(np.abs(got - want)) < 1e-12


def test_propagate_hand_example():
    h = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
    aff = cspn.normalize_affinity(T.full((8, 1, 3, 3), 1.0))
    out = cspn.refine(T.Tensor(h), aff, 1).data
    assert out[0, 0, 1, 1] == pytest.approx(5.0, abs=1e-12)
    assert out[0, 0, 0, 0] == pytest.approx(1.375, abs=1e-12)


def test_propagate_uniform_is_neighbor_average():
    rng = np.random.default_rng(34)
    h = rng.uniform(-1, 1, (2, 1, 6, 7))
    aff = cspn.normalize_affinity(T.full((8, 1, 6, 7), 0.37))
    out = cspn.refine(T.Tensor(h), aff, 1).data
    i, j = 3, 4
    ring = [h[:, 0, i - a, j - b] for a, b in cspn.OFFSETS]
    assert np.allclose(out[:, 0, i, j], np.mean(ring, axis=0), atol=1e-12)


def test_constant_map_is_exact_interior_fixed_point():
    # interior here means outside the reach of the zero boundary: after S
    # steps only pixels at least S from the border have an untouched cone
    rng = np.random.default_rng(35)
    for _ in range(5):
        c0 = float(rng.uniform(-2, 2))
        steps = int(rng.integers(1, 4))
        h = T.full((3, 1, 11, 10), c0)
        aff = cspn.normalize_affinity(T.Tensor(_rand_raw(rng, (11, 10))))
        out = cspn.refine(h, aff, steps)
        core = out.data[:, :, steps:-steps, steps:-steps]
        assert np.array_equal(core, np.full(core.shape, c0))


def test_refine_zero_steps_identity():
    rng = np.random.default_rng(36)
    h = T.Tensor(rng.uniform(-1, 1, (2, 1, 4, 4)))
    aff = cspn.normalize_affinity(T.Tensor(_rand_raw(rng, (4, 4))))
    out = cspn.refine(h, aff, 0)
    assert np.array_equal(out.data, h.data)


def test_refine_two_steps_is_composition():
    rng = np.random.default_rng(37)
    h = T.Tensor(rng.uniform(-1, 1, (2, 1, 5, 5)))
    aff = cspn.normalize_affinity(T.Tensor(_rand_raw(rng, (5, 5))))
    twice = cspn.refine(h, aff, 2).data
    manual = cspn.refine(cspn.refine(h, aff, 1), aff, 1).data
    assert np.array_equal(twice, manual)


def test_zero_affinity_refine_is_identity():
    rng = np.random.default_rng(38)
    h = T.Tensor(rng.uniform(-1, 1, (3, 1, 6, 6)))
    aff = cspn.normalize_affinity(T.zeros((8, 1, 6, 6)))
    out = cspn.refine(h, aff, 7)
    assert out.data.tobytes() == h.data.tobytes()


def test_max_principle_nonnegative_affinities():
    rng = np.random.default_rng(39)
    for _ in range(50):
        h = rng.uniform(-1, 1, (1, 1, 8, 8))
        h -= h.mean()  # keep zero inside the value range (zero boundary reads)
        aff = cspn.normalize_affinity(T.Tensor(rng.uniform(0, 1, (8, 1, 8, 8))))
        steps = int(rng.integers(0, 33))
        out = cspn.refine(T.Tensor(h), aff, steps).data
        interior = out[:, :, 1:-1, 1:-1]
        assert interior.min() >= h.min() - 1e-12
        assert interior.max() <= h.max() + 1e-12


def test_propagate_gradcheck_h_and_raw():
    rng = np.random.default_rng(40)
    proj = gradcheck.projection((2, 1, 4, 4), rng)

    def build(h, raw):
        aff = cspn.normalize_affinity(raw)
        out = cspn.refine(h, aff, 3)
        return gradcheck.project(out, proj)

    for _ in range(5):
        h = rng.uniform(-1, 1, (2, 1, 4, 4))
        raw = rng.uniform(0.2, 1.0, (8, 1, 4, 4)) * rng.choice([-1.0, 1.0], (8, 1, 4, 4))
        gradcheck.check_grads(build, [h, raw], nonzero=True)


def _padded_buffer_grads(hd, kd, g):
    """One step's h- and kappa-gradients, computed with the padded copy of
    ``hd`` made once and read by both, in the op's order of operations."""
    nh, nw = hd.shape[-2:]
    hp = np.pad(hd, ((0, 0), (0, 0), (1, 1), (1, 1)))
    windows = [(Ellipsis, slice(1 - a, 1 - a + nh), slice(1 - b, 1 - b + nw))
               for a, b in cspn.OFFSETS]
    inside = (Ellipsis, slice(1, -1), slice(1, -1))
    gp = np.zeros_like(hp)
    gp[inside] = g * (1.0 - kd.sum(axis=0))
    for idx, win in enumerate(windows):
        gp[win] += kd[idx] * g
    gk = np.stack([(g * (hp[win] - hd)).sum(axis=0) for win in windows])
    return gp[inside], gk


def _held_arrays(fn):
    """Every array a closure holds, directly or in a list or tuple."""
    found = []
    for cell in fn.__closure__:
        value = cell.cell_contents
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(item, np.ndarray):
                found.append(item)
    return found


@pytest.mark.parametrize("shape", [(3, 1, 6, 7), (3, 2, 6, 7)])
def test_propagate_pullback_holds_no_padded_map(shape):
    # the node keeps each step's input map but no padded copy of one; its
    # pullback pads each map again, and its gradients are bitwise those of
    # the padded buffer applied step by step in reverse
    steps = 4
    rng = np.random.default_rng(41)
    h = T.Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
    raw = T.Tensor(rng.uniform(-1, 1, (8,) + shape[1:]))
    kappa = T.Tensor(cspn.normalize_affinity(raw).data, requires_grad=True)
    out = cspn.refine(h, kappa, steps)
    held = _held_arrays(T._TAPE[-1].fn)
    assert len(held) >= steps
    for value in held:
        assert value.shape[-2:] != (shape[-2] + 2, shape[-1] + 2), value.shape
    g = rng.uniform(-1, 1, shape)
    T.backward(T.reduce_sum(T.mul(out, T.Tensor(g))))
    maps = [h.data]  # each step's input
    with T.no_grad():
        for _ in range(steps - 1):
            maps.append(cspn.refine(T.Tensor(maps[-1]), kappa, 1).data)
    want_kappa = None
    for hd in reversed(maps):
        g, gk = _padded_buffer_grads(hd, kappa.data, g)
        want_kappa = gk if want_kappa is None else want_kappa + gk
    assert np.array_equal(h.grad, g)
    assert np.array_equal(kappa.grad, want_kappa)


@pytest.mark.parametrize("steps, nodes", [(0, 0), (1, 1), (24, 1)])
def test_refine_is_one_tape_node(steps, nodes):
    h = T.zeros((2, 1, 4, 4), requires_grad=True)
    aff = T.zeros((8, 1, 4, 4), requires_grad=True)
    out = cspn.refine(h, aff, steps)
    assert T.tape_size() == nodes
    assert (out is h) == (steps == 0)


def test_refine_without_a_node_keeps_no_step_maps():
    # under no_grad each step's map dies once the next is made, so 24 steps
    # peak within one map of one step, plus 4 KiB for Python objects
    # (holding every step's map would add 23 maps)
    rng = np.random.default_rng(44)
    shape = (4, 1, 64, 64)
    h = T.Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
    kappa = cspn.normalize_affinity(T.Tensor(rng.uniform(-1, 1, (8,) + shape[1:])))

    def peak(steps):
        tracemalloc.start()
        try:
            with T.no_grad():
                cspn.refine(h, kappa, steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, many = peak(1), peak(24)
    assert many - one <= h.data.nbytes + 2 ** 12, (one, many)
    assert T.tape_size() == 0


def test_propagate_shape_mismatch():
    aff = cspn.normalize_affinity(T.zeros((8, 1, 4, 4)))
    with pytest.raises(T.ShapeError):
        cspn.refine(T.zeros((2, 1, 5, 4)), aff, 1)
    with pytest.raises(T.ShapeError):
        cspn.refine(T.zeros((2, 1, 4, 4)), T.zeros((9, 1, 4, 4)), 1)


def test_config_validation():
    h = T.zeros((2, 1, 4, 4))
    aff = cspn.normalize_affinity(T.zeros((8, 1, 4, 4)))
    with pytest.raises(T.ShapeError):
        cspn.refine(h, aff, -1)


# ---------------------------------------------------------------------------
# affinity branch
# ---------------------------------------------------------------------------

def test_branch_zero_init_gives_identity_refine():
    rng = np.random.default_rng(41)
    branch = cspn.AffinityBranch(ops.ModelParams(), "affinity", 4, rng)
    plane = T.Tensor(rng.uniform(-1, 1, (4, 1, 1, 5, 6)))
    raw = branch.forward(plane)
    assert raw.shape == (8, 1, 5, 6)
    assert np.array_equal(raw.data, np.zeros((8, 1, 5, 6)))
    h = T.Tensor(rng.uniform(-1, 1, (3, 1, 5, 6)))
    out = cspn.refine(h, cspn.normalize_affinity(raw), 4)
    assert out.data.tobytes() == h.data.tobytes()


def test_branch_takes_the_spectral_mean_plane():
    branch = cspn.AffinityBranch(ops.ModelParams(), "affinity", 4,
                                 np.random.default_rng(43))
    assert branch.forward(T.zeros((4, 1, 1, 5, 6))).shape == (8, 1, 5, 6)
    for shape in ((4, 1, 3, 5, 6), (3, 1, 1, 5, 6), (4, 1, 5, 6)):
        with pytest.raises(T.ShapeError):
            branch.forward(T.zeros(shape))


def test_branch_gradcheck_through_refine():
    rng = np.random.default_rng(42)
    branch = cspn.AffinityBranch(ops.ModelParams(), "affinity", 3, rng)
    # move the head off its zero init so every layer carries gradient
    branch.head.w = T.Tensor(rng.uniform(-0.5, 0.5, (8, 3, 1, 3, 3)),
                             requires_grad=True)
    branch.head.b = T.Tensor(rng.uniform(-0.2, 0.2, 8), requires_grad=True)
    proj = gradcheck.projection((2, 1, 4, 4), rng)

    def build(plane, head_w, gamma):
        branch.head.w = head_w
        branch.norm.scale = gamma
        raw = branch.forward(plane, training=True)
        out = cspn.refine(T.Tensor(base_h), cspn.normalize_affinity(raw), 2)
        return gradcheck.project(out, proj)

    base_h = rng.uniform(-1, 1, (2, 1, 4, 4))
    arrs = [rng.uniform(-1, 1, (3, 1, 1, 4, 4)),
            rng.uniform(-0.5, 0.5, (8, 3, 1, 3, 3)),
            rng.uniform(0.8, 1.2, 3)]
    gradcheck.check_grads(build, arrs)
