"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
loops, central finite differences) and never calls into the library's own
compute paths, so a bug in the fast path cannot hide in its oracle.  The
one exception is :func:`one_pass_training`, which checks how a training
step splits its crops, not the layers: it runs the library's layers and
loss, one forward and one backward over all of a step's crops.
"""

import numpy as np

from fcspn import tensor as T
from fcspn import train as TR


def fd_grad(f, arrays, h=1e-5):
    """Central finite-difference gradient of scalar ``f`` w.r.t. each array.

    ``f`` takes the arrays (numpy, float64) and returns a float.  Returns a
    list of gradient arrays matching ``arrays``.
    """
    grads = []
    for k, base in enumerate(arrays):
        base = np.asarray(base, dtype=np.float64)
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(*arrays)
            flat[i] = orig - h
            fm = f(*arrays)
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric):
    """max_i |a_i - n_i| / max(1, |n_i|), the gradcheck error metric."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def conv3d_reference(x, w, b, stride, padding):
    """Six-nested-loop 3D cross-correlation.

    x: (C_in, D, H, W); w: (C_out, C_in, kd, kh, kw); b: (C_out,) or None.
    Output extent per axis: ceil((n + 2p - k + 1) / s).
    """
    cin, D, H, W = x.shape
    cout, cin2, kd, kh, kw = w.shape
    assert cin == cin2
    sd, sh, sw = stride
    pd, ph, pw = padding
    xp = np.zeros((cin, D + 2 * pd, H + 2 * ph, W + 2 * pw), dtype=x.dtype)
    xp[:, pd:pd + D, ph:ph + H, pw:pw + W] = x
    Do = -(-(D + 2 * pd - kd + 1) // sd)
    Ho = -(-(H + 2 * ph - kh + 1) // sh)
    Wo = -(-(W + 2 * pw - kw + 1) // sw)
    out = np.zeros((cout, Do, Ho, Wo), dtype=np.float64)
    for o in range(cout):
        for do in range(Do):
            for ho in range(Ho):
                for wo in range(Wo):
                    acc = 0.0
                    for c in range(cin):
                        for i in range(kd):
                            for j in range(kh):
                                for k in range(kw):
                                    acc += (w[o, c, i, j, k]
                                            * xp[c, do * sd + i, ho * sh + j, wo * sw + k])
                    out[o, do, ho, wo] = acc if b is None else acc + b[o]
    return out


def conv3d_input_grad_reference(g, w, x_shape, stride, padding):
    """Gradient of sum(g * conv3d(x, w)) with respect to x, by nested loops.

    g: (C_out, Do, Ho, Wo); w: (C_out, C_in, kd, kh, kw); x_shape: (C_in,
    D, H, W).  Each output voxel sends g times every weight tap back to the
    padded input position that tap read; the padding is then cut off.
    """
    cin, D, H, W = x_shape
    cout, _, kd, kh, kw = w.shape
    _, Do, Ho, Wo = g.shape
    sd, sh, sw = stride
    pd, ph, pw = padding
    dxp = np.zeros((cin, D + 2 * pd, H + 2 * ph, W + 2 * pw), dtype=np.float64)
    for o in range(cout):
        for do in range(Do):
            for ho in range(Ho):
                for wo in range(Wo):
                    for c in range(cin):
                        for i in range(kd):
                            for j in range(kh):
                                for k in range(kw):
                                    dxp[c, do * sd + i, ho * sh + j, wo * sw + k] += (
                                        w[o, c, i, j, k] * g[o, do, ho, wo])
    return dxp[:, pd:pd + D, ph:ph + H, pw:pw + W]


def propagate_reference(h, kappa, offsets):
    """One 9-point stencil update, direct transcription of the recurrence.

    out[l,i,j] = kappa_center[i,j]*h[l,i,j]
               + sum_n kappa_n[i,j]*h[l, i-a_n, j-b_n]   (zero off-image),

    with kappa_center = 1 - sum_n kappa_n.  ``kappa`` is (8, H, W), the
    neighbor weights in ``offsets`` order.
    """
    c, H, W = h.shape
    out = np.zeros_like(h)
    for l in range(c):
        for i in range(H):
            for j in range(W):
                center = 1.0
                for n in range(len(offsets)):
                    center -= kappa[n, i, j]
                acc = center * h[l, i, j]
                for n, (a, b) in enumerate(offsets):
                    ii, jj = i - a, j - b
                    if 0 <= ii < H and 0 <= jj < W:
                        acc += kappa[n, i, j] * h[l, ii, jj]
                out[l, i, j] = acc
    return out


def broadcast_materialize(a, shape):
    """Explicitly tile ``a`` out to ``shape`` without numpy broadcasting."""
    a = np.asarray(a)
    out = np.empty(shape, dtype=a.dtype)
    pad = len(shape) - a.ndim
    for idx in np.ndindex(*shape):
        src = tuple(idx[pad + k] if a.shape[k] != 1 else 0 for k in range(a.ndim))
        out[idx] = a[src]
    return out


def trilinear_axis_reference(values, target):
    """Align-corners linear interpolation of a 1-d sequence, by the formula."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    out = np.empty(target, dtype=np.float64)
    for o in range(target):
        pos = 0.0 if target == 1 else o * (n - 1) / (target - 1)
        i0 = int(np.floor(pos))
        i1 = min(i0 + 1, n - 1)
        t = pos - i0
        out[o] = (1.0 - t) * values[i0] + t * values[i1]
    return out


def one_pass_training(cube, labels, split, model, config):
    """``train.train`` with one forward and one backward over all N crops
    of each step, as one batch; returns the (focal, l2, total) rows.  Same
    crops, same SGD, same running statistics, each crop folded in order."""
    values = cube.values
    train_labels = np.where(split.train, labels.grid, 0)
    height, width = labels.grid.shape
    ch, cw = TR.fit_crop(model, config.crop_size, height, width)
    rng = np.random.default_rng(config.seed)
    velocity = {}
    rows = []
    for _ in range(config.epochs):
        T.clear_tape()
        TR.zero_grads(model.params)
        origins = [TR._sample_crop(rng, height, width, (ch, cw), train_labels)
                   for _ in range(config.batch_size)]
        x = T.Tensor(np.stack([values[:, r: r + ch, c: c + cw] for r, c in origins],
                              dtype=model.dtype)[None])
        crop_labels = np.stack([train_labels[r: r + ch, c: c + cw] for r, c in origins])
        refined, _ = model.forward_refined(x, training=True)
        focal = TR.focal_loss(refined, crop_labels, config.focal_gamma)
        T.backward(focal)
        penalty = TR.l2_penalty(model.params, config.weight_decay)
        TR.sgd_step(model.params, velocity, config)
        rows.append((focal.item(), penalty.item(), (focal.data + penalty).item()))
    return rows
