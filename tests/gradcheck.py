"""Bridge between the finite-difference oracle and the tensor engine."""

import numpy as np

import oracles
from fcspn import tensor as T


def check_grads(build, arrays, tol=1e-4, h=1e-5, nonzero=False):
    """Assert analytic gradients of ``build`` match central differences.

    ``build(*tensors)`` must return a scalar Tensor and be deterministic.
    With ``nonzero``, also assert that every input gets a gradient with at
    least one nonzero entry, so a dead path cannot pass as 0 == 0.
    Returns the worst relative error across all inputs.
    """
    T.clear_tape()
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*tensors)
    T.backward(loss)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]
    if nonzero:
        dead = [i for i, g in enumerate(analytic) if not np.any(g)]
        assert not dead, f"gradcheck: inputs {dead} get an all-zero gradient"

    def f(*arrs):
        with T.no_grad():
            return build(*[T.Tensor(a) for a in arrs]).item()

    numeric = oracles.fd_grad(f, [np.array(a, dtype=np.float64) for a in arrays], h=h)
    worst = max(oracles.max_rel_err(a, n) for a, n in zip(analytic, numeric))
    assert worst < tol, f"gradcheck failed: max relative error {worst:.3e} >= {tol}"
    return worst


def projection(shape, rng):
    """A fixed random linear functional; keeps test gradients O(1)."""
    return T.Tensor(rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape))


def project(out, proj):
    """Scalar loss sum(out * proj)."""
    return T.reduce_sum(T.mul(out, proj))


def check_directional(build, arrays, rng, tol=1e-4, h=1e-5):
    """Compare <grad, v> against a central difference along one random v.

    Cheap end-to-end variant of check_grads for builds too large to probe
    coordinate-by-coordinate.
    """
    T.clear_tape()
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*tensors)
    T.backward(loss)
    dirs = [rng.uniform(-1.0, 1.0, a.shape) for a in arrays]
    dot = sum(float(np.sum(t.grad * d))
              for t, d in zip(tensors, dirs) if t.grad is not None)

    def f(arrs):
        with T.no_grad():
            return build(*[T.Tensor(a) for a in arrs]).item()

    plus = f([a + h * d for a, d in zip(arrays, dirs)])
    minus = f([a - h * d for a, d in zip(arrays, dirs)])
    numeric = (plus - minus) / (2.0 * h)
    rel = abs(dot - numeric) / max(1.0, abs(numeric))
    assert rel < tol, f"directional derivative off by {rel:.3e}"
    return rel
