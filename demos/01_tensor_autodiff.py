"""A walk through the tensor engine: tape, backward pass, gradient checking.

Every later demo builds on this machinery, so this one stays tiny: a few
scalar-valued expressions, their analytic gradients, and a central-difference
cross-check done by hand.
"""

import numpy as np

from fcspn import tensor as T

rng = np.random.default_rng(0)

print("== forward and backward on a small expression ==")
x = T.Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
y = T.Tensor(np.array([1.5, 0.25, -0.5]), requires_grad=True)

# loss = sum(sigmoid(x * y) * x); x feeds two ops, so its gradient sums both
loss = T.reduce_sum(T.mul(T.sigmoid(T.mul(x, y)), x))
T.backward(loss)
print("loss      ", float(loss.data))
print("dloss/dx  ", x.grad)
print("dloss/dy  ", y.grad)

print()
print("== the same gradients by central differences ==")


def f(xv, yv):
    with T.no_grad():
        return T.reduce_sum(
            T.mul(T.sigmoid(T.mul(T.Tensor(xv), T.Tensor(yv))),
                  T.Tensor(xv))).item()


h = 1e-6
for name, base, other, grad in (("x", x.data, y.data, x.grad),
                                ("y", y.data, x.data, y.grad)):
    numeric = np.zeros_like(base)
    for i in range(base.size):
        lo, hi = base.copy(), base.copy()
        lo[i] -= h
        hi[i] += h
        if name == "x":
            numeric[i] = (f(hi, other) - f(lo, other)) / (2 * h)
        else:
            numeric[i] = (f(other, hi) - f(other, lo)) / (2 * h)
    print(f"d/d{name} numeric  {numeric}")
    print(f"        max err  {np.abs(numeric - grad).max():.2e}")

print()
print("== the tape is consumed by backward ==")
a = T.Tensor(np.array(2.0), requires_grad=True)
b = T.mul(a, a)
T.backward(b)
print("d(a*a)/da at a=2:", a.grad, "(expected 4)")

print()
print("== no_grad skips recording entirely ==")
with T.no_grad():
    c = T.mul(a, a)
print("requires_grad inside no_grad:", c.requires_grad)

print()
print("== broadcasting folds gradients back to the source shape ==")
w = T.Tensor(np.array([[1.0], [2.0]]), requires_grad=True)  # (2,1)
v = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)   # (2,3)
out = T.reduce_sum(T.mul(w, v))
T.backward(out)
print("w shape", w.data.shape, "-> grad shape", w.grad.shape)
print("dout/dw column sums:", w.grad.ravel(), "== v row sums:",
      v.data.sum(axis=1))
