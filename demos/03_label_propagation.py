"""Affinity-guided propagation: what it guarantees and what it fixes.

First the algebraic identities of the normalized kernel, then the practical
payoff: scattering wrong labels across a clean classification map and letting
a few propagation steps vote them away using spectral similarity.
"""

import numpy as np

from fcspn import cspn
from fcspn import data as D
from fcspn import tensor as T

rng = np.random.default_rng(12)

print("== kernel normalization invariants ==")
# every map is a batch, (channels, crops, H, W); these are single crops
raw = T.Tensor(rng.uniform(-1.0, 1.0, (8, 1, 64, 64)))
k = cspn.normalize_affinity(raw).data
print("neighbor |k| sums to:", f"1 +/- {np.abs(np.abs(k).sum(axis=0) - 1).max():.1e}")

print()
print("== a constant map does not drift ==")
flat = T.Tensor(np.full((1, 1, 12, 12), 5.0))
out = cspn.refine(flat, cspn.normalize_affinity(
    T.Tensor(rng.uniform(0.2, 1.0, (8, 1, 12, 12)))), steps=2)
print("interior exactly 5.0:", bool(np.all(out.data[0, 0, 2:-2, 2:-2] == 5.0)))
print("border pixels leak toward the zero padding:",
      f"corner = {out.data[0, 0, 0, 0]:.3f}")

print()
print("== repairing salt noise on a synthetic scene ==")
side = 32
cube, labels = D.synth_scene(classes=3, size=side, bands=20, noise=0.02,
                             seed=7)
cube = D.normalize(cube)
truth = labels.grid

# Spectral-similarity affinities from the clean cube: near-identical
# neighbors get weight ~1, dissimilar ones decay exponentially.
values = cube.values.astype(np.float64)
pad = np.full((values.shape[0], side + 2, side + 2), np.nan)
pad[:, 1:-1, 1:-1] = values
d2 = np.zeros((8, side, side))
valid = np.zeros((8, side, side), dtype=bool)
for idx, (dy, dx) in enumerate(cspn.OFFSETS):
    shifted = pad[:, 1 + dy:1 + dy + side, 1 + dx:1 + dx + side]
    dist = np.mean((shifted - values) ** 2, axis=0)
    valid[idx] = np.isfinite(dist)
    d2[idx] = np.where(valid[idx], dist, 0.0)
tau = d2[valid].mean() * 0.25
aff = cspn.normalize_affinity(
    T.Tensor(np.where(valid, np.exp(-d2 / tau), 0.0)[:, None]))

noisy = truth.astype(np.int64).copy()
hit = rng.choice(noisy.size, size=noisy.size // 10, replace=False)
noisy.flat[hit] = (noisy.flat[hit] - 1 + rng.integers(1, 3, hit.size)) % 3 + 1

onehot = T.Tensor(np.eye(3)[noisy - 1].transpose(2, 0, 1)[:, None])
with T.no_grad():
    refined = cspn.refine(onehot, aff, steps=2)
repaired = np.argmax(refined.data[:, 0], axis=0) + 1

glyphs = np.array([" ", ".", "o", "#"])


def render(grid, title):
    print(title)
    for row in glyphs[grid]:
        print("   " + "".join(row))


render(noisy, f"corrupted map (OA {np.mean(noisy == truth):.3f}):")
render(repaired, f"after 2 propagation steps (OA "
                 f"{np.mean(repaired == truth):.3f}):")
render(truth, "ground truth for reference:")
