"""End-to-end training on a synthetic scene, using the library directly.

Generates a labeled cube, draws a per-class training split, fits the network
with the focal objective, then scores the held-out pixels and round-trips the
model through a checkpoint file.
"""

import tempfile
from pathlib import Path

import numpy as np

from fcspn import data as D
from fcspn import metrics as ME
from fcspn import model as M
from fcspn import tensor as T
from fcspn import train as TR

print("== scene and split ==")
cube, labels = D.synth_scene(classes=3, size=24, bands=16, noise=0.02, seed=4)
cube = D.normalize(cube)
split = D.sample_split(labels, "per_class:100", seed=4)
for name, ntrain, ntest in D.split_report(labels, split):
    print(f"  {name}: {ntrain} train / {ntest} test pixels")

print()
print("== training ==")
net = M.build(M.ModelConfig(in_bands=16, num_classes=3, base_channels=8,
                            cspn_steps=2),
              np.random.default_rng(4))
scene = T.Tensor(cube.values)


def report(epoch, row):
    if epoch % 2 == 0:  # evaluate every second optimizer step
        return False
    with T.no_grad():
        refined, _ = net.forward_refined(scene, training=False)
    pred = np.argmax(refined.data, axis=0) + 1
    oa = float(np.mean(pred[split.train] == labels.grid[split.train]))
    print(f"  step {epoch + 1:2d}: loss {row.total:.4f}  train OA {oa:.4f}")
    return oa >= 0.97


config = TR.TrainConfig(epochs=120, crop_size=(24, 24), seed=4)
rows = TR.train(cube, labels, split, net, config, on_epoch=report)
print(f"stopped after {len(rows)} optimizer steps")

print()
print("== held-out evaluation ==")
with T.no_grad():
    refined, _ = net.forward_refined(scene, training=False)
pred = np.argmax(refined.data, axis=0).astype(np.uint16) + 1
cm = ME.confusion(pred, labels, mask=split.test)
for row in ME.format_report(cm, labels.class_names):
    print(f"  {row[0]:>10s}  {row[1]}")
print("  confusion matrix (rows = reference):")
for line in cm.counts:
    print("   ", line)

print()
print("== checkpoint round trip ==")
# Checkpoints hold float32 payloads and a reloaded model computes in
# float32, so its scores agree with the float64 model's to single
# precision and the argmax map comes back unchanged.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.ckpt"
    M.save_checkpoint(net, path)
    clone = M.load_checkpoint(path)
    with T.no_grad():
        again, _ = clone.forward_refined(scene, training=False)
    drift = float(np.abs(again.data - refined.data).max())
    same_map = np.array_equal(np.argmax(again.data, axis=0), pred - 1)
    print(f"saved {path.stat().st_size} bytes; score drift {drift:.1e}; "
          f"class map identical: {same_map}")
