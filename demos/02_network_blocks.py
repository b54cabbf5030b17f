"""A tour of the layers that make up the classifier.

Shows the 3D convolution geometry, batch normalization's two modes (the
op ends in the ReLU that follows every normalization), the decoder's
resample-and-join op, the squeeze-excitation channel gate, the separable
residual unit with its parameter budget, and finally the assembled network
with its parameter ledger.
"""

import numpy as np

from fcspn import model as M
from fcspn import ops
from fcspn import tensor as T

rng = np.random.default_rng(3)

print("== conv3d geometry ==")
x = T.Tensor(rng.normal(size=(2, 1, 9, 8, 8)))  # (channels, crops, D, H, W)
for kernel, stride in (((3, 3, 3), (1, 1, 1)),
                       ((3, 3, 3), (2, 1, 1)),
                       ((5, 1, 1), (5, 1, 1))):
    spec = ops.Conv3dSpec(kernel=kernel, stride=stride)
    w = T.Tensor(rng.normal(size=(4, 2) + kernel) * 0.1)
    with T.no_grad():
        out = ops.conv3d(x, w, None, spec)
    print(f"kernel {kernel} stride {stride}: {x.shape} -> {out.shape}")

print()
print("== batch normalization: training vs inference ==")
feat = T.Tensor(rng.normal(2.0, 3.0, size=(3, 1, 4, 5, 5)))
gamma = T.Tensor(np.ones(3))
beta = T.Tensor(np.zeros(3))
state = ops.BatchNormState(3)
with T.no_grad():
    normed = ops.batchnorm(feat, gamma, beta, state, training=True)
# the op ends in the ReLU that follows every norm in the network, so its
# output is a unit normal clamped at zero: mean 0.399, std 0.584, half zeros
print("training output, relu(normalized), mean/std:",
      f"{normed.data.mean():+.3f} / {normed.data.std():.3f}")
print("share of outputs the ReLU set to zero:",
      f"{np.mean(normed.data == 0):.3f}")
print("running mean after one step:", np.round(state.running_mean, 3))
with T.no_grad():
    evaled = ops.batchnorm(feat, gamma, beta, state, training=False)
print("eval mode reuses running stats; output mean:",
      f"{evaled.data.mean():+.3f}")

print()
print("== the decoder join: corner-aligned upsampling, then the mirror ==")
ramp = T.Tensor(np.arange(4.0).reshape(1, 1, 1, 1, 4))
mirror = T.Tensor(np.full((1, 1, 1, 1, 7), -1.0))
with T.no_grad():
    join = ops.upsample_concat(ramp, mirror)
print("1D ramp 0..3 resampled to the mirror's 7 points:", join.data[0].ravel())
print("the mirror's channel follows it in the same array:", join.data[1].ravel())

print()
print("== the squeeze-excitation channel gate ==")
gate = M._Attention(ops.ModelParams(), "attn", 3, rng)
feat = T.Tensor(rng.normal(size=(3, 1, 4, 5, 5)))
with T.no_grad():
    gated = gate(feat)
scale = (gated.data / feat.data).reshape(3, -1)
print("per-channel scale in (0, 1), one value per channel:",
      np.round(scale[:, 0], 3), "| constant across voxels:",
      bool(np.allclose(scale, scale[:, :1])))

print()
print("== the separable residual unit ==")
params = ops.ModelParams()  # every layer registers here, under its path
unit = M._DsrUnit(params, "unit", 3, rng)
cells = 0
for path in params.paths():
    tensor = params.get(path)
    if path.endswith(".weights"):
        cells += int(np.prod(tensor.shape[2:]))
        print(f"{path:28s} kernel {tensor.shape[2:]}")
print(f"kernel cells per channel pair: {cells} (a dense 3x3x3 needs 27)")
print("running statistics in the same registry:",
      ", ".join(path for path, _ in params.states()))
print(f"weight decay in the SGD step: {len(params.decayed())} conv weights "
      f"of {len(params.paths())} tensors")
feat = T.Tensor(rng.normal(size=(3, 1, 6, 7, 7)))
with T.no_grad():
    out = unit(feat, training=True)
print("residual unit preserves shape:", feat.shape, "->", out.shape)

print()
print("== the assembled network ==")
cfg = M.ModelConfig(in_bands=20, num_classes=3, base_channels=8, cspn_steps=4)
net = M.build(cfg, np.random.default_rng(0))
total = sum(t.size for _, t in net.params.items())
print(f"parameters: {total} scalars across {len(net.params.paths())} tensors, "
      f"plus {len(net.params.states())} sets of running statistics")
print("first few ledger entries:")
for path in net.params.paths()[:5]:
    print(f"  {path:30s} {net.params.get(path).shape}")
scene = T.Tensor(rng.normal(size=(20, 16, 16)))
with T.no_grad():
    logits = net.forward(scene, training=False)
    refined, _ = net.forward_refined(scene, training=False)
print("scene (20,16,16) -> class scores", logits.shape,
      "-> refined", refined.shape)
