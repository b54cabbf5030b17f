"""Seeded inputs and trained fixture models for one benchmark seed.

run.py starts this in a process of its own, before and apart from every
timed process, so fixture training counts neither in a workload's
``setup_s`` nor in its ``peak_rss_mb``::

    python3 perfbench/prep.py --kind {train,classify} --seed N --out DIR

Everything comes from ``--seed``.  ``data.synth_scene`` draws the class
spectra before it lays out the scene, so one seed gives the same four
spectra at every scene size and a model trained on the 64x64 scene
classifies the 128x128 and 32x32 scenes of that seed.

Fixture recipe: ``train.train`` on one 16x16 crop per step with momentum
SGD at learning rate 0.02 over a stratified half of the pixels, then one
forward pass over the whole training scene with batchnorm momentum 0, so
the running statistics are that scene's own rather than those of the last
few crops.  The recipe is short so that a fresh seed costs seconds, not
minutes.

Outputs, written to a temporary directory and renamed into place:

* ``train``: ``scene.hsc1``/``scene.hsl1`` (64x64x20), ``fixture.ckpt``
  (base_channels 8) and ``fixture.split.hss1``, the split it was trained on;
* ``classify``: ``scene.hsc1``/``scene.hsl1`` (128x128x100),
  ``stream.hsc1``/``stream.hsl1`` (32x32x100) and ``fixture.ckpt``
  (base_channels 16), trained on the 64x64x100 scene.
"""

import argparse
import os
import shutil
import sys

import numpy as np

from fcspn import data, model, ops, tensor, train

CLASSES = 4
FIXTURE_SPLIT = "fraction:0.5"
FIXTURE_STEPS = {"train": 100, "classify": 60}
TRAIN_BANDS, CLASSIFY_BANDS = 20, 100
TRAIN_BASE, CLASSIFY_BASE = 8, 16
CSPN_STEPS = 24


def model_config(kind: str) -> model.ModelConfig:
    bands, base = ((TRAIN_BANDS, TRAIN_BASE) if kind == "train"
                   else (CLASSIFY_BANDS, CLASSIFY_BASE))
    return model.ModelConfig(in_bands=bands, num_classes=CLASSES,
                             base_channels=base, cspn_steps=CSPN_STEPS)


def fit_fixture(kind: str, cube, labels, seed: int):
    """Train the fixture model for ``kind``; returns (model, split)."""
    cube = data.normalize(cube)
    split = data.sample_split(labels, FIXTURE_SPLIT, seed)
    net = model.build(model_config(kind), np.random.default_rng(seed))
    config = train.TrainConfig(batch_size=1, epochs=FIXTURE_STEPS[kind],
                               crop_size=(16, 16), learning_rate=0.02,
                               momentum=0.9, seed=seed)
    rows = train.train(cube, labels, split, net, config)
    if not np.isfinite([row.total for row in rows]).all():
        raise tensor.NumericError("fixture training produced a non-finite loss")
    saved = ops.BN_MOMENTUM
    ops.BN_MOMENTUM = 0.0
    try:
        with tensor.no_grad():
            net.forward_refined(tensor.Tensor(cube.values), training=True)
    finally:
        ops.BN_MOMENTUM = saved
    return net, split


def prepare(kind: str, seed: int, out: str) -> None:
    bands = TRAIN_BANDS if kind == "train" else CLASSIFY_BANDS
    cube, labels = data.synth_scene(classes=CLASSES, size=64, bands=bands, seed=seed)
    net, split = fit_fixture(kind, cube, labels, seed)
    model.save_checkpoint(net, os.path.join(out, "fixture.ckpt"))
    if kind == "train":
        data.save_cube(cube, os.path.join(out, "scene.hsc1"))
        data.save_labels(labels, os.path.join(out, "scene.hsl1"))
        data.save_split(split, os.path.join(out, "fixture.split.hss1"))
        return
    for name, size in (("scene", 128), ("stream", 32)):
        cube, labels = data.synth_scene(classes=CLASSES, size=size, bands=bands, seed=seed)
        data.save_cube(cube, os.path.join(out, f"{name}.hsc1"))
        data.save_labels(labels, os.path.join(out, f"{name}.hsl1"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("train", "classify"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to create")
    args = parser.parse_args(argv)
    tmp = args.out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    prepare(args.kind, args.seed, tmp)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
