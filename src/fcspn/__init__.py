"""Hyperspectral image classification with spatial propagation refinement.

A numpy-only stack: a reverse-mode autodiff tensor engine, 3-D convolution
building blocks, an encoder/decoder classifier with residual spectral-spatial
units, an affinity-driven refinement pass, focal-loss training, scene
containers with binary formats, and the usual accuracy metrics.  Callers
use the submodules (``fcspn.data``, ``fcspn.model``, ...); the package itself
exports nothing.
"""
