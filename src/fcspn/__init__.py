"""Hyperspectral image classification with spatial propagation refinement.

A numpy-only stack: a reverse-mode autodiff tensor engine, 3-D convolution
building blocks, an encoder/decoder classifier with residual spectral-spatial
units, an affinity-driven refinement pass, focal-loss training, scene
containers with binary formats, and the usual accuracy metrics.
"""

from .tensor import (
    FormatError,
    NumericError,
    ShapeError,
    Tensor,
    backward,
    no_grad,
)
from .ops import (
    BatchNormState,
    Conv3dSpec,
    batchnorm,
    concat_channels,
    conv3d,
    trilinear_upsample,
)
from .cspn import (
    AffinityBranch,
    normalize_affinity,
    propagate_step,
    refine,
)
from .model import (
    FcspnModel,
    ModelConfig,
    build,
    load_checkpoint,
    save_checkpoint,
)
# the training entry point stays at fcspn.train.train so the name `train`
# keeps pointing at the submodule
from .train import TrainConfig, focal_loss, l2_penalty, sgd_step
from .data import (
    HsiCube,
    LabelMap,
    SplitMask,
    load_cube,
    load_labels,
    load_split,
    nearest_centroid_oa,
    normalize,
    sample_split,
    save_cube,
    save_labels,
    save_split,
    synth_scene,
)
from .metrics import ConfusionMatrix, aa, confusion, kappa, oa

__version__ = "0.1.0"

__all__ = [
    "FormatError", "NumericError", "ShapeError", "Tensor", "backward", "no_grad",
    "BatchNormState", "Conv3dSpec", "batchnorm", "concat_channels", "conv3d",
    "trilinear_upsample",
    "AffinityBranch", "normalize_affinity", "propagate_step", "refine",
    "FcspnModel", "ModelConfig", "build", "load_checkpoint", "save_checkpoint",
    "TrainConfig", "focal_loss", "l2_penalty", "sgd_step",
    "HsiCube", "LabelMap", "SplitMask", "load_cube", "load_labels",
    "load_split", "nearest_centroid_oa", "normalize", "sample_split",
    "save_cube", "save_labels", "save_split", "synth_scene",
    "ConfusionMatrix", "aa", "confusion", "kappa", "oa",
    "__version__",
]
