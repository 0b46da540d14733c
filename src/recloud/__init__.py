"""recloud: self-supervised point-cloud pretraining by corruption and
reconstruction, with oracle-checked geometry and a built-in autograd engine."""

__version__ = "0.1.0"

from .autograd import Tensor, backward, finite_difference_check
from .corruption import (MaskPlan, mask_fixed_clusters, mask_patches, mask_random_clusters,
                         mask_view_occlusion, sample_affine)
from .geometry import (PatchSet, affine_apply, denormalize_patches, farthest_point_sample,
                       knn, normalize_patches, patchify)
from .losses import LossReport, chamfer, loss_global, loss_local
from .trainer import (AdamW, Checkpoint, TrainConfig, cosine_lr, load_checkpoint,
                      pretrain, save_checkpoint)

__all__ = [
    "Tensor", "backward", "finite_difference_check",
    "MaskPlan", "mask_fixed_clusters", "mask_patches",
    "mask_random_clusters", "mask_view_occlusion", "sample_affine",
    "PatchSet", "affine_apply", "denormalize_patches", "farthest_point_sample", "knn",
    "normalize_patches", "patchify",
    "LossReport", "chamfer", "loss_global", "loss_local",
    "AdamW", "Checkpoint", "TrainConfig", "cosine_lr", "load_checkpoint",
    "pretrain", "save_checkpoint",
]
