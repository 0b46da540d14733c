"""Chamfer distance and the training objectives built on it.

The Chamfer distance is the symmetric sum of mean squared nearest-neighbor
distances between two point sets. Distances stay squared (no roots). All
losses are differentiable Tensors; at exact nearest-neighbor ties the
gradient routes to the first (lowest) index.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor


def _as_points(x, dtype, name: str) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))
    if t.data.ndim < 2 or t.data.shape[-1] != 3:
        raise ValueError(f"{name} must have shape (..., count, 3), got {t.data.shape}")
    if t.data.shape[-2] < 1:
        raise ValueError(f"{name} is empty")
    return t


def chamfer(a, b) -> Tensor:
    """Symmetric squared-distance Chamfer loss between two clouds.

    ``a`` is ``(..., p, 3)`` and ``b`` is ``(..., q, 3)`` with equal leading
    (batch) axes; the result has the leading shape, a scalar for two single
    clouds. ``a`` is the prediction: a ``b`` that is not a Tensor is cast to
    its dtype (an ``a`` that is not a Tensor is taken as float64).
    """
    ta = _as_points(a, np.float64, "first cloud")
    tb = _as_points(b, ta.dtype, "second cloud")
    d = ag.pairwise_sqdist(ta, tb)
    a_to_b = ag.mean_pool_over_axis(ag.min_over_axis(d, axis=-1), axis=-1)
    b_to_a = ag.mean_pool_over_axis(ag.min_over_axis(d, axis=-2), axis=-1)
    return ag.add(a_to_b, b_to_a)


def loss_local(pred_patches: Tensor, gt_patches) -> Tensor:
    """Mean per-patch Chamfer loss over the (m, k, 3) masked patches.

    One batched ``chamfer``; the per-patch values are summed in patch order,
    so the result equals a Python loop over the patches bit for bit.
    """
    gt = gt_patches.data if isinstance(gt_patches, Tensor) else np.asarray(gt_patches)
    if pred_patches.data.ndim != 3 or pred_patches.data.shape != gt.shape:
        raise ValueError(
            f"patch shape mismatch: predicted {pred_patches.data.shape} vs target {gt.shape}")
    per_patch = chamfer(pred_patches, gt)
    return ag.scale(ag.sum_in_order(per_patch), 1.0 / pred_patches.data.shape[0])


def loss_global(pred_centers: Tensor, gt_centers) -> Tensor:
    """Chamfer loss between predicted and target patch-center sets."""
    gt = gt_centers.data if isinstance(gt_centers, Tensor) else np.asarray(gt_centers)
    if pred_centers.data.shape != gt.shape:
        raise ValueError(
            f"center shape mismatch: predicted {pred_centers.data.shape} vs target {gt.shape}")
    return chamfer(pred_centers, gt)


@dataclass(frozen=True)
class LossReport:
    """Per-step loss summary: total = local + weight * global when the
    decomposed objective is active."""

    total: float
    local: float
    global_: float
    weight: float


def loss_all(local: Tensor, global_: Tensor, weight: float) -> tuple[Tensor, LossReport]:
    """Combine the local and global terms: total = local + weight * global.

    Returns the differentiable total plus a float report whose fields
    satisfy the decomposition identity in the same evaluation order.
    """
    if weight < 0:
        raise ValueError(f"global weight must be non-negative, got {weight}")
    total = ag.add(local, ag.scale(global_, weight))
    report = LossReport(total=float(total.data), local=float(local.data),
                        global_=float(global_.data), weight=float(weight))
    return total, report
