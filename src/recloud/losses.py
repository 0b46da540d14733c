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
from .geometry import _sqdist_to

# Rows of the first cloud per distance block of ``chamfer``; of 32 to 1024
# rows, 128 was fastest at 1024 x 1024 points (2-CPU AVX-512 Xeon).
_ROW_BLOCK = 128


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

    One graph node. The forward never holds the ``(..., p, q)`` distances:
    it computes them ``_ROW_BLOCK`` rows of ``a`` at a time with
    ``geometry._sqdist_to`` and keeps each row's minimum and a running
    minimum per column, which a later block replaces only where it is
    strictly smaller, or NaN where the kept value is not. So every pick is
    the first minimum of its row or column, or its first NaN, as
    ``np.argmin`` gives over the whole array. The backward routes ``g / p``
    to each row's pick and ``g / q`` to each column's, adds the two where
    they coincide, and hands the nonzero entries to
    ``autograd._add_pair_grads``. Value and gradients equal the composition
    ``pairwise_sqdist`` -> ``min_over_axis`` (both axes) ->
    ``mean_pool_over_axis`` -> ``add`` bit for bit.
    """
    ta = _as_points(a, np.float64, "first cloud")
    tb = _as_points(b, ta.dtype, "second cloud")
    sa, sb = ta.data.shape, tb.data.shape
    if sa[:-2] != sb[:-2]:
        raise ValueError(f"chamfer expects equal leading axes, got {sa} vs {sb}")
    p, q = sa[-2], sb[-2]
    dtype = np.result_type(ta.data, tb.data)
    cols = np.ascontiguousarray(np.swapaxes(tb.data, -1, -2))
    row_min = np.empty(sa[:-1], dtype=dtype)
    row_arg = np.empty(sa[:-1], dtype=np.int64)
    # a diverging prediction overflows silently here; the trainer checks the loss
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, p, _ROW_BLOCK):
            d = _sqdist_to(cols, ta.data[..., lo:lo + _ROW_BLOCK, :])
            arg = np.argmin(d, axis=-1)
            row_arg[..., lo:lo + _ROW_BLOCK] = arg
            row_min[..., lo:lo + _ROW_BLOCK] = np.take_along_axis(d, arg[..., None], -1)[..., 0]
            arg = np.argmin(d, axis=-2)
            low = np.take_along_axis(d, arg[..., None, :], -2)[..., 0, :]
            arg += lo
            if lo == 0:
                col_min, col_arg = low, arg
            else:
                take = (low < col_min) | (np.isnan(low) & ~np.isnan(col_min))
                col_min[take], col_arg[take] = low[take], arg[take]
    value = row_min.mean(axis=-1) + col_min.mean(axis=-1)

    def bw(g: np.ndarray) -> None:
        batch = np.arange(row_arg.size // p)  # flattened leading axes
        # (batch, row, column) entries, flattened, of each row's and column's pick
        row_keys = np.arange(row_arg.size) * q + row_arg.reshape(-1)
        col_keys = ((batch[:, None] * p + col_arg.reshape(-1, q)) * q + np.arange(q)).reshape(-1)
        g = np.reshape(g, -1)
        vals = np.concatenate([np.repeat((g / p).astype(dtype), p),
                               np.repeat((g / q).astype(dtype), q)])
        keys, where = np.unique(np.concatenate([row_keys, col_keys]), return_inverse=True)
        w = np.zeros(len(keys), dtype=dtype)
        np.add.at(w, where, vals)
        nz = w != 0
        ag._add_pair_grads(ta, tb, keys[nz], w[nz])

    return Tensor(value, parents=(ta, tb), backward_fn=bw)


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
