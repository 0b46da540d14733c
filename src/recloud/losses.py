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

# Bytes of one distance block of ``chamfer``, across the batch. The
# squared-distance kernel holds two temporaries of a block's size, which
# must stay in the 2 MB L2 of a core (2-CPU AVX-512 Xeon): on four pairs of
# 1024-point float32 clouds, forward and backward took 20.7 ms at this
# budget (40 rows) against 22.2 ms at 1 MiB (64 rows) and 37.7 ms at 2 MiB.
# It is also the smallest budget tried that keeps a micro-batch of the patch
# transformer's (4, 38, 32, 32) float32 local patches in one block: 3.8 ms
# against 4.0 ms at 512 KiB, where they take two.
_BLOCK_BYTES = 640 * 1024


def _as_points(x, dtype, name: str) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))
    if t.data.ndim < 2 or t.data.shape[-1] != 3:
        raise ValueError(f"{name} must have shape (..., count, 3), got {t.data.shape}")
    if t.data.shape[-2] < 1:
        raise ValueError(f"{name} is empty")
    return t


def _first_min(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first minimum, or first NaN, of a 2-D ``x``, and its index."""
    arg = x.argmin(axis=-1)
    return x[np.arange(len(arg)), arg], arg


def chamfer(a, b) -> Tensor:
    """Symmetric squared-distance Chamfer loss between two clouds.

    ``a`` is ``(..., p, 3)`` and ``b`` is ``(..., q, 3)`` with equal leading
    (batch) axes; the result has the leading shape, a scalar for two single
    clouds. ``a`` is the prediction: a ``b`` that is not a Tensor is cast to
    its dtype (an ``a`` that is not a Tensor is taken as float64).

    One graph node. The forward never holds the ``(..., p, q)`` distances:
    it computes them a block of rows of ``a`` at a time, as many rows as fit
    in ``_BLOCK_BYTES`` across the batch, with ``geometry._sqdist_to``. It
    keeps each row's minimum and a running minimum per column. The first
    block picks every column. A later block takes its minimum over rows per
    column, and picks again only the columns where that is strictly smaller
    than the kept value, or NaN where the kept value is not: an ``argmin``
    over just those columns, gathered from the block transposed. So every
    pick is the first minimum of its row or column, or its first NaN, as
    ``np.argmin`` gives over the whole array. The backward routes ``g / p``
    to each row's pick and ``g / q`` to each column's, adds the two where
    they coincide, and hands the nonzero entries to
    ``autograd._add_pair_grads``. Value and gradients equal the composition
    ``pairwise_sqdist`` -> ``min_over_axis`` (both axes) -> a mean over the
    last axis -> ``add`` bit for bit.
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
        per_row = max(1, row_min.size // p * q * dtype.itemsize)  # a row's bytes, whole batch
        rows = max(1, _BLOCK_BYTES // per_row)
        for lo in range(0, p, rows):
            d = _sqdist_to(cols, ta.data[..., lo:lo + rows, :])
            low, arg = _first_min(d.reshape(-1, q))
            row_min[..., lo:lo + rows] = low.reshape(d.shape[:-1])
            row_arg[..., lo:lo + rows] = arg.reshape(d.shape[:-1])
            if lo == 0:  # every column moves: one transposed copy, no mask
                low, arg = _first_min(np.swapaxes(d, -1, -2).reshape(-1, d.shape[-2]))
                col_min, col_arg = low.reshape(sb[:-1]), arg.reshape(sb[:-1])
            else:  # a later block, only the columns whose minimum it moves
                low = d.min(axis=-2)
                take = (low < col_min) | (np.isnan(low) & ~np.isnan(col_min))
                low, arg = _first_min(np.swapaxes(d, -1, -2)[take])
                col_min[take], col_arg[take] = low, arg + lo
            del d  # free this block before the next one is computed
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
    """Mean per-patch Chamfer loss over the (..., m, k, 3) masked patches,
    one value per sample (per entry of the leading axes).

    One batched ``chamfer``; the per-patch values are summed in patch order,
    so each value equals a Python loop over its patches bit for bit.
    """
    gt = gt_patches.data if isinstance(gt_patches, Tensor) else np.asarray(gt_patches)
    if pred_patches.data.ndim < 3 or pred_patches.data.shape != gt.shape:
        raise ValueError(
            f"patch shape mismatch: predicted {pred_patches.data.shape} vs target {gt.shape}")
    per_patch = chamfer(pred_patches, gt)
    return ag.scale(ag.sum_in_order(per_patch, axis=-1), 1.0 / pred_patches.data.shape[-3])


def loss_global(pred_centers: Tensor, gt_centers) -> Tensor:
    """Chamfer loss between predicted and target patch-center sets."""
    gt = gt_centers.data if isinstance(gt_centers, Tensor) else np.asarray(gt_centers)
    if pred_centers.data.shape != gt.shape:
        raise ValueError(
            f"center shape mismatch: predicted {pred_centers.data.shape} vs target {gt.shape}")
    return chamfer(pred_centers, gt)


@dataclass(frozen=True)
class LossReport:
    """One epoch's mean loss over the train split, per term: total = local +
    weight * global under the decomposed objective, the weight being the
    config's ``global_weight``. A term the objective lacks reads 0.0."""

    total: float
    local: float
    global_: float
