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

# Bytes of one distance block of ``chamfer``, across the batch: the whole
# ``(..., p, q)`` distance array when it fits, else each block of rows of
# ``_nearest``'s product and each of its exact kernel calls. The kernel holds
# two temporaries of a block's size, which must stay in the 2 MB L2 of a core
# (2-CPU AVX-512 Xeon). On four pairs of 1024-point float32 unit-ball clouds,
# ``_nearest`` over both sides took 6.9-7.3 ms at 128 KiB, 5.9-6.2 ms at
# 256 KiB, 5.2-5.4 ms at this budget (40 rows), 4.9-5.0 ms at 1 MiB, where
# the kernel's temporaries would fill the L2, and 5.9-6.4 ms at 2 MiB (BLAS
# on one thread, three sweeps). It is also the smallest budget tried that
# keeps a micro-batch of the patch transformer's (4, 38, 32, 32) float32
# local patches in one block: 3.8 ms against 4.0 ms at 512 KiB, where they
# took two.
_BLOCK_BYTES = 640 * 1024

# S of ``_nearest``'s slack 2 S u N, with u the unit roundoff and N = |x|^2
# + max_j |y_j|^2 for a point x of one cloud and the points y_j of the other.
# Let T_j = |x - y_j|^2 and D_j the kernel's (dx*dx + dy*dy) + dz*dz.
# - The product E_j = [x | 1] . [-2 y_j | |y_j|^2] is T_j - |x|^2 within
#   gamma_4 (|x|^2 + 2 |y_j|^2) in any summation order (2 |x_k y_k| <= x_k^2
#   + y_k^2), and the computed |y_j|^2 adds gamma_3 |y_j|^2: about 11 u N.
# - D_j is within about 5 u T_j of T_j, and T_j <= 2 N: 10 u N.
# So E_j and D_j - |x|^2 differ by at most 21 u N for each candidate, and
# E_j - E_a > 2 * 21 u N gives D_j > D_a: a is the strict, so the first,
# minimum of the kernel's row. S = 64 leaves a 3x margin, which also covers
# the rounding of the test itself. Below the normal range each operation may
# lose up to half a subnormal, a few dozen per pair, so the slack adds 2 S
# smallest subnormals.
_SLACK = 64


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


def _nearest(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each point of ``x`` (``(..., p, 3)``), its squared distance to its
    first nearest point of ``y`` (``(..., q, 3)``, equal leading axes) and that
    point's index, flattened over the leading axes as ``_first_min`` gives
    them on ``_sqdist_to``'s rows, with the same bits, first NaN included.

    A block of rows at a time, one product E = [x | 1] @ [-2y | |y|^2]^T ranks
    each row's candidates, as FAISS ranks L2 neighbours (arXiv 1702.08734):
    E_ij is |x_i - y_j|^2 - |x_i|^2 up to rounding. A row whose second
    smallest E exceeds its smallest by more than its slack, 2 S u (|x_i|^2 +
    max_j |y_j|^2) plus 2 S smallest subnormals (``_SLACK``), takes the
    smallest's index, and its distance is recomputed for that one pair in
    ``_sqdist_to``'s order. Every other row takes the exact kernel over its
    whole row, an entry's such rows together: near ties, duplicates, and
    every row of an entry with a NaN, an inf or a norm within a factor 2 S
    of overflow, all of which make the test's comparison false.
    """
    dtype = np.result_type(x, y)
    p, q = x.shape[-2], y.shape[-2]
    x, y = (v.astype(dtype, copy=False).reshape(-1, v.shape[-2], 3) for v in (x, y))
    n = len(x)
    cols = np.ascontiguousarray(np.swapaxes(y, -1, -2))
    yy = (cols[:, 0] * cols[:, 0] + cols[:, 1] * cols[:, 1]) + cols[:, 2] * cols[:, 2]
    yt = np.concatenate([-2 * cols, yy[:, None]], axis=1)
    x1 = np.concatenate([x, np.ones((n, p, 1), dtype)], axis=-1)
    xx = (x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]) + x[..., 2] * x[..., 2]
    info = np.finfo(dtype)
    # 2 S multiplies first: a sum past max / 2 S, where the product or the
    # kernel could overflow, makes the slack inf and the row exact
    slack = (xx + yy.max(axis=-1, keepdims=True)) * (2 * _SLACK) * float(info.eps / 2) \
        + 2 * _SLACK * float(info.smallest_subnormal)
    arg = np.empty((n, p), np.int64)
    exact = np.empty((n, p), bool)
    rows = max(1, _BLOCK_BYTES // (n * q * dtype.itemsize))
    for lo in range(0, p, rows):
        e = np.matmul(x1[:, lo:lo + rows], yt).reshape(-1, q)
        pick = e.argmin(axis=-1)
        at = np.arange(len(pick))
        low = e[at, pick]
        e[at, pick] = np.inf
        amb = ~(e.min(axis=-1) > low + slack[:, lo:lo + rows].reshape(-1))
        del e  # free this block before the next one is computed
        arg[:, lo:lo + rows] = pick.reshape(n, -1)
        exact[:, lo:lo + rows] = amb.reshape(n, -1)
    dist = np.empty((n, p), dtype)
    for b in np.flatnonzero(exact.any(axis=-1)):  # at most a block's bytes a call
        r = np.flatnonzero(exact[b])
        for lo in range(0, len(r), n * rows):
            at = r[lo:lo + n * rows]
            dist[b, at], arg[b, at] = _first_min(_sqdist_to(cols[b], x[b, at]))
    diff = np.take_along_axis(y, arg[..., None], axis=-2) - x
    diff *= diff
    np.copyto(dist, (diff[..., 0] + diff[..., 1]) + diff[..., 2], where=~exact)
    return dist.reshape(-1), arg.reshape(-1)


def chamfer(a, b) -> Tensor:
    """Symmetric squared-distance Chamfer loss between two clouds.

    ``a`` is ``(..., p, 3)`` and ``b`` is ``(..., q, 3)`` with equal leading
    (batch) axes; the result has the leading shape, a scalar for two single
    clouds. ``a`` is the prediction: a ``b`` that is not a Tensor is cast to
    its dtype (an ``a`` that is not a Tensor is taken as float64).

    One graph node, whose forward picks each row's and each column's first
    minimum, or first NaN, of the ``(..., p, q)`` distances, as ``np.argmin``
    gives over the whole array. Two paths, one exact answer:

    - Distances that fit in ``_BLOCK_BYTES`` (the patch transformer's local
      and global sets, every small cloud) are computed whole with
      ``geometry._sqdist_to``, and its rows and its transposed copy's rows
      are picked with ``_first_min``.
    - Larger ones are never held: ``_nearest(a, b)`` picks the rows and
      ``_nearest(b, a)`` the columns, each a block of rows at a time. Its
      BLAS product only filters, by a rounding bound that proves its argmin
      is the kernel's strict minimum; every row it cannot prove goes to
      ``_sqdist_to``, and every kept distance is recomputed with the
      kernel's arithmetic. So the picks and their values are the kernel's
      bits on either path.

    The backward routes ``g / p`` to each row's pick and ``g / q`` to each
    column's, adds the two where they coincide, and hands the nonzero
    entries to ``autograd._add_pair_grads``. Value and gradients equal the
    composition ``pairwise_sqdist`` -> ``min_over_axis`` (both axes) -> a
    mean over the last axis -> ``add`` bit for bit.
    """
    ta = _as_points(a, np.float64, "first cloud")
    tb = _as_points(b, ta.dtype, "second cloud")
    sa, sb = ta.data.shape, tb.data.shape
    if sa[:-2] != sb[:-2]:
        raise ValueError(f"chamfer expects equal leading axes, got {sa} vs {sb}")
    p, q = sa[-2], sb[-2]
    dtype = np.result_type(ta.data, tb.data)
    # a diverging prediction overflows silently here; the trainer checks the loss
    with np.errstate(over="ignore", invalid="ignore"):
        if ta.data[..., 0].size * q * dtype.itemsize <= _BLOCK_BYTES:
            d = _sqdist_to(np.ascontiguousarray(np.swapaxes(tb.data, -1, -2)), ta.data)
            row_min, row_arg = _first_min(d.reshape(-1, q))
            col_min, col_arg = _first_min(np.swapaxes(d, -1, -2).reshape(-1, p))
        else:
            row_min, row_arg = _nearest(ta.data, tb.data)
            col_min, col_arg = _nearest(tb.data, ta.data)
    value = row_min.reshape(sa[:-1]).mean(axis=-1) + col_min.reshape(sb[:-1]).mean(axis=-1)

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
