"""Pure geometric kernels: affine maps, farthest-point sampling, k-NN,
patchification, and patch (de)normalization.

All functions are pure; randomness enters only through explicitly passed
``numpy.random.Generator`` instances. Distances are squared Euclidean
throughout (no square roots). Ties in FPS and k-NN are broken by lowest
point index so results are reproducible and oracle-checkable.

FPS, k-NN and ``patchify`` take one ``(w, 3)`` cloud or a ``(B, w, 3)``
micro-batch of them (one generator per cloud), and give each cloud exactly
what it would get alone. A batch takes each FPS step together, one distance
row and one ``argmax`` for all its clouds, and ``patchify`` hands the rows FPS
computed for its picks to ``knn`` as the centers' distances, so grouping a
cloud computes each distance once. ``knn`` returns only neighbor indices, as
grouping needs nothing else; the tests check its rows against a brute-force
oracle. An affine map is a plain ``(3, 4)`` array ``[A | t]`` (the implied
homogeneous row ``[0, 0, 0, 1]`` is not stored), and ``affine_apply`` moves a
batch of clouds by a ``(B, 3, 4)`` stack of them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


def as_cloud(points, batch: bool = False) -> np.ndarray:
    """Validate and canonicalize a point cloud to a (w, 3) float64 array;
    with ``batch``, a (B, w, 3) batch of equally sized clouds is taken too.

    Raises ValueError for wrong shape, empty input, or non-finite values.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim not in ((2, 3) if batch else (2,)) or pts.shape[-1] != 3:
        raise ValueError(f"point cloud must have shape {'(B, w, 3) or ' if batch else ''}"
                         f"(w, 3), got {pts.shape}")
    if pts.shape[-2] < 1:
        raise ValueError("point cloud must contain at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point cloud contains non-finite coordinates")
    return pts


def affine_apply(points: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Move each cloud of a ``(B, ..., 3)`` batch by its own ``[A | t]`` map,
    the ``(B, 3, 4)`` stack ``matrices`` holding one per cloud: x' = A x + t.

    The batch is one stacked product: its ``(B, r, 3)`` points times the
    transposed ``(B, 3, 3)`` linear blocks, plus the ``(B, 1, 3)``
    translations. Numpy runs it as one gemm per cloud, so each cloud gets the
    bits of its own ``pts @ A.T + t``. Rejects non-finite results (overflow
    from pathological maps), naming the first bad cloud and point.
    """
    pts = np.asarray(points, dtype=np.float64)
    maps = np.asarray(matrices, dtype=np.float64)
    if maps.ndim != 3 or maps.shape[1:] != (3, 4):
        raise ValueError(f"affine maps must have shape (B, 3, 4), got {maps.shape}")
    if pts.ndim < 2 or pts.shape[-1] != 3 or len(pts) != len(maps):
        raise ValueError(f"points must have shape ({len(maps)}, ..., 3) for "
                         f"{len(maps)} maps, got {pts.shape}")
    flat = as_cloud(pts.reshape(len(maps), -1, 3), batch=True)
    with np.errstate(over="ignore", invalid="ignore"):
        out = flat @ np.swapaxes(maps[:, :, :3], 1, 2) + maps[:, None, :, 3]
    if not np.all(np.isfinite(out)):
        cloud, point = np.argwhere(~np.isfinite(out).all(axis=2))[0]
        raise ValueError(
            f"affine application produced non-finite coordinates (first bad point: cloud "
            f"{cloud}, point {point}; map max |entry| {np.abs(maps[cloud]).max():g})"
        )
    return out.reshape(pts.shape)


def _sqdist_to(cols: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from the points of ``cols``, a ``(..., d, w)``
    transposed copy of a cloud, to one ``(d,)`` query, giving ``(w,)``, or
    to ``(..., n, d)`` queries, giving ``(..., n, w)`` (equal leading axes).

    The squared-distance kernel of k-NN and so the cluster masks,
    ``pairwise_sqdist`` and Chamfer; FPS repeats its arithmetic inline for
    its one query per cloud, in fewer numpy calls. Computed as
    ``(dx*dx + dy*dy) + dz*dz``: the additions
    ``np.sum((pts - q) ** 2, axis=-1)`` makes over its 3-long axis, so the
    result is the same bit for bit, without the strided ``(..., w, 3)``
    temporaries.
    """
    if q.ndim > 1:
        cols = cols[..., None, :, :]
    q = q[..., None]
    out = cols[..., 0, :] - q[..., 0, :]
    out *= out
    dc = np.empty_like(out)
    for c in range(1, cols.shape[-2]):
        np.subtract(cols[..., c, :], q[..., c, :], out=dc)
        dc *= dc
        out += dc
    return out


def farthest_point_sample(points: np.ndarray, n: int, rng,
                          rows: np.ndarray | None = None) -> np.ndarray:
    """Select ``n`` point indices by farthest-point sampling.

    ``points`` is one ``(w, 3)`` cloud with one generator ``rng``, giving
    ``(n,)`` indices, or a ``(B, w, 3)`` batch with a sequence of B
    generators, giving ``(B, n)``. Each cloud's start index is drawn uniformly
    from its generator; each subsequent pick maximizes the minimum squared
    distance to all previously selected points, ties broken by lowest index.
    Already-selected points are never re-selected.

    ``rows``, a ``(..., n, w)`` array, receives in row i the squared
    distances from pick i to every point: the distances ``knn`` needs with the
    picks as queries.
    """
    pts = as_cloud(points, batch=True)
    w = pts.shape[-2]
    if n <= 0:
        raise ValueError(f"sample count must be positive, got {n}")
    if n > w:
        raise ValueError(f"sample count {n} exceeds cloud size {w}")
    clouds = pts.reshape(-1, w, 3)
    rngs = [rng] if pts.ndim == 2 else list(rng)
    if len(rngs) != len(clouds):
        raise ValueError(f"need one generator per cloud, got {len(rngs)} for {len(clouds)}")
    if rows is not None:
        if rows.shape != pts.shape[:-2] + (n, w):
            raise ValueError(f"rows of shape {rows.shape} do not fit {n} picks of {pts.shape}")
        rows = rows[None] if pts.ndim == 2 else rows  # a view: writes reach the caller

    cols = np.ascontiguousarray(np.swapaxes(clouds, 1, 2))  # (B, 3, w)
    batch = np.arange(len(clouds))
    selected = np.empty((len(clouds), n), dtype=np.int64)
    selected[:, 0] = [r.integers(w) for r in rngs]
    # min squared distance from each point to the selected set; selected
    # entries are forced to -1 so argmax never revisits them (matters for
    # clouds with duplicate points).
    min_sq = np.full((len(clouds), w), np.inf)
    diff = np.empty_like(cols)
    for i in range(n):
        if i:
            selected[:, i] = np.argmax(min_sq, axis=1)  # the first max: lowest index
        pick = selected[:, i]
        # ``_sqdist_to``'s (dx*dx + dy*dy) + dz*dz for one query per cloud,
        # in one subtract over all coordinates
        np.subtract(cols, clouds[batch, pick][:, :, None], out=diff)
        diff *= diff
        sq = diff[:, 0] + diff[:, 1]  # (B, w)
        sq += diff[:, 2]
        if rows is not None:
            rows[:, i] = sq
        np.minimum(min_sq, sq, out=min_sq)
        min_sq[batch, pick] = -1.0
    return selected if pts.ndim == 3 else selected[0]


def knn(points: np.ndarray, query: np.ndarray, k: int,
        sq: np.ndarray | None = None) -> np.ndarray:
    """The int64 indices of the ``k`` nearest points to each query by squared
    Euclidean distance, nearest first: ``query.shape[:-1] + (k,)``.

    For one ``(w, 3)`` cloud, ``query`` is one ``(3,)`` point, giving ``(k,)``,
    or ``(n, 3)`` points, giving ``(n, k)``, one row per query; for a
    ``(B, w, 3)`` batch it is ``(B, n, 3)``, giving ``(B, n, k)``. ``sq``, the
    queries' ``(..., n, w)`` squared distances to the points as ``_sqdist_to``
    gives them (``farthest_point_sample``'s ``rows`` for its picks), is used
    instead of computing them again. Ties are broken by lowest index, so each
    row equals the first ``k`` entries of a stable argsort of its distances.
    """
    pts = as_cloud(points, batch=True)
    w = pts.shape[-2]
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k > w:
        raise ValueError(f"k={k} exceeds cloud size {w}")
    q = np.asarray(query, dtype=np.float64)
    if q.shape[-1:] != (3,) or not (q.ndim <= 2 if pts.ndim == 2 else
                                    q.ndim == 3 and len(q) == len(pts)):
        want = "(3,) or (n, 3)" if pts.ndim == 2 else f"({len(pts)}, n, 3)"
        raise ValueError(f"query must have shape {want}, got {q.shape}")
    if sq is None:
        sq = _sqdist_to(np.ascontiguousarray(np.swapaxes(pts, -1, -2)),
                        q.reshape(pts.shape[:-2] + (-1, 3)))
    elif sq.shape != q.shape[:-1] + (w,):
        raise ValueError(f"distances of shape {sq.shape} do not fit queries {q.shape}")
    sq = sq.reshape(-1, w)  # one row per query
    # all points closer than the k-th distance, plus the lowest-index ones at it
    kth = np.partition(sq, k - 1, axis=1)[:, k - 1:k]
    take = sq <= kth
    # only a row with more points at the k-th distance than places left for
    # them has to drop its highest-index ties
    over = np.flatnonzero(np.count_nonzero(take, axis=1) > k)
    if over.size:
        below, ties = sq[over] < kth[over], sq[over] == kth[over]
        need = k - np.count_nonzero(below, axis=1, keepdims=True)
        take[over] = below | (ties & (np.cumsum(ties, axis=1) <= need))
    idx = (np.flatnonzero(take) % w).reshape(-1, k)  # ascending index within each row
    # a stable sort of the index-ordered selection keeps lowest-index ties first
    order = np.argsort(np.take_along_axis(sq, idx, axis=1), axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1).reshape(q.shape[:-1] + (k,))


@dataclass(frozen=True)
class PatchSet:
    """Patch centers plus per-center k-NN patches.

    ``patches[i]`` holds the k nearest points (center included) to
    ``centers[i]``; ``indices[i]`` are their source-cloud indices. When
    ``normalized`` is true, patch coordinates are relative to their center.
    A batch of sets carries leading axes on every array.
    """

    centers: np.ndarray
    patches: np.ndarray
    indices: np.ndarray | None
    normalized: bool

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=np.float64)
        p = np.asarray(self.patches, dtype=np.float64)
        if c.ndim < 2 or c.shape[-1] != 3:
            raise ValueError(f"centers must be (..., n, 3), got {c.shape}")
        if p.ndim != c.ndim + 1 or p.shape[:-2] != c.shape[:-1] or p.shape[-1] != 3:
            raise ValueError(f"patches must be (..., n, k, 3) matching centers, got {p.shape}")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "patches", p)


def _gather(pts: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The points ``idx`` (any trailing shape) of each cloud of ``pts``."""
    flat = idx.reshape(pts.shape[:-2] + (-1, 1))
    return np.take_along_axis(pts, flat, axis=-2).reshape(idx.shape + (3,))


def patchify(points: np.ndarray, num_patches: int, patch_size: int, rng) -> PatchSet:
    """FPS-selected centers, each grouped with its ``patch_size`` nearest points.

    One ``(w, 3)`` cloud with one generator, or a ``(B, w, 3)`` batch with
    one generator per cloud, grouped in one FPS pass whose distance rows are
    the k-NN distances."""
    pts = as_cloud(points, batch=True)
    rows = np.empty(pts.shape[:-2] + (num_patches, pts.shape[-2]))
    center_idx = farthest_point_sample(pts, num_patches, rng, rows=rows)
    centers = _gather(pts, center_idx)
    idx = knn(pts, centers, patch_size, sq=rows)
    return PatchSet(centers=centers, patches=_gather(pts, idx), indices=idx, normalized=False)


def normalize_patches(ps: PatchSet) -> PatchSet:
    """Shift each patch into its center's frame (subtract the center)."""
    if ps.normalized:
        raise ValueError("patch set is already normalized")
    return replace(ps, patches=ps.patches - ps.centers[..., None, :], normalized=True)


def denormalize_patches(ps: PatchSet) -> PatchSet:
    """Restore absolute coordinates (add the center back)."""
    if not ps.normalized:
        raise ValueError("patch set is not normalized")
    return replace(ps, patches=ps.patches + ps.centers[..., None, :], normalized=False)
