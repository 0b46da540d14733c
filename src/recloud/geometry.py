"""Pure geometric kernels: affine maps, farthest-point sampling, k-NN,
patchification, and patch (de)normalization.

All functions are pure; randomness enters only through explicitly passed
``numpy.random.Generator`` instances. Distances are squared Euclidean
throughout (no square roots). Ties in FPS and k-NN are broken by lowest
point index so results are reproducible and oracle-checkable.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


def as_cloud(points) -> np.ndarray:
    """Validate and canonicalize a point cloud to a (w, 3) float64 array.

    Raises ValueError for wrong shape, empty input, or non-finite values.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"point cloud must have shape (w, 3), got {pts.shape}")
    if pts.shape[0] < 1:
        raise ValueError("point cloud must contain at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point cloud contains non-finite coordinates")
    return pts


@dataclass(frozen=True)
class AffineTransform:
    """A 3x4 affine map: linear 3x3 block plus translation column.

    The implied homogeneous bottom row [0, 0, 0, 1] is never stored.
    ``provenance`` records which sub-families contributed to the matrix.
    """

    matrix: np.ndarray
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (3, 4):
            raise ValueError(f"affine matrix must be 3x4, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("affine matrix contains non-finite entries")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(np.hstack([np.eye(3), np.zeros((3, 1))]))

    @property
    def linear(self) -> np.ndarray:
        """The 3x3 linear block."""
        return self.matrix[:, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.matrix[:, 3]

    def homogeneous(self) -> np.ndarray:
        """Full 4x4 matrix with the implied bottom row."""
        h = np.eye(4)
        h[:3, :] = self.matrix
        return h

    def determinant(self) -> float:
        """Determinant of the linear block (orientation/volume factor)."""
        return float(np.linalg.det(self.linear))


def compose(second: AffineTransform, first: AffineTransform) -> AffineTransform:
    """Transform equivalent to applying ``first`` then ``second``."""
    h = second.homogeneous() @ first.homogeneous()
    return AffineTransform(h[:3, :], provenance=first.provenance + second.provenance)


def affine_apply(points: np.ndarray, transform: AffineTransform) -> np.ndarray:
    """Apply an affine transform point-wise: x' = A x + t.

    Rejects non-finite results (overflow from pathological matrices).
    """
    pts = as_cloud(points)
    with np.errstate(over="ignore", invalid="ignore"):
        out = pts @ transform.linear.T + transform.translation
    if not np.all(np.isfinite(out)):
        bad = int(np.flatnonzero(~np.isfinite(out).all(axis=1))[0])
        raise ValueError(
            f"affine application produced non-finite coordinates (first bad point "
            f"index {bad}; matrix max |entry| {np.abs(transform.matrix).max():g})"
        )
    return out


def _sqdist_to(cols: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from the points of ``cols``, a ``(..., d, w)``
    transposed copy of a cloud, to one ``(d,)`` query, giving ``(w,)``, or
    to ``(..., n, d)`` queries, giving ``(..., n, w)`` (equal leading axes).

    The one squared-distance kernel of the package (FPS, k-NN, cluster
    masks, ``pairwise_sqdist`` and Chamfer). Computed as
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


def farthest_point_sample(points: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Select ``n`` point indices by farthest-point sampling.

    The start index is drawn uniformly from ``rng``; each subsequent pick
    maximizes the minimum squared distance to all previously selected
    points, ties broken by lowest index. Already-selected points are
    never re-selected.
    """
    pts = as_cloud(points)
    w = pts.shape[0]
    if n <= 0:
        raise ValueError(f"sample count must be positive, got {n}")
    if n > w:
        raise ValueError(f"sample count {n} exceeds cloud size {w}")

    cols = np.ascontiguousarray(pts.T)
    selected = np.empty(n, dtype=np.int64)
    selected[0] = int(rng.integers(w))
    # min squared distance from each point to the selected set; selected
    # entries are forced to -1 so argmax never revisits them (matters for
    # clouds with duplicate points).
    min_sq = _sqdist_to(cols, pts[selected[0]])
    min_sq[selected[0]] = -1.0
    for i in range(1, n):
        nxt = int(np.argmax(min_sq))  # argmax takes the first max: lowest index
        selected[i] = nxt
        np.minimum(min_sq, _sqdist_to(cols, pts[nxt]), out=min_sq)
        min_sq[nxt] = -1.0
    return selected


@dataclass(frozen=True)
class Neighborhood:
    """Result of a k-NN query: indices sorted by ascending squared distance.

    ``indices`` and ``sq_distances`` are ``(k,)`` for one query and
    ``(n, k)`` for n queries, one row per query.
    """

    indices: np.ndarray
    sq_distances: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        d = np.asarray(self.sq_distances, dtype=np.float64)
        if idx.ndim not in (1, 2) or d.shape != idx.shape:
            raise ValueError("indices and distances must be matching 1-D or 2-D arrays")
        if np.any(np.diff(np.sort(idx, axis=-1), axis=-1) == 0):
            raise ValueError("neighbor indices must be distinct")
        if np.any(np.diff(d, axis=-1) < 0):
            raise ValueError("neighbor distances must be non-decreasing")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "sq_distances", d)


def knn(points: np.ndarray, query: np.ndarray, k: int) -> Neighborhood:
    """The ``k`` nearest points to each query by squared Euclidean distance.

    ``query`` is one ``(3,)`` point, giving ``(k,)`` rows, or ``(n, 3)``
    points, giving ``(n, k)`` rows. Ties are broken by lowest index, so each
    row equals the first ``k`` entries of a stable argsort of its distances.
    """
    pts = as_cloud(points)
    w = pts.shape[0]
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k > w:
        raise ValueError(f"k={k} exceeds cloud size {w}")
    q = np.asarray(query, dtype=np.float64)
    if q.shape[-1:] != (3,) or q.ndim > 2:
        raise ValueError(f"query must have shape (3,) or (n, 3), got {q.shape}")
    sq = _sqdist_to(np.ascontiguousarray(pts.T), q.reshape(-1, 3))  # (n, w)
    # all points closer than the k-th distance, plus the lowest-index ones at it
    kth = np.partition(sq, k - 1, axis=1)[:, k - 1:k]
    below, at_kth = sq < kth, sq == kth
    need = k - np.count_nonzero(below, axis=1, keepdims=True)
    take = below | (at_kth & (np.cumsum(at_kth, axis=1) <= need))
    idx = np.nonzero(take)[1].reshape(-1, k)  # ascending index within each row
    # a stable sort of the index-ordered selection keeps lowest-index ties first
    order = np.argsort(np.take_along_axis(sq, idx, axis=1), axis=1, kind="stable")
    idx = np.take_along_axis(idx, order, axis=1)
    dist = np.take_along_axis(sq, idx, axis=1)
    if q.ndim == 1:
        idx, dist = idx[0], dist[0]
    return Neighborhood(indices=idx, sq_distances=dist)


@dataclass(frozen=True)
class PatchSet:
    """Patch centers plus per-center k-NN patches.

    ``patches[i]`` holds the k nearest points (center included) to
    ``centers[i]``; ``indices[i]`` are their source-cloud indices. When
    ``normalized`` is true, patch coordinates are relative to their center.
    """

    centers: np.ndarray
    patches: np.ndarray
    indices: np.ndarray | None
    normalized: bool

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=np.float64)
        p = np.asarray(self.patches, dtype=np.float64)
        if c.ndim != 2 or c.shape[1] != 3:
            raise ValueError(f"centers must be (n, 3), got {c.shape}")
        if p.ndim != 3 or p.shape[0] != c.shape[0] or p.shape[2] != 3:
            raise ValueError(f"patches must be (n, k, 3) matching centers, got {p.shape}")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "patches", p)

    @property
    def num_patches(self) -> int:
        return self.centers.shape[0]

    @property
    def patch_size(self) -> int:
        return self.patches.shape[1]


def patchify(points: np.ndarray, num_patches: int, patch_size: int,
             rng: np.random.Generator) -> PatchSet:
    """FPS-selected centers, each grouped with its ``patch_size`` nearest points."""
    pts = as_cloud(points)
    center_idx = farthest_point_sample(pts, num_patches, rng)
    centers = pts[center_idx]
    idx = knn(pts, centers, patch_size).indices
    return PatchSet(centers=centers, patches=pts[idx], indices=idx, normalized=False)


def normalize_patches(ps: PatchSet) -> PatchSet:
    """Shift each patch into its center's frame (subtract the center)."""
    if ps.normalized:
        raise ValueError("patch set is already normalized")
    return replace(ps, patches=ps.patches - ps.centers[:, None, :], normalized=True)


def denormalize_patches(ps: PatchSet) -> PatchSet:
    """Restore absolute coordinates (add the center back)."""
    if not ps.normalized:
        raise ValueError("patch set is not normalized")
    return replace(ps, patches=ps.patches + ps.centers[:, None, :], normalized=False)
