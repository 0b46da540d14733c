"""Input corruption: random affine transforms and the masking strategies.

Affine transforms are sampled per sub-family (rotate, translate, reflect,
shear, scale) and composed in a fixed order so that a seed plus the
``affine_*`` fields of a ``TrainConfig`` fully determine the ``(3, 4)``
``[A | t]`` array of the map.
Masking removes either points (cluster and view-occlusion strategies, for
encoders that consume whole clouds) or patches (index masking, for
patch-token encoders).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import as_cloud, knn

if TYPE_CHECKING:
    from .trainer import TrainConfig

ALL_FAMILIES = ("rotate", "translate", "reflect", "shear", "scale")
# application order: a point is scaled first, translated last
COMPOSITION_ORDER = ("scale", "shear", "reflect", "rotate", "translate")


def parse_range(text: str) -> tuple[float, float]:
    """An ``"lo:hi"`` range string as two floats."""
    lo, _, hi = text.partition(":")
    return (float(lo), float(hi))


def enabled_families(text: str) -> set[str]:
    """The sub-families named by a comma-separated list; "" or "none" is none."""
    text = text.strip()
    return set() if text in ("", "none") else set(text.split(","))


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(lo) if lo == hi else float(rng.uniform(lo, hi))


def _family_matrix(family: str, cfg: TrainConfig, rng: np.random.Generator) -> np.ndarray:
    h = np.eye(4)
    if family == "reflect":
        for ax in range(3):
            if rng.random() < cfg.affine_reflect:
                h[ax, ax] = -1.0
        return h
    lo, hi = parse_range(getattr(cfg, f"affine_{family}"))
    if family == "scale":
        for ax in range(3):
            h[ax, ax] = _uniform(rng, lo, hi)
    elif family == "shear":
        # unit diagonal, all six off-diagonal coefficients sampled
        for i in range(3):
            for j in range(3):
                if i != j:
                    h[i, j] = _uniform(rng, lo, hi)
    elif family == "rotate":
        # intra-family convention: rotate about x, then y, then z
        for ax in range(3):
            angle = _uniform(rng, lo, hi)
            c, s = np.cos(angle), np.sin(angle)
            a, b = [(1, 2), (0, 2), (0, 1)][ax]
            sign = -1.0 if ax == 1 else 1.0  # y-axis rotation: opposite off-diagonal signs
            r = np.eye(4)
            r[a, a] = r[b, b] = c
            r[a, b], r[b, a] = -sign * s, sign * s
            h = r @ h
    else:  # translate
        for ax in range(3):
            h[ax, 3] = _uniform(rng, lo, hi)
    return h


def sample_affine(cfg: TrainConfig, rng: np.random.Generator) -> np.ndarray:
    """Sample one affine map from the config's ``affine_families``: the
    ``(3, 4)`` float64 array ``[A | t]``.

    Component matrices are sampled and composed in the fixed order
    scale -> shear -> reflect -> rotate -> translate (application order).
    No enabled sub-family yields the identity.
    """
    enabled = enabled_families(cfg.affine_families)
    h = np.eye(4)
    for family in COMPOSITION_ORDER:
        if family in enabled:
            h = _family_matrix(family, cfg, rng) @ h
    return h[:3]


@dataclass(frozen=True)
class MaskPlan:
    """Which indices are masked, with cluster bookkeeping.

    For point masking the clusters are k-NN drops around drawn centers; for
    patch masking each masked patch is its own size-1 cluster. ``masked``
    and ``visible`` partition ``range(total_count)``.
    """

    masked: np.ndarray
    visible: np.ndarray
    cluster_sizes: tuple[int, ...]
    cluster_centers: tuple[int, ...]

    def __post_init__(self):
        m = np.asarray(self.masked, dtype=np.int64)
        v = np.asarray(self.visible, dtype=np.int64)
        object.__setattr__(self, "masked", m)
        object.__setattr__(self, "visible", v)
        total = len(m) + len(v)
        union = np.union1d(m, v)
        if len(union) != total or (total and (union[0] != 0 or union[-1] != total - 1)):
            raise ValueError("masked and visible must partition range(total)")
        if any(s <= 0 for s in self.cluster_sizes):
            raise ValueError("every cluster size must be positive")
        if sum(self.cluster_sizes) != len(m):
            raise ValueError("cluster sizes must sum to the masked count")
        if len(self.cluster_centers) != len(self.cluster_sizes):
            raise ValueError("one center per cluster required")

    @property
    def total_count(self) -> int:
        return len(self.masked) + len(self.visible)


class DegenerateMaskError(ValueError):
    """The requested ratio leaves nothing to mask or nothing visible."""


def _mask_budget(count: int, ratio: float) -> int:
    if not ratio > 0.0 or not np.isfinite(ratio):
        raise DegenerateMaskError(f"mask ratio must be positive, got {ratio}")
    budget = int(np.floor(ratio * count))
    if budget < 1:
        raise DegenerateMaskError(f"mask would be empty: floor({ratio} * {count}) = 0")
    if budget >= count:
        raise DegenerateMaskError(f"mask would consume all points: budget {budget} of {count}")
    return budget


def _split_budget(budget: int, num_clusters: int, rng: np.random.Generator) -> list[int]:
    # uniform composition of `budget` into `num_clusters` positive parts
    # (stars and bars: choose num_clusters-1 distinct cut points)
    if num_clusters == 1:
        return [budget]
    cuts = np.sort(rng.choice(budget - 1, size=num_clusters - 1, replace=False) + 1)
    edges = np.concatenate([[0], cuts, [budget]])
    return np.diff(edges).tolist()  # Python ints: plan.json serialises them


def _drop_clusters(pts: np.ndarray, sizes: list[int],
                   rng: np.random.Generator) -> tuple[MaskPlan, np.ndarray]:
    surviving = np.arange(pts.shape[0], dtype=np.int64)
    dropped: list[np.ndarray] = []
    centers: list[int] = []
    for size in sizes:
        center = int(surviving[rng.integers(len(surviving))])
        centers.append(center)
        order = knn(pts[surviving], pts[center], size)
        dropped.append(surviving[order])
        keep = np.ones(len(surviving), dtype=bool)
        keep[order] = False
        surviving = surviving[keep]
    masked = np.sort(np.concatenate(dropped))
    plan = MaskPlan(masked=masked, visible=np.sort(surviving),
                    cluster_sizes=tuple(sizes), cluster_centers=tuple(centers))
    return plan, pts[plan.visible]


def mask_random_clusters(points: np.ndarray, ratio: float, rng: np.random.Generator,
                         max_clusters: int = 8) -> tuple[MaskPlan, np.ndarray]:
    """Drop random-sized k-NN clusters totalling floor(ratio * w) points.

    The cluster count is drawn uniformly in [1, min(max_clusters, budget)]
    and the budget is split into positive parts uniformly at random. Each
    cluster drops the nearest surviving points around a center drawn from
    the survivors (the center itself is dropped, its distance being 0).
    """
    pts = as_cloud(points)
    budget = _mask_budget(pts.shape[0], ratio)
    num_clusters = int(rng.integers(1, min(max_clusters, budget) + 1))
    sizes = _split_budget(budget, num_clusters, rng)
    return _drop_clusters(pts, sizes, rng)


def mask_fixed_clusters(points: np.ndarray, ratio: float, cluster_size: int,
                        rng: np.random.Generator) -> tuple[MaskPlan, np.ndarray]:
    """Drop fixed-sized k-NN clusters; the last cluster is truncated."""
    pts = as_cloud(points)
    if cluster_size < 1:
        raise ValueError(f"cluster size must be positive, got {cluster_size}")
    budget = _mask_budget(pts.shape[0], ratio)
    sizes = [cluster_size] * (budget // cluster_size)
    if budget % cluster_size:
        sizes.append(budget % cluster_size)
    return _drop_clusters(pts, sizes, rng)


def mask_view_occlusion(points: np.ndarray, ratio: float,
                        rng: np.random.Generator) -> tuple[MaskPlan, np.ndarray]:
    """Mask points occluded along a random view direction.

    Points are binned on a plane orthogonal to the view; each bin keeps its
    nearest-to-camera point (ties by lowest index), so a grid leaves exactly
    as many points visible as it has occupied bins. The grid resolution is
    searched by that count, from one bin per side upwards, for the count
    nearest (1 - ratio) * w (the first such grid wins); then the count is
    made exact by nearest-depth ordering.
    """
    pts = as_cloud(points)
    w = pts.shape[0]
    budget = _mask_budget(w, ratio)
    target_visible = w - budget

    view = rng.standard_normal(3)
    view /= np.linalg.norm(view)
    # orthonormal basis of the projection plane
    helper = np.array([1.0, 0.0, 0.0]) if abs(view[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u1 = np.cross(view, helper)
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(view, u1)
    depth = pts @ view
    proj = np.stack([pts @ u1, pts @ u2], axis=1)

    lo = proj.min(axis=0)
    span = proj.max(axis=0) - lo
    span[span == 0] = 1.0

    def bins(grid: int) -> np.ndarray:
        cell = np.minimum((proj - lo) / span * grid, grid - 1).astype(np.int64)
        return cell[:, 0] * grid + cell[:, 1]

    best_grid, best_err = 1, abs(1 - target_visible)
    for grid in range(2, int(np.ceil(np.sqrt(w))) + 2):
        err = abs(np.count_nonzero(np.bincount(bins(grid))) - target_visible)
        if err < best_err:
            best_grid, best_err = grid, err
        if err == 0:
            break

    depth_order = np.lexsort((np.arange(w), depth))  # ascending depth, index ties
    # the first point of each bin in depth order is its frontmost
    _, first = np.unique(bins(best_grid)[depth_order], return_index=True)
    visible = np.zeros(w, dtype=bool)
    visible[depth_order[first]] = True
    n_vis = len(first)
    if n_vis > target_visible:
        # occlude the farthest currently-visible points
        far_first = depth_order[::-1]
        visible[far_first[visible[far_first]][:n_vis - target_visible]] = False
    elif n_vis < target_visible:
        # reveal the nearest currently-masked points
        visible[depth_order[~visible[depth_order]][:target_visible - n_vis]] = True

    masked = np.flatnonzero(~visible).astype(np.int64)
    # no k-NN clusters here: one pseudo-cluster, center -1 (no drawn center)
    plan = MaskPlan(masked=masked, visible=np.flatnonzero(visible).astype(np.int64),
                    cluster_sizes=(budget,), cluster_centers=(-1,))
    return plan, pts[plan.visible]


def mask_patches(num_patches: int, ratio: float, rng: np.random.Generator) -> MaskPlan:
    """Mask floor(ratio * n) patch indices uniformly without replacement."""
    if num_patches < 1:
        raise ValueError("patch count must be positive")
    budget = _mask_budget(num_patches, ratio)
    masked = np.sort(rng.choice(num_patches, size=budget, replace=False)).astype(np.int64)
    visible = np.setdiff1d(np.arange(num_patches, dtype=np.int64), masked)
    return MaskPlan(masked=masked, visible=visible, cluster_sizes=(1,) * budget,
                    cluster_centers=tuple(int(i) for i in masked))
