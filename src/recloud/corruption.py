"""Input corruption: random affine transforms and the masking strategies.

Affine transforms are sampled per sub-family (rotate, translate, reflect,
shear, scale) and composed in a fixed order so that a seed plus a spec
fully determines the matrix. Masking removes either points (cluster and
view-occlusion strategies, for encoders that consume whole clouds) or
patches (index masking, for patch-token encoders).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import AffineTransform, _sqdist_to, as_cloud

ALL_FAMILIES = ("rotate", "translate", "reflect", "shear", "scale")
# application order: a point is scaled first, translated last
COMPOSITION_ORDER = ("scale", "shear", "reflect", "rotate", "translate")

Range = tuple[float, float]


def _check_range(name: str, r: Range, positive: bool = False) -> None:
    lo, hi = float(r[0]), float(r[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
        raise ValueError(f"{name} range must be finite with lo <= hi, got ({lo}, {hi})")
    if positive and lo <= 0:
        raise ValueError(f"{name} range must be strictly positive, got ({lo}, {hi})")


@dataclass(frozen=True)
class AffineFamilySpec:
    """Sampling ranges for the five affine sub-families.

    ``rotate``/``translate``/``scale`` hold one (lo, hi) range per axis;
    ``shear`` is a single range shared by all six off-diagonal
    coefficients; ``reflect`` is a per-axis flip probability.
    """

    rotate: tuple[Range, Range, Range] = ((-np.pi, np.pi),) * 3
    translate: tuple[Range, Range, Range] = ((-0.2, 0.2),) * 3
    reflect: tuple[float, float, float] = (0.5, 0.5, 0.5)
    shear: Range = (-0.25, 0.25)
    scale: tuple[Range, Range, Range] = ((2.0 / 3.0, 1.5),) * 3
    enabled: frozenset[str] = frozenset(ALL_FAMILIES)

    def __post_init__(self):
        for ax in range(3):
            _check_range(f"rotate[{ax}]", self.rotate[ax])
            _check_range(f"translate[{ax}]", self.translate[ax])
            _check_range(f"scale[{ax}]", self.scale[ax], positive=True)
            p = self.reflect[ax]
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"reflect probability must be in [0, 1], got {p}")
        _check_range("shear", self.shear)
        unknown = set(self.enabled) - set(ALL_FAMILIES)
        if unknown:
            raise ValueError(f"unknown affine sub-families: {sorted(unknown)}")
        object.__setattr__(self, "enabled", frozenset(self.enabled))

    @classmethod
    def disabled(cls) -> "AffineFamilySpec":
        """No sub-families enabled: sampling yields the identity."""
        return cls(enabled=frozenset())

    @classmethod
    def single(cls, family: str) -> "AffineFamilySpec":
        """Default magnitudes with only one sub-family enabled."""
        if family not in ALL_FAMILIES:
            raise ValueError(f"unknown affine sub-family {family!r}")
        return cls(enabled=frozenset({family}))


def _uniform(rng: np.random.Generator, r: Range) -> float:
    lo, hi = r
    return float(lo) if lo == hi else float(rng.uniform(lo, hi))


def _family_matrix(family: str, spec: AffineFamilySpec, rng: np.random.Generator) -> np.ndarray:
    h = np.eye(4)
    if family == "scale":
        for ax in range(3):
            h[ax, ax] = _uniform(rng, spec.scale[ax])
    elif family == "shear":
        # unit diagonal, all six off-diagonal coefficients sampled
        for i in range(3):
            for j in range(3):
                if i != j:
                    h[i, j] = _uniform(rng, spec.shear)
    elif family == "reflect":
        for ax in range(3):
            if rng.random() < spec.reflect[ax]:
                h[ax, ax] = -1.0
    elif family == "rotate":
        # intra-family convention: rotate about x, then y, then z
        for ax in range(3):
            angle = _uniform(rng, spec.rotate[ax])
            c, s = np.cos(angle), np.sin(angle)
            r = np.eye(4)
            a, b = [(1, 2), (0, 2), (0, 1)][ax]
            r[a, a] = c
            r[b, b] = c
            if ax == 1:  # y-axis rotation has the opposite off-diagonal signs
                r[a, b] = s
                r[b, a] = -s
            else:
                r[a, b] = -s
                r[b, a] = s
            h = r @ h
    elif family == "translate":
        for ax in range(3):
            h[ax, 3] = _uniform(rng, spec.translate[ax])
    else:
        raise ValueError(f"unknown affine sub-family {family!r}")
    return h


def sample_affine(spec: AffineFamilySpec, rng: np.random.Generator) -> AffineTransform:
    """Sample one affine transform from the enabled sub-families.

    Component matrices are sampled and composed in the fixed order
    scale -> shear -> reflect -> rotate -> translate (application order).
    An empty enabled set yields the identity.
    """
    h = np.eye(4)
    provenance = []
    for family in COMPOSITION_ORDER:
        if family in spec.enabled:
            h = _family_matrix(family, spec, rng) @ h
            provenance.append(family)
    return AffineTransform(h[:3, :], provenance=tuple(provenance))


@dataclass(frozen=True)
class MaskPlan:
    """Which indices are masked, with cluster bookkeeping.

    For point masking the clusters are k-NN drops around drawn centers; for
    patch masking each masked patch is its own size-1 cluster. ``masked``
    and ``visible`` partition ``range(total_count)``.
    """

    masked: np.ndarray
    visible: np.ndarray
    ratio: float
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

    @property
    def masked_count(self) -> int:
        return len(self.masked)

    @property
    def num_clusters(self) -> int:
        return len(self.cluster_sizes)


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


def _drop_clusters(points: np.ndarray, ratio: float, sizes: list[int],
                   rng: np.random.Generator) -> tuple[MaskPlan, np.ndarray]:
    pts = as_cloud(points)
    cols = np.ascontiguousarray(pts.T)
    surviving = np.arange(pts.shape[0], dtype=np.int64)
    dropped: list[np.ndarray] = []
    centers: list[int] = []
    for size in sizes:
        center = int(surviving[rng.integers(len(surviving))])
        centers.append(center)
        sq = _sqdist_to(cols[:, surviving], pts[center])
        order = np.argsort(sq, kind="stable")[:size]
        dropped.append(surviving[order])
        keep = np.ones(len(surviving), dtype=bool)
        keep[order] = False
        surviving = surviving[keep]
    masked = np.sort(np.concatenate(dropped))
    plan = MaskPlan(masked=masked, visible=np.sort(surviving), ratio=ratio,
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
    return _drop_clusters(pts, ratio, sizes, rng)


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
    return _drop_clusters(pts, ratio, sizes, rng)


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
                    ratio=ratio, cluster_sizes=(budget,), cluster_centers=(-1,))
    return plan, pts[plan.visible]


def mask_patches(num_patches: int, ratio: float, rng: np.random.Generator) -> MaskPlan:
    """Mask floor(ratio * n) patch indices uniformly without replacement."""
    if num_patches < 1:
        raise ValueError("patch count must be positive")
    budget = _mask_budget(num_patches, ratio)
    masked = np.sort(rng.choice(num_patches, size=budget, replace=False)).astype(np.int64)
    visible = np.setdiff1d(np.arange(num_patches, dtype=np.int64), masked)
    return MaskPlan(masked=masked, visible=visible, ratio=ratio,
                    cluster_sizes=(1,) * budget, cluster_centers=tuple(int(i) for i in masked))
