"""Point-cloud file I/O, resampling, dataset manifests, and the synthetic
shape generator used as desk-scale training data.

Interchange formats: ``xyz`` (ASCII, one "x y z" triple per line) and
``ply`` (ASCII or binary little-endian, float vertex x/y/z; extra scalar
properties are ignored on read and never written). Round trips are exact
at 32-bit float precision.
"""
from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import as_cloud, farthest_point_sample

_PLY_SCALAR_SIZES = {
    "char": 1, "int8": 1, "uchar": 1, "uint8": 1,
    "short": 2, "int16": 2, "ushort": 2, "uint16": 2,
    "int": 4, "int32": 4, "uint": 4, "uint32": 4,
    "float": 4, "float32": 4, "double": 8, "float64": 8,
}
_PLY_FLOAT_TYPES = {"float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8"}
# the header's last line, newline included; "end_header" inside a comment is not it
_PLY_HEADER_END = re.compile(rb"^end_header[ \t]*\r?\n", re.MULTILINE)


def _fmt(v: float) -> str:
    # 9 significant digits round-trip binary32 exactly
    return f"{v:.9g}"


def write_cloud(path: str | Path, points: np.ndarray, fmt: str | None = None) -> None:
    """Write a cloud as xyz or ply (inferred from the suffix when ``fmt``
    is None). Coordinates are stored at 32-bit precision."""
    path = Path(path)
    fmt = fmt or path.suffix.lstrip(".").lower()
    pts = as_cloud(points).astype(np.float32)
    if fmt == "xyz":
        lines = [f"{_fmt(x)} {_fmt(y)} {_fmt(z)}" for x, y, z in pts]
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "ply":
        header = [
            "ply",
            "format ascii 1.0",
            f"element vertex {len(pts)}",
            "property float x",
            "property float y",
            "property float z",
            "end_header",
        ]
        lines = [f"{_fmt(x)} {_fmt(y)} {_fmt(z)}" for x, y, z in pts]
        path.write_text("\n".join(header + lines) + "\n")
    else:
        raise ValueError(f"unsupported point-cloud format {fmt!r}")


def read_cloud(path: str | Path, fmt: str | None = None) -> np.ndarray:
    """Read an xyz or ply cloud as a (w, 3) float64 array (f32 values)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such point-cloud file: {path}")
    fmt = fmt or path.suffix.lstrip(".").lower()
    if fmt == "xyz":
        return _read_xyz(path)
    if fmt == "ply":
        return _read_ply(path)
    raise ValueError(f"unsupported point-cloud format {fmt!r}")


def _read_xyz(path: Path) -> np.ndarray:
    # loadtxt parses what the line loop accepts into the same values; the
    # loop still reads what loadtxt rejects, and raises the numbered errors
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file only warns
            xyz = np.loadtxt(path, usecols=(0, 1, 2), comments=None, ndmin=2)
    except ValueError:
        xyz = np.empty((0, 3))
    if not len(xyz):
        return _read_xyz_lines(path)
    return xyz.astype(np.float32).astype(np.float64)


def _read_xyz_lines(path: Path) -> np.ndarray:
    rows = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s:
                continue
            parts = s.split()
            if len(parts) < 3:
                raise ValueError(f"{path}:{lineno}: expected 3 coordinates, got {len(parts)}")
            try:
                rows.append([float(parts[0]), float(parts[1]), float(parts[2])])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed coordinate in {s!r}") from None
    if not rows:
        raise ValueError(f"{path}: zero points")
    return np.asarray(rows, dtype=np.float32).astype(np.float64)


def _read_ply(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    end = _PLY_HEADER_END.search(raw)
    if end is None:
        raise ValueError(f"{path}: missing end_header line")
    header_lines = raw[:end.start()].decode("ascii", errors="replace").splitlines()
    body = raw[end.end():]

    if not header_lines or header_lines[0].strip() != "ply":
        raise ValueError(f"{path}:1: not a ply file")
    fmt = None
    elements: list[tuple[str, int, list[tuple[str, str]]]] = []  # (name, count, [(type, prop)])
    for lineno, line in enumerate(header_lines[1:], start=2):
        parts = line.strip().split()
        if not parts or parts[0] == "comment":
            continue
        if len(parts) < {"format": 2, "element": 3, "property": 3}.get(parts[0], 1):
            raise ValueError(f"{path}:{lineno}: incomplete header line {line.strip()!r}")
        if parts[0] == "format":
            if parts[1] not in ("ascii", "binary_little_endian"):
                raise ValueError(f"{path}:{lineno}: unsupported ply format {parts[1]!r}")
            fmt = parts[1]
        elif parts[0] == "element":
            try:
                count = int(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: element count {parts[2]!r} is not an "
                                 "integer") from None
            if count < 0:
                raise ValueError(f"{path}:{lineno}: element count {count} is negative")
            elements.append((parts[1], count, []))
        elif parts[0] == "property":
            if not elements:
                raise ValueError(f"{path}:{lineno}: property before any element")
            if parts[1] == "list":
                raise ValueError(f"{path}:{lineno}: list properties are unsupported")
            if parts[1] not in _PLY_SCALAR_SIZES:
                raise ValueError(f"{path}:{lineno}: unsupported property type {parts[1]!r}")
            elements[-1][2].append((parts[1], parts[2]))
    if fmt is None:
        raise ValueError(f"{path}: missing format line")

    vertex = next((e for e in elements if e[0] == "vertex"), None)
    if vertex is None:
        raise ValueError(f"{path}: no vertex element")
    _, count, props = vertex
    if count < 1:
        raise ValueError(f"{path}: zero points")
    names = [p[1] for p in props]
    for axis in ("x", "y", "z"):
        if axis not in names:
            raise ValueError(f"{path}: vertex element lacks property {axis!r}")
        ptype = props[names.index(axis)][0]
        if ptype not in _PLY_FLOAT_TYPES:
            raise ValueError(f"{path}: vertex {axis} has non-float type {ptype!r}")

    if fmt == "ascii":
        lines = [ln for ln in body.decode("ascii", errors="replace").splitlines() if ln.strip()]
        offset = 0
        for name, n, eprops in elements:
            if name == "vertex":
                break
            offset += n
        vertex_lines = lines[offset:offset + count]
        if len(vertex_lines) < count:
            raise ValueError(f"{path}: truncated vertex data ({len(vertex_lines)} of {count})")
        cols = [names.index(a) for a in ("x", "y", "z")]
        rows = []
        for i, line in enumerate(vertex_lines):
            parts = line.split()
            if len(parts) < len(names):
                raise ValueError(f"{path}: vertex {i}: expected {len(names)} values")
            try:
                rows.append([float(parts[c]) for c in cols])
            except ValueError:
                raise ValueError(f"{path}: vertex {i}: malformed value") from None
        return np.asarray(rows, dtype=np.float32).astype(np.float64)

    # binary little-endian: skip any elements declared before vertex
    offset = 0
    for name, n, eprops in elements:
        if name == "vertex":
            break
        stride = sum(_PLY_SCALAR_SIZES[t] for t, _ in eprops)
        offset += n * stride

    def field_code(ptype: str) -> str:
        if ptype in _PLY_FLOAT_TYPES:
            return _PLY_FLOAT_TYPES[ptype]
        return "V" + str(_PLY_SCALAR_SIZES[ptype])  # opaque bytes, value unused

    try:
        dtype = np.dtype([(p, field_code(t)) for t, p in props])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed vertex properties ({exc})") from None
    needed = offset + count * dtype.itemsize
    if len(body) < needed:
        raise ValueError(f"{path}: truncated binary vertex data")
    table = np.frombuffer(body, dtype=dtype, count=count, offset=offset)
    pts = np.stack([table["x"], table["y"], table["z"]], axis=1)
    return pts.astype(np.float32).astype(np.float64)


def resample(points: np.ndarray, target: int, rng: np.random.Generator) -> np.ndarray:
    """Standardize the point count: FPS when shrinking, jittered duplication
    when growing, identity when equal."""
    pts = as_cloud(points)
    w = pts.shape[0]
    if target < 1:
        raise ValueError(f"target count must be positive, got {target}")
    if w == target:
        return pts.copy()
    if w > target:
        return pts[farthest_point_sample(pts, target, rng)]
    deficit = target - w
    picks = rng.integers(0, w, size=deficit)
    jitter = rng.uniform(-1.0, 1.0, size=(deficit, 3)) * (1e-6 / np.sqrt(3.0))
    return np.vstack([pts, pts[picks] + jitter])


def normalize_unit_sphere(points: np.ndarray) -> np.ndarray:
    """Center at the centroid and scale so the farthest point has norm 1."""
    pts = as_cloud(points)
    centered = pts - pts.mean(axis=0)
    radius = float(np.linalg.norm(centered, axis=1).max())
    if radius == 0.0:
        raise ValueError("degenerate cloud: all points identical")
    return centered / radius


# ---------------------------------------------------------------------------
# synthetic shapes


def _sample_sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _sample_cube(n: int, rng: np.random.Generator) -> np.ndarray:
    # six equal-area faces of the cube [-1, 1]^3
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    for i in range(n):
        others = [a for a in range(3) if a != axis[i]]
        pts[i, axis[i]] = sign[i]
        pts[i, others[0]] = uv[i, 0]
        pts[i, others[1]] = uv[i, 1]
    return pts


def _sample_cylinder(n: int, rng: np.random.Generator) -> np.ndarray:
    # radius 1, height 2; side and caps sampled area-proportionally
    side_area = 2.0 * np.pi * 2.0
    cap_area = np.pi
    probs = np.array([side_area, cap_area, cap_area])
    probs /= probs.sum()
    kind = rng.choice(3, size=n, p=probs)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = np.empty((n, 3))
    for i in range(n):
        if kind[i] == 0:
            pts[i] = [np.cos(theta[i]), np.sin(theta[i]), rng.uniform(-1.0, 1.0)]
        else:
            r = np.sqrt(rng.random())
            z = 1.0 if kind[i] == 1 else -1.0
            pts[i] = [r * np.cos(theta[i]), r * np.sin(theta[i]), z]
    return pts


def _sample_torus(n: int, rng: np.random.Generator, major: float = 1.0,
                  minor: float = 0.4) -> np.ndarray:
    # area element depends on the minor angle: rejection-sample it
    pts = np.empty((n, 3))
    filled = 0
    while filled < n:
        cand = rng.uniform(0.0, 2.0 * np.pi, size=2 * (n - filled))
        accept = rng.random(len(cand)) < (major + minor * np.cos(cand)) / (major + minor)
        for phi in cand[accept]:
            if filled >= n:
                break
            theta = rng.uniform(0.0, 2.0 * np.pi)
            ring = major + minor * np.cos(phi)
            pts[filled] = [ring * np.cos(theta), ring * np.sin(theta), minor * np.sin(phi)]
            filled += 1
    return pts


_FAMILY_SAMPLERS = {
    "sphere": _sample_sphere,
    "cube": _sample_cube,
    "cylinder": _sample_cylinder,
    "torus": _sample_torus,
}


@dataclass(frozen=True)
class SynthSpec:
    families: tuple[str, ...] = ("sphere", "cube", "cylinder", "torus")
    samples_per_family: int = 20
    points_per_cloud: int = 256
    jitter_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        unknown = set(self.families) - set(_FAMILY_SAMPLERS)
        if unknown:
            raise ValueError(f"unknown shape families: {sorted(unknown)}")
        if self.samples_per_family < 1 or self.points_per_cloud < 1:
            raise ValueError("counts must be positive")
        if not (np.isfinite(self.jitter_sigma) and self.jitter_sigma >= 0):
            raise ValueError(f"jitter sigma must be finite and non-negative, "
                             f"got {self.jitter_sigma}")
        check_seed(self.seed)


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    split: str


class DatasetManifest:
    """Plain-text dataset index: one "path<TAB>label<TAB>split" line per sample.

    Loading validates every referenced path up front (fail fast) and that
    splits come from {train, val, test}.
    """

    SPLITS = ("train", "val", "test")

    def __init__(self, root: Path, entries: list[ManifestEntry]):
        self.root = Path(root)
        self.entries = list(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def split(self, tag: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == tag]

    def resolve(self, entry: ManifestEntry) -> Path:
        return self.root / entry.path

    @classmethod
    def load(cls, path: str | Path) -> "DatasetManifest":
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no such manifest: {path}")
        root = path.parent
        entries = []
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'path<TAB>label<TAB>split'")
            rel, label, split = parts
            if split not in cls.SPLITS:
                raise ValueError(f"{path}:{lineno}: unknown split {split!r}")
            if not (root / rel).exists():
                raise FileNotFoundError(f"{path}:{lineno}: missing sample file {root / rel}")
            entries.append(ManifestEntry(path=rel, label=label, split=split))
        if not entries:
            raise ValueError(f"{path}: empty manifest")
        return cls(root=root, entries=entries)

    def save(self, path: str | Path) -> None:
        lines = [f"{e.path}\t{e.label}\t{e.split}" for e in self.entries]
        Path(path).write_text("\n".join(lines) + "\n")


def synth_generate(spec: SynthSpec, out_dir: str | Path) -> DatasetManifest:
    """Generate the synthetic dataset and its manifest under ``out_dir``.

    Each sample is analytically surface-sampled, jittered, normalized to
    the unit sphere, and written as xyz; per family the first 80% of
    samples are tagged train, the rest test. Same seed, same bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for fam_idx, family in enumerate(spec.families):
        sampler = _FAMILY_SAMPLERS[family]
        train_count = int(0.8 * spec.samples_per_family)
        for s in range(spec.samples_per_family):
            rng = stream(spec.seed, "synth", fam_idx, s)
            pts = sampler(spec.points_per_cloud, rng)
            if spec.jitter_sigma > 0:
                pts = pts + rng.normal(0.0, spec.jitter_sigma, size=pts.shape)
            pts = normalize_unit_sphere(pts)
            rel = f"{family}_{s:03d}.xyz"
            write_cloud(out / rel, pts)
            split = "train" if s < train_count else "test"
            entries.append(ManifestEntry(path=rel, label=family, split=split))
    manifest = DatasetManifest(root=out, entries=entries)
    manifest.save(out / "manifest.tsv")
    return manifest


# Every random stream, purpose -> (tag, ids), of entropy [seed, tag, *ids]. Tags
# are unique, id counts fixed, and only "init" has tag 0 and no ids, so no two
# (seed, purpose, ids) share a stream though SeedSequence ignores trailing zeros.
STREAMS = {"init": (0, ()), "shuffle": (1, ("epoch",)), "sample": (2, ("epoch", "index")),
           "reconstruct": (3, ()), "load": (4, ("index",)), "synth": (5, ("family", "sample")),
           "fewshot": (6, ("rep",)), "sweep": (7, ()), "probe": (8, ()), "corrupt": (9, ())}


def check_seed(seed: int) -> None:
    if not 0 <= seed < 2**32:
        raise ValueError(f"seed must be in [0, 2**32), got {seed!r}")


def stream(seed: int, purpose: str, *ids: int) -> np.random.Generator:
    """``purpose``'s generator for ``seed`` and ``ids``; a word >= 2**32 would alias."""
    tag, names = STREAMS[purpose]
    if len(ids) != len(names) or not all(0 <= v < 2**32 for v in (seed, *ids)):
        raise ValueError(f"stream {purpose!r} takes {', '.join(('seed', *names))} "
                         f"in [0, 2**32), got {(seed, *ids)}")
    return np.random.default_rng(np.random.SeedSequence([seed, tag, *ids]))


def load_split(manifest: DatasetManifest, split: str, num_points: int,
               seed: int = 0) -> list[np.ndarray]:
    """Read one split's clouds in manifest order, each resampled to
    ``num_points`` and normalized to the unit sphere."""
    clouds = []
    for i, entry in enumerate(manifest.split(split)):
        pts = read_cloud(manifest.resolve(entry))
        clouds.append(normalize_unit_sphere(resample(pts, num_points, stream(seed, "load", i))))
    return clouds
