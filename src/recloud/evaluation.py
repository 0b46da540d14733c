"""Frozen-encoder evaluation: feature extraction, linear SVM probing,
few-shot episodes, and reconstruction export.

The probe classifier is a one-vs-rest hinge-loss linear SVM trained by
deterministic full-batch subgradient descent from zero initialization.
That choice makes the trained decision rule exactly equivariant under any
global orthogonal rotation of the features (up to float round-off), and
runs are reproducible with no solver-dependent noise.
"""
from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from .data import (DatasetManifest, normalize_unit_sphere, read_cloud, resample,
                   write_cloud)
from .geometry import PatchSet, denormalize_patches, normalize_patches, patchify
from .models import CloudAutoencoder
from .trainer import MICRO_BATCH, Checkpoint, TrainConfig, build_model, prepare_sample, restore


@dataclass
class FeatureTable:
    """Rows of (sample id, label, fixed-dim feature vector)."""

    ids: list[str]
    labels: list[str]
    features: np.ndarray
    fingerprint: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if not (len(self.ids) == len(self.labels) == self.features.shape[0]):
            raise ValueError("ids, labels, and feature rows must align")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("sample ids must be unique")

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def select(self, row_indices) -> "FeatureTable":
        idx = list(row_indices)
        return FeatureTable(ids=[self.ids[i] for i in idx],
                            labels=[self.labels[i] for i in idx],
                            features=self.features[idx], fingerprint=self.fingerprint)

    def to_csv(self, path: str | Path) -> None:
        header = "id,label," + ",".join(f"f_{i}" for i in range(self.dim))
        lines = [header]
        for sid, label, row in zip(self.ids, self.labels, self.features):
            lines.append(f"{sid},{label}," + ",".join(repr(float(v)) for v in row))
        Path(path).write_text("\n".join(lines) + "\n")


def _probe_rng(sample_id: str) -> np.random.Generator:
    # FPS start depends only on the sample id, so features are stable
    # across manifest orderings and repeated calls
    return np.random.default_rng(zlib.crc32(sample_id.encode()))


def _encoder_features(model, cfg: TrainConfig, clouds: list[np.ndarray],
                      sample_ids: list[str]) -> np.ndarray:
    """One feature row per cloud, the clouds encoded as one batch."""
    if isinstance(model, CloudAutoencoder):
        return model.encoder(np.stack(clouds)).data.astype(np.float64)
    patches = PatchSet.stack([
        normalize_patches(patchify(points, cfg.num_patches, cfg.patch_size, _probe_rng(sid)))
        for points, sid in zip(clouds, sample_ids)])
    encoded = model.encode_all(patches)
    pooled = np.concatenate([ag.max_pool_over_axis(encoded, axis=1).data,
                             ag.mean_pool_over_axis(encoded, axis=1).data], axis=1)
    return pooled.astype(np.float64)


def extract_features(checkpoint: Checkpoint, manifest: DatasetManifest | str | Path,
                     split: str = "train", random_init: bool = False) -> FeatureTable:
    """Frozen-encoder features for one manifest split.

    No masking, no affine corruption. The patch-token encoder contributes
    concat(max-pool, mean-pool) over all encoded tokens (dim 2d); the
    global encoder contributes its feature vector (dim d).
    ``random_init`` keeps the checkpoint's architecture but freshly
    initialized weights (the untrained baseline).
    """
    cfg = checkpoint.config
    model = build_model(cfg)
    if not random_init:
        restore(model, checkpoint)
    model.freeze()
    if isinstance(manifest, (str, Path)):
        manifest = DatasetManifest.load(manifest)

    entries = manifest.split(split)
    if not entries:
        raise ValueError(f"manifest split {split!r} is empty")
    ids = [entry.path for entry in entries]
    rows = []
    for lo in range(0, len(entries), MICRO_BATCH):
        chunk = entries[lo:lo + MICRO_BATCH]
        clouds = [normalize_unit_sphere(resample(read_cloud(manifest.resolve(entry)),
                                                 cfg.num_points, _probe_rng(entry.path)))
                  for entry in chunk]
        rows.append(_encoder_features(model, cfg, clouds, [entry.path for entry in chunk]))
    return FeatureTable(ids=ids, labels=[entry.label for entry in entries],
                        features=np.concatenate(rows), fingerprint=checkpoint.fingerprint)


# ---------------------------------------------------------------------------
# linear SVM probe


def _svm_train(x: np.ndarray, y: np.ndarray, lam: float, iters: int) -> tuple[np.ndarray, float]:
    """Full-batch Pegasos-style subgradient descent on hinge + L2.

    Deterministic, zero-initialized, projected onto the ||w|| <= 1/sqrt(lam)
    ball each step. The bias is unregularized.
    """
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    radius = 1.0 / np.sqrt(lam)
    for t in range(1, iters + 1):
        margins = y * (x @ w + b)
        active = margins < 1.0
        grad_w = lam * w - (y[active, None] * x[active]).sum(axis=0) / n
        grad_b = -float(y[active].sum()) / n
        eta = 1.0 / (lam * t)
        w = w - eta * grad_w
        b = b - eta * grad_b
        norm = float(np.linalg.norm(w))
        if norm > radius:
            w = w * (radius / norm)
    return w, b


def linear_probe(train: FeatureTable, test: FeatureTable, regularization: float = 1.0,
                 iters: int = 500) -> float:
    """One-vs-rest linear SVM accuracy on the test table, in [0, 1]."""
    if regularization <= 0:
        raise ValueError("regularization C must be positive")
    if train.dim != test.dim:
        raise ValueError(f"feature dims differ: train {train.dim}, test {test.dim}")
    classes = sorted(set(train.labels))
    if len(classes) < 2:
        raise ValueError("training set must contain at least two classes")
    unknown = set(test.labels) - set(classes)
    if unknown:
        raise ValueError(f"test labels not seen in training: {sorted(unknown)}")

    # global scalar normalization only: rotation-invariant conditioning
    scale = float(np.mean(np.linalg.norm(train.features, axis=1)))
    scale = scale if scale > 0 else 1.0
    xtr = train.features / scale
    xte = test.features / scale

    n = xtr.shape[0]
    lam = 1.0 / (regularization * n)
    scores = np.empty((xte.shape[0], len(classes)))
    for ci, cls in enumerate(classes):
        y = np.where(np.asarray(train.labels) == cls, 1.0, -1.0)
        w, b = _svm_train(xtr, y, lam, iters)
        scores[:, ci] = xte @ w + b
    predicted = np.argmax(scores, axis=1)  # ties: lowest class index
    truth = np.asarray([classes.index(l) for l in test.labels])
    return float(np.mean(predicted == truth))


def probe_with_sweep(train: FeatureTable, test: FeatureTable,
                     candidates: tuple[float, ...] = (0.1, 1.0, 10.0),
                     val_fraction: float = 0.2, seed: int = 0) -> tuple[float, float]:
    """Pick C on a held-out validation slice of the train rows, then retrain
    on all train rows; returns (test accuracy, chosen C)."""
    n = len(train.ids)
    order = np.random.default_rng(seed).permutation(n)
    n_val = max(int(val_fraction * n), 1)
    val_idx, fit_idx = order[:n_val], order[n_val:]
    fit, val = train.select(fit_idx), train.select(val_idx)
    best_c, best_acc = candidates[0], -1.0
    if len(set(fit.labels)) < 2 or len(fit_idx) == 0:
        best_c = 1.0
    else:
        for c in candidates:
            acc = linear_probe(fit, val, regularization=c)
            if acc > best_acc:
                best_acc, best_c = acc, c
    return linear_probe(train, test, regularization=best_c), best_c


# ---------------------------------------------------------------------------
# few-shot episodes


@dataclass(frozen=True)
class EpisodeSpec:
    """An i-way, j-shot episode family."""

    ways: int = 4
    shots: int = 10
    queries: int = 15
    repetitions: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.ways < 2:
            raise ValueError("episodes need at least 2 ways")
        if self.shots < 1 or self.queries < 1 or self.repetitions < 1:
            raise ValueError("shots, queries, and repetitions must be positive")


def fewshot_eval(features: FeatureTable, spec: EpisodeSpec,
                 regularization: float = 1.0) -> tuple[float, float, list[float]]:
    """Mean and std of linear-probe accuracy over independent episodes."""
    by_class: dict[str, list[int]] = {}
    for i, label in enumerate(features.labels):
        by_class.setdefault(label, []).append(i)
    classes = sorted(by_class)
    if len(classes) < spec.ways:
        raise ValueError(f"need {spec.ways} classes, table has {len(classes)}")
    needed = spec.shots + spec.queries
    short = {c: len(v) for c, v in by_class.items() if len(v) < needed}
    if short:
        raise ValueError(f"classes with fewer than shots+queries={needed} samples: {short}")

    accuracies = []
    for rep in range(spec.repetitions):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, rep]))
        chosen = rng.choice(len(classes), size=spec.ways, replace=False)
        support_rows, query_rows = [], []
        for ci in sorted(chosen):
            rows = by_class[classes[ci]]
            order = rng.permutation(len(rows))
            support_rows += [rows[k] for k in order[:spec.shots]]
            query_rows += [rows[k] for k in order[spec.shots:needed]]
        acc = linear_probe(features.select(support_rows), features.select(query_rows),
                           regularization=regularization)
        accuracies.append(acc)
    return float(np.mean(accuracies)), float(np.std(accuracies)), accuracies


# ---------------------------------------------------------------------------
# reconstruction export


def reconstruct_export(checkpoint: Checkpoint, points: np.ndarray, out_dir: str | Path,
                       seed: int = 0) -> dict[str, Path]:
    """Corrupt one cloud, reconstruct it, and write the stages as xyz files.

    Writes clean and corrupted inputs always; the reconstruction is one
    cloud for the global encoder, or visible patches, predicted masked
    patches, and predicted centers for the patch-token encoder.
    """
    cfg = checkpoint.config
    model = build_model(cfg)
    restore(model, checkpoint)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    pts = normalize_unit_sphere(resample(np.asarray(points, dtype=np.float64),
                                         cfg.num_points,
                                         np.random.default_rng(seed)))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    sample = prepare_sample(pts, cfg, cfg.affine_spec(), rng)

    files: dict[str, Path] = {}

    def emit(name: str, cloud: np.ndarray) -> None:
        path = out / f"{name}.xyz"
        write_cloud(path, cloud)
        files[name] = path

    emit("clean", pts)
    if isinstance(model, CloudAutoencoder):
        emit("corrupted", sample.visible)
        emit("reconstruction", model.reconstruct(sample.visible[None]).data[0])
        return files

    emit("corrupted", denormalize_patches(sample.visible_patches).patches.reshape(-1, 3))
    # a batch of one
    encoded = model.encode_visible(PatchSet.stack([sample.visible_patches]))
    plan = sample.plan
    pred = model.predict_patches(encoded, sample.target_centers[None],
                                 None if plan is None else [plan]).data[0]
    rows = np.arange(cfg.num_patches) if plan is None else plan.masked
    emit("recon_masked", (pred + sample.target_centers[rows][:, None, :]).reshape(-1, 3))
    if plan is not None:
        emit("recon_visible", (sample.target_patches[plan.visible]
                               + sample.target_centers[plan.visible][:, None, :]).reshape(-1, 3))
    emit("recon_centers", model.predict_centers(encoded).data[0])
    return files


def fewshot_report(mean: float, std: float, accuracies: list[float]) -> str:
    """Plain-text report: headline numbers plus per-episode accuracies."""
    return json.dumps({"mean_accuracy": mean, "std_accuracy": std,
                       "episodes": accuracies}, indent=2) + "\n"
