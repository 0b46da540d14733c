"""Frozen-encoder evaluation: feature extraction, linear SVM probing,
few-shot episodes, and reconstruction export.

The probe classifier is a one-vs-rest hinge-loss linear SVM trained by
deterministic full-batch subgradient descent from zero initialization, all
classes and C values in one solver loop. This solver makes the decision rule
exactly equivariant under any global orthogonal rotation of the features
(up to float round-off), and runs reproducible with no solver noise.
"""
from __future__ import annotations

import csv
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from .data import (DatasetManifest, check_seed, normalize_unit_sphere, read_cloud, resample,
                   stream, write_cloud)
from .geometry import denormalize_patches, normalize_patches, patchify
from .models import CloudAutoencoder
from .trainer import MICRO_BATCH, Checkpoint, TrainConfig, build_model, prepare_sample, restore


@dataclass
class FeatureTable:
    """Rows of (sample id, label, fixed-dim feature vector)."""

    ids: list[str]
    labels: list[str]
    features: np.ndarray

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
                            features=self.features[idx])

    def to_csv(self, path: str | Path) -> None:
        """One header row, then one row per sample; an id or label holding a
        comma, quote or newline is quoted, as ``csv`` reads it."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "label"] + [f"f_{i}" for i in range(self.dim)])
            for sid, label, row in zip(self.ids, self.labels, self.features):
                writer.writerow([sid, label] + [repr(float(v)) for v in row])


def _encoder_features(model, cfg: TrainConfig, clouds: list[np.ndarray],
                      rngs: list[np.random.Generator]) -> np.ndarray:
    """One feature row per cloud, the clouds grouped and encoded as one batch."""
    if isinstance(model, CloudAutoencoder):
        return model.encoder(np.stack(clouds)).data.astype(np.float64)
    patches = normalize_patches(patchify(np.stack(clouds), cfg.num_patches, cfg.patch_size, rngs))
    encoded = model.encode_all(patches)
    pooled = np.concatenate([ag.max_pool_over_axis(encoded, axis=1).data,
                             encoded.data.mean(axis=1)], axis=1)
    return pooled.astype(np.float64)


def extract_features(checkpoint: Checkpoint, manifest: DatasetManifest | str | Path,
                     split: str = "train", random_init: bool = False) -> FeatureTable:
    """Frozen-encoder features for one manifest split.

    No masking, no affine corruption. The patch-token encoder contributes
    concat(max-pool, mean-pool) over all encoded tokens (dim 2d); the
    global encoder contributes its feature vector (dim d).
    ``random_init`` keeps the checkpoint's architecture but freshly
    initialized weights (the untrained baseline), drawn from the config's
    init stream as a fresh ``build_model`` draws them; otherwise the model is
    built without drawing and filled with the checkpoint's weights.
    """
    cfg = checkpoint.config
    model = build_model(cfg, draw=random_init)
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
        # one stream per cloud, drawn by resample and then by patchify's FPS
        # start, seeded by the sample id alone so features are stable across
        # orderings and runs
        rngs = [stream(zlib.crc32(entry.path.encode()), "probe") for entry in chunk]
        clouds = [normalize_unit_sphere(resample(read_cloud(manifest.resolve(entry)),
                                                 cfg.num_points, rng))
                  for entry, rng in zip(chunk, rngs)]
        rows.append(_encoder_features(model, cfg, clouds, rngs))
    return FeatureTable(ids=ids, labels=[entry.label for entry in entries],
                        features=np.concatenate(rows))


# ---------------------------------------------------------------------------
# linear SVM probe

def _svm_train(x: np.ndarray, y: np.ndarray, lam: np.ndarray,
               iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch Pegasos-style subgradient descent on hinge + L2 for the K
    columns of ``y`` (n, K) of +-1, column k with ``lam[k]``; returns W (K, d)
    and b (K,). Zero-initialized, each row of W projected onto its
    ||w|| <= 1/sqrt(lam) ball each step, the bias unregularized. The hinge
    gradient of all columns is one (K, n) @ (n, d) product, so memory stays
    O(K (n + d)); its summation order is BLAS's, within round-off of a
    column's own row-order solve."""
    n, d = x.shape
    w = np.zeros((y.shape[1], d))
    b = np.zeros(y.shape[1])
    radius = 1.0 / np.sqrt(lam)
    for t in range(1, iters + 1):
        coef = np.where(y * (x @ w.T + b) < 1.0, y, 0.0)
        eta = 1.0 / (lam * t)
        w = w - eta[:, None] * (lam[:, None] * w - coef.T @ x / n)
        b = b - eta * (-coef.sum(axis=0) / n)
        norm = np.sqrt([row.dot(row) for row in w])
        over = norm > radius
        w[over] *= (radius[over] / norm[over])[:, None]
    return w, b


def check_regularizations(values) -> None:
    for c in values:
        if not (np.isfinite(c) and c > 0):
            raise ValueError(f"regularization C must be positive and finite, got {c!r}")


def _probe_accuracies(train: FeatureTable, test: FeatureTable, regularizations,
                      iters: int) -> list[float]:
    """One-vs-rest linear SVM accuracy on the test table for each C."""
    check_regularizations(regularizations)
    if train.dim != test.dim:
        raise ValueError(f"feature dims differ: train {train.dim}, test {test.dim}")
    classes = sorted(set(train.labels))
    if len(classes) < 2:
        raise ValueError("training set must contain at least two classes")
    unknown = set(test.labels) - set(classes)
    if unknown:
        raise ValueError(f"test labels not seen in training: {sorted(unknown)}")

    # center on the train mean, then one global scale: rotation-invariant
    # conditioning. Without the centering, a common offset far above the
    # classes' spread scales every row to nearly one vector, which the
    # solver's bounded weights cannot separate.
    mean = train.features.mean(axis=0)
    xtr = train.features - mean
    xte = test.features - mean
    scale = float(np.mean(np.linalg.norm(xtr, axis=1)))
    scale = scale if scale > 0 else 1.0
    xtr /= scale
    xte /= scale

    n, k = xtr.shape[0], len(classes)
    y = np.where(np.asarray(train.labels)[:, None] == np.asarray(classes), 1.0, -1.0)
    lam = np.repeat(1.0 / (np.asarray(regularizations, dtype=np.float64) * n), k)
    w, b = _svm_train(xtr, np.tile(y, len(regularizations)), lam, iters)
    scores = (xte @ w.T + b).reshape(xte.shape[0], len(regularizations), k)
    predicted = np.argmax(scores, axis=2)  # ties: lowest class index
    truth = np.asarray([classes.index(l) for l in test.labels])
    return [float(np.mean(p == truth)) for p in predicted.T]


def linear_probe(train: FeatureTable, test: FeatureTable, regularization: float = 1.0,
                 iters: int = 500) -> float:
    """One-vs-rest linear SVM accuracy on the test table, in [0, 1]."""
    return _probe_accuracies(train, test, (regularization,), iters)[0]


def probe_with_sweep(train: FeatureTable, test: FeatureTable,
                     candidates: tuple[float, ...] = (0.1, 1.0, 10.0),
                     val_fraction: float = 0.2, seed: int = 0) -> tuple[float, float]:
    """Pick C on a held-out validation slice of the train rows, then retrain
    on all train rows; returns (test accuracy, chosen C). All candidates are
    fitted in one solver loop; the first with the best accuracy wins. Only
    validation rows of fit classes are scored (any other is wrong under
    every C); with none, or with one fit class, C is 1."""
    check_regularizations(candidates)
    order = stream(seed, "sweep").permutation(len(train.ids))
    n_val = max(int(val_fraction * len(order)), 1)
    fit = train.select(order[n_val:])
    fit_classes = set(fit.labels)
    val_rows = [i for i in order[:n_val] if train.labels[i] in fit_classes]
    best_c = 1.0
    if len(fit_classes) >= 2 and val_rows:
        accuracies = _probe_accuracies(fit, train.select(val_rows), candidates, 500)
        best_c = candidates[int(np.argmax(accuracies))]
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
        check_seed(self.seed)


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
        rng = stream(spec.seed, "fewshot", rep)
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

    Writes clean and corrupted inputs always, then what the trained heads
    give: one ``reconstruction`` cloud for the global encoder and the
    ``whole`` objective; ``recon_masked`` and ``recon_visible`` patches under
    ``decomposed`` and ``local-only``; ``recon_centers`` under ``decomposed``
    and ``global-only``.
    """
    cfg = checkpoint.config
    model = build_model(cfg, draw=False)
    restore(model, checkpoint)

    rng = stream(seed, "reconstruct")
    pts = normalize_unit_sphere(resample(np.asarray(points, dtype=np.float64),
                                         cfg.num_points, rng))
    sample = prepare_sample(pts[None], cfg, [rng])  # a batch of one
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    files: dict[str, Path] = {}

    def emit(name: str, cloud: np.ndarray) -> None:
        path = out / f"{name}.xyz"
        write_cloud(path, cloud)
        files[name] = path

    emit("clean", pts)
    if isinstance(model, CloudAutoencoder):
        emit("corrupted", sample.visible[0])
        emit("reconstruction", model.reconstruct(sample.visible).data[0])
        return files

    emit("corrupted", denormalize_patches(sample.visible).patches[0].reshape(-1, 3))
    encoded = model.encode_visible(sample.visible)
    if cfg.objective == "whole":
        emit("reconstruction", model.predict_whole(encoded).data[0])
    if cfg.objective in ("decomposed", "local-only"):
        pred = model.predict_patches(encoded, sample.centers, sample.plans).data[0]
        plan, centers, patches = (sample.plans and sample.plans[0], sample.centers[0],
                                  sample.patches[0])
        rows = np.arange(cfg.num_patches) if plan is None else plan.masked
        emit("recon_masked", (pred + centers[rows][:, None, :]).reshape(-1, 3))
        if plan is not None:
            emit("recon_visible",
                 (patches[plan.visible] + centers[plan.visible][:, None, :]).reshape(-1, 3))
    if cfg.objective in ("decomposed", "global-only"):
        emit("recon_centers", model.predict_centers(encoded).data[0])
    return files


def fewshot_report(mean: float, std: float, accuracies: list[float]) -> str:
    """Plain-text report: headline numbers plus per-episode accuracies."""
    return json.dumps({"mean_accuracy": mean, "std_accuracy": std,
                       "episodes": accuracies}, indent=2) + "\n"
