"""The pretraining loop: corrupt, reconstruct, backpropagate, AdamW-step.

Per sample and epoch the pipeline draws a fresh affine transform and mask,
runs the encoder clan's forward pass, and compares the reconstruction
against the clean cloud (or against the transformed cloud when the affine
role is plain augmentation). All randomness is derived statelessly from
(seed, epoch, sample index), which makes checkpoint resume exact.

Each batch runs as micro-batches of ``MICRO_BATCH`` samples, one forward
and one backward each; every result equals a per-sample loop bit for bit
(see ``models``).
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tensor, backward
from .corruption import (AffineFamilySpec, MaskPlan, mask_fixed_clusters,
                         mask_patches, mask_random_clusters, mask_view_occlusion,
                         sample_affine)
from .data import DatasetManifest, load_split
from .geometry import AffineTransform, PatchSet, affine_apply, normalize_patches, patchify
from .layers import Parameter
from .losses import LossReport, chamfer, loss_all, loss_global, loss_local, loss_reports
from .models import HEAD_KINDS, CloudAutoencoder, PatchAutoencoder

POINT_MASKS = ("random", "fixed", "view", "none")
PATCH_MASKS = ("patch", "none")
OBJECTIVES = ("decomposed", "whole", "local-only", "global-only")


# Samples per forward/backward pass (and per batch of feature extraction).
# Of 1, 2, 4 and 8 on the benchmark's patch-dae workload (2-CPU AVX-512
# Xeon), 4 and 8 ran fastest, about 1.3x the per-sample rate, and 8 raised
# peak memory by 33-41 MB over 4.
MICRO_BATCH = 4

# TrainConfig fields holding an "lo:hi" range
_RANGE_FIELDS = ("affine_rotate", "affine_translate", "affine_scale", "affine_shear")
# Lower bounds of TrainConfig fields (learning_rate 0 is a frozen-run sanity
# mode, and the seed has none); every other integer field is a size or count
_AT_LEAST = {"warmup_epochs": 0, "decoder_depth": 0, "learning_rate": 0.0, "lr_min": 0.0,
             "global_weight": 0.0, "seed": None}
# TrainConfig fields with a fixed set of values; the CLI offers the same
CHOICES = {"precision": ("single", "double"), "encoder": ("pointnet", "transformer"),
           "affine_role": ("corruption", "augmentation"), "objective": OBJECTIVES,
           "decoder": HEAD_KINDS, "local_decoder": HEAD_KINDS, "global_decoder": HEAD_KINDS}


def _parse_range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    return (float(lo), float(hi))


@dataclass(frozen=True)
class TrainConfig:
    """Flat, text-serializable pretraining configuration."""

    epochs: int = 300
    learning_rate: float = 0.001
    lr_min: float = 0.0
    warmup_epochs: int = 0
    batch_size: int = 8
    num_points: int = 1024
    seed: int = 0
    precision: str = "single"
    encoder: str = "pointnet"
    affine_role: str = "corruption"
    objective: str = "decomposed"
    global_weight: float = 1.0
    mask_strategy: str = "auto"
    mask_ratio: float = 0.6
    cluster_size: int = 16
    max_clusters: int = 8
    decoder: str = "fc"
    local_decoder: str = "fold"
    global_decoder: str = "fc"
    feature_dim: int = 64
    encoder_depth: int = 4
    decoder_depth: int = 2
    num_heads: int = 4
    ffn_mult: int = 4
    num_patches: int = 16
    patch_size: int = 16
    pe_hidden: int = 128
    token_hidden: int = 128
    fc_hidden: int = 256
    fold_hidden: int = 64
    pointnet_hidden: str = "64,128"
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    affine_families: str = "scale,shear,reflect,rotate,translate"
    affine_rotate: str = "-3.141592653589793:3.141592653589793"
    affine_translate: str = "-0.2:0.2"
    affine_scale: str = "0.6666666666666666:1.5"
    affine_shear: str = "-0.25:0.25"
    affine_reflect: float = 0.5

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            numbers = (_parse_range(value) if f.name in _RANGE_FIELDS
                       else (value,) if f.type in (float, "float") else ())
            if not all(math.isfinite(v) for v in numbers):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            least = _AT_LEAST.get(f.name, 1 if f.type in (int, "int") else None)
            if least is not None and value < least:
                raise ValueError(f"{f.name} must be at least {least}, got {value!r}")
        try:
            narrowest = min(self.pointnet_widths)
        except ValueError:
            narrowest = 0
        if narrowest < 1:
            raise ValueError(f"pointnet_hidden must list positive widths, "
                             f"got {self.pointnet_hidden!r}")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}, "
                                 f"got {getattr(self, name)!r}")
        allowed = ("auto",) + (POINT_MASKS if self.encoder == "pointnet" else PATCH_MASKS)
        if self.mask_strategy not in allowed:
            raise ValueError(
                f"mask strategy {self.mask_strategy!r} is invalid for the "
                f"{self.encoder} encoder (allowed: {', '.join(allowed)})")

    def resolved(self) -> "TrainConfig":
        """Resolve 'auto' fields to concrete values."""
        if self.mask_strategy != "auto":
            return self
        strategy = "random" if self.encoder == "pointnet" else "patch"
        return replace(self, mask_strategy=strategy)

    @property
    def pointnet_widths(self) -> tuple[int, ...]:
        """The PointNet encoder's layer widths, from 3 to ``feature_dim``."""
        hidden = tuple(int(x) for x in self.pointnet_hidden.split(",") if x.strip())
        return (3,) + hidden + (self.feature_dim,)

    @property
    def dtype(self):
        return np.float32 if self.precision == "single" else np.float64

    def affine_spec(self) -> AffineFamilySpec:
        families = self.affine_families.strip()
        enabled = frozenset() if families in ("", "none") else frozenset(families.split(","))
        return AffineFamilySpec(
            rotate=(_parse_range(self.affine_rotate),) * 3,
            translate=(_parse_range(self.affine_translate),) * 3,
            reflect=(self.affine_reflect,) * 3,
            shear=_parse_range(self.affine_shear),
            scale=(_parse_range(self.affine_scale),) * 3,
            enabled=enabled,
        )

    def to_text(self) -> str:
        cfg = self.resolved()
        lines = []
        for f in sorted(dataclasses.fields(cfg), key=lambda f: f.name):
            lines.append(f"{f.name} = {getattr(cfg, f.name)!r}" if isinstance(getattr(cfg, f.name), str)
                         else f"{f.name} = {getattr(cfg, f.name)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "TrainConfig":
        kwargs = parse_config_text(text, source)
        return cls(**kwargs)

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse 'key = value' lines into TrainConfig keyword arguments."""
    kwargs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        key, sep, value = s.partition("=")
        if not sep:
            raise ValueError(f"{source}:{lineno}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{source}:{lineno}: unknown config key {key!r}")
        ftype = _FIELD_TYPES[key]
        if value and value[0] in "'\"" and value[-1] == value[0]:
            value = value[1:-1]
        try:
            if ftype in (int, "int"):
                kwargs[key] = int(value)
            elif ftype in (float, "float"):
                kwargs[key] = float(value)
            else:
                kwargs[key] = value
        except ValueError:
            raise ValueError(f"{source}:{lineno}: bad value for {key!r}: {value!r}") from None
    return kwargs


def cosine_lr(t: int, total: int, lr_max: float, lr_min: float = 0.0) -> float:
    """Cosine decay from lr_max at t=0 to lr_min at t=total; clamps past total."""
    if t < 0:
        raise ValueError(f"epoch index must be non-negative, got {t}")
    if total <= 0:
        raise ValueError(f"total epochs must be positive, got {total}")
    if t > total:
        return float(lr_min)
    return float(lr_min + 0.5 * (lr_max - lr_min) * (1.0 + np.cos(np.pi * t / total)))


def scheduled_lr(cfg: TrainConfig, epoch: int) -> float:
    if cfg.warmup_epochs > 0 and epoch < cfg.warmup_epochs:
        return cfg.learning_rate * (epoch + 1) / cfg.warmup_epochs
    t = epoch - cfg.warmup_epochs
    total = max(cfg.epochs - cfg.warmup_epochs, 1)
    return cosine_lr(t, total, cfg.learning_rate, cfg.lr_min)


class AdamW:
    """Decoupled-weight-decay Adam with bias-corrected moments.

    The optimizer owns its state: one pair of moment buffers per parameter,
    zero-filled in the parameter's dtype when the optimizer is built, and
    the step count. Both are checkpointed so a resumed run continues
    exactly; a model used only for inference has no optimizer and holds no
    moments.

    Every scalar is held as a Python float, which NumPy casts to the array's
    dtype under both value-based casting (NumPy 1) and NEP 50 (NumPy 2), and
    every update is written in place. So the arithmetic runs in each
    parameter's own dtype, and no scalar type can change that dtype.
    """

    def __init__(self, params: list[Parameter], beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.05):
        self.params = list(params)
        self.moment1 = [np.zeros_like(p.data) for p in self.params]
        self.moment2 = [np.zeros_like(p.data) for p in self.params]
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self, lr: float) -> None:
        lr = float(lr)
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for p, m1, m2 in zip(self.params, self.moment1, self.moment2):
            w = p.data
            if self.weight_decay:
                w *= 1.0 - lr * self.weight_decay
            g = np.zeros_like(w) if p.grad is None else p.grad.astype(w.dtype, copy=False)
            m1 *= self.beta1
            m1 += (1.0 - self.beta1) * g
            m2 *= self.beta2
            m2 += (1.0 - self.beta2) * (g * g)
            update = lr * (m1 / bias1)
            update /= np.sqrt(m2 / bias2) + self.eps
            w -= update


# ---------------------------------------------------------------------------
# per-sample corruption + loss (the single-step pipeline, replayable in tests)


@dataclass
class CloudSample:
    """Corrupted input and target for the whole-cloud (non-patch) path."""

    visible: np.ndarray
    target: np.ndarray
    transform: AffineTransform
    plan: MaskPlan | None


@dataclass
class PatchSample:
    """Corrupted patch inputs and targets for the patch-token path."""

    visible_patches: PatchSet       # normalized, transformed, visible subset
    plan: MaskPlan | None
    target_centers: np.ndarray      # (n, 3) supervision + decoder guidance
    target_patches: np.ndarray      # (n, k, 3) normalized supervision
    target_whole: np.ndarray        # (w, 3) for the direct-objective variant
    transform: AffineTransform


def prepare_cloud_sample(points: np.ndarray, cfg: TrainConfig, spec: AffineFamilySpec,
                         rng: np.random.Generator) -> CloudSample:
    transform = sample_affine(spec, rng)
    corrupted = affine_apply(points, transform)
    strategy = cfg.resolved().mask_strategy
    if strategy == "none":
        plan, visible = None, corrupted
    elif strategy == "random":
        plan, visible = mask_random_clusters(corrupted, cfg.mask_ratio, rng, cfg.max_clusters)
    elif strategy == "fixed":
        plan, visible = mask_fixed_clusters(corrupted, cfg.mask_ratio, cfg.cluster_size, rng)
    elif strategy == "view":
        plan, visible = mask_view_occlusion(corrupted, cfg.mask_ratio, rng)
    else:
        raise ValueError(f"mask strategy {strategy!r} is not a point-level strategy")
    target = corrupted if cfg.affine_role == "augmentation" else points
    return CloudSample(visible=visible, target=target, transform=transform, plan=plan)


def prepare_patch_sample(points: np.ndarray, cfg: TrainConfig, spec: AffineFamilySpec,
                         rng: np.random.Generator) -> PatchSample:
    transform = sample_affine(spec, rng)
    clean = patchify(points, cfg.num_patches, cfg.patch_size, rng)
    flat = clean.patches.reshape(-1, 3)
    corrupted = PatchSet(
        centers=affine_apply(clean.centers, transform),
        patches=affine_apply(flat, transform).reshape(clean.patches.shape),
        indices=clean.indices, normalized=False)

    clean_norm = normalize_patches(clean)
    corrupted_norm = normalize_patches(corrupted)

    strategy = cfg.resolved().mask_strategy
    plan = (mask_patches(cfg.num_patches, cfg.mask_ratio, rng)
            if strategy == "patch" else None)

    if cfg.affine_role == "augmentation":
        target_centers, target_patches = corrupted.centers, corrupted_norm.patches
        target_whole = affine_apply(points, transform)
    else:
        target_centers, target_patches = clean.centers, clean_norm.patches
        target_whole = points

    vis = plan.visible if plan is not None else np.arange(cfg.num_patches)
    visible_patches = PatchSet(centers=corrupted.centers[vis],
                               patches=corrupted_norm.patches[vis],
                               indices=corrupted.indices[vis] if corrupted.indices is not None else None,
                               normalized=True)
    return PatchSample(visible_patches=visible_patches, plan=plan,
                       target_centers=target_centers, target_patches=target_patches,
                       target_whole=target_whole, transform=transform)


def sample_loss(model, samples: list, cfg: TrainConfig) -> tuple[Tensor, list[LossReport]]:
    """Forward pass and loss of prepared samples, run as one batch.

    Returns the ``(B,)`` per-sample totals and one report per sample.
    """
    if isinstance(samples[0], CloudSample):
        recon = model.reconstruct(np.stack([s.visible for s in samples]))
        total = chamfer(recon, np.stack([s.target for s in samples]))
        return total, loss_reports(total)

    encoded = model.encode_visible(PatchSet.stack([s.visible_patches for s in samples]))
    if cfg.objective == "whole":
        total = chamfer(model.predict_whole(encoded), np.stack([s.target_whole for s in samples]))
        return total, loss_reports(total)

    centers = np.stack([s.target_centers for s in samples])
    if cfg.objective == "global-only":
        total = loss_global(model.predict_centers(encoded), centers)
        return total, loss_reports(total, global_=total, weight=1.0)

    masked = samples[0].plan is not None
    pred_patches = model.predict_patches(encoded, centers,
                                         [s.plan for s in samples] if masked else None)
    gt_patches = np.stack([s.target_patches[s.plan.masked] if masked else s.target_patches
                           for s in samples])
    local = loss_local(pred_patches, gt_patches)
    if cfg.objective == "local-only":
        return local, loss_reports(local, local=local)

    global_ = loss_global(model.predict_centers(encoded), centers)
    return loss_all(local, global_, cfg.global_weight)


def prepare_sample(points: np.ndarray, cfg: TrainConfig, spec: AffineFamilySpec,
                   rng: np.random.Generator):
    if cfg.encoder == "pointnet":
        return prepare_cloud_sample(points, cfg, spec, rng)
    return prepare_patch_sample(points, cfg, spec, rng)


def build_model(cfg: TrainConfig):
    """Construct the encoder clan's model from the config, deterministically,
    with every parameter in the config's dtype."""
    cfg = cfg.resolved()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    model = (CloudAutoencoder if cfg.encoder == "pointnet" else PatchAutoencoder)(cfg, rng)
    model.cast(cfg.dtype)
    return model


def sample_rng(seed: int, epoch: int, index: int) -> np.random.Generator:
    """Stateless per-(epoch, sample) stream: resume never replays or skips."""
    return np.random.default_rng(np.random.SeedSequence([seed, 2, epoch, index]))


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = b"RECLOUD-CKPT"
_CKPT_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


@dataclass
class Checkpoint:
    """Everything needed to continue (or probe) a run bit-for-bit."""

    config_text: str
    fingerprint: str
    epoch: int
    step: int
    rng_state: dict
    params: dict[str, np.ndarray]
    moments1: dict[str, np.ndarray]
    moments2: dict[str, np.ndarray]

    @property
    def config(self) -> TrainConfig:
        return TrainConfig.from_text(self.config_text)


def snapshot(model, opt: AdamW, cfg: TrainConfig, epoch: int) -> Checkpoint:
    """The run's state; ``opt`` must be the optimizer of ``model.parameters()``."""
    params, m1, m2 = {}, {}, {}
    for (name, p), moment1, moment2 in zip(model.named_parameters(), opt.moment1, opt.moment2):
        params[name] = p.data.copy()
        m1[name] = moment1.copy()
        m2[name] = moment2.copy()
    return Checkpoint(config_text=cfg.to_text(), fingerprint=cfg.fingerprint(),
                      epoch=epoch, step=opt.step_count,
                      rng_state={"scheme": "stateless-derived", "seed": cfg.seed,
                                 "next_epoch": epoch},
                      params=params, moments1=m1, moments2=m2)


def restore(model, ckpt: Checkpoint, opt: AdamW | None = None) -> None:
    """Load the checkpoint's parameters into ``model``, and its moments and
    step count into ``opt``, the optimizer of ``model.parameters()``, if given."""
    names = {name for name, _ in model.named_parameters()}
    if names != set(ckpt.params):
        missing = sorted(names ^ set(ckpt.params))
        raise ValueError(f"checkpoint does not match the model: mismatched names {missing[:5]}")
    for i, (name, p) in enumerate(model.named_parameters()):
        p.data = ckpt.params[name]
        if opt is not None:
            opt.moment1[i] = p.conform(ckpt.moments1[name])
            opt.moment2[i] = p.conform(ckpt.moments2[name])
    if opt is not None:
        opt.step_count = ckpt.step


def _write_array(out: list[bytes], arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    out.append(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
    out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    out.append(le.tobytes())


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ValueError(f"{self.path}: truncated checkpoint file")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _read_array(r: _Reader) -> np.ndarray:
    code, ndim = r.unpack("<BB")
    if code not in _CODE_DTYPES:
        raise ValueError(f"{r.path}: unknown array dtype code {code}")
    shape = r.unpack(f"<{ndim}I")
    dtype = _CODE_DTYPES[code]
    n = int(np.prod(shape)) if shape else 1
    arr = np.frombuffer(r.take(n * dtype.itemsize), dtype=dtype).reshape(shape)
    return arr.astype(dtype.newbyteorder("="))


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    out: list[bytes] = [_CKPT_MAGIC, struct.pack("<I", _CKPT_VERSION)]
    config_bytes = ckpt.config_text.encode()
    out.append(struct.pack("<Q", len(config_bytes)))
    out.append(config_bytes)
    out.append(ckpt.fingerprint.encode())
    out.append(struct.pack("<II", ckpt.epoch, ckpt.step))
    rng_bytes = json.dumps(ckpt.rng_state, sort_keys=True).encode()
    out.append(struct.pack("<Q", len(rng_bytes)))
    out.append(rng_bytes)
    names = sorted(ckpt.params)
    out.append(struct.pack("<I", len(names)))
    for name in names:
        nb = name.encode()
        out.append(struct.pack("<H", len(nb)))
        out.append(nb)
        _write_array(out, ckpt.params[name])
        _write_array(out, ckpt.moments1[name])
        _write_array(out, ckpt.moments2[name])
    Path(path).write_bytes(b"".join(out))


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such checkpoint: {path}")
    r = _Reader(path.read_bytes(), str(path))
    if r.take(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a recloud checkpoint")
    (version,) = r.unpack("<I")
    if version != _CKPT_VERSION:
        raise ValueError(f"{path}: checkpoint version {version} unsupported "
                         f"(expected {_CKPT_VERSION})")
    (config_len,) = r.unpack("<Q")
    config_text = r.take(config_len).decode()
    fingerprint = r.take(64).decode()
    epoch, step = r.unpack("<II")
    (rng_len,) = r.unpack("<Q")
    rng_state = json.loads(r.take(rng_len).decode())
    (n_params,) = r.unpack("<I")
    params, m1, m2 = {}, {}, {}
    for _ in range(n_params):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode()
        params[name] = _read_array(r)
        m1[name] = _read_array(r)
        m2[name] = _read_array(r)
    return Checkpoint(config_text=config_text, fingerprint=fingerprint, epoch=epoch,
                      step=step, rng_state=rng_state, params=params, moments1=m1,
                      moments2=m2)


# ---------------------------------------------------------------------------
# the loop


class DivergenceError(RuntimeError):
    """Raised when the loss leaves the finite range; carries the last finite
    checkpoint so callers can salvage the run."""

    def __init__(self, message: str, checkpoint: Checkpoint):
        super().__init__(message)
        self.checkpoint = checkpoint


def pretrain(manifest: DatasetManifest | str | Path, cfg: TrainConfig,
             metrics_path: str | Path | None = None,
             resume: Checkpoint | None = None,
             epoch_callback=None) -> Checkpoint:
    """Run the pretraining loop over the manifest's train split.

    Returns the final checkpoint; writes one LossReport row per epoch to
    ``metrics_path`` when given, appending on a resume. ``resume`` continues
    a saved run exactly (derived RNG streams are stateless in the epoch index).
    """
    cfg = cfg.resolved()
    if isinstance(manifest, (str, Path)):
        manifest = DatasetManifest.load(manifest)
    clouds, _, _ = load_split(manifest, "train", cfg.num_points, seed=cfg.seed)
    if not clouds:
        raise ValueError("manifest has no training samples")

    model = build_model(cfg)
    opt = AdamW(model.parameters(), beta1=cfg.beta1, beta2=cfg.beta2,
                eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
    start_epoch = 0
    if resume is not None:
        if resume.fingerprint != cfg.fingerprint():
            raise ValueError("checkpoint config fingerprint does not match the requested config")
        restore(model, resume, opt)
        start_epoch = resume.epoch

    spec = cfg.affine_spec()
    last_finite = snapshot(model, opt, cfg, epoch=start_epoch)
    # each row is written as its epoch ends, so a run that stops early keeps
    # the rows of the epochs it finished; a resumed run appends to its file
    with (open(metrics_path, "a" if resume is not None else "w")
          if metrics_path is not None else contextlib.nullcontext()) as metrics:
        if metrics is not None and metrics.tell() == 0:
            metrics.write("epoch,total,local,global,lr\n")
        for epoch in range(start_epoch, cfg.epochs):
            lr = scheduled_lr(cfg, epoch)
            order = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, 1, epoch])).permutation(len(clouds))
            reports: dict[int, LossReport] = {}
            for lo in range(0, len(order), cfg.batch_size):
                batch = [int(i) for i in order[lo:lo + cfg.batch_size]]
                model.zero_grad()
                # overflow happens only on a run that is diverging; the
                # non-finite loss check below is the safety net
                with np.errstate(over="ignore", invalid="ignore"):
                    for mlo in range(0, len(batch), MICRO_BATCH):
                        micro = batch[mlo:mlo + MICRO_BATCH]
                        samples = [prepare_sample(clouds[idx], cfg, spec,
                                                  sample_rng(cfg.seed, epoch, idx))
                                   for idx in micro]
                        totals, micro_reports = sample_loss(model, samples, cfg)
                        for idx, report in zip(micro, micro_reports):
                            if not np.isfinite(report.total):
                                raise DivergenceError(
                                    f"non-finite loss at epoch {epoch + 1}, sample {idx}; "
                                    f"aborting with the checkpoint from epoch "
                                    f"{last_finite.epoch}", last_finite)
                            reports[idx] = report
                        backward(ag.scale(ag.sum_in_order(totals), 1.0 / len(batch)))
                        del totals  # free this graph before the next one is built
                    opt.step(lr)

            # average in canonical sample order so the epoch metric does not
            # depend on the shuffle (float summation is order-sensitive)
            ordered = [reports[i] for i in sorted(reports)]
            mean = LossReport(total=float(np.mean([r.total for r in ordered])),
                              local=float(np.mean([r.local for r in ordered])),
                              global_=float(np.mean([r.global_ for r in ordered])),
                              weight=cfg.global_weight)
            if metrics is not None:
                metrics.write(f"{epoch + 1},{mean.total!r},{mean.local!r},"
                              f"{mean.global_!r},{lr!r}\n")
                metrics.flush()
            last_finite = snapshot(model, opt, cfg, epoch=epoch + 1)
            if epoch_callback is not None:
                epoch_callback(epoch + 1, mean, lr)
    return last_finite
