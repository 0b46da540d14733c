"""The pretraining loop: corrupt, reconstruct, backpropagate, AdamW-step.

Per sample and epoch the pipeline draws a fresh affine transform and mask,
as ``TrainConfig`` describes them, runs the encoder clan's forward pass,
and compares the reconstruction against the clean cloud (or against the
transformed cloud when the affine role is plain augmentation). Randomness
is derived statelessly from the seed, epoch and sample index by ``data.stream``
(one table of purposes, ``data.STREAMS``), which makes checkpoint resume exact.

Each batch runs as micro-batches of ``MICRO_BATCH`` samples, one forward
and one backward each from zeroed gradients, whose gradients add up in
micro-batch order. A micro-batch is corrupted into one batch-first
``Sample`` (``prepare_sample``), which ``sample_loss`` reads as it is.
With more than one usable CPU, helper processes compute the later
micro-batches of each batch, one contiguous share each, while the trainer
computes the first. The parameters and moments are then cut into one
contiguous element range per process, the trainer's first: each process
sums its range's gradient over the batch's micro-batches and steps it with
``AdamW``, and at an epoch's last step counts its range's non-finite
values. Every sum keeps the micro-batch order and every step is
elementwise, so a run is bit-identical for any number of helpers.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import mmap
import os
import pickle
import signal
import struct
import subprocess
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tensor, backward
from .corruption import (ALL_FAMILIES, MaskPlan, enabled_families, mask_fixed_clusters,
                         mask_patches, mask_random_clusters, mask_view_occlusion,
                         parse_range, sample_affine)
from .data import DatasetManifest, check_seed, load_split, stream
from .geometry import PatchSet, affine_apply, normalize_patches, patchify
from .layers import Parameter
from .losses import LossReport, chamfer, loss_global, loss_local
from .models import HEAD_KINDS, CloudAutoencoder, PatchAutoencoder

POINT_MASKS = ("random", "fixed", "view", "none")
PATCH_MASKS = ("patch", "none")
OBJECTIVES = ("decomposed", "whole", "local-only", "global-only")


# Samples per forward/backward pass (and per batch of feature extraction).
# It also fixes how a step's gradient is rounded: a shared weight's gradient
# is one sum over a micro-batch's rows, so a run is bit-identical only at
# the same MICRO_BATCH. Of 1, 2, 4 and 8 on the benchmark's patch-dae
# workload (2-CPU AVX-512 Xeon), 4 and 8 ran fastest, about 1.3x the
# per-sample rate, and 8 raised peak memory by 33-41 MB over 4. It also
# bounds the helper processes of ``pretrain``: one fewer than a batch's
# micro-batches, at most. Those processes and the trainer each compute a
# share of a batch's micro-batches, then each sums and steps its own range
# of the parameters' elements, whoever computed the micro-batches.
MICRO_BATCH = 4

# TrainConfig fields holding an "lo:hi" range
_RANGE_FIELDS = ("affine_rotate", "affine_translate", "affine_scale", "affine_shear")
# Lower bounds of TrainConfig fields (learning_rate 0 is a frozen-run sanity
# mode; check_seed bounds the seed); every other integer is a size or count
_AT_LEAST = {"warmup_epochs": 0, "decoder_depth": 0, "learning_rate": 0.0, "lr_min": 0.0,
             "global_weight": 0.0, "weight_decay": 0.0, "seed": None}
# TrainConfig fields with a fixed set of values; the CLI offers the same
CHOICES = {"precision": ("single", "double"), "encoder": ("pointnet", "transformer"),
           "affine_role": ("corruption", "augmentation"), "objective": OBJECTIVES,
           "decoder": HEAD_KINDS, "local_decoder": HEAD_KINDS, "global_decoder": HEAD_KINDS}


@dataclass(frozen=True)
class TrainConfig:
    """Flat, text-serializable pretraining configuration, checked when built.

    The one description of a run's corruption too: ``sample_affine`` reads
    the ``affine_*`` fields, each ``"lo:hi"`` range shared by all axes."""

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
    mask_strategy: str = "auto"  # set when built: random (pointnet) or patch
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
            numbers = (parse_range(value) if f.name in _RANGE_FIELDS
                       else (value,) if f.type in (float, "float") else ())
            if not all(math.isfinite(v) for v in numbers):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if f.name in _RANGE_FIELDS and numbers[0] > numbers[1]:
                raise ValueError(f"{f.name} must be a range with lo <= hi, got {value!r}")
            least = _AT_LEAST.get(f.name, 1 if f.type in (int, "int") else None)
            if least is not None and value < least:
                raise ValueError(f"{f.name} must be at least {least}, got {value!r}")
        check_seed(self.seed)
        try:
            narrowest = min(self.pointnet_widths)
        except ValueError:
            narrowest = 0
        if narrowest < 1:
            raise ValueError(f"pointnet_hidden must list positive widths, "
                             f"got {self.pointnet_hidden!r}")
        if parse_range(self.affine_scale)[0] <= 0:
            raise ValueError(f"affine_scale must be positive, got {self.affine_scale!r}")
        if not 0.0 <= self.affine_reflect <= 1.0:
            raise ValueError(f"affine_reflect must be in [0, 1], got {self.affine_reflect!r}")
        # AdamW divides by 1 - beta ** t and by sqrt(moment) + adam_eps
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        if self.adam_eps <= 0.0:
            raise ValueError(f"adam_eps must be positive, got {self.adam_eps!r}")
        unknown = enabled_families(self.affine_families) - set(ALL_FAMILIES)
        if unknown:
            raise ValueError(f"affine_families: unknown sub-families {sorted(unknown)}")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}, "
                                 f"got {getattr(self, name)!r}")
        allowed = ("auto",) + (POINT_MASKS if self.encoder == "pointnet" else PATCH_MASKS)
        if self.mask_strategy not in allowed:
            raise ValueError(
                f"mask strategy {self.mask_strategy!r} is invalid for the "
                f"{self.encoder} encoder (allowed: {', '.join(allowed)})")
        if self.encoder == "transformer":
            if self.decoder_depth >= self.encoder_depth:
                raise ValueError(f"decoder depth {self.decoder_depth} must be smaller than "
                                 f"encoder depth {self.encoder_depth}")
            if self.feature_dim % self.num_heads:
                raise ValueError(f"feature_dim {self.feature_dim} is not divisible by "
                                 f"num_heads {self.num_heads}")
            for name in ("num_patches", "patch_size"):
                if getattr(self, name) > self.num_points:
                    raise ValueError(f"{name} {getattr(self, name)} exceeds num_points "
                                     f"{self.num_points}")
        if self.mask_strategy == "auto":
            object.__setattr__(self, "mask_strategy",
                               "random" if self.encoder == "pointnet" else "patch")

    @property
    def pointnet_widths(self) -> tuple[int, ...]:
        """The PointNet encoder's layer widths, from 3 to ``feature_dim``."""
        hidden = tuple(int(x) for x in self.pointnet_hidden.split(",") if x.strip())
        return (3,) + hidden + (self.feature_dim,)

    @property
    def dtype(self):
        return np.float32 if self.precision == "single" else np.float64

    def to_text(self) -> str:
        lines = []
        for f in sorted(dataclasses.fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            lines.append(f"{f.name} = {value!r}" if isinstance(value, str)
                         else f"{f.name} = {value}")
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


# Elements per block of ``AdamW.step``. A block's parameters, both moments
# and the two scratch arrays take 640 KB in float32 (1.25 MB in float64), so
# they stay in a core's L2 across the step's 15 elementwise passes; one pass
# at a time over the 3 MB FC weight of the benchmark's cloud-ae misses L2 on
# every pass. Blocked, one whole step of that model took 4.0 against 8.0 ms
# per tensor, and of patch-dae, whose largest tensor holds 65k elements, 6.8
# against 8.1 ms (2-vCPU AVX-512 Xeon, float32, cache evicted before each
# step, median of 40).
STEP_BLOCK = 1 << 15


class AdamW:
    """Decoupled-weight-decay Adam with bias-corrected moments.

    The optimizer owns its state: the parameters' values and both moments
    in three flat arrays of the parameters' one dtype, one contiguous range
    per parameter in the model's order, and the step count. Each
    parameter's ``data`` and each ``moment1[i]`` and ``moment2[i]`` is a view
    of its range. ``state`` is the tuple of the three arrays: passed in
    (``pretrain`` passes arrays it shares with its helper processes), it
    already holds the values and moments; else the values are copied in and
    the moments start at zero. The state is checkpointed so a resumed run
    continues exactly; a model used only for inference has no optimizer and
    holds no moments.

    ``step`` updates the elements of ``span`` only, a range of the flat
    arrays (all of them by default): each helper process of ``pretrain``
    steps its own range of the same arrays. It updates them in blocks of
    ``STEP_BLOCK`` elements that cross parameter boundaries, with two reused
    scratch arrays, and gives the same bytes as one update per parameter:
    every operation is elementwise and runs in the same order.

    Every scalar is held as a Python float, which NumPy casts to the array's
    dtype under both value-based casting (NumPy 1) and NEP 50 (NumPy 2), and
    every update is written in place. So the arithmetic runs in the
    parameters' own dtype, and no scalar type can change that dtype.
    """

    def __init__(self, params: list[Parameter], beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.05,
                 state: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
                 span: tuple[int, int] | None = None):
        self.params = list(params)
        self.offsets = [0]
        for p in self.params:
            self.offsets.append(self.offsets[-1] + p.data.size)
        if state is None:
            values = np.concatenate([p.data.ravel() for p in self.params])
            # calloc'd: no page is touched before the first step or ``restore``
            state = values, np.zeros_like(values), np.zeros_like(values)
        self.state = state
        for p, view in zip(self.params, self.views(state[0])):
            p.data = view
        self.moment1 = self.views(state[1])
        self.moment2 = self.views(state[2])
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.span = (0, self.offsets[-1]) if span is None else span
        # each block [a, b) of the span, with its pieces: (parameter, first and
        # end element within the parameter, first and end element within the block)
        lo, hi = self.span
        self._blocks = []
        for a in range(lo, hi, STEP_BLOCK):
            b = min(a + STEP_BLOCK, hi)
            self._blocks.append((a, b, [
                (k, first - start, end - start, first - a, end - a)
                for k, (start, stop) in enumerate(zip(self.offsets, self.offsets[1:]))
                for first, end in [(max(a, start), min(b, stop))] if first < end]))
        self._scratch = np.empty((2, min(STEP_BLOCK, hi - lo)), state[0].dtype)

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """One view of ``flat``, laid out like the flat values, per parameter."""
        return [flat[lo:hi].reshape(p.data.shape)
                for p, lo, hi in zip(self.params, self.offsets, self.offsets[1:])]

    def step(self, lr: float, grads: list[list[np.ndarray | None]] | None = None,
             count: bool = False) -> int:
        """One AdamW update of ``span`` at learning rate ``lr``.

        ``grads`` holds the gradients of a step's micro-batches in
        micro-batch order, each one array per parameter or None where that
        micro-batch did not reach it; an array is read only inside
        ``span``. A parameter's gradient is their sum in that order, or
        zeros if none reached it. By default it is each parameter's
        ``grad``. With ``count``, returns the number of non-finite values
        among the span's parameters and moments after the update, else 0."""
        lr = float(lr)
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        decay = 1.0 - lr * self.weight_decay
        if grads is None:
            grads = [[p.grad for p in self.params]]
        values, moments1, moments2 = self.state
        bad = 0
        for a, b, pieces in self._blocks:
            g, u = self._scratch[:, :b - a]
            for k, first, end, at, to in pieces:
                summed = g[at:to]
                reached = [mb[k] for mb in grads if mb[k] is not None]
                if not reached:
                    summed.fill(0)
                for i, grad in enumerate(reached):
                    part = grad.reshape(-1)[first:end]
                    if i == 0:
                        np.copyto(summed, part)
                    else:
                        summed += part
            w, m1, m2 = values[a:b], moments1[a:b], moments2[a:b]
            if self.weight_decay:
                w *= decay
            m1 *= self.beta1
            m1 += np.multiply(g, 1.0 - self.beta1, out=u)
            m2 *= self.beta2
            g *= g
            g *= 1.0 - self.beta2
            m2 += g
            np.divide(m1, bias1, out=u)
            u *= lr
            np.divide(m2, bias2, out=g)
            np.sqrt(g, out=g)
            g += self.eps
            u /= g
            w -= u
            if count:
                bad += sum(arr.size - np.count_nonzero(np.isfinite(arr)) for arr in (w, m1, m2))
        return bad


# ---------------------------------------------------------------------------
# the sample: a corrupted micro-batch and its targets (replayable in tests)


@dataclass
class Sample:
    """One micro-batch of B corrupted clouds with its targets, batch-first.

    ``visible`` is the ``(B, v, 3)`` visible points of the whole-cloud model,
    or the patch model's normalized, transformed, visible ``PatchSet``;
    ``target`` is the ``(B, w, 3)`` whole clouds to rebuild. ``centers``
    (``(B, n, 3)``) and the normalized ``patches`` (``(B, n, k, 3)``) are the
    patch model's targets, None for the whole-cloud model. ``transforms`` is
    the ``(B, 3, 4)`` stack of the clouds' affine maps ``[A | t]``, one per
    cloud. ``plans`` is one mask plan per cloud, or None without a mask."""

    visible: np.ndarray | PatchSet
    target: np.ndarray
    transforms: np.ndarray
    plans: list[MaskPlan] | None
    centers: np.ndarray | None
    patches: np.ndarray | None


def _mask_points(points: np.ndarray, cfg: TrainConfig,
                 rng: np.random.Generator) -> tuple[MaskPlan, np.ndarray]:
    if cfg.mask_strategy == "random":
        return mask_random_clusters(points, cfg.mask_ratio, rng, cfg.max_clusters)
    if cfg.mask_strategy == "fixed":
        return mask_fixed_clusters(points, cfg.mask_ratio, cfg.cluster_size, rng)
    return mask_view_occlusion(points, cfg.mask_ratio, rng)  # TrainConfig admits no other


def _rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx[b]`` of each ``a[b]``: a ``(B, m)`` pick along axis 1."""
    return a[np.arange(len(a))[:, None], idx]


def prepare_sample(clouds: np.ndarray, cfg: TrainConfig,
                   rngs: list[np.random.Generator]) -> Sample:
    """The corrupted sample of a ``(B, w, 3)`` batch, one generator per cloud.

    Each generator draws its cloud's affine map, then its FPS start (patch
    model; the batch is grouped in one ``patchify`` call), then its mask:
    what it would draw for that cloud alone, in the same order."""
    transforms = np.stack([sample_affine(cfg, rng) for rng in rngs])
    if cfg.encoder == "pointnet":
        corrupted = affine_apply(clouds, transforms)
        target = corrupted if cfg.affine_role == "augmentation" else clouds
        if cfg.mask_strategy == "none":
            return Sample(corrupted, target, transforms, None, None, None)
        plans, visible = zip(*(_mask_points(c, cfg, r) for c, r in zip(corrupted, rngs)))
        return Sample(np.stack(visible), target, transforms, list(plans), None, None)

    clean = patchify(clouds, cfg.num_patches, cfg.patch_size, rngs)
    plans = ([mask_patches(cfg.num_patches, cfg.mask_ratio, rng) for rng in rngs]
             if cfg.mask_strategy == "patch" else None)
    corrupted = replace(clean, centers=affine_apply(clean.centers, transforms),
                        patches=affine_apply(clean.patches, transforms))
    visible = normalize_patches(corrupted)
    if cfg.affine_role == "augmentation":
        targets, target = visible, affine_apply(clouds, transforms)
    else:
        targets, target = normalize_patches(clean), clouds
    if plans is not None:
        vis = np.stack([p.visible for p in plans])
        visible = PatchSet(centers=_rows(visible.centers, vis),
                           patches=_rows(visible.patches, vis), normalized=True)
    return Sample(visible, target, transforms, plans, targets.centers, targets.patches)


def sample_loss(model, sample: Sample,
                cfg: TrainConfig) -> tuple[Tensor, Tensor | None, Tensor | None]:
    """Forward pass and loss of a prepared micro-batch.

    Returns ``(total, local, global_)``, each a ``(B,)`` per-sample Tensor,
    with None for a term the objective lacks: the decomposed total is
    local + ``global_weight`` * global, and a single-term objective's total
    is its one term (the whole-cloud losses have neither term).
    """
    if cfg.encoder == "pointnet":
        return chamfer(model.reconstruct(sample.visible), sample.target), None, None

    encoded = model.encode_visible(sample.visible)
    if cfg.objective == "whole":
        return chamfer(model.predict_whole(encoded), sample.target), None, None
    if cfg.objective == "global-only":
        global_ = loss_global(model.predict_centers(encoded), sample.centers)
        return global_, None, global_

    plans = sample.plans
    gt_patches = (sample.patches if plans is None
                  else _rows(sample.patches, np.stack([p.masked for p in plans])))
    local = loss_local(model.predict_patches(encoded, sample.centers, plans), gt_patches)
    if cfg.objective == "local-only":
        return local, local, None

    global_ = loss_global(model.predict_centers(encoded), sample.centers)
    return ag.add(local, ag.scale(global_, cfg.global_weight)), local, global_


def build_model(cfg: TrainConfig, draw: bool = True):
    """Construct the encoder clan's model from the config, with every
    parameter in the config's dtype.

    With ``draw`` the weights are drawn from the seed's init stream,
    deterministically: a fresh run, or ``random_init``'s untrained baseline.
    Without it nothing is drawn or allocated: every parameter is a read-only
    zero view in the config's dtype (``layers.unfilled``) until ``restore``
    gives it its one array from a checkpoint."""
    rng = stream(cfg.seed, "init") if draw else None
    model = (CloudAutoencoder if cfg.encoder == "pointnet" else PatchAutoencoder)(cfg, rng)
    model.cast(cfg.dtype, values=draw)
    return model


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
    step count into ``opt``, the optimizer of ``model.parameters()``, if given,
    cast to the parameters' dtype. Without ``opt`` each parameter gets a
    private copy, so build ``model`` without drawing; with it they are
    written into the optimizer's arrays."""
    named = list(model.named_parameters())
    names = {name for name, _ in named}
    if names != set(ckpt.params):
        missing = sorted(names ^ set(ckpt.params))
        raise ValueError(f"checkpoint does not match the model: mismatched names {missing[:5]}")
    for i, (name, p) in enumerate(named):
        pairs = [(p.data, ckpt.params[name])]
        if opt is not None:
            pairs += [(opt.moment1[i], ckpt.moments1[name]),
                      (opt.moment2[i], ckpt.moments2[name])]
        for like, value in pairs:
            if value.shape != like.shape:
                raise ValueError(f"parameter {name!r}: shape {value.shape} != {like.shape}")
        if opt is None:
            p.data = ckpt.params[name].astype(p.data.dtype)
        else:
            for into, value in pairs:
                into[...] = value
    if opt is not None:
        opt.step_count = ckpt.step


def _first_non_finite(state: Checkpoint) -> str | None:
    """The first parameter or moment of ``state``, in the model's order,
    holding a non-finite value, named with its count of them; None if all
    are finite."""
    for name, param in state.params.items():
        for kind, arr in (("parameter", param), ("first moment", state.moments1[name]),
                          ("second moment", state.moments2[name])):
            bad = arr.size - np.count_nonzero(np.isfinite(arr))
            if bad:
                return f"{kind} {name!r} ({bad} of {arr.size} values)"
    return None


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
    # write a sibling file and rename it over the target, so a save that
    # fails partway leaves the previous checkpoint whole
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(b"".join(out))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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
    if r.pos != len(r.blob):
        raise ValueError(f"{path}: {len(r.blob) - r.pos} bytes after the last array")
    return Checkpoint(config_text=config_text, fingerprint=fingerprint, epoch=epoch,
                      step=step, rng_state=rng_state, params=params, moments1=m1,
                      moments2=m2)


# ---------------------------------------------------------------------------
# the loop


class DivergenceError(RuntimeError):
    """Raised when the loss, a parameter or a moment leaves the finite range;
    carries the last finite checkpoint so callers can salvage the run."""

    def __init__(self, message: str, checkpoint: Checkpoint):
        super().__init__(message)
        self.checkpoint = checkpoint


def _micro_batch(model, clouds, cfg: TrainConfig, epoch: int, batch_size: int,
                 micro: list[int]) -> tuple[list, list | None]:
    """One micro-batch of a step of ``batch_size`` samples, from zeroed
    gradients: its ``(total, local, global_)`` loss terms as arrays (None
    for an absent term) and, when its total is finite, each parameter's
    gradient after the backward pass (None where the loss does not reach),
    else None."""
    model.zero_grad()
    sample = prepare_sample(np.stack([clouds[idx] for idx in micro]), cfg,
                            [stream(cfg.seed, "sample", epoch, idx) for idx in micro])
    losses = sample_loss(model, sample, cfg)
    rows = [None if term is None else term.data for term in losses]
    if not np.isfinite(rows[0]).all():
        return rows, None
    backward(ag.scale(ag.sum_in_order(losses[0]), 1.0 / batch_size))
    return rows, [p.grad for p in model.parameters()]


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where helpers could not share
    memory with it (no ``os.memfd_create``)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "memfd_create") else 1


def _shared_state(size: int, dtype, clouds: tuple, slots: int, fd: int | None = None):
    """The arrays ``pretrain`` shares with its helpers, each at a 64-byte
    boundary of one memory file: a new zero-filled one when ``fd`` is None,
    else the file ``fd`` names. ``size`` and ``dtype`` are those of the
    flat parameters and ``clouds`` the ``(shape, dtype)`` of the stacked
    clouds. Returns the file's descriptor, ``AdamW``'s three flat arrays,
    the clouds' array, and ``slots`` flat gradient slots."""
    specs = [((size,), dtype)] * 3 + [clouds] + [((size,), dtype)] * slots
    offsets, end = [], 0
    for shape, dtype in specs:
        offsets.append(-(-end // 64) * 64)
        end = offsets[-1] + math.prod(shape) * np.dtype(dtype).itemsize
    if fd is None:
        fd = os.memfd_create("recloud-pretrain")
        os.ftruncate(fd, end)
    region = mmap.mmap(fd, end)
    arrays = [np.ndarray(shape, dtype, region, offset)
              for (shape, dtype), offset in zip(specs, offsets)]
    return fd, tuple(arrays[:3]), arrays[3], arrays[4:]


def _outside(opt: AdamW) -> list[tuple[int, int, int]]:
    """The pieces ``(parameter, first element, end element)`` of the
    parameters that lie outside ``opt.span``: what a process publishes of a
    micro-batch's gradient, for the processes owning them to sum."""
    lo, hi = opt.span
    pieces = []
    for k, (first, end) in enumerate(zip(opt.offsets, opt.offsets[1:])):
        for a, b in ((first, min(end, lo)), (max(first, hi), end)):
            if a < b:
                pieces.append((k, a - first, b - first))
    return pieces


def _publish(grads: list, slot: list[np.ndarray], pieces: list[tuple[int, int, int]]) -> None:
    for k, first, end in pieces:
        if grads[k] is not None:
            slot[k].reshape(-1)[first:end] = grads[k].reshape(-1)[first:end]


# Thread counts of the BLAS and OpenMP builds numpy may load. A helper runs
# one thread: the trainer and the helpers take one usable CPU each.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _helper_died(proc: subprocess.Popen):
    raise RuntimeError(f"pretraining helper {proc.pid} exited with code {proc.wait()}")


class _Helpers:
    """The processes of a ``pretrain`` run from ``start_epoch``: the trainer
    and ``min(usable CPUs, micro-batches per batch) - 1`` helpers (none when
    no epoch is left), which ``start`` starts and leaving the context closes
    and waits for.

    ``opt`` is the run's ``AdamW``. Each process owns one contiguous range
    of its flat arrays, cut by element count, the trainer's first: it sums
    the gradient of its range and steps it. ``micro_batches(epoch, batch)``
    gives each micro-batch of ``batch`` as ``(micro, rows)``, its loss terms
    (see ``_micro_batch``), in micro-batch order: the first contiguous share
    computed here as it is consumed, each next share in a helper. Once every
    loss has passed its check, ``step(lr, count)`` steps the batch in every
    process at once and returns their summed count of non-finite values.

    A helper is a fresh interpreter (``_helper_main``), never a fork: a fork
    copies each page either process writes, inherits the caller's BLAS
    threads, and ``multiprocessing``'s other start methods re-run the
    caller's ``__main__``. The parameters, both moments, the stacked clouds
    and one gradient slot per micro-batch of a step live in one memory file
    the helpers map. Each process keeps its micro-batches' gradients and
    publishes into their slots only the parts outside its own range, which
    the other owners sum. A helper sends back only the loss terms and which
    parameters have a gradient, or its count of non-finite values after a
    step, or the exception it raised, which is raised here with the
    helper's traceback as its cause."""

    def __init__(self, model, clouds: list[np.ndarray], cfg: TrainConfig, start_epoch: int):
        self.model, self.clouds, self.cfg = model, clouds, cfg
        per_batch = -(-min(cfg.batch_size, len(clouds)) // MICRO_BATCH)
        workers = min(_usable_cpus(), per_batch) if start_epoch < cfg.epochs else 1
        params = model.parameters()
        size = sum(p.data.size for p in params)
        self.spans = [(size * j // workers, size * (j + 1) // workers) for j in range(workers)]
        self.procs: list[subprocess.Popen] = []
        self.fd = state = None
        self.grads: list[list | None] = []  # the batch's, in micro-batch order, for ``step``
        slots = []
        if workers > 1:
            self.layout = (size, cfg.dtype,
                           ((len(clouds),) + clouds[0].shape, clouds[0].dtype), per_batch)
            self.fd, state, stacked, slots = _shared_state(*self.layout)
            np.concatenate([p.data.ravel() for p in params], out=state[0])
            stacked[...] = clouds
            clouds[:] = stacked  # each cloud a view of the shared copy, which is the only one
        self.opt = AdamW(params, cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.weight_decay,
                         state=state, span=self.spans[0])
        self.slots = [self.opt.views(slot) for slot in slots]
        self.outside = _outside(self.opt)

    def __enter__(self) -> "_Helpers":
        return self

    def __exit__(self, *exc) -> None:
        if self.fd is not None:
            os.close(self.fd)
        for proc in self.procs:
            proc.communicate()  # closes its input, so it exits once its step is done

    def start(self) -> None:
        if self.fd is None:
            return
        code = (f"import sys; sys.path[:] = {sys.path!r}; "
                f"from {__name__} import {_helper_main.__name__} as main; main()")
        env = {**os.environ, **dict.fromkeys(_THREAD_VARS, "1")}
        for span in self.spans[1:]:
            self.procs.append(subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                                               stdout=subprocess.PIPE, pass_fds=(self.fd,),
                                               env=env))
            self._send(self.procs[-1], (self.cfg, self.fd, self.layout, span,
                                        self.opt.step_count))
        os.close(self.fd)
        self.fd = None

    @staticmethod
    def _send(proc, message) -> None:
        try:
            proc.stdin.write(pickle.dumps(message))
            proc.stdin.flush()
        except BrokenPipeError:
            _helper_died(proc)

    @staticmethod
    def _receive(proc) -> tuple:
        try:
            return pickle.load(proc.stdout)
        except (EOFError, pickle.UnpicklingError):
            _helper_died(proc)

    @staticmethod
    def _raise(proc, error) -> None:
        if error is not None:
            exc, trace = error
            raise exc from RuntimeError(f"in pretraining helper {proc.pid}:\n{trace}")

    def micro_batches(self, epoch: int, batch: list[int]):
        micros = [batch[lo:lo + MICRO_BATCH] for lo in range(0, len(batch), MICRO_BATCH)]
        sharing = min(len(self.procs) + 1, len(micros))  # the last batch may be short
        bounds = [len(micros) * j // sharing for j in range(sharing + 1)]
        shares = list(zip(self.procs, bounds[1:], bounds[2:]))
        for proc, lo, hi in shares:
            self._send(proc, ("compute", epoch, len(batch), micros[lo:hi], lo))
        self.grads = []
        for m, micro in enumerate(micros[:bounds[1]]):
            rows, grads = _micro_batch(self.model, self.clouds, self.cfg, epoch, len(batch), micro)
            if grads is not None and self.slots:
                _publish(grads, self.slots[m], self.outside)
            self.grads.append(grads)
            yield micro, rows
        for proc, lo, hi in shares:
            results, error = self._receive(proc)
            for m, (micro, (rows, has)) in enumerate(zip(micros[lo:hi], results), lo):
                # a slot is rewritten only at the next step, after every
                # process has summed it
                self.grads.append(None if has is None
                                  else [g if h else None for g, h in zip(self.slots[m], has)])
                yield micro, rows
            self._raise(proc, error)

    def step(self, lr: float, count: bool) -> int:
        has = [[g is not None for g in grads] for grads in self.grads]
        for proc in self.procs:
            self._send(proc, ("step", lr, has, count))
        bad = self.opt.step(lr, self.grads, count)
        for proc in self.procs:
            counted, error = self._receive(proc)
            self._raise(proc, error)
            bad += counted
        return bad


def _helper_main() -> None:
    """A helper process of ``pretrain`` (see ``_Helpers``): computes the
    shares of micro-batches its trainer sends, and steps its range of the
    parameters when told to, until its input ends because the trainer
    closed it, exited or was killed."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the trainer's to handle
    np.seterr(over="ignore", invalid="ignore")  # as in the trainer's loop
    inbox, outbox = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # the output pipe carries replies only
    cfg, fd, layout, span, step_count = pickle.load(inbox)
    _, state, clouds, slots = _shared_state(*layout, fd)
    os.close(fd)
    model = build_model(cfg, draw=False)
    opt = AdamW(model.parameters(), cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.weight_decay,
                state=state, span=span)
    opt.step_count = step_count
    slots = [opt.views(slot) for slot in slots]
    outside = _outside(opt)
    own = {}  # this step's micro-batches computed here, by index: their gradients
    while True:
        try:
            kind, *message = pickle.load(inbox)
        except EOFError:
            return
        reply, error = [], None
        try:
            if kind == "compute":
                epoch, batch_size, micros, first = message
                for m, micro in enumerate(micros, first):
                    rows, grads = _micro_batch(model, clouds, cfg, epoch, batch_size, micro)
                    if grads is None:  # the trainer stops at this micro-batch's loss
                        reply.append((rows, None))
                        break
                    reply.append((rows, [g is not None for g in grads]))
                    _publish(grads, slots[m], outside)
                    own[m] = grads
            else:
                lr, has, count = message
                reply = opt.step(lr, [own[m] if m in own else
                                      [g if h else None for g, h in zip(slots[m], reached)]
                                      for m, reached in enumerate(has)], count)
                own.clear()
        except Exception as exc:  # re-raised by the trainer, in micro-batch order
            error = exc, traceback.format_exc()
        try:
            outbox.write(pickle.dumps((reply, error)))
            outbox.flush()
        except BrokenPipeError:
            os._exit(0)  # the trainer is gone; drop the reply it cannot read


def pretrain(manifest: DatasetManifest | str | Path, cfg: TrainConfig,
             metrics_path: str | Path | None = None,
             resume: Checkpoint | None = None,
             epoch_callback=None) -> Checkpoint:
    """Run the pretraining loop over the manifest's train split.

    Returns the final checkpoint. Each epoch's mean loss over the train
    split, a ``LossReport`` averaged in sample-id order from the terms
    ``sample_loss`` returns, is written as one row to ``metrics_path`` when
    given (appending on a resume; its directory is made once every check
    has passed) and handed to ``epoch_callback(epoch, report, lr)``.
    ``resume`` continues a saved run exactly (derived RNG streams are
    stateless in the epoch index); its model is built without drawing, and
    a non-finite parameter or moment in it raises ``ValueError`` before the
    first step. A non-finite loss, parameter or moment during the run raises
    ``DivergenceError``; an exception in a helper process is raised here.
    """
    if isinstance(manifest, (str, Path)):
        manifest = DatasetManifest.load(manifest)
    clouds = load_split(manifest, "train", cfg.num_points, seed=cfg.seed)
    if not clouds:
        raise ValueError("manifest has no training samples")

    if resume is not None and resume.fingerprint != cfg.fingerprint():
        raise ValueError("checkpoint config fingerprint does not match the requested config")
    model = build_model(cfg, draw=resume is None)
    start_epoch = 0 if resume is None else resume.epoch
    with _Helpers(model, clouds, cfg, start_epoch) as helpers:
        opt = helpers.opt
        if resume is not None:
            restore(model, resume, opt)
        last_finite = snapshot(model, opt, cfg, epoch=start_epoch)
        bad = None if resume is None else _first_non_finite(last_finite)
        if bad is not None:
            raise ValueError(f"resume checkpoint holds non-finite values in {bad}")
        if metrics_path is not None:
            Path(metrics_path).parent.mkdir(parents=True, exist_ok=True)
        helpers.start()
        # each row is written as its epoch ends, so a run that stops early
        # keeps the rows of the epochs it finished; a resumed run appends
        with (open(metrics_path, "a" if resume is not None else "w")
              if metrics_path is not None else contextlib.nullcontext()) as metrics:
            if metrics is not None and metrics.tell() == 0:
                metrics.write("epoch,total,local,global,lr\n")
            for epoch in range(start_epoch, cfg.epochs):
                lr = scheduled_lr(cfg, epoch)
                order = stream(cfg.seed, "shuffle", epoch).permutation(len(clouds))
                # each sample's (total, local, global) in its column; an absent term is 0
                terms = np.zeros((3, len(clouds)))
                for lo in range(0, len(order), cfg.batch_size):
                    batch = [int(i) for i in order[lo:lo + cfg.batch_size]]
                    # overflow happens only on a run that is diverging; the
                    # non-finite checks below are the safety net
                    with np.errstate(over="ignore", invalid="ignore"):
                        for micro, rows in helpers.micro_batches(epoch, batch):
                            for row, term in zip(terms, rows):
                                if term is not None:
                                    row[micro] = term
                            diverged = ~np.isfinite(terms[0, micro])
                            if diverged.any():
                                raise DivergenceError(
                                    f"non-finite loss at epoch {epoch + 1}, sample "
                                    f"{micro[int(diverged.argmax())]}; aborting with the "
                                    f"checkpoint from epoch {last_finite.epoch}", last_finite)
                        # a step can overflow a weight or a moment while every
                        # loss of its epoch stays finite: the epoch's last step
                        # counts the non-finite values it leaves
                        bad = helpers.step(lr, count=lo + cfg.batch_size >= len(order))

                state = snapshot(model, opt, cfg, epoch=epoch + 1)
                if bad:
                    raise DivergenceError(
                        f"non-finite values in {_first_non_finite(state)} after epoch "
                        f"{epoch + 1}; aborting with the checkpoint from epoch "
                        f"{last_finite.epoch}", last_finite)
                last_finite = state
                # average in sample-id order so the epoch metric does not depend
                # on the shuffle (float summation is order-sensitive)
                mean = LossReport(*(float(row.mean()) for row in terms))
                if metrics is not None:
                    metrics.write(f"{epoch + 1},{mean.total!r},{mean.local!r},"
                                  f"{mean.global_!r},{lr!r}\n")
                    metrics.flush()
                if epoch_callback is not None:
                    epoch_callback(epoch + 1, mean, lr)
    return last_finite
