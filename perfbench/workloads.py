"""The benchmark's workloads, driven through recloud's public API.

Each workload generates its dataset from the seed, times a set-up phase,
runs its main phase for the requested seconds, and checks the outputs.
Calls go through the ``recloud`` modules' attributes, not names imported
here, so that the tracer's wrappers see them.
"""
from __future__ import annotations

import hashlib
import resource
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import quantiles
from time import perf_counter

import numpy as np

from recloud import data, evaluation, trainer
from spans import Tracer

# Point-MAE-shaped patch transformer (arXiv 2203.06604), the paper's method.
PATCH_DAE = dict(encoder="transformer", num_points=1024, num_patches=64, patch_size=32,
                 feature_dim=128, encoder_depth=4, decoder_depth=2, num_heads=4,
                 mask_strategy="patch", mask_ratio=0.6, objective="decomposed",
                 local_decoder="fold", global_decoder="fc", batch_size=8,
                 precision="single")
CLOUD_AE = dict(encoder="pointnet", pointnet_hidden="64,128", feature_dim=64,
                decoder="fc", num_points=1024, mask_strategy="view", mask_ratio=0.6,
                batch_size=8, precision="single")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict                # TrainConfig fields; the seed comes from the run
    samples_per_family: int     # synthetic clouds per shape family (80% train)
    train: bool                 # pretraining, else frozen-feature extraction and probe


# Each pretrain call of a training run: long enough that the loss falls,
# short enough that a run holds several calls.
EPOCHS_PER_CALL = 6


WORKLOADS = {w.name: w for w in (
    Workload("patch-dae",
             "paper's masked patch transformer: bound by per-node autograd overhead, "
             "patchify/kNN and the per-patch Chamfer loop",
             PATCH_DAE, samples_per_family=3, train=True),
    Workload("cloud-ae",
             "PointNet autoencoder with view occlusion: bound by the 1024x1024 Chamfer "
             "kernel and the occlusion mask, few graph nodes",
             CLOUD_AE, samples_per_family=3, train=True),
    Workload("probe",
             "frozen patch-dae encoder: inference-only feature extraction with per-row "
             "file reads, then the SVM probe sweep",
             PATCH_DAE, samples_per_family=5, train=False),
)}

@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    metrics: dict[str, dict] = field(default_factory=dict)
    report: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def make_dataset(wl: Workload, seed: int, workdir: Path, out: Outcome) -> Path:
    """Generate the workload's dataset twice; the copies must be byte-equal."""
    spec = data.SynthSpec(samples_per_family=wl.samples_per_family,
                          points_per_cloud=wl.config["num_points"], seed=seed)
    digests = []
    for copy in ("data", "data-again"):
        data.synth_generate(spec, workdir / copy)
        digests.append(_digest(workdir / copy))
    shutil.rmtree(workdir / "data-again")
    out.report["inputs_sha256"] = digests[0]
    out.check("inputs_reproducible", digests[0] == digests[1])
    return workdir / "data" / "manifest.tsv"


def same_checkpoint(a: trainer.Checkpoint, b: trainer.Checkpoint) -> bool:
    """Bit-equality of everything a checkpoint stores."""
    if ((a.config_text, a.fingerprint, a.epoch, a.step, a.rng_state)
            != (b.config_text, b.fingerprint, b.epoch, b.step, b.rng_state)):
        return False
    for x, y in ((a.params, b.params), (a.moments1, b.moments1), (a.moments2, b.moments2)):
        if x.keys() != y.keys():
            return False
        for name in x:
            if (x[name].dtype != y[name].dtype or x[name].shape != y[name].shape
                    or x[name].tobytes() != y[name].tobytes()):
                return False
    return True


class Between:
    """Set-up and probe timings taken between the main phase's epochs or
    passes, so that each samples the whole run rather than one moment of it.

    A set-up is what a run does before its first operation: manifest load,
    ``load_split``, ``build_model``, and ``load_checkpoint`` when probing a
    saved checkpoint. A probe fit is ``probe_with_sweep`` on ``tables``.
    """

    def __init__(self, cfg: trainer.TrainConfig, manifest_path: Path,
                 checkpoint_path: Path | None, out: Outcome):
        self.cfg = cfg
        self.manifest_path = manifest_path
        self.checkpoint_path = checkpoint_path
        self.out = out
        self.checkpoint: trainer.Checkpoint | None = None
        self.tables = None
        self.setup_times: list[float] = []
        self.probe_times: list[float] = []
        self.probe_results: set[tuple[float, float]] = set()

    def __call__(self) -> None:
        start = perf_counter()
        manifest = data.DatasetManifest.load(self.manifest_path)
        data.load_split(manifest, "train", self.cfg.num_points, seed=self.cfg.seed)
        trainer.build_model(self.cfg)
        if self.checkpoint_path is not None:
            self.checkpoint = trainer.load_checkpoint(self.checkpoint_path)
        self.setup_times.append(perf_counter() - start)
        if self.tables is not None:
            start = perf_counter()
            self.probe_results.add(evaluation.probe_with_sweep(*self.tables))
            self.probe_times.append(perf_counter() - start)
            self.out.attempted += 1

    def check(self) -> None:
        """Every probe fit on the same features must agree exactly."""
        self.out.check("probe_deterministic", len(self.probe_results) <= 1)


def decile(values: list[float], which: int) -> float:
    """The ``which``-th decile of repeated identical work. On a shared host
    the program runs beside other tenants whose load comes and goes within
    seconds, and the share of a run spent in the faster stretches varies
    from run to run far more than the contended speed does. So a rate is
    reported at its 1st decile and a time at its 9th: the contended level,
    which nearly every run reaches."""
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=10, method="inclusive")[which - 1]


def _tracer_ns(tracer: Tracer | None) -> int:
    return tracer.top_ns if tracer is not None else 0


def _throughput(spans, ops_per_span: int, out: Outcome) -> dict:
    """The rate over timed spans of ``(start_s, start_top_ns, end_s,
    end_top_ns)``, and the time per operation outside top-level trace spans."""
    rates = [ops_per_span / (end - start) for start, _, end, _ in spans]
    out.report.setdefault("rates", []).append(rates)
    busy_s = sum(end - start for start, _, end, _ in spans)
    top_s = sum(top_end - top_start for _, top_start, _, top_end in spans) / 1e9
    return {"rate": decile(rates, 1),
            "unattributed_ms": (busy_s - top_s) * 1e3 / (ops_per_span * len(spans))}


def check_features(cfg: trainer.TrainConfig, manifest_path: Path, tables, out: Outcome) -> None:
    manifest = data.DatasetManifest.load(manifest_path)
    dim = 2 * cfg.feature_dim if cfg.encoder == "transformer" else cfg.feature_dim
    for split, table in zip(("train", "test"), tables):
        rows = len(manifest.split(split))
        out.check("feature_shape", table.features.shape == (rows, dim))
        out.check("features_finite", np.all(np.isfinite(table.features)))


def extract(ckpt: trainer.Checkpoint, manifest_path: Path, cfg: trainer.TrainConfig,
            out: Outcome):
    """Checked train and test feature tables of a checkpoint."""
    tables = [evaluation.extract_features(ckpt, manifest_path, split)
              for split in ("train", "test")]
    out.attempted += sum(len(t.ids) for t in tables)
    check_features(cfg, manifest_path, tables, out)
    return tables


def train_pass(cfg: trainer.TrainConfig, manifest_path: Path, seconds: float, out: Outcome,
               tracer: Tracer | None = None, between: Between | None = None) -> dict:
    """``pretrain`` calls of ``EPOCHS_PER_CALL`` epochs each, from a fresh
    model, for at most about ``seconds`` and at least two calls: the next
    call starts only if the last one's length still fits. The first epoch of
    each call holds ``pretrain``'s own set-up and is the warm-up; the others
    are timed. The ``between`` samples start once the first call's
    checkpoint gives them features to probe."""
    n = len(data.DatasetManifest.load(manifest_path).split("train"))
    run_cfg = replace(cfg, epochs=EPOCHS_PER_CALL)
    spans, calls, call_s = [], 0, 0.0
    start = perf_counter()
    while calls < 2 or perf_counter() - start + call_s <= seconds:
        call_start = perf_counter()
        call_spans, losses = [], []
        resumed = [perf_counter(), _tracer_ns(tracer)]

        def on_epoch(epoch, report, lr):
            call_spans.append((*resumed, perf_counter(), _tracer_ns(tracer)))
            losses.append(report.total)
            if between is not None and between.tables is not None:
                between()
            resumed[:] = [perf_counter(), _tracer_ns(tracer)]

        ckpt = trainer.pretrain(manifest_path, run_cfg, epoch_callback=on_epoch)
        calls += 1
        out.attempted += n * EPOCHS_PER_CALL
        out.check("losses_finite", np.all(np.isfinite(losses)))
        out.check("loss_decreases", losses[-1] < losses[0])
        out.report.setdefault("losses", []).append(losses)
        spans += call_spans[1:]
        if between is not None and between.tables is None:
            between.tables = extract(ckpt, manifest_path, cfg, out)
        call_s = perf_counter() - call_start
    return {"checkpoint": ckpt, "ops": n * EPOCHS_PER_CALL * calls,
            **_throughput(spans, n, out)}


def extract_pass(cfg: trainer.TrainConfig, ckpt: trainer.Checkpoint, manifest_path: Path,
                 seconds: float, out: Outcome, tracer: Tracer | None = None,
                 between: Between | None = None) -> dict:
    """Feature extraction over train+test: a warm-up pass, then passes,
    each after a ``between`` sample, for about ``seconds``."""
    first = extract(ckpt, manifest_path, cfg, out)
    rows = sum(len(t.ids) for t in first)
    if between is not None:
        between.tables = first
    spans = []
    start = perf_counter()
    while len(spans) < 2 or perf_counter() - start < seconds:
        if between is not None:
            between()
        begin = (perf_counter(), _tracer_ns(tracer))
        tables = extract(ckpt, manifest_path, cfg, out)
        spans.append((*begin, perf_counter(), _tracer_ns(tracer)))
        out.check("features_repeat", all(np.array_equal(a.features, b.features)
                                         for a, b in zip(first, tables)))
    return {"ops": rows * (1 + len(spans)), **_throughput(spans, rows, out)}


def run(wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """One benchmark run of a workload.

    Untraced, it reports the end-to-end metrics. Traced, it measures the
    untraced throughput for half the seconds, then repeats a set-up and the
    main phase under the tracer for the other half.
    """
    out = Outcome()
    cfg = trainer.TrainConfig(seed=seed, **wl.config)
    manifest_path = make_dataset(wl, seed, workdir, out)
    checkpoint_path = None
    if not wl.train:
        model = trainer.build_model(cfg)
        original = trainer.snapshot(model, trainer.AdamW(model.parameters()), cfg, epoch=0)
        checkpoint_path = workdir / "probe.ckpt"
        trainer.save_checkpoint(original, checkpoint_path)

    def main_pass(duration: float, between: Between, tracer: Tracer | None = None) -> dict:
        between()
        if wl.train:
            # traced, the probe fits would blur the training phase's spans
            return train_pass(cfg, manifest_path, duration, out, tracer,
                              between if tracer is None else None)
        return extract_pass(cfg, between.checkpoint, manifest_path, duration, out, tracer,
                            between)

    between = Between(cfg, manifest_path, checkpoint_path, out)
    main = main_pass(seconds / 2 if trace else seconds, between)
    between.check()
    if wl.train:
        final = main["checkpoint"]
        trainer.save_checkpoint(final, workdir / "final.ckpt")
        loaded = trainer.load_checkpoint(workdir / "final.ckpt")
        out.check("checkpoint_roundtrip", same_checkpoint(final, loaded))
        accuracy, chosen_c = evaluation.probe_with_sweep(*extract(loaded, manifest_path, cfg, out))
        out.attempted += 1
    else:
        final = between.checkpoint
        out.check("checkpoint_roundtrip", same_checkpoint(original, final))
        accuracy, chosen_c = next(iter(between.probe_results))
    out.report["param_dtypes"] = sorted({str(a.dtype) for a in final.params.values()})
    out.report["probe"] = {"accuracy": accuracy, "C": chosen_c}
    out.report["setup_times"] = between.setup_times
    out.report["probe_times"] = between.probe_times

    metrics = {
        "ops_per_s": {"value": main["rate"], "unit": "1/s"},
        "probe_s": {"value": decile(between.probe_times, 9), "unit": "s"},
        "setup_s": {"value": decile(between.setup_times, 9), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    rate_name = "train_samples_per_s" if wl.train else "extract_rows_per_s"
    out.report["named"] = {rate_name: metrics["ops_per_s"],
                           **{k: v for k, v in metrics.items() if k != "ops_per_s"}}
    if not trace:
        out.metrics = metrics
        return out

    tracer = Tracer()
    tracer.install()
    try:
        traced_between = Between(cfg, manifest_path, checkpoint_path, out)
        traced = main_pass(seconds / 2, traced_between, tracer)
    finally:
        tracer.uninstall()
    traced_between.check()
    out.report["absent_spans"] = tracer.absent
    out.metrics = tracer.metrics(traced["ops"], traced["unattributed_ms"])
    out.metrics["trace.overhead_ratio"] = {"value": traced["rate"] / main["rate"],
                                           "unit": "ratio"}
    return out
