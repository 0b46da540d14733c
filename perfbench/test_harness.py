"""Micro-size smoke test of the benchmark harness.

    PYTHONPATH=src python -m pytest -q perfbench

Runs every workload on tiny models and datasets, untraced and traced, and
checks that each metric named in BENCHMARK.json is reported with its unit,
that spans nest, and that a missing trace target is reported as absent.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from recloud import autograd, trainer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_PATCH = dict(num_points=64, num_patches=8, patch_size=8, feature_dim=16,
                  encoder_depth=2, decoder_depth=1, num_heads=2, pe_hidden=16,
                  token_hidden=16, fc_hidden=32, fold_hidden=16, learning_rate=0.01)
TINY_CLOUD = dict(num_points=64, pointnet_hidden="8,16", feature_dim=16, fc_hidden=32,
                  learning_rate=0.01)


def tiny(name: str) -> workloads.Workload:
    wl = workloads.WORKLOADS[name]
    small = TINY_CLOUD if wl.config["encoder"] == "pointnet" else TINY_PATCH
    return replace(wl, config={**wl.config, **small}, samples_per_family=5)


def test_benchmark_json_names_the_harness_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == spans.layer_metric_names()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_metric_with_its_unit(name, trace, tmp_path):
    out = workloads.run(tiny(name), seed=3, seconds=0.05, trace=trace, workdir=tmp_path)
    assert out.correct, out.checks
    assert out.attempted > 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(out.metrics) == sorted(m["name"] for m in expected)
    for m in expected:
        assert out.metrics[m["name"]]["unit"] == m["unit"], m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in out.metrics.values())
    else:
        assert out.report["absent_spans"] == []
        assert out.metrics["autograd.ops.calls"]["value"] > 0
    # the tracer leaves no wrapper behind
    assert not hasattr(trainer.backward, "__wrapped__")
    assert not hasattr(autograd.matmul, "__wrapped__")


def test_child_spans_nest_inside_their_parents(tmp_path):
    wl = tiny("patch-dae")
    out = workloads.Outcome()
    manifest = workloads.make_dataset(wl, 0, tmp_path, out)
    cfg = trainer.TrainConfig(seed=0, epochs=1, **wl.config)
    tracer = spans.Tracer(record=True)
    tracer.install()
    try:
        trainer.pretrain(manifest, cfg)
    finally:
        tracer.uninstall()
    records = tracer.records
    names = {r[0] for r in records}
    assert {"trainer.prepare_sample", "geometry.knn", "autograd.backward",
            "layers.SelfAttention", "trainer.AdamW.step"} <= names
    nested = 0
    for name, parent, start, end in records:
        assert start <= end
        if parent >= 0:
            _, _, p_start, p_end = records[parent]
            assert p_start <= start and end <= p_end, (name, records[parent][0])
            nested += 1
    assert nested > 0
    assert all(self_ns >= 0 for _, self_ns in tracer.stats.values())
    top = sum(end - start for _, parent, start, end in records if parent < 0)
    assert top == tracer.top_ns


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setitem(spans.SPANS, "models", spans.SPANS["models"] + (
        "PatchAutoencoder.no_such_method", "NoSuchClass"))
    monkeypatch.setitem(spans.SPANS, "geometry", spans.SPANS["geometry"] + ("no_such_fn",))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["geometry.no_such_fn", "models.PatchAutoencoder.no_such_method",
                             "models.NoSuchClass"]
    metrics = tracer.metrics(ops=1, unattributed_ms=0.0)
    assert metrics["geometry.no_such_fn.calls"] == {"value": 0.0, "unit": "count"}
