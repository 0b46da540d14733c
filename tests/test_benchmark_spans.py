"""Every name the benchmark traces exists, and the grouping of clouds into
patches goes through the traced geometry names, so deleting, renaming or
going around a traced function fails here and not only in the harness's
own smoke test."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import pytest  # noqa: E402
import spans  # noqa: E402
from recloud.data import SynthSpec, synth_generate  # noqa: E402
from recloud.evaluation import MICRO_BATCH, extract_features  # noqa: E402
from recloud.trainer import TrainConfig, pretrain  # noqa: E402


def test_every_traced_span_exists():
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == []


GROUPING = ("geometry.patchify", "geometry.farthest_point_sample", "geometry.knn")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A tiny patch model's dataset and config."""
    root = tmp_path_factory.mktemp("spans")
    manifest = synth_generate(SynthSpec(samples_per_family=2, points_per_cloud=48, seed=1),
                              root / "data")
    cfg = TrainConfig(encoder="transformer", epochs=1, num_points=48, num_patches=6,
                      patch_size=6, feature_dim=8, encoder_depth=2, decoder_depth=1,
                      num_heads=2, pe_hidden=8, token_hidden=8, fc_hidden=16, fold_hidden=8,
                      batch_size=8, seed=2)
    return manifest, cfg


def traced(fn):
    """The recorded spans of ``fn()``, as (name, parent name) pairs."""
    tracer = spans.Tracer(record=True)
    tracer.install()
    try:
        result = fn()
    finally:
        tracer.uninstall()
    records = tracer.records
    return result, [(name, records[parent][0] if parent >= 0 else None)
                    for name, parent, _, _ in records]


def test_pretrain_groups_through_the_traced_names(tiny_run):
    manifest, cfg = tiny_run
    _, seen = traced(lambda: pretrain(manifest, cfg))
    pairs = set(seen)
    assert ("geometry.patchify", "trainer.prepare_sample") in pairs
    assert ("geometry.farthest_point_sample", "geometry.patchify") in pairs
    assert ("geometry.knn", "geometry.patchify") in pairs
    # one grouping per micro-batch, not one per sample
    calls = {name: sum(1 for n, _ in seen if n == name) for name in GROUPING}
    prepared = sum(1 for n, _ in seen if n == "trainer.prepare_sample")
    assert calls == {name: prepared for name in GROUPING}


def test_extraction_groups_through_the_traced_names(tiny_run):
    manifest, cfg = tiny_run
    ckpt = pretrain(manifest, cfg)
    table, seen = traced(lambda: extract_features(ckpt, manifest, "train"))
    pairs = set(seen)
    assert ("geometry.farthest_point_sample", "geometry.patchify") in pairs
    assert ("geometry.knn", "geometry.patchify") in pairs
    batches = -(-len(table.ids) // MICRO_BATCH)
    assert sum(1 for n, _ in seen if n == "geometry.patchify") == batches
    assert sum(1 for n, _ in seen if n == "geometry.knn") == batches
