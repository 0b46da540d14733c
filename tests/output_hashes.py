"""Print the sha256 of every output a set of small runs writes, so that two
checkouts can be compared byte for byte.

    PYTHONPATH=src python tests/output_hashes.py > h.json
    PYTHONPATH=src python tests/output_hashes.py --compare a.json b.json

Run it in each checkout, then compare the two files: ``--compare`` prints
every name whose hash differs or that only one file holds, and exits 1 if
there is any. The one JSON object maps a name to a hash. For every config
of ``CONFIGS`` (every objective of the patch model, every mask of the
PointNet model, and one config of each with two micro-batches a step) in
``single`` and ``double`` precision it holds the final and epoch-1
checkpoints and ``metrics.csv`` of a two-epoch run, the checkpoint and
``metrics.csv`` of the same run resumed from epoch 1, the train and test
feature arrays and CSVs, and the files ``reconstruct_export`` writes. It
also holds the ``corrupted.xyz`` and ``plan.json`` that ``recloud corrupt``
writes for every mask under three affine options. The file name keeps
pytest from collecting it; ``test_output_hashes.py`` runs it on one config.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from recloud import cli
from recloud import trainer as tr
from recloud.data import SynthSpec, read_cloud, synth_generate, write_cloud
from recloud.evaluation import extract_features, reconstruct_export

TINY = dict(epochs=2, num_points=64, num_patches=8, patch_size=8, feature_dim=16,
            encoder_depth=2, decoder_depth=1, num_heads=2, ffn_mult=2, pe_hidden=16,
            token_hidden=16, fc_hidden=32, fold_hidden=16, pointnet_hidden="16",
            batch_size=4, seed=7)
CONFIGS = {
    "decomposed": dict(encoder="transformer"),
    "whole-unmasked": dict(encoder="transformer", objective="whole", mask_strategy="none"),
    "global-only": dict(encoder="transformer", objective="global-only", global_weight=0.3),
    "local-only": dict(encoder="transformer", objective="local-only"),
    "augmentation": dict(encoder="transformer", affine_role="augmentation", global_weight=2.5),
    "pointnet-random": dict(encoder="pointnet", mask_strategy="random"),
    "pointnet-fixed-fold": dict(encoder="pointnet", mask_strategy="fixed", cluster_size=3,
                                decoder="fold"),
    "pointnet-view": dict(encoder="pointnet", mask_strategy="view"),
    "pointnet-none": dict(encoder="pointnet", mask_strategy="none"),
    # two micro-batches a step, so a second usable CPU computes one of them
    "decomposed-batch8": dict(encoder="transformer", batch_size=8),
    "pointnet-random-batch8": dict(encoder="pointnet", mask_strategy="random", batch_size=8),
}
PRECISIONS = ("single", "double")
CORRUPT_MASKS = ("none", "random", "fixed", "view", "patch")
CORRUPT_OPTIONS = {"full": [], "none": ["--affine", "none"],
                   "rotate-resampled": ["--affine", "rotate", "--num-points", "100"]}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pretrain(manifest, cfg, out: Path, resume=None) -> tr.Checkpoint:
    """``pretrain`` into ``out``, saving its epoch-1 state as ``epoch1.ckpt``."""
    out.mkdir(parents=True)
    snapshot = tr.snapshot

    def keep_epoch1(model, opt, c, epoch):
        state = snapshot(model, opt, c, epoch)
        if epoch == 1:
            tr.save_checkpoint(state, out / "epoch1.ckpt")
        return state

    tr.snapshot = keep_epoch1
    try:
        ckpt = tr.pretrain(manifest, cfg, metrics_path=out / "metrics.csv", resume=resume)
    finally:
        tr.snapshot = snapshot
    tr.save_checkpoint(ckpt, out / "checkpoint.ckpt")
    return ckpt


def run_hashes(work: Path, configs=CONFIGS, precisions=PRECISIONS,
               corrupt_masks=CORRUPT_MASKS) -> dict[str, str]:
    """Run every config under ``work`` and hash what it writes."""
    manifest = synth_generate(SynthSpec(samples_per_family=4, points_per_cloud=64, seed=5),
                              work / "data")
    cloud = read_cloud(manifest.resolve(manifest.split("test")[0]))
    hashes: dict[str, str] = {}
    for name, overrides in configs.items():
        for precision in precisions:
            key = f"{name}/{precision}"
            cfg = tr.TrainConfig(**{**TINY, **overrides, "precision": precision})
            run = work / key
            ckpt = _pretrain(manifest, cfg, run / "straight")
            _pretrain(manifest, cfg, run / "resumed",
                      resume=tr.load_checkpoint(run / "straight" / "epoch1.ckpt"))
            for path in sorted((run / "straight").iterdir()):
                hashes[f"{key}/{path.name}"] = _sha(path)
            for path in sorted((run / "resumed").iterdir()):
                if path.name != "epoch1.ckpt":  # it is the straight run's, read back
                    hashes[f"{key}/resumed/{path.name}"] = _sha(path)
            for split in ("train", "test"):
                table = extract_features(ckpt, manifest, split)
                table.to_csv(run / f"features-{split}.csv")
                hashes[f"{key}/features-{split}"] = hashlib.sha256(
                    table.features.tobytes()).hexdigest()
                hashes[f"{key}/features-{split}.csv"] = _sha(run / f"features-{split}.csv")
            for stage, path in sorted(reconstruct_export(ckpt, cloud, run / "recon",
                                                         seed=3).items()):
                hashes[f"{key}/recon/{stage}"] = _sha(path)

    write_cloud(work / "in.xyz", np.random.default_rng(8).standard_normal((120, 3)))
    for mask in corrupt_masks:
        for option, extra in CORRUPT_OPTIONS.items():
            out = work / "corrupt" / f"{mask}-{option}"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["corrupt", "--input", str(work / "in.xyz"), "--out", str(out),
                               "--mask", mask, "--alpha", "0.4", "--cluster-size", "7",
                               "--patches", "8", "--patch-size", "8", "--seed", "13", *extra])
            if rc != 0:
                raise RuntimeError(f"recloud corrupt --mask {mask} ({option}) exited {rc}")
            for path in sorted(out.iterdir()):
                hashes[f"corrupt/{mask}-{option}/{path.name}"] = _sha(path)
    return hashes


def moved(a: Path, b: Path) -> list[str]:
    """One line per name whose hash differs between the hash files ``a`` and
    ``b`` or that only one of them holds, in name order."""
    old, new = (json.loads(path.read_text()) for path in (a, b))
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            lines.append(f"only in {a}: {name}")
        elif name not in old:
            lines.append(f"only in {b}: {name}")
        elif old[name] != new[name]:
            lines.append(f"differs: {name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two hash files instead of hashing")
    args = parser.parse_args(argv)
    if args.compare:
        lines = moved(*args.compare)
        for line in lines:
            print(line)
        return 1 if lines else 0
    with tempfile.TemporaryDirectory() as work:
        hashes = run_hashes(Path(work))
    json.dump(hashes, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
