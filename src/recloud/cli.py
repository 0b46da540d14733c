"""Command-line entry point for the full pipeline.

Subcommands: synth, corrupt, pretrain, probe, fewshot, reconstruct. Every
run echoes its fully resolved configuration (as reusable ``key = value``
lines) before executing, writes only under ``--out``, and derives all
randomness from ``--seed`` by ``data.stream``; probe features are keyed by
each sample's id instead. Exit codes: 0 success, 1 a diverging pretrain
run (its last finite checkpoint is written) or an internal error, 2 usage,
3 missing file, 4 invalid configuration, 5 degenerate masking.

``pretrain`` computes each batch's later micro-batches in helper processes,
one per further usable CPU (``trainer.pretrain``); its outputs are the same
bytes for any CPU count. Each helper runs one BLAS thread. A caller whose own
BLAS runs a thread per CPU (numpy's default) gains nothing from them, as the
CPUs are then oversubscribed. Pin the caller's BLAS to one thread
(``OPENBLAS_NUM_THREADS=1``, as the benchmark runs) for the helpers to pay:
on a 2-vCPU Xeon one helper then nearly halves a ``patch-dae`` epoch.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .corruption import ALL_FAMILIES, COMPOSITION_ORDER, DegenerateMaskError, enabled_families
from .data import (SynthSpec, check_seed, read_cloud, resample, stream, synth_generate,
                   write_cloud)
from .evaluation import (EpisodeSpec, check_regularizations, extract_features, fewshot_eval,
                         fewshot_report, linear_probe, probe_with_sweep, reconstruct_export)
from .geometry import denormalize_patches
from .trainer import (CHOICES, PATCH_MASKS, POINT_MASKS, DivergenceError, TrainConfig,
                      load_checkpoint, parse_config_text, prepare_sample, pretrain,
                      save_checkpoint)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_FILE = 3
EXIT_BAD_CONFIG = 4
EXIT_DEGENERATE_MASK = 5

# --affine: "full" enables every sub-family, any other value names one, or none
AFFINE_FAMILIES = {"full": TrainConfig.affine_families, **{c: c for c in ALL_FAMILIES + ("none",)}}
MASK_CHOICES = tuple(dict.fromkeys(POINT_MASKS + PATCH_MASKS))


def _echo_config(pairs: dict) -> None:
    for key in sorted(pairs):
        print(f"{key} = {pairs[key]}")


def _build_train_config(args) -> TrainConfig:
    kwargs: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"no such config file: {path}")
        kwargs.update(parse_config_text(path.read_text(), source=str(path)))
    overrides = {
        "epochs": args.epochs,
        "learning_rate": args.lr,
        "batch_size": args.batch_size,
        "num_points": args.num_points,
        "seed": args.seed,
        "encoder": args.encoder,
        "affine_role": args.affine_role,
        "objective": args.objective,
        "mask_strategy": args.mask,
        "mask_ratio": args.alpha,
        "global_weight": args.global_weight,
        "decoder": args.decoder,
        "local_decoder": args.local_decoder,
        "global_decoder": args.global_decoder,
        "precision": args.precision,
    }
    if args.affine is not None:
        overrides["affine_families"] = AFFINE_FAMILIES[args.affine]
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    return TrainConfig(**kwargs)


def _cmd_synth(args) -> int:
    spec = SynthSpec(families=tuple(args.families.split(",")),
                     samples_per_family=args.samples_per_family,
                     points_per_cloud=args.points,
                     jitter_sigma=args.jitter,
                     seed=args.seed)
    _echo_config({"families": args.families, "samples_per_family": spec.samples_per_family,
                  "points_per_cloud": spec.points_per_cloud, "jitter_sigma": spec.jitter_sigma,
                  "seed": spec.seed, "out": args.out})
    manifest = synth_generate(spec, args.out)
    print(f"wrote {len(manifest)} samples and manifest.tsv under {args.out}")
    return EXIT_OK


def _load_affine_spec_file(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such affine spec file: {p}")
    kwargs = parse_config_text(p.read_text(), source=str(p))
    allowed = {k for k in kwargs if k.startswith("affine_")}
    unknown = set(kwargs) - allowed
    if unknown:
        raise ValueError(f"{p}: non-affine keys in affine spec: {sorted(unknown)}")
    return kwargs


def _cmd_corrupt(args) -> int:
    kwargs: dict = {"seed": args.seed, "mask_ratio": args.alpha}
    if args.affine_spec:
        kwargs.update(_load_affine_spec_file(args.affine_spec))
    if args.affine is not None:
        kwargs["affine_families"] = AFFINE_FAMILIES[args.affine]
    if args.mask == "patch":
        kwargs.update(encoder="transformer", mask_strategy="patch",
                      num_patches=args.patches, patch_size=args.patch_size)
    else:
        kwargs.update(encoder="pointnet", mask_strategy=args.mask,
                      cluster_size=args.cluster_size, max_clusters=args.max_clusters)
    cfg = TrainConfig(**kwargs)

    pts = read_cloud(args.input)
    if args.num_points is not None:
        pts = resample(pts, args.num_points, stream(args.seed, "corrupt"))
    _echo_config({"input": args.input, "out": args.out, "mask": args.mask,
                  "alpha": args.alpha, "seed": args.seed,
                  "affine_families": cfg.affine_families,
                  "input_points": len(pts)})

    # a batch of one
    sample = prepare_sample(pts[None], cfg, [stream(args.seed, "sample", 0, 0)])
    plan = sample.plans and sample.plans[0]
    visible = (denormalize_patches(sample.visible).patches[0].reshape(-1, 3)
               if args.mask == "patch" else sample.visible[0])

    enabled = enabled_families(cfg.affine_families)
    meta: dict = {"transform": sample.transforms[0].tolist(),
                  "provenance": [f for f in COMPOSITION_ORDER if f in enabled]}
    if plan is not None:
        meta["masked"] = plan.masked.tolist()
        meta["cluster_sizes"] = list(plan.cluster_sizes)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_cloud(out / "corrupted.xyz", visible)
    (out / "plan.json").write_text(json.dumps(meta) + "\n")
    print(f"wrote {len(visible)} visible points to {out / 'corrupted.xyz'}")
    return EXIT_OK


def _cmd_pretrain(args) -> int:
    cfg = _build_train_config(args)
    print(cfg.to_text(), end="")
    resume = load_checkpoint(args.resume) if args.resume else None
    out = Path(args.out)
    try:  # pretrain makes ``out`` once its checks pass, to write the metrics
        ckpt = pretrain(args.manifest, cfg, metrics_path=out / "metrics.csv", resume=resume)
    except DivergenceError as exc:
        save_checkpoint(exc.checkpoint, out / "checkpoint.ckpt")
        print(f"error: divergence: {exc}", file=sys.stderr)
        return EXIT_ERROR
    save_checkpoint(ckpt, out / "checkpoint.ckpt")
    print(f"finished epoch {ckpt.epoch}; checkpoint and metrics.csv under {out}")
    return EXIT_OK


def _cmd_probe(args) -> int:
    check_regularizations((args.regularization,))
    check_seed(args.seed)
    ckpt = load_checkpoint(args.checkpoint)
    _echo_config({"checkpoint": args.checkpoint, "manifest": args.manifest,
                  "out": args.out, "random_init": args.random_init,
                  "regularization": args.regularization, "sweep": args.sweep,
                  "seed": args.seed})
    train = extract_features(ckpt, args.manifest, split="train", random_init=args.random_init)
    test = extract_features(ckpt, args.manifest, split="test", random_init=args.random_init)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train.to_csv(out / "features_train.csv")
    test.to_csv(out / "features_test.csv")
    if args.sweep:
        accuracy, chosen_c = probe_with_sweep(train, test, seed=args.seed)
    else:
        accuracy, chosen_c = linear_probe(train, test, regularization=args.regularization), args.regularization
    report = {"accuracy": accuracy, "regularization": chosen_c,
              "random_init": args.random_init, "train_rows": len(train.ids),
              "test_rows": len(test.ids)}
    (out / "probe_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"probe accuracy {accuracy:.4f} (C={chosen_c}) -> {out / 'probe_report.json'}")
    return EXIT_OK


def _cmd_fewshot(args) -> int:
    spec = EpisodeSpec(ways=args.ways, shots=args.shots, queries=args.queries,
                       repetitions=args.repetitions, seed=args.seed)
    ckpt = load_checkpoint(args.checkpoint)
    _echo_config({"checkpoint": args.checkpoint, "manifest": args.manifest,
                  "out": args.out, "ways": spec.ways, "shots": spec.shots,
                  "queries": spec.queries, "repetitions": spec.repetitions,
                  "split": args.split, "seed": spec.seed})
    features = extract_features(ckpt, args.manifest, split=args.split)
    mean, std, accs = fewshot_eval(features, spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "fewshot_report.json").write_text(fewshot_report(mean, std, accs))
    print(f"few-shot accuracy {mean:.4f} +/- {std:.4f} over {spec.repetitions} episodes")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    check_seed(args.seed)
    ckpt = load_checkpoint(args.checkpoint)
    _echo_config({"checkpoint": args.checkpoint, "input": args.input,
                  "out": args.out, "seed": args.seed})
    pts = read_cloud(args.input)
    files = reconstruct_export(ckpt, pts, args.out, seed=args.seed)
    for name, path in files.items():
        print(f"{name}: {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="recloud",
                                     description="Point-cloud pretraining by corruption "
                                                 "and reconstruction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic shape dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--families", default="sphere,cube,cylinder,torus")
    p.add_argument("--samples-per-family", type=int, default=20)
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--jitter", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("corrupt", help="apply affine + masking corruption to one cloud")
    p.add_argument("--input", required=True, help="input cloud (xyz or ply)")
    p.add_argument("--out", required=True)
    p.add_argument("--mask", required=True, choices=MASK_CHOICES)
    p.add_argument("--alpha", type=float, default=0.6, help="masking ratio")
    p.add_argument("--affine", choices=AFFINE_FAMILIES, default=None)
    p.add_argument("--affine-spec", default=None, help="key-value file of affine_* keys")
    p.add_argument("--cluster-size", type=int, default=16)
    p.add_argument("--max-clusters", type=int, default=8)
    p.add_argument("--patches", type=int, default=16)
    p.add_argument("--patch-size", type=int, default=16)
    p.add_argument("--num-points", type=int, default=None, help="resample before corrupting")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("pretrain", help="run the pretraining loop")
    p.add_argument("--config", default=None, help="key-value config file")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--num-points", type=int, default=None)
    p.add_argument("--encoder", choices=CHOICES["encoder"], default=None)
    p.add_argument("--affine-role", choices=CHOICES["affine_role"], default=None)
    p.add_argument("--objective", choices=CHOICES["objective"], default=None)
    p.add_argument("--mask", choices=MASK_CHOICES, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--affine", choices=AFFINE_FAMILIES, default=None)
    p.add_argument("--global-weight", type=float, default=None)
    p.add_argument("--decoder", choices=CHOICES["decoder"], default=None,
                   help="whole-cloud decoder head (global encoder)")
    p.add_argument("--local-decoder", choices=CHOICES["local_decoder"], default=None)
    p.add_argument("--global-decoder", choices=CHOICES["global_decoder"], default=None)
    p.add_argument("--precision", choices=CHOICES["precision"], default=None)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("probe", help="linear SVM probe on frozen features")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--random-init", action="store_true",
                   help="probe a freshly initialized encoder instead of the trained one")
    p.add_argument("--regularization", type=float, default=1.0)
    p.add_argument("--sweep", action="store_true", help="sweep C over {0.1, 1, 10}")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("fewshot", help="few-shot episode evaluation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ways", type=int, default=4)
    p.add_argument("--shots", type=int, default=10)
    p.add_argument("--queries", type=int, default=15)
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument("--split", choices=("train", "test"), default="train")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fewshot)

    p = sub.add_parser("reconstruct", help="export corruption + reconstruction stages")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_reconstruct)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing-file: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except DegenerateMaskError as exc:
        print(f"error: degenerate-mask: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_MASK
    except (ValueError, TypeError) as exc:
        print(f"error: invalid-config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
