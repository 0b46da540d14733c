"""Benchmark entry point: one workload per process.

    python3 perfbench/run.py --workload patch-dae --seed 1 --seconds 30 --trace 0

Prints one JSON line with the full report (environment, input digest,
named metrics, checks, arithmetic fingerprint), then, as the last line,
the result: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

# One BLAS thread, set before numpy is first imported: steadier timings, and
# never more threads than CPUs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    """The machine and software a result was measured on."""
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        # only this checkout's own repository, not one that encloses it
        top, _, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                                      cwd=ROOT, capture_output=True, text=True,
                                      timeout=10).stdout.partition("\n")
        if top and Path(top).resolve() == ROOT:
            commit = head.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "recloud").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "recloud" / "__init__.py").is_file():
        print(f"perfbench: no recloud sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(workloads.WORKLOADS)})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        out = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), Path(workdir))
    try:
        work_root.rmdir()
    except OSError:
        pass  # another run is still using it
    attempted = max(out.attempted, 1)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "checks": out.checks,
              **out.report}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": out.correct, "attempted": attempted,
                      "failed": 0 if out.correct else attempted, "metrics": out.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
