"""Count the autograd graph of one pretraining micro-batch, by primitive.

    PYTHONPATH=src python tests/graph_ops.py

For each training workload of ``perfbench/workloads.py`` it builds the
model as ``pretrain`` does, corrupts one micro-batch of ``MICRO_BATCH``
random clouds, and walks the graph of its loss (the scaled ordered sum
``pretrain`` backpropagates) the way ``autograd.backward`` does: every node
a gradient reaches. Each node that is no leaf holds the backward closure
of the primitive that made it, and is counted under that primitive's name,
the head of the closure's ``__qualname__`` (``_pool`` is the max or min
pool). Only the graph's structure is counted, so the clouds' values do not
matter. The file name keeps pytest from collecting it;
``test_graph_ops.py`` runs it on small configs and on the workloads.
"""
from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np

from recloud import autograd as ag
from recloud import trainer as tr
from recloud.data import stream


def graph_ops(cfg: tr.TrainConfig) -> Counter:
    """The non-leaf nodes of one micro-batch's loss graph under ``cfg``,
    counted by the primitive that made each."""
    model = tr.build_model(cfg)
    clouds = np.random.default_rng(cfg.seed).standard_normal((tr.MICRO_BATCH, cfg.num_points, 3))
    sample = tr.prepare_sample(clouds, cfg, [stream(cfg.seed, "sample", 0, i)
                                             for i in range(tr.MICRO_BATCH)])
    total = tr.sample_loss(model, sample, cfg)[0]
    loss = ag.scale(ag.sum_in_order(total), 1.0 / cfg.batch_size)
    counts: Counter = Counter()
    seen, stack = {id(loss)}, [loss]
    while stack:
        node = stack.pop()
        if node._backward_fn is not None:
            counts[node._backward_fn.__qualname__.split(".")[0]] += 1
        for p in node._parents:
            if p._needs and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return counts


def report(name: str, counts: Counter) -> str:
    """``name: <total> nodes`` and one ``op count`` line per primitive, most
    first."""
    lines = [f"{name}: {sum(counts.values())} nodes"]
    lines += [f"  {op} {n}" for op, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
    return "\n".join(lines)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS
    for wl in WORKLOADS.values():
        if wl.train:
            print(report(wl.name, graph_ops(tr.TrainConfig(**wl.config))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
