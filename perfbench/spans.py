"""Span tracing for the benchmark, installed from outside the package.

Each traced target is a public function, a method, or a layer's ``__call__`` in a
``recloud`` module. The tracer replaces every module-level binding of the
target (``trainer`` imports ``backward`` and ``patchify`` by name, for
example) with a wrapper that times the call and charges its duration to
the enclosing span. A span's self time is its duration minus the time its
child spans cover. Totals are aggregated as the run goes, so memory stays
flat however long the run is.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from time import perf_counter_ns

PACKAGE = "recloud"

# Traced targets per module: "name" is a function, or a class whose
# ``__call__`` is traced; "Class.method" is a method.
SPANS = {
    "data": ("load_split", "read_cloud"),
    "geometry": ("patchify", "farthest_point_sample", "knn", "affine_apply",
                 "normalize_patches"),
    "corruption": ("sample_affine", "mask_view_occlusion", "mask_patches"),
    "autograd": ("backward", "matmul", "add", "pairwise_sqdist", "min_over_axis",
                 "gather_rows", "scatter_rows", "softmax", "layer_norm", "gelu", "reshape"),
    "layers": ("SelfAttention", "FeedForward", "LayerNorm", "Linear"),
    "models": ("PatchAutoencoder.encode_visible", "PatchAutoencoder.encode_all",
               "TokenEmbedder", "PositionalEmbed", "TransformerEncoder", "PatchDecoder",
               "FoldDecoder", "GlobalCenterHead", "PointNetEncoder", "FCDecoder"),
    "losses": ("loss_local", "loss_global", "chamfer"),
    "trainer": ("build_model", "prepare_sample", "sample_loss", "AdamW.step", "snapshot",
                "save_checkpoint", "load_checkpoint"),
    "evaluation": ("extract_features", "linear_probe", "probe_with_sweep"),
}

# autograd functions that are not graph operations
_NOT_OPS = ("backward", "finite_difference_check")


def span_names() -> list[str]:
    return [f"{module}.{target}" for module, targets in SPANS.items() for target in targets]


def layer_metric_names() -> list[str]:
    """Every per-layer metric the tracer reports, in report order."""
    names = []
    for span in span_names():
        names += [f"{span}.self_ms", f"{span}.calls"]
    return names + ["autograd.ops.calls", "trace.unattributed_ms", "trace.overhead_ratio"]


def _load_modules() -> dict[str, object]:
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    prefix = PACKAGE + "."
    return {name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(prefix)}


class Tracer:
    """Aggregates call counts and self time per span name.

    ``top_ns`` is the time spent inside spans that have no parent span, so
    a caller can compare it with the wall time of a phase. With
    ``record=True`` every finished span is also kept as
    ``(name, parent_index, start_ns, end_ns)``, for tests of the nesting.
    """

    def __init__(self, record: bool = False):
        self.stats: dict[str, list[int]] = {}
        self.top_ns = 0
        self.absent: list[str] = []
        self.op_names: list[str] = []
        self.records: list[tuple[str, int, int, int]] | None = [] if record else None
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0])
        stack = self._stack
        records = self.records

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # frame: [time covered by child spans, own record index]
            frame = [0, -1]
            if records is not None:
                frame[1] = len(records)
                records.append(None)
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                took = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                else:
                    self.top_ns += took
                stats[0] += 1
                stats[1] += took - frame[0]
                if records is not None:
                    parent = stack[-1][1] if stack else -1
                    records[frame[1]] = (name, parent, start, end)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        modules = _load_modules()
        functions: dict[int, object] = {}  # id(original) -> wrapper
        for module, targets in SPANS.items():
            mod = modules.get(f"{PACKAGE}.{module}")
            for target in targets:
                name = f"{module}.{target}"
                owner_name, _, method = target.partition(".")
                obj = getattr(mod, owner_name, None)
                if inspect.isclass(obj):
                    attr = method or "__call__"
                    if attr in obj.__dict__ and inspect.isfunction(obj.__dict__[attr]):
                        self._set(obj, attr, self._wrap(name, obj.__dict__[attr]))
                        continue
                elif inspect.isfunction(obj) and not method:
                    functions[id(obj)] = self._wrap(name, obj)
                    continue
                self.absent.append(name)
        # every other public autograd function is a graph op: counted, not named
        autograd = modules.get(f"{PACKAGE}.autograd")
        for attr, obj in (vars(autograd).items() if autograd is not None else ()):
            if (inspect.isfunction(obj) and obj.__module__ == autograd.__name__
                    and not attr.startswith("_") and attr not in _NOT_OPS):
                self.op_names.append(f"autograd.{attr}")
                if id(obj) not in functions:
                    functions[id(obj)] = self._wrap(f"autograd.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = functions.get(id(obj))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self, ops: int, unattributed_ms: float) -> dict[str, dict]:
        """Per-layer metrics, normalised per operation of the traced run."""
        out = {}
        for name in span_names():
            calls, self_ns = self.stats.get(name, (0, 0))
            out[f"{name}.self_ms"] = {"value": self_ns / 1e6 / ops, "unit": "ms"}
            out[f"{name}.calls"] = {"value": calls / ops, "unit": "count"}
        op_calls = sum(self.stats.get(name, (0, 0))[0] for name in self.op_names)
        out["autograd.ops.calls"] = {"value": op_calls / ops, "unit": "count"}
        out["trace.unattributed_ms"] = {"value": unattributed_ms, "unit": "ms"}
        return out
