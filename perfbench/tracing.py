"""Spans around calls into mmcl's public functions, recorded from outside
the package.

A function is wrapped at every name through which callers reach it:
``solvers`` imports the losses functions by name, so ``mmcl.losses.loss_value``
and ``mmcl.solvers.loss_value`` both get a wrapper, while ``bsgmp.partition``
reaches ``kmeans`` and ``linalg.svd`` through module globals. Wrappers exist
only while a ``Patch`` is active; untraced runs never install one.
"""

import functools
import os
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = (
    "losses.similarity_matrix", "losses.unpaired_weights",
    "losses.contrastive_cross_covariance", "losses.loss_value", "losses.loss_gradient",
    "solvers.fit_semisupervised", "solvers.fit_linear_closed_form",
    "solvers.estimate_edges", "solvers.fit_gradient_descent",
    "storage.load_dataset", "storage.save_fit", "storage.save_dataset", "storage.write_csv",
    "cli.main",
    "linalg.svd",
    "bsgmp.partition", "bsgmp.normalized_adjacency", "bsgmp.spectral_embed", "bsgmp.kmeans",
    "harness.run_experiment", "harness.sample_partners", "harness.edge_metrics",
    "harness.downstream_accuracy",
    "datagen.sample_labeled_bipartite", "datagen.sample_paired", "datagen.sample_unpaired",
)

# name -> (unit, better) for the metrics that are not per-function spans
DERIVED = {
    "losses.table_mb": ("MB/op", "lower"),
    "losses.peak_mb": ("MB", "lower"),
    "solvers.gd.accept_ratio": ("ratio", "higher"),
    "solvers.estimate_edges.keep_ratio": ("ratio", "higher"),
    "storage.bytes_read": ("bytes/op", "lower"),
    "linalg.svd.elements": ("count/op", "lower"),
    "bsgmp.kmeans.iterations": ("count/call", "lower"),
    "bsgmp.kept_ratio": ("ratio", "higher"),
    "harness.failed_trials": ("count/op", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

SPAN_METRICS = (("calls", "count/op"), ("s", "s/op"), ("self_s", "s/op"))

SETUP = "setup"  # op id of spans recorded while the inputs are generated
MB = float(2 ** 20)
# Feature dimensions are at most 60 and sample counts at least 500 in every
# workload, so a 2-D array with both sides >= 100 is a sample-by-sample table.
TABLE_MIN = 100


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [(f"{layer}.{suffix}", unit, "lower")
           for layer in LAYERS for suffix, unit in SPAN_METRICS]
    out += [(name, unit, better) for name, (unit, better) in DERIVED.items()]
    return out


def mmcl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mmcl" or name.startswith("mmcl."))]


class Patch:
    """Replaces each layer function at every mmcl name that refers to it."""

    def __init__(self, layers, make_wrapper):
        self.layers = layers
        self.make_wrapper = make_wrapper
        self.saved = []

    def __enter__(self):
        modules = mmcl_modules()
        for layer in self.layers:
            mod, fn = layer.split(".")
            orig = getattr(sys.modules["mmcl." + mod], fn)
            wrapper = functools.wraps(orig)(self.make_wrapper(layer, orig))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self.saved.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for m, attr, orig in reversed(self.saved):
            setattr(m, attr, orig)
        self.saved = []


def _tables(values):
    """Distinct sample-by-sample arrays among values, one level into results."""
    found = {}
    for v in values:
        parts = v if isinstance(v, tuple) else (v, getattr(v, "beta_off", None),
                                                getattr(v, "alpha", None),
                                                getattr(v, "alpha_bar", None))
        for a in parts:
            if getattr(a, "ndim", 0) == 2 and min(a.shape) >= TABLE_MIN:
                found[id(a)] = a
    return found.values()


def _count_tables(args, kwargs, result):
    values = list(args) + list(kwargs.values()) + [result]
    return {"table_bytes": sum(a.nbytes for a in _tables(values))}


def _count_dataset_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": sum(e.stat().st_size for e in os.scandir(path) if e.is_file())}


def _count_svd(args, kwargs, result):
    shape = getattr(args[0], "shape", (0, 0))
    return {"elements": shape[0] * shape[1]}


def _count_edges(args, kwargs, result):
    return {"n": len(args[0]), "pool_size": result.pool_size}


def _count_partition(args, kwargs, result):
    return {"kept": result.kept_edges.shape[0], "m": args[0].m}


def _count_failed(args, kwargs, result):
    return {"failed": sum(row.flags.startswith("failed:") for row in result)}


COUNTERS = {
    "losses.similarity_matrix": _count_tables,
    "losses.unpaired_weights": _count_tables,
    "losses.contrastive_cross_covariance": _count_tables,
    "losses.loss_value": _count_tables,
    "losses.loss_gradient": _count_tables,
    "solvers.estimate_edges": _count_edges,
    "solvers.fit_gradient_descent": lambda a, k, r: {"accepted": r.iterations},
    "storage.load_dataset": _count_dataset_bytes,
    "linalg.svd": _count_svd,
    "bsgmp.kmeans": lambda a, k, r: {"iterations": r.iterations},
    "bsgmp.partition": _count_partition,
    "harness.run_experiment": _count_failed,
}


class Tracer:
    """Records one span per wrapped call while ``op`` is set.

    A span is [name, start, end, parent index, op id, counts]. Spans stay in
    memory; ``records`` gives them for writing out when the run ends.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def patch(self) -> Patch:
        return Patch(LAYERS, self._wrap)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return wrapper

    def records(self):
        keys = ("name", "start", "end", "parent", "op", "counts")
        return [dict(zip(keys, span)) for span in self.spans]

    def summary(self, n_ops: int):
        """Per-layer metrics: op spans per op, set-up spans per set-up."""
        child_s = defaultdict(float)
        loss_values = defaultdict(int)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
                if name == "losses.loss_value":
                    loss_values[parent] += 1
        per = defaultdict(float)
        counts = defaultdict(float)
        for idx, (name, start, end, _, op, cnt) in enumerate(self.spans):
            scale = 1.0 if op == SETUP else 1.0 / n_ops
            per[name + ".calls"] += scale
            per[name + ".s"] += scale * (end - start)
            per[name + ".self_s"] += scale * (end - start - child_s[idx])
            for key, value in (cnt or {}).items():
                counts[name + ":" + key] += scale * value
            if name == "solvers.fit_gradient_descent":
                counts["gd:line_searches"] += scale * (loss_values[idx] - 1)
        out = {f"{layer}.{suffix}": per[f"{layer}.{suffix}"]
               for layer in LAYERS for suffix, _ in SPAN_METRICS}
        table_bytes = sum(counts[f"{layer}:table_bytes"] for layer in COUNTERS
                          if layer.startswith("losses."))
        out.update({
            "losses.table_mb": table_bytes / MB,
            "solvers.gd.accept_ratio": _ratio(counts["solvers.fit_gradient_descent:accepted"],
                                              counts["gd:line_searches"]),
            "solvers.estimate_edges.keep_ratio": _ratio(counts["solvers.estimate_edges:n"],
                                                        counts["solvers.estimate_edges:pool_size"]),
            "storage.bytes_read": counts["storage.load_dataset:bytes"],
            "linalg.svd.elements": counts["linalg.svd:elements"],
            "bsgmp.kmeans.iterations": _ratio(counts["bsgmp.kmeans:iterations"],
                                              per["bsgmp.kmeans.calls"]),
            "bsgmp.kept_ratio": _ratio(counts["bsgmp.partition:kept"],
                                       counts["bsgmp.partition:m"]),
            "harness.failed_trials": counts["harness.run_experiment:failed"],
        })
        return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer was not reached."""
    return num / den if den else 0.0


class MemoryProbe:
    """Peak traced memory above the entry level of each outermost losses call.

    Runs only in a pass of its own, so tracemalloc's cost never lands in a
    traced layer time.
    """

    def __init__(self):
        self.depth = 0
        self.peak = 0

    def patch(self) -> Patch:
        return Patch([layer for layer in LAYERS if layer.startswith("losses.")], self._wrap)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.depth == 0:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                if self.depth == 0:
                    self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - base)

        return wrapper
