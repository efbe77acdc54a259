"""Outside-in tracing of mdemap's layers.

`Tracer.install()` wraps the public functions of each mdemap module
from here, without touching the package: every binding of a wrapped
function in any loaded `mdemap.*` module is replaced, so calls through
names that `cli.py` and `io.py` bind with `from ... import` are traced
too. Each wrapped call records a span (name, start, end, parent span,
run id) in memory; `dump()` writes the spans and counters out once, when
the traced process ends. The tracer times its own work, outside the
wrapped calls and in `install()`, as its overhead. `layer_metrics()`
folds the span files of one run into the per-layer metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _count_parse(c, args, kwargs, out):
    c["ingest.points"] += len(out)
    c["ingest.skipped"] += out.skipped


def _count_extract(c, args, kwargs, out):
    c["ingest.vectors"] += len(out[0])


def _count_add(c, args, kwargs, out):
    c["field.add_calls"] += 1
    c["field.vectors_scanned"] += len(args[1])


def _count_finish(c, args, kwargs, out):
    c["field.meshes"] += len(out.entries)
    c["field.meshes_defined"] += out.n_defined


def _count_combine(c, args, kwargs, out):
    c["fusion.meshes_scored"] += len(out.scores)


def _count_peaks(c, args, kwargs, out):
    c["fusion.peaks"] += len(out)


def _count_written(c, args, kwargs, out):
    path = kwargs.get("path", args[-1])
    c["io.files_written"] += 1
    c["io.bytes_written"] += os.path.getsize(path)


def _kernel(fn_name):
    def count(c, args, kwargs, out):
        first = np.asarray(args[0])
        if fn_name == "min_haversine_m":   # one distance per (a, b) pair
            c[f"kernels.{fn_name}_elements"] += first.size * np.size(args[2])
        else:
            c[f"kernels.{fn_name}_elements"] += first.size
        outs = out if isinstance(out, tuple) else (out,)
        c["kernels.bytes_computed"] += sum(
            a.nbytes for a in (*args, *outs) if isinstance(a, np.ndarray))
    return count


KERNELS = ("direction_bins", "count_mesh_bins", "group_counts",
           "field_entropy", "min_haversine_m")
COMMANDS = ("synth", "compute", "combine", "evaluate", "export")

# (module, function, span name, counter or None)
FUNCTIONS = [
    ("mdemap.ingest", "parse_points", "ingest.parse", _count_parse),
    ("mdemap.ingest", "extract_movements", "ingest.extract", _count_extract),
    ("mdemap.fusion", "normalize", "fusion.normalize", None),
    ("mdemap.fusion", "combine", "fusion.combine", _count_combine),
    ("mdemap.fusion", "find_local_peaks", "fusion.peaks", _count_peaks),
    ("mdemap.evaluation", "top_k", "evaluation.top_k", None),
    ("mdemap.evaluation", "recall_curve", "evaluation.recall", None),
    ("mdemap.evaluation", "precision_curve", "evaluation.precision", None),
    ("mdemap.synth", "generate", "synth.generate", None),
    ("mdemap.io", "read_field_csv", "io.read_field", None),
    ("mdemap.io", "read_combined_csv", "io.read_combined", None),
    ("mdemap.io", "read_stations_csv", "io.read_stations", None),
    ("mdemap.io", "field_geojson", "io.geojson_build", None),
    ("mdemap.io", "combined_geojson", "io.geojson_build", None),
] + [("mdemap.io", f"write_{kind}", f"io.write_{kind.split('_csv')[0]}",
      _count_written)
     for kind in ("points_csv", "stations_csv", "field_csv", "combined_csv",
                  "recall_csv", "precision_csv", "geojson", "summary")
     ] + [("mdemap.kernels", k, f"kernels.{k}", _kernel(k)) for k in KERNELS
          ] + [("mdemap.cli", f"cmd_{c}", f"cli.{c}", None) for c in COMMANDS]

# (module, class, method, span name, counter or None)
METHODS = [
    ("mdemap.field", "FieldAccumulator", "add", "field.add", _count_add),
    ("mdemap.field", "FieldAccumulator", "finish", "field.finish",
     _count_finish),
    ("mdemap.field", "FieldAccumulator", "merge", "field.merge", None),
]

# Hot leaf calls that are counted, not spanned: a span per call would
# cost more than the call.
COUNTED = [("mdemap.mesh", "mesh_center", "mesh.center_calls")]


class Tracer:
    """Spans and counters of one traced process; install once."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: Counter = Counter()
        self.overhead = [0.0]   # seconds spent in the tracer's own code
        self._stack: list[int] = []

    def _span(self, name, fn, count):
        spans, stack, counts, run_id, overhead = (
            self.spans, self._stack, self.counts, self.run_id, self.overhead)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            enter = clock()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, run_id)
            if count is not None:
                count(counts, args, kwargs, out)
            overhead[0] += t0 - enter + clock() - t1
            return out
        return wrapper

    def _counted(self, name, fn):
        counts, overhead = self.counts, self.overhead
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            enter = clock()
            counts[name] += 1
            t0 = clock()
            out = fn(*args, **kwargs)
            t1 = clock()
            overhead[0] += t0 - enter + clock() - t1
            return out
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded mdemap module."""
        start = time.perf_counter()
        import mdemap.cli  # noqa: F401  loads every layer module

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "mdemap" or n.startswith("mdemap.")) and m]
        for mod, fn_name, name, count in FUNCTIONS:
            orig = getattr(sys.modules[mod], fn_name)
            _rebind(modules, orig, self._span(name, orig, count))
        for mod, fn_name, name in COUNTED:
            orig = getattr(sys.modules[mod], fn_name)
            _rebind(modules, orig, self._counted(name, orig))
        for mod, cls_name, meth, name, count in METHODS:
            cls = getattr(sys.modules[mod], cls_name)
            setattr(cls, meth, self._span(name, getattr(cls, meth), count))
        self.overhead[0] += time.perf_counter() - start

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": dict(self.counts),
                       "overhead_s": self.overhead[0]}, f)


def _rebind(modules, orig, wrapper) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


# -- per-layer metrics ---------------------------------------------------

# Inclusive times, self times (spans with traced children) and counts.
TIMES = (["ingest.parse", "ingest.extract", "field.add", "field.finish",
          "field.merge"] + [f"kernels.{k}" for k in KERNELS]
         + ["fusion.normalize", "fusion.combine", "fusion.peaks",
            "evaluation.top_k", "evaluation.recall", "evaluation.precision",
            "io.write_points", "io.read_field", "io.write_field",
            "io.read_combined", "io.write_combined", "io.geojson_build",
            "io.write_geojson", "synth.generate"]
         + [f"cli.{c}" for c in COMMANDS])
SELF_TIMES = (["field.add", "field.finish", "evaluation.recall",
               "evaluation.precision"] + [f"cli.{c}" for c in COMMANDS])
COUNTS = (["ingest.points", "ingest.skipped", "ingest.vectors",
           "field.add_calls", "field.vectors_scanned", "field.meshes",
           "field.meshes_defined"]
          + [f"kernels.{k}_elements" for k in KERNELS]
          + ["fusion.meshes_scored", "fusion.peaks", "io.files_written",
             "mesh.center_calls"])


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{n}_s": "s" for n in TIMES}
    units.update({f"{n}.self_s": "s" for n in SELF_TIMES})
    units.update({n: "count" for n in COUNTS})
    units.update({"kernels.bytes_computed": "bytes",
                  "io.bytes_written": "bytes", "trace.wall_s": "s",
                  "trace.overhead_s": "s"})
    return units


def layer_metrics(span_files, wall_s: float) -> dict[str, float]:
    """Per-layer totals over the span files of one traced pass.

    `trace.wall_s` is the traced pass's wall time, to compare with the
    untraced `wall_s`; `trace.overhead_s` is the tracer's own time.
    """
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    overhead = 0.0
    for path in span_files:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        spans = data["spans"]
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for (name, t0, t1, _, _), inner in zip(spans, child_time):
            inclusive[name] += t1 - t0
            own[name] += t1 - t0 - inner
        counts.update(data["counts"])
        overhead += data["overhead_s"]
    out = {}
    for metric in layer_metric_units():
        if metric == "trace.wall_s":
            out[metric] = wall_s
        elif metric == "trace.overhead_s":
            out[metric] = overhead
        elif metric.endswith(".self_s"):
            out[metric] = own[metric[:-len(".self_s")]]
        elif metric.endswith("_s"):
            out[metric] = inclusive[metric[:-2]]
        else:
            out[metric] = counts[metric]
    return out
