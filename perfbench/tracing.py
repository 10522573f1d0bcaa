"""Spans around the calls into each layer of `singlat`, from outside it.

`install()` replaces every binding of the traced public functions in the
loaded `singlat` modules (the defining module and every module that
imported the name) with a wrapper that records a span: function name,
start, end, the operation it belongs to, and the span that caused it.
Spans stay in memory until the round ends. Counts come from the traced
functions' return values. Nothing under `src/` is edited.

A metric's time is the self time of its spans: each span's duration less
the time its directly nested spans cover. `linalg`, `dsl` and `jsonio`
spans are leaves: calls made inside them are their own work and open no
span, so the leading minors of the definiteness test count to
`linalg.negdef_ms`, not to `linalg.det_ms`.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# metric name -> (module, functions); every function's span counts to it
TIMED = {
    "linalg.negdef_ms": ("linalg", ("is_positive_definite",)),
    "linalg.det_ms": ("linalg", ("determinant",)),
    "linalg.smith_ms": ("linalg", ("smith_normal_form",)),
    "linalg.invert_ms": ("linalg", ("invert",)),
    "linalg.solve_ms": ("linalg", ("solve",)),
    "graph.dual_basis_ms": ("graph", ("dual_basis", "dual_cycle")),
    "graph.extend_ms": ("graph", ("extend_graph",)),
    "lattice.class_group_ms": ("lattice", ("class_group",)),
    "laufer.fundamental_cycle_ms": ("laufer", ("fundamental_cycle",)),
    "laufer.rational_ms": ("laufer", ("laufer_rational",)),
    "laufer.min_reps_ms": ("laufer", ("minimal_antinef_rep", "antinef_closure")),
    "laufer.elliptic_cycle_ms": ("laufer", ("minimally_elliptic_cycle",)),
    "laufer.classify_singularity_ms": ("laufer", ("classify_singularity",)),
    "classify.special_ms": ("classify", ("special_full_sheaves",)),
    "classify.wunram_ms": ("classify", ("wunram_table",)),
    "classify.full_sheaf_ms": ("classify", ("full_sheaf_classes_rational",
                                            "full_sheaf_classes_min_elliptic",
                                            "flat_annotation")),
    "oracle.antinef_points_ms": ("oracle", ("antinef_points",)),
    "oracle.min_chi_ms": ("oracle", ("brute_min_chi",)),
    "oracle.verify_all_ms": ("oracle", ("verify_all",)),
    "dsl.parse_ms": ("dsl", ("parse",)),
    "jsonio.encode_ms": ("jsonio", ("dumps", "document", "encode_graph", "encode_cycle",
                                    "encode_class_group", "encode_singularity",
                                    "encode_report", "encode_vertex_record",
                                    "encode_specialness", "encode_transcript")),
}
LEAF_MODULES = {"linalg", "dsl", "jsonio"}
COUNTS = ("lattice.classes", "laufer.sequence_steps", "laufer.chi_grid_points",
          "classify.families", "oracle.points", "oracle.checks")
# rate metric -> the count it divides by the inclusive time of the spans
# that returned the counted objects
RATES = {"laufer.steps_per_s": "laufer.sequence_steps", "oracle.points_per_s": "oracle.points"}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, op, parent]
        self.stack = []          # indices of open spans
        self.leaf_depth = 0      # > 0 while inside a leaf span
        self.op = -1             # -1: set-up
        self.counts = defaultdict(int)
        self.rate_time = defaultdict(list)   # count name -> [op, seconds] pairs
        self._seen = {}          # id -> object, kept alive so ids stay unique

    def wrap(self, qualname: str, module: str, fn, on_return):
        tracer = self
        leaf = module in LEAF_MODULES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.leaf_depth:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            record = [qualname, 0.0, 0.0, tracer.op, parent]
            tracer.spans.append(record)
            tracer.stack.append(index)
            tracer.leaf_depth += leaf
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.leaf_depth -= leaf
                tracer.stack.pop()
            if on_return is not None:
                on_return(tracer, result, args, record[2] - record[1])
            return result

        return traced

    def seen_first(self, obj) -> bool:
        """True the first time a cached result object comes back."""
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj
        return True


def _count_classes(tracer, cg, args, elapsed):
    if tracer.seen_first(cg):
        tracer.counts["lattice.classes"] += cg.order


def _count_sequence(tracer, seq, args, elapsed):
    if tracer.seen_first(seq):
        tracer.counts["laufer.sequence_steps"] += len(seq)
        tracer.rate_time["laufer.sequence_steps"].append([tracer.op, elapsed])


def _count_grid(original_fundamental_cycle):
    def count(tracer, cycle, args, elapsed):
        g = args[0]
        z_min = original_fundamental_cycle(g).end
        tracer.counts["laufer.chi_grid_points"] += math.prod(
            int(z_min.coefficient(vid)) + 1 for vid in g.ids)
    return count


def _count_families(tracer, report, args, elapsed):
    tracer.counts["classify.families"] += len(report.families)


def _count_points(tracer, points, args, elapsed):
    tracer.counts["oracle.points"] += len(points)
    tracer.rate_time["oracle.points"].append([tracer.op, elapsed])


def _count_checks(tracer, transcript, args, elapsed):
    tracer.counts["oracle.checks"] += len(transcript.checks)


def install() -> Tracer:
    """Wrap the traced functions in every loaded `singlat` module."""
    import singlat  # noqa: F401 - loads every submodule
    from singlat import laufer

    tracer = Tracer()
    on_return = {
        "lattice.class_group": _count_classes,
        "laufer.fundamental_cycle": _count_sequence,
        "laufer.antinef_closure": _count_sequence,
        "laufer.minimally_elliptic_cycle": _count_grid(laufer.fundamental_cycle),
        "classify.full_sheaf_classes_rational": _count_families,
        "classify.full_sheaf_classes_min_elliptic": _count_families,
        "oracle.antinef_points": _count_points,
        "oracle.verify_all": _count_checks,
    }
    replacements = {}
    for module, names in TIMED.values():
        source = sys.modules[f"singlat.{module}"]
        for name in names:
            qualname = f"{module}.{name}"
            original = getattr(source, name)
            replacements[id(original)] = (original, tracer.wrap(
                qualname, module, original, on_return.get(qualname)))
    for modname, mod in list(sys.modules.items()):
        if modname != "singlat" and not modname.startswith("singlat."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return tracer


METRIC_OF = {f"{module}.{name}": metric
             for metric, (module, names) in TIMED.items() for name in names}


def summarize(spans, counts, rate_time, scale) -> dict:
    """Per-metric totals of one round: self times in ms, counts, rates.

    `scale(op)` is the factor that brings a time measured during operation
    `op` (-1: set-up) to the reference speed, as for the end-to-end times.
    """
    child_time = defaultdict(float)
    for name, start, end, op, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {metric: 0.0 for metric in TIMED}
    for index, (name, start, end, op, parent) in enumerate(spans):
        out[METRIC_OF[name]] += (end - start - child_time[index]) * 1000.0 * scale(op)
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    for rate, count in RATES.items():
        seconds = sum(elapsed * scale(op) for op, elapsed in rate_time.get(count, ()))
        out[rate] = counts.get(count, 0) / seconds if seconds > 0 else 0.0
    return out
