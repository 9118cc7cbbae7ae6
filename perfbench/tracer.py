"""Outside-in span recorder for the traced run, and the per-layer metrics.

`install` replaces lflow functions at the module or class attribute
through which the program actually looks them up (a name imported with
`from .x import f` is a separate binding and is patched where it is
used).  Each call becomes a span: id, parent id, thread id, name,
layer, start, end and a few counts taken from its arguments.  Spans are
kept in memory and written out by `Recorder.dump` when the workload
ends.  A span opened on a pool thread with nothing open on that thread
takes the innermost open span of the installing thread as its parent,
so per-curve spans hang under the `cmd_observe` that scheduled them.

`layer_metrics` turns one dump into the benchmark's per-layer metrics.
Busy times sum spans over threads, so under the thread pool they can
exceed wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

EVAL_SPANS = ("lseries.eval_truncated_l_many", "dynamics.eval_truncated_l_many")
MAP_SPANS = (
    "dynamics.eval_truncated_l_many",
    "dynamics.PolynomialMap.apply_many",
    "dynamics.ScaledExpMap.apply_many",
)
ITERATE_SPANS = ("pipeline.estimate_escape_rate", "pipeline.escape_time_field")
SAMPLE_SPANS = ("catalog.select_sample", "catalog.count_eligible_classes")

# (owner inside lflow, attribute, layer the code belongs to)
PATCHES = (
    ("cli", "main", "cli"),
    ("pipeline", "cmd_reproduce", "pipeline"),
    ("pipeline", "cmd_sample", "pipeline"),
    ("pipeline", "cmd_observe", "pipeline"),
    ("pipeline", "_observe_one", "pipeline"),
    ("pipeline", "cmd_render", "pipeline"),
    ("pipeline", "get_an_table", "pipeline"),
    ("pipeline", "pgm_bytes", "pipeline"),
    ("pipeline", "build_an_table", "lseries"),
    ("pipeline", "l_at_one", "lseries"),
    ("lseries", "trace_of_frobenius", "lseries"),
    ("lseries", "eval_truncated_l_many", "lseries"),
    ("dynamics", "eval_truncated_l_many", "lseries"),
    ("pipeline", "estimate_escape_rate", "dynamics"),
    ("pipeline", "escape_time_field", "dynamics"),
    ("dynamics", "fit_decay", "dynamics"),
    ("dynamics", "seed_cloud", "rng"),
    ("dynamics.PolynomialMap", "apply_many", "dynamics"),
    ("dynamics.ScaledExpMap", "apply_many", "dynamics"),
    ("catalog", "load_catalog", "catalog"),
    ("catalog", "select_sample", "catalog"),
    ("catalog", "count_eligible_classes", "catalog"),
    ("pipeline", "nonic_polynomial", "formal_group"),
    ("pipeline", "correlation_report", "stats"),
)


def _eval_counts(args, kwargs, result):
    table, s = args[0], args[1]
    return {"points": int(getattr(s, "size", 1)), "m": table.m,
            "nonzero": sum(1 for a in table.coefficients if a)}


def _apply_counts(args, kwargs, result):
    return {"points": int(getattr(args[1], "size", 1))}


def _observe_counts(args, kwargs, result):
    threads = args[1].threads
    return {"workers": threads if threads > 0 else (os.cpu_count() or 1)}


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = self._stack()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._root_stack[-1]
        except IndexError:
            return 0

    def wrap(self, owner, attr: str, name: str, layer: str, counts=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            stack = self._stack()
            parent = self._parent(stack)
            stack.append(span_id)
            attrs = None
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                attrs = {"error": type(exc).__name__}
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if attrs is None and counts is not None:
                    attrs = counts(args, kwargs, result)
                self.spans.append(
                    (span_id, parent, threading.get_ident(), name, layer, t0, t1, attrs)
                )
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)


def install() -> Recorder:
    """Patch every entry of PATCHES that exists; warn about the rest."""
    import lflow.pipeline

    def cache_bytes(args, kwargs, result):
        path = lflow.pipeline.cache_path(args[2], args[0].label, args[1])
        return {"bytes": path.stat().st_size if path.exists() else 0}

    counters = {
        "lseries.eval_truncated_l_many": _eval_counts,
        "dynamics.eval_truncated_l_many": _eval_counts,
        "dynamics.PolynomialMap.apply_many": _apply_counts,
        "dynamics.ScaledExpMap.apply_many": _apply_counts,
        "pipeline.cmd_observe": _observe_counts,
        "pipeline.get_an_table": cache_bytes,
    }
    recorder = Recorder()
    for owner_path, attr, layer in PATCHES:
        module_path, _, class_name = owner_path.partition(".")
        owner = importlib.import_module(f"lflow.{module_path}")
        if class_name:
            owner = getattr(owner, class_name, None)
        name = f"{owner_path}.{attr}"
        if owner is None or not callable(getattr(owner, attr, None)):
            print(f"perfbench: trace point {name} not found, its metrics read 0", file=sys.stderr)
            continue
        recorder.wrap(owner, attr, name, layer, counters.get(name))
    return recorder


# --- aggregation (runs in the harness, needs no lflow) ---------------------


def _covered(t0: float, t1: float, intervals) -> float:
    """Length of the part of [t0, t1] covered by the union of intervals."""
    total, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans) -> tuple[dict[str, float], dict[str, float], list[float]]:
    """(per-layer metrics, self seconds per layer, per-curve span seconds)
    from one dump."""
    children: dict[int, list] = {}
    by_name: dict[str, list] = {}
    for sp in spans:
        children.setdefault(sp[1], []).append(sp)
        by_name.setdefault(sp[3], []).append(sp)

    def named(*names):
        return [sp for n in names for sp in by_name.get(n, ())]

    def busy(*names):
        return sum(sp[6] - sp[5] for sp in named(*names))

    def self_time(sp):
        return (sp[6] - sp[5]) - _covered(sp[5], sp[6], [(c[5], c[6]) for c in children.get(sp[0], ())])

    def total(spans_, key):
        return sum((sp[7] or {}).get(key, 0) for sp in spans_)

    calls = [sp[7] for sp in named(*EVAL_SPANS) if sp[7] and "m" in sp[7]]
    point_terms = sum(c["points"] * c["m"] for c in calls)
    useful_terms = sum(c["points"] * c["nonzero"] for c in calls)
    # computed from array sizes: one complex128 term matrix per call, the
    # float64 coefficient and log vectors, the complex128 input and output
    computed_bytes = sum(16 * c["points"] * c["m"] + 16 * c["m"] + 32 * c["points"] for c in calls)
    eval_s = busy(*EVAL_SPANS)

    def is_miss(sp):
        return any(c[3] == "pipeline.build_an_table" for c in children.get(sp[0], ()))

    lookups = named("pipeline.get_an_table")
    misses = [sp for sp in lookups if is_miss(sp)]
    hits = [sp for sp in lookups if not is_miss(sp)]

    idle = 0.0
    for sp in named("pipeline.cmd_observe"):
        workers = (sp[7] or {}).get("workers", 1)
        curves = [c for c in children.get(sp[0], ()) if c[3] == "pipeline._observe_one"]
        idle += workers * (sp[6] - sp[5]) - sum(c[6] - c[5] for c in curves)

    metrics = {
        "lseries.eval_s": eval_s,
        "lseries.point_terms": point_terms,
        "lseries.ns_per_point_term": eval_s * 1e9 / point_terms if point_terms else 0.0,
        "lseries.nonzero_term_ratio": useful_terms / point_terms if point_terms else 0.0,
        "lseries.computed_bytes": computed_bytes,
        "lseries.build_s": busy("pipeline.build_an_table"),
        "lseries.tables_built": len(named("pipeline.build_an_table")),
        "lseries.primes_counted": len(named("lseries.trace_of_frobenius")),
        "dynamics.iterate_s": busy(*ITERATE_SPANS),
        "dynamics.self_s": sum(self_time(sp) for sp in named(*ITERATE_SPANS)),
        "dynamics.evals": total(named(*MAP_SPANS), "points"),
        "dynamics.fit_s": busy("dynamics.fit_decay"),
        "pipeline.cache_hits": len(hits),
        "pipeline.cache_misses": len(misses),
        "pipeline.cache_read_s": sum(sp[6] - sp[5] for sp in hits),
        "pipeline.cache_write_s": sum(self_time(sp) for sp in misses),
        "pipeline.cache_bytes": total(lookups, "bytes"),
        "pipeline.pgm_s": busy("pipeline.pgm_bytes"),
        "pipeline.observe_idle_s": idle,
        "catalog.load_s": busy("catalog.load_catalog"),
        "catalog.sample_s": busy(*SAMPLE_SPANS),
        "formal_group.expand_s": busy("pipeline.nonic_polynomial"),
        "stats.correlate_s": busy("pipeline.correlation_report"),
    }
    self_by_layer: dict[str, float] = {}
    for sp in spans:
        self_by_layer[sp[4]] = self_by_layer.get(sp[4], 0.0) + self_time(sp)
    curves = [sp[6] - sp[5] for sp in named("pipeline._observe_one")]
    return metrics, self_by_layer, curves
