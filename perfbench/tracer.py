"""Outside-in span tracer for the recdiff benchmark.

The library is never edited.  ``Tracer.install`` wraps each layer boundary
listed in ``BOUNDARIES`` by rebinding every ``recdiff`` module attribute
that holds the original function object (a function imported by name into
several modules is rebound in all of them), or the class attribute for a
method.  Each call records one span ``[name, start, end, parent, note]`` in
memory; ``uninstall`` restores the originals.  Spans are written out only
after the measured phase.  A boundary that no longer exists is listed in
``Tracer.missing`` and its metrics are left out instead of failing.

Recording is single-threaded by design: the parent of a span is the span
open on the tracer's stack when it starts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _isolate_note(result):
    return {"refused": result is None}


def _count_note(result):
    return {"T": result.T, "S": result.S}


# (span name, module, attribute path, note taken from the return value)
BOUNDARIES = (
    ("cli.dispatch", "recdiff.cli", "dispatch", None),
    ("spectral.analyze", "recdiff.spectral", "analyze_sequence", None),
    ("roots.factor", "recdiff._roots", "factor_integer_poly", None),
    ("roots.isolate", "recdiff._roots", "isolate_factor_roots", _isolate_note),
    ("recurrences.term", "recdiff.recurrences", "LinearRecurrence.term", None),
    ("counting.count", "recdiff.counting", "count_T_S", _count_note),
    ("counting.collisions", "recdiff.counting", "find_collisions", None),
    ("counting.oracle", "recdiff.counting", "brute_force_oracle", None),
    ("counting.explorer", "recdiff.counting", "count_real_power_pairs", None),
    ("asymptotics.ratio_table", "recdiff.asymptotics", "ratio_table", None),
    ("matveev.bounds", "recdiff.matveev", "effective_upper_bounds", None),
    ("matveev.lambda", "recdiff.matveev", "lambda_value", None),
    ("heights.log_height", "recdiff.heights", "log_height", None),
    ("heights.probe", "recdiff.heights", "height_constant_probe", None),
    ("independence.test", "recdiff.independence", "multiplicative_independence", None),
)

# IntervalField construction is counted, not timed: fields are cheap and many.
FIELD_BOUNDARY = ("intervals.field", "recdiff.intervals", "IntervalField.__init__")

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.fields_created = 0
        self.max_bits = 0
        self.missing = []
        self._stack = []
        self._undo = []

    # -- recording ------------------------------------------------------

    def wrap(self, name, fn, note=None):
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[NOTE] = {"error": type(exc).__name__}
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(result)
            return result

        return traced

    def _count_field(self, init):
        tracer = self

        @functools.wraps(init)
        def counted(field, prec, *args, **kwargs):
            tracer.fields_created += 1
            tracer.max_bits = max(tracer.max_bits, prec)
            return init(field, prec, *args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------

    def install(self, boundaries=BOUNDARIES, field_boundary=FIELD_BOUNDARY):
        for name, module, path, note in boundaries:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, original = found
            self._rebind(owner, attr, original, self.wrap(name, original, note))
        if field_boundary is not None:
            name, module, path = field_boundary
            found = _resolve(module, path)
            if found is None:
                self.missing.append(name)
            else:
                owner, attr, original = found
                self._rebind(owner, attr, original, self._count_field(original))

    def _rebind(self, owner, attr, original, wrapper):
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "recdiff" and not name.startswith("recdiff."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- export ---------------------------------------------------------

    def export(self):
        return {"spans": self.spans, "fields_created": self.fields_created,
                "max_bits": self.max_bits, "missing": self.missing}


def _resolve(module_name, path):
    """(owner, attribute, original object) for a boundary, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if not callable(original):
        return None
    return owner, attr, original


def merge(exports):
    """Concatenate several exported traces (one per process) into one."""
    spans, fields, max_bits, missing = [], 0, 0, set()
    for part in exports:
        offset = len(spans)
        for name, start, end, parent, note in part["spans"]:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, note])
        fields += part["fields_created"]
        max_bits = max(max_bits, part["max_bits"])
        missing.update(part["missing"])
    return {"spans": spans, "fields_created": fields, "max_bits": max_bits,
            "missing": sorted(missing)}


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans):
    """Each span's duration minus the part of it covered by its child spans."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _has_ancestor(spans, index, name):
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return parent
        parent = spans[parent][PARENT]
    return None


# per-layer metric -> (span name, kind); kind "s" is time not counted twice
# under a span of the same name, "self_s" is self time, "calls" a count
SPAN_METRICS = {
    "cli.dispatch_s": ("cli.dispatch", "s"),
    "roots.factor_calls": ("roots.factor", "calls"),
    "roots.isolate_calls": ("roots.isolate", "calls"),
    "roots.isolate_s": ("roots.isolate", "s"),
    "spectral.analyze_calls": ("spectral.analyze", "calls"),
    "spectral.analyze_s": ("spectral.analyze", "s"),
    "spectral.analyze_self_s": ("spectral.analyze", "self_s"),
    "recurrences.term_calls": ("recurrences.term", "calls"),
    "recurrences.term_s": ("recurrences.term", "s"),
    "counting.count_s": ("counting.count", "s"),
    "counting.count_self_s": ("counting.count", "self_s"),
    "counting.collisions_s": ("counting.collisions", "s"),
    "counting.oracle_s": ("counting.oracle", "s"),
    "counting.explorer_s": ("counting.explorer", "s"),
    "asymptotics.ratio_table_s": ("asymptotics.ratio_table", "s"),
    "matveev.bounds_s": ("matveev.bounds", "s"),
    "matveev.lambda_s": ("matveev.lambda", "s"),
    "heights.log_height_s": ("heights.log_height", "s"),
    "heights.probe_s": ("heights.probe", "s"),
    "independence.test_s": ("independence.test", "s"),
}

# metrics derived from several spans, with the span names they need
DERIVED_METRICS = {
    "roots.isolate_refused": ("roots.isolate",),
    "spectral.analyze_cache_hits": ("spectral.analyze", "roots.factor"),
    "spectral.rung_success_ratio": ("spectral.analyze", "roots.factor"),
    "counting.pairs": ("counting.count",),
    "counting.distinct": ("counting.count",),
    "intervals.fields_created": ("intervals.field",),
    "intervals.max_bits": ("intervals.field",),
}


def layer_metrics(trace):
    """Per-layer metrics of one merged trace; metrics of missing boundaries
    are omitted."""
    spans, missing = trace["spans"], set(trace["missing"])
    selfs = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
    out = {}
    for metric, (name, kind) in SPAN_METRICS.items():
        if name in missing:
            continue
        picked = by_name.get(name, [])
        if kind == "calls":
            out[metric] = len(picked)
        elif kind == "self_s":
            out[metric] = sum(selfs[i] for i in picked)
        else:
            out[metric] = sum(spans[i][END] - spans[i][START] for i in picked
                              if _has_ancestor(spans, i, name) is None)

    computed, factors_under = set(), 0
    for i in by_name.get("roots.factor", []):
        owner = _has_ancestor(spans, i, "spectral.analyze")
        if owner is not None:
            computed.add(owner)
            factors_under += 1
    certified = sum(1 for i in computed if spans[i][NOTE] is None)
    notes = {name: [spans[i][NOTE] or {} for i in by_name.get(name, [])]
             for name in ("roots.isolate", "counting.count")}
    counts = [n for n in notes["counting.count"] if "T" in n]
    derived = {
        "roots.isolate_refused": sum(1 for n in notes["roots.isolate"] if n.get("refused")),
        "spectral.analyze_cache_hits": len(by_name.get("spectral.analyze", [])) - len(computed),
        # 0 when no factorisation ran under analyze_sequence
        "spectral.rung_success_ratio": certified / factors_under if factors_under else 0.0,
        "counting.pairs": sum(n["T"] for n in counts),
        "counting.distinct": sum(n["S"] for n in counts),
        "intervals.fields_created": trace["fields_created"],
        "intervals.max_bits": trace["max_bits"],
    }
    for metric, needs in DERIVED_METRICS.items():
        if not missing.intersection(needs):
            out[metric] = derived[metric]
    return out
