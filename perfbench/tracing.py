"""Span tracing of pdc's layers, installed from outside the package.

`Tracer.install` replaces the public functions and methods listed in
`SPANS` with wrappers that record one span per call: its name, start,
end, the span that was open when it started (its parent) and the op id
the benchmark set before the call.  Spans stay in memory, in flat arrays
indexed in order of start, and are written out when the run ends.  A
layer's self time is its spans' durations minus the part of each span
that its child spans cover; a layer's call count is the number of its
spans whose parent belongs to another layer, so calls inside the layer
(ParamRational.__sub__ calling __add__, say) are not counted twice.

Counts that the per-layer metrics need are taken at the same
boundaries: non-trivial gcds and expand_bar terms from the wrapped
calls' return values, the largest coefficient size from each
RationalFunction built, and DescElement constructions by a counting
hook that records no span.  Nothing under src/ is modified; uninstall
restores every original.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

# span name -> "module:attribute path" targets wrapped under that name
SPANS = {
    "polynomial.gcd": ["pdc.polynomial:Polynomial.gcd"],
    "polynomial.divmod": ["pdc.polynomial:Polynomial.divmod_"],
    "polynomial.mul": ["pdc.polynomial:Polynomial.__mul__"],
    "ratfun.canon": ["pdc.ratfun:RationalFunction.__init__"],
    "ratfun.fe_check": ["pdc.ratfun:fe_check"],
    "ratfun.pole_check": ["pdc.ratfun:pole_check"],
    "fields.param": [f"pdc.fields:ParamRational.{name}" for name in (
        "make", "const", "__add__", "__radd__", "__neg__", "__sub__",
        "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
        "__eq__")],
    "fields.gaussian": [f"pdc.fields:GaussianRational.{name}" for name in (
        "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
        "__rmul__", "inverse", "__truediv__", "__rtruediv__", "__eq__")],
    "laurent.laurent_expand": ["pdc.laurent:laurent_expand"],
    "laurent.u_expand": ["pdc.laurent:u_expand"],
    "descendents.normalize": ["pdc.descendents:normalize"],
    "descendents.parse_element": ["pdc.descendents:parse_element"],
    "virasoro.apply_op": ["pdc.virasoro:apply_op"],
    "virasoro.apply_shift": ["pdc.virasoro:apply_shift"],
    "virasoro.commutator": ["pdc.virasoro:commutator"],
    "virasoro.build": ["pdc.virasoro:build_quadratic",
                       "pdc.virasoro:build_constraint",
                       "pdc.virasoro:build_constraint_composed"],
    "partitions.set_partitions": ["pdc.partitions:set_partitions"],
    "correspondence.expand_bar": ["pdc.correspondence:expand_bar"],
    "series.local_curve_series": ["pdc.series:local_curve_series"],
    "series.cap_series": ["pdc.series:cap_series"],
    "series.reduce": ["pdc.series:reduce"],
    "series.load_db": ["pdc.series:load_db"],
    "series.records_to_json": ["pdc.series:records_to_json"],
    "cli.main": ["pdc.cli:main"],
}

# count-only hooks: counter name -> target; these record no span
COUNTERS = {
    "descendents.element.calls": "pdc.descendents:DescElement.__init__",
}

# (metric name, unit): every per-layer metric a traced run reports, in order
LAYER_METRICS = [
    ("polynomial.gcd.calls", "count"),
    ("polynomial.gcd.self_s", "s"),
    ("polynomial.gcd.nontrivial_ratio", "ratio"),
    ("polynomial.divmod.calls", "count"),
    ("polynomial.divmod.self_s", "s"),
    ("polynomial.mul.calls", "count"),
    ("polynomial.mul.self_s", "s"),
    ("ratfun.canon.calls", "count"),
    ("ratfun.canon.self_s", "s"),
    ("ratfun.coeff_bits_max", "bits"),
    ("ratfun.fe_check.self_s", "s"),
    ("ratfun.pole_check.self_s", "s"),
    ("fields.param.calls", "count"),
    ("fields.param.self_s", "s"),
    ("fields.gaussian.calls", "count"),
    ("fields.gaussian.self_s", "s"),
    ("laurent.u_expand.calls", "count"),
    ("laurent.u_expand.self_s", "s"),
    ("laurent.laurent_expand.calls", "count"),
    ("laurent.laurent_expand.self_s", "s"),
    ("descendents.element.calls", "count"),
    ("descendents.normalize.calls", "count"),
    ("descendents.normalize.self_s", "s"),
    ("descendents.parse_element.self_s", "s"),
    ("virasoro.apply_op.calls", "count"),
    ("virasoro.apply_op.self_s", "s"),
    ("virasoro.apply_shift.self_s", "s"),
    ("virasoro.commutator.self_s", "s"),
    ("virasoro.build.self_s", "s"),
    ("partitions.set_partitions.self_s", "s"),
    ("correspondence.expand_bar.calls", "count"),
    ("correspondence.expand_bar.self_s", "s"),
    ("correspondence.expand_bar.terms", "count"),
    ("series.local_curve_series.self_s", "s"),
    ("series.cap_series.self_s", "s"),
    ("series.reduce.calls", "count"),
    ("series.reduce.self_s", "s"),
    ("series.load_db.self_s", "s"),
    ("series.records_to_json.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _coeff_bits(c) -> int:
    """Bit length of the largest integer in an exact scalar of any pdc
    field (Fraction, Gaussian rational or parameter-field ratio)."""
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    if hasattr(c, "re"):
        return max(_coeff_bits(c.re), _coeff_bits(c.im))
    return max((_coeff_bits(v) for part in (c.num, c.den)
                for v in part.values()), default=0)


def _after_gcd(tracer, args, result):
    if result.degree > 0:
        tracer.counts["polynomial.gcd.nontrivial"] += 1


def _after_canon(tracer, args, result):
    rf = args[0]
    bits = max((_coeff_bits(c) for p in (rf.num, rf.den) for c in p.coeffs),
               default=0)
    if bits > tracer.counts["ratfun.coeff_bits_max"]:
        tracer.counts["ratfun.coeff_bits_max"] = bits


def _after_expand_bar(tracer, args, result):
    tracer.counts["correspondence.expand_bar.terms"] += len(result)


AFTER = {
    "polynomial.gcd": _after_gcd,
    "ratfun.canon": _after_canon,
    "correspondence.expand_bar": _after_expand_bar,
}


def self_times(starts, ends, parents) -> array:
    """Self time of every span: its duration minus the part of it that its
    children cover.

    Spans are listed in order of start and parents[i] is the index of span
    i's parent, or -1.  Child intervals are merged where they overlap and
    clipped to the parent, so each instant is subtracted once.
    """
    covered = array("d", bytes(8 * len(starts)))
    reach = array("d", starts)  # per parent: end of the part subtracted
    for i, p in enumerate(parents):
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("d", (e - s - c for s, e, c in zip(starts, ends, covered)))


def _resolve(target: str):
    """(owner, attribute name) for a "module:Class.attr" or "module:func"
    target; the owner is a class or a module."""
    module_name, _, path = target.partition(":")
    owner = sys.modules[module_name]
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder for pdc's public functions."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.current = -1
        self.op_id = -1
        self.counts: Counter = Counter()
        # (open span, seconds) of each host-speed probe the benchmark ran
        # inside a span; layer_totals takes them out of that span's self
        self.probes: list[tuple[int, float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_of, start, end = self.name_of, self.start, self.end
        parent, op = self.parent, self.op
        after = AFTER.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(tracer.current)
            op.append(tracer.op_id)
            end.append(0.0)
            tracer.current = idx
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                tracer.current = parent[idx]
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def _counting(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, target: str, make):
        owner, attr = _resolve(target)
        raw = owner.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        if isinstance(owner, type):
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            return
        # a module function: rebind every pdc module global naming it
        for module_name, module in list(sys.modules.items()):
            if module_name != "pdc" and not module_name.startswith("pdc."):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._patches.append((module, key, raw))
                    setattr(module, key, replacement)

    def install(self) -> None:
        """Wrap every target in SPANS and COUNTERS (pdc must be imported)."""
        for name, targets in SPANS.items():
            for target in targets:
                self._patch(target, functools.partial(self._wrap, name))
        for key, target in COUNTERS.items():
            self._patch(target, functools.partial(self._counting, key))

    def uninstall(self) -> None:
        """Restore every original function and method."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls into the layer, total self seconds)."""
        selfs = self_times(self.start, self.end, self.parent)
        for idx, seconds in self.probes:
            if idx >= 0:
                selfs[idx] -= seconds
        calls: Counter = Counter()
        busy: dict[str, float] = {name: 0.0 for name in self.names}
        for i, nid in enumerate(self.name_of):
            name = self.names[nid]
            busy[name] += selfs[i]
            p = self.parent[i]
            if p < 0 or self.name_of[p] != nid:
                calls[name] += 1
        return {name: (calls[name], busy[name]) for name in self.names}

    def layer_metrics(self, passes: int, overhead_ratio: float) -> dict:
        """Every metric of LAYER_METRICS, per pass of the op list."""
        totals = self.layer_totals()
        values = {}
        for name in SPANS:
            calls, busy = totals.get(name, (0, 0.0))
            values[f"{name}.calls"] = calls / passes
            values[f"{name}.self_s"] = busy / passes
        gcds = totals.get("polynomial.gcd", (0, 0.0))[0]
        values["polynomial.gcd.nontrivial_ratio"] = (
            self.counts["polynomial.gcd.nontrivial"] / gcds if gcds else 0.0)
        values["ratfun.coeff_bits_max"] = self.counts["ratfun.coeff_bits_max"]
        values["correspondence.expand_bar.terms"] = (
            self.counts["correspondence.expand_bar.terms"] / passes)
        values["descendents.element.calls"] = (
            self.counts["descendents.element.calls"] / passes)
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": values[name], "unit": unit}
                for name, unit in LAYER_METRICS}

    def dump(self, path) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name_of:l", "start:d", "end:d", "parent:l",
                             "op:l"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.start, self.end, self.parent,
                        self.op):
                arr.tofile(handle)


def load_spans(path) -> dict:
    """Read a file written by Tracer.dump back into named arrays."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        out = {"names": header["names"]}
        for spec in header["arrays"]:
            key, code = spec.split(":")
            arr = array(code)
            arr.fromfile(handle, header["spans"])
            out[key] = arr
    return out
