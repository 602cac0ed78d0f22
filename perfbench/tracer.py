"""Spans and counters recorded around braidrep's module boundaries.

The wrappers live here, in the benchmark, not in braidrep.  ``braidrep.cli``
and several other modules import functions by name, so a wrapper replaces
every binding of the original function object in every loaded braidrep
module; methods are replaced on their classes, under every attribute that
holds them (``__rmul__ = __mul__`` shares one function).

Boundaries that run a handful of times per op get a span
(name, start, end, parent, op id).  The ring operations run millions of
times per op, so they only count calls (and ``laurent_gcd`` its time), which
keeps the trace small enough to hold in memory for a whole run.

Every time in the per-layer metrics is in reference seconds, like the rest
of the benchmark: a span's duration is scaled by the probe factor of the op
it ran in (``scales``, filled in by run.py).  The spans file keeps the raw
wall-clock times, with each op's factor next to them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _mul_name(args):
    return "matrix.mul." + args[0].domain.name


# (module, function, span name, note(args, result) -> dict of counts)
FUNCTION_SPANS = [
    ("braidrep.cli", "main", "cli.main", None),
    ("braidrep.irreducibility", "matrix_algebra_span", "irreducibility.span",
     lambda args, r: {"span_dim": r, "images": len(args[0])}),
    ("braidrep.irreducibility", "invariant_line_witness", "irreducibility.witness",
     lambda args, r: {"found": int(r is not None)}),
    ("braidrep.irreducibility", "is_irreducible", "irreducibility.verdict",
     lambda args, r: {"reducible": int(r.status == "reducible")}),
    ("braidrep.irreducibility", "specialize", "irreducibility.specialize", None),
    ("braidrep.irreducibility", "specialized_extension", "irreducibility.specialize", None),
    ("braidrep.irreducibility", "symbolic_extension", "irreducibility.specialize", None),
    ("braidrep.solver", "assemble", "solver.assemble",
     lambda args, r: {"equations": len(r.equations),
                      "entries": len(r.equations) + r.discarded_zero + r.discarded_duplicate}),
    ("braidrep.solver", "solve_linear", "solver.solve_linear", None),
    ("braidrep.solver", "solve_with_residue", "solver.residue", None),
    ("braidrep.reps", "verify_relations", "reps.verify_relations", None),
    ("braidrep.reps", "evaluate_word", "reps.evaluate_word",
     lambda args, r: {"letters": len(args[1])}),
    ("braidrep.presentations", "build_presentation", "presentations.build", None),
    ("braidrep.kernel", "pure_commutator_certificate", "kernel.certificate", None),
]

# (module, class, method, span name or name(args), note)
METHOD_SPANS = [
    ("braidrep.matrix", "Matrix", "__mul__", _mul_name,
     lambda args, r: {"entry_mults": args[0].rows * args[0].cols * args[1].cols}),
    ("braidrep.matrix", "Matrix", "nullspace", "matrix.nullspace", None),
    ("braidrep.matrix", "Matrix", "inverse", "matrix.inverse", None),
]

# (module, class, method, counter name)
METHOD_COUNTERS = [
    ("braidrep.laurent", "LaurentPoly", "__mul__", "laurent.poly_mul.calls"),
    ("braidrep.laurent", "LaurentPoly", "__add__", "laurent.poly_add.calls"),
    ("braidrep.laurent", "RationalFunction", "__init__", "laurent.ratfunc_new.calls"),
    ("braidrep.symbolic", "SymPoly", "__mul__", "symbolic.sympoly_mul.calls"),
]

# (module, function, counter name): calls and total time, no span.
FUNCTION_TIMERS = [
    ("braidrep.laurent", "laurent_gcd", "laurent.gcd"),
]

# Every per-layer metric, with its unit, in report order.
PER_LAYER = {
    "cli.main.self_s": "s",
    "irreducibility.span.calls": "count",
    "irreducibility.span.total_s": "s",
    "irreducibility.span.self_s": "s",
    "irreducibility.span.products": "count",
    "irreducibility.span.attempts": "count",
    "irreducibility.span.accept_ratio": "ratio",
    "irreducibility.witness.calls": "count",
    "irreducibility.witness.total_s": "s",
    "irreducibility.witness.self_s": "s",
    "irreducibility.witness.found_ratio": "ratio",
    "irreducibility.verdict.reducible": "count",
    "irreducibility.specialize.total_s": "s",
    **{f"matrix.mul.{dom}.{m}": u
       for dom in ("rational", "laurent", "symbolic")
       for m, u in (("calls", "count"), ("total_s", "s"), ("entry_mults", "count"))},
    "matrix.nullspace.calls": "count",
    "matrix.nullspace.total_s": "s",
    "matrix.inverse.calls": "count",
    "matrix.inverse.total_s": "s",
    "laurent.gcd.calls": "count",
    "laurent.gcd.total_s": "s",
    "laurent.ratfunc_new.calls": "count",
    "laurent.poly_mul.calls": "count",
    "laurent.poly_add.calls": "count",
    "symbolic.sympoly_mul.calls": "count",
    "solver.assemble.total_s": "s",
    "solver.assemble.self_s": "s",
    "solver.assemble.equations": "count",
    "solver.assemble.entries": "count",
    "solver.assemble.kept_ratio": "ratio",
    "solver.solve_linear.total_s": "s",
    "solver.solve_linear.self_s": "s",
    "solver.residue.self_s": "s",
    "reps.verify_relations.calls": "count",
    "reps.verify_relations.total_s": "s",
    "reps.verify_relations.self_s": "s",
    "reps.evaluate_word.calls": "count",
    "reps.evaluate_word.total_s": "s",
    "reps.evaluate_word.letters": "count",
    "presentations.build.calls": "count",
    "presentations.build.total_s": "s",
    "kernel.certificate.calls": "count",
    "kernel.certificate.total_s": "s",
    "trace.ops": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead": "ratio",
}


class Tracer:
    """Installs the wrappers on demand and keeps what they record."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, notes]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.timed: dict[tuple[str, int], float] = defaultdict(float)  # (key, op) -> s
        self.scales: dict[int, float] = {}  # op id -> reference s per wall s
        self.op = -1
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name(args) if callable(name) else name, 0.0, 0.0,
                   stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, result)
            return result
        return wrapper

    def _counter(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timer(self, fn, key):
        counts, timed, clock = self.counts, self.timed, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key + ".calls"] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                timed[key + ".total_s", self.op] += clock() - start
        return wrapper

    # -- installation ----------------------------------------------------------

    def _replace_function(self, module, attr, wrapper_for):
        original = getattr(sys.modules[module], attr)
        wrapper = wrapper_for(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "braidrep" or name.startswith("braidrep.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _replace_method(self, module, cls_name, method, wrapper_for):
        cls = getattr(sys.modules[module], cls_name)
        original = cls.__dict__[method]
        wrapper = wrapper_for(original)
        for key, value in list(vars(cls).items()):
            if value is original:
                self._undo.append((cls, key, original))
                setattr(cls, key, wrapper)

    def install(self):
        for module, attr, name, note in FUNCTION_SPANS:
            self._replace_function(module, attr, lambda f, n=name, k=note: self._span(f, n, k))
        for module, attr, key in FUNCTION_TIMERS:
            self._replace_function(module, attr, lambda f, k=key: self._timer(f, k))
        for module, cls, method, name, note in METHOD_SPANS:
            self._replace_method(module, cls, method,
                                 lambda f, n=name, k=note: self._span(f, n, k))
        for module, cls, method, key in METHOD_COUNTERS:
            self._replace_method(module, cls, method, lambda f, k=key: self._counter(f, k))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- results ----------------------------------------------------------------

    def _duration(self, rec) -> float:
        """A span's duration in reference seconds."""
        return (rec[2] - rec[1]) * self.scales[rec[4]]

    def metrics(self, untraced_s: float, traced_s: float) -> dict[str, float]:
        """Per-layer sums over the traced ops, in reference seconds.
        total_s and calls count only the outermost span of a name
        (Matrix.inverse over the Laurent ring calls itself over Q(t));
        self_s is a span's duration minus the time its child spans cover."""
        spans = self.spans
        out: dict[str, float] = defaultdict(float)
        for name, value in self._self_times().items():
            out[name + ".self_s"] = value
        products = 0
        for rec in spans:
            name, parent = rec[0], rec[3]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[name + ".calls"] += 1
                out[name + ".total_s"] += self._duration(rec)
            for key, value in (rec[5] or {}).items():
                out[f"{name}.{key}"] += value
            if name.startswith("matrix.mul.") and parent >= 0 \
                    and spans[parent][0] == "irreducibility.span":
                products += 1
        for key, value in self.counts.items():
            out[key] += value
        for (key, op), value in self.timed.items():
            out[key] += value * self.scales[op]
        out["irreducibility.span.products"] = products
        out["irreducibility.span.attempts"] = (out["irreducibility.span.products"]
                                               + out["irreducibility.span.calls"]
                                               + out["irreducibility.span.images"])
        out["irreducibility.span.accept_ratio"] = _ratio(
            out["irreducibility.span.span_dim"], out["irreducibility.span.attempts"])
        out["irreducibility.witness.found_ratio"] = _ratio(
            out["irreducibility.witness.found"], out["irreducibility.verdict.reducible"])
        out["solver.assemble.kept_ratio"] = _ratio(
            out["solver.assemble.equations"], out["solver.assemble.entries"])
        out["trace.ops"] = len(self.scales)
        out["trace.untraced_s"] = untraced_s
        out["trace.traced_s"] = traced_s
        out["trace.overhead"] = _ratio(traced_s, untraced_s)
        return {name: out[name] for name in PER_LAYER}

    def _self_times(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += self._duration(rec)
        out: dict[str, float] = defaultdict(float)
        for idx, rec in enumerate(spans):
            out[rec[0]] += self._duration(rec) - child[idx]
        return out

    def self_shares(self) -> dict[str, float]:
        """Each span name's self time as a share of all traced time; every
        span lies inside cli.main, so the shares add up to 1."""
        selfs = self._self_times()
        total = sum(selfs.values())
        return {name: value / total
                for name, value in sorted(selfs.items(), key=lambda kv: -kv[1])}

    def write_spans(self, path, origin: float) -> None:
        """One JSON object per line: name, start and end (wall seconds since
        ``origin``), parent span index (-1 for none), op id and the op's
        reference seconds per wall second."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"name": rec[0], "start": rec[1] - origin,
                                     "end": rec[2] - origin, "parent": rec[3],
                                     "op": rec[4], "scale": self.scales[rec[4]]}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
