"""Span tracer that instruments the library from outside the package.

Each traced function is replaced, in every `traceforms` module that binds it,
by a wrapper that records a span: name, start and end (`perf_counter_ns`),
the op id, and the id of the enclosing span.  Modules bind imported names at
import time (`traceform`, `galois` and `algebra` each hold their own
`charpoly`), so wrapping only the defining module would miss the inner calls.

Self time is a span's duration minus the time its traced child spans cover.
Spans are kept in a flat in-memory array and written out once, at the end.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns

# (metric prefix, defining module, attribute, reported fields).  An attribute
# of the form "Class.method" is wrapped on the class, which covers every
# caller because method lookup goes through the type.
TARGETS = (
    ("traceform.realize", "traceforms.traceform", "realize", ("calls", "total_s", "self_s")),
    ("traceform.solve_alpha", "traceforms.traceform", "solve_alpha", ("total_s",)),
    ("traceform.scaled_trace_gram", "traceforms.traceform", "scaled_trace_gram", ("total_s",)),
    ("traceform.verify_certificate", "traceforms.traceform", "verify_certificate", ("calls", "total_s", "self_s")),
    ("matrix.charpoly", "traceforms.algebra.matrix", "charpoly", ("calls", "total_s")),
    ("matrix.mul", "traceforms.algebra.matrix", "Matrix.__mul__", ("calls",)),
    ("matrix.det", "traceforms.algebra.matrix", "Matrix.det", ("calls", "total_s", "self_s")),
    ("matrix.congruence_diagonalize", "traceforms.algebra.matrix", "congruence_diagonalize", ("total_s",)),
    ("poly.is_separable", "traceforms.algebra.poly", "is_separable", ("total_s",)),
    ("poly.power_traces", "traceforms.algebra.poly", "power_traces", ("total_s",)),
    ("poly.discriminant", "traceforms.algebra.poly", "discriminant", ("total_s",)),
    ("irreducibility.is_irreducible_over_rationals", "traceforms.algebra.irreducibility",
     "is_irreducible_over_rationals", ("calls", "total_s", "self_s")),
    ("modpoly.factor_mod_p", "traceforms.algebra.modpoly", "factor_mod_p", ("calls", "total_s", "self_s")),
    ("modpoly.cycle_type_mod_p", "traceforms.algebra.modpoly", "cycle_type_mod_p", ("calls", "total_s", "self_s")),
    ("intmath.is_prime", "traceforms.algebra.intmath", "is_prime", ("calls", "total_s", "self_s")),
    ("intmath.next_prime", "traceforms.algebra.intmath", "next_prime", ("total_s",)),
    ("intmath.factorize", "traceforms.algebra.intmath", "factorize", ("calls", "total_s", "self_s")),
    ("quadform.equivalent", "traceforms.quadform", "equivalent", ("total_s",)),
    ("quadform.invariants", "traceforms.quadform", "invariants", ("total_s",)),
    ("quadform.is_isotropic", "traceforms.quadform", "is_isotropic", ("total_s",)),
    ("quadform.hilbert_symbol", "traceforms.quadform", "hilbert_symbol", ("calls", "total_s")),
    ("galois.sample_cycle_types", "traceforms.galois", "sample_cycle_types", ("calls", "total_s", "self_s")),
    ("groups.verify_group", "traceforms.groups", "verify_group", ("total_s",)),
    ("groups.construct_group", "traceforms.groups", "construct_group", ("total_s",)),
    ("groups.p_generated_subgroup", "traceforms.groups", "p_generated_subgroup", ("total_s",)),
    ("groups.quotient_check_derived", "traceforms.groups", "quotient_check_derived", ("total_s",)),
    ("groups.quotient_check_exhaustive", "traceforms.groups", "quotient_check_exhaustive", ("total_s",)),
    ("groups.index_subgroups", "traceforms.groups", "index_subgroups", ("total_s",)),
    ("serialize.certificate_to_json", "traceforms.serialize", "certificate_to_json", ("total_s",)),
    ("serialize.certificate_from_json", "traceforms.serialize", "certificate_from_json", ("total_s",)),
    ("serialize.canonical_dumps", "traceforms.serialize", "canonical_dumps", ("total_s",)),
)

# Exact counts derived from what traced calls return or raise.
COUNTERS = (
    "traceform.candidates_per_cert",
    "traceform.rejected_inseparable",
    "traceform.rejected_reducible",
    "irreducibility.is_irreducible_over_rationals.false",
    "modpoly.bad_prime",
    "galois.primes_used",
    "galois.primes_skipped",
)

FIELDS = ("span_id", "parent_id", "op_id", "name", "start_ns", "end_ns")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in output order."""
    names = [f"{prefix}.{field}" for prefix, _, _, fields in TARGETS for field in fields]
    return names + list(COUNTERS)


def _observe(tracer: "Tracer", name: str, parent: str | None, result=None, exc=None) -> None:
    """Turn a traced call's outcome into the exact counters."""
    if exc is not None:
        if name == "modpoly.cycle_type_mod_p" and type(exc).__name__ == "BadPrime":
            tracer.count("modpoly.bad_prime")
        return
    if name == "traceform.realize":
        tracer.count("traceform.certificates")
        tracer.count("traceform.candidates", result.tries)
    elif name == "poly.is_separable" and parent == "traceform.realize" and not result:
        tracer.count("traceform.rejected_inseparable")
    elif name == "irreducibility.is_irreducible_over_rationals" and not result:
        tracer.count("irreducibility.is_irreducible_over_rationals.false")
        if parent == "traceform.realize":
            tracer.count("traceform.rejected_reducible")
    elif name == "galois.sample_cycle_types":
        tracer.count("galois.primes_used", result.primes_used)
        tracer.count("galois.primes_skipped", result.primes_skipped)


class Tracer:
    """Records spans and per-name call statistics while installed."""

    def __init__(self, record_spans: bool = True):
        self.record_spans = record_spans
        self.names: list[str] = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}
        self.spans = array("q")
        self.op_id = -1
        self._stack: list[list] = []  # [span_id, name, child_ns]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, fn, name: str):
        name_idx = len(self.names)
        self.names.append(name)
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, name, 0]
            stack.append(frame)
            exc = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[2]
                if tracer.record_spans:
                    spans.extend(
                        (span_id, parent[0] if parent else -1, tracer.op_id, name_idx, start, end)
                    )
                if exc is not None:
                    _observe(tracer, name, parent[1] if parent else None, exc=exc)
            _observe(tracer, name, parent[1] if parent else None, result=result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded `traceforms` module that binds it."""
        modules = [m for k, m in sys.modules.items() if k == "traceforms" or k.startswith("traceforms.")]
        for name, module_name, attr, _ in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        for owner, binding, original in reversed(self._undo):
            setattr(owner, binding, original)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by name: calls, total and self seconds, counters."""
        out: dict[str, float] = {}
        for prefix, _, _, fields in TARGETS:
            calls, total_ns, self_ns = self.stats.get(prefix, (0, 0, 0))
            values = {"calls": calls, "total_s": total_ns / 1e9, "self_s": self_ns / 1e9}
            for field in fields:
                out[f"{prefix}.{field}"] = values[field]
        certificates = self.counts.get("traceform.certificates", 0)
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        out["traceform.candidates_per_cert"] = (
            self.counts.get("traceform.candidates", 0) / certificates if certificates else 0.0
        )
        return out

    def exact_counts(self) -> dict[str, int]:
        """Every count the trace produced; these must repeat across runs of one seed."""
        counts = {f"{name}.calls": stat[0] for name, stat in self.stats.items()}
        counts.update(self.counts)
        return counts

    def dump_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": FIELDS, "spans": self.spans.tolist()}, fh)
