"""Layer tracing from outside the program.

``Tracer.install`` rebinds the module attributes that callers look up at call
time (``tmkit.cli.parse``, ``tmkit.syntax.build_model``, ...) to wrappers, and
``uninstall`` puts the originals back. Nothing under ``src/`` knows about it,
and the timed runs never install it.

A span wrapper records ``[name, start_ns, end_ns, parent, op, size]`` in
memory. Spans sit at the boundaries between modules, so a span's self time is
the time its layer spent, and the self times of one op sum to the op's span.
Functions inside a layer, or called too often for a span each
(``run_set_valid`` runs once per event subset, up to 2^16 times in one
``runs`` op), get probes instead: they count calls, and the one on
``enabled_events`` also sums its time. Their time stays in the self time of
the span that called them.

A name that no longer exists is skipped and listed in ``missing``; the
metrics that depend on it read 0.
"""
from __future__ import annotations

import importlib
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Optional

Size = Optional[Callable[[tuple, Any], int]]


def _input_bytes(args: tuple, result: Any) -> int:
    return len(args[0].text.encode("utf-8"))


def _output_bytes(args: tuple, result: Any) -> int:
    return len(result.encode("utf-8"))


def _events_fired(args: tuple, result: Any) -> int:
    return len(result.occurrences)


def _runs_found(args: tuple, result: Any) -> int:
    return len(result)


# (module, attribute, span name, size of the work done)
SPANS: tuple[tuple[str, str, str, Size], ...] = (
    ("tmkit.cli", "parse", "syntax.parse", _input_bytes),
    ("tmkit.syntax", "build_model", "model.build_model", None),
    ("tmkit.cli", "print_document", "syntax.print_document", None),
    ("tmkit.cli", "validate_static", "validate.validate_static", None),
    ("tmkit.cli", "desugar", "validate.desugar", None),
    ("tmkit.cli", "check_subdiagram", "events.check_subdiagram", None),
    ("tmkit.cli", "eventize", "events.eventize", None),
    ("tmkit.cli", "coverage", "events.coverage", None),
    ("tmkit.cli", "models_isomorphic", "model.models_isomorphic", None),
    ("tmkit.cli", "build_chronology", "behavior.build_chronology", None),
    ("tmkit.cli", "evaluate_trace", "behavior.evaluate_trace", None),
    ("tmkit.cli", "enumerate_runs", "behavior.enumerate_runs", _runs_found),
    ("tmkit.cli", "simulate", "simulate.simulate", _events_fired),
    ("tmkit.cli", "to_dot", "dot.to_dot", _output_bytes),
)

# (module, attribute, probe name, timed)
PROBES: tuple[tuple[str, str, str, bool], ...] = (
    ("tmkit.behavior", "run_set_valid", "behavior.run_set_valid", False),
    ("tmkit.simulate", "fire_event", "simulate.fire_event", False),
    ("tmkit.simulate", "enabled_events", "simulate.enabled_events", True),
)

OP = "cli.main"


@dataclass
class Tracer:
    spans: list[list] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    probe_ns: Counter = field(default_factory=Counter)
    wrapped: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    ops: int = 0
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def _span(self, name: str, fn: Callable, size: Size) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.ops, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if size is not None:
                rec[5] = size(args, result)
            return result

        return wrapper

    def _probe(self, name: str, fn: Callable, timed: bool) -> Callable:
        calls, probe_ns = self.calls, self.probe_ns
        if not timed:

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        def timed_probe(*args, **kwargs):
            calls[name] += 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                probe_ns[name] += perf_counter_ns() - t0

        return timed_probe

    def _rebind(self, mod: str, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        module = importlib.import_module(mod)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{mod}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, wrap(original))
        self.wrapped.append(f"{mod}.{attr}")

    def install(self) -> None:
        self.wrapped, self.missing = [], []
        for mod, attr, name, size in SPANS:
            self._rebind(mod, attr, lambda fn: self._span(name, fn, size))
        for mod, attr, name, timed in PROBES:
            self._rebind(mod, attr, lambda fn: self._probe(name, fn, timed))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def op(self, main: Callable) -> Callable:
        """The span around one whole invocation; each call is one op."""
        span = self._span(OP, main, None)

        def run_op(argv):
            try:
                return span(argv)
            finally:
                self.ops += 1

        return run_op


def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares exponent b of y = a * x^b; 0 without two distinct x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(tracer: Tracer, outer_ms_total: float) -> dict[str, float]:
    """Per-op self times and the ratios measured at the span boundaries.

    ``outer_ms_total`` is the harness's own timing of the traced ops; what it
    holds beyond the op spans is reported as ``trace.unaccounted_ms``.
    """
    ops = max(tracer.ops, 1)
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: dict[str, int] = defaultdict(int)
    incl_ns: dict[str, int] = defaultdict(int)
    sizes: dict[str, int] = defaultdict(int)
    points: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for i, (name, start, end, parent, _, size) in enumerate(spans):
        self_ns[name] += end - start - child_ns[i]
        incl_ns[name] += end - start
        sizes[name] += size
        if size:
            points[name].append((size, (end - start) / 1e6))

    m: dict[str, float] = {"cli.self_ms": self_ns[OP] / 1e6 / ops}
    for _, _, name, _ in SPANS:
        m[f"{name}.ms"] = self_ns[name] / 1e6 / ops
    parse_s, dot_s = incl_ns["syntax.parse"] / 1e9, incl_ns["dot.to_dot"] / 1e9
    sim_ms = incl_ns["simulate.simulate"] / 1e6
    m["syntax.parse.kb_per_s"] = sizes["syntax.parse"] / 1024 / parse_s if parse_s else 0.0
    m["syntax.parse.exponent"] = _slope(points["syntax.parse"])
    m["dot.kb_out_per_s"] = sizes["dot.to_dot"] / 1024 / dot_s if dot_s else 0.0
    rsv = tracer.calls["behavior.run_set_valid"]
    m["behavior.run_set_valid.calls"] = rsv / ops
    m["behavior.enumerate_runs.useful_ratio"] = sizes["behavior.enumerate_runs"] / rsv if rsv else 0.0
    fired = sizes["simulate.simulate"]
    m["simulate.ms_per_event"] = sim_ms / fired if fired else 0.0
    m["simulate.exponent"] = _slope(points["simulate.simulate"])
    m["simulate.fire_event.calls"] = tracer.calls["simulate.fire_event"] / ops
    m["simulate.enabled_events.calls"] = tracer.calls["simulate.enabled_events"] / ops
    m["simulate.enabled_events.share"] = tracer.probe_ns["simulate.enabled_events"] / 1e6 / sim_ms if sim_ms else 0.0
    m["trace.unaccounted_ms"] = (outer_ms_total - incl_ns[OP] / 1e6) / ops
    return m
