"""Growth gates by counted work, not by time.

Each row counts the bytecodes one layer runs on ``gen.chain`` (seed 1) at four
doubling sizes, fits the slope of log(count) against log(size) and asserts
that it is at most the row's bound. Chain has a single run, so the run layers
have rows of their own on ``gen.branchy`` (seed 1), whose run count doubles
with each diamond; their size is the events of all runs together, since each
run of k diamonds holds 2k + 1 events and a linear layer does a little work
per event of each run. Counted work is deterministic where timings on a
shared host are not; trend-prof fits its power laws to counts for the same
reason (Goldsmith, Aiken & Wilkerson, "Measuring empirical computational
complexity", 2007). Each row counts cold: it parses its document afresh from the
cached text, so its count does not depend on which rows ran before it, and
``pytest -k <row>`` reproduces it. There is no tmkit module cache to clear:
``validate`` builds its chain tables at import, and the reader's compiled
grammar is filled by that first parse, before anything is counted.

The counter sees every bytecode of Python code, comprehensions and generators
included, but it counts one for work done inside a single bytecode or C call:
an ``in`` test on a list, set algebra, a sort, a regular expression, a copy or
a concatenation. So each firing of ``simulate`` copying the fired set and the
log, while the chain's one item gains a tag per hop, is O(N) work per firing
that the count does not show; a wall-clock sweep has to. The counts differ
between Python versions (3.12 inlines comprehensions, and each version has its
own instructions); the slopes should not.
"""
import math
import random
import sys
from functools import cache
from pathlib import Path

import pytest

from tmkit.behavior import build_chronology, enumerate_runs, evaluate_trace
from tmkit.dot import Level, RenderOptions, to_dot
from tmkit.events import check_subdiagram, coverage, eventize
from tmkit.model import build_model, models_isomorphic
from tmkit.simulate import Seeded, simulate
from tmkit.syntax import Document, SourceFile, _tokenize, parse, print_document
from tmkit.validate import desugar, validate_static

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
import gen  # noqa: E402

SIZES = (50, 100, 200, 400)
SLOPE_BOUND = 1.15  # a layer that is linear on chain today


def count_opcodes(fn, *args) -> int:
    """The bytecodes run while ``fn(*args)`` runs: the INSTRUCTION events of
    ``sys.monitoring`` from Python 3.12 on, the opcode events of ``sys.settrace``
    before. (Under 3.12 and 3.13, ``sys.settrace`` under-counts the first traced
    call of each function.)"""
    count = 0

    def step(code, offset) -> None:
        nonlocal count
        count += 1

    def trace(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        elif event == "call":
            frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return trace

    if hasattr(sys, "monitoring"):
        mon, tool = sys.monitoring, sys.monitoring.PROFILER_ID
        mon.use_tool_id(tool, "count_opcodes")
        mon.register_callback(tool, mon.events.INSTRUCTION, step)
        mon.set_events(tool, mon.events.INSTRUCTION)
        try:
            fn(*args)
        finally:
            mon.set_events(tool, 0)
            mon.register_callback(tool, mon.events.INSTRUCTION, None)
            mon.free_tool_id(tool)
        return count
    before = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(before)
    return count


def slope(sizes, counts) -> float:
    """The least-squares slope of log(count) against log(size)."""
    xs, ys = [math.log(s) for s in sizes], [math.log(c) for c in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def cold(path: str, text: str) -> tuple[SourceFile, Document]:
    """``text`` parsed afresh, so no record that a counted layer caches on is shared between rows."""
    src = SourceFile(path, text)
    doc = parse(src).document
    assert doc is not None
    return src, doc


@cache
def chain_text(machines: int, seed: int = 1) -> str:
    return gen.chain(random.Random(seed), machines).text


def chain(machines: int, seed: int = 1) -> tuple[SourceFile, Document]:
    return cold("chain.tm", chain_text(machines, seed))


def _build_model(src: SourceFile, doc: Document) -> int:
    m = doc.model
    return count_opcodes(build_model, m.name, m.roots, m.arcs, m.notation)


def _check_subdiagrams(src: SourceFile, doc: Document) -> int:
    return count_opcodes(lambda: [check_subdiagram(doc.model, sub) for sub in doc.subdiagrams])


def _simulate(src: SourceFile, doc: Document) -> int:
    chron = build_chronology(doc.events, doc.chronologies[0])
    return count_opcodes(simulate, doc.model, doc.subdiagrams, doc.events, chron, Seeded(0))


def _models_isomorphic(src: SourceFile, doc: Document) -> int:
    # against seed 2: the same structure under other ids, where every relay machine looks alike
    other = chain(len(doc.model.roots) - 1, seed=2)[1]
    return count_opcodes(models_isomorphic, doc.model, other.model)


@cache
def simplified_text(machines: int) -> str:
    return gen.chain(random.Random(1), machines).simplified_text


def simplified(machines: int):
    """The same chain in simplified notation, where every hop is an elided arrow."""
    return cold("chain.tm", simplified_text(machines))[1].model


def _evaluate_trace(src: SourceFile, doc: Document) -> int:
    chron = build_chronology(doc.events, doc.chronologies[0])
    return count_opcodes(evaluate_trace, chron, doc.traces[0])


# the bytecodes each layer runs on one chain document
LAYERS = {
    "syntax._tokenize": lambda src, doc: count_opcodes(_tokenize, src.text),
    "syntax.parse": lambda src, doc: count_opcodes(parse, src),
    "model.build_model": _build_model,
    "model.models_isomorphic": _models_isomorphic,
    "validate.validate_static": lambda src, doc: count_opcodes(validate_static, doc.model),
    "validate.validate_static simplified": lambda src, doc: count_opcodes(validate_static, simplified(len(doc.model.roots) - 1)),
    "validate.desugar": lambda src, doc: count_opcodes(desugar, simplified(len(doc.model.roots) - 1)),
    "syntax.print_document": lambda src, doc: count_opcodes(print_document, doc),
    "events.check_subdiagram": _check_subdiagrams,
    "events.coverage": lambda src, doc: count_opcodes(coverage, doc.model, doc.subdiagrams),
    "events.eventize": lambda src, doc: count_opcodes(eventize, doc.subdiagrams, doc.events),
    "behavior.build_chronology": lambda src, doc: count_opcodes(build_chronology, doc.events, doc.chronologies[0]),
    "behavior.evaluate_trace": _evaluate_trace,
    "dot.to_dot static": lambda src, doc: count_opcodes(to_dot, doc, RenderOptions(Level.STATIC)),
    "dot.to_dot behavior": lambda src, doc: count_opcodes(to_dot, doc, RenderOptions(Level.BEHAVIOR)),
    "simulate.simulate": _simulate,
}


@pytest.mark.parametrize("layer", LAYERS)
def test_a_linear_layer_stays_linear_on_chain(layer):
    counts = [LAYERS[layer](*chain(n)) for n in SIZES]
    assert counts == sorted(counts) and counts[0] > 0, counts
    assert slope(SIZES, counts) <= SLOPE_BOUND, dict(zip(SIZES, counts))


DIAMONDS = (3, 4, 5, 6)  # 8 to 64 runs


@cache
def branchy_doc(diamonds: int) -> gen.BranchyDoc:
    return gen.branchy(random.Random(1), diamonds)


def branchy(diamonds: int) -> tuple[gen.BranchyDoc, Document]:
    b = branchy_doc(diamonds)
    return b, cold("branchy.tm", b.text)[1]


def _evaluate_true_traces(b: gen.BranchyDoc, doc: Document) -> int:
    chron = build_chronology(doc.events, doc.chronologies[0])
    traces = [t for t in doc.traces if t.id in b.true_traces]  # one per run
    return count_opcodes(lambda: [evaluate_trace(chron, t) for t in traces])


# the bytecodes each run layer runs on one branchy document, from a fresh chronology
RUN_LAYERS = {
    "behavior.enumerate_runs": lambda b, doc: count_opcodes(enumerate_runs, build_chronology(doc.events, doc.chronologies[0])),
    "behavior.evaluate_trace": _evaluate_true_traces,
}


@pytest.mark.parametrize("layer", RUN_LAYERS)
def test_a_run_layer_stays_linear_in_the_runs_on_branchy(layer):
    sizes = [sum(map(len, branchy_doc(k).runs)) for k in DIAMONDS]
    counts = [RUN_LAYERS[layer](*branchy(k)) for k in DIAMONDS]
    assert counts == sorted(counts) and counts[0] > 0, counts
    assert slope(sizes, counts) <= SLOPE_BOUND, dict(zip(sizes, counts))
