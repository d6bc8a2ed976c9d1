"""Growth gates by counted work, not by time.

Each row counts the calls one layer makes on ``gen.chain`` (seed 1) at four
doubling sizes, fits the slope of log(calls) against log(size) and asserts that
it is at most the row's bound. Counted work is deterministic where timings on a
shared host are not; trend-prof fits its power laws to counts for the same
reason (Goldsmith, Aiken & Wilkerson, "Measuring empirical computational
complexity", 2007).

The counter is a ``sys.setprofile`` hook that counts ``call`` and ``c_call``
events. A C call counts as one, so work inside a regular expression, a sort or
a set operation is invisible to it, and so is an ``in`` test on a list of
strings, which makes no call at all. The counts differ between Python versions
(3.12 inlines comprehensions); the slopes should not.
"""
import math
import random
import sys
from functools import cache
from pathlib import Path

import pytest

from tmkit.model import build_model
from tmkit.syntax import Document, SourceFile, parse, print_document
from tmkit.validate import validate_static

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
import gen  # noqa: E402

SIZES = (50, 100, 200, 400)
SLOPE_BOUND = 1.15  # a layer that is linear on chain today


def count_calls(fn, *args) -> int:
    """The call and c_call events while ``fn(*args)`` runs, its own call included."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    before = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(before)
    return calls


def slope(sizes, counts) -> float:
    """The least-squares slope of log(count) against log(size)."""
    xs, ys = [math.log(s) for s in sizes], [math.log(c) for c in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


@cache
def chain(machines: int) -> tuple[SourceFile, Document]:
    src = SourceFile("chain.tm", gen.chain(random.Random(1), machines).text)
    doc = parse(src).document
    assert doc is not None
    return src, doc


def _build_model(src: SourceFile, doc: Document) -> int:
    m = doc.model
    return count_calls(build_model, m.name, m.roots, m.arcs, m.notation)


# the calls each layer makes on one chain document
LAYERS = {
    "syntax.parse": lambda src, doc: count_calls(parse, src),
    "model.build_model": _build_model,
    "validate.validate_static": lambda src, doc: count_calls(validate_static, doc.model),
    "syntax.print_document": lambda src, doc: count_calls(print_document, doc),
}


@pytest.mark.parametrize("layer", LAYERS)
def test_a_linear_layer_stays_linear_on_chain(layer):
    counts = [LAYERS[layer](*chain(n)) for n in SIZES]
    assert counts == sorted(counts) and counts[0] > 0, counts
    assert slope(SIZES, counts) <= SLOPE_BOUND, dict(zip(SIZES, counts))
