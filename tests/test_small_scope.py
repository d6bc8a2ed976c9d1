"""Exhaustive checks at small scope: every chronology of one to four events.

Most semantic faults show on small inputs (the small scope hypothesis: Jackson,
*Software Abstractions*, 2006), and checking every input up to a bound finds
them for certain where a seeded sample may not (SmallCheck: Runciman, Naylor &
Lindblad, 2008). The scope: over 1-4 events, each pair ordered either way or
not ordered; no exclusive group, or one over two or more pairwise-unordered
events; default starts and ends. That is 2,356 declarations, 1,952 of which
build (the rest have a cycle).

Each declaration states only the events no edge names, so its ``events`` are
every event although ``event_ids`` is not.
"""
from functools import cache
from itertools import combinations, permutations, product

from tmkit.behavior import Chronology, ExclusiveGroup, Trace, build_chronology, enumerate_runs, evaluate_trace
from tmkit.errors import CycleDetected
from tmkit.events import Event, Subdiagram
from tmkit.model import StageKind, StageRef, Thimac, build_model
from tmkit.syntax import Document, parse_text, print_document

from oracles import enumerate_runs_by_subsets

MODEL = build_model("m", [Thimac("a", "A", frozenset({StageKind.CREATE}))])
SUBDIAGRAM = Subdiagram("s", "S", (StageRef("a", StageKind.CREATE),))


@cache
def declarations() -> list[tuple[list[Event], Chronology]]:
    """Every declaration in scope, with its events."""
    out = []
    for n in range(1, 5):
        ids = [f"e{i}" for i in range(n)]
        pairs = list(combinations(ids, 2))
        for ways in product((None, False, True), repeat=len(pairs)):
            edges = tuple((u, v) if way else (v, u) for (u, v), way in zip(pairs, ways) if way is not None)
            named = {e for edge in edges for e in edge}
            ordered = {frozenset(edge) for edge in edges}
            groups = [()] + [
                (ExclusiveGroup("g", frozenset(members)),)
                for k in range(2, n + 1)
                for members in combinations(ids, k)
                if not any(frozenset(pair) in ordered for pair in combinations(members, 2))
            ]
            alone = tuple(e for e in ids if e not in named)
            events = [Event(e, "s") for e in ids]
            out += [(events, Chronology("c", alone, edges, group)) for group in groups]
    return out


def built() -> list[Chronology]:
    chronologies = []
    for events, decl in declarations():
        try:
            chronologies.append(build_chronology(events, decl))
        except CycleDetected:
            pass
    return chronologies


def test_the_scope_holds_what_it_claims():
    assert len(declarations()) == 2356
    assert len(built()) == 1952
    assert all(len(decl.events) == len(events) for events, decl in declarations())


def test_enumerate_runs_equals_the_subset_scan():
    for chron in built():
        assert enumerate_runs(chron) == enumerate_runs_by_subsets(chron), chron


def test_a_trace_is_true_iff_its_set_is_a_run_and_its_order_keeps_every_edge():
    traces = 0
    for chron in built():
        runs = {frozenset(run) for run in enumerate_runs(chron)}
        events = sorted(chron.events)
        for k in range(len(events) + 1):
            for subset in combinations(events, k):
                is_run = frozenset(subset) in runs
                for order in permutations(subset):
                    at = {e: i for i, e in enumerate(order)}
                    keeps = all(at[u] < at[v] for u, v in chron.edges if u in at and v in at)
                    verdict = evaluate_trace(chron, Trace("t", tuple((e, i) for i, e in enumerate(order))))
                    assert verdict.truth == (is_run and keeps), (chron, order, verdict.summary())
                    traces += 1
    assert traces == 123_980


def test_every_declaration_prints_and_parses_back_as_it_was():
    for events, decl in declarations():
        doc = Document(MODEL, (SUBDIAGRAM,), tuple(events), (decl,))
        assert parse_text(print_document(doc)).document == doc, decl
