"""Exhaustive checks at small scope: every chronology of one to four events.

Most semantic faults show on small inputs (the small scope hypothesis: Jackson,
*Software Abstractions*, 2006), and checking every input up to a bound finds
them for certain where a seeded sample may not (SmallCheck: Runciman, Naylor &
Lindblad, 2008). In every scope each pair of events is ordered either way or
not ordered, and an exclusive group is over two or more pairwise-unordered
events. The scopes:

- 1-4 events, no group or one, default starts and ends: 2,356 declarations,
  1,952 of which build (the rest have a cycle);
- 1-3 events, no group or one, each of the start and end sets the default or
  any non-empty subset of the events: 3,588 declarations, 3,460 of which
  build;
- 4 events and two exclusive groups over different sets of events, default
  starts and ends: 1,675 declarations, 1,597 of which build.

Each declaration states only the events no edge names, so its ``events`` are
every event although ``event_ids`` is not.
"""
from functools import cache
from itertools import chain, combinations, permutations, product

from tmkit.behavior import Chronology, ExclusiveGroup, Trace, build_chronology, enumerate_runs, evaluate_trace
from tmkit.errors import CycleDetected, Deadlock, PolicyError
from tmkit.events import Event, Subdiagram
from tmkit.model import StageKind, StageRef, Thimac, build_model
from tmkit.simulate import Scripted, simulate
from tmkit.syntax import Document, parse_text, print_document

from oracles import enumerate_runs_by_subsets, runs_reached_by_moves

# one machine, and one subdiagram that every event names: the model refuses no move
MODEL = build_model("m", [Thimac("a", "A", frozenset({StageKind.CREATE}))])
SUBDIAGRAM = Subdiagram("s", "S", (StageRef("a", StageKind.CREATE),))


def _declarations(sizes, group_counts, stated: bool = False) -> list[tuple[list[Event], Chronology]]:
    """Every declaration over each number of events in ``sizes``, with each
    number of exclusive groups in ``group_counts`` and, if ``stated``, every
    start and end set as well as the defaults."""
    out = []
    for n in sizes:
        ids = [f"e{i}" for i in range(n)]
        sets = [None, *(s for k in range(1, n + 1) for s in combinations(ids, k))] if stated else [None]
        pairs = list(combinations(ids, 2))
        for ways in product((None, False, True), repeat=len(pairs)):
            edges = tuple((u, v) if way else (v, u) for (u, v), way in zip(pairs, ways) if way is not None)
            named = {e for edge in edges for e in edge}
            ordered = {frozenset(edge) for edge in edges}
            unordered = [
                frozenset(members)
                for k in range(2, n + 1)
                for members in combinations(ids, k)
                if not any(frozenset(pair) in ordered for pair in combinations(members, 2))
            ]
            alone = tuple(e for e in ids if e not in named)
            events = [Event(e, "s") for e in ids]
            for grouped in chain.from_iterable(combinations(unordered, k) for k in group_counts):
                groups = tuple(ExclusiveGroup(f"g{i}", members) for i, members in enumerate(grouped, 1))
                out += [(events, Chronology("c", alone, edges, groups, start, end)) for start in sets for end in sets]
    return out


@cache
def declarations() -> list[tuple[list[Event], Chronology]]:
    """Every declaration of 1-4 events with no group or one, and default starts and ends."""
    return _declarations(range(1, 5), (0, 1))


@cache
def stated_declarations() -> list[tuple[list[Event], Chronology]]:
    """Every declaration of 1-3 events with no group or one, and every start and end set."""
    return _declarations(range(1, 4), (0, 1), stated=True)


@cache
def two_group_declarations() -> list[tuple[list[Event], Chronology]]:
    """Every declaration of 4 events with two exclusive groups, and default starts and ends."""
    return _declarations((4,), (2,))


SCOPES = (declarations, stated_declarations, two_group_declarations)


@cache
def built(scope) -> list[tuple[list[Event], Chronology, list[tuple[str, ...]]]]:
    """The declarations of a scope that build, each with its events and its listed runs."""
    out = []
    for events, decl in scope():
        try:
            chron = build_chronology(events, decl)
        except CycleDetected:
            continue
        out.append((events, chron, enumerate_runs(chron)))
    return out


def test_the_scopes_hold_what_they_claim():
    assert [len(scope()) for scope in SCOPES] == [2356, 3588, 1675]
    assert [len(built(scope)) for scope in SCOPES] == [1952, 3460, 1597]
    assert all(len(decl.events) == len(events) for scope in SCOPES for events, decl in scope())


def test_enumerate_runs_equals_the_subset_scan():
    for scope in SCOPES:
        for _, chron, runs in built(scope):
            assert runs == enumerate_runs_by_subsets(chron), chron


@cache
def ordered_traces(events: tuple[str, ...]) -> list[tuple[dict[str, int], Trace]]:
    """Each order of the events, stamped 0, 1, ..., with its trace."""
    orders = ({e: i for i, e in enumerate(order)} for order in permutations(events))
    return [(at, Trace("t", tuple(at.items()))) for at in orders]


@cache
def stampings(events: tuple[str, ...]) -> list[dict[str, int]]:
    """Each stamping of the events by 0, 1, ... that skips no stamp, equal stamps allowed."""
    if not events:
        return [{}]
    return [
        dict.fromkeys(first, 0) | {e: stamp + 1 for e, stamp in rest.items()}
        for k in range(1, len(events) + 1)
        for first in combinations(events, k)
        for rest in stampings(tuple(e for e in events if e not in first))
    ]


@cache
def stamped_traces(events: tuple[str, ...]) -> list[tuple[dict[str, int], Trace]]:
    """Each stamping of the events, with its trace listed by stamp, then id."""
    return [(at, Trace("t", tuple(sorted(at.items(), key=lambda item: item[::-1])))) for at in stampings(events)]


def check_traces(scope, traces_of) -> int:
    """Evaluate each trace ``traces_of`` gives for each event subset of each
    chronology in the scope, and check that it is TRUE iff its set is a listed
    run and every edge between its events goes strictly up in stamp. Returns
    the number of traces."""
    traces = 0
    for _, chron, listed in built(scope):
        runs = set(map(frozenset, listed))
        events = sorted(chron.events)
        for k in range(len(events) + 1):
            for subset in combinations(events, k):
                is_run = frozenset(subset) in runs
                for at, trace in traces_of(subset):
                    rises = all(at[u] < at[v] for u, v in chron.edges if u in at and v in at)
                    verdict = evaluate_trace(chron, trace)
                    assert verdict.truth == (is_run and rises), (chron, trace, verdict.summary())
                    traces += 1
    return traces


def test_a_trace_is_true_iff_its_set_is_a_run_and_its_order_keeps_every_edge():
    assert check_traces(declarations, ordered_traces) == 123_980


def test_a_trace_with_equal_stamps_is_true_iff_its_set_is_a_run_and_every_edge_goes_up():
    assert check_traces(stated_declarations, stamped_traces) == 88_584


def test_every_declaration_prints_and_parses_back_as_it_was():
    for events, decl in declarations():
        doc = Document(MODEL, (SUBDIAGRAM,), tuple(events), (decl,))
        assert parse_text(print_document(doc)).document == doc, decl


def test_every_move_sequence_of_the_simulator_reaches_exactly_the_runs():
    """Every sequence of moves can go on until the fired events form a run,
    unless the chronology has none, when nothing can fire; and the runs so
    reached are the listed ones."""
    for events, chron, listed in built(declarations):
        runs = set(map(frozenset, listed))
        reached, stuck = runs_reached_by_moves(MODEL, (SUBDIAGRAM,), events, chron)
        assert (reached, stuck) == (runs, set() if runs else {frozenset()}), chron


def test_a_script_fires_no_member_that_a_choice_ruled_out():
    """Under each full choice, one member per group, a scripted run is a TRUE
    trace whose every event every group holding it chose, or PolicyError; or
    Deadlock, where the chronology has no run."""
    outcomes = {"trace": 0, "PolicyError": 0, "Deadlock": 0}
    for events, chron, runs in built(two_group_declarations):
        first, second = chron.groups
        for picks in product(sorted(first.members), sorted(second.members)):
            choice = dict(zip((first.name, second.name), picks))
            try:
                trace = simulate(MODEL, (SUBDIAGRAM,), events, chron, Scripted(tuple(choice.items())))
            except PolicyError:
                outcomes["PolicyError"] += 1
                continue
            except Deadlock:
                assert not runs, (chron, choice)
                outcomes["Deadlock"] += 1
                continue
            assert evaluate_trace(chron, trace).truth, (chron, choice, trace)
            ruled_out = [e for e in trace.events() for g in chron.groups if e in g.members and choice[g.name] != e]
            assert not ruled_out, (chron, choice, trace)
            outcomes["trace"] += 1
    assert outcomes == {"trace": 3560, "PolicyError": 2782, "Deadlock": 1056}, outcomes
