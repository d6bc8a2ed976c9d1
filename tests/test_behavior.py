import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tmkit.behavior as behavior
from tmkit.behavior import (
    Chronology,
    ExclusiveGroup,
    Trace,
    Verdict,
    Violation,
    build_chronology,
    canonical_order,
    enumerate_runs,
    evaluate_trace,
    run_set_valid,
    search_runs,
    topological_order,
)
from tmkit.errors import BoundExceeded, CycleDetected, EdgeInsideExclusiveGroup, MalformedTrace, UnknownEvent
from tmkit.events import Event
from tmkit.simulate import Seeded, simulate

from conftest import load
from genutil import random_chronology
from oracles import enumerate_runs_by_subsets, topological_order_by_key
from strategies import declared_chronologies

AIRPORT_RUNS = [
    ("E2", "E6", "E7", "E8", "E9", "E13", "E14"),
    ("E1", "E3", "E4", "E5", "E8", "E9", "E13", "E14"),
    ("E2", "E6", "E7", "E8", "E10", "E11", "E12", "E13", "E14"),
    ("E1", "E3", "E4", "E5", "E8", "E10", "E11", "E12", "E13", "E14"),
]


def trace_of(*events, start=0):
    return Trace("t", tuple((e, start + i) for i, e in enumerate(events)))


def fixture_trace(doc, trace_id):
    return {t.id: t for t in doc.traces}[trace_id]


def diamonds(k: int, tail: int = 0) -> Chronology:
    """k exclusive diamonds in sequence, then a linear tail: exactly 2^k runs."""
    joins = [f"j{i}" for i in range(k + 1)]
    edges, groups = [], []
    for i in range(k):
        a, b = f"a{i}", f"b{i}"
        edges += [(joins[i], a), (joins[i], b), (a, joins[i + 1]), (b, joins[i + 1])]
        groups.append(ExclusiveGroup(f"x{i}", frozenset({a, b})))
    line = [joins[-1]] + [f"t{i}" for i in range(tail)]
    edges += zip(line, line[1:])
    ids = sorted({e for edge in edges for e in edge} | set(joins))
    decl = Chronology("c", tuple(ids), tuple(edges), tuple(groups))
    return build_chronology([Event(e, "s") for e in ids], decl)


# -- construction -------------------------------------------------------------


def test_airport_chronology_builds(airport_chronology):
    b = airport_chronology
    assert b.starts == {"E1", "E2"}
    assert b.ends == {"E14"}
    assert len(b.events) == 14
    assert ("E8", "E9") in b.edges and ("E13", "E14") in b.edges


def test_cycle_is_detected_with_a_witness():
    events = [Event("E1", "s"), Event("E2", "s")]
    decl = Chronology("c", edges=(("E1", "E2"), ("E2", "E1")))
    with pytest.raises(CycleDetected) as err:
        build_chronology(events, decl)
    assert set(err.value.cycle) >= {"E1", "E2"}


def test_the_runs_of_an_unchecked_cyclic_chronology_are_a_typed_error():
    # a record that has not been through build_chronology may hold a cycle
    chron = Chronology("c", edges=(("A", "B"), ("B", "A")))
    airport = load("airport.tm")
    searches = (
        lambda: enumerate_runs(chron),
        lambda: next(search_runs(chron, 10)),
        lambda: simulate(airport.model, airport.subdiagrams, airport.events, chron, Seeded(0)),
    )
    for search in searches:
        with pytest.raises(CycleDetected) as err:
            search()
        assert err.value.cycle == ["A", "B", "A"]

def test_cycle_witness_is_a_closed_walk_over_declared_edges():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(2, 9)
        events, decl = random_chronology(rng, n, exclusive=False)
        ring = rng.sample([e.id for e in events], rng.randint(1, n))
        edges = decl.edges + tuple(zip(ring, ring[1:] + ring[:1]))
        with pytest.raises(CycleDetected) as err:
            build_chronology(events, Chronology("c", decl.event_ids, edges))
        cycle = err.value.cycle
        assert len(cycle) >= 2 and cycle[0] == cycle[-1], (edges, cycle)
        assert all(edge in edges for edge in zip(cycle, cycle[1:])), (edges, cycle)


@st.composite
def walk_inputs(draw):
    """Distinct nodes in a drawn order, and edges over a larger alphabet: some
    endpoints lie outside the nodes, and the edges may close cycles."""
    names = [f"n{i}" for i in range(12)]
    nodes = draw(st.lists(st.sampled_from(names), unique=True, max_size=9))
    edges = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=20))
    return nodes, edges


@given(walk_inputs())
@settings(max_examples=500, deadline=None)
def test_the_walk_breaks_ties_by_position_as_the_keyed_walk_did(inputs):
    nodes, edges = inputs
    assert topological_order(nodes, edges) == topological_order_by_key(nodes, edges, nodes.index)


def test_the_chronology_index_cannot_be_changed_through_its_readers():
    chron = build_chronology([Event(e, "s") for e in "ABC"], Chronology("c", ("A", "B", "C"), (("A", "B"),)))
    for handed_out in (chron.successors("A"), chron.predecessors("B"), chron.successors("C")):
        with pytest.raises(AttributeError):
            handed_out.add("C")
    assert chron.successors("A") == {"B"} and chron.predecessors("B") == {"A"}
    # an event with none shares one empty set
    assert chron.successors("C") is chron.predecessors("A") is chron.successors("B")


def test_single_event_defaults_to_start_and_end():
    b = build_chronology([Event("E1", "s")], Chronology("c", event_ids=("E1",)))
    assert b.starts == b.ends == {"E1"}


def test_undeclared_event_rejected():
    with pytest.raises(UnknownEvent):
        build_chronology([Event("E1", "s")], Chronology("c", edges=(("E1", "ghost"),)))


def test_edge_between_alternatives_rejected():
    events = [Event("E1", "s"), Event("E2", "s")]
    decl = Chronology(
        "c", edges=(("E1", "E2"),), groups=(ExclusiveGroup("g", frozenset({"E1", "E2"})),)
    )
    with pytest.raises(EdgeInsideExclusiveGroup):
        build_chronology(events, decl)


def test_build_chronology_keeps_the_record_it_is_given_but_for_its_windows():
    given = Chronology("c", ("A",), (("A", "B"), ("A", "B")), (ExclusiveGroup("g", frozenset({"B", "C"})),), start=("A", "C"))
    events = [Event("A", "s", window=(0, 3)), Event("B", "s"), Event("C", "s", window=(1, 2)), Event("D", "s", window=(0, 9))]
    built = build_chronology(events, given)
    assert given.windows == () and built.windows == (("A", (0, 3)), ("C", (1, 2)))  # D is in no item
    assert replace(built, windows=()) == given
    for name in ("id", "event_ids", "edges", "groups", "start", "end"):
        assert getattr(built, name) is getattr(given, name)


def test_build_chronology_returns_the_record_itself_when_its_windows_stay(airport):
    given = airport.chronologies[0]
    assert build_chronology(airport.events, given) is given  # no airport event has a window
    events = [Event("A", "s", window=(0, 3)), Event("B", "s")]
    windowed = build_chronology(events, Chronology("c", ("A", "B")))
    assert windowed.windows == (("A", (0, 3)),)
    assert build_chronology(events, windowed) is windowed


def test_the_record_resolves_what_it_does_not_state():
    chron = Chronology("c", ("Z",), (("A", "B"), ("B", "C")), (ExclusiveGroup("g", frozenset({"C", "D"})),))
    assert chron.events == {"A", "B", "C", "D", "Z"}
    assert chron.starts == {"A", "D", "Z"} and chron.ends == {"C", "D", "Z"}
    stated = replace(chron, start=("B",), end=("B", "E"))
    assert stated.events == chron.events | {"E"}
    assert stated.starts == {"B"} and stated.ends == {"B", "E"}


@pytest.mark.parametrize("built", [True, False], ids=["built", "record"])
def test_an_edge_stated_twice_is_one_edge(airport, built):
    once = airport.chronologies[0]
    twice = replace(once, edges=once.edges + once.edges[::-1])
    if built:
        once, twice = build_chronology(airport.events, once), build_chronology(airport.events, twice)
    runs = enumerate_runs(once)
    assert enumerate_runs(twice) == runs and len(runs) == 4
    traces = list(airport.traces) + [trace_of(*run[:cut]) for run in runs for cut in range(len(run) + 1)]
    assert [evaluate_trace(twice, t) for t in traces] == [evaluate_trace(once, t) for t in traces]
    for seed in range(10):
        sim = [simulate(airport.model, airport.subdiagrams, airport.events, c, Seeded(seed)) for c in (once, twice)]
        assert sim[0] == sim[1]


# -- evaluation ---------------------------------------------------------------


def test_schengen_with_luggage_trace_is_true(airport, airport_chronology):
    v = evaluate_trace(airport_chronology, fixture_trace(airport, "schengen_luggage"))
    assert v.truth
    assert v.run == ("E1", "E3", "E4", "E5", "E8", "E9", "E13", "E14")
    assert v.summary() == "TRUE run=[E1,E3,E4,E5,E8,E9,E13,E14]"


def test_both_branches_violate_exclusivity(airport, airport_chronology):
    v = evaluate_trace(airport_chronology, fixture_trace(airport, "mixed_branch"))
    assert not v.truth
    assert v.violation.kind == "ExclusivityViolation"
    assert v.violation.subjects[0].members == {"E9", "E10"}


def test_reversed_edge_is_an_order_violation(airport, airport_chronology):
    v = evaluate_trace(airport_chronology, fixture_trace(airport, "swapped"))
    assert v.violation == Violation("OrderViolation", ("E3", "E4"))


def test_empty_trace_never_started(airport, airport_chronology):
    v = evaluate_trace(airport_chronology, fixture_trace(airport, "nothing"))
    assert v.violation == Violation("NotStarted")


def test_unknown_event_in_trace(airport_chronology):
    v = evaluate_trace(airport_chronology, trace_of("E1", "E99"))
    assert v.violation == Violation("UnknownEvent", ("E99",))
    assert v.summary() == "FALSE reason=UnknownEvent(E99)"


def test_prefix_trace_misses_a_successor(airport_chronology):
    v = evaluate_trace(airport_chronology, trace_of("E1", "E3", "E4"))
    assert v.violation == Violation("MissingSuccessor", ("E4",))
    assert v.summary() == "FALSE reason=MissingSuccessor(E4)"


def test_thread_that_never_started_is_rejected(airport_chronology):
    # E6 occurs although its only cause E2 is absent: no run contains it
    v = evaluate_trace(airport_chronology, trace_of("E1", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E13", "E14"))
    assert v.violation == Violation("NotStarted")


def test_equal_timestamps_on_ordered_pair_rejected(airport_chronology):
    t = Trace("t", (("E1", 0), ("E3", 0)))
    v = evaluate_trace(airport_chronology, t)
    assert v.violation == Violation("OrderViolation", ("E1", "E3"))


def test_equal_timestamps_on_concurrent_pair_accepted():
    events = [Event(e, "s") for e in ("a", "b", "z")]
    decl = Chronology("c", edges=(("a", "z"), ("b", "z")))
    b = build_chronology(events, decl)
    v = evaluate_trace(b, Trace("t", (("a", 0), ("b", 0), ("z", 1))))
    assert v.truth


def test_malformed_trace_is_a_caller_error(airport_chronology):
    with pytest.raises(MalformedTrace):
        evaluate_trace(airport_chronology, Trace("t", (("E1", 3), ("E3", 1))))
    # the parser reads no sign, so only a trace built in code has a negative stamp
    with pytest.raises(MalformedTrace) as err:
        evaluate_trace(airport_chronology, Trace("t", (("E1", -1),)))
    assert str(err.value) == "malformed trace 't': negative timestamp for 'E1'"


def test_window_violation():
    events = [Event("a", "s", window=(2, 4)), Event("z", "s")]
    b = build_chronology(events, Chronology("c", edges=(("a", "z"),)))
    assert evaluate_trace(b, Trace("t", (("a", 3), ("z", 9)))).truth
    v = evaluate_trace(b, Trace("t", (("a", 0), ("z", 9))))
    assert v.violation == Violation("WindowViolation", ("a",))
    assert v.summary() == "FALSE reason=WindowViolation(a)"


@pytest.mark.parametrize(
    "reason, text",
    [
        (Violation("NotStarted"), "NotStarted"),
        (Violation("OrderViolation", ("E3", "E4")), "OrderViolation(E3,E4)"),
        (Violation("ExclusivityViolation", (ExclusiveGroup("g", frozenset({"E10", "E9"})),)), "ExclusivityViolation({E10|E9})"),
        (Violation("MissingSuccessor", ("E4",)), "MissingSuccessor(E4)"),
        (Violation("UnknownEvent", ("E99",)), "UnknownEvent(E99)"),
        (Violation("WindowViolation", ("a",)), "WindowViolation(a)"),
    ],
)
def test_each_verdict_reason_prints_its_name_and_fields(reason, text):
    assert str(reason) == text
    assert Verdict(False, violation=reason).summary() == f"FALSE reason={text}"


def test_reasons_of_different_kinds_on_the_same_subjects_differ():
    assert Violation("MissingSuccessor", ("E",)) != Violation("WindowViolation", ("E",))


def test_evaluation_is_deterministic(airport, airport_chronology):
    trace = fixture_trace(airport, "schengen_luggage")
    first = evaluate_trace(airport_chronology, trace)
    assert all(evaluate_trace(airport_chronology, trace) == first for _ in range(100))


def test_monotone_falsity_of_exclusivity(airport_chronology):
    rejected = trace_of("E1", "E3", "E4", "E5", "E8", "E9", "E10")
    assert evaluate_trace(airport_chronology, rejected).violation.kind == "ExclusivityViolation"
    rng = random.Random(3)
    remaining = sorted(airport_chronology.events - set(rejected.events()))
    for _ in range(20):
        extra = rng.sample(remaining, rng.randint(1, len(remaining)))
        occurrences = rejected.occurrences + tuple((e, 10 + i) for i, e in enumerate(extra))
        assert not evaluate_trace(airport_chronology, Trace("t", occurrences)).truth


# -- run enumeration ----------------------------------------------------------


def test_airport_has_exactly_four_runs(airport_chronology):
    runs = enumerate_runs(airport_chronology)
    assert runs == sorted(AIRPORT_RUNS, key=lambda r: (len(r), r))


def test_each_airport_run_evaluates_true(airport_chronology):
    for run in enumerate_runs(airport_chronology):
        assert evaluate_trace(airport_chronology, trace_of(*run)).truth


def test_liar_has_the_single_three_event_run():
    doc = load("liar.tm")
    b = build_chronology(doc.events, doc.chronologies[0])
    assert enumerate_runs(b) == [("E1", "E2", "E3")]


def test_green_cheese_has_one_run():
    doc = load("green_cheese.tm")
    b = build_chronology(doc.events, doc.chronologies[0])
    assert enumerate_runs(b) == [("E1", "E2")]


def test_bound_exceeded():
    events = [Event(f"e{i}", "s") for i in range(6)]
    decl = Chronology("c", event_ids=tuple(e.id for e in events))
    # six isolated events: every non-empty subset is a run
    with pytest.raises(BoundExceeded):
        enumerate_runs(build_chronology(events, decl), bound=10)


def test_bound_below_event_count_rejected(airport_chronology):
    with pytest.raises(BoundExceeded):
        enumerate_runs(airport_chronology, bound=3)


def test_sixty_one_events_have_the_runs_of_ten_diamonds():
    chron = diamonds(10, tail=30)
    assert len(chron.events) == 61
    runs = enumerate_runs(chron)
    assert len(runs) == 1024 == len(set(runs))
    assert all(run[-1] == "t29" and len(run) == 51 for run in runs)


def test_long_linear_chronology_has_one_run():
    ids = [f"e{i}" for i in range(3000)]
    decl = Chronology("c", tuple(ids), tuple(zip(ids, ids[1:])))
    chron = build_chronology([Event(e, "s") for e in ids], decl)
    assert enumerate_runs(chron) == [tuple(ids)]


def fan(n: int, via: str = "") -> Chronology:
    """s -> x0..x{n-1} -> [via ->] y with exclusive {s | y}: no runs at all.

    Once s is in, every non-empty choice of x's is dead, because y cannot join
    s; the x's see that only if they look ahead to y.
    """
    xs = [f"x{i}" for i in range(n)]
    edges = [("s", x) for x in xs] + [(x, via or "y") for x in xs] + ([(via, "y")] if via else [])
    ids = ["s", *xs, *([via] if via else []), "y"]
    decl = Chronology("c", tuple(ids), tuple(edges), (ExclusiveGroup("g", frozenset({"s", "y"})),))
    return build_chronology([Event(e, "s") for e in ids], decl)


def test_successor_blocked_by_a_rival_is_seen_at_include_time():
    # at the smallest legal bound the search may take 16 * 42 * 42 steps
    # (behavior._SEARCH_STEPS_PER_RUN_EVENT); walking the 2^40 choices of x's
    # would pass that and raise BoundExceeded
    chron = fan(40)
    assert enumerate_runs(chron, bound=len(chron.events)) == []


def test_events_with_no_path_to_an_end_are_never_included():
    # end: y only, so d (no successors) and every x that leads only to d can
    # never be in a run; including x's would walk 2^40 dead branches
    xs = [f"x{i}" for i in range(40)]
    ids = ["s", *xs, "d", "y"]
    edges = [("s", "y")] + [("s", x) for x in xs] + [(x, "d") for x in xs]
    decl = Chronology("c", tuple(ids), tuple(edges), end=("y",))
    chron = build_chronology([Event(e, "s") for e in ids], decl)
    assert enumerate_runs(chron, bound=len(ids)) == [("s", "y")]


def test_events_forced_out_are_no_successors():
    # twenty threads a_i -> b_i meet at c; with b1..b19 forced out no a_i but
    # a0 can reach c, and counting b_i as a_i's successor would walk the 2^19
    # subsets of those a's past the cap of 16 * 1 * 41 steps at bound 1
    threads = range(20)
    ids = [f"a{i}" for i in threads] + [f"b{i}" for i in threads] + ["c"]
    edges = [(f"a{i}", f"b{i}") for i in threads] + [(f"b{i}", "c") for i in threads]
    chron = build_chronology([Event(e, "s") for e in ids], Chronology("c", tuple(ids), tuple(edges)))
    forced_out = {f"b{i}" for i in threads} - {"b0"}
    assert list(search_runs(chron, 1, {"a0", "b0", "c"}, forced_out)) == [frozenset({"a0", "b0", "c"})]
    assert list(search_runs(chron, 1, {"a1", "c"}, forced_out)) == []


def test_the_search_orders_a_chronology_once_whatever_it_forces(monkeypatch):
    real, calls = behavior.topological_order, []
    monkeypatch.setattr(behavior, "topological_order", lambda *a: calls.append(a) or real(*a))
    chron = diamonds(3)
    calls.clear()
    runs = [list(search_runs(chron, 8, forced_out={e})) for e in ("a0", "b0", "a1")]
    assert [len(r) for r in runs] == [4, 4, 4] and len(calls) == 1


def test_search_steps_are_capped_by_the_bound():
    # the dead end is two steps past the x's, beyond the include-time check
    chron = fan(40, via="z")
    with pytest.raises(BoundExceeded, match="steps"):
        enumerate_runs(chron, bound=len(chron.events))
    assert len(enumerate_runs(diamonds(5), bound=32)) == 32


def test_run_set_valid_runs_at_most_once_per_run(monkeypatch, airport_chronology):
    real, calls = behavior.run_set_valid, []
    monkeypatch.setattr(behavior, "run_set_valid", lambda c, s: calls.append(s) or real(c, s))
    for chron, count in ((airport_chronology, 4), (diamonds(5), 32)):
        calls.clear()
        runs = enumerate_runs(chron)
        assert len(runs) == count
        assert 0 < len(calls) <= len(runs)


def test_enumeration_matches_the_subset_oracle():
    rng = random.Random(53)
    for _ in range(200):
        events, decl = random_chronology(rng, rng.randint(1, 12))
        chron = build_chronology(events, decl)
        assert enumerate_runs(chron, bound=100_000) == enumerate_runs_by_subsets(chron, bound=100_000), decl


@given(declared_chronologies())
@settings(max_examples=300, deadline=None)
def test_enumeration_matches_the_subset_oracle_on_declared_starts_and_ends(chron):
    assert enumerate_runs(chron, bound=100_000) == enumerate_runs_by_subsets(chron, bound=100_000)


# -- oracle equivalence -------------------------------------------------------


def oracle_accepts(chron: Chronology, run_sets, seq) -> bool:
    """Trace acceptance spelled set-first: the occurred set must be an
    enumerated run and the sequence a linear extension of the edges on it."""
    s = frozenset(seq)
    if len(s) != len(seq) or s not in run_sets:
        return False
    pos = {e: i for i, e in enumerate(seq)}
    return all(pos[u] < pos[v] for u, v in chron.edges if u in pos and v in pos)


def test_evaluate_agrees_with_run_enumeration_on_small_dags():
    rng = random.Random(41)
    for round_no in range(50):
        n = rng.randint(2, 6)
        events, decl = random_chronology(rng, n)
        chron = build_chronology(events, decl)
        run_sets = {frozenset(r) for r in enumerate_runs_by_subsets(chron, bound=100000)}
        ids = sorted(chron.events)
        for size in range(0, n + 1):
            for subset in itertools.combinations(ids, size):
                for seq in itertools.permutations(subset):
                    got = evaluate_trace(chron, trace_of(*seq)).truth
                    want = oracle_accepts(chron, run_sets, seq)
                    assert got == want, (round_no, decl, seq)


def test_evaluate_agrees_with_run_enumeration_up_to_twelve_events():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(8, 12)
        events, decl = random_chronology(rng, n)
        chron = build_chronology(events, decl)
        run_sets = {frozenset(r) for r in enumerate_runs_by_subsets(chron, bound=1_000_000)}
        ids = sorted(chron.events)
        for run in sorted(run_sets, key=sorted)[:50]:
            assert evaluate_trace(chron, trace_of(*canonical_order(chron, run))).truth
        for _ in range(200):
            seq = rng.sample(ids, rng.randint(0, n))
            got = evaluate_trace(chron, trace_of(*seq)).truth
            want = oracle_accepts(chron, run_sets, tuple(seq))
            assert got == want, (decl, seq)


def test_run_sets_round_trip_canonical_order():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(2, 8)
        events, decl = random_chronology(rng, n)
        chron = build_chronology(events, decl)
        for run in enumerate_runs_by_subsets(chron, bound=100000):
            occurred = frozenset(run)
            assert run_set_valid(chron, occurred)
            assert tuple(canonical_order(chron, occurred)) == run
