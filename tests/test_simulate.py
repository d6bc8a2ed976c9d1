import hashlib
import importlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit.behavior import Chronology, ExclusiveGroup, build_chronology, enumerate_runs, evaluate_trace, run_set_valid
from tmkit.errors import Deadlock, IllegalAction, NotEnabled, PolicyError, TmkitError
from tmkit.events import Event, Subdiagram
from tmkit.model import Arc, ArcKind, StageKind, StageRef, Thimac, build_model
from tmkit.simulate import (
    RETIRED,
    Scripted,
    Seeded,
    _moves,
    enabled_events,
    fire_event,
    initial_state,
    simulate,
)

from conftest import FIXTURES, load
from genutil import random_chronology, random_document
from oracles import enabled_events_by_runs, enumerate_runs_by_subsets, instances_after_moves
from strategies import declared_chronologies

C, P, R, T, V = StageKind.CREATE, StageKind.PROCESS, StageKind.RELEASE, StageKind.TRANSFER, StageKind.RECEIVE


def airport_sim(airport, airport_chronology):
    return initial_state(airport.model, airport.subdiagrams, airport.events, airport_chronology)


def courier_model():
    decls = [
        Thimac("a", "A", frozenset({C, P, R, T}), things=("parcel",)),
        Thimac("b", "B", frozenset({T, V, P})),
    ]
    arcs = [
        Arc("f1", ArcKind.FLOW, StageRef("a", C), StageRef("a", P)),
        Arc("f2", ArcKind.FLOW, StageRef("a", P), StageRef("a", R)),
        Arc("f3", ArcKind.FLOW, StageRef("a", R), StageRef("a", T)),
        Arc("f4", ArcKind.FLOW, StageRef("a", T), StageRef("b", T)),
        Arc("f5", ArcKind.FLOW, StageRef("b", T), StageRef("b", V)),
        Arc("f6", ArcKind.FLOW, StageRef("b", V), StageRef("b", P)),
    ]
    return build_model("courier", decls, arcs)


def courier_context():
    model = courier_model()
    subs = [
        Subdiagram("s1", "PARCEL-READY", (StageRef("a", C), StageRef("a", P), StageRef("a", R)), ("f1", "f2")),
        Subdiagram(
            "s2",
            "PARCEL-DELIVERED",
            (StageRef("a", R), StageRef("a", T), StageRef("b", T), StageRef("b", V), StageRef("b", P)),
            ("f3", "f4", "f5", "f6"),
        ),
    ]
    events = [Event("E1", "s1"), Event("E2", "s2")]
    chron = build_chronology(events, Chronology("c", edges=(("E1", "E2"),)))
    return model, subs, events, chron


def instance(state, instance_id):
    return next((i for i in state.instances if i.id == instance_id), None)


# -- generic actions ----------------------------------------------------------


def test_transfer_carries_a_released_thing_across():
    model, subs, events, chron = courier_context()
    state = initial_state(model, subs, events, chron)
    state = fire_event(state, "E1")
    assert instance(state, "parcel").location == StageRef("a", R)
    state = fire_event(state, "E2")
    parcel = instance(state, "parcel")
    assert parcel.location == StageRef("b", P)
    assert parcel.tags == ("processed@a", "processed@b")


def test_released_thing_cannot_be_processed_again():
    model = build_model(
        "loop",
        [Thimac("a", "A", frozenset({C, P, R}), things=("x",))],
        [
            Arc("f1", ArcKind.FLOW, StageRef("a", C), StageRef("a", R)),
            Arc("f2", ArcKind.FLOW, StageRef("a", R), StageRef("a", P)),
        ],
    )
    subs = [
        Subdiagram("s1", "READY", (StageRef("a", C), StageRef("a", R)), ("f1",)),
        Subdiagram("s2", "AGAIN", (StageRef("a", R), StageRef("a", P)), ("f2",)),
    ]
    events = [Event("E1", "s1"), Event("E2", "s2")]
    chron = build_chronology(events, Chronology("c", edges=(("E1", "E2"),)))
    state = fire_event(initial_state(model, subs, events, chron), "E1")
    with pytest.raises(IllegalAction) as err:
        fire_event(state, "E2")
    assert err.value.stage == StageRef("a", P)
    assert str(err.value) == "a.process: 'x' is released; it can only transfer out"


def test_transfer_without_peer_retires():
    model = build_model(
        "exit",
        [Thimac("a", "A", frozenset({C, P, R, T}), things=("x",))],
        [
            Arc("f1", ArcKind.FLOW, StageRef("a", C), StageRef("a", R)),
            Arc("f2", ArcKind.FLOW, StageRef("a", R), StageRef("a", T)),
        ],
    )
    subs = [
        Subdiagram("s1", "GONE", (StageRef("a", C), StageRef("a", R), StageRef("a", T)), ("f1", "f2")),
        Subdiagram("s2", "WORK", (StageRef("a", P),)),
    ]
    events = [Event("E1", "s1"), Event("E2", "s2")]
    chron = build_chronology(events, Chronology("c", edges=(("E1", "E2"),)))
    state = fire_event(initial_state(model, subs, events, chron), "E1")
    assert instance(state, "x").location is RETIRED
    with pytest.raises(IllegalAction) as err:
        fire_event(state, "E2")
    assert err.value.stage == StageRef("a", P)
    assert str(err.value) == "a.process: event 'E2' has nothing to process"


def test_a_stage_listed_twice_acts_once():
    # a subdiagram is a set of stages and arcs, whatever its text repeats
    model = build_model("twice", [Thimac("a", "A", frozenset({C, P}), things=("x",))])
    subs = [Subdiagram("c", "MADE", (StageRef("a", C),)), Subdiagram("s", "WORKED", (StageRef("a", P), StageRef("a", P)))]
    events = [Event("E1", "c"), Event("E2", "s")]
    chron = build_chronology(events, Chronology("c", edges=(("E1", "E2"),)))
    state = fire_event(fire_event(initial_state(model, subs, events, chron), "E1"), "E2")
    assert instance(state, "x").tags == ("processed@a",)


# -- fire_event ---------------------------------------------------------------


def test_fire_first_airport_event_creates_the_passenger(airport, airport_chronology):
    state = airport_sim(airport, airport_chronology)
    state = fire_event(state, "E1")
    created = {i.id: i.location for i in state.instances}
    assert created == {
        "passenger_l": StageRef("pax_lug", C),
        "luggage": StageRef("luggage", C),
    }
    assert state.log == (("E1", 0),)


def test_fire_out_of_order_is_not_enabled(airport, airport_chronology):
    state = airport_sim(airport, airport_chronology)
    state = fire_event(state, "E1")
    with pytest.raises(NotEnabled):
        fire_event(state, "E9")


def test_luggage_event_starves_without_the_luggage_flow(airport, airport_chronology):
    # delete the flow that carries luggage into the counter and re-run
    model = build_model("broken", airport.model.roots, [a for a in airport.model.arcs if a.id != "f11"])
    subs = [
        Subdiagram(s.id, s.label, s.stages, tuple(a for a in s.arcs if a != "f11"))
        for s in airport.subdiagrams
    ]
    state = initial_state(model, subs, airport.events, airport_chronology)
    state = fire_event(state, "E1")
    state = fire_event(state, "E3")
    with pytest.raises(IllegalAction) as err:
        fire_event(state, "E4")
    assert err.value.stage == StageRef("lug_handling", P)


def test_triggered_creation_happens_after_the_event(airport, airport_chronology):
    state = airport_sim(airport, airport_chronology)
    for e in ("E1", "E3", "E4"):
        state = fire_event(state, e)
    assert instance(state, "ticket_counter") is None
    state = fire_event(state, "E5")
    assert instance(state, "ticket_counter").location == StageRef("ticket_c", C)


def test_passenger_retires_on_boarding(airport, airport_chronology):
    state = airport_sim(airport, airport_chronology)
    for e in ("E1", "E3", "E4", "E5", "E8", "E9", "E13", "E14"):
        state = fire_event(state, e)
    assert instance(state, "passenger_l").location is RETIRED
    assert state.log[-1] == ("E14", 7)


# -- simulate -----------------------------------------------------------------


def test_scripted_non_schengen_route(airport, airport_chronology):
    trace = simulate(
        airport.model,
        airport.subdiagrams,
        airport.events,
        airport_chronology,
        Scripted((("start", "E2"), ("branch", "E10"))),
    )
    assert trace.events() == ("E2", "E6", "E7", "E8", "E10", "E11", "E12", "E13", "E14")
    assert evaluate_trace(airport_chronology, trace).truth


def test_scripted_needs_every_reachable_group(airport, airport_chronology):
    with pytest.raises(PolicyError):
        simulate(airport.model, airport.subdiagrams, airport.events, airport_chronology, Scripted((("branch", "E9"),)))


def test_a_policy_other_than_seeded_or_scripted_is_a_policy_error(airport, airport_chronology):
    # a bare tuple has Seeded's shape but is not a Seeded policy
    with pytest.raises(PolicyError, match="not tuple"):
        simulate(airport.model, airport.subdiagrams, airport.events, airport_chronology, (0,))


def test_single_event_model_simulates_to_one_step():
    doc = load("single_create.tm")
    chron = build_chronology(doc.events, doc.chronologies[0])
    trace = simulate(doc.model, doc.subdiagrams, doc.events, chron, Seeded(0))
    assert trace.occurrences == (("E1", 0),)


def test_seeded_simulation_round_trips_and_is_deterministic(airport, airport_chronology):
    for seed in range(1, 41):
        trace = simulate(airport.model, airport.subdiagrams, airport.events, airport_chronology, Seeded(seed))
        assert evaluate_trace(airport_chronology, trace).truth, seed
        again = simulate(airport.model, airport.subdiagrams, airport.events, airport_chronology, Seeded(seed))
        assert again == trace


_LUGGAGE = ("luggage", "lug_handling.process", ("processed@lug_handling",))
_TICKET_C = ("ticket_counter", "ticket_c.create", ())
_CHECKED_IN = ("E1", "E3", "E4", "E5", "E8")
_SCHENGEN = (*_CHECKED_IN, "E9", "E13", "E14")
_NON_SCHENGEN = (*_CHECKED_IN, "E10", "E11", "E12", "E13", "E14")
_AIRPORT_SEEDS = {
    # seed: (fired events, final (id, location, tags) of every instance)
    0: (
        ("E2", "E6", "E7", "E8", "E9", "E13", "E14"),
        (
            ("passenger_n", "retired", ("processed@selfsvc", "processed@queue", "processed@security")),
            ("ticket_selfsvc", "ticket_s.create", ()),
        ),
    ),
    1: (
        _SCHENGEN,
        (_LUGGAGE, ("passenger_l", "retired", ("processed@counter", "processed@queue", "processed@security")), _TICKET_C),
    ),
    3: (
        _NON_SCHENGEN,
        (
            _LUGGAGE,
            ("passenger_l", "retired", ("processed@counter", "processed@queue", "processed@border", "processed@security")),
            ("passport", "passport.process", ("processed@passport",)),
            _TICKET_C,
        ),
    ),
}
_AIRPORT_SEEDS[2], _AIRPORT_SEEDS[4] = _AIRPORT_SEEDS[1], _AIRPORT_SEEDS[3]


@pytest.mark.parametrize("seed", sorted(_AIRPORT_SEEDS))
def test_seeded_airport_runs_are_pinned(airport, airport_chronology, seed):
    events, instances = _AIRPORT_SEEDS[seed]
    trace = simulate(airport.model, airport.subdiagrams, airport.events, airport_chronology, Seeded(seed))
    assert trace.occurrences == tuple((e, step) for step, e in enumerate(events))
    state = airport_sim(airport, airport_chronology)
    for e in events:
        state = fire_event(state, e)
    assert tuple((i.id, str(i.location), i.tags) for i in state.instances) == instances


# The SHA-256 of every seeded outcome, a trace's occurrences or an error's type and
# message, over every chronology that builds in the fixtures and in 300 random
# documents, at seeds 0-9. A change that alters any trace or simulate error must
# update the digest and list the traces it changed in CHANGES.md.
SEEDED_OUTCOMES = (1070, "e0fcc3c154df0b3326de4511bbd6eef1219fee4450ca144c605a26abb0e58377")


def test_seeded_outcomes_are_pinned():
    docs = [load(f.name) for f in sorted(FIXTURES.glob("*.tm"))] + [random_document(random.Random(i)) for i in range(300)]
    digest, count = hashlib.sha256(), 0
    for doc in docs:
        for decl in doc.chronologies:
            try:
                chron = build_chronology(doc.events, decl)
            except TmkitError:
                continue
            for seed in range(10):
                try:
                    outcome = simulate(doc.model, doc.subdiagrams, doc.events, chron, Seeded(seed)).occurrences
                except TmkitError as err:
                    outcome = (type(err).__name__, str(err))
                digest.update(f"{outcome!r}\n".encode())
                count += 1
    assert (count, digest.hexdigest()) == SEEDED_OUTCOMES


def test_simulated_traces_of_random_documents_evaluate_true():
    rng = random.Random(11)
    simulated = 0
    for doc_no in range(300):
        doc = random_document(rng)
        for decl in doc.chronologies:
            try:
                chron = build_chronology(doc.events, decl)
            except TmkitError:
                continue
            for seed in range(3):
                try:
                    trace = simulate(doc.model, doc.subdiagrams, doc.events, chron, Seeded(seed))
                except TmkitError:
                    continue  # any other exception fails the test
                simulated += 1
                assert evaluate_trace(chron, trace).truth, (doc_no, decl.id, seed, trace)
    assert simulated > 100


def test_firing_moves_things_as_the_per_move_oracle_does():
    """At every state of seeded walks over random documents, _moves gives the
    oracle's instances for each frontier event, or raises IllegalAction just
    when the oracle does, at the same stage with the same message; and
    fire_event moves the things as _moves does."""
    rng = random.Random(13)
    docs = [load(f.name) for f in sorted(FIXTURES.glob("*.tm"))] + [random_document(rng) for _ in range(1000)]
    moved = illegal = fired = 0
    for doc_no, doc in enumerate(docs):
        for decl in doc.chronologies:
            try:
                chron = build_chronology(doc.events, decl)
            except TmkitError:
                continue
            for seed in range(3):
                walk = random.Random(seed)
                state = initial_state(doc.model, doc.subdiagrams, doc.events, chron)
                while enabled := enabled_events(state):
                    outcomes = {}
                    for event_id in sorted(state.frontier):
                        where = (doc_no, decl.id, seed, state.log, event_id)
                        try:
                            expected = instances_after_moves(state.ctx, event_id, state.instances)
                        except IllegalAction as err:
                            with pytest.raises(IllegalAction) as got:
                                _moves(state.ctx, event_id, state.instances)
                            assert (got.value.stage, str(got.value)) == (err.stage, str(err)), where
                            outcomes[event_id] = err
                            illegal += 1
                        else:
                            assert _moves(state.ctx, event_id, state.instances) == expected, where
                            outcomes[event_id] = expected
                            moved += 1
                    event_id = walk.choice(enabled)
                    if isinstance(outcomes[event_id], IllegalAction):
                        with pytest.raises(IllegalAction) as got:
                            fire_event(state, event_id)
                        assert str(got.value) == str(outcomes[event_id]), (doc_no, decl.id, seed, state.log)
                        break
                    state = fire_event(state, event_id)
                    assert state.instances == outcomes[event_id], (doc_no, decl.id, seed, state.log)
                    fired += 1
    assert fired > 1000 and moved > 3000 and illegal > 600, (fired, moved, illegal)


def test_instances_hold_exactly_one_location(airport, airport_chronology):
    state = airport_sim(airport, airport_chronology)
    for e in ("E1", "E3", "E4", "E5"):
        state = fire_event(state, e)
        ids = [i.id for i in state.instances]
        assert len(ids) == len(set(ids))


def test_create_only_model_generates_only_creations():
    doc = load("single_create.tm")
    chron = build_chronology(doc.events, doc.chronologies[0])
    state = initial_state(doc.model, doc.subdiagrams, doc.events, chron)
    state = fire_event(state, "E1")
    assert all(i.location.kind is C for i in state.instances)
    assert all(i.tags == () for i in state.instances)


def test_closed_window_deadlocks():
    model = build_model("m", [Thimac("a", "A", frozenset({C}), things=("x",))])
    subs = [Subdiagram("s", "S", (StageRef("a", C),))]
    events = [Event("E1", "s", window=(5, 5)), Event("E2", "s", window=(0, 1))]
    chron = build_chronology(events, Chronology("c", edges=(("E1", "E2"),)))
    with pytest.raises(Deadlock) as err:
        simulate(model, subs, events, chron, Seeded(0))
    assert str(err.value) == "no event can fire after [E1] at step 6: the window 0..1 of E2 has closed"


def test_a_chronology_without_runs_deadlocks_at_once():
    model, subs = any_event_fires()
    events = [Event("A", "s"), Event("B", "s")]
    chron = build_chronology(events, Chronology("c", ("A", "B"), start=("A",), end=("B",)))
    with pytest.raises(Deadlock) as err:
        simulate(model, subs, events, chron, Seeded(0))
    assert str(err.value) == "no event can fire after [] at step 0: chronology 'c' has no run"


def test_scripted_stops_once_its_choices_allow_nothing_and_a_run_is_complete():
    # the runs are [A], [A, B] and [A, D]; B and D are alternatives
    model, subs = any_event_fires()
    events = [Event(e, "s") for e in ("A", "B", "D")]
    group = ExclusiveGroup("g", frozenset({"B", "D"}))
    decl = Chronology("c", ("A", "B", "D"), (("A", "B"), ("A", "D")), (group,), ("A",), ("A", "B", "D"))
    chron = build_chronology(events, decl)
    assert simulate(model, subs, events, chron, Scripted(())).events() == ("A",)
    assert simulate(model, subs, events, chron, Scripted((("g", "B"),))).events() == ("A", "B")
    assert simulate(model, subs, events, chron, Scripted((("g", "D"),))).events() == ("A", "D")


def test_an_empty_window_never_opens():
    model, subs = any_event_fires()
    events = [Event("E1", "s", window=(5, 3))]
    chron = build_chronology(events, Chronology("c", ("E1",)))
    with pytest.raises(Deadlock) as err:
        simulate(model, subs, events, chron, Seeded(0))
    assert str(err.value) == "no event can fire after [] at step 0: the window 5..3 of E1 has closed"


def test_seeded_may_stop_at_a_run_that_a_longer_run_extends():
    # the runs are [A] and [A, B]
    model, subs = any_event_fires()
    events = [Event("A", "s"), Event("B", "s")]
    chron = build_chronology(events, Chronology("c", ("A", "B"), (("A", "B"),), end=("A", "B")))
    traces = {simulate(model, subs, events, chron, Seeded(seed)).events() for seed in range(10)}
    assert traces == {("A",), ("A", "B")}


def test_window_fast_forwards_the_clock():
    model = build_model("m", [Thimac("a", "A", frozenset({C}), things=("x",))])
    subs = [Subdiagram("s", "S", (StageRef("a", C),))]
    events = [Event("E1", "s", window=(3, 9)), Event("E2", "s")]
    chron = build_chronology(events, Chronology("c", edges=(("E1", "E2"),)))
    trace = simulate(model, subs, events, chron, Seeded(1))
    assert trace.occurrences == (("E1", 3), ("E2", 4))
    assert evaluate_trace(chron, trace).truth


def test_enabled_respects_exclusion(airport, airport_chronology):
    state = airport_sim(airport, airport_chronology)
    assert enabled_events(state) == ["E1", "E2"]
    state = fire_event(state, "E1")
    assert enabled_events(state) == ["E3"]


# -- chronology bookkeeping ---------------------------------------------------


def any_event_fires():
    """A model and the one subdiagram ``s``, which can fire any number of times."""
    model = build_model("m", [Thimac("a", "A", frozenset({C}), things=("x",))])
    return model, [Subdiagram("s", "S", (StageRef("a", C),))]


def walk_against_the_oracle(chron, rng):
    """Fire random enabled events until none is left, checking the enabled
    and unfinished sets against their from-scratch definitions at every state."""
    model, subs = any_event_fires()
    state = initial_state(model, subs, [Event(e, "s") for e in chron.events], chron)
    runs = [frozenset(r) for r in enumerate_runs_by_subsets(chron)]
    while True:
        enabled = enabled_events(state)
        assert enabled == enabled_events_by_runs(state, runs), state.log
        assert state.unfinished == {
            e for e in state.fired if e not in chron.ends and not chron.successors(e) & state.fired
        }
        assert state.out == {
            e
            for f in state.fired
            for e in chron.predecessors(f) | chron.rivals.get(f, frozenset())
            if e not in state.fired
        }
        assert state.frontier == {
            e
            for e in chron.events - state.fired - state.out
            if e in chron.starts or chron.predecessors(e) & state.fired
        }
        if not enabled:
            return
        state = fire_event(state, rng.choice(enabled))


def test_enabled_events_match_the_run_oracle():
    rng = random.Random(29)
    for _ in range(200):
        events, decl = random_chronology(rng, rng.randint(1, 12))
        ids = list(decl.event_ids)
        if rng.random() < 0.5:
            decl = replace(decl, start=tuple(rng.sample(ids, rng.randint(1, len(ids)))))
        if rng.random() < 0.5:
            decl = replace(decl, end=tuple(rng.sample(ids, rng.randint(1, len(ids)))))
        for i, ev in enumerate(events):
            if rng.random() < 0.3:
                t0 = rng.randint(0, 8)
                events[i] = ev._replace(window=(t0, t0 + rng.randint(0, 6)))
        walk_against_the_oracle(build_chronology(events, decl), rng)


@given(declared_chronologies(), st.data())
@settings(max_examples=200, deadline=None)
def test_enabled_events_match_the_run_oracle_on_declared_starts_and_ends(chron, data):
    window = st.tuples(st.integers(0, 8), st.integers(0, 6)).map(lambda w: (w[0], w[0] + w[1]))
    windows = data.draw(st.dictionaries(st.sampled_from(sorted(chron.events)), window))
    rng = random.Random(data.draw(st.integers(0, 99)))
    walk_against_the_oracle(replace(chron, windows=tuple(sorted(windows.items()))), rng)


def test_a_long_chain_checks_its_run_once(monkeypatch):
    # simulate's stop test reads its own bookkeeping, so the count holds only the one leaf check of the
    # initial run search
    real, calls = run_set_valid, []
    monkeypatch.setattr("tmkit.behavior.run_set_valid", lambda c, s: calls.append(s) or real(c, s))
    ids = [f"e{i}" for i in range(2000)]
    events = [Event(e, "s") for e in ids]
    chron = build_chronology(events, Chronology("c", edges=tuple(zip(ids, ids[1:]))))
    model, subs = any_event_fires()
    trace = simulate(model, subs, events, chron, Seeded(0))
    assert len(calls) == 1
    assert trace.events() == tuple(ids)
    assert evaluate_trace(chron, trace).truth


def test_each_move_is_searched_once(monkeypatch, airport, airport_chronology):
    # fire_event reuses the witness enabled_events found for the same move
    sim = importlib.import_module("tmkit.simulate")
    real, calls = sim.search_runs, []
    monkeypatch.setattr(sim, "search_runs", lambda c, b, *forced: calls.append(forced) or real(c, b, *forced))
    for seed in range(30):
        calls.clear()
        simulate(airport.model, airport.subdiagrams, airport.events, airport_chronology, Seeded(seed))
        assert len(calls) == len(set(calls)), seed


def test_every_move_sequence_reaches_exactly_the_runs():
    """Without windows, on a model that never starves, every sequence of
    moves can go on until the fired events form a run, and the runs so
    reached are the chronology's runs. States whose chronology bookkeeping
    agrees have the same moves, so each is expanded once."""
    model, subs = any_event_fires()
    rng = random.Random(41)
    for draw in range(220):
        events, decl = random_chronology(rng, rng.randint(1, 10))
        chron = build_chronology(events, decl)
        reached, seen = set(), set()
        stack = [initial_state(model, subs, events, chron)]
        while stack:
            state = stack.pop()
            key = (state.fired, state.out, state.frontier, state.witness, state.unfinished)
            if key in seen:
                continue
            seen.add(key)
            enabled = enabled_events(state)
            if run_set_valid(chron, state.fired):
                reached.add(state.fired)
            else:
                assert enabled, (draw, state.log)  # a deadlock
            stack.extend(fire_event(state, e) for e in enabled)
        assert reached == {frozenset(r) for r in enumerate_runs(chron)}, draw


def test_tmkit_simulate_is_the_function_and_the_step_api_is_in_its_module():
    import tmkit
    import tmkit.simulate as bound
    from tmkit.simulate import enabled_events as step_enabled, fire_event as step_fire, initial_state as step_initial

    module = importlib.import_module("tmkit.simulate")
    assert bound is tmkit.simulate is module.simulate
    assert (step_initial, step_enabled, step_fire) == (module.initial_state, module.enabled_events, module.fire_event)
    for name in ("initial_state", "enabled_events", "fire_event"):
        assert not hasattr(tmkit, name) and name not in tmkit.__all__
