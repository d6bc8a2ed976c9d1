"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
import itertools
import json
import random
import re

from tmkit.behavior import Trace, build_chronology, enumerate_runs, evaluate_trace
from tmkit.cli import main
from tmkit.model import models_isomorphic
from tmkit.simulate import Seeded, simulate
from tmkit.syntax import parse_text, print_document
from tmkit.validate import desugar, validate_static

from conftest import FIXTURES, fixture_path, load
from genutil import random_chronology, random_document, random_simplified_model
from oracles import enumerate_runs_by_subsets

AIRPORT_SUBDIAGRAM_LABELS = [
    "PASSENGER-WITH-LUGGAGE-IS-PRESENT",
    "PASSENGER-WITHOUT-LUGGAGE-IS-PRESENT",
    "PASSENGER-WITH-LUGGAGE-MOVES-TO-THE-COUNTER",
    "LUGGAGE-IS-RECEIVED-AND-PROCESSED-AT-THE-COUNTER",
    "PASSENGER-WITH-LUGGAGE-IS-PROCESSED-TO-BE-A-PASSENGER-WITH-TICKET-AND-LEAVES-THE-COUNTER",
    "PASSENGER-WITHOUT-LUGGAGE-MOVES-TO-THE-SELF-SERVICE-AREA",
    "PASSENGER-WITHOUT-LUGGAGE-IS-PROCESSED-TO-BE-A-PASSENGER-WITH-TICKET-AND-LEAVES-THE-SELF-SERVICE-AREA",
    "PASSENGER-WITH-A-TICKET-ARRIVES-AT-THE-QUEUE-AREA",
    "PASSENGER-WITH-A-TICKET-IS-PROCESSED-AT-THE-QUEUE-AREA-AND-IDENTIFIED-AS-A-SCHENGEN-TYPE-AND-MOVES-TO-THE-SECURITY-CONTROL-AREA",
    "PASSENGER-WITH-A-TICKET-IS-PROCESSED-AT-THE-QUEUE-AREA-IS-IDENTIFIED-AS-A-NON-SCHENGEN-TYPE-AND-MOVES-TO-THE-BOARDER-CONTROL-AREA",
    "AT-THE-BOARDER-CONTROL-AREA-THE-PASSENGER-HAS-HIS/HER-PASSPORT-PROCESSED",
    "AT-THE-BOARDER-CONTROL-AREA-THE-PASSENGER-MOVES-TO-THE-SECURITY-CONTROL-AREA",
    "PASSENGER-WAITS-FOR-BOARDING-AT-THE-SECURITY-CONTROL-AREA",
    "PASSENGER-LEAVES-THE-SECURITY-CONTROL-AREA-TO-BOARD-THE-PLANE",
]

AIRPORT_RUN_SETS = {
    frozenset({"E1", "E3", "E4", "E5", "E8", "E9", "E13", "E14"}),
    frozenset({"E1", "E3", "E4", "E5", "E8", "E10", "E11", "E12", "E13", "E14"}),
    frozenset({"E2", "E6", "E7", "E8", "E9", "E13", "E14"}),
    frozenset({"E2", "E6", "E7", "E8", "E10", "E11", "E12", "E13", "E14"}),
}

CORPUS = [
    "green_cheese.tm",
    "bread.tm",
    "zero_sum.tm",
    "john_mary_v1.tm",
    "john_mary_v2.tm",
    "telescope_v1.tm",
    "telescope_v2.tm",
    "liar.tm",
]


def trace_of(*events):
    return Trace("t", tuple((e, i) for i, e in enumerate(events)))


def fixture_trace(doc, trace_id):
    return {t.id: t for t in doc.traces}[trace_id]


def test_acceptance_1_airport_fidelity(airport, capsys):
    status = main(["check", fixture_path("airport.tm")])
    captured = capsys.readouterr()
    assert status == 0
    assert "error" not in captured.err
    assert len(airport.subdiagrams) == 14
    assert [s.label for s in airport.subdiagrams] == AIRPORT_SUBDIAGRAM_LABELS
    assert [(e.id, e.subdiagram) for e in airport.events] == [(f"E{i}", f"s{i}") for i in range(1, 15)]
    report = json.loads(re.search(r"```tmkit\n(.*?)\n```", captured.out, re.S).group(1))
    assert report["coverage"]["uncovered_stages"] == []
    assert report["coverage"]["uncovered_arcs"] == []
    print("ACCEPTANCE 1 airport fixture fidelity: PASS")


def test_acceptance_2_exactly_four_runs(airport, airport_chronology, capsys):
    status = main(["runs", fixture_path("airport.tm")])
    captured = capsys.readouterr()
    assert status == 0
    printed = [l for l in captured.out.splitlines() if l.startswith("[")]
    assert len(printed) == 4
    oracle_runs = enumerate_runs_by_subsets(airport_chronology)
    assert {frozenset(r) for r in oracle_runs} == AIRPORT_RUN_SETS
    assert printed == ["[" + ", ".join(r) + "]" for r in oracle_runs]
    for run in oracle_runs:
        assert evaluate_trace(airport_chronology, trace_of(*run)).truth
    print("ACCEPTANCE 2 run count (4 runs, oracle-checked): PASS")


def test_acceptance_3_t_schema_evaluation(airport, airport_chronology):
    verdicts = {
        name: evaluate_trace(airport_chronology, fixture_trace(airport, name))
        for name in ("schengen_luggage", "mixed_branch", "swapped", "nothing")
    }
    assert verdicts["schengen_luggage"].truth
    assert str(verdicts["mixed_branch"].violation).startswith("ExclusivityViolation")
    assert str(verdicts["swapped"].violation) == "OrderViolation(E3,E4)"
    assert str(verdicts["nothing"].violation) == "NotStarted"
    print("ACCEPTANCE 3 eventized truth evaluation: PASS")


def test_acceptance_4_worked_example_corpus():
    for name in CORPUS:
        doc = load(name)
        diags = validate_static(doc.model)
        assert not any(d.severity.value == "error" for d in diags), (name, diags)
        if doc.chronologies and doc.traces:
            chron = build_chronology(doc.events, doc.chronologies[0])
            first = doc.traces[0]
            assert evaluate_trace(chron, first).truth, name

    cheese = load("green_cheese.tm")
    gc = build_chronology(cheese.events, cheese.chronologies[0])
    assert evaluate_trace(gc, fixture_trace(cheese, "in_order")).truth
    assert not evaluate_trace(gc, fixture_trace(cheese, "reversed_order")).truth

    liar = load("liar.tm")
    lying = build_chronology(liar.events, liar.chronologies[0])
    assert enumerate_runs(lying) == [("E1", "E2", "E3")]
    trace = fixture_trace(liar, "the_usual_way")
    first = evaluate_trace(lying, trace)
    assert first.truth
    for _ in range(1000):  # self-reference cannot make the answer regress
        assert evaluate_trace(lying, trace) == first
    print("ACCEPTANCE 4 worked-example corpus: PASS")


def test_acceptance_5_entailment_and_ambiguity(capsys):
    status = main(["iso", fixture_path("john_mary_v1.tm"), fixture_path("john_mary_v2.tm")])
    assert status == 0
    status = main(["iso", fixture_path("telescope_v1.tm"), fixture_path("telescope_v2.tm")])
    assert status == 1
    capsys.readouterr()

    v1 = load("telescope_v1.tm")
    v2 = load("telescope_v2.tm")
    b1 = build_chronology(v1.events, v1.chronologies[0])
    b2 = build_chronology(v2.events, v2.chronologies[0])
    witnessed = fixture_trace(v1, "seen_through")
    assert evaluate_trace(b1, witnessed).truth
    assert not evaluate_trace(b2, witnessed).truth
    print("ACCEPTANCE 5 entailment and ambiguity: PASS")


def test_acceptance_6_desugaring():
    cheese = load("green_cheese.tm")
    full = desugar(cheese.model)
    assert validate_static(full) == []
    twin = load("green_cheese_full.tm")
    assert models_isomorphic(full, twin.model).isomorphic

    rng = random.Random(606)
    for i in range(200):
        simplified = random_simplified_model(rng)
        assert validate_static(simplified) == [], i
        expanded = desugar(simplified)
        assert validate_static(expanded) == [], (i, validate_static(expanded))
    print("ACCEPTANCE 6 desugaring (fixture + 200 random models): PASS")


def test_acceptance_7_oracle_equivalence():
    rng = random.Random(707)

    def agreement(chron, seq):
        run_sets = chron_runs[id(chron)]
        pos = {e: i for i, e in enumerate(seq)}
        want = frozenset(seq) in run_sets and all(
            pos[u] < pos[v] for u, v in chron.edges if u in pos and v in pos
        )
        got = evaluate_trace(chron, trace_of(*seq)).truth
        assert got == want, (sorted(chron.edges), chron.groups, seq)

    chron_runs = {}
    checked = 0
    for round_no in range(200):
        n = rng.randint(2, 10)
        events, decl = random_chronology(rng, n)
        chron = build_chronology(events, decl)
        chron_runs[id(chron)] = {frozenset(r) for r in enumerate_runs_by_subsets(chron, bound=1_000_000)}
        ids = sorted(chron.events)
        if n <= 7:
            # exhaustive tier: every permutation of every event subset
            for size in range(0, n + 1):
                for subset in itertools.combinations(ids, size):
                    for seq in itertools.permutations(subset):
                        agreement(chron, seq)
                        checked += 1
        else:
            for _ in range(300):
                size = rng.randint(0, n)
                seq = rng.sample(ids, size)
                agreement(chron, tuple(seq))
                checked += 1
    print(f"ACCEPTANCE 7 oracle equivalence over 200 chronologies ({checked} traces): PASS")


def test_acceptance_8_round_trips(airport, airport_chronology):
    for path in sorted(FIXTURES.glob("*.tm")):
        doc = load(path.name)
        assert parse_text(print_document(doc)).document == doc, path.name

    rng = random.Random(808)
    for i in range(500):
        doc = random_document(rng)
        printed = print_document(doc)
        reparsed = parse_text(printed)
        assert reparsed.document == doc, (i, printed)

    for seed in range(1, 101):
        trace = simulate(airport.model, airport.subdiagrams, airport.events, airport_chronology, Seeded(seed))
        assert evaluate_trace(airport_chronology, trace).truth, seed
    print("ACCEPTANCE 8 round-trips (fixtures, 500 documents, 100 seeds): PASS")
