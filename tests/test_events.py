import random

from tmkit import diagnostics as dg
from tmkit.events import Event, Subdiagram, check_subdiagram, coverage, eventize
from tmkit.model import STAGE_ORDER, StageKind, StageRef

from genutil import random_model


def sub_by_id(doc, sub_id):
    return {s.id: s for s in doc.subdiagrams}[sub_id]


def test_queue_branch_subdiagram_is_closed(airport):
    assert check_subdiagram(airport.model, sub_by_id(airport, "s10")) == []


def test_all_airport_subdiagrams_are_closed(airport):
    for sub in airport.subdiagrams:
        assert check_subdiagram(airport.model, sub) == [], sub.id


def test_arc_without_its_target_stage_breaks_closure(airport):
    broken = Subdiagram("bad", "BAD", stages=(StageRef("pax_lug", StageKind.CREATE),), arcs=("f1",))
    diags = check_subdiagram(airport.model, broken)
    assert [d.code for d in diags] == [dg.SUB_CLOSURE]


def test_unknown_stage_and_arc_are_reported(airport):
    broken = Subdiagram("bad", "BAD", stages=(StageRef("ghost", StageKind.CREATE),), arcs=("nope",))
    assert {d.code for d in check_subdiagram(airport.model, broken)} == {dg.SUB_UNRESOLVED}


def test_boundary_crossing_trigger_is_allowed(airport):
    # t1 reaches from counter.process into the nested ticket machine; a
    # subdiagram carrying it does not need the trigger's endpoints.
    sub = Subdiagram("only_trigger", "X", stages=(), arcs=("t1",))
    assert check_subdiagram(airport.model, sub) == []


def test_whole_model_as_one_subdiagram_is_closed(airport):
    everything = Subdiagram(
        "all",
        "EVERYTHING",
        stages=tuple(airport.model.stages),
        arcs=tuple(a.id for a in airport.model.arcs),
    )
    assert check_subdiagram(airport.model, everything) == []
    report = coverage(airport.model, [everything])
    assert not report.uncovered_stages and not report.uncovered_arcs


def test_airport_coverage_is_total(airport):
    report = coverage(airport.model, airport.subdiagrams)
    assert report.uncovered_stages == ()
    assert report.uncovered_arcs == ()


def test_dropping_one_part_uncovers_exactly_its_exclusive_elements(airport):
    s14 = sub_by_id(airport, "s14")
    rest = [s for s in airport.subdiagrams if s.id != "s14"]
    other_stages = {ref for s in rest for ref in s.stages}
    other_arcs = {a for s in rest for a in s.arcs}
    expected_stages = set(s14.stages) - other_stages
    expected_arcs = set(s14.arcs) - other_arcs
    report = coverage(airport.model, rest)
    assert set(report.uncovered_stages) == expected_stages
    assert set(report.uncovered_arcs) == expected_arcs
    assert expected_arcs  # the boarding move really is exclusive to s14


def test_empty_subdiagram_list_leaves_everything_uncovered(airport):
    report = coverage(airport.model, [])
    assert set(report.uncovered_stages) == set(airport.model.stages)
    assert set(report.uncovered_arcs) == {a.id for a in airport.model.arcs}


def test_random_partitions_cover_totally():
    rng = random.Random(5)
    for _ in range(25):
        model = random_model(rng)
        refs = list(model.stages)
        arcs = list(model.arcs)
        if not refs:
            continue
        k = rng.randint(1, 3)
        parts = [{"stages": set(), "arcs": set()} for _ in range(k)]
        for a in arcs:
            part = rng.choice(parts)
            part["arcs"].add(a.id)
            part["stages"].update((a.src, a.dst))
        for ref in refs:
            rng.choice(parts)["stages"].add(ref)
        subs = [
            Subdiagram(
                f"p{i}",
                f"P{i}",
                tuple(sorted(p["stages"], key=lambda r: (r.thimac, STAGE_ORDER.index(r.kind)))),
                tuple(sorted(p["arcs"])),
            )
            for i, p in enumerate(parts)
        ]
        report = coverage(model, subs)
        assert not report.uncovered_stages and not report.uncovered_arcs
        # deleting one part uncovers exactly its exclusive elements
        victim = rng.randrange(k)
        rest = [s for i, s in enumerate(subs) if i != victim]
        got = coverage(model, rest)
        exclusive_stages = set(subs[victim].stages) - {r for s in rest for r in s.stages}
        exclusive_arcs = set(subs[victim].arcs) - {a for s in rest for a in s.arcs}
        assert set(got.uncovered_stages) == exclusive_stages
        assert set(got.uncovered_arcs) == exclusive_arcs


def test_eventize_airport(airport):
    assert eventize(airport.subdiagrams, airport.events) == []


def test_eventize_rejects_empty_window(airport):
    diags = eventize(airport.subdiagrams, [Event("bad", "s1", window=(5, 3))])
    assert [d.code for d in diags] == [dg.EVENT_WINDOW]


def test_eventize_unknown_subdiagram(airport):
    diags = eventize(airport.subdiagrams, [Event("e", "ghost")])
    assert [d.code for d in diags] == [dg.EVENT_UNRESOLVED]


def test_two_events_over_one_subdiagram_warn_but_build(airport):
    pair = [Event("first", "s10"), Event("second", "s10")]
    diags = eventize(airport.subdiagrams, pair)
    assert [d.code for d in diags] == [dg.EVENT_SHARED]
    assert diags[0].severity is dg.Severity.WARNING
