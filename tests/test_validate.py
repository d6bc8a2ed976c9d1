import random

import pytest

from tmkit import diagnostics as dg
from tmkit.errors import NotSimplified
from tmkit.model import (
    Arc,
    ArcKind,
    Notation,
    StageKind,
    StageRef,
    Thimac,
    build_model,
    models_isomorphic,
)
from tmkit.validate import desugar, validate_static

from conftest import load
from genutil import random_simplified_model

C, P, R, T, V = StageKind.CREATE, StageKind.PROCESS, StageKind.RELEASE, StageKind.TRANSFER, StageKind.RECEIVE


def two_machines(notation, *arcs):
    decls = [
        Thimac("a", "A", frozenset({C, P, R, T, V})),
        Thimac("b", "B", frozenset({C, P, R, T, V})),
    ]
    arcs = [Arc(f"f{i}", kind, StageRef(*src), StageRef(*dst)) for i, (kind, src, dst) in enumerate(arcs)]
    return build_model("m", decls, arcs, notation)


def codes(diags):
    return [d.code for d in diags]


def test_airport_full_notation_is_clean(airport):
    assert validate_static(airport.model) == []


def test_intra_process_to_receive_is_illegal():
    m = two_machines(Notation.FULL, (ArcKind.FLOW, ("a", P), ("a", V)))
    diags = [d for d in validate_static(m) if d.code == dg.FLOW_ILLEGAL]
    assert len(diags) == 1 and diags[0].elements == ("f0",)


def test_cross_release_to_receive_depends_on_notation():
    arcs = [(ArcKind.FLOW, ("a", R), ("b", V))]
    full = two_machines(Notation.FULL, *arcs)
    assert dg.FLOW_ILLEGAL in codes(validate_static(full))
    simplified = two_machines(Notation.SIMPLIFIED, *arcs)
    assert dg.FLOW_ILLEGAL not in codes(validate_static(simplified))


def test_flow_into_create_is_an_error_in_full_mode():
    m = two_machines(Notation.FULL, (ArcKind.FLOW, ("a", P), ("a", C)))
    assert dg.CREATE_INFLOW in codes(validate_static(m))
    # a trigger into create is the legal way to cause creation
    t = two_machines(Notation.FULL, (ArcKind.TRIGGER, ("a", P), ("a", C)))
    assert dg.CREATE_INFLOW not in codes(validate_static(t))


def test_cross_flow_into_create_is_the_simplified_idiom():
    m = two_machines(Notation.SIMPLIFIED, (ArcKind.FLOW, ("a", P), ("b", C)))
    assert dg.CREATE_INFLOW not in codes(validate_static(m))
    assert dg.FLOW_ILLEGAL not in codes(validate_static(m))


def test_self_trigger_warns():
    m = two_machines(Notation.FULL, (ArcKind.TRIGGER, ("a", P), ("a", P)))
    assert dg.TRIGGER_SELF in codes(validate_static(m))


def test_dangling_stage_warns():
    m = build_model("m", [Thimac("a", "A", frozenset({C}))])
    diags = validate_static(m)
    assert codes(diags) == [dg.STAGE_DANGLING]


def test_arrive_without_accept_is_a_mode_error():
    m = build_model("m", [Thimac("a", "A", frozenset({StageKind.ARRIVE, P}))])
    assert dg.MODE in codes(validate_static(m))
    both_plus_receive = build_model("m", [Thimac("a", "A", frozenset({StageKind.ARRIVE, StageKind.ACCEPT, V}))])
    assert dg.MODE in codes(validate_static(both_plus_receive))


def test_arrive_accept_machine_is_reachable():
    decls = [
        Thimac("a", "A", frozenset({C, R, T})),
        Thimac("b", "B", frozenset({T, StageKind.ARRIVE, StageKind.ACCEPT, P})),
    ]
    arcs = [
        Arc("f1", ArcKind.FLOW, StageRef("a", C), StageRef("a", R)),
        Arc("f2", ArcKind.FLOW, StageRef("a", R), StageRef("a", T)),
        Arc("f3", ArcKind.FLOW, StageRef("a", T), StageRef("b", T)),
        Arc("f4", ArcKind.FLOW, StageRef("b", T), StageRef("b", StageKind.ARRIVE)),
        Arc("f5", ArcKind.FLOW, StageRef("b", StageKind.ARRIVE), StageRef("b", StageKind.ACCEPT)),
        Arc("f6", ArcKind.FLOW, StageRef("b", StageKind.ACCEPT), StageRef("b", P)),
    ]
    assert validate_static(build_model("m", decls, arcs)) == []


def test_diagnostics_are_sorted_and_stable():
    m = two_machines(
        Notation.FULL,
        (ArcKind.FLOW, ("b", P), ("b", V)),
        (ArcKind.FLOW, ("a", P), ("a", V)),
    )
    first = validate_static(m)
    second = validate_static(m)
    assert first == second
    reported = [d.elements for d in first if d.code == dg.FLOW_ILLEGAL]
    assert reported == sorted(reported)


# -- desugaring ---------------------------------------------------------------


def test_desugar_green_cheese_inserts_the_move_chain():
    doc = load("green_cheese.tm")
    full = desugar(doc.model)
    assert full.notation is Notation.FULL
    cheese = full.thimac("cheese")
    moon = full.thimac("moon")
    assert cheese.stages == {P, R, T}
    assert moon.stages == {C, T, V}
    kinds = sorted((a.kind.value, str(a.src), str(a.dst)) for a in full.arcs)
    assert kinds == [
        ("flow", "cheese.process", "cheese.release"),
        ("flow", "cheese.release", "cheese.transfer"),
        ("flow", "cheese.transfer", "moon.transfer"),
        ("flow", "moon.transfer", "moon.receive"),
        ("trigger", "moon.receive", "moon.create"),
    ]
    assert validate_static(full) == []


def test_desugar_without_cross_flows_only_flips_the_mode():
    decls = [Thimac("a", "A", frozenset({C, P}))]
    arcs = [Arc("f", ArcKind.FLOW, StageRef("a", C), StageRef("a", P))]
    m = build_model("m", decls, arcs, Notation.SIMPLIFIED)
    full = desugar(m)
    assert full.notation is Notation.FULL
    assert full.roots == m.roots and full.arcs == m.arcs


def test_desugar_rejects_full_mode_model(airport):
    with pytest.raises(NotSimplified):
        desugar(airport.model)


def test_desugared_airport_matches_the_full_fixture(airport):
    simplified = load("airport_simplified.tm").model
    assert validate_static(simplified) == []
    expanded = desugar(simplified)
    assert validate_static(expanded) == []
    assert models_isomorphic(expanded, airport.model).isomorphic


def test_desugar_output_passes_full_validation_random():
    rng = random.Random(7)
    for i in range(60):
        m = random_simplified_model(rng)
        assert validate_static(m) == [], (i, validate_static(m))
        full = desugar(m)
        assert validate_static(full) == [], (i, validate_static(full))
