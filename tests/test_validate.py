import hashlib
import itertools
import random
import sys
from dataclasses import replace
from pathlib import Path

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
from tmkit.syntax import Document, parse_text, print_document
from tmkit.validate import desugar, validate_static

from conftest import load
from genutil import random_simplified_model

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
import gen  # noqa: E402

C, P, R, T, V, A, X = StageKind


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


def test_desugar_expands_flows_out_of_transfer_and_into_each_entry_stage():
    text = (
        "model m simplified {\n"
        '  thimac a "A" { stages: process, release, transfer; }\n'
        '  thimac b "B" { stages: process, transfer, receive; }\n'
        '  thimac c "C" { stages: process, arrive, accept; }\n'
        "  flow f: a.transfer -> b.process;\n"  # out of a transfer stage
        "  flow g: a.process -> b.transfer;\n"  # into transfer
        "  flow h: a.process -> b.receive;\n"  # into receive: every hop is there already
        "  flow i: b.process -> c.arrive;\n"  # into arrive
        "  flow j: b.process -> c.accept;\n"  # into accept, through arrive
        "  flow k: c.accept -> c.process;\n"
        "  flow f_x1: a.process -> a.release;\n"  # the first id generated for f is taken
        "}\n"
    )
    doc = parse_text(text).document
    assert validate_static(doc.model) == []
    full = desugar(doc.model)
    assert print_document(replace(doc, model=full)) == (
        "model m {\n"
        '  thimac a "A" {\n    stages: process, release, transfer;\n  }\n'
        '  thimac b "B" {\n    stages: process, release, transfer, receive;\n  }\n'
        '  thimac c "C" {\n    stages: process, transfer, arrive, accept;\n  }\n'
        "  flow f_x2: a.transfer -> b.transfer;\n"
        "  flow f_x3: b.transfer -> b.receive;\n"
        "  flow f_x4: b.receive -> b.process;\n"
        "  flow g_x1: a.release -> a.transfer;\n"
        "  flow i_x1: b.process -> b.release;\n"
        "  flow i_x2: b.release -> b.transfer;\n"
        "  flow i_x3: b.transfer -> c.transfer;\n"
        "  flow i_x4: c.transfer -> c.arrive;\n"
        "  flow j_x1: c.arrive -> c.accept;\n"
        "  flow k: c.accept -> c.process;\n"
        "  flow f_x1: a.process -> a.release;\n"
        "}\n"
    )
    assert validate_static(full) == []


# The 18 (source kind, target kind, target mode) cells of a lone cross-machine flow whose
# verdict changed when an elided arrow came to be judged by its chain. None has an arrive
# source, whose chain starts with the illegal hop arrive -> release.
# - Into accept on an arrive/accept target: illegal before, legal now. This is the fix.
# - Into accept on a receive target, which then fails E-MODE: the chain enters through
#   arrive, as on any target that declares accept, and is legal.
# - Into receive on an arrive/accept target, which then fails E-MODE: the chain ends
#   accept -> receive, which is not a legal hop.
CHANGED_BY_CHAINS = {(s, d, mode) for s in StageKind if s is not A for d, mode in ((X, "arrive"), (X, "receive"), (V, "arrive"))}


def test_an_elided_flow_is_legal_iff_every_hop_of_its_chain_is():
    cells = {}
    for src, dst, mode in itertools.product(StageKind, StageKind, ("receive", "arrive")):
        entry = {V} if mode == "receive" else {A, X}
        decls = [Thimac("a", "A", frozenset({src})), Thimac("b", "B", frozenset({dst}) | entry)]
        arcs = [Arc("f", ArcKind.FLOW, StageRef("a", src), StageRef("b", dst))]
        m = build_model("m", decls, arcs, Notation.SIMPLIFIED)
        cells[src, dst, mode] = found = codes(validate_static(m))
        assert dg.CREATE_INFLOW not in found
        # the desugaring adds exactly the chain's hops, which full notation judges one by one
        assert (dg.FLOW_ILLEGAL in found) == (dg.FLOW_ILLEGAL in codes(validate_static(desugar(m)))), (src, dst, mode)
    assert len(cells) == 98
    # the rule before chains: legal from any source but arrive into any target but accept
    before = {cell for cell in cells if cell[:2] != (T, T) and (cell[0] is A or cell[1] is X)}
    assert {cell for cell, found in cells.items() if dg.FLOW_ILLEGAL in found} == before ^ CHANGED_BY_CHAINS


# The SHA-256 of the printed desugaring of 507 simplified models: random models
# at seeds 0-499, the simplified chains of 50, 100 and 200 machines (seed 1) and
# the four simplified fixtures. It pins every inserted arc, its id and its place,
# and every stage added to a machine. A change that alters any of them must
# update the digest and say why in CHANGES.md.
DESUGARED = (507, "d498b9e87d07766abd1d07d58f8bab3bbcd57d965f879cb81b5b6c7e7bac650f")


def test_desugared_models_are_pinned():
    models = [random_simplified_model(random.Random(i)) for i in range(500)]
    models += [parse_text(gen.chain(random.Random(1), n).simplified_text).document.model for n in (50, 100, 200)]
    models += [load(f"{name}.tm").model for name in ("airport_simplified", "bread", "green_cheese", "zero_sum")]
    digest = hashlib.sha256()
    for m in models:
        digest.update(print_document(Document(desugar(m))).encode())
    assert (len(models), digest.hexdigest()) == DESUGARED
