import copy
import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit.errors import DuplicateId, SizeLimitExceeded, UnresolvedStageRef
from tmkit.model import (
    Arc,
    ArcKind,
    StageKind,
    StageRef,
    StaticModel,
    Thimac,
    build_model,
    lookup,
    models_isomorphic,
)
from tmkit.syntax import Document, parse_text, print_document

from conftest import load
from genutil import random_model


# -- identity hashing of the kinds ---------------------------------------------


def test_the_identity_hash_is_not_a_member():
    assert len(StageKind) == 7 and len(ArcKind) == 2
    assert [k.value for k in StageKind] == ["create", "process", "release", "transfer", "receive", "arrive", "accept"]


@pytest.mark.parametrize("kind", [*StageKind, *ArcKind], ids=str)
def test_a_kind_survives_pickle_and_deepcopy_with_its_hash(kind):
    for again in (pickle.loads(pickle.dumps(kind)), copy.deepcopy(kind)):
        assert again is kind and hash(again) == hash(kind)


def test_a_stage_ref_rebuilt_from_its_value_finds_its_entry():
    index = {StageRef("t", k): k.value for k in StageKind}
    for k in StageKind:
        assert index[StageRef("t", StageKind(k.value))] == k.value


def test_airport_thimac_inventory(airport):
    labels = {t.label for t in airport.model.walk()}
    assert {
        "Passenger with luggage",
        "Passenger without luggage",
        "Counter",
        "Self-service",
        "Queue area",
        "Boarder control",
        "Security control",
        "Luggage",
    } <= labels
    # ticket and passport live nested inside their areas
    parent = {c.id: t.id for t in airport.model.walk() for c in t.children}
    assert parent["ticket_c"] == "counter"
    assert parent["passport"] == "border"


def test_build_empty_model():
    m = build_model("nothing")
    assert list(m.walk()) == []
    assert m.arcs == ()


def test_unresolved_stage_ref_names_the_missing_id():
    decls = [Thimac("a", "A", frozenset({StageKind.CREATE}))]
    arcs = [Arc("f", ArcKind.FLOW, StageRef("a", StageKind.CREATE), StageRef("ghost", StageKind.PROCESS))]
    with pytest.raises(UnresolvedStageRef, match="ghost"):
        build_model("m", decls, arcs)


def test_duplicate_thimac_id_rejected():
    decls = [Thimac("a", "", frozenset({StageKind.CREATE})), Thimac("a", "", frozenset())]
    with pytest.raises(DuplicateId):
        build_model("m", decls)


def test_a_child_placed_twice_is_a_duplicate_thimac():
    shared = Thimac("inner", "", frozenset())
    outer = Thimac("outer", "", frozenset(), children=(shared, shared))
    with pytest.raises(DuplicateId) as err:
        build_model("m", [outer])
    assert (err.value.kind, err.value.element_id) == ("thimac", "inner")


def test_build_model_keeps_the_records_it_is_given():
    inner = Thimac("b", "B", frozenset({StageKind.PROCESS}))
    roots = [Thimac("a", "A", frozenset({StageKind.CREATE}), children=(inner,))]
    arcs = [Arc("f", ArcKind.FLOW, StageRef("a", StageKind.CREATE), StageRef("b", StageKind.PROCESS))]
    model = build_model("m", roots, arcs)
    assert len(model.roots) == len(roots) and all(got is given for got, given in zip(model.roots, roots))
    assert len(model.arcs) == len(arcs) and all(got is given for got, given in zip(model.arcs, arcs))
    assert model.roots[0].children[0] is inner


C, P, FLOW = StageKind.CREATE, StageKind.PROCESS, ArcKind.FLOW
A_C, A_P, B_C = StageRef("a", C), StageRef("a", P), StageRef("b", C)
_A, _B = Thimac("a", "A", frozenset({C, P})), Thimac("b", "B", frozenset({C}))
_NESTED_A = Thimac("n", "N", frozenset(), children=(Thimac("a", "A2", frozenset()),))
# roots, arcs, and the first error as build_model raises it and as parse_text places it
# in the text print_document gives for the records
FIRST_ERRORS = {
    "a duplicate nested thimac wins over a later duplicate arc": (
        [_A, _NESTED_A],
        [Arc("f", FLOW, A_C, A_P), Arc("f", FLOW, A_C, A_P)],
        (DuplicateId, "duplicate thimac id 'a'", 6, 12),
    ),
    "a duplicate arc id wins over a later unresolved arc": (
        [_A, _B],
        [Arc("f", FLOW, A_C, A_P), Arc("f", FLOW, B_C, A_P), Arc("g", FLOW, A_C, StageRef("ghost", P))],
        (DuplicateId, "duplicate arc id 'f'", 9, 8),
    ),
    "src is checked before dst": (
        [_A],
        [Arc("g", FLOW, StageRef("ghost", C), StageRef("phantom", P))],
        (UnresolvedStageRef, "arc 'g' references unknown stage ghost.create", 5, 8),
    ),
    "an unresolved arc comes before a later duplicate of its id": (
        [_A],
        [Arc("f", FLOW, A_C, A_P), Arc("g", FLOW, A_C, StageRef("ghost", P)), Arc("g", FLOW, A_C, A_P)],
        (UnresolvedStageRef, "arc 'g' references unknown stage ghost.process", 6, 8),
    ),
}


@pytest.mark.parametrize("case", sorted(FIRST_ERRORS))
def test_build_model_and_the_parser_report_the_same_first_error(case):
    roots, arcs, (error, message, line, col) = FIRST_ERRORS[case]
    with pytest.raises(error) as err:
        build_model("m", roots, arcs)
    assert str(err.value) == message
    text = print_document(Document(StaticModel("m", tuple(roots), tuple(arcs))))
    res = parse_text(text, path="m.tm")
    assert res.document is None
    assert [str(d) for d in res.diagnostics] == [f"m.tm:{line}:{col}: error: E-SYNTAX: {message}"]


def test_lookup(airport):
    assert lookup(airport.model, StageRef("counter", StageKind.PROCESS)) is not None
    assert lookup(airport.model, StageRef("counter", StageKind.ARRIVE)) is None
    empty = build_model("empty")
    assert lookup(empty, StageRef("counter", StageKind.PROCESS)) is None


_ids = st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True), min_size=1, max_size=8, unique=True)


@given(ids=_ids, data=st.data())
@settings(max_examples=100, deadline=None)
def test_build_model_resolution_properties(ids, data):
    decls = []
    for i in ids:
        kinds = data.draw(st.sets(st.sampled_from(list(StageKind))))
        decls.append(Thimac(i, label=i, stages=frozenset(kinds)))
    model = build_model("m", decls)
    seen = [t.id for t in model.walk()]
    assert len(seen) == len(set(seen))
    for ref in model.stage_refs():
        assert lookup(model, ref) is not None


# -- isomorphism --------------------------------------------------------------


def test_iso_reflexive_identity(airport):
    r = models_isomorphic(airport.model, airport.model)
    assert r.isomorphic
    assert r.mapping == {t.id: t.id for t in airport.model.walk()}


def test_iso_john_mary_versions():
    a = load("john_mary_v1.tm").model
    b = load("john_mary_v2.tm").model
    assert models_isomorphic(a, b).isomorphic
    assert models_isomorphic(b, a).isomorphic


def test_iso_telescope_readings_differ():
    a = load("telescope_v1.tm").model
    b = load("telescope_v2.tm").model
    assert not models_isomorphic(a, b).isomorphic


def test_iso_is_label_blind(airport):
    text = print_document(airport)
    relabeled = parse_text(text.replace('"Passenger with luggage"', '"Traveller"').replace('"Counter"', '"Desk"'))
    assert relabeled.document is not None
    assert models_isomorphic(airport.model, relabeled.document.model).isomorphic


def test_iso_reflexive_and_symmetric_random():
    rng = random.Random(11)
    for _ in range(30):
        a = random_model(rng)
        b = random_model(rng)
        assert models_isomorphic(a, a).isomorphic
        assert models_isomorphic(a, b).isomorphic == models_isomorphic(b, a).isomorphic


def shuffled_siblings(rng, model):
    """The same model with every list of sibling thimacs in another order."""

    def shuffle(thimacs):
        thimacs = [replace(t, children=shuffle(t.children)) for t in thimacs]
        rng.shuffle(thimacs)
        return tuple(thimacs)

    return replace(model, roots=shuffle(model.roots))


def test_iso_ignores_the_order_siblings_are_declared_in():
    rng = random.Random(9)
    for i in range(300):
        a = random_model(rng)
        result = models_isomorphic(a, shuffled_siblings(rng, a))
        assert result.isomorphic, (i, print_document(Document(a)))
        assert sorted(result.mapping) == sorted(result.mapping.values()) == sorted(t.id for t in a.walk())


def test_iso_size_limit(airport):
    with pytest.raises(SizeLimitExceeded):
        models_isomorphic(airport.model, airport.model, limit=10)


def test_single_create_model_validates_and_round_trips():
    doc = load("single_create.tm")
    only = list(doc.model.walk())
    assert len(only) == 1 and only[0].stages == {StageKind.CREATE}
    assert doc.model.arcs == ()
    from tmkit.validate import validate_static

    assert all(d.severity.value == "warning" for d in validate_static(doc.model))
    reparsed = parse_text(print_document(doc))
    assert reparsed.document == doc


def test_stage_sets_differ_means_not_isomorphic():
    a = build_model("a", [Thimac("x", "", frozenset({StageKind.CREATE}))])
    b = build_model("b", [Thimac("y", "", frozenset({StageKind.PROCESS}))])
    assert not models_isomorphic(a, b).isomorphic


def test_iso_respects_arc_kinds():
    base = [Thimac("x", "", frozenset({StageKind.CREATE, StageKind.PROCESS}))]
    flow = build_model("a", base, [Arc("f", ArcKind.FLOW, StageRef("x", StageKind.CREATE), StageRef("x", StageKind.PROCESS))])
    trig = build_model("b", base, [Arc("f", ArcKind.TRIGGER, StageRef("x", StageKind.CREATE), StageRef("x", StageKind.PROCESS))])
    assert not models_isomorphic(flow, trig).isomorphic
    assert models_isomorphic(flow, flow).isomorphic
