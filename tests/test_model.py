import copy
import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit.errors import ContainmentCycle, DuplicateId, SizeLimitExceeded, UnresolvedStageRef
from tmkit.model import (
    ArcDecl,
    ArcKind,
    StageKind,
    StageRef,
    ThimacDecl,
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
    decls = [ThimacDecl("a", "A", [StageKind.CREATE])]
    arcs = [ArcDecl("f", ArcKind.FLOW, ("a", StageKind.CREATE), ("ghost", StageKind.PROCESS))]
    with pytest.raises(UnresolvedStageRef, match="ghost"):
        build_model("m", decls, arcs)


def test_duplicate_thimac_id_rejected():
    decls = [ThimacDecl("a", "", [StageKind.CREATE]), ThimacDecl("a", "", [])]
    with pytest.raises(DuplicateId):
        build_model("m", decls)


def test_containment_cycle_detected():
    shared = ThimacDecl("inner", "", [])
    outer = ThimacDecl("outer", "", [], children=[shared, shared])
    with pytest.raises(ContainmentCycle):
        build_model("m", [outer])


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
        decls.append(ThimacDecl(i, label=i, stages=sorted(kinds, key=list(StageKind).index)))
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
    a = build_model("a", [ThimacDecl("x", "", [StageKind.CREATE])])
    b = build_model("b", [ThimacDecl("y", "", [StageKind.PROCESS])])
    assert not models_isomorphic(a, b).isomorphic


def test_iso_respects_arc_kinds():
    base = [ThimacDecl("x", "", [StageKind.CREATE, StageKind.PROCESS])]
    flow = build_model("a", base, [ArcDecl("f", ArcKind.FLOW, ("x", StageKind.CREATE), ("x", StageKind.PROCESS))])
    trig = build_model("b", base, [ArcDecl("f", ArcKind.TRIGGER, ("x", StageKind.CREATE), ("x", StageKind.PROCESS))])
    assert not models_isomorphic(flow, trig).isomorphic
    assert models_isomorphic(flow, flow).isomorphic
