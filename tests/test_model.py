import copy
import pickle
import random
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit.dot import to_dot
from tmkit.errors import BoundExceeded, DuplicateId, UnresolvedStageRef
from tmkit.model import (
    MAX_NESTING,
    Arc,
    ArcKind,
    Notation,
    StageKind,
    StageRef,
    StaticModel,
    Thimac,
    build_model,
    models_isomorphic,
)
from tmkit.syntax import Document, parse_text, print_document
from tmkit.validate import desugar

from conftest import load
from genutil import fresh_id, random_model
from oracles import isomorphic_by_backtracking

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
import gen  # noqa: E402  (the benchmark's document generators)


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


def nested(depth):
    """A root thimac over a chain of children, ``depth`` thimacs deep in all."""
    t = Thimac(f"t{depth}", "T")
    for i in range(depth - 1, 0, -1):
        t = Thimac(f"t{i}", "T", children=(t,))
    return t


def test_build_model_refuses_a_model_deeper_than_the_recursion_limit_with_a_typed_error():
    # print_document, to_dot, desugar and hash would recurse past the limit on this model
    with pytest.raises(BoundExceeded) as err:
        build_model("m", [nested(5000)])
    assert str(err.value) == f"thimacs nest more than {MAX_NESTING} deep"


def test_a_model_nested_to_the_limit_builds_prints_and_reparses():
    model = build_model("m", [nested(MAX_NESTING)], (), Notation.SIMPLIFIED)
    doc = Document(model)
    reparsed = parse_text(print_document(doc)).document
    assert reparsed == doc and hash(reparsed.model.roots[0]) == hash(model.roots[0])
    assert to_dot(doc).count("subgraph") == MAX_NESTING
    assert desugar(model).roots == model.roots


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
    # the token parser refuses the thimac past the limit as it reads it, before build_model runs
    "nesting past the limit": (
        [nested(MAX_NESTING + 1)],
        [],
        (BoundExceeded, f"thimacs nest more than {MAX_NESTING} deep", 102, 203),
    ),
    "nesting past the limit wins over an earlier duplicate thimac": (
        [_A, _A, nested(MAX_NESTING + 1)],
        [],
        (BoundExceeded, f"thimacs nest more than {MAX_NESTING} deep", 108, 203),
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


def test_stages_index(airport):
    counter = airport.model.thimac("counter")
    assert airport.model.stages[StageRef("counter", StageKind.PROCESS)] is counter
    assert StageRef("counter", StageKind.ARRIVE) not in airport.model.stages
    assert build_model("empty").stages == {}


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
    # every declared stage, in tree order, with the thimac that holds it
    assert list(model.stages.items()) == [(StageRef(t.id, k), t) for t in decls for k in StageKind if k in t.stages]


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
        thimacs = [t._replace(children=shuffle(t.children)) for t in thimacs]
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


def renamed_copy(rng, model):
    """The same model under fresh ids, with every list of siblings and the arcs in another order."""
    taken: set[str] = set()
    ids = {t.id: fresh_id(rng, taken, "r") for t in model.walk()}

    def rename(thimacs):
        return tuple(t._replace(id=ids[t.id], children=rename(t.children)) for t in thimacs)

    arcs = [
        Arc(fresh_id(rng, taken, "b"), a.kind, StageRef(ids[a.src.thimac], a.src.kind), StageRef(ids[a.dst.thimac], a.dst.kind))
        for a in model.arcs
    ]
    rng.shuffle(arcs)
    return shuffled_siblings(rng, build_model(model.name, rename(model.roots), arcs, model.notation))


def assert_carries(a, b, mapping):
    """The mapping is a bijection of thimacs that carries stages, containment and every arc of a onto b."""
    assert sorted(mapping) == sorted(t.id for t in a.walk())
    assert sorted(mapping.values()) == sorted(t.id for t in b.walk())
    assert all(a.thimac(x).stages == b.thimac(y).stages for x, y in mapping.items())
    parents = [{c.id: t.id for t in m.walk() for c in t.children} for m in (a, b)]
    assert {mapping[c]: mapping[p] for c, p in parents[0].items()} == parents[1]
    image = Counter((x.kind, StageRef(mapping[x.src.thimac], x.src.kind), StageRef(mapping[x.dst.thimac], x.dst.kind)) for x in a.arcs)
    assert image == Counter((x.kind, x.src, x.dst) for x in b.arcs)


def test_iso_finds_a_renamed_copy_and_agrees_with_backtracking():
    rng = random.Random(20)
    for i in range(1000):
        a = random_model(rng)
        b = renamed_copy(rng, a)
        result = models_isomorphic(a, b)
        assert result.isomorphic, (i, print_document(Document(a)))
        assert_carries(a, b, result.mapping)
        others = [random_model(rng)]
        if b.arcs:  # the copy with one arc endpoint moved
            arcs = list(b.arcs)
            j = rng.randrange(len(arcs))
            arcs[j] = arcs[j]._replace(**{rng.choice(["src", "dst"]): rng.choice(list(b.stages))})
            others.append(replace(b, arcs=tuple(arcs)))
        for other in others:
            result = models_isomorphic(a, other)
            assert result.isomorphic == isomorphic_by_backtracking(a, other).isomorphic, (i, print_document(Document(other)))
            if result:
                assert_carries(a, other, result.mapping)


def fan(k):
    """A parent with k children, where child i starts a flow chain of i + 1
    root thimacs, and every thimac but the parent has the same stages."""
    here = frozenset({StageKind.TRANSFER})
    children, roots, arcs = [], [], []
    for i in range(k):
        prev = f"c{i}"
        children.append(Thimac(prev, "", here))
        for j in range(i + 1):
            roots.append(Thimac(f"r{i}_{j}", "", here))
            arcs.append(Arc(f"f{i}_{j}", ArcKind.FLOW, StageRef(prev, StageKind.TRANSFER), StageRef(roots[-1].id, StageKind.TRANSFER)))
            prev = roots[-1].id
    return build_model("fan", [Thimac("p", "", frozenset({StageKind.PROCESS}), tuple(children)), *roots], arcs)


def test_iso_on_a_fan_of_like_siblings_takes_no_search():
    # a matcher that permutes like siblings or like roots is factorial in k here
    a = fan(10)
    b = renamed_copy(random.Random(3), a)
    start = time.perf_counter()
    result = models_isomorphic(a, b)
    assert time.perf_counter() - start < 2
    assert result.isomorphic
    assert_carries(a, b, result.mapping)


def cycles(lengths):
    """Flow cycles of these lengths over thimacs with one transfer stage each, so all of one colour."""
    here = frozenset({StageKind.TRANSFER})
    thimacs, arcs = [], []
    for i, n in enumerate(lengths):
        ids = [f"c{i}_{j}" for j in range(n)]
        thimacs += [Thimac(t, "", here) for t in ids]
        arcs += [Arc(f"f{i}_{j}", ArcKind.FLOW, StageRef(ids[j], StageKind.TRANSFER), StageRef(ids[j - 1], StageKind.TRANSFER)) for j in range(n)]
    return build_model("cycles", thimacs, arcs)


def test_iso_maps_each_component_once():
    # nine like triangles, then a six-cycle against two more triangles: a matcher that maps the
    # triangles again each time the six-cycle finds no image tries every way to place them
    assert not isomorphic_by_backtracking(cycles([6]), cycles([3, 3]))
    a, b = cycles([3] * 9 + [6]), cycles([3] * 9 + [3, 3])
    start = time.perf_counter()
    assert not models_isomorphic(a, b)
    assert time.perf_counter() - start < 2
    assert models_isomorphic(a, renamed_copy(random.Random(4), a))


def test_iso_maps_a_chain_longer_than_the_recursion_limit():
    a, b = (parse_text(gen.chain(random.Random(seed), 1600).text).document.model for seed in (1, 2))
    assert sum(1 for _ in a.walk()) > sys.getrecursionlimit()
    result = models_isomorphic(a, b)
    assert result.isomorphic
    assert_carries(a, b, result.mapping)


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
