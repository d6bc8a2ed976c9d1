"""The record rule: a plain value record is a NamedTuple, and a record stays a
frozen dataclass only if it needs a cached_property or a compare=False field.
Either kind is immutable, hashes as it compares and prints as
``Name(field=value, ...)``."""
import dataclasses
import importlib
import inspect
import pkgutil
from functools import cached_property

import pytest

import tmkit
from tmkit.behavior import (
    Chronology,
    ExclusiveGroup,
    Trace,
    Verdict,
    Violation,
)
from tmkit.diagnostics import Diagnostic, Severity, Span
from tmkit.dot import RenderOptions
from tmkit.events import CoverageReport, Event, Subdiagram
from tmkit.model import Arc, ArcKind, IsoResult, StageKind, StageRef, StaticModel, Thimac
from tmkit.simulate import RETIRED, Scripted, Seeded, SimContext, SimState, ThingInstance
from tmkit.syntax import Document, ParseResult, SourceFile

_REF = StageRef("a", StageKind.CREATE)
_REF_TEXT = "StageRef(thimac='a', kind=<StageKind.CREATE: 'create'>)"
_MODEL_TEXT = "StaticModel(name='m', roots=(), arcs=(), notation=<Notation.FULL: 'full'>)"
_CHRONOLOGY_TEXT = "Chronology(id='c', event_ids=('E',), edges=(), groups=(), start=None, end=None, windows=())"
_CONTEXT_TEXT = f"SimContext(model={_MODEL_TEXT}, subdiagrams=(), events=(), chronology={_CHRONOLOGY_TEXT})"


def _context() -> SimContext:
    return SimContext(StaticModel("m"), (), (), Chronology("c", ("E",)))


# each public record: a function that makes one instance, and that instance's repr
RECORDS = {
    StageRef: (lambda: StageRef("a", StageKind.CREATE), _REF_TEXT),
    Arc: (
        lambda: Arc("f", ArcKind.FLOW, _REF, StageRef("a", StageKind.PROCESS)),
        f"Arc(id='f', kind=<ArcKind.FLOW: 'flow'>, src={_REF_TEXT}, dst=StageRef(thimac='a', kind=<StageKind.PROCESS: 'process'>))",
    ),
    Thimac: (
        lambda: Thimac("a", "A", frozenset({StageKind.CREATE}), things=("x",)),
        "Thimac(id='a', label='A', stages=frozenset({<StageKind.CREATE: 'create'>}), children=(), things=('x',), memory=False)",
    ),
    Subdiagram: (lambda: Subdiagram("s", "S", (_REF,), ("f",)), f"Subdiagram(id='s', label='S', stages=({_REF_TEXT},), arcs=('f',))"),
    Event: (lambda: Event("E", "s", (0, 9)), "Event(id='E', subdiagram='s', window=(0, 9))"),
    CoverageReport: (
        lambda: CoverageReport((_REF,), ("f",), ()),
        f"CoverageReport(uncovered_stages=({_REF_TEXT},), uncovered_arcs=('f',), multiply_covered=())",
    ),
    ExclusiveGroup: (lambda: ExclusiveGroup("x", frozenset({"B"})), "ExclusiveGroup(name='x', members=frozenset({'B'}))"),
    Trace: (lambda: Trace("t", (("E", 0),)), "Trace(id='t', occurrences=(('E', 0),))"),
    Verdict: (
        lambda: Verdict(False, violation=Violation("MissingSuccessor", ("E",))),
        "Verdict(truth=False, run=None, violation=Violation(kind='MissingSuccessor', subjects=('E',)))",
    ),
    Violation: (lambda: Violation("OrderViolation", ("A", "B")), "Violation(kind='OrderViolation', subjects=('A', 'B'))"),
    Span: (lambda: Span("a.tm", 1, 2), "Span(file='a.tm', line=1, col=2)"),
    ParseResult: (lambda: ParseResult(None, []), "ParseResult(document=None, diagnostics=[])"),
    RenderOptions: (lambda: RenderOptions(), "RenderOptions(level=<Level.STATIC: 'static'>, highlight=frozenset(), clusters=True)"),
    ThingInstance: (lambda: ThingInstance("x", "x", RETIRED), "ThingInstance(id='x', label='x', location=Retired(), tags=())"),
    StaticModel: (lambda: StaticModel("m"), _MODEL_TEXT),
    Chronology: (lambda: Chronology("c", ("E",)), _CHRONOLOGY_TEXT),
    SourceFile: (lambda: SourceFile("a.tm", "model m {}\n"), "SourceFile(path='a.tm', text='model m {}\\n')"),
    SimContext: (_context, _CONTEXT_TEXT),
    SimState: (
        lambda: SimState(_context(), fired=frozenset({"E"})),
        f"SimState(ctx={_CONTEXT_TEXT}, step=0, instances=(), log=(), fired=frozenset({{'E'}}), out=frozenset(), "
        "frontier=frozenset(), witness=None, unfinished=frozenset())",
    ),
    Scripted: (lambda: Scripted((("x", "B"),)), "Scripted(choices=(('x', 'B'),))"),
    Seeded: (lambda: Seeded(3), "Seeded(seed=3)"),
    Document: (
        lambda: Document(StaticModel("m"), spans={"m": 6}),
        f"Document(model={_MODEL_TEXT}, subdiagrams=(), events=(), chronologies=(), traces=())",
    ),
    Diagnostic: (
        lambda: Diagnostic("E-SYNTAX", Severity.ERROR, "bad", ("a",)),
        "Diagnostic(code='E-SYNTAX', severity=<Severity.ERROR: 'error'>, message='bad', elements=('a',), "
        "span=Span(file='<memory>', line=0, col=0))",
    ),
    IsoResult: (lambda: IsoResult(True, {"a": "b"}), "IsoResult(isomorphic=True, mapping={'a': 'b'})"),
}


def _field_names(record) -> list[str]:
    return list(record._fields) if isinstance(record, tuple) else [f.name for f in dataclasses.fields(record)]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_immutable_hashes_as_it_compares_and_prints_its_fields(cls):
    make, text = RECORDS[cls]
    a, b = make(), make()
    assert type(a) is cls and a == b and a is not b
    with pytest.raises(AttributeError):
        setattr(a, (_field_names(a) or ["anything"])[0], None)
    if cls is ParseResult:  # its diagnostics are a list
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a) == text


def _tmkit_classes() -> list[type]:
    modules = [importlib.import_module(f"tmkit.{m.name}") for m in pkgutil.iter_modules(tmkit.__path__)]
    return [c for m in modules for _, c in inspect.getmembers(m, inspect.isclass) if c.__module__ == m.__name__]


def test_a_record_stays_a_dataclass_only_for_a_cache_or_a_field_left_out_of_equality():
    classes = _tmkit_classes()

    def needs_a_dataclass(cls: type) -> bool:
        cached = any(isinstance(v, cached_property) for v in vars(cls).values())
        return cached or any(not f.compare for f in dataclasses.fields(cls))

    assert [c.__name__ for c in classes if dataclasses.is_dataclass(c) and not needs_a_dataclass(c)] == []
    public = {c for c in classes if (dataclasses.is_dataclass(c) or issubclass(c, tuple)) and not c.__name__.startswith("_")}
    assert public == set(RECORDS)  # each is tested above


def test_diagnostics_that_differ_only_by_position_differ():
    here = Diagnostic("E-SYNTAX", Severity.ERROR, "bad", ("a",), Span("a.tm", 1, 2))
    assert here != here._replace(span=Span("a.tm", 3, 4))
