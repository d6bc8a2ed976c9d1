"""In-memory representation of thinging-machine static models.

A model is a tree of thimacs (thing/machine units), each holding at most one
stage of each generic-action kind, plus flow and trigger arcs between stages.
Models are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import DuplicateId, SizeLimitExceeded, UnresolvedStageRef


class StageKind(Enum):
    """The generic actions a machine may perform on things."""

    CREATE = "create"
    PROCESS = "process"
    RELEASE = "release"
    TRANSFER = "transfer"
    RECEIVE = "receive"
    ARRIVE = "arrive"
    ACCEPT = "accept"

    __hash__ = object.__hash__  # members are singletons compared by identity; hash in C

    def __str__(self) -> str:
        return self.value


STAGE_ORDER = tuple(StageKind)


class Notation(Enum):
    FULL = "full"
    SIMPLIFIED = "simplified"


class StageRef(NamedTuple):
    """Identifies one stage: a machine holds at most one stage per kind."""

    thimac: str
    kind: StageKind

    def __str__(self) -> str:
        return f"{self.thimac}.{self.kind.value}"


class ArcKind(Enum):
    FLOW = "flow"  # solid arrow: conceptual movement of a thing
    TRIGGER = "trigger"  # dashed arrow: causation between stages

    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Arc:
    id: str
    kind: ArcKind
    src: StageRef
    dst: StageRef

    @property
    def cross_machine(self) -> bool:
        return self.src.thimac != self.dst.thimac


@dataclass(frozen=True)
class Thimac:
    """A thing/machine unit: a set of stages plus nested subthimacs.

    ``things`` seeds thing-instance labels for the simulator; ``memory`` is a
    round-tripped annotation with no attached semantics.
    """

    id: str
    label: str
    stages: frozenset[StageKind] = frozenset()
    children: tuple["Thimac", ...] = ()
    things: tuple[str, ...] = ()
    memory: bool = False


@dataclass(frozen=True)
class StaticModel:
    """The static diagram: all states of affairs, without time."""

    name: str
    roots: tuple[Thimac, ...] = ()
    arcs: tuple[Arc, ...] = ()
    notation: Notation = Notation.FULL

    def walk(self) -> Iterator[Thimac]:
        """All thimacs in declaration (pre-)order."""
        stack = list(reversed(self.roots))
        while stack:
            t = stack.pop()
            yield t
            stack.extend(reversed(t.children))

    def thimac(self, thimac_id: str) -> Optional[Thimac]:
        return self._by_id.get(thimac_id)

    def arc(self, arc_id: str) -> Optional[Arc]:
        return self._arc_by_id.get(arc_id)

    def element_count(self) -> int:
        return sum(1 for _ in self.walk()) + len(self.arcs)

    # Lazy indices; the model is frozen so they are computed once.
    @cached_property
    def stages(self) -> dict[StageRef, Thimac]:
        """Every declared stage, in tree order, with the thimac that holds it."""
        return {StageRef(t.id, k): t for t in self.walk() for k in STAGE_ORDER if k in t.stages}

    @cached_property
    def _by_id(self) -> dict[str, Thimac]:
        return {t.id: t for t in self.walk()}

    @cached_property
    def _arc_by_id(self) -> dict[str, Arc]:
        return {a.id: a for a in self.arcs}


# ---------------------------------------------------------------------------
# Construction


def build_model(
    name: str,
    thimacs: Iterable[Thimac] = (),
    arcs: Iterable[Arc] = (),
    notation: Notation = Notation.FULL,
) -> StaticModel:
    """The StaticModel of these records, as given, once it checks them.

    Raises on the first failure: DuplicateId for a thimac id, in walk order;
    then, arc by arc, DuplicateId for its id or UnresolvedStageRef for its src,
    then its dst. The DSL front end maps these onto diagnostics.
    """
    model = StaticModel(name, tuple(thimacs), tuple(arcs), notation)
    thimac_ids: set[str] = set()
    for t in model.walk():
        if t.id in thimac_ids:
            raise DuplicateId("thimac", t.id)
        thimac_ids.add(t.id)
    arc_ids: set[str] = set()
    stages = model.stages
    for a in model.arcs:
        if a.id in arc_ids:
            raise DuplicateId("arc", a.id)
        arc_ids.add(a.id)
        for ref in (a.src, a.dst):
            if ref not in stages:
                raise UnresolvedStageRef(a.id, ref)
    return model


# ---------------------------------------------------------------------------
# Structural isomorphism

DEFAULT_ISO_LIMIT = 64


@dataclass(frozen=True)
class IsoResult:
    isomorphic: bool
    mapping: Optional[dict[str, str]] = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return self.isomorphic


def models_isomorphic(a: StaticModel, b: StaticModel, limit: int = DEFAULT_ISO_LIMIT) -> IsoResult:
    """Exact structural equivalence test, blind to ids and display labels.

    True iff a thimac bijection exists preserving containment, stage sets and
    arcs (kind + endpoints). Returns the witness mapping when found. Intended
    for desk-scale models; raises SizeLimitExceeded above ``limit`` elements.
    """
    for m in (a, b):
        n = m.element_count()
        if n > limit:
            raise SizeLimitExceeded(f"model '{m.name}' has {n} elements (limit {limit})")

    def signature(t: Thimac) -> tuple:
        # stage names, not frozensets: sorting needs a total order, and set < set is only the subset order
        return (sorted(k.value for k in t.stages), sorted(signature(c) for c in t.children))

    def match_forest(xs: tuple[Thimac, ...], ys: tuple[Thimac, ...], mapping: dict[str, str]) -> Iterator[dict[str, str]]:
        if len(xs) != len(ys):
            return
        if not xs:
            yield mapping
            return
        x, rest = xs[0], xs[1:]
        sig_x = signature(x)
        for i, y in enumerate(ys):
            if signature(y) != sig_x:
                continue
            for sub in match_trees(x, y, dict(mapping)):
                yield from match_forest(rest, ys[:i] + ys[i + 1:], sub)

    def match_trees(x: Thimac, y: Thimac, mapping: dict[str, str]) -> Iterator[dict[str, str]]:
        if x.stages != y.stages:
            return
        mapping[x.id] = y.id
        yield from match_forest(x.children, y.children, mapping)

    arcs_b = Counter((arc.kind, arc.src, arc.dst) for arc in b.arcs)

    def arcs_preserved(mapping: dict[str, str]) -> bool:
        if len(a.arcs) != len(b.arcs):
            return False
        mapped = Counter(
            (arc.kind, StageRef(mapping[arc.src.thimac], arc.src.kind), StageRef(mapping[arc.dst.thimac], arc.dst.kind))
            for arc in a.arcs
        )
        return mapped == arcs_b

    for mapping in match_forest(a.roots, b.roots, {}):
        if arcs_preserved(mapping):
            return IsoResult(True, mapping)
    return IsoResult(False)
