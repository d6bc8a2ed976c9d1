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

from .errors import BoundExceeded, DuplicateId, UnresolvedStageRef

# Deeper thimac nesting is refused, which bounds the recursion of every tree
# walk over a built model, and of == and hash on its thimacs.
MAX_NESTING = 100


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


class Arc(NamedTuple):
    id: str
    kind: ArcKind
    src: StageRef
    dst: StageRef

    @property
    def cross_machine(self) -> bool:
        return self.src.thimac != self.dst.thimac


class Thimac(NamedTuple):
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
    """The static diagram: all states of affairs, without time. The
    constructor checks nothing: only build_model bounds nesting, and a deeper
    model made by the constructor makes tree walks, == and hash raise
    RecursionError."""

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

    Raises on the first failure: BoundExceeded when thimacs nest more than
    MAX_NESTING deep; DuplicateId for a thimac id, in walk order; then, arc by
    arc, DuplicateId for its id or UnresolvedStageRef for its src, then its dst.
    The DSL front end maps these onto diagnostics.
    """
    model = StaticModel(name, tuple(thimacs), tuple(arcs), notation)
    level, depth = model.roots, 0
    while level:
        depth += 1
        if depth > MAX_NESTING:
            raise BoundExceeded(f"thimacs nest more than {MAX_NESTING} deep")
        level = [c for t in level for c in t.children]
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

@dataclass(frozen=True)
class IsoResult:
    isomorphic: bool
    mapping: Optional[dict[str, str]] = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return self.isomorphic


def models_isomorphic(a: StaticModel, b: StaticModel) -> IsoResult:
    """Exact structural equivalence, blind to ids, labels and declaration order,
    for models of any size: true iff a thimac bijection preserves containment,
    stage sets and arcs (with multiplicity); the witness maps a's ids in walk order.
    As in VF2 (Cordella et al. 2004) a's thimacs are mapped depth first, each edge
    checked once both its ends are mapped, and as in VF2++ (Juttner & Madarasi
    2018) each component starts at its rarest colour. A colour counts every edge,
    so a component mapped whole has a whole component of b for image, and it stays.
    """
    numbers: dict[tuple, int] = {}  # shared, so that a thimac and its image get the same colour

    def colour(m: StaticModel) -> tuple[dict[str, int], dict[str, list[tuple[tuple, str]]]]:
        # each thimac's labelled edges, and its colour: its stages, its children's colours and its edges' labels
        near: dict[str, list[tuple[tuple, str]]] = {t.id: [] for t in m.walk()}
        for t in m.walk():
            for c in t.children:
                near[t.id].append((("child",), c.id))
                near[c.id].append((("parent",), t.id))
        for arc in m.arcs:
            for own, far, way in ((arc.src, arc.dst, "out"), (arc.dst, arc.src, "in")):
                near[own.thimac].append(((arc.kind.value, own.kind.value, far.kind.value, way), far.thimac))
        colours: dict[str, int] = {}
        for t in reversed(list(m.walk())):  # children before their parent
            key = (t.stages, tuple(sorted(colours[c.id] for c in t.children)), tuple(sorted(e for e, _ in near[t.id])))
            colours[t.id] = numbers.setdefault(key, len(numbers))
        return colours, near

    (colour_a, near_a), (colour_b, near_b) = colour(a), colour(b)
    census = Counter(colour_a.values())
    if census != Counter(colour_b.values()):
        return IsoResult(False)
    reached_from: dict[str, Optional[str]] = {}  # a's thimacs depth first, from each component's rarest colour
    stack = [(x, None) for x in sorted(colour_a, key=lambda x: -census[colour_a[x]])]
    while stack:
        x, p = stack.pop()
        if x not in reached_from:
            reached_from[x] = p
            stack.extend((n, x) for _, n in reversed(near_a[x]))
    order = list(reached_from.items())

    to_b: dict[str, str] = {}  # a's mapped thimacs to their images, and to_a back
    to_a: dict[str, str] = {}

    def fits(x: str, y: str) -> bool:
        """Map x to y if each edge between x and a mapped thimac has its image."""
        to_b[x], to_a[y] = y, x
        if sorted((e, to_b[n]) for e, n in near_a[x] if n in to_b) != sorted((e, m) for e, m in near_b[y] if m in to_a):
            del to_b[x], to_a[y]
        return x in to_b

    tries: list[Iterator[str]] = []  # the untried candidates of each mapped thimac of order
    while len(tries) < len(order):
        x, p = order[len(tries)]
        pool = colour_b if p is None else dict.fromkeys(m for _, m in near_b[to_b[p]])
        tries.append(iter([y for y in pool if y not in to_a and colour_b[y] == colour_a[x]]))
        while not any(fits(order[len(tries) - 1][0], y) for y in tries[-1]):
            if order[len(tries) - 1][1] is None:  # the first thimac of a component has no image left
                return IsoResult(False)
            tries.pop()
            del to_a[to_b.pop(order[len(tries) - 1][0])]
    return IsoResult(True, {t.id: to_b[t.id] for t in a.walk()})
