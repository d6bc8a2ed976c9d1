"""Token-level execution of a chronology over a static model.

Thing instances move through stages under the generic-action semantics:
create brings a thing into a machine, process transforms it in place, release
marks it ready to leave, transfer carries it across the machine boundary, and
receive (or arrive + accept) makes it a member of the next machine. Firing an
event applies its subdiagram's actions in flow order; triggers queue creations
that happen once the event completes.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence, Union

from .behavior import Chronology, Trace, run_set_valid, topological_order
from .errors import Deadlock, IllegalAction, NotEnabled, PolicyError
from .events import Event, Subdiagram
from .model import Arc, ArcKind, StageKind, StageRef, StaticModel, Thimac

MEMBER_STAGES = frozenset({StageKind.CREATE, StageKind.PROCESS, StageKind.RECEIVE, StageKind.ACCEPT})


class Retired:
    """The thing has left the system; it never acts again."""

    _instance: Optional["Retired"] = None

    def __new__(cls) -> "Retired":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "retired"


RETIRED = Retired()

Location = Union[StageRef, Retired]


@dataclass(frozen=True)
class ThingInstance:
    id: str
    label: str
    location: Location
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class BranchPolicy:
    pass


@dataclass(frozen=True)
class Seeded(BranchPolicy):
    seed: int


@dataclass(frozen=True)
class Scripted(BranchPolicy):
    """Maps exclusive-group names to the member that should fire."""

    choices: tuple[tuple[str, str], ...]

    def chosen(self, group_name: str) -> Optional[str]:
        return dict(self.choices).get(group_name)


@dataclass(frozen=True)
class SimContext:
    model: StaticModel
    subdiagrams: tuple[Subdiagram, ...]
    events: tuple[Event, ...]
    chronology: Chronology

    @cached_property
    def subdiagram_by_id(self) -> dict[str, Subdiagram]:
        return {s.id: s for s in self.subdiagrams}

    @cached_property
    def event_by_id(self) -> dict[str, Event]:
        return {e.id: e for e in self.events}

    @cached_property
    def handoff_ports(self) -> frozenset[StageRef]:
        """Stages with a flow into another machine. A thing its own machine
        moves to a transfer stage outside this set leaves the system."""
        return frozenset(a.src for a in self.model.arcs if a.kind is ArcKind.FLOW and a.cross_machine)


@dataclass(frozen=True)
class SimState:
    ctx: SimContext = field(compare=False)
    step: int = 0
    instances: tuple[ThingInstance, ...] = ()
    spawned: frozenset[str] = frozenset()  # labels created so far, one instance each
    log: tuple[tuple[str, int], ...] = ()
    pending_triggers: tuple[StageRef, ...] = ()

    def fired(self) -> frozenset[str]:
        return frozenset(e for e, _ in self.log)

    def at(self, ref: StageRef) -> list[ThingInstance]:
        return sorted((i for i in self.instances if i.location == ref), key=lambda i: i.id)

    def in_machine(self, thimac_id: str) -> list[ThingInstance]:
        return sorted(
            (
                i
                for i in self.instances
                if isinstance(i.location, StageRef)
                and i.location.thimac == thimac_id
                and i.location.kind in MEMBER_STAGES
            ),
            key=lambda i: i.id,
        )


def initial_state(model: StaticModel, subdiagrams: Sequence[Subdiagram], events: Sequence[Event], chronology: Chronology) -> SimState:
    return SimState(ctx=SimContext(model, tuple(subdiagrams), tuple(events), chronology))


def _put(state: SimState, inst: ThingInstance) -> SimState:
    rest = tuple(i for i in state.instances if i.id != inst.id)
    return replace(state, instances=tuple(sorted(rest + (inst,), key=lambda i: i.id)))


def _labels_of(t: Thimac) -> tuple[str, ...]:
    return t.things if t.things else (t.id,)


def _spawn(state: SimState, thimac_id: str) -> SimState:
    t = state.ctx.model.thimac(thimac_id)
    if t is None:
        raise IllegalAction(StageRef(thimac_id, StageKind.CREATE), "unknown machine")
    for label in _labels_of(t):
        if label in state.spawned:
            continue  # one instance per created label per run
        inst = ThingInstance(id=label, label=label, location=StageRef(thimac_id, StageKind.CREATE))
        state = replace(_put(state, inst), spawned=state.spawned | {label})
    return state


def _act(state: SimState, inst: ThingInstance, target: StageRef) -> SimState:
    """Apply the generic action at ``target`` to one instance standing at a stage.

    A released thing can only transfer out. A thing its own machine moves to
    a transfer stage with no onward flow leaves the system; an elided flow
    into a creation absorbs the thing into whatever that machine creates.
    """
    loc, kind = inst.location, target.kind
    if loc.kind is StageKind.RELEASE and kind is not StageKind.TRANSFER:
        raise IllegalAction(target, f"'{inst.id}' is released; it can only transfer out")
    if kind is StageKind.PROCESS:
        return _put(state, replace(inst, location=target, tags=inst.tags + (f"processed@{target.thimac}",)))
    if kind is StageKind.CREATE:
        return _spawn(_put(state, replace(inst, location=RETIRED)), target.thimac)
    if kind is StageKind.TRANSFER and loc.thimac == target.thimac and target not in state.ctx.handoff_ports:
        return _put(state, replace(inst, location=RETIRED))
    return _put(state, replace(inst, location=target))


# ---------------------------------------------------------------------------
# Event firing


def _topo_stage_order(sub: Subdiagram, arcs: Sequence[Arc]) -> dict[StageRef, int]:
    """Rank the stages in flow order. Ties, and stages on a flow cycle, keep
    declaration order."""
    index = {ref: i for i, ref in enumerate(sub.stages)}
    flows = ((a.src, a.dst) for a in arcs if a.kind is ArcKind.FLOW)
    order, leftover = topological_order(index, flows, index.__getitem__)
    return {ref: i for i, ref in enumerate(order + leftover)}


def enabled_events(state: SimState) -> list[str]:
    """Events whose chronology predecessors have fired or can never fire."""
    chron = state.ctx.chronology
    fired = state.fired()

    def excluded(e: str) -> bool:
        return any(e in g.members and (g.members & fired) - {e} for g in chron.groups)

    dead: set[str] = set()
    changed = True
    while changed:
        changed = False
        for e in chron.events:
            if e in fired or e in dead:
                continue
            preds = chron.predecessors(e)
            if excluded(e) or (preds and all(p in dead for p in preds)):
                dead.add(e)
                changed = True

    out = []
    for e in sorted(chron.events - fired):
        if e in dead:
            continue
        if any(p not in fired and p not in dead for p in chron.predecessors(e)):
            continue
        w = chron.window_of(e)
        if w is not None and max(state.step, w[0]) > w[1]:
            continue  # the admissible window has closed
        out.append(e)
    return out


def fire_event(state: SimState, event_id: str) -> SimState:
    """Execute one enabled event: its subdiagram's actions in flow order.

    Every process stage of the subdiagram must transform something, either a
    thing carried in by the event's own flows or one already present in the
    machine; otherwise the event's story is inconsistent with the model state
    and IllegalAction names the starved stage.
    """
    ctx = state.ctx
    if event_id not in enabled_events(state):
        raise NotEnabled(f"event '{event_id}' is not enabled")
    sub = ctx.subdiagram_by_id[ctx.event_by_id[event_id].subdiagram]
    arcs = [a for aid in sub.arcs if (a := ctx.model.arc(aid)) is not None]
    rank = _topo_stage_order(sub, arcs)

    for ref in sorted((r for r in sub.stages if r.kind is StageKind.CREATE), key=lambda r: rank[r]):
        state = _spawn(state, ref.thimac)

    visited: set[StageRef] = set()
    moved_from: set[StageRef] = set()
    flows = sorted(
        (a for a in arcs if a.kind is ArcKind.FLOW),
        key=lambda a: (rank.get(a.src, len(rank)), rank.get(a.dst, len(rank)), a.id),
    )
    for arc in flows:
        for inst in state.at(arc.src):
            state = _act(state, inst, arc.dst)
            visited.add(arc.dst)
            moved_from.add(arc.src)

    # Every process stage of the event must transform something: either the
    # event's own flows feed it, or it is the departure point of a move, or
    # it acts in place on things already in the machine.
    fed = {a.dst for a in flows}
    for ref in sorted((r for r in sub.stages if r.kind is StageKind.PROCESS), key=lambda r: rank[r]):
        if ref in fed:
            if ref not in visited:
                raise IllegalAction(ref, f"event '{event_id}' has nothing to process")
            continue
        if ref in moved_from:
            continue
        present = state.in_machine(ref.thimac)
        if not present:
            raise IllegalAction(ref, f"event '{event_id}' has nothing to process")
        for inst in present:
            state = _act(state, inst, ref)

    queued = tuple(a.dst for a in sorted(arcs, key=lambda a: a.id) if a.kind is ArcKind.TRIGGER)
    state = replace(state, pending_triggers=state.pending_triggers + queued)

    window = ctx.chronology.window_of(event_id)
    step = state.step if window is None else max(state.step, window[0])
    state = replace(state, log=state.log + ((event_id, step),), step=step + 1)

    # triggers fire once the event has completed
    for ref in state.pending_triggers:
        if ref.kind is StageKind.CREATE:
            state = _spawn(state, ref.thimac)
    return replace(state, pending_triggers=())


# ---------------------------------------------------------------------------
# Whole-run simulation


def _choose(enabled: list[str], chron: Chronology, policy: BranchPolicy, rng: Optional[random.Random]) -> str:
    if isinstance(policy, Seeded):
        assert rng is not None
        return rng.choice(enabled)
    assert isinstance(policy, Scripted)
    group_of = {m: g for g in chron.groups for m in g.members}
    choosable = []
    for e in enabled:
        g = group_of.get(e)
        if g is None or policy.chosen(g.name) == e:
            choosable.append(e)
    if choosable:
        return choosable[0]
    uncovered = sorted({group_of[e].name for e in enabled if policy.chosen(group_of[e].name) is None})
    if uncovered:
        raise PolicyError(f"no scripted choice for exclusive group(s): {', '.join(uncovered)}")
    raise PolicyError("the scripted choices rule out every enabled event")


def simulate(
    model: StaticModel,
    subdiagrams: Sequence[Subdiagram],
    events: Sequence[Event],
    chronology: Chronology,
    policy: BranchPolicy,
    trace_id: str = "sim",
) -> Trace:
    """Run one complete scenario and return its trace.

    The result always satisfies evaluate_trace; with a Seeded policy it is a
    deterministic function of the seed. Raises Deadlock when no event is
    enabled before a run is complete (a chronology/model mismatch).
    """
    state = initial_state(model, subdiagrams, events, chronology)
    rng = random.Random(policy.seed) if isinstance(policy, Seeded) else None

    while not run_set_valid(chronology, state.fired()):
        enabled = enabled_events(state)
        if not enabled:
            raise Deadlock(
                f"no event is enabled after [{', '.join(e for e, _ in state.log)}]; no complete run is reachable"
            )
        state = fire_event(state, _choose(enabled, chronology, policy, rng))

    return Trace(trace_id, state.log)
