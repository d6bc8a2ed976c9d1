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
from typing import Iterable, Optional, Sequence, Union

from .behavior import Chronology, ExclusiveGroup, Trace, run_set_valid, topological_order
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

    @cached_property
    def _by_group(self) -> dict[str, str]:
        return dict(self.choices)

    def chosen(self, group_name: str) -> Optional[str]:
        return self._by_group.get(group_name)


@dataclass(frozen=True)
class _Plan:
    """What firing a subdiagram does, each part in flow order."""

    creates: tuple[StageRef, ...]
    flows: tuple[Arc, ...]
    processes: tuple[StageRef, ...]
    triggers: tuple[StageRef, ...]  # creations queued for after the event, in arc-id order


def _plan(sub: Subdiagram, model: StaticModel) -> _Plan:
    """Rank the stages in flow order (ties, and stages on a flow cycle, keep
    declaration order) and lay out the subdiagram's actions by that rank."""
    arcs = [a for aid in sub.arcs if (a := model.arc(aid)) is not None]
    flows = [a for a in arcs if a.kind is ArcKind.FLOW]
    index = {ref: i for i, ref in enumerate(sub.stages)}
    order, leftover = topological_order(index, ((a.src, a.dst) for a in flows), index.__getitem__)
    rank = {ref: i for i, ref in enumerate(order + leftover)}
    stages = sorted(sub.stages, key=rank.__getitem__)
    flows.sort(key=lambda a: (rank.get(a.src, len(rank)), rank.get(a.dst, len(rank)), a.id))
    return _Plan(
        creates=tuple(r for r in stages if r.kind is StageKind.CREATE),
        flows=tuple(flows),
        processes=tuple(r for r in stages if r.kind is StageKind.PROCESS),
        triggers=tuple(a.dst for a in sorted(arcs, key=lambda a: a.id) if a.kind is ArcKind.TRIGGER),
    )


@dataclass(frozen=True)
class SimContext:
    model: StaticModel
    subdiagrams: tuple[Subdiagram, ...]
    events: tuple[Event, ...]
    chronology: Chronology

    @cached_property
    def plans(self) -> dict[str, _Plan]:
        return {s.id: _plan(s, self.model) for s in self.subdiagrams}

    @cached_property
    def event_by_id(self) -> dict[str, Event]:
        return {e.id: e for e in self.events}

    @cached_property
    def handoff_ports(self) -> frozenset[StageRef]:
        """Stages with a flow into another machine. A thing its own machine
        moves to a transfer stage outside this set leaves the system."""
        return frozenset(a.src for a in self.model.arcs if a.kind is ArcKind.FLOW and a.cross_machine)

    @cached_property
    def roots(self) -> frozenset[str]:
        chron = self.chronology
        return frozenset(e for e in chron.events if not chron.predecessors(e))

    @cached_property
    def rivals(self) -> dict[str, frozenset[str]]:
        """Each event's fellow members across all its exclusive groups."""
        out: dict[str, frozenset[str]] = {}
        for g in self.chronology.groups:
            for m in g.members:
                out[m] = out.get(m, frozenset()) | (g.members - {m})
        return out

    @cached_property
    def group_of(self) -> dict[str, ExclusiveGroup]:
        """The group a scripted choice for an event is looked up in: the
        last declared one that holds it."""
        return {m: g for g in self.chronology.groups for m in g.members}


@dataclass(frozen=True)
class SimState:
    ctx: SimContext = field(compare=False)
    step: int = 0
    instances: tuple[ThingInstance, ...] = ()
    spawned: frozenset[str] = frozenset()  # labels created so far, one instance each
    log: tuple[tuple[str, int], ...] = ()
    pending_triggers: tuple[StageRef, ...] = ()
    # Chronology bookkeeping, brought up to date once per firing. An event
    # is settled once it has fired or is dead, i.e. can never fire: no run
    # holds it, a rival in an exclusive group fired, or every one of its
    # predecessors is dead.
    fired: frozenset[str] = frozenset()
    dead: frozenset[str] = frozenset()
    ready: frozenset[str] = frozenset()  # unsettled events whose predecessors have all settled
    unfinished: frozenset[str] = frozenset()  # fired non-end events with no fired successor

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
    ctx = SimContext(model, tuple(subdiagrams), tuple(events), chronology)
    # no run holds a root that is not a start, or an event with no path to an end
    doomed = (ctx.roots - chronology.starts) | (chronology.events - chronology.closable)
    return _settle(SimState(ctx=ctx, ready=ctx.roots), (), doomed)


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


def _settle(state: SimState, fired_now: Iterable[str], doomed: Iterable[str]) -> SimState:
    """Kill the unsettled ``doomed`` events and, in turn, every event whose
    predecessors are all dead; then admit to the ready set the successors of
    the events just settled (``fired_now``, already in ``state.fired``, and
    the new dead) whose predecessors have all settled."""
    chron = state.ctx.chronology
    fired, dead, settled_now = state.fired, state.dead, list(fired_now)
    stack = [e for e in doomed if e not in fired and e not in dead]
    if stack:
        dead = set(dead)
        while stack:
            e = stack.pop()
            if e in dead:
                continue
            dead.add(e)
            settled_now.append(e)
            stack.extend(s for s in chron.successors(e) if s not in fired and chron.predecessors(s) <= dead)
        dead = frozenset(dead)

    def settled(e: str) -> bool:
        return e in fired or e in dead

    ready = {e for e in state.ready if not settled(e)}
    ready.update(
        s
        for e in settled_now
        for s in chron.successors(e)
        if not settled(s) and all(settled(p) for p in chron.predecessors(s))
    )
    return replace(state, dead=dead, ready=frozenset(ready))


def _enabled(state: SimState, event_id: str) -> bool:
    """Whether the event is ready and its admissible window has not closed."""
    w = state.ctx.chronology.window_of(event_id)
    return event_id in state.ready and (w is None or max(state.step, w[0]) <= w[1])


def enabled_events(state: SimState) -> list[str]:
    """Events whose chronology predecessors have fired or can never fire."""
    return sorted(e for e in state.ready if _enabled(state, e))


def fire_event(state: SimState, event_id: str) -> SimState:
    """Execute one enabled event: its subdiagram's actions in flow order.

    Every process stage of the subdiagram must transform something, either a
    thing carried in by the event's own flows or one already present in the
    machine; otherwise the event's story is inconsistent with the model state
    and IllegalAction names the starved stage.
    """
    ctx = state.ctx
    if not _enabled(state, event_id):
        raise NotEnabled(f"event '{event_id}' is not enabled")
    plan = ctx.plans[ctx.event_by_id[event_id].subdiagram]

    for ref in plan.creates:
        state = _spawn(state, ref.thimac)

    visited: set[StageRef] = set()
    moved_from: set[StageRef] = set()
    for arc in plan.flows:
        for inst in state.at(arc.src):
            state = _act(state, inst, arc.dst)
            visited.add(arc.dst)
            moved_from.add(arc.src)

    # Every process stage of the event must transform something: either the
    # event's own flows feed it, or it is the departure point of a move, or
    # it acts in place on things already in the machine.
    fed = {a.dst for a in plan.flows}
    for ref in plan.processes:
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

    state = replace(state, pending_triggers=state.pending_triggers + plan.triggers)

    chron = ctx.chronology
    window = chron.window_of(event_id)
    step = state.step if window is None else max(state.step, window[0])
    state = replace(
        state,
        log=state.log + ((event_id, step),),
        step=step + 1,
        fired=state.fired | {event_id},
        unfinished=(state.unfinished - chron.predecessors(event_id)) | ({event_id} - chron.ends),
    )
    state = _settle(state, (event_id,), ctx.rivals.get(event_id, ()))

    # triggers fire once the event has completed
    for ref in state.pending_triggers:
        if ref.kind is StageKind.CREATE:
            state = _spawn(state, ref.thimac)
    return replace(state, pending_triggers=())


# ---------------------------------------------------------------------------
# Whole-run simulation


def _choose(enabled: list[str], ctx: SimContext, policy: BranchPolicy, rng: Optional[random.Random]) -> str:
    if isinstance(policy, Seeded):
        assert rng is not None
        return rng.choice(enabled)
    assert isinstance(policy, Scripted)
    group_of = ctx.group_of
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

    # a run leaves no fired event unfinished, so only then is the set checked
    while state.unfinished or not run_set_valid(chronology, state.fired):
        enabled = enabled_events(state)
        if not enabled:
            raise Deadlock(
                f"no event is enabled after [{', '.join(e for e, _ in state.log)}]; no complete run is reachable"
            )
        state = fire_event(state, _choose(enabled, state.ctx, policy, rng))

    return Trace(trace_id, state.log)
