"""Token-level execution of a chronology over a static model.

Thing instances move through stages under the generic-action semantics:
create brings a thing into a machine, process transforms it in place, release
marks it ready to leave, transfer carries it across the machine boundary, and
receive (or arrive + accept) makes it a member of the next machine. Firing an
event applies its subdiagram's actions in flow order; triggers queue creations
that happen once the event completes.

The chronology decides which events may fire, by the evaluator's run rules:
an event may fire when some run holds it and the fired events, with no
unfired predecessor of any of them (behavior.search_runs finds one), and
stopping is allowed once the fired events form a run.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence, Union

from . import behavior
from .behavior import Chronology, Trace, search_runs, topological_order
from .errors import Deadlock, IllegalAction, NotEnabled, PolicyError
from .events import Event, Subdiagram
from .model import Arc, ArcKind, StageKind, StageRef, StaticModel

MEMBER_STAGES = frozenset({StageKind.CREATE, StageKind.PROCESS, StageKind.RECEIVE, StageKind.ACCEPT})
# bound once: under Python 3.11 reading a member through its Enum class costs about 0.15 us
_CREATE, _PROCESS, _RELEASE, _TRANSFER = StageKind.CREATE, StageKind.PROCESS, StageKind.RELEASE, StageKind.TRANSFER
_FLOW = ArcKind.FLOW


class Retired:
    """The thing has left the system; it never acts again."""

    def __str__(self) -> str:
        return "retired"

    def __repr__(self) -> str:
        return "Retired()"


RETIRED = Retired()

Location = Union[StageRef, Retired]


class ThingInstance(NamedTuple):
    id: str
    label: str
    location: Location
    tags: tuple[str, ...] = ()


class BranchPolicy:
    pass


@dataclass(frozen=True)
class Seeded(BranchPolicy):
    """Draws uniformly from the enabled events, plus "stop" when the fired
    events form a run."""

    seed: int


@dataclass(frozen=True)
class Scripted(BranchPolicy):
    """Maps exclusive-group names to the member that should fire.

    Fires the first enabled event its choices allow: one in no group, or one
    that every group holding it chose. Stops when no such event is left and
    the fired events form a run; raises PolicyError otherwise, and before the
    first firing where a choice names a group the chronology lacks, a group
    chosen before, or an event that is not a member of its group.
    """

    choices: tuple[tuple[str, str], ...]


class _Plan(NamedTuple):
    """What firing a subdiagram does, each part in flow order."""

    creates: tuple[StageRef, ...]
    flows: tuple[Arc, ...]
    processes: tuple[StageRef, ...]
    triggers: tuple[StageRef, ...]  # creations queued for after the event, in arc-id order


def _plan(sub: Subdiagram, model: StaticModel) -> _Plan:
    """Rank the stages in flow order (ties, and stages on a flow cycle, keep
    declaration order) and lay out the subdiagram's actions by that rank.
    A stage or arc listed twice acts once."""
    flows: list[Arc] = []
    triggers: list[Arc] = []
    for aid in dict.fromkeys(sub.arcs):
        a = model.arc(aid)
        (flows if a.kind is _FLOW else triggers).append(a)
    order, leftover = topological_order(list(dict.fromkeys(sub.stages)), [(a.src, a.dst) for a in flows])
    ranked = order + leftover
    rank = {ref: i for i, ref in enumerate(ranked)}
    last = len(rank)  # the rank of a flow's end outside the subdiagram
    flows.sort(key=lambda a: (rank.get(a.src, last), rank.get(a.dst, last), a.id))
    triggers.sort(key=lambda a: a.id)
    return _Plan(
        tuple([r for r in ranked if r.kind is _CREATE]),
        tuple(flows),
        tuple([r for r in ranked if r.kind is _PROCESS]),
        tuple([a.dst for a in triggers]),
    )


@dataclass(frozen=True)
class SimContext:
    model: StaticModel
    subdiagrams: tuple[Subdiagram, ...]
    events: tuple[Event, ...]
    chronology: Chronology

    @cached_property
    def plans(self) -> dict[str, _Plan]:
        """Each event's plan, by event id; events of one subdiagram share it."""
        plans = {s.id: _plan(s, self.model) for s in self.subdiagrams}
        return {e.id: plans[e.subdiagram] for e in self.events}

    @cached_property
    def handoff_ports(self) -> frozenset[StageRef]:
        """Stages with a flow into another machine. A thing its own machine
        moves to a transfer stage outside this set leaves the system."""
        return frozenset(a.src for a in self.model.arcs if a.kind is _FLOW and a.cross_machine)


@dataclass(frozen=True)
class SimState:
    ctx: SimContext = field(compare=False)
    step: int = 0
    instances: tuple[ThingInstance, ...] = ()  # sorted by id; an id is the label it was created for
    log: tuple[tuple[str, int], ...] = ()
    # Chronology bookkeeping, brought up to date once per firing.
    fired: frozenset[str] = frozenset()
    out: frozenset[str] = frozenset()  # unfired events a firing ruled out: predecessors and rivals of fired ones
    frontier: frozenset[str] = frozenset()  # unfired events not ruled out that are starts or follow a fired one
    witness: Optional[frozenset[str]] = None  # a run holding the fired events and no ruled-out one, if any
    unfinished: frozenset[str] = frozenset()  # fired non-end events with no fired successor

    @cached_property
    def _enabled(self) -> dict[str, frozenset[str]]:
        """Each event that may fire next, in id order, with the witness its firing keeps."""
        witnesses = {e: _witness_after(self, e) for e in sorted(self.frontier) if _stamp(self, e) is not None}
        return {e: w for e, w in witnesses.items() if w is not None}


def initial_state(model: StaticModel, subdiagrams: Sequence[Subdiagram], events: Sequence[Event], chronology: Chronology) -> SimState:
    ctx = SimContext(model, tuple(subdiagrams), tuple(events), chronology)
    witness = next(search_runs(chronology, len(chronology.events)), None)
    return SimState(ctx=ctx, frontier=chronology.starts, witness=witness)


# ---------------------------------------------------------------------------
# Thing instances, as mutable [id, label, location, tags] records that one
# firing works on, indexed by location


def _spawn(model: StaticModel, things: dict[str, list], at: dict[Location, list[list]], thimac_id: str) -> None:
    t = model.thimac(thimac_id)
    for label in t.things or (t.id,):
        if label not in things:  # one instance per created label per run
            things[label] = thing = [label, label, StageRef(thimac_id, _CREATE), ()]
            at.setdefault(thing[2], []).append(thing)


# ---------------------------------------------------------------------------
# Event firing


def _stamp(state: SimState, event_id: str) -> Optional[int]:
    """The event's stamp if it fires now, the step or its window's start if
    that is later; None when its window has closed."""
    w = state.ctx.chronology.window_of(event_id)
    stamp = state.step if w is None else max(state.step, w[0])
    return stamp if w is None or stamp <= w[1] else None


def _ruled_out(state: SimState, event_id: str) -> frozenset[str]:
    """The ruled-out events once the event fires: its unfired predecessors
    can no longer precede it, and its rivals can no longer share a run."""
    chron = state.ctx.chronology
    return state.out | (chron.predecessors(event_id) - state.fired) | chron.rivals.get(event_id, frozenset())


def _witness_after(state: SimState, event_id: str) -> Optional[frozenset[str]]:
    """A run that holds the fired events and the event and none of the
    events its firing rules out, or None when there is no such run."""
    chron, witness = state.ctx.chronology, state.witness
    if witness is not None and event_id in witness and chron.predecessors(event_id) & witness <= state.fired:
        return witness  # the move stays inside the witness
    return next(search_runs(chron, len(chron.events), state.fired | {event_id}, _ruled_out(state, event_id)), None)


def _moves(ctx: SimContext, event_id: str, instances: tuple[ThingInstance, ...]) -> tuple[ThingInstance, ...]:
    """The thing instances once the event's subdiagram acts on them, its
    actions in flow order. The chronology plays no part.

    Every process stage of the subdiagram must transform something, either a
    thing carried in by the event's own flows or one already present in the
    machine; otherwise the event's story is inconsistent with the model state
    and IllegalAction names the starved stage. Creations the event triggers
    happen once its actions are done.
    """
    plan = ctx.plans[event_id]
    things = {i.id: list(i) for i in instances}
    at: dict[Location, list[list]] = {}
    for thing in things.values():
        at.setdefault(thing[2], []).append(thing)

    for ref in plan.creates:
        _spawn(ctx.model, things, at, ref.thimac)

    # Every mover of a flow stands at its source, so the arc alone decides the action. A released
    # thing can only transfer out. A thing its own machine moves to a transfer stage with no onward
    # flow leaves the system; an elided flow into a creation absorbs the thing into what it creates.
    visited: set[StageRef] = set()
    moved_from: set[StageRef] = set()
    for arc in plan.flows:
        movers = at.pop(arc.src, None)
        if movers:
            src, dst = arc.src, arc.dst
            kind = dst.kind
            if src.kind is _RELEASE and kind is not _TRANSFER:
                raise IllegalAction(dst, f"'{min(movers)[0]}' is released; it can only transfer out")
            retires = kind is _CREATE or (kind is _TRANSFER and src.thimac == dst.thimac and dst not in ctx.handoff_ports)
            to = RETIRED if retires else dst
            tag = (f"processed@{dst.thimac}",) if kind is _PROCESS else ()
            for thing in movers:
                thing[2] = to
                thing[3] += tag
            at.setdefault(to, []).extend(movers)
            if kind is _CREATE:
                _spawn(ctx.model, things, at, dst.thimac)
            visited.add(dst)
            moved_from.add(src)

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
        present = [thing for kind in MEMBER_STAGES for thing in at.pop(StageRef(ref.thimac, kind), ())]
        if not present:
            raise IllegalAction(ref, f"event '{event_id}' has nothing to process")
        tag = (f"processed@{ref.thimac}",)
        for thing in present:
            thing[2] = ref
            thing[3] += tag
        at.setdefault(ref, []).extend(present)

    for ref in plan.triggers:
        if ref.kind is _CREATE:
            _spawn(ctx.model, things, at, ref.thimac)
    return tuple(map(ThingInstance._make, sorted(things.values())))


def enabled_events(state: SimState) -> list[str]:
    """Events that may fire next, in id order: each unfired event whose window
    is open and that some run holds together with the fired events, with no
    unfired predecessor of any of them."""
    return list(state._enabled)


def fire_event(state: SimState, event_id: str) -> SimState:
    """Fire one enabled event: move the things, then bring the chronology
    bookkeeping up to date. Raises NotEnabled for an event that may not fire
    next and IllegalAction for a move the model cannot make."""
    witness = state._enabled.get(event_id)
    if witness is None:
        raise NotEnabled(f"event '{event_id}' is not enabled")
    ctx, step = state.ctx, _stamp(state, event_id)
    chron, fired, out = ctx.chronology, state.fired | {event_id}, _ruled_out(state, event_id)
    return SimState(
        ctx=ctx,
        step=step + 1,
        instances=_moves(ctx, event_id, state.instances),
        log=state.log + ((event_id, step),),
        fired=fired,
        out=out,
        frontier=(state.frontier | chron.successors(event_id)) - fired - out,
        witness=witness,
        unfinished=(state.unfinished - chron.predecessors(event_id)) | ({event_id} - chron.ends),
    )


# ---------------------------------------------------------------------------
# Whole-run simulation


def _chooser(policy: BranchPolicy, chronology: Chronology) -> Callable[[list[str], bool], Optional[str]]:
    """The policy's choice, built once: ``choose(enabled, done)`` is the event
    it fires next, or None when it stops; ``done`` says whether the fired
    events form a run, which stopping needs."""
    if isinstance(policy, Seeded):
        rng = random.Random(policy.seed)
        return lambda enabled, done: rng.choice(enabled + [None] if done else enabled)
    if not isinstance(policy, Scripted):
        raise PolicyError(f"simulate follows a Seeded or a Scripted policy, not {type(policy).__name__}")
    members = {g.name: g.members for g in chronology.groups}
    chosen: dict[str, str] = {}
    for g, e in policy.choices:
        if g not in members:
            raise PolicyError(f"chronology '{chronology.id}' has no exclusive group '{g}'")
        if g in chosen:
            raise PolicyError(f"exclusive group '{g}' is chosen twice")
        if e not in members[g]:
            raise PolicyError(f"event '{e}' is not a member of exclusive group '{g}'")
        chosen[g] = e
    groups_of = {e: [g.name for g in chronology.groups if e in g.members] for e in chronology.events}

    def choose(enabled: list[str], done: bool) -> Optional[str]:
        choosable = [e for e in enabled if all(chosen.get(g) == e for g in groups_of[e])]
        if choosable:
            return choosable[0]
        if done:
            return None
        uncovered = sorted({g for e in enabled for g in groups_of[e] if g not in chosen})
        if uncovered:
            raise PolicyError(f"no scripted choice for exclusive group(s): {', '.join(uncovered)}")
        raise PolicyError("the scripted choices rule out every enabled event")

    return choose


def _deadlock(state: SimState) -> Deadlock:
    """Why no event can fire although the fired events are not yet a run:
    the chronology has no run, or windows closed on the moves that remain."""
    chron = state.ctx.chronology
    where = f"no event can fire after [{', '.join(e for e, _ in state.log)}] at step {state.step}"
    if state.witness is None:
        return Deadlock(f"{where}: chronology '{chron.id}' has no run")
    closed = [e for e in sorted(state.frontier) if _stamp(state, e) is None and _witness_after(state, e) is not None]
    windows = (f"the window {w[0]}..{w[1]} of {e} has closed" for e in closed for w in [chron.window_of(e)])
    return Deadlock(f"{where}: {'; '.join(windows)}")


def simulate(
    model: StaticModel,
    subdiagrams: Sequence[Subdiagram],
    events: Sequence[Event],
    chronology: Chronology,
    policy: BranchPolicy,
    trace_id: str = "sim",
) -> Trace:
    """Run one complete scenario and return its trace.

    At each step the policy fires an enabled event or, once the fired events
    form a run, may stop. The result always satisfies evaluate_trace; with a
    Seeded policy it is a deterministic function of the seed. Raises Deadlock
    when nothing can fire before a run is complete, which only closed windows
    (or a chronology without runs) cause. Every subdiagram must pass
    check_subdiagram and every event eventize, as in a checked document.
    """
    state = initial_state(model, subdiagrams, events, chronology)
    choose = _chooser(policy, chronology)
    while True:
        enabled = enabled_events(state)
        # a run leaves no fired event unfinished, so only then is the set checked;
        # looked up when it runs, so a tracer that rebinds it sees this call
        done = not state.unfinished and behavior.run_set_valid(chronology, state.fired)
        if not enabled and not done:
            raise _deadlock(state)
        event_id = choose(enabled, done)
        if event_id is None:
            return Trace(trace_id, state.log)
        state = fire_event(state, event_id)
