"""Chronology-of-events models and trace truth evaluation.

A chronology is a DAG over events with exclusive-branch groups. A timestamped
trace makes the model true exactly when it realizes a complete run of the
chronology: it starts at declared start events, respects every edge, picks at
most one member per exclusive group, and follows each begun thread through to
an end event. Evaluation is a pure function of the finite trace, so repeated
evaluation can never regress or change its answer.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, compress
from typing import AbstractSet, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar

from .errors import BoundExceeded, CycleDetected, EdgeInsideExclusiveGroup, MalformedTrace, UnknownEvent
from .events import Event


class ExclusiveGroup(NamedTuple):
    """Pairwise alternatives: at most one member may occur in a run."""

    name: str
    members: frozenset[str]

    def __str__(self) -> str:
        return "{" + "|".join(sorted(self.members)) + "}"


_NO_EVENTS: frozenset[str] = frozenset()


def _index(pairs: Iterable[tuple[str, str]]) -> dict[str, frozenset[str]]:
    """Each first member of ``pairs`` with the set of its second members."""
    m: dict[str, set[str]] = {}
    for u, v in pairs:
        m.setdefault(u, set()).add(v)
    return {u: frozenset(vs) for u, vs in m.items()}


@dataclass(frozen=True)
class Chronology:
    """A chronology as written, and the time windows of its events.

    ``start`` and ``end`` are None when the chronology states none; ``starts``
    and ``ends`` resolve them. The constructor checks nothing: only
    build_chronology rejects unknown events, cycles and edges inside an
    exclusive group, and gives the record its windows. A record that has not
    been through it has no windows and may hold a cycle.
    """

    id: str
    event_ids: tuple[str, ...] = ()
    edges: tuple[tuple[str, str], ...] = ()
    groups: tuple[ExclusiveGroup, ...] = ()
    start: Optional[tuple[str, ...]] = None
    end: Optional[tuple[str, ...]] = None
    # per-event time windows, carried over from the event declarations
    windows: tuple[tuple[str, tuple[int, int]], ...] = ()

    @cached_property
    def events(self) -> frozenset[str]:
        """Every event id the chronology names, in any of its items."""
        items = (self.event_ids, chain.from_iterable(self.edges), *(g.members for g in self.groups), self.start or (), self.end or ())
        return frozenset(chain.from_iterable(items))

    @cached_property
    def starts(self) -> frozenset[str]:
        """The stated start events, by default those no edge leads to."""
        return self.events - {v for _, v in self.edges} if self.start is None else frozenset(self.start)

    @cached_property
    def ends(self) -> frozenset[str]:
        """The stated end events, by default those no edge leaves."""
        return self.events - {u for u, _ in self.edges} if self.end is None else frozenset(self.end)

    def successors(self, event_id: str) -> frozenset[str]:
        return self._succ.get(event_id, _NO_EVENTS)

    def predecessors(self, event_id: str) -> frozenset[str]:
        return self._pred.get(event_id, _NO_EVENTS)

    def window_of(self, event_id: str) -> Optional[tuple[int, int]]:
        return self._windows.get(event_id)

    # Lazy indices; the chronology is frozen so they are computed once, and frozen too.
    @cached_property
    def _succ(self) -> dict[str, frozenset[str]]:
        return _index(self.edges)

    @cached_property
    def _pred(self) -> dict[str, frozenset[str]]:
        return _index((v, u) for u, v in self.edges)

    @cached_property
    def _windows(self) -> dict[str, tuple[int, int]]:
        return dict(self.windows)

    @cached_property
    def rivals(self) -> dict[str, frozenset[str]]:
        """Each event's fellow members across all its exclusive groups."""
        out: dict[str, frozenset[str]] = {}
        for g in self.groups:
            for m in g.members:
                out[m] = out.get(m, frozenset()) | (g.members - {m})
        return out

    @cached_property
    def _search_index(self) -> tuple[list[str], list[list[int]], list[list[int]], list[list[int]], list[bool], list[bool]]:
        """search_runs' index, which nothing forced changes: the events in topological order and,
        by position, their predecessors, rivals and sorted successors, and whether each is a start and an end."""
        order, leftover = topological_order(sorted(self.events), self.edges)
        if leftover:  # a record that has not been through build_chronology
            raise CycleDetected(_cycle_among(leftover, self.edges))
        at = {e: i for i, e in enumerate(order)}
        preds: list[list[int]] = [[] for _ in order]
        succs: list[list[int]] = [[] for _ in order]
        for u, v in dict.fromkeys(self.edges):  # an edge stated twice is one edge
            preds[at[v]].append(at[u])
            succs[at[u]].append(at[v])
        for succ in succs:
            succ.sort()
        rivals: list[list[int]] = [[] for _ in order]
        for e, others in self.rivals.items():
            rivals[at[e]] = [at[r] for r in others]
        return order, preds, rivals, succs, [e in self.starts for e in order], [e in self.ends for e in order]

    def closable(self, without: AbstractSet[str] = frozenset()) -> frozenset[str]:
        """Events with a path of successors to an end that avoids ``without``; no run avoiding it holds any other."""
        reach = set(self.ends - without)
        stack = list(reach)
        while stack:
            for p in self.predecessors(stack.pop()):
                if p not in reach and p not in without:
                    reach.add(p)
                    stack.append(p)
        return frozenset(reach)


class Trace(NamedTuple):
    """A single-pass record of event occurrences with integer timestamps."""

    id: str
    occurrences: tuple[tuple[str, int], ...] = ()

    def events(self) -> tuple[str, ...]:
        return tuple(e for e, _ in self.occurrences)


def check_trace_shape(trace: Trace) -> Optional[str]:
    """Trace invariants: non-decreasing timestamps, no repeated event."""
    last = None
    seen = set()
    for e, ts in trace.occurrences:
        if ts < 0:
            return f"negative timestamp for '{e}'"
        if last is not None and ts < last:
            return f"timestamps decrease at '{e}'"
        if e in seen:
            return f"event '{e}' occurs twice"
        seen.add(e)
        last = ts
    return None


# --- Verdicts ---------------------------------------------------------------


class Violation(NamedTuple):
    """The run rule a trace breaks, and what breaks it; prints as ``Kind(a,b)``, or ``Kind`` alone.

    ``kind`` is NotStarted (the trace is empty, or a causal thread in it begins at no start; no
    subjects), OrderViolation (the edge the trace reversed: before, after), ExclusivityViolation
    (the group), or MissingSuccessor, UnknownEvent or WindowViolation (the event).
    """

    kind: str
    subjects: tuple = ()

    def __str__(self) -> str:
        return f"{self.kind}({','.join(map(str, self.subjects))})" if self.subjects else self.kind


class Verdict(NamedTuple):
    """Truth assignment for one (chronology, trace) pair.

    Exactly one of ``run`` (when true) and ``violation`` (when false) is set.
    """

    truth: bool
    run: Optional[tuple[str, ...]] = None
    violation: Optional[Violation] = None

    def summary(self) -> str:
        if self.truth:
            return "TRUE run=[" + ",".join(self.run or ()) + "]"
        return f"FALSE reason={self.violation}"


# --- Construction -----------------------------------------------------------


def build_chronology(events: Iterable[Event], chronology: Chronology) -> Chronology:
    """Check a chronology against the declared events and give it their windows.

    Raises UnknownEvent for ids that resolve to no declared event,
    CycleDetected (carrying one witness cycle) when the edges are not a DAG,
    and EdgeInsideExclusiveGroup when an edge orders two alternatives.
    Returns the chronology itself if it already holds these windows, else a copy with them.
    """
    known = {e.id for e in events}
    ids = sorted(chronology.events)
    for ev in ids:
        if ev not in known:
            raise UnknownEvent(f"chronology '{chronology.id}' references undeclared event '{ev}'")

    _, leftover = topological_order(ids, chronology.edges)
    if leftover:
        raise CycleDetected(_cycle_among(leftover, chronology.edges))

    for g in chronology.groups:
        for u, v in chronology.edges:
            if u in g.members and v in g.members:
                raise EdgeInsideExclusiveGroup(
                    f"edge {u} -> {v} orders members of exclusive group '{g.name}'"
                )

    windows = tuple(
        sorted((e.id, e.window) for e in events if e.id in chronology.events and e.window is not None)
    )
    return chronology if windows == chronology.windows else replace(chronology, windows=windows)


_Node = TypeVar("_Node", bound=Hashable)


def topological_order(nodes: Sequence[_Node], edges: Iterable[tuple[_Node, _Node]]) -> tuple[list[_Node], list[_Node]]:
    """Kahn's walk over the distinct ``nodes``, taking first the ready node
    that comes first in ``nodes``.

    Edges with an endpoint outside ``nodes`` are ignored. Returns the ordered
    nodes and the left-over ones (on or behind a cycle) in ``nodes`` order.
    """
    at = {n: i for i, n in enumerate(nodes)}
    pending = [0] * len(at)
    succ: list[list[int]] = [[] for _ in pending]
    for u, v in edges:
        i, j = at.get(u), at.get(v)
        if i is not None and j is not None:
            succ[i].append(j)
            pending[j] += 1
    ready = [i for i, count in enumerate(pending) if not count]  # ascending, so already a heap
    order: list[_Node] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(nodes[i])
        for j in succ[i]:
            pending[j] -= 1
            if not pending[j]:
                heapq.heappush(ready, j)
    return order, [n for n, count in zip(nodes, pending) if count]


def _cycle_among(leftover: list[str], edges: Iterable[tuple[str, str]]) -> list[str]:
    """A closed walk through the nodes a topological walk left over.

    Each left-over node has a left-over predecessor, so walking backwards
    from any of them must repeat a node.
    """
    left = set(leftover)
    preds: dict[str, list[str]] = {}
    for u, v in edges:
        if u in left and v in left:
            preds.setdefault(v, []).append(u)
    path: list[str] = []
    seen: dict[str, int] = {}
    node = leftover[0]
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = min(preds[node])
    cycle = path[seen[node]:] + [node]
    cycle.reverse()
    return cycle


# --- Evaluation -------------------------------------------------------------


def evaluate_trace(chronology: Chronology, trace: Trace) -> Verdict:
    """Assign a truth value: true iff the trace realizes a run. Raises
    MalformedTrace when check_trace_shape finds fault with the trace.

    Checks, in order: every occurrence is a chronology event; timestamps
    strictly respect every edge between occurred events (equal stamps are
    legal only for unordered pairs); at most one member per exclusive group;
    the occurred set forms a run (each causal thread begins at a declared
    start and each begun, unfinished event is followed up, so the set reaches
    an end event); each occurrence falls inside its declared window.
    """
    shape = check_trace_shape(trace)
    if shape is not None:
        raise MalformedTrace(f"malformed trace '{trace.id}': {shape}")

    stamp: dict[str, int] = {}
    for e, ts in trace.occurrences:
        if e not in chronology.events:
            return Verdict(False, violation=Violation("UnknownEvent", (e,)))
        stamp[e] = ts

    for v, _ in trace.occurrences:
        for u in sorted(chronology.predecessors(v)):
            if u in stamp and stamp[u] >= stamp[v]:
                return Verdict(False, violation=Violation("OrderViolation", (u, v)))

    violation = _run_violation(chronology, set(stamp), stamp)
    if violation is not None:
        return Verdict(False, violation=violation)

    for e, ts in trace.occurrences:
        w = chronology.window_of(e)
        if w is not None and not (w[0] <= ts <= w[1]):
            return Verdict(False, violation=Violation("WindowViolation", (e,)))

    return Verdict(True, run=trace.events())


# --- Run enumeration ---------------------------------------------------------

# search_runs gives up after this many search steps per unit of bound and
# per event; a search with no dead branches takes about one per run and event.
_SEARCH_STEPS_PER_RUN_EVENT = 16


def _run_violation(chronology: Chronology, occurred: AbstractSet[str], order: Iterable[str]) -> Optional[Violation]:
    """The first run rule the ``occurred`` set breaks, visiting its members in
    ``order``: at most one member per exclusive group; each causal thread
    begins at a declared start; each non-end member has an in-set successor.
    """
    for g in chronology.groups:
        if len(g.members & occurred) > 1:
            return Violation("ExclusivityViolation", (g,))
    if not occurred & chronology.starts:
        return Violation("NotStarted")
    for e in order:
        if e not in chronology.starts and not (chronology.predecessors(e) & occurred):
            # a causal thread that begins mid-chronology never started
            return Violation("NotStarted")
    for e in order:
        if e not in chronology.ends and not (chronology.successors(e) & occurred):
            return Violation("MissingSuccessor", (e,))
    return None


def run_set_valid(chronology: Chronology, occurred: frozenset[str]) -> bool:
    """Set-level run test, independent of any trace ordering: a non-empty set
    that breaks no run rule."""
    return bool(occurred) and _run_violation(chronology, occurred, occurred) is None


def canonical_order(chronology: Chronology, occurred: frozenset[str]) -> tuple[str, ...]:
    """One deterministic topological order of a run set (id-sorted ties)."""
    order, _ = topological_order(sorted(occurred), chronology.edges)
    return tuple(order)


def search_runs(
    chronology: Chronology, bound: int, forced_in: AbstractSet[str] = frozenset(), forced_out: AbstractSet[str] = frozenset()
) -> Iterator[frozenset[str]]:
    """Each run set that holds every event of ``forced_in`` and none of
    ``forced_out``, once, as the search reaches it.

    Depth-first over the events in topological order, deciding each one once
    (include or exclude), so every set is reached at most once. A branch is
    cut as soon as it breaks a run rule that no later decision can mend: an
    included event needs to be a start or follow an included predecessor, to
    have no included rival in an exclusive group, and to be an end or have a
    successor that leads to an end and has no included rival; an event cannot
    be excluded when it is the last such successor left to an included,
    unfinished predecessor; paths to an end avoid ``forced_out``. Without
    exclusive groups, and with each forced-in event a start or a successor
    of another, every branch ends in a run (or the empty set); with groups a
    branch can still die further on, since these prunes look one step ahead.
    Each leaf is confirmed with run_set_valid, so the search can miss a run
    but never invent one; tests cross-check it against a subset scan.

    Raises BoundExceeded when the search takes more than
    _SEARCH_STEPS_PER_RUN_EVENT * bound * len(events) steps, which caps the
    dead branches a chronology with few runs can cost.
    """
    closable = chronology.closable(forced_out)
    if not forced_in <= closable:
        return  # a forced-in event is ruled out or has no path to an end
    order, preds, rivals, all_succs, startable, endable = chronology._search_index
    if len(closable) == len(order):  # nothing to filter out
        succs = all_succs
    else:
        succs = [[s for s in succ if order[s] in closable] for succ in all_succs]
    # (p, p's other successors in succs) for each unfinished p whose last one this is
    last_chance: list[list[tuple[int, list[int]]]] = [[] for _ in order]
    # whether order[p] is an end or has a successor with no rival, which no inclusion can bar
    closing: list[bool] = []
    for p, succ in enumerate(succs):
        if succ and not endable[p]:
            last_chance[succ[-1]].append((p, succ[:-1]))
        closing.append(endable[p] or not all(map(rivals.__getitem__, succ)))

    taken: list[bool] = []  # the decision for order[i] is taken[i]

    def free(j: int, i: int) -> bool:
        """Whether no rival of order[j] is among the included order[:i]."""
        return not rivals[j] or not any(taken[r] for r in rivals[j] if r < i)

    was_taken = taken.__getitem__

    def choices(i: int) -> list[tuple[int, bool]]:
        out = []
        if order[i] not in forced_in:
            for p, others in last_chance[i]:
                if taken[p] and not any(map(was_taken, others)):
                    break
            else:
                out.append((i, False))
        if (
            order[i] not in forced_out
            and (startable[i] or any(map(was_taken, preds[i])))
            and (not rivals[i] or free(i, i))
            and (closing[i] or any(free(s, i) for s in succs[i]))
        ):
            out.append((i, True))
        return out

    max_steps = _SEARCH_STEPS_PER_RUN_EVENT * bound * len(order)
    steps = 0
    stack = choices(0) if order else []
    while stack:
        steps += 1
        if steps > max_steps:
            raise BoundExceeded(
                f"chronology '{chronology.id}': run search passed {max_steps} steps (bound {bound})"
            )
        i, take = stack.pop()
        del taken[i:]
        taken.append(take)
        if i + 1 < len(order):
            stack.extend(choices(i + 1))
            continue
        occurred = frozenset(compress(order, taken))
        if occurred and run_set_valid(chronology, occurred):
            yield occurred


def enumerate_runs(chronology: Chronology, bound: int = 10_000) -> list[tuple[str, ...]]:
    """All runs of the chronology, one canonical order per run set. Raises
    BoundExceeded when ``bound`` is below the event count, the run count
    passes it or search_runs passes its step cap, CycleDetected on a cycle."""
    if bound < len(chronology.events):
        raise BoundExceeded(f"bound {bound} is smaller than the event count {len(chronology.events)}")
    runs: list[tuple[str, ...]] = []
    for occurred in search_runs(chronology, bound):
        runs.append(canonical_order(chronology, occurred))
        if len(runs) > bound:
            raise BoundExceeded(f"chronology '{chronology.id}' has more than {bound} runs")
    runs.sort(key=lambda r: (len(r), r))
    return runs
