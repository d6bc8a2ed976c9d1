"""Independent oracles for the tests: slow, obviously exhaustive versions of
library functions, kept apart from the code they check."""
from __future__ import annotations

import heapq
from collections import Counter
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from tmkit import diagnostics as dg
from tmkit.behavior import Chronology, canonical_order, run_set_valid
from tmkit.errors import BoundExceeded, IllegalAction
from tmkit.model import IsoResult, StageKind, StageRef, StaticModel, Thimac
from tmkit.simulate import MEMBER_STAGES, RETIRED, ThingInstance, enabled_events, fire_event, initial_state

# Exact enumeration is exponential in the event count; chronologies are
# desk-scale by design.
MAX_ENUMERABLE_EVENTS = 22


def enumerate_runs_by_subsets(chronology: Chronology, bound: int = 10_000) -> list[tuple[str, ...]]:
    """All runs of the chronology, one canonical order per run set.

    Exhaustive over event subsets, so deliberately independent of both
    evaluate_trace and enumerate_runs; the three are cross-checked in tests.
    Raises BoundExceeded when the run count passes ``bound`` or the
    chronology is too large to enumerate exactly.
    """
    events = sorted(chronology.events)
    if bound < len(events):
        raise ValueError(f"bound {bound} is smaller than the event count {len(events)}")
    if len(events) > MAX_ENUMERABLE_EVENTS:
        raise BoundExceeded(f"cannot enumerate runs over {len(events)} events (max {MAX_ENUMERABLE_EVENTS})")

    runs: list[tuple[str, ...]] = []
    for mask in range(1, 1 << len(events)):
        occurred = frozenset(events[i] for i in range(len(events)) if mask & (1 << i))
        if run_set_valid(chronology, occurred):
            runs.append(canonical_order(chronology, occurred))
            if len(runs) > bound:
                raise BoundExceeded(f"chronology '{chronology.id}' has more than {bound} runs")
    runs.sort(key=lambda r: (len(r), r))
    return runs


_Node = TypeVar("_Node", bound=Hashable)


def topological_order_by_key(
    nodes: Iterable[_Node], edges: Iterable[tuple[_Node, _Node]], key: Callable[[_Node], object]
) -> tuple[list[_Node], list[_Node]]:
    """Kahn's walk over ``nodes``, taking the ready node of smallest key first.

    Edges with an endpoint outside ``nodes`` are ignored. Returns the ordered
    nodes and the left-over ones (on or behind a cycle) in ``nodes`` order.
    The keyed walk that ``tmkit.behavior.topological_order`` replaced, kept
    as its differential oracle: keyed by position in ``nodes``, the two agree.
    """
    pending = {n: 0 for n in nodes}
    succ: dict[_Node, list[_Node]] = {n: [] for n in pending}
    for u, v in edges:
        if u in pending and v in pending:
            succ[u].append(v)
            pending[v] += 1
    ready = [(key(n), n) for n, count in pending.items() if count == 0]
    heapq.heapify(ready)
    order: list[_Node] = []
    while ready:
        _, n = heapq.heappop(ready)
        order.append(n)
        for s in succ[n]:
            pending[s] -= 1
            if pending[s] == 0:
                heapq.heappush(ready, (key(s), s))
    return order, [n for n, count in pending.items() if count]


def enabled_events_by_runs(state, runs: list[frozenset[str]]) -> list[str]:
    """The events a simulation state may fire next, recomputed from its log
    and the run sets of its chronology (from enumerate_runs_by_subsets).

    An unfired event whose window has not closed is enabled when no edge
    leads from it to a fired event, and some run holds the fired events and
    the event with no edge from an event of that run outside them to one of
    them. Deliberately independent of the simulator's bookkeeping and run
    search, which tests check against it.
    """
    chron = state.ctx.chronology
    fired = frozenset(e for e, _ in state.log)
    out = []
    for e in sorted(chron.events - fired):
        w = chron.window_of(e)
        if w is not None and max(state.step, w[0]) > w[1]:
            continue  # the admissible window has closed
        done = fired | {e}
        if chron.successors(e) & fired:
            continue  # it would fire after its successor
        if any(done <= r and not any(v in done and u in r - done for u, v in chron.edges) for r in runs):
            out.append(e)
    return out


def runs_reached_by_moves(model, subdiagrams, events, chronology) -> tuple[set[frozenset[str]], set[frozenset[str]]]:
    """Walk every sequence of simulator moves over a chronology without
    windows: the fired sets that form a run, and the fired sets that do not
    and have no move left. The fired and ruled-out events decide a state's
    moves, so each such state is expanded once."""
    reached, stuck, seen = set(), set(), set()
    stack = [initial_state(model, subdiagrams, events, chronology)]
    while stack:
        state = stack.pop()
        if (state.fired, state.out) in seen:
            continue
        seen.add((state.fired, state.out))
        enabled = enabled_events(state)
        if run_set_valid(chronology, state.fired):
            reached.add(state.fired)
        elif not enabled:
            stuck.add(state.fired)
        stack.extend(fire_event(state, e) for e in enabled)
    return reached, stuck


def _at(things: dict[str, ThingInstance], ref: StageRef) -> list[ThingInstance]:
    return sorted([i for i in things.values() if i.location == ref])  # ids are unique


def _in_machine(things: dict[str, ThingInstance], thimac_id: str) -> list[ThingInstance]:
    members = (i for i in things.values() if isinstance(i.location, StageRef) and i.location.kind in MEMBER_STAGES)
    return sorted([i for i in members if i.location.thimac == thimac_id])


def _spawn(model: StaticModel, things: dict[str, ThingInstance], thimac_id: str) -> None:
    t = model.thimac(thimac_id)
    for label in t.things or (t.id,):
        if label not in things:  # one instance per created label per run
            things[label] = ThingInstance(id=label, label=label, location=StageRef(thimac_id, StageKind.CREATE))


def _act(ctx, things: dict[str, ThingInstance], inst: ThingInstance, target: StageRef) -> None:
    """Apply the generic action at ``target`` to one instance standing at a stage.

    A released thing can only transfer out. A thing its own machine moves to
    a transfer stage with no onward flow leaves the system; an elided flow
    into a creation absorbs the thing into whatever that machine creates.
    """
    loc, kind = inst.location, target.kind
    if loc.kind is StageKind.RELEASE and kind is not StageKind.TRANSFER:
        raise IllegalAction(target, f"'{inst.id}' is released; it can only transfer out")
    if kind is StageKind.PROCESS:
        things[inst.id] = ThingInstance(inst.id, inst.label, target, inst.tags + (f"processed@{target.thimac}",))
    elif kind is StageKind.CREATE:
        things[inst.id] = ThingInstance(inst.id, inst.label, RETIRED, inst.tags)
        _spawn(ctx.model, things, target.thimac)
    elif kind is StageKind.TRANSFER and loc.thimac == target.thimac and target not in ctx.handoff_ports:
        things[inst.id] = ThingInstance(inst.id, inst.label, RETIRED, inst.tags)
    else:
        things[inst.id] = ThingInstance(inst.id, inst.label, target, inst.tags)


def instances_after_moves(ctx, event_id: str, instances: tuple[ThingInstance, ...]) -> tuple[ThingInstance, ...]:
    """The thing instances once the event's subdiagram acts on them; raises
    the IllegalAction ``tmkit.simulate._moves`` raises.

    The per-move firing that ``_moves`` replaced, which builds a new
    ThingInstance for every move and scans every instance for each flow, kept
    as its differential oracle. It follows the same plan.
    """
    plan = ctx.plans[event_id]
    things = {i.id: i for i in instances}

    for ref in plan.creates:
        _spawn(ctx.model, things, ref.thimac)

    visited: set[StageRef] = set()
    moved_from: set[StageRef] = set()
    for arc in plan.flows:
        for inst in _at(things, arc.src):
            _act(ctx, things, inst, arc.dst)
            visited.add(arc.dst)
            moved_from.add(arc.src)

    fed = {a.dst for a in plan.flows}
    for ref in plan.processes:
        if ref in fed:
            if ref not in visited:
                raise IllegalAction(ref, f"event '{event_id}' has nothing to process")
            continue
        if ref in moved_from:
            continue
        present = _in_machine(things, ref.thimac)
        if not present:
            raise IllegalAction(ref, f"event '{event_id}' has nothing to process")
        for inst in present:
            _act(ctx, things, inst, ref)

    for ref in plan.triggers:
        if ref.kind is StageKind.CREATE:
            _spawn(ctx.model, things, ref.thimac)
    return tuple(sorted(things.values()))


def tokenize_by_chars(path: str, text: str, diags: list) -> list[tuple[str, str, int, int]]:
    """The (kind, text, line, col) tokens of a .tm text, scanned one character
    at a time; lexical errors are appended to ``diags``.

    The character-loop tokenizer that the master regex of ``tmkit.syntax``
    replaced, kept as its differential oracle. Columns count code points.
    It counts the columns a comment takes and the lines an escaped newline
    in a string ends, which the loop it was taken from did not.
    """
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i, col = i + 1, col + 1
            continue
        if text[i : i + 2] in ("->", ".."):
            toks.append(("punct", text[i : i + 2], line, col))
            i, col = i + 2, col + 2
            continue
        if ch in "{}:;,.@=[]|":
            toks.append(("punct", ch, line, col))
            i, col = i + 1, col + 1
            continue
        if ch == '"':
            start_line, start_col, j = line, col, i + 1
            out = []
            closed = False
            while j < n and text[j] != "\n":
                if text[j] == "\\" and j + 1 < n:
                    esc = text[j + 1]
                    out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                    j += 2
                    continue
                if text[j] == '"':
                    closed = True
                    j += 1
                    break
                out.append(text[j])
                j += 1
            if not closed:
                diags.append(dg.error(dg.SYNTAX, "unterminated string", span=dg.Span(path, start_line, start_col)))
            toks.append(("string", "".join(out), start_line, start_col))
            lines = text[i:j].split("\n")  # more than one after an escaped newline
            line, col = line + len(lines) - 1, (col if len(lines) == 1 else 1) + len(lines[-1])
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        diags.append(dg.error(dg.SYNTAX, f"unexpected character {ch!r}", span=dg.Span(path, line, col)))
        i, col = i + 1, col + 1

    toks.append(("eof", "", line, col))
    return toks


DECLARING = ("thimac", "flow", "trigger", "subdiagram", "event", "chronology", "trace")


def first_declarations(text: str) -> dict[str, dg.Span]:
    """The span in f.tm of the first declaration of each id, from the character loop's tokens."""
    toks = tokenize_by_chars("f.tm", text, [])
    first = {}
    for (kind, word, _, _), (next_kind, name, line, col) in zip(toks, toks[1:]):
        if kind == "ident" and word in DECLARING and next_kind == "ident":
            first.setdefault(name, dg.Span("f.tm", line, col))
    return first


def isomorphic_by_backtracking(a: StaticModel, b: StaticModel) -> IsoResult:
    """Exact structural equivalence test, blind to ids and display labels.

    True iff a thimac bijection exists preserving containment, stage sets and
    arcs (kind + endpoints). Returns the witness mapping when found. Tries
    every permutation of like siblings and checks arcs only on complete
    mappings, so it is factorial in the size of a class of like siblings:
    deliberately independent of models_isomorphic, which tests check
    against it on small models.
    """

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
