"""Seeded random generators shared by the property and acceptance tests."""
from __future__ import annotations

import random
import string

from tmkit import diagnostics as dg
from tmkit.behavior import Chronology, ExclusiveGroup, Trace
from tmkit.events import Event, Subdiagram
from tmkit.model import (
    Arc,
    ArcKind,
    Notation,
    StageKind,
    StaticModel,
    Thimac,
    build_model,
)
from tmkit.syntax import Document
from tmkit.validate import validate_static

NAUGHTY_LABELS = ['plain', 'with "quotes"', "back\\slash", "tab\there", "uni: Δ→é", "new\nline", ""]


def fresh_id(rng: random.Random, taken: set[str], prefix: str = "n") -> str:
    while True:
        name = prefix + "".join(rng.choices(string.ascii_lowercase + string.digits, k=rng.randint(2, 6)))
        if name not in taken:
            taken.add(name)
            return name


def random_thimacs(rng: random.Random, taken: set[str], depth: int = 0) -> list[Thimac]:
    decls = []
    for _ in range(rng.randint(1, 3 if depth == 0 else 2)):
        n_kinds = rng.randint(0, 4)
        stages = rng.sample(list(StageKind), k=n_kinds)
        if StageKind.ARRIVE in stages or StageKind.ACCEPT in stages:
            # keep the refinement pair well-formed
            stages = [k for k in stages if k is not StageKind.RECEIVE]
            stages = sorted(set(stages) | {StageKind.ARRIVE, StageKind.ACCEPT}, key=list(StageKind).index)
        children = random_thimacs(rng, taken, depth + 1) if depth < 2 and rng.random() < 0.4 else []
        decls.append(
            Thimac(
                id=fresh_id(rng, taken, "t"),
                label=rng.choice(NAUGHTY_LABELS),
                stages=frozenset(stages),
                children=tuple(children),
                things=tuple(rng.choice(NAUGHTY_LABELS) for _ in range(rng.randint(0, 2))),
                memory=rng.random() < 0.15,
            )
        )
    return decls


def random_model(rng: random.Random, notation: Notation = Notation.FULL) -> StaticModel:
    """A structurally valid model; arc legality is deliberately not enforced."""
    taken: set[str] = set()
    thimacs = random_thimacs(rng, taken)
    model = build_model(fresh_id(rng, taken, "m"), thimacs, (), notation)
    refs = list(model.stages)
    arcs = []
    if refs:
        for _ in range(rng.randint(0, 2 * len(refs))):
            src, dst = rng.choice(refs), rng.choice(refs)
            if src == dst:
                continue
            arcs.append(Arc(fresh_id(rng, taken, "a"), rng.choice([ArcKind.FLOW, ArcKind.TRIGGER]), src, dst))
    return build_model(model.name, thimacs, arcs, notation)


def random_document(rng: random.Random) -> Document:
    model = random_model(rng)
    refs = list(model.stages)
    arc_ids = [a.id for a in model.arcs]
    taken = {t.id for t in model.walk()} | set(arc_ids) | {model.name}

    subdiagrams = []
    for _ in range(rng.randint(0, 4)):
        stages = tuple(rng.sample(refs, k=rng.randint(0, len(refs)))) if refs else ()
        arcs = tuple(rng.sample(arc_ids, k=rng.randint(0, min(3, len(arc_ids))))) if arc_ids else ()
        subdiagrams.append(Subdiagram(fresh_id(rng, taken, "s"), rng.choice(NAUGHTY_LABELS), stages, arcs))

    events = []
    for _ in range(rng.randint(0, 5) if subdiagrams else 0):
        window = None
        if rng.random() < 0.4:
            t0 = rng.randint(0, 9)
            window = (t0, t0 + rng.randint(0, 9))
        events.append(Event(fresh_id(rng, taken, "e"), rng.choice(subdiagrams).id, window))

    chronologies = []
    event_ids = [e.id for e in events]
    for _ in range(rng.randint(0, 2) if len(event_ids) >= 2 else 0):
        edges = []
        for _ in range(rng.randint(0, 5)):
            u, v = rng.sample(event_ids, 2)
            edges.append((u, v))
        groups = []
        if rng.random() < 0.5 and len(event_ids) >= 2:
            members = rng.sample(event_ids, 2)
            groups.append(ExclusiveGroup(fresh_id(rng, taken, "x"), frozenset(members)))
        start = tuple(rng.sample(event_ids, rng.randint(1, len(event_ids)))) if rng.random() < 0.5 else None
        end = tuple(rng.sample(event_ids, rng.randint(1, len(event_ids)))) if rng.random() < 0.5 else None
        chronologies.append(
            Chronology(
                id=fresh_id(rng, taken, "c"),
                event_ids=tuple(sorted(event_ids)),  # states every event, so each one is in it
                edges=tuple(edges),
                groups=tuple(groups),
                start=start,
                end=end,
            )
        )

    traces = []
    for _ in range(rng.randint(0, 3) if event_ids else 0):
        picked = rng.sample(event_ids, rng.randint(0, len(event_ids)))
        ts = 0
        occurrences = []
        for e in picked:
            ts += rng.randint(0, 3)
            occurrences.append((e, ts))
        traces.append(Trace(fresh_id(rng, taken, "r"), tuple(occurrences)))

    return Document(
        model=model,
        subdiagrams=tuple(subdiagrams),
        events=tuple(events),
        chronologies=tuple(chronologies),
        traces=tuple(traces),
    )


def random_simplified_model(rng: random.Random) -> StaticModel:
    """A simplified-notation model that passes validate_static."""
    taken: set[str] = set()
    thimacs = []
    for _ in range(rng.randint(2, 5)):
        kinds = {rng.choice([StageKind.CREATE, StageKind.PROCESS])}
        if rng.random() < 0.4:
            kinds.add(rng.choice([StageKind.CREATE, StageKind.PROCESS, StageKind.RELEASE]))
        thimacs.append(Thimac(fresh_id(rng, taken, "t"), "m", frozenset(kinds)))

    skeleton = build_model("m", thimacs, (), Notation.SIMPLIFIED)
    refs = list(skeleton.stages)
    arcs = []
    seen_pairs = set()
    for _ in range(rng.randint(1, 8)):
        src, dst = rng.choice(refs), rng.choice(refs)
        if src == dst or (src, dst) in seen_pairs:
            continue
        # keep the flow iff validate_static finds it legal, as the only arc of the skeleton
        alone = build_model("m", thimacs, [Arc("f", ArcKind.FLOW, src, dst)], Notation.SIMPLIFIED)
        if any(d.code in (dg.FLOW_ILLEGAL, dg.CREATE_INFLOW) for d in validate_static(alone)):
            continue
        seen_pairs.add((src, dst))
        arcs.append(Arc(fresh_id(rng, taken, "f"), ArcKind.FLOW, src, dst))

    # park every untouched stage on a trigger so the model validates cleanly
    touched = {r for a in arcs for r in (a.src, a.dst)}
    for ref in refs:
        if ref not in touched:
            other = next((r for r in refs if r != ref), None)
            if other is None:
                break
            arcs.append(Arc(fresh_id(rng, taken, "g"), ArcKind.TRIGGER, ref, other))

    return build_model("m", thimacs, arcs, Notation.SIMPLIFIED)


def random_chronology(rng: random.Random, n_events: int, exclusive: bool = True) -> tuple[list[Event], Chronology]:
    """A random DAG chronology over n fabricated events."""
    ids = [f"e{i}" for i in range(n_events)]
    shuffled = ids[:]
    rng.shuffle(shuffled)
    edges = []
    for i in range(n_events):
        for j in range(i + 1, n_events):
            if rng.random() < 0.3:
                edges.append((shuffled[i], shuffled[j]))

    groups = []
    if exclusive and n_events >= 2 and rng.random() < 0.7:
        pool = [e for e in ids if not any(e in (u, v) for u, v in edges)] or ids
        k = min(len(pool), rng.randint(2, 3))
        members = rng.sample(pool, k)
        if not any(u in members and v in members for u, v in edges):
            groups.append(ExclusiveGroup("x1", frozenset(members)))

    events = [Event(e, "s") for e in ids]
    decl = Chronology(id="c", event_ids=tuple(ids), edges=tuple(edges), groups=tuple(groups))
    return events, decl


# pieces that open, close or extend a token, and words the grammar gives a meaning
PIECES = [
    "#", "# c\n", "\n", " ", "\t", "\r", "\f", '"', "\\", '\\"', "->", "-", "..", ".", ",", ";", ":", "{", "}",
    "[", "]", "|", "@", "=", "0", "07", "9" * 4400, "x1", "x2", "é", "²", "Ⅻ", "٣", "_", "model", "simplified",
    "thimac", "stages", "things", "memory", "create", "process", "flow", "trigger", "subdiagram", "arcs",
    "event", "window", "chronology", "events", "exclusive", "start", "end", "trace",
]


def mutated(rng: random.Random, text: str) -> str:
    """``text`` with one to three random edits: a piece inserted, a span deleted,
    duplicated or moved, or a line repeated."""
    for _ in range(rng.randint(1, 3)):
        at, width = rng.randint(0, len(text)), rng.randint(1, 12)
        edit = rng.randrange(5)
        if edit == 0:
            text = text[:at] + rng.choice(PIECES) + text[at:]
        elif edit == 1:
            text = text[:at] + text[at + width :]
        elif edit == 2:
            text = text[:at] + text[at : at + width] + text[at:]
        elif edit == 3:
            piece, rest = text[at : at + width], text[:at] + text[at + width :]
            to = rng.randint(0, len(rest))
            text = rest[:to] + piece + rest[to:]
        else:
            lines = text.split("\n")
            i = rng.randrange(len(lines))
            lines.insert(rng.randint(0, len(lines)), lines[i])
            text = "\n".join(lines)
    return text
