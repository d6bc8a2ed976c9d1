"""DOT emitters for the three views of a document.

Static draws the model itself: thimacs as nested clusters, stages as nodes,
flows solid, triggers dashed. Overlay adds subdiagram membership to the
static picture. Behavior draws each chronology: events as nodes, the
strictly-before edges between them, exclusive groups annotated.

Output is plain deterministic text; layout is left to the DOT consumer.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import UnknownHighlightId
from .model import ArcKind, STAGE_ORDER, StageRef, Thimac
from .syntax import Document


class Level(Enum):
    STATIC = "static"
    OVERLAY = "overlay"
    BEHAVIOR = "behavior"


class RenderOptions(NamedTuple):
    level: Level = Level.STATIC
    highlight: frozenset[str] = frozenset()
    clusters: bool = True


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _known_ids(doc: Document) -> set[str]:
    ids = {t.id for t in doc.model.walk()}
    ids.update(map(str, doc.model.stages))
    ids.update(a.id for a in doc.model.arcs)
    ids.update(s.id for s in doc.subdiagrams)
    ids.update(e.id for e in doc.events)
    for c in doc.chronologies:
        ids.add(c.id)
    return ids


def to_dot(doc: Document, options: RenderOptions = RenderOptions()) -> str:
    """Emit DOT text for the requested level; stable bytes for stable input."""
    if options.highlight:
        unknown = sorted(options.highlight - _known_ids(doc))
        if unknown:
            raise UnknownHighlightId(f"cannot highlight unknown id(s): {', '.join(unknown)}")
    if options.level is Level.BEHAVIOR:
        return _behavior_dot(doc, options)
    return _static_dot(doc, options, overlay=options.level is Level.OVERLAY)


def _membership(doc: Document) -> tuple[dict[StageRef, list[str]], dict[str, list[str]]]:
    by_stage: dict[StageRef, list[str]] = {}
    by_arc: dict[str, list[str]] = {}
    for s in doc.subdiagrams:  # a stage or arc listed twice is one membership
        for ref in dict.fromkeys(s.stages):
            by_stage.setdefault(ref, []).append(s.id)
        for a in dict.fromkeys(s.arcs):
            by_arc.setdefault(a, []).append(s.id)
    return by_stage, by_arc


def _static_dot(doc: Document, options: RenderOptions, overlay: bool) -> str:
    by_stage, by_arc = _membership(doc) if overlay else ({}, {})
    hl = options.highlight
    out: list[str] = [f'digraph "{_esc(doc.model.name)}" {{']
    out.append("  compound=true;")
    out.append("  node [shape=box];")

    def stage_attrs(t: Thimac, ref: StageRef) -> str:
        label = ref.kind.value
        members = by_stage.get(ref, [])
        if members:
            label += "\\n[" + ",".join(members) + "]"
        attrs = [f'label="{_esc(label)}"']
        if t.id in hl or str(ref) in hl:
            attrs.append("color=red")
            attrs.append("penwidth=2")
        return ", ".join(attrs)

    def emit_thimac(t: Thimac, indent: int) -> None:
        pad = "  " * indent
        if options.clusters:
            out.append(f'{pad}subgraph "cluster_{_esc(t.id)}" {{')
            out.append(f'{pad}  label="{_esc(t.label or t.id)}";')
            inner = indent + 1
        else:
            inner = indent
        pad_in = "  " * inner
        for kind in STAGE_ORDER:
            if kind in t.stages:
                ref = StageRef(t.id, kind)
                out.append(f'{pad_in}"{_esc(str(ref))}" [{stage_attrs(t, ref)}];')
        if t.memory:
            out.append(f'{pad_in}// memory')
        for c in t.children:
            emit_thimac(c, inner)
        if options.clusters:
            out.append(f"{pad}}}")

    for t in doc.model.roots:
        emit_thimac(t, 1)

    for a in doc.model.arcs:
        style = "solid" if a.kind is ArcKind.FLOW else "dashed"
        attrs = [f"style={style}", f'tooltip="{_esc(a.id)}"']
        members = by_arc.get(a.id, [])
        if members:
            attrs.append(f'label="{_esc(",".join(members))}"')
        if a.id in hl:
            attrs.append("color=red")
            attrs.append("penwidth=2")
        out.append(f'  "{_esc(str(a.src))}" -> "{_esc(str(a.dst))}" [{", ".join(attrs)}];')

    out.append("}")
    return "\n".join(out) + "\n"


def _behavior_dot(doc: Document, options: RenderOptions) -> str:
    hl = options.highlight
    sub_labels = {s.id: s.label for s in doc.subdiagrams}
    sub_of = {e.id: e.subdiagram for e in doc.events}
    out: list[str] = []
    for c in doc.chronologies:
        out.append(f'digraph "{_esc(c.id)}" {{')
        out.append("  node [shape=box];")
        for g in c.groups:
            out.append(f'  // exclusive {g.name}: {" | ".join(sorted(g.members))}')
        for e in sorted(c.events):
            label = e
            sub = sub_of.get(e)
            if sub is not None and sub_labels.get(sub):
                label = f"{e}: {sub_labels[sub]}"
            attrs = [f'label="{_esc(label)}"']
            if c.start is not None and e in c.start:
                attrs.append("peripheries=2")
            if e in hl or c.id in hl:
                attrs.append("color=red")
                attrs.append("penwidth=2")
            out.append(f'  "{_esc(e)}" [{", ".join(attrs)}];')
        for u, v in c.edges:
            attrs = "color=red, penwidth=2" if (u in hl or v in hl) else "style=solid"
            out.append(f'  "{_esc(u)}" -> "{_esc(v)}" [{attrs}];')
        out.append("}")
    if not doc.chronologies:
        out.append('digraph "behavior" {')
        out.append("}")
    return "\n".join(out) + "\n"
