"""Subdiagrams of a static model and the events built over them.

A subdiagram names a closed subgraph of the model: a potential locus of
change. An event pairs a subdiagram with an optional time window and is the
unit the behavioral model orders.
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from . import diagnostics as dg
from .model import ArcKind, StageRef, StaticModel

_FLOW = ArcKind.FLOW


class Subdiagram(NamedTuple):
    id: str
    label: str
    stages: tuple[StageRef, ...] = ()
    arcs: tuple[str, ...] = ()


class Event(NamedTuple):
    id: str
    subdiagram: str
    window: Optional[tuple[int, int]] = None


class CoverageReport(NamedTuple):
    uncovered_stages: tuple[StageRef, ...]
    uncovered_arcs: tuple[str, ...]
    multiply_covered: tuple[str, ...]


def check_subdiagram(model: StaticModel, sub: Subdiagram) -> list[dg.Diagnostic]:
    """Empty iff ``sub`` is a closed subgraph of the model.

    Closure is required of flow arcs only: a trigger may reach across the
    subdiagram boundary, so its endpoints are checked for existence but not
    for membership.
    """
    diags: list[dg.Diagnostic] = []
    stage_set = set(sub.stages)
    for ref in sub.stages:
        if ref not in model.stages:
            diags.append(dg.error(dg.SUB_UNRESOLVED, f"stage {ref} is not in the model", (sub.id, str(ref))))
    for arc_id in sub.arcs:
        arc = model.arc(arc_id)
        if arc is None:
            diags.append(dg.error(dg.SUB_UNRESOLVED, f"arc '{arc_id}' is not in the model", (sub.id, arc_id)))
            continue
        if arc.kind is _FLOW:
            for ref in (arc.src, arc.dst):
                if ref not in stage_set:
                    diags.append(
                        dg.error(
                            dg.SUB_CLOSURE,
                            f"flow arc '{arc_id}' endpoint {ref} is outside the subdiagram",
                            (sub.id, arc_id),
                        )
                    )
    return dg.sort_diagnostics(diags)


def coverage(model: StaticModel, subs: Sequence[Subdiagram]) -> CoverageReport:
    """Report model elements no subdiagram claims, and ones claimed twice.

    Coverage is advisory: a partial decomposition is legal, the report just
    makes the gaps visible.
    """
    stage_counts = dict.fromkeys(model.stages, 0)
    arc_counts = {a.id: 0 for a in model.arcs}
    for sub in subs:
        for ref in set(sub.stages):
            if ref in stage_counts:
                stage_counts[ref] += 1
        for arc_id in set(sub.arcs):
            if arc_id in arc_counts:
                arc_counts[arc_id] += 1
    multi = sorted(
        [str(ref) for ref, n in stage_counts.items() if n > 1] + [a for a, n in arc_counts.items() if n > 1]
    )
    return CoverageReport(
        uncovered_stages=tuple(ref for ref, n in stage_counts.items() if n == 0),
        uncovered_arcs=tuple(a for a, n in arc_counts.items() if n == 0),
        multiply_covered=tuple(multi),
    )


def eventize(subs: Sequence[Subdiagram], declarations: Sequence[Event]) -> list[dg.Diagnostic]:
    """Check event declarations against the checked subdiagrams.

    Each event must name a declared subdiagram, and its window, if any, must
    not start after it ends. Two events over one subdiagram are both legal,
    with a warning.
    """
    diags: list[dg.Diagnostic] = []
    known = {s.id for s in subs}
    used: dict[str, str] = {}
    for ev in declarations:
        if ev.subdiagram not in known:
            diags.append(
                dg.error(dg.EVENT_UNRESOLVED, f"event '{ev.id}' names unknown subdiagram '{ev.subdiagram}'", (ev.id,))
            )
            continue
        if ev.window is not None and ev.window[0] > ev.window[1]:
            message = "event '{}' window {}..{} is empty (start after end)".format(ev.id, *ev.window)
            diags.append(dg.error(dg.EVENT_WINDOW, message, (ev.id,)))
            continue
        if ev.subdiagram in used:
            diags.append(
                dg.warning(
                    dg.EVENT_SHARED,
                    f"events '{used[ev.subdiagram]}' and '{ev.id}' share subdiagram '{ev.subdiagram}'",
                    (ev.id, used[ev.subdiagram]),
                )
            )
        else:
            used[ev.subdiagram] = ev.id
    return dg.sort_diagnostics(diags)
