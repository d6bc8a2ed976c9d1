"""Well-formedness checks for static models, and simplified-notation expansion.

Full notation restricts flow arcs to the stage-machine topology: things move
create/receive -> process -> release -> transfer, cross machines only
transfer-to-transfer, and enter membership through receive (or the
arrive/accept refinement). Simplified notation elides the
release/transfer/receive plumbing of a cross-machine move; ``desugar``
reinserts it.
"""
from __future__ import annotations

from dataclasses import replace

from . import diagnostics as dg
from .errors import NotSimplified
from .model import Arc, ArcKind, Notation, StageKind, StageRef, StaticModel, Thimac

C, P, R, T, V, A, X = (
    StageKind.CREATE,
    StageKind.PROCESS,
    StageKind.RELEASE,
    StageKind.TRANSFER,
    StageKind.RECEIVE,
    StageKind.ARRIVE,
    StageKind.ACCEPT,
)
_FLOW, _TRIGGER = ArcKind.FLOW, ArcKind.TRIGGER

# Legal intra-machine flow pairs in full notation. Creation takes no incoming
# flow (triggers only), and transfer-to-arrive mirrors transfer-to-receive for
# machines using the arrive/accept refinement.
INTRA_FLOWS: frozenset[tuple[StageKind, StageKind]] = frozenset(
    {
        (C, P),
        (C, R),
        (V, P),
        (V, R),
        (P, R),
        (R, T),
        (T, V),
        (T, A),
        (A, X),
        (X, P),
        (X, R),
    }
)

# Cross-machine flow in full notation: transfer feeding transfer, nothing else.
CROSS_FLOWS: frozenset[tuple[StageKind, StageKind]] = frozenset({(T, T)})

# A simplified cross-machine flow is legal precisely when desugaring can
# expand it: the source must be able to feed a release chain (anything but
# arrive) and the target must be reachable from the receiving side (anything
# but accept; create is reached by trigger).
SIMPLIFIED_CROSS_SRC = frozenset(StageKind) - {A}
SIMPLIFIED_CROSS_DST = frozenset(StageKind) - {X}


def flow_legal(src: StageRef, dst: StageRef, notation: Notation) -> bool:
    pair = (src.kind, dst.kind)
    if src.thimac == dst.thimac:
        return pair in INTRA_FLOWS
    if pair in CROSS_FLOWS:
        return True
    return (
        notation is Notation.SIMPLIFIED
        and src.kind in SIMPLIFIED_CROSS_SRC
        and dst.kind in SIMPLIFIED_CROSS_DST
    )


def validate_static(model: StaticModel) -> list[dg.Diagnostic]:
    """Empty iff the model is well-formed in its declared notation.

    Triggers are unconstrained apart from self-loops; only flows are checked
    against the legality tables. Stages with no incident arc are flagged as
    warnings since a bare single-stage thimac is meaningful.
    """
    diags: list[dg.Diagnostic] = []
    touched: set[StageRef] = set()
    for arc in model.arcs:
        touched.update((arc.src, arc.dst))
        if arc.kind is _TRIGGER:
            if arc.src == arc.dst:
                diags.append(dg.warning(dg.TRIGGER_SELF, f"trigger '{arc.id}' loops on {arc.src}", (arc.id,)))
        elif arc.dst.kind is C and not (model.notation is Notation.SIMPLIFIED and arc.cross_machine):
            message = f"flow '{arc.id}' enters {arc.dst}; things are born there, creation is trigger-only"
            diags.append(dg.error(dg.CREATE_INFLOW, message, (arc.id,)))
        elif not flow_legal(arc.src, arc.dst, model.notation):
            message = f"flow '{arc.id}' {arc.src} -> {arc.dst} is not a legal move in {model.notation.value} notation"
            diags.append(dg.warning(dg.FLOW_ILLEGAL, message, (arc.id,)))

    for t in model.walk():
        arrive_accept = {A, X} & t.stages
        if arrive_accept and (arrive_accept != {A, X} or V in t.stages):
            message = f"thimac '{t.id}' must declare arrive and accept together, replacing receive"
            diags.append(dg.error(dg.MODE, message, (t.id,)))
    for ref in model.stages.keys() - touched:
        diags.append(dg.warning(dg.STAGE_DANGLING, f"stage {ref} has no arcs", (ref.thimac,)))

    return dg.sort_diagnostics(diags)


# ---------------------------------------------------------------------------
# Desugaring

# The stages a thing passes through on each side of a cross-machine move: out through release and
# transfer, in through transfer and receive, or arrive and accept on a machine that declares them.
SENDING, RECEIVING, ARRIVING = (R, T), (T, V), (T, A, X)


def desugar(model: StaticModel) -> StaticModel:
    """Expand a simplified model into full notation.

    Each elided cross-machine flow src -> dst becomes the chain
    src -> release -> transfer => transfer -> receive -> dst, inserting only
    the stages and arcs not already present. The hop into a create stage is
    emitted as a trigger, since creation admits no incoming flow. The result
    passes full-notation validation whenever the input passed simplified
    validation.
    """
    if model.notation is not Notation.SIMPLIFIED:
        raise NotSimplified(f"model '{model.name}' is already in full notation")

    needed: dict[str, set[StageKind]] = {}
    arcs: list[Arc] = []
    present = {(a.kind, a.src, a.dst) for a in model.arcs}
    taken = {a.id for a in model.arcs}
    for arc in model.arcs:
        src, dst = arc.src, arc.dst
        if arc.kind is _TRIGGER or not arc.cross_machine or (src.kind, dst.kind) in CROSS_FLOWS:
            arcs.append(arc)
            continue

        out = SENDING[SENDING.index(src.kind) :] if src.kind in SENDING else (src.kind, *SENDING)
        entry = ARRIVING if {A, X} & model.thimac(dst.thimac).stages else RECEIVING
        into = entry[: entry.index(dst.kind) + 1] if dst.kind in entry else (*entry, dst.kind)
        needed.setdefault(src.thimac, set()).update(out)
        needed.setdefault(dst.thimac, set()).update(into)

        path = [StageRef(src.thimac, k) for k in out] + [StageRef(dst.thimac, k) for k in into]
        n = 1
        for u, v in zip(path, path[1:]):
            key = (_TRIGGER if v.kind is C else _FLOW, u, v)
            if key in present:
                continue
            present.add(key)
            while (new := f"{arc.id}_x{n}") in taken:
                n += 1
            taken.add(new)
            arcs.append(Arc(new, *key))
            n += 1

    def grow(t: Thimac) -> Thimac:
        return replace(t, stages=t.stages.union(needed.get(t.id, ())), children=tuple(map(grow, t.children)))

    return StaticModel(model.name, tuple(map(grow, model.roots)), tuple(arcs), Notation.FULL)
