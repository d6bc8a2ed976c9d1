"""Well-formedness checks for static models, and simplified-notation expansion.

Full notation restricts flow arcs to the stage-machine topology: things move
create/receive -> process -> release -> transfer, cross machines only
transfer-to-transfer, and enter membership through receive (or the
arrive/accept refinement). Simplified notation elides the
release/transfer/receive plumbing of a cross-machine move: ``elided_chains``
states the chain each elided arrow stands for, ``validate_static`` judges the
arrow by its chain and ``desugar`` inserts the chain.
"""
from __future__ import annotations

from . import diagnostics as dg
from .errors import NotSimplified
from .model import Arc, ArcKind, Notation, StageKind, StageRef, StaticModel, Thimac

C, P, R, T, V, A, X = StageKind  # in declaration order
_FLOW, _TRIGGER, _SIMPLIFIED = ArcKind.FLOW, ArcKind.TRIGGER, Notation.SIMPLIFIED

# Legal intra-machine flow pairs in full notation. Creation takes no incoming
# flow (triggers only), and transfer-to-arrive mirrors transfer-to-receive for
# machines using the arrive/accept refinement.
INTRA_FLOWS: frozenset[tuple[StageKind, StageKind]] = frozenset(
    {(C, P), (C, R), (V, P), (V, R), (P, R), (R, T), (T, V), (T, A), (A, X), (X, P), (X, R)}
)

# Cross-machine flow in full notation: transfer feeding transfer, nothing else.
CROSS_FLOWS: frozenset[tuple[StageKind, StageKind]] = frozenset({(T, T)})

# The stages a thing passes through on each side of a cross-machine move: out through release and
# transfer, in through transfer and receive, or arrive and accept on a machine that declares them.
SENDING, RECEIVING, ARRIVING = (R, T), (T, V), (T, A, X)

# The chain of an elided arrow: the stage kinds it passes on the source's machine, then on the target's.
Chain = tuple[tuple[StageKind, ...], tuple[StageKind, ...]]
# A legal hop on one side of a chain: an intra-machine flow, or a trigger into creation.
_SIDE_HOPS = INTRA_FLOWS | {(k, C) for k in StageKind}
# Every chain an elided arrow can stand for, by its source's stage kind, its target's, and whether the
# target's machine declares arrive or accept: 7 x 7 x 2, built once.
_CHAINS: dict[tuple[StageKind, StageKind, bool], Chain] = {
    (src, dst, arriving): (
        SENDING[SENDING.index(src) :] if src in SENDING else (src, *SENDING),
        entry[: entry.index(dst) + 1] if dst in entry else (*entry, dst),
    )
    for src in StageKind
    for dst in StageKind
    for arriving, entry in ((False, RECEIVING), (True, ARRIVING))
}
# The chains every hop of which is legal in full notation. The sides meet transfer to transfer,
# and the hop into a create stage is a trigger.
_LEGAL_CHAINS = frozenset(c for c in _CHAINS.values() if all(_SIDE_HOPS.issuperset(zip(s, s[1:])) for s in c))


def elided_chains(model: StaticModel) -> dict[str, Chain]:
    """The chain each elided arrow stands for, by arc id: none in full notation.

    In simplified notation every cross-machine flow but transfer -> transfer is
    elided. The sending side of the chain of src -> dst is SENDING from src's
    stage on if that stage is in it, else that stage followed by SENDING. The
    receiving side is RECEIVING, or ARRIVING when dst's machine declares arrive
    or accept, up to dst's stage if that stage is in it, else followed by it.
    """
    chains: dict[str, Chain] = {}
    if model.notation is not _SIMPLIFIED:
        return chains
    for arc in model.arcs:
        src, dst = arc.src, arc.dst
        if arc.kind is _TRIGGER or src.thimac == dst.thimac or (src.kind, dst.kind) in CROSS_FLOWS:
            continue
        stages = model.thimac(dst.thimac).stages
        chains[arc.id] = _CHAINS[src.kind, dst.kind, A in stages or X in stages]
    return chains


def flow_legal(src: StageRef, dst: StageRef) -> bool:
    """Whether a flow is a legal move in full notation."""
    return (src.kind, dst.kind) in (INTRA_FLOWS if src.thimac == dst.thimac else CROSS_FLOWS)


def validate_static(model: StaticModel) -> list[dg.Diagnostic]:
    """Empty iff the model is well-formed in its declared notation.

    Triggers are unconstrained apart from self-loops; only flows are checked
    against the legality tables, an elided arrow hop by hop along its chain.
    Stages with no incident arc are warnings: a bare thimac is meaningful.
    """
    diags: list[dg.Diagnostic] = []
    touched: set[StageRef] = set()
    chains = elided_chains(model)
    for aid, kind, src, dst in model.arcs:  # unpacked once: a record's field reads cost more than locals
        touched.update((src, dst))
        if kind is _TRIGGER:
            if src == dst:
                diags.append(dg.warning(dg.TRIGGER_SELF, f"trigger '{aid}' loops on {src}", (aid,)))
        elif (chain := chains.get(aid)) is None and dst.kind is C:
            message = f"flow '{aid}' enters {dst}; things are born there, creation is trigger-only"
            diags.append(dg.error(dg.CREATE_INFLOW, message, (aid,)))
        elif not (flow_legal(src, dst) if chain is None else chain in _LEGAL_CHAINS):
            message = f"flow '{aid}' {src} -> {dst} is not a legal move in {model.notation.value} notation"
            diags.append(dg.warning(dg.FLOW_ILLEGAL, message, (aid,)))

    for t in model.walk():
        stages = t.stages
        arrive = A in stages
        if arrive != (X in stages) or (arrive and V in stages):
            message = f"thimac '{t.id}' must declare arrive and accept together, replacing receive"
            diags.append(dg.error(dg.MODE, message, (t.id,)))
    for ref in model.stages.keys() - touched:
        diags.append(dg.warning(dg.STAGE_DANGLING, f"stage {ref} has no arcs", (ref.thimac,)))

    return dg.sort_diagnostics(diags)


def desugar(model: StaticModel) -> StaticModel:
    """Expand a simplified model into full notation.

    Each arrow that ``elided_chains`` names becomes its chain, inserting only
    the stages and arcs not already present. The hop into a create stage is
    emitted as a trigger, since creation admits no incoming flow. An elided
    arrow is legal iff every hop of its chain is, so the result passes
    full-notation validation whenever the input passed simplified validation.
    """
    if model.notation is not _SIMPLIFIED:
        raise NotSimplified(f"model '{model.name}' is already in full notation")

    chains = elided_chains(model)
    needed: dict[str, set[StageKind]] = {}
    arcs: list[Arc] = []
    present = {(a.kind, a.src, a.dst) for a in model.arcs}
    taken = {a.id for a in model.arcs}
    for arc in model.arcs:
        if (chain := chains.get(arc.id)) is None:
            arcs.append(arc)
            continue
        path = []
        for machine, side in zip((arc.src.thimac, arc.dst.thimac), chain):
            needed.setdefault(machine, set()).update(side)
            path += [StageRef(machine, k) for k in side]
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
        return t._replace(stages=t.stages.union(needed.get(t.id, ())), children=tuple(map(grow, t.children)))

    return StaticModel(model.name, tuple(map(grow, model.roots)), tuple(arcs), Notation.FULL)
