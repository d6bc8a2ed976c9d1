"""Seeded generators for the synthetic benchmark documents.

Each generator returns the ``.tm`` text together with the facts that hold by
construction (the run sets, the windows, the TRUE traces), so the oracles in
``workloads.py`` never ask the code under test for an answer.

The seed drives identifiers (``genutil.fresh_id``), declaration order within
each section and window placement. Sizes are fixed by the caller. The stage
order inside a subdiagram is not shuffled: the simulator breaks ties on flow
cycles by that order, so it is part of the story a subdiagram tells, not of
its layout.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from genutil import fresh_id


@dataclass
class ChainDoc:
    text: str
    simplified_text: str
    order: tuple[str, ...]  # event ids along the chain
    windows: dict[str, tuple[int, int]]
    trace_id: str
    simplified_name: str


@dataclass
class BranchyDoc:
    text: str
    runs: frozenset[tuple[str, ...]]  # every run in chain order
    true_traces: dict[str, tuple[str, ...]] = field(default_factory=dict)
    false_traces: dict[str, str] = field(default_factory=dict)  # id -> violation kind


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def chain(rng: random.Random, machines: int) -> ChainDoc:
    """A source machine and ``machines`` relay machines passing one item along.

    Hop 0 creates the item and brings it to the source's transfer port; hop i
    carries it into machine i, which receives, processes and releases it. The
    last machine's port leads nowhere, so the item leaves the system there.
    """
    taken: set[str] = set()
    model = fresh_id(rng, taken, "chain_")
    src = fresh_id(rng, taken, "src_")
    ms = [fresh_id(rng, taken, "m_") for _ in range(machines)]

    thimacs = [f'  thimac {src} "Source" {{\n    stages: create, release, transfer;\n    things: "item";\n  }}']
    thimacs += [
        f'  thimac {m} "Machine {i + 1}" {{\n    stages: process, release, transfer, receive;\n  }}'
        for i, m in enumerate(ms)
    ]

    flows: list[str] = []
    subs: list[str] = []

    def flow(a: str, b: str) -> str:
        fid = fresh_id(rng, taken, "f_")
        flows.append(f"  flow {fid}: {a} -> {b};")
        return fid

    hop_subs = [fresh_id(rng, taken, "s_") for _ in range(machines + 1)]
    arcs0 = [flow(f"{src}.create", f"{src}.release"), flow(f"{src}.release", f"{src}.transfer")]
    subs.append(
        f'subdiagram {hop_subs[0]} "ITEM-IS-CREATED-AND-RELEASED" {{\n'
        f"  stages: {src}.create, {src}.release, {src}.transfer;\n  arcs: {', '.join(arcs0)};\n}}"
    )
    prev = src
    for i, m in enumerate(ms):
        arcs = [
            flow(f"{prev}.transfer", f"{m}.transfer"),
            flow(f"{m}.transfer", f"{m}.receive"),
            flow(f"{m}.receive", f"{m}.process"),
            flow(f"{m}.process", f"{m}.release"),
            flow(f"{m}.release", f"{m}.transfer"),
        ]
        stages = [f"{prev}.transfer", f"{m}.transfer", f"{m}.receive", f"{m}.process", f"{m}.release"]
        subs.append(
            f'subdiagram {hop_subs[i + 1]} "ITEM-MOVES-INTO-MACHINE-{i + 1}-AND-IS-PROCESSED" {{\n'
            f"  stages: {', '.join(stages)};\n  arcs: {', '.join(arcs)};\n}}"
        )
        prev = m

    order = tuple(fresh_id(rng, taken, "ev_") for _ in range(machines + 1))
    windows: dict[str, tuple[int, int]] = {}
    stamps: list[int] = []
    step = 0
    for e in order:
        if rng.random() < 0.25:
            w0 = max(0, step + rng.randint(-2, 3))
            w1 = max(step, w0) + rng.randint(0, 3)
            windows[e] = (w0, w1)
            step = max(step, w0)
        stamps.append(step)
        step += 1
    events = []
    for e, s in zip(order, hop_subs):
        w = windows.get(e)
        events.append(f"event {e} = {s}" + (f" window {w[0]}..{w[1]}" if w else ""))

    chron = fresh_id(rng, taken, "c_")
    edges = _shuffled(rng, [f"  {u} -> {v};" for u, v in zip(order, order[1:])])
    trace_id = fresh_id(rng, taken, "t_")
    body = ", ".join(f"{e} @ {ts}" for e, ts in zip(order, stamps))

    text = "\n".join(
        [f"model {model} {{", *_shuffled(rng, thimacs), *_shuffled(rng, flows), "}", ""]
        + [s + "\n" for s in _shuffled(rng, subs)]
        + _shuffled(rng, events)
        + ["", f"chronology {chron} {{", *edges, "}", "", f"trace {trace_id} = [ {body} ]", ""]
    )

    simplified_name = fresh_id(rng, taken, "chain_")
    simple_thimacs = [f'  thimac {src} "Source" {{\n    stages: create;\n    things: "item";\n  }}']
    simple_thimacs += [f'  thimac {m} "Machine {i + 1}" {{\n    stages: process;\n  }}' for i, m in enumerate(ms)]
    hops = [f"{src}.create"] + [f"{m}.process" for m in ms]
    simple_flows = [f"  flow {fresh_id(rng, taken, 'g_')}: {a} -> {b};" for a, b in zip(hops, hops[1:])]
    simplified_text = "\n".join(
        [f"model {simplified_name} simplified {{", *_shuffled(rng, simple_thimacs), *_shuffled(rng, simple_flows)]
        + ["}", ""]
    )

    return ChainDoc(
        text=text,
        simplified_text=simplified_text,
        order=order,
        windows=windows,
        trace_id=trace_id,
        simplified_name=simplified_name,
    )


def branchy(rng: random.Random, diamonds: int) -> BranchyDoc:
    """``diamonds`` exclusive diamonds in sequence: S -> {A_i | B_i} -> J_i.

    The runs are the 2^k ways of picking one side of every diamond. Each gets
    a TRUE trace. Each diamond also gets two falsifying traces: one that takes
    both sides, and one that reverses the edge from the chosen side into the
    join.
    """
    taken: set[str] = set()
    model = fresh_id(rng, taken, "branchy_")
    world = fresh_id(rng, taken, "w_")
    start = fresh_id(rng, taken, "ev_")
    sides = [(fresh_id(rng, taken, "ev_"), fresh_id(rng, taken, "ev_")) for _ in range(diamonds)]
    joins = [fresh_id(rng, taken, "ev_") for _ in range(diamonds)]
    events = [start] + [e for i in range(diamonds) for e in (*sides[i], joins[i])]

    subs, decls = [], []
    for e in events:
        s = fresh_id(rng, taken, "s_")
        subs.append(f'subdiagram {s} "{e.upper()}-HAPPENS" {{\n  stages: {world}.create;\n}}')
        decls.append(f"event {e} = {s}")

    edges, groups = [], []
    before = start
    for (a, b), j in zip(sides, joins):
        edges += [f"  {before} -> {a};", f"  {before} -> {b};", f"  {a} -> {j};", f"  {b} -> {j};"]
        groups.append(f"  exclusive {fresh_id(rng, taken, 'x_')} {{ {a} | {b} }};")
        before = j

    runs = set()
    for picks in range(1 << diamonds):
        run = [start]
        for i in range(diamonds):
            run += [sides[i][(picks >> i) & 1], joins[i]]
        runs.add(tuple(run))

    doc = BranchyDoc(text="", runs=frozenset(runs))
    traces = []

    def stamped(seq: list[str]) -> list[int]:
        ts, out = 0, []
        for _ in seq:
            out.append(ts)
            ts += rng.randint(1, 3)
        return out

    def add_trace(seq: list[str], stamps: list[int]) -> str:
        tid = fresh_id(rng, taken, "t_")
        traces.append(f"trace {tid} = [ " + ", ".join(f"{e} @ {t}" for e, t in zip(seq, stamps)) + " ]")
        return tid

    for run in sorted(runs):
        doc.true_traces[add_trace(list(run), stamped(list(run)))] = run
    for i in range(diamonds):
        base = list(rng.choice(sorted(runs)))
        at = base.index(joins[i])
        both = base[:at] + [sides[i][1] if base[at - 1] == sides[i][0] else sides[i][0]] + base[at:]
        doc.false_traces[add_trace(both, stamped(both))] = "ExclusivityViolation"
        # a trace lists its stamps in order, so the edge is reversed by
        # listing the join before the side that leads into it
        swapped = base[: at - 1] + [base[at], base[at - 1]] + base[at + 1 :]
        doc.false_traces[add_trace(swapped, stamped(swapped))] = "OrderViolation"

    chron = fresh_id(rng, taken, "c_")
    doc.text = "\n".join(
        [f"model {model} {{", f'  thimac {world} "World" {{\n    stages: create;\n  }}', "}", ""]
        + [s + "\n" for s in _shuffled(rng, subs)]
        + _shuffled(rng, decls)
        + ["", f"chronology {chron} {{", *_shuffled(rng, edges), *_shuffled(rng, groups)]
        + [f"  start: {start};", f"  end: {joins[-1]};", "}", ""]
        + _shuffled(rng, traces)
        + [""]
    )
    return doc
