"""The three workloads: their inputs, their op mixes and their output oracles.

Every op is one ``tmkit`` command line. Its oracle gets the exit status and
the captured stdout and stderr, and returns ``None`` when they are right or a
one-line reason when they are not. Oracles run outside the timed region and
take their answers from hand-written tables or from facts that hold by
construction, never from the code under test.

Why each workload, and which layers it is meant to bypass:

* ``corpus`` is desk use: the 13 fixtures through every subcommand that
  applies to them. Every op is small, so ``cli`` (argparse, output) and
  ``syntax`` dominate; the airport ``runs`` op is the one big op. Nothing in
  it is larger than the airport fixture, so it bypasses size-dependent costs.
* ``chain`` is linear chains of N machines, N in {50, 100, 200}: mostly the
  quadratic simulator, plus ``syntax`` on documents up to ~120 KB. It is the
  only workload with event windows. It bypasses ``enumerate_runs`` and
  ``dot`` entirely.
* ``branchy`` is k exclusive diamonds in sequence, k in {4, 5}: 2^k runs by
  construction. ``enumerate_runs`` does most of the work, with
  ``evaluate_trace`` beside it on the same chronologies. It bypasses
  ``simulate``, ``dot`` and ``desugar``.

Op mixes are weighted so that ``op_ms_p50`` and ``op_ms_p90`` each fall well
inside one class of ops rather than between two classes of very different
cost; ``run.py`` reports where they fall on every run.
"""
from __future__ import annotations

import json
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import gen

Check = Callable[[int, str, str], Optional[str]]


@dataclass(frozen=True)
class Op:
    label: str  # op class, for percentile placement: "<subcommand>:<input>"
    argv: tuple[str, ...]
    check: Check


@dataclass
class Prepared:
    ops: list[Op]  # one pass of the timed loop, in order
    documents: list[Path]  # every generated document, for the set-up checks


# -- shared oracle pieces ------------------------------------------------------

_BLOCK = re.compile(r"```tmkit\n(.*?)\n```", re.S)
_SIM = re.compile(r"^trace (\S+) = \[ (.*) \]$")


def _status(want: int, got: int) -> Optional[str]:
    return None if got == want else f"exit {got}, expected {want}"


def _machine_block(out: str) -> Optional[dict]:
    m = _BLOCK.search(out)
    if m is None:
        return None
    try:
        return json.loads(m.group(1))
    except ValueError:
        return None


def _run_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("[")]


def _fmt_run(run: tuple[str, ...]) -> str:
    return "[" + ", ".join(run) + "]"


def expect_runs(runs: frozenset[tuple[str, ...]]) -> Check:
    want = {_fmt_run(r) for r in runs}

    def check(status: int, out: str, err: str) -> Optional[str]:
        lines = _run_lines(out)
        if status != 0:
            return _status(0, status)
        if len(lines) != len(want) or set(lines) != want:
            return f"printed {len(lines)} runs, expected the {len(want)} known ones"
        return None

    return check


def expect_simulation(runs: frozenset[tuple[str, ...]], windows: dict[str, tuple[int, int]], seed: int) -> Check:
    def check(status: int, out: str, err: str) -> Optional[str]:
        if status != 0:
            return _status(0, status)
        m = _SIM.match(out.strip())
        if m is None or m.group(1) != f"sim_seed_{seed}":
            return "no simulated trace on stdout"
        pairs = [p.rsplit(" @ ", 1) for p in m.group(2).split(", ")]
        seq = tuple(e for e, _ in pairs)
        stamps = [int(t) for _, t in pairs]
        if seq not in runs:
            return f"simulated sequence {seq[:4]}... is not a known run"
        if any(a > b for a, b in zip(stamps, stamps[1:])):
            return "simulated stamps decrease"
        for e, ts in zip(seq, stamps):
            w = windows.get(e)
            if w is not None and not w[0] <= ts <= w[1]:
                return f"'{e}' at {ts} outside its window {w}"
        return None

    return check


def expect_true(run: tuple[str, ...]) -> Check:
    want = "TRUE run=[" + ",".join(run) + "]"

    def check(status: int, out: str, err: str) -> Optional[str]:
        if status != 0:
            return _status(0, status)
        if out.splitlines()[:1] != [want]:
            return "verdict is not the expected TRUE run"
        return None

    return check


def expect_false(reason: str = "") -> Check:
    def check(status: int, out: str, err: str) -> Optional[str]:
        if status != 1:
            return _status(1, status)
        if not err.startswith("FALSE reason=" + reason):
            return f"expected FALSE reason={reason or '...'}"
        return None

    return check


def expect_check(subdiagrams: Optional[int] = None, events: Optional[int] = None) -> Check:
    def check(status: int, out: str, err: str) -> Optional[str]:
        if status != 0:
            return _status(0, status)
        block = _machine_block(out)
        if block is None:
            return "no machine block"
        if any(d["severity"] == "error" for d in block["diagnostics"]):
            return "error diagnostics on a valid document"
        if subdiagrams is not None and f": {subdiagrams} subdiagrams, {events} events" not in out:
            return f"expected {subdiagrams} subdiagrams and {events} events"
        return None

    return check


def expect_desugared(model: str, flows: Optional[int] = None) -> Check:
    def check(status: int, out: str, err: str) -> Optional[str]:
        if status != 0:
            return _status(0, status)
        if out.split("\n", 1)[0] != f"model {model} {{":
            return "desugared document does not open a full-notation model"
        got = sum(1 for line in out.splitlines() if line.startswith("  flow "))
        if flows is not None and got != flows:
            return f"{got} flows after desugaring, expected {flows}"
        return None

    return check


# -- corpus --------------------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    simplified: str = ""  # the model's name, for a simplified-notation fixture
    runs: frozenset[tuple[str, ...]] = frozenset()  # empty: no chronology
    # trace id -> the run a TRUE trace realizes, or the expected start of the
    # FALSE reason ("" when only falsity is known)
    traces: tuple[tuple[str, object], ...] = ()
    simulate_status: int = 0


# Hand-written facts about tests/fixtures. The airport run sets and verdicts
# and the iso results are the ones tests/test_acceptance.py and
# tests/test_cli.py assert; the rest read straight off the fixtures, whose
# other chronologies are linear and so have exactly one run.
AIRPORT_SCHENGEN_LUGGAGE = ("E1", "E3", "E4", "E5", "E8", "E9", "E13", "E14")
AIRPORT_NONSCHENGEN_NOLUG = ("E2", "E6", "E7", "E8", "E10", "E11", "E12", "E13", "E14")
AIRPORT_RUNS = frozenset(
    {
        AIRPORT_SCHENGEN_LUGGAGE,
        ("E1", "E3", "E4", "E5", "E8", "E10", "E11", "E12", "E13", "E14"),
        ("E2", "E6", "E7", "E8", "E9", "E13", "E14"),
        AIRPORT_NONSCHENGEN_NOLUG,
    }
)


def _linear(run: tuple[str, ...], traces: tuple[tuple[str, object], ...], **kw) -> Fixture:
    return Fixture(runs=frozenset({run}), traces=traces, **kw)


E12 = ("E1", "E2")
E123 = ("E1", "E2", "E3")

CORPUS: dict[str, Fixture] = {
    "airport.tm": Fixture(
        runs=AIRPORT_RUNS,
        traces=(
            ("schengen_luggage", AIRPORT_SCHENGEN_LUGGAGE),
            ("nonschengen_nolug", AIRPORT_NONSCHENGEN_NOLUG),
            ("mixed_branch", "ExclusivityViolation"),
            ("swapped", "OrderViolation(E3,E4)"),
            ("nothing", "NotStarted"),
        ),
    ),
    "airport_simplified.tm": Fixture(simplified="airport"),
    "bread.tm": _linear(E12, (("baked", E12), ("unmixed", "")), simplified="bread"),
    "empty.tm": Fixture(),
    # Nothing in this model creates the cheese that E1 processes, so the
    # simulator refuses it (IllegalAction, exit 1).
    "green_cheese.tm": _linear(
        E12, (("in_order", E12), ("reversed_order", "")), simplified="green_cheese", simulate_status=1
    ),
    "green_cheese_full.tm": Fixture(),
    "john_mary_v1.tm": _linear(E12, (("it_happened", E12),)),
    "john_mary_v2.tm": _linear(E12, (("it_happened", E12),)),
    "liar.tm": _linear(E123, (("the_usual_way", E123), ("sarcastic", ""))),
    "single_create.tm": _linear(("E1",), (("lone", ("E1",)),)),
    "telescope_v1.tm": _linear(
        ("e_present", "e_scope", "e_seen"), (("seen_through", ("e_present", "e_scope", "e_seen")),)
    ),
    "telescope_v2.tm": _linear(("e_present", "e_seen"), (("seen_direct", ("e_present", "e_seen")),)),
    "zero_sum.tm": _linear(E123, (("claimed", E123), ("never_summed", "")), simplified="zero_sum"),
}

ISO_PAIRS = (("john_mary_v1.tm", "john_mary_v2.tm", True), ("telescope_v1.tm", "telescope_v2.tm", False))

# The airport ops are the corpus's only ones above ~5 ms; repeating them puts
# op_ms_p90 inside the airport class instead of on its lower edge.
AIRPORT_WEIGHT = 2
SIM_SEEDS_PER_FIXTURE = 3


def _expect_render(first_line: str) -> Check:
    def check(status: int, out: str, err: str) -> Optional[str]:
        if status != 0:
            return _status(0, status)
        return None if out.startswith(first_line) else f"DOT does not start with {first_line!r}"

    return check


def _expect_refused(status: int, out: str, err: str) -> Optional[str]:
    if status != 1:
        return _status(1, status)
    return None if "nothing to process" in err else "expected a starved process stage"


def _expect_iso(same: bool) -> Check:
    def check(status: int, out: str, err: str) -> Optional[str]:
        if status != (0 if same else 1):
            return _status(0 if same else 1, status)
        return None if out.startswith(f"isomorphic: {'true' if same else 'false'}") else "wrong iso answer"

    return check


def prepare_corpus(rng: random.Random, fixtures: Path, workdir: Path) -> Prepared:
    paths = {}
    for name in CORPUS:
        paths[name] = workdir / name
        shutil.copyfile(fixtures / name, paths[name])

    ops: list[Op] = []
    for name, fx in CORPUS.items():
        p = str(paths[name])
        stem = name[:-3]
        fixture_ops = [Op(f"check:{stem}", ("check", p), expect_check(14, 14) if stem == "airport" else expect_check())]
        for level in ("static", "overlay", "behavior"):
            first = 'digraph "B"' if (stem == "airport" and level == "behavior") else "digraph "
            fixture_ops.append(Op(f"render:{stem}", ("render", p, "--level", level), _expect_render(first)))
        if fx.simplified:
            fixture_ops.append(Op(f"desugar:{stem}", ("desugar", p), expect_desugared(fx.simplified)))
        if fx.runs:
            fixture_ops.append(Op(f"runs:{stem}", ("runs", p), expect_runs(fx.runs)))
            for tid, verdict in fx.traces:
                check = expect_true(verdict) if isinstance(verdict, tuple) else expect_false(verdict)
                fixture_ops.append(Op(f"evaluate:{stem}", ("evaluate", p, "--trace", tid), check))
            for _ in range(SIM_SEEDS_PER_FIXTURE):
                seed = rng.randrange(1 << 16)
                check = expect_simulation(fx.runs, {}, seed) if fx.simulate_status == 0 else _expect_refused
                fixture_ops.append(Op(f"simulate:{stem}", ("simulate", p, "--seed", str(seed)), check))
        ops += fixture_ops * (AIRPORT_WEIGHT if stem == "airport" else 1)
    for a, b, same in ISO_PAIRS:
        ops.append(Op(f"iso:{a[:-6]}", ("iso", str(paths[a]), str(paths[b])), _expect_iso(same)))
    rng.shuffle(ops)
    return Prepared(ops, list(paths.values()))


# -- chain ---------------------------------------------------------------------

# Simulate ops per size. With one check, evaluate and desugar per size besides,
# op_ms_p50 falls inside the N=100 simulate class and op_ms_p90 inside the
# N=200 one, instead of on the edge between two classes.
CHAIN_SIMULATE_OPS = {50: 1, 100: 8, 200: 6}


def prepare_chain(rng: random.Random, fixtures: Path, workdir: Path) -> Prepared:
    ops: list[Op] = []
    documents: list[Path] = []
    for n, sims in CHAIN_SIMULATE_OPS.items():
        doc = gen.chain(rng, n)
        full, simple = workdir / f"chain_{n}.tm", workdir / f"chain_{n}_simplified.tm"
        full.write_text(doc.text, encoding="utf-8")
        simple.write_text(doc.simplified_text, encoding="utf-8")
        documents += [full, simple]
        run = frozenset({doc.order})
        # desugaring expands each of the n elided hops into five flows:
        # release, transfer, transfer, receive, process
        ops += [
            Op(f"check:N={n}", ("check", str(full)), expect_check(n + 1, n + 1)),
            Op(f"evaluate:N={n}", ("evaluate", str(full), "--trace", doc.trace_id), expect_true(doc.order)),
            Op(f"desugar:N={n}", ("desugar", str(simple)), expect_desugared(doc.simplified_name, 5 * n)),
        ]
        for _ in range(sims):
            seed = rng.randrange(1 << 16)
            check = expect_simulation(run, doc.windows, seed)
            ops.append(Op(f"simulate:N={n}", ("simulate", str(full), "--seed", str(seed)), check))
    rng.shuffle(ops)
    return Prepared(ops, documents)


# -- branchy -------------------------------------------------------------------

# Every trace is evaluated once per pass. The k=4 runs op is repeated so that
# it holds op_ms_p90 well inside its class; the k=5 one sits above p90 and
# carries most of the pass time.
BRANCHY_RUNS_OPS = {4: 23, 5: 5}


def prepare_branchy(rng: random.Random, fixtures: Path, workdir: Path) -> Prepared:
    ops: list[Op] = []
    documents: list[Path] = []
    for k, repeats in BRANCHY_RUNS_OPS.items():
        doc = gen.branchy(rng, k)
        path = workdir / f"branchy_{k}.tm"
        path.write_text(doc.text, encoding="utf-8")
        documents.append(path)
        p = str(path)
        ops += [Op(f"runs:k={k}", ("runs", p), expect_runs(doc.runs))] * repeats
        for t, run in doc.true_traces.items():
            ops.append(Op(f"evaluate:k={k}", ("evaluate", p, "--trace", t), expect_true(run)))
        for t, why in doc.false_traces.items():
            ops.append(Op(f"evaluate:k={k}", ("evaluate", p, "--trace", t), expect_false(why)))
    rng.shuffle(ops)
    return Prepared(ops, documents)


WORKLOADS: dict[str, Callable[[random.Random, Path, Path], Prepared]] = {
    "corpus": prepare_corpus,
    "chain": prepare_chain,
    "branchy": prepare_branchy,
}
