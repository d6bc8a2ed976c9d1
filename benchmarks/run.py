"""tmkit benchmark: the CLI driven in-process as a closed loop.

    python3 benchmarks/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

One client, one thread, one process: each ``tmkit.cli.main([...])`` call is
sent only after the previous one returned. A pass runs the workload's op mix
once (``workloads.py``); passes repeat until ``--seconds`` is used up. Output
checks run after each pass, outside the timed region.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:

* ``ops_per_s``: median over passes of ops per second of pass time;
* ``op_ms_p50`` / ``op_ms_p90``: latency percentiles over every op of the run;
* ``setup_s``: median of nine set-ups, each importing ``tmkit`` afresh,
  generating and writing the inputs, checking them and warming up (every op
  class once);
* ``peak_rss_mb``: peak resident memory of the process.

Times are at reference speed. On a shared host the CPU speed drifts by a
third over minutes and jumps by as much within a second, more than any bound
a benchmark could keep, so a fixed pure-Python kernel (``kernel``) is timed
every ``CAL_EVERY_NS`` between ops and between the steps of a set-up
(``RefClock``). Each op's or step's wall time is multiplied by ``CAL_REF_NS``
over the mean of the kernel timings just before and just after it: the times
are those of a machine on which the kernel takes exactly 1 ms. Kernel timings
are outside the timed region. The ``#`` report gives the wall-clock figures
beside them.

Failed ops are the ``failed`` count of the result line, out of ``attempted``;
an exception escaping ``main`` is a failed op and the run goes on.

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics instead (see ``spans.py``); ``trace.overhead_ratio`` is the traced
over the untraced median pass throughput.

The garbage collector stays on during ops, as users run it; a full collection
runs between passes so that one pass's garbage is not charged to the next.
Lines starting with ``#`` are a human-readable report; the last line is the
JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "chain", "branchy")
SETUP_REPS = 9
MIN_PASSES = 3


class SetupError(Exception):
    pass


# -- reference speed -----------------------------------------------------------


class _Item:
    __slots__ = ("name", "rank")

    def __init__(self, name: str, rank: int) -> None:
        self.name, self.rank = name, rank

    def key(self) -> tuple[str, int]:
        return (self.name, self.rank)


def kernel(n: int = 800) -> int:
    """Fixed interpreter work of the kind tmkit does: small objects, tuples,
    sets, frozensets and strings. It takes 0.8 to 1.5 ms on a 2-vCPU cloud VM,
    depending on the load on the host."""
    seen, out = set(), []
    for i in range(n):
        item = _Item(f"e{i % 37}", i % 11)
        key = item.key()
        if key not in seen:
            seen.add(key)
            out.append(key)
        pair = frozenset((item.name, str(item.rank)))
        if len(pair) > 1 and item.name.startswith("e1"):
            out.append(sorted(pair))
    return len(out)


CAL_REF_NS = 1_000_000
CAL_EVERY_NS = 50_000_000


def calibrate() -> int:
    """The fastest of three timings of ``kernel``, in ns."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        kernel()
        ns = time.perf_counter_ns() - t0
        best = ns if best is None else min(best, ns)
    return best


class RefClock:
    """Times segments of work, and times ``kernel`` once at least
    ``CAL_EVERY_NS`` have passed since it last did, between two segments.
    Each segment's factor to reference speed is ``CAL_REF_NS`` over the mean
    of the kernel timings just before and just after it."""

    def __init__(self) -> None:
        self.segments: list[tuple[int, float]] = []  # (wall ns, factor)
        self._pending: list[int] = []
        self._cal = calibrate()
        self._since = time.perf_counter_ns()

    def add(self, ns: int) -> None:
        self._pending.append(ns)
        if time.perf_counter_ns() - self._since >= CAL_EVERY_NS:
            self._calibrate()

    @contextlib.contextmanager
    def segment(self):
        t0 = time.perf_counter_ns()
        yield
        self.add(time.perf_counter_ns() - t0)

    def _calibrate(self) -> None:
        cal = calibrate()
        factor = 2 * CAL_REF_NS / (self._cal + cal)
        self.segments += [(ns, factor) for ns in self._pending]
        self._pending, self._cal, self._since = [], cal, time.perf_counter_ns()

    def stop(self) -> list[tuple[int, float]]:
        self._calibrate()
        return self.segments


def invoke(main, argv) -> tuple[object, str, str, int]:
    """One op: (exit status or escaped exception, stdout, stderr, ns)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            status = main(list(argv))
        except SystemExit as e:  # argparse usage errors
            status = e.code
        except Exception as e:  # an escaped exception is a failed op; the run goes on
            status = e
        t1 = time.perf_counter_ns()
    return status, out.getvalue(), err.getvalue(), t1 - t0


def set_up(workload: str, seed: int, work: Path, clock: RefClock):
    """Import tmkit afresh, write and check the inputs, warm up; each step is
    a segment of ``clock``."""
    with clock.segment():
        for name in [m for m in sys.modules if m.split(".")[0] in ("tmkit", "genutil", "gen", "workloads")]:
            del sys.modules[name]
        cli = importlib.import_module("tmkit.cli")
        syntax = importlib.import_module("tmkit.syntax")
        diagnostics = importlib.import_module("tmkit.diagnostics")
        workloads = importlib.import_module("workloads")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"tmkit was imported from {cli.__file__}, not from this checkout")

    with clock.segment():
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        prepared = workloads.WORKLOADS[workload](random.Random(seed), ROOT / "tests" / "fixtures", work)

    for doc in prepared.documents:
        with clock.segment():
            result = syntax.parse(syntax.SourceFile.read(str(doc)))
            status = invoke(cli.main, ("check", str(doc)))[0]
        if result.document is None or diagnostics.has_errors(result.diagnostics):
            raise SetupError(f"{doc.name} does not parse cleanly: {[str(d) for d in result.diagnostics][:3]}")
        if status != 0:
            raise SetupError(f"check {doc.name} exited {status}")

    seen = set()
    for op in prepared.ops:
        if op.label not in seen:
            seen.add(op.label)
            with clock.segment():
                invoke(cli.main, op.argv)
    return cli.main, prepared


class Run:
    """Every op's outcome and latency, and each pass's throughput; wall clock
    (``samples``, ``pass_rates``) and at reference speed (``ref_*``)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: list[tuple[float, str]] = []  # (ms, op label)
        self.ref_samples: list[tuple[float, str]] = []
        self.pass_rates: list[float] = []
        self.ref_pass_rates: list[float] = []

    def record_pass(self, ops, results, scales: list[float]) -> None:
        for op, (status, out, err, ns), scale in zip(ops, results, scales):
            self.attempted += 1
            if isinstance(status, BaseException):
                problem = f"raised {type(status).__name__}: {status}"
            else:
                problem = op.check(status, out, err)
            if problem is not None:
                self.failures.append(f"{' '.join(op.argv[:1] + op.argv[2:])} ({op.label}): {problem}")
            self.samples.append((ns / 1e6, op.label))
            self.ref_samples.append((ns * scale / 1e6, op.label))
        self.pass_rates.append(len(ops) / (sum(r[3] for r in results) / 1e9))
        self.ref_pass_rates.append(len(ops) / (sum(r[3] * k for r, k in zip(results, scales)) / 1e9))


def run_pass(call, ops) -> tuple[list, list[float]]:
    """The ops' results, and for each op the factor that takes its time to
    reference speed. Pass time is the sum of the op times."""
    gc.collect()
    clock = RefClock()
    results = []
    for op in ops:
        results.append(invoke(call, op.argv))
        clock.add(results[-1][3])
    return results, [factor for _, factor in clock.stop()]


def measure(main, ops, seconds: float, tracer=None) -> tuple[Run, Run]:
    """Passes until the time is used up: (untraced run, traced run).

    With a tracer, passes alternate between untraced and traced, so that
    drift on the machine hits both alike.
    """
    plain, traced = Run(), Run()
    start = time.perf_counter()
    last = 0.0
    passes = 0
    while passes < MIN_PASSES * (2 if tracer else 1) or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        if tracer is not None and passes % 2 == 1:
            tracer.install()
            try:
                results, scales = run_pass(tracer.op(main), ops)
            finally:
                tracer.uninstall()
            traced.record_pass(ops, results, scales)
        else:
            results, scales = run_pass(main, ops)
            plain.record_pass(ops, results, scales)
        last = time.perf_counter() - t
        passes += 1
    return plain, traced


def percentile(ms: list[float], p: int) -> float:
    return statistics.quantiles(ms, n=100, method="inclusive")[p - 1]


def placement(samples: list[tuple[float, str]], p: int) -> str:
    """Which op class the p-th percentile falls in, and which classes make up
    the band p-5..p+5 around it: a mixed band means it sits between classes."""
    ordered = sorted(samples)
    n = len(ordered)
    at = ordered[round(p / 100 * (n - 1))][1]
    band = [label for _, label in ordered[round((p - 5) / 100 * (n - 1)) : round((p + 5) / 100 * (n - 1)) + 1]]
    shares = sorted(((band.count(c) / len(band), c) for c in set(band)), reverse=True)
    return f"{at}; band p{p - 5}..p{p + 5}: " + ", ".join(f"{c} {s:.0%}" for s, c in shares[:3])


def end_to_end(run: Run, setups: list[float]) -> dict[str, float]:
    ms = sorted(s for s, _ in run.ref_samples)
    return {
        "ops_per_s": statistics.median(run.ref_pass_rates),
        "op_ms_p50": percentile(ms, 50),
        "op_ms_p90": percentile(ms, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(plain: Run, traced: Run, tracer) -> dict[str, float]:
    m = layer_metrics(tracer, sum(ms for ms, _ in traced.samples))
    by_kind = defaultdict(list)
    for ms, label in plain.samples:
        by_kind[label.split(":")[0]].append(ms)
    for kind in ("check", "desugar", "evaluate", "simulate", "runs", "render", "iso"):
        m[f"cli.{kind}.ms_p50"] = statistics.median(by_kind[kind]) if by_kind[kind] else 0.0
    m["trace.overhead_ratio"] = statistics.median(traced.ref_pass_rates) / statistics.median(plain.ref_pass_rates)
    return m


def report(workload: str, run: Run, attempted: int, failures: list[str], extra: list[str]) -> None:
    """The human-readable part; placements and classes are of untraced ops."""
    print(f"# workload {workload}: {attempted} ops, {len(failures)} failed; {len(run.pass_rates)} untraced passes")
    print(f"# fail_ratio {len(failures) / max(attempted, 1):.6f} ratio")
    ms = sorted(s for s, _ in run.ref_samples)
    for p in (50, 90):
        beyond = sum(1 for s in ms if s > percentile(ms, p))
        print(f"# op_ms_p{p} falls in {placement(run.ref_samples, p)}; {beyond} samples beyond it")
    wall = sorted(s for s, _ in run.samples)
    print(
        f"# wall clock: ops_per_s {statistics.median(run.pass_rates):.6g} 1/s,"
        f" op_ms_p50 {percentile(wall, 50):.6g} ms, op_ms_p90 {percentile(wall, 90):.6g} ms"
    )
    for line in extra:
        print(f"# {line}")
    by_label = defaultdict(list)
    for ms, label in run.ref_samples:
        by_label[label].append(ms)
    for label, ms in sorted(by_label.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"# class {label}: median {statistics.median(ms):.3f} ms, {len(ms) / len(run.ref_samples):.1%} of ops")
    for failure in failures[:10]:
        print(f"# FAILED {failure}")


def run_one(args: argparse.Namespace) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    for need in (ROOT / "src" / "tmkit" / "__init__.py", ROOT / "tests" / "genutil.py", ROOT / "tests" / "fixtures"):
        if not need.exists():
            print(f"benchmark: {need.relative_to(ROOT)} is missing; run from a tmkit checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setups, wall_setups = [], []
        for _ in range(SETUP_REPS):
            gc.collect()
            clock = RefClock()
            main, prepared = set_up(args.workload, args.seed, work, clock)
            segments = clock.stop()
            wall_setups.append(sum(ns for ns, _ in segments) / 1e9)
            setups.append(sum(ns * factor for ns, factor in segments) / 1e9)

        tracer = Tracer() if args.trace else None
        plain, traced = measure(main, prepared.ops, args.seconds, tracer)
        if tracer is not None:
            values = per_layer(plain, traced, tracer)
            extra = [f"wrapped: {', '.join(tracer.wrapped)}", f"missing: {', '.join(tracer.missing) or '(none)'}"]
            metrics = spec["per_layer"]
        else:
            values = end_to_end(plain, setups)
            extra = [
                f"setup_s runs: {', '.join(f'{s:.3f}' for s in setups)}",
                f"setup_s runs, wall clock: {', '.join(f'{s:.3f}' for s in wall_setups)}",
            ]
            metrics = spec["end_to_end"]
    except SetupError as e:
        print(f"benchmark: set-up failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted = plain.attempted + traced.attempted
    failures = plain.failures + traced.failures
    report(args.workload, plain, attempted, failures, extra)
    for m in metrics:
        print(f"# {m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; their reports, then one table."""
    rows, status = [], 0
    for w in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            status = done.returncode or 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        rows.append((w, "fail_ratio", result["failed"] / result["attempted"], "ratio"))
        rows += [(w, name, v["value"], v["unit"]) for name, v in result["metrics"].items()]
    print()
    for w, name, value, unit in rows:
        print(f"{w:8} {name:40} {value:14.6g} {unit}")
    return status


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
