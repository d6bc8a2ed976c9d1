"""Command-line entry point.

Exit status: 0 on success (and for a true verdict), 1 when the model is
invalid or a verdict is false, 2 for usage and IO errors. Human-readable
findings go to stderr as ``file:line:col: severity: message``; structured
results go to stdout inside a fenced ``tmkit`` block.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from typing import Optional, Sequence

from . import diagnostics as dg
from .behavior import Chronology, Trace, build_chronology, enumerate_runs, evaluate_trace
from .dot import Level, RenderOptions, to_dot
from .errors import TmkitError
from .events import check_subdiagram, coverage, eventize
from .model import models_isomorphic
from .simulate import Scripted, Seeded, simulate
from .syntax import Document, SourceFile, parse, print_document
from .validate import desugar, validate_static

OK, INVALID, USAGE = 0, 1, 2


class _Fail(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _machine_block(payload: dict) -> str:
    return "```tmkit\n" + json.dumps(payload, indent=2, sort_keys=True) + "\n```"


def _load(path: str) -> Document:
    try:
        src = SourceFile.read(path)
    except OSError as e:
        raise _Fail(USAGE, f"cannot read {path}: {e}")
    result = parse(src)
    for d in result.diagnostics:
        print(d, file=sys.stderr)
    if result.document is None:
        raise _Fail(INVALID, f"{path}: parse failed")
    return result.document


def _pick_chronology(doc: Document, wanted: Optional[str]) -> Chronology:
    decls = {c.id: c for c in doc.chronologies}
    if wanted is None:
        if not decls:
            raise _Fail(INVALID, "document declares no chronology")
        if len(decls) != 1:
            raise _Fail(USAGE, f"document has {len(decls)} chronologies; pass --chronology")
        wanted = next(iter(decls))
    if wanted not in decls:
        raise _Fail(USAGE, f"no chronology '{wanted}' (have: {', '.join(sorted(decls)) or 'none'})")
    try:
        return build_chronology(doc.events, decls[wanted])
    except TmkitError as e:
        raise _Fail(INVALID, f"chronology '{wanted}': {e}")


def _pick_trace(doc: Document, wanted: str) -> Trace:
    for t in doc.traces:
        if t.id == wanted:
            return t
    raise _Fail(USAGE, f"no trace '{wanted}' (have: {', '.join(t.id for t in doc.traces) or 'none'})")


# -- subcommands --------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    diags = list(validate_static(doc.model))
    for sub in doc.subdiagrams:
        diags.extend(check_subdiagram(doc.model, sub))
    _, event_diags = eventize(doc.subdiagrams, doc.events)
    diags.extend(event_diags)
    diags = dg.sort_diagnostics(diags)
    for d in diags:
        print(d, file=sys.stderr)

    report = coverage(doc.model, doc.subdiagrams)
    print(f"model {doc.model.name}: {len(doc.subdiagrams)} subdiagrams, {len(doc.events)} events")
    print("coverage:")
    print(f"  uncovered stages: {', '.join(str(r) for r in report.uncovered_stages) or '(none)'}")
    print(f"  uncovered arcs:   {', '.join(report.uncovered_arcs) or '(none)'}")
    print(f"  multiply covered: {', '.join(report.multiply_covered) or '(none)'}")
    print(
        _machine_block(
            {
                "diagnostics": [
                    {"code": d.code, "severity": str(d.severity), "message": d.message, "elements": list(d.elements)}
                    for d in diags
                ],
                "coverage": {
                    "uncovered_stages": [str(r) for r in report.uncovered_stages],
                    "uncovered_arcs": list(report.uncovered_arcs),
                    "multiply_covered": list(report.multiply_covered),
                },
            }
        )
    )
    return INVALID if dg.has_errors(diags) else OK


def _cmd_desugar(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    print(print_document(replace(doc, model=desugar(doc.model))), end="")
    return OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    chron = _pick_chronology(doc, args.chronology)
    trace = _pick_trace(doc, args.trace)
    try:
        verdict = evaluate_trace(chron, trace)
    except ValueError as e:
        raise _Fail(INVALID, str(e))
    payload = {"truth": verdict.truth}
    if verdict.truth:
        payload["run"] = list(verdict.run or ())
        print(verdict.summary())
    else:
        payload["violation"] = str(verdict.violation)
        print(verdict.summary(), file=sys.stderr)
    print(_machine_block(payload))
    return OK if verdict.truth else INVALID


def _cmd_simulate(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    _, event_diags = eventize(doc.subdiagrams, doc.events)
    if dg.has_errors(event_diags):
        for d in event_diags:
            print(d, file=sys.stderr)
        raise _Fail(INVALID, f"{args.file}: events do not resolve")
    chron = _pick_chronology(doc, args.chronology)
    if args.choose:
        choices = []
        for item in args.choose:
            if "=" not in item:
                raise _Fail(USAGE, f"--choose takes group=event, got {item!r}")
            g, _, e = item.partition("=")
            choices.append((g, e))
        policy = Scripted(tuple(choices))
        trace_id = "sim_scripted"
    else:
        seed = args.seed if args.seed is not None else 0
        policy = Seeded(seed)
        trace_id = f"sim_seed_{seed}"
    trace = simulate(doc.model, doc.subdiagrams, doc.events, chron, policy, trace_id)
    body = ", ".join(f"{e} @ {ts}" for e, ts in trace.occurrences)
    print(f"trace {trace.id} = [ {body} ]")
    return OK


def _cmd_runs(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    chron = _pick_chronology(doc, args.chronology)
    try:
        runs = enumerate_runs(chron, args.bound)
    except (TmkitError, ValueError) as e:
        raise _Fail(INVALID, str(e))
    for run in runs:
        print("[" + ", ".join(run) + "]")
    print(f"{len(runs)} run(s)", file=sys.stderr)
    return OK


def _cmd_render(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    highlight = frozenset(x for part in args.highlight for x in part.split(",") if x)
    options = RenderOptions(level=Level(args.level), highlight=highlight, clusters=not args.flat)
    try:
        text = to_dot(doc, options)
    except TmkitError as e:
        raise _Fail(USAGE, str(e))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as e:
            raise _Fail(USAGE, f"cannot write {args.output}: {e}")
    else:
        print(text, end="")
    return OK


def _cmd_iso(args: argparse.Namespace) -> int:
    a = _load(args.file_a)
    b = _load(args.file_b)
    result = models_isomorphic(a.model, b.model)
    print(f"isomorphic: {'true' if result.isomorphic else 'false'}")
    print(_machine_block({"isomorphic": result.isomorphic, "mapping": result.mapping}))
    return OK if result.isomorphic else INVALID


# name -> (help, handler, arguments); an argument is its flags, then its add_argument keywords
# (read-only: each call's Namespace gets the same append default lists, which the handlers only read)
_FILE, _CHRONOLOGY = ("file", {}), ("--chronology", {})
_COMMANDS = {
    "check": ("parse, validate and report coverage", _cmd_check, [_FILE]),
    "desugar": ("expand simplified notation to full", _cmd_desugar, [_FILE]),
    "evaluate": ("truth-evaluate a trace against a chronology", _cmd_evaluate, [_FILE, _CHRONOLOGY, ("--trace", {"required": True})]),
    "simulate": (
        "produce a conforming trace",
        _cmd_simulate,
        [_FILE, _CHRONOLOGY, ("--seed", {"type": int}), ("--choose", {"action": "append", "default": [], "metavar": "GROUP=EVENT"})],
    ),
    "runs": ("enumerate all runs", _cmd_runs, [_FILE, _CHRONOLOGY, ("--bound", {"type": int, "default": 1000})]),
    "render": (
        "emit DOT for a view of the document",
        _cmd_render,
        [
            _FILE,
            ("--level", {"choices": [lv.value for lv in Level], "default": "static"}),
            ("-o", "--output", {}),
            ("--highlight", {"action": "append", "default": []}),
            ("--flat", {"action": "store_true", "help": "no nested clusters"}),
        ],
    ),
    "iso": ("structural equivalence of two models", _cmd_iso, [("file_a", {}), ("file_b", {})]),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process on first use."""
    p = argparse.ArgumentParser(prog="tmkit", description="thinging-machine model toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (summary, fn, arguments) in _COMMANDS.items():
        c = sub.add_parser(name, help=summary)
        for *flags, keywords in arguments:
            c.add_argument(*flags, **keywords)
        c.set_defaults(fn=fn)
    return p


def _parse_args(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if args.command == "simulate" and args.seed is not None and args.choose:
        parser.error("--seed and --choose are mutually exclusive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; the first call in a process builds the argument parser."""
    args = _parse_args(_build_parser(), sys.argv[1:] if argv is None else list(argv))
    try:
        return args.fn(args)
    except _Fail as e:
        print(f"tmkit: {e}", file=sys.stderr)
        return e.status
    except TmkitError as e:  # an input the command cannot take
        print(f"tmkit: {e}", file=sys.stderr)
        return INVALID


if __name__ == "__main__":
    sys.exit(main())
