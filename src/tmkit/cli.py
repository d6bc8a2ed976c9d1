"""Command-line entry point.

Exit status: 0 on success (and for a true verdict), 1 when the model is
invalid or a verdict is false, 2 for usage and IO errors. Human-readable
findings go to stderr as ``file:line:col: severity: message``; structured
results go to stdout inside a fenced ``tmkit`` block.

Every command runs the phases of a document in one order: parse, validate,
subdiagrams, events, chronology (``PHASES``). It names the last one it needs,
and ``_load`` runs them up to there.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from typing import NamedTuple, Optional, Sequence

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

# The phases of a document, in order, named as benchmarks/spans.py names their layers
PHASES = ("syntax.parse", "validate.validate_static", "events.check_subdiagram", "events.eventize", "behavior.build_chronology")
PARSE, VALIDATE, SUBDIAGRAMS, EVENTS, CHRONOLOGY = PHASES


class _Fail(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _machine_block(payload: dict) -> str:
    return "```tmkit\n" + json.dumps(payload, indent=2, sort_keys=True) + "\n```"


def _build_chronologies(doc: Document, built: dict[str, Chronology]) -> list[dg.Diagnostic]:
    """Build every declared chronology into ``built``; each refusal is one error."""
    diags = []
    for decl in doc.chronologies:
        try:
            built[decl.id] = build_chronology(doc.events, decl)
        except TmkitError as e:
            diags.append(dg.error(dg.CHRONOLOGY, str(e), (decl.id,)))
    return diags


# The phases after parse, each a function of the parsed document and the chronologies
# built so far. They look the checks up when they run, so a tracer may rebind them.
_CHECKS = {
    VALIDATE: lambda doc, built: validate_static(doc.model),
    SUBDIAGRAMS: lambda doc, built: [d for sub in doc.subdiagrams for d in check_subdiagram(doc.model, sub)],
    EVENTS: lambda doc, built: eventize(doc.subdiagrams, doc.events),
    CHRONOLOGY: _build_chronologies,
}


class _Loaded(NamedTuple):
    doc: Document
    diagnostics: list[dg.Diagnostic]  # in report order
    chronologies: dict[str, Chronology]


def _load(path: str, last: str, stop: bool) -> _Loaded:
    """Run the phases of one file from parse through ``last``. Each of validate,
    subdiagrams and events runs; the chronology phase only when nothing before
    it reported an error. With ``stop``, an error exits 1 after every
    diagnostic is printed; warnings never stop."""
    try:
        src = SourceFile.read(path)
    except OSError as e:
        raise _Fail(USAGE, f"cannot read {path}: {e}")
    result = parse(src)
    if result.document is None:
        for d in result.diagnostics:
            print(d, file=sys.stderr)
        raise _Fail(INVALID, f"{path}: parse failed")
    doc, diags, built = result.document, list(result.diagnostics), {}
    for phase in PHASES[1 : PHASES.index(last) + 1]:
        if phase == CHRONOLOGY and dg.has_errors(diags):
            break
        diags += _CHECKS[phase](doc, built)
    diags = dg.sort_diagnostics(diags)
    if stop and dg.has_errors(diags):
        for d in diags:
            print(d, file=sys.stderr)
        raise _Fail(INVALID, f"{path}: invalid document")
    return _Loaded(doc, diags, built)


def _pick_chronology(built: dict[str, Chronology], wanted: Optional[str]) -> Chronology:
    if wanted is None:
        if not built:
            raise _Fail(INVALID, "document declares no chronology")
        if len(built) != 1:
            raise _Fail(USAGE, f"document has {len(built)} chronologies; pass --chronology")
        wanted = next(iter(built))
    if wanted not in built:
        raise _Fail(USAGE, f"no chronology '{wanted}' (have: {', '.join(sorted(built)) or 'none'})")
    return built[wanted]


def _pick_trace(doc: Document, wanted: str) -> Trace:
    for t in doc.traces:
        if t.id == wanted:
            return t
    raise _Fail(USAGE, f"no trace '{wanted}' (have: {', '.join(t.id for t in doc.traces) or 'none'})")


# -- subcommands --------------------------------------------------------------


def _cmd_check(args: argparse.Namespace, loaded: _Loaded) -> int:
    doc, diags = loaded.doc, loaded.diagnostics
    for d in diags:
        print(d, file=sys.stderr)
    report = coverage(doc.model, doc.subdiagrams)
    gaps = {
        "uncovered_stages": [str(r) for r in report.uncovered_stages],
        "uncovered_arcs": list(report.uncovered_arcs),
        "multiply_covered": list(report.multiply_covered),
    }
    print(f"model {doc.model.name}: {len(doc.subdiagrams)} subdiagrams, {len(doc.events)} events\ncoverage:")
    for key, items in gaps.items():
        print(f"  {key.replace('_', ' ') + ':':18}{', '.join(items) or '(none)'}")
    found = [{"code": d.code, "severity": str(d.severity), "message": d.message, "elements": list(d.elements)} for d in diags]
    print(_machine_block({"diagnostics": found, "coverage": gaps}))
    return INVALID if dg.has_errors(diags) else OK


def _cmd_desugar(args: argparse.Namespace, loaded: _Loaded) -> int:
    print(print_document(replace(loaded.doc, model=desugar(loaded.doc.model))), end="")
    return OK


def _cmd_evaluate(args: argparse.Namespace, loaded: _Loaded) -> int:
    chron = _pick_chronology(loaded.chronologies, args.chronology)
    trace = _pick_trace(loaded.doc, args.trace)
    verdict = evaluate_trace(chron, trace)
    payload = {"truth": verdict.truth}
    if verdict.truth:
        payload["run"] = list(verdict.run or ())
        print(verdict.summary())
    else:
        payload["violation"] = str(verdict.violation)
        print(verdict.summary(), file=sys.stderr)
    print(_machine_block(payload))
    return OK if verdict.truth else INVALID


def _cmd_simulate(args: argparse.Namespace, loaded: _Loaded) -> int:
    chron = _pick_chronology(loaded.chronologies, args.chronology)
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
    doc = loaded.doc
    trace = simulate(doc.model, doc.subdiagrams, doc.events, chron, policy, trace_id)
    body = ", ".join(f"{e} @ {ts}" for e, ts in trace.occurrences)
    print(f"trace {trace.id} = [ {body} ]")
    return OK


def _cmd_runs(args: argparse.Namespace, loaded: _Loaded) -> int:
    chron = _pick_chronology(loaded.chronologies, args.chronology)
    runs = enumerate_runs(chron, args.bound)
    for run in runs:
        print("[" + ", ".join(run) + "]")
    print(f"{len(runs)} run(s)", file=sys.stderr)
    return OK


def _cmd_render(args: argparse.Namespace, loaded: _Loaded) -> int:
    highlight = frozenset(x for part in args.highlight for x in part.split(",") if x)
    options = RenderOptions(level=Level(args.level), highlight=highlight, clusters=not args.flat)
    try:
        text = to_dot(loaded.doc, options)
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


def _cmd_iso(args: argparse.Namespace, a: _Loaded, b: _Loaded) -> int:
    result = models_isomorphic(a.doc.model, b.doc.model)
    print(f"isomorphic: {'true' if result.isomorphic else 'false'}")
    print(_machine_block({"isomorphic": result.isomorphic, "mapping": result.mapping}))
    return OK if result.isomorphic else INVALID


# name -> (help, handler, last phase, arguments); the last phase of render is by --level;
# an argument is its flags, then its add_argument keywords, and a positional one is a file
# (read-only: each call's Namespace gets the same append default lists, which the handlers only read)
_FILE, _PICK = ("file", {}), ("--chronology", {})
_CHOOSE = ("--choose", {"action": "append", "default": [], "metavar": "GROUP=EVENT"})
_COMMANDS = {
    "check": ("parse, validate and report coverage", _cmd_check, CHRONOLOGY, [_FILE]),
    "desugar": ("expand simplified notation to full", _cmd_desugar, PARSE, [_FILE]),
    "evaluate": ("truth-evaluate a trace against a chronology", _cmd_evaluate, CHRONOLOGY, [_FILE, _PICK, ("--trace", {"required": True})]),
    "simulate": ("produce a conforming trace", _cmd_simulate, CHRONOLOGY, [_FILE, _PICK, ("--seed", {"type": int}), _CHOOSE]),
    "runs": ("enumerate all runs", _cmd_runs, CHRONOLOGY, [_FILE, _PICK, ("--bound", {"type": int, "default": 1000})]),
    "render": (
        "emit DOT for a view of the document",
        _cmd_render,
        {Level.STATIC.value: PARSE, Level.OVERLAY.value: SUBDIAGRAMS, Level.BEHAVIOR.value: CHRONOLOGY},
        [
            _FILE,
            ("--level", {"choices": [lv.value for lv in Level], "default": "static"}),
            ("-o", "--output", {}),
            ("--highlight", {"action": "append", "default": []}),
            ("--flat", {"action": "store_true", "help": "no nested clusters"}),
        ],
    ),
    "iso": ("structural equivalence of two models", _cmd_iso, PARSE, [("file_a", {}), ("file_b", {})]),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process on first use."""
    p = argparse.ArgumentParser(prog="tmkit", description="thinging-machine model toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (summary, _, _, arguments) in _COMMANDS.items():
        c = sub.add_parser(name, help=summary)
        for *flags, keywords in arguments:
            c.add_argument(*flags, **keywords)
    return p


def _parse_args(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if args.command == "simulate" and args.seed is not None and args.choose:
        parser.error("--seed and --choose are mutually exclusive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command on the files it names, each through the phases it needs;
    the first call in a process builds the argument parser."""
    args = _parse_args(_build_parser(), sys.argv[1:] if argv is None else list(argv))
    _, fn, last, arguments = _COMMANDS[args.command]
    if isinstance(last, dict):
        last = last[args.level]
    files = [getattr(args, name) for name, *_ in arguments if name[0] != "-"]
    try:
        # check reports on a document with errors; every other command stops there
        return fn(args, *[_load(path, last, stop=fn is not _cmd_check) for path in files])
    except _Fail as e:
        print(f"tmkit: {e}", file=sys.stderr)
        return e.status
    except TmkitError as e:  # an input the command cannot take
        print(f"tmkit: {e}", file=sys.stderr)
        return INVALID


if __name__ == "__main__":
    sys.exit(main())
