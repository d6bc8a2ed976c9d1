import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from tmkit import cli
from tmkit import diagnostics as dg
from tmkit.behavior import build_chronology, evaluate_trace
from tmkit.cli import main
from tmkit.syntax import parse_text

from conftest import LONG_INTEGERS, fixture_path

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
import gen  # noqa: E402  (the benchmark's document generators)


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def machine_block(stdout):
    m = re.search(r"```tmkit\n(.*?)\n```", stdout, re.S)
    assert m, stdout
    return json.loads(m.group(1))


def python_dash_m_tmkit(*argv, timeout=None):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "tmkit", *argv], capture_output=True, text=True, env=env, timeout=timeout)


def test_check_airport(capsys):
    status, out, err = run_cli(capsys, "check", fixture_path("airport.tm"))
    assert status == 0
    assert "14 subdiagrams, 14 events" in out
    assert machine_block(out)["coverage"]["uncovered_arcs"] == []


def test_check_empty_model(capsys):
    status, out, err = run_cli(capsys, "check", fixture_path("empty.tm"))
    assert status == 0
    assert machine_block(out)["coverage"] == {
        "uncovered_stages": [],
        "uncovered_arcs": [],
        "multiply_covered": [],
    }


def test_check_reports_errors_with_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.tm"
    bad.write_text('model m { thimac a "A" { stages: create, process; } flow f: a.process -> a.create; }')
    status, out, err = run_cli(capsys, "check", str(bad))
    assert status == 1
    assert "E-CREATE-INFLOW" in err


def test_parse_failure_diagnostics_on_stderr(tmp_path, capsys):
    bad = tmp_path / "broken.tm"
    bad.write_text("model { nope")
    status, out, err = run_cli(capsys, "check", str(bad))
    assert status == 1
    assert re.search(r"broken\.tm:1:\d+: error:", err)


def test_evaluate_true_exit_zero(capsys):
    status, out, err = run_cli(
        capsys, "evaluate", fixture_path("airport.tm"), "--chronology", "B", "--trace", "schengen_luggage"
    )
    assert status == 0
    assert out.splitlines()[0] == "TRUE run=[E1,E3,E4,E5,E8,E9,E13,E14]"


def test_evaluate_false_reason_on_stderr(capsys):
    status, out, err = run_cli(capsys, "evaluate", fixture_path("airport.tm"), "--trace", "mixed_branch")
    assert status == 1
    assert err.startswith("FALSE reason=ExclusivityViolation")
    assert machine_block(out)["truth"] is False


def test_runs_prints_four(capsys):
    status, out, err = run_cli(capsys, "runs", fixture_path("airport.tm"), "--chronology", "B")
    assert status == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 4
    assert "[E1, E3, E4, E5, E8, E9, E13, E14]" in lines


def test_runs_with_a_bound_below_the_event_count_exits_1(capsys):
    status, out, err = run_cli(capsys, "runs", fixture_path("airport.tm"), "--bound", "1")
    assert (status, out, err) == (1, "", "tmkit: bound 1 is smaller than the event count 14\n")


def test_simulate_output_reparses_and_evaluates_true(capsys):
    status, out, err = run_cli(capsys, "simulate", fixture_path("airport.tm"), "--seed", "9")
    assert status == 0
    airport_text = open(fixture_path("airport.tm")).read()
    res = parse_text(airport_text + "\n" + out)
    assert res.document is not None, res.diagnostics
    doc = res.document
    chron = build_chronology(doc.events, doc.chronologies[0])
    piped = doc.traces[-1]
    assert piped.id == "sim_seed_9"
    assert evaluate_trace(chron, piped).truth


def test_simulate_scripted(capsys):
    status, out, err = run_cli(
        capsys,
        "simulate",
        fixture_path("airport.tm"),
        "--choose",
        "start=E2",
        "--choose",
        "branch=E10",
    )
    assert status == 0
    assert out.startswith("trace sim_scripted = [ E2 @ 0, E6 @ 1, E7 @ 2, E8 @ 3, E10 @ 4")


_TWO_GROUPS = (
    'model m { thimac a "A" { stages: create; things: "x"; } }\nsubdiagram s "S" { stages: a.create; }\n'
    "event E = s\nevent F = s\nevent G = s\nchronology c { exclusive g1 { E | F }; exclusive g2 { E | G }; }\n"
)
# E is in both groups, so a script fires it only if both chose it
TWO_GROUP_SCRIPTS = {
    "g1 chose F": (["g1=F", "g2=E"], 0, "trace sim_scripted = [ F @ 0 ]\n", ""),
    "g1 chose nothing": (["g2=E"], 1, "", "tmkit: no scripted choice for exclusive group(s): g1\n"),
}


@pytest.mark.parametrize("case", sorted(TWO_GROUP_SCRIPTS))
def test_a_script_fires_an_event_only_if_every_group_holding_it_chose_it(tmp_path, capsys, case):
    choices, status, out, err = TWO_GROUP_SCRIPTS[case]
    path = tmp_path / "two_groups.tm"
    path.write_text(_TWO_GROUPS)
    assert run_cli(capsys, "simulate", str(path), *(f"--choose={c}" for c in choices)) == (status, out, err)


def test_desugar_output_is_valid_full_notation(capsys):
    status, out, err = run_cli(capsys, "desugar", fixture_path("green_cheese.tm"))
    assert status == 0
    res = parse_text(out)
    assert res.document is not None
    from tmkit.validate import validate_static

    assert validate_static(res.document.model) == []
    status, _, err = run_cli(capsys, "desugar", fixture_path("airport.tm"))
    assert status == 1 and "full notation" in err


def test_iso_ignores_the_order_siblings_are_declared_in(capsys, tmp_path):
    paths = []
    for siblings in ('thimac a "A" { stages: create; } thimac b "B" { stages: process; }',
                     'thimac b "B" { stages: process; } thimac a "A" { stages: create; }'):
        paths.append(tmp_path / f"{len(paths)}.tm")
        paths[-1].write_text(f'model m {{ thimac p "P" {{ stages: process; {siblings} }} }}\n')
    status, out, _ = run_cli(capsys, "iso", *map(str, paths))
    assert status == 0 and out.startswith("isomorphic: true")


def test_iso_exit_codes(capsys):
    status, out, _ = run_cli(capsys, "iso", fixture_path("john_mary_v1.tm"), fixture_path("john_mary_v2.tm"))
    assert status == 0 and out.startswith("isomorphic: true")
    assert machine_block(out)["mapping"]["john"] == "giver"
    status, out, _ = run_cli(capsys, "iso", fixture_path("telescope_v1.tm"), fixture_path("telescope_v2.tm"))
    assert status == 1 and out.startswith("isomorphic: false")


def test_iso_on_two_chains_of_like_machines_takes_no_search(tmp_path):
    # ten relay machines that look alike: a matcher that permutes like siblings does not finish
    paths = [tmp_path / f"chain{seed}.tm" for seed in (1, 2)]
    for seed, path in zip((1, 2), paths):
        path.write_text(gen.chain(random.Random(seed), 10).text)
    done = python_dash_m_tmkit("iso", *map(str, paths), timeout=2)
    assert done.returncode == 0 and done.stdout.startswith("isomorphic: true"), done.stderr


def test_render_to_file(tmp_path, capsys):
    out_file = tmp_path / "b.dot"
    status, out, err = run_cli(
        capsys, "render", fixture_path("airport.tm"), "--level", "behavior", "-o", str(out_file)
    )
    assert status == 0
    assert out_file.read_text().startswith('digraph "B"')


def test_render_to_a_path_it_cannot_write_is_an_io_error(tmp_path, capsys):
    for target in (tmp_path / "no" / "such" / "dir" / "x.dot", tmp_path):
        status, out, err = run_cli(capsys, "render", fixture_path("bread.tm"), "-o", str(target))
        assert (status, out) == (2, "")
        assert err.startswith(f"tmkit: cannot write {target}: ")


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["runs", fixture_path("airport.tm"), "--frobnicate"])
    assert e.value.code == 2


def test_missing_file_exits_2(capsys):
    status, out, err = run_cli(capsys, "check", "no_such_file.tm")
    assert status == 2


def test_chronology_flag_optional_when_unique(capsys):
    status, out, err = run_cli(capsys, "evaluate", fixture_path("green_cheese.tm"), "--trace", "in_order")
    assert status == 0
    assert out.splitlines()[0] == "TRUE run=[E1,E2]"


def test_check_rejects_superscript_digits(tmp_path, capsys):
    bad = tmp_path / "sup.tm"
    bad.write_text('model m { thimac a "A" { stages: create; } }\nsubdiagram s "S" { stages: a.create; }\nevent E = s window ²..3\n')
    status, out, err = run_cli(capsys, "check", str(bad))
    assert status == 1
    assert re.search(r"sup\.tm:3:\d+: error: .*unexpected character", err)


@pytest.mark.parametrize("where", sorted(LONG_INTEGERS))
def test_check_rejects_integers_too_long_to_convert(tmp_path, capsys, where):
    text, diagnostic = LONG_INTEGERS[where]
    big = tmp_path / "big.tm"
    big.write_text(text)
    status, out, err = run_cli(capsys, "check", str(big))
    assert status == 1
    assert f"{big}:{diagnostic}" in err.splitlines() and "Traceback" not in err


def test_check_places_model_errors_at_their_declaration(tmp_path, capsys):
    dup = tmp_path / "dup.tm"
    dup.write_text('model m {\n  thimac a "A" { stages: create; }\n  thimac a "A" { stages: create; }\n}\n')
    status, out, err = run_cli(capsys, "check", str(dup))
    assert status == 1
    assert f"{dup}:3:10: error: E-SYNTAX: duplicate thimac id 'a'" in err.splitlines()


def test_check_places_a_duplicate_event_at_its_second_declaration(tmp_path, capsys):
    dup = tmp_path / "dup.tm"
    dup.write_text(
        'model m { thimac a "A" { stages: create; } }\nsubdiagram s "S" { stages: a.create; }\n'
        "event E = s\nevent F = s\nevent E = s\n"
    )
    status, out, err = run_cli(capsys, "check", str(dup))
    assert status == 1
    assert f"{dup}:5:7: error: E-SYNTAX: duplicate event id 'E' [E]" in err.splitlines()


def test_check_rejects_deep_nesting(tmp_path, capsys):
    deep = tmp_path / "deep.tm"
    deep.write_text("model m {\n" + "".join(f'thimac t{i} "T" {{\n' for i in range(1500)) + "}\n" * 1500 + "}\n")
    status, out, err = run_cli(capsys, "check", str(deep))
    assert status == 1
    assert "nest more than" in err


def edited_fixture(name, old, new):
    text = Path(fixture_path(name)).read_text(encoding="utf-8")
    assert text.count(old) == 1
    return text.replace(old, new)


# Texts where a regular expression that gives back characters reads on past the
# token parser's error: the text, and the diagnostics of check
BACKTRACKING_TRAPS = {
    # the arc would go on inside the comment, if a comment could end before its newline
    "a comment in a declaration": (
        lambda: edited_fixture("liar.tm", "-> lies.create;", "-> lies#.create;"),
        ["16:3: error: E-SYNTAX: expected ., found 'flow'"],
    ),
    # the opening comment now ends in 'model spark {'
    "a model header inside a comment": (
        lambda: edited_fixture("single_create.tm", "meaningful model.\n\nmodel", "meaningful momodel"),
        [
            "2:3: error: E-SYNTAX: expected a section keyword (model, subdiagram, event, chronology, trace), found 'thimac'",
            "19:1: error: E-SYNTAX: a document needs a model section",
        ],
    ),
    # 'subwindow' is one identifier, not 'sub' and 'window'
    "a keyword at the end of an identifier": (
        lambda: 'model m {\n  thimac a "A" { stages: create; }\n}\nsubdiagram s "S" { stages: a.create; }\nevent E = subwindow 3..4\n',
        ["5:21: error: E-SYNTAX: expected a section keyword (model, subdiagram, event, chronology, trace), found '3'"],
    ),
}


@pytest.mark.parametrize("case", sorted(BACKTRACKING_TRAPS))
def test_check_reads_a_declaration_no_further_than_its_tokens_go(tmp_path, capsys, case):
    text, diagnostics = BACKTRACKING_TRAPS[case]
    path = tmp_path / "trap.tm"
    path.write_text(text(), encoding="utf-8")
    status, out, err = run_cli(capsys, "check", str(path))
    assert (status, out) == (1, "")
    assert err.splitlines() == [f"{path}:{d}" for d in diagnostics] + [f"tmkit: {path}: parse failed"]


_TWO_CHRONOLOGIES = (
    'model m { thimac a "A" { stages: create; things: "x"; } }\nsubdiagram s "S" { stages: a.create; }\n'
    "event A = s\nevent B = s\nchronology c { exclusive g { A | B }; }\nchronology d { A -> B; }\n"
    "trace t = [ A @ 0 ]\n"
)
# arguments after the file that the document cannot take, with the exit status and stderr
PICKS = {
    "two chronologies and no --chronology": (["runs"], 2, "tmkit: document has 2 chronologies; pass --chronology\n"),
    "an unknown --chronology": (["runs", "--chronology", "e"], 2, "tmkit: no chronology 'e' (have: c, d)\n"),
    "an unknown --trace": (["evaluate", "--chronology", "d", "--trace", "u"], 2, "tmkit: no trace 'u' (have: t)\n"),
    "a --choose without '='": (["simulate", "--chronology", "c", "--choose", "g"], 2, "tmkit: --choose takes group=event, got 'g'\n"),
    "render --highlight of an unknown id": (["render", "--highlight", "ghost"], 2, "tmkit: cannot highlight unknown id(s): ghost\n"),
    "a --choose of an event outside its group": (
        ["simulate", "--chronology", "c", "--choose", "g=C"],
        1,
        "tmkit: event 'C' is not a member of exclusive group 'g'\n",
    ),
}


@pytest.mark.parametrize("case", sorted(PICKS))
def test_arguments_the_document_cannot_take_exit_with_one_line(tmp_path, capsys, case):
    (command, *rest), status, err = PICKS[case]
    path = tmp_path / "two.tm"
    path.write_text(_TWO_CHRONOLOGIES)
    assert run_cli(capsys, command, str(path), *rest) == (status, "", err)


# --choose arguments that the airport chronology cannot take, with the one line each prints
AIRPORT_CHOICES = {
    "a group the chronology lacks": (["start=E2", "branch=E10", "nosuch=E1"], "chronology 'B' has no exclusive group 'nosuch'"),
    "a group chosen twice": (["start=E2", "start=E1", "branch=E10"], "exclusive group 'start' is chosen twice"),
    "an event outside its group": (["branch=E99"], "event 'E99' is not a member of exclusive group 'branch'"),
}


@pytest.mark.parametrize("case", sorted(AIRPORT_CHOICES))
def test_choices_the_chronology_cannot_take_exit_with_one_line(capsys, case):
    choices, err = AIRPORT_CHOICES[case]
    argv = [arg for choice in choices for arg in ("--choose", choice)]
    assert run_cli(capsys, "simulate", fixture_path("airport.tm"), *argv) == (1, "", f"tmkit: {err}\n")


def test_choices_that_rule_out_every_enabled_event_exit_with_one_line(tmp_path, capsys):
    # g=C lets A fire, then rules out B, the only move left
    path = tmp_path / "ruled_out.tm"
    path.write_text(
        'model m { thimac a "A" { stages: create; things: "x"; } }\nsubdiagram s "S" { stages: a.create; }\n'
        "event A = s\nevent B = s\nevent C = s\nchronology c { A -> B; exclusive g { B | C }; }\n"
    )
    err = "tmkit: the scripted choices rule out every enabled event\n"
    assert run_cli(capsys, "simulate", str(path), "--choose", "g=C") == (1, "", err)


@pytest.mark.parametrize("command", ["runs", "simulate"])
def test_a_document_without_chronologies_is_invalid_input(capsys, command):
    status, out, err = run_cli(capsys, command, fixture_path("empty.tm"))
    assert status == 1
    assert err == "tmkit: document declares no chronology\n"


def test_simulate_rejects_an_unknown_subdiagram(tmp_path, capsys):
    bad = tmp_path / "ghost.tm"
    bad.write_text('model m { thimac a "A" { stages: create; } }\nevent E1 = ghost\nchronology c { events: E1; }\n')
    status, out, err = run_cli(capsys, "simulate", str(bad))
    assert status == 1
    assert "E-EVENT-UNRESOLVED" in err


def simulated_seeds(tmp_path, capsys, chronology, events="ABCDE"):
    """The event sequences `tmkit simulate` prints for seeds 0-9 on a model
    that never starves; each must exit 0 and evaluate TRUE."""
    text = (
        'model m { thimac a "A" { stages: create; things: "x"; } }\n'
        'subdiagram s "S" { stages: a.create; }\n' + "".join(f"event {e} = s\n" for e in events) + chronology
    )
    path = tmp_path / "sim.tm"
    path.write_text(text)
    seen = set()
    for seed in range(10):
        status, out, err = run_cli(capsys, "simulate", str(path), "--seed", str(seed))
        assert status == 0, (seed, err)
        doc = parse_text(text + out).document
        assert evaluate_trace(build_chronology(doc.events, doc.chronologies[0]), doc.traces[-1]).truth, seed
        seen.add(doc.traces[-1].events())
    return seen


NO_RUN_HOLDS = {
    # C is a root but not a declared start
    "non_start_root": "chronology c {\n  A -> B;\n  C -> B;\n  start: A;\n  end: B;\n}\n",
    # C has no path to an end
    "dead_end": "chronology c {\n  A -> B;\n  A -> C;\n  end: B;\n}\n",
}


@pytest.mark.parametrize("name", sorted(NO_RUN_HOLDS))
def test_simulate_skips_events_no_run_holds(tmp_path, capsys, name):
    assert simulated_seeds(tmp_path, capsys, NO_RUN_HOLDS[name]) == {("A", "B")}


def test_simulate_never_fires_both_sides_of_a_choice(tmp_path, capsys):
    # B and D are alternatives, so firing A and then D leaves no run to complete
    chronology = "chronology c {\n  A -> B;\n  D -> E;\n  exclusive g { B | D };\n}\n"
    assert simulated_seeds(tmp_path, capsys, chronology) == {("A", "B"), ("D", "E")}


def test_simulate_completes_a_join_from_either_side_or_both(tmp_path, capsys):
    seen = simulated_seeds(tmp_path, capsys, "chronology c {\n  A -> C;\n  B -> C;\n  start: A, B;\n  end: C;\n}\n")
    assert {("A", "C"), ("B", "C")} <= seen
    assert seen & {("A", "B", "C"), ("B", "A", "C")}


def test_simulate_completes_a_wide_join(tmp_path, capsys):
    # twenty threads A_i -> B_i meet at C; once some B fired, each candidate C
    # is searched with the unfired B's forced out
    threads = range(20)
    events = [f"A{i}" for i in threads] + [f"B{i}" for i in threads] + ["C"]
    chronology = "chronology c {\n" + "".join(f"  A{i} -> B{i};\n  B{i} -> C;\n" for i in threads) + "}\n"
    seen = simulated_seeds(tmp_path, capsys, chronology, events)
    assert all(run[-1] == "C" for run in seen)


def test_python_dash_m_tmkit_runs_the_cli():
    done = python_dash_m_tmkit("check", fixture_path("airport.tm"))
    assert done.returncode == 0, done.stderr
    assert "14 subdiagrams, 14 events" in done.stdout


class Parsed(Exception):
    pass


def parse_outcome(argv, fresh):
    """Exit status, stdout, stderr and Namespace of main's parsing of argv,
    with the parser main keeps or, if ``fresh``, with one built for this call."""
    real = cli._parse_args

    def parse_only(parser, argv):
        raise Parsed(real(cli._build_parser.__wrapped__() if fresh else parser, argv))

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_parse_args", parse_only), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as e:
            return e.code, out.getvalue(), err.getvalue(), None
        except Parsed as p:
            return None, out.getvalue(), err.getvalue(), p.args[0]


COMMANDS = list(cli._COMMANDS)
USAGE_ARGV = (
    [[], ["--help"], ["-h"], ["-h", "check"], ["bogus"], ["che"]]
    + [[command, "--help"] for command in COMMANDS]
    + [
        ["check"],
        ["evaluate", "f.tm"],
        ["runs", "f.tm", "--frobnicate"],
        ["render", "f.tm", "--level", "nope"],
        ["check", "a", "b"],
        ["simulate", "f", "--seed", "1", "--choose", "g=e"],
        ["simulate", "f", "--choose", "g=e", "--choose", "h=d"],
        ["render", "f.tm", "-o", "f.dot", "--highlight", "A,B", "--flat"],
    ]
)


@pytest.mark.parametrize("argv", USAGE_ARGV, ids=" ".join)
def test_the_one_command_parser_parses_like_the_full_one(argv):
    # the one parser main keeps answers like a full tree built afresh
    assert parse_outcome(argv, fresh=False) == parse_outcome(argv, fresh=True)


FLAGS = sorted({flag for *_, arguments in cli._COMMANDS.values() for *flags, _ in arguments for flag in flags if flag[0] == "-"})
WORDS = st.sampled_from(COMMANDS + FLAGS + ["-h", "--help", "--", "f.tm", "1", "-1", "x", "g=e", "static", "nope", "che"])
ARGVS = st.lists(WORDS, max_size=6) | st.builds(lambda c, rest: [c, *rest], st.sampled_from(COMMANDS), st.lists(WORDS, max_size=5))
STEPS = st.tuples(st.sampled_from(["40", "80", "200"]), ARGVS | st.sampled_from(USAGE_ARGV))
APPENDED_THEN_NOT = [["render", "f.tm", "--highlight", "A"], ["render", "f.tm"], ["simulate", "f.tm", "--choose", "g=e"], ["simulate", "f.tm"]]


@example([("80", argv) for argv in APPENDED_THEN_NOT])
@example([("40", ["--help"]), ("200", ["--help"])])
@given(st.lists(STEPS, min_size=1, max_size=5))
def test_a_sequence_of_calls_parses_alike_with_the_kept_parser_or_a_fresh_one(steps):
    # each step is a terminal width and an argv
    for columns, argv in steps:
        with mock.patch.dict(os.environ, {"COLUMNS": columns}):
            assert parse_outcome(argv, fresh=False) == parse_outcome(argv, fresh=True)


def test_the_kept_parser_carries_nothing_from_one_call_to_the_next():
    parse_outcome(["render", "f.tm", "--highlight", "A"], fresh=False)
    assert parse_outcome(["render", "f.tm"], fresh=False)[3].highlight == []
    parse_outcome(["simulate", "f.tm", "--choose", "g=e"], fresh=False)
    assert parse_outcome(["simulate", "f.tm"], fresh=False)[3].choose == []
    # help wraps at the width of the terminal of each call
    for columns, one_line in (("40", False), ("200", True), ("40", False)):
        with mock.patch.dict(os.environ, {"COLUMNS": columns}):
            status, out, _, _ = parse_outcome(["--help"], fresh=False)
        assert status == 0 and ("parse, validate and report coverage" in out) == one_line


def test_main_builds_the_parser_once_per_process(capsys):
    real, built = argparse.ArgumentParser.__init__, []

    def init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    with mock.patch.object(argparse.ArgumentParser, "__init__", init):
        for argv in (["check", fixture_path("airport.tm")], ["check", fixture_path("bread.tm")], ["--help"]):
            with contextlib.suppress(SystemExit):
                main(argv)
    assert built == ["tmkit"] + [f"tmkit {command}" for command in COMMANDS]


# -- the document phases -------------------------------------------------------

_MODEL = 'model m {\n  thimac a "A" { stages: create, process; things: "x"; }\n  flow f: a.create -> a.process;\n}\n'
_SUB = 'subdiagram s "S" { stages: a.create, a.process; arcs: f; }\n'
_REST = "event E1 = s\nchronology c { events: E1; }\ntrace t = [ E1 @ 0 ]\n"

# one document per error code, each with that one error
BROKEN = {
    "E-SYNTAX": _MODEL + _SUB + _REST + "}\n",
    "E-DUPLICATE-SECTION": _MODEL + _MODEL + _SUB + _REST,
    "E-MODE": _MODEL.replace("create, process;", "create, process, arrive;") + _SUB + _REST,
    "E-CREATE-INFLOW": _MODEL.replace("a.create -> a.process", "a.process -> a.create") + _SUB + _REST,
    "E-SUB-UNRESOLVED": _MODEL + _SUB.replace("a.process;", "a.process, a.release;") + _REST,
    "E-SUB-CLOSURE": _MODEL + _SUB.replace("a.create, a.process;", "a.create;") + _REST,
    "E-EVENT-UNRESOLVED": _MODEL + _SUB + _REST.replace("= s", "= ghost"),
    "E-EVENT-WINDOW": _MODEL + _SUB + _REST.replace("= s", "= s window 5..1"),
    "E-CHRONOLOGY": _MODEL + _SUB + _REST.replace("events: E1;", "events: E1, E9;"),
}
PHASE_OF = {
    "E-SYNTAX": 0, "E-DUPLICATE-SECTION": 0, "E-MODE": 1, "E-CREATE-INFLOW": 1, "E-SUB-UNRESOLVED": 2,
    "E-SUB-CLOSURE": 2, "E-EVENT-UNRESOLVED": 3, "E-EVENT-WINDOW": 3, "E-CHRONOLOGY": 4,
}  # parse, validate, subdiagrams, events, chronology
# each command line on a document, and the last phase it runs
NEEDS = {
    ("check",): 4,
    ("runs",): 4,
    ("evaluate", "--trace", "t"): 4,
    ("simulate",): 4,
    ("render", "--level", "behavior"): 4,
    ("render", "--level", "overlay"): 2,
    ("render", "--level", "static"): 0,
    ("desugar",): 0,
    ("iso", "@"): 0,
}


def test_every_error_code_has_a_broken_document():
    codes = {v for k, v in vars(dg).items() if k.isupper() and isinstance(v, str) and v.startswith("E-")}
    assert codes == set(BROKEN)


def run_on(capsys, argv, path):
    command, *rest = argv
    return run_cli(capsys, command, str(path), *[str(path) if a == "@" else a for a in rest])


@pytest.mark.parametrize("argv", list(NEEDS), ids=" ".join)
@pytest.mark.parametrize("code", list(BROKEN))
def test_a_command_that_needs_a_broken_phase_exits_1_with_its_code(tmp_path, capsys, code, argv):
    path = tmp_path / "broken.tm"
    path.write_text(BROKEN[code])
    status, out, err = run_on(capsys, argv, path)
    if PHASE_OF[code] <= NEEDS[argv]:
        assert status == 1 and f"error: {code}: " in err, (status, err)
    else:
        assert status in (0, 1, 2)


REPRODUCERS = {
    "event": (
        'model m { thimac a "A" { stages: create; things: "x"; } }\nsubdiagram s "S" { stages: a.create; }\n'
        "event E1 = ghost\nevent E2 = s window 5..1\nchronology c { E1 -> E2; }\ntrace t = [ E1 @ 0, E2 @ 1 ]\n"
    ),
    "subdiagram": (
        'model m {\n  thimac a "A" { stages: create, process; things: "x"; }\n  flow f: a.create -> a.process;\n}\n'
        'subdiagram s "S" { stages: a.create, a.process, a.release; arcs: f, ghost; }\n'
        "event E1 = s\nchronology c { events: E1; }\ntrace t = [ E1 @ 0 ]\n"
    ),
    "chronology": (
        'model m { thimac a "A" { stages: create; things: "x"; } }\nsubdiagram s "S" { stages: a.create; }\n'
        "event A = s\nevent B = s\nchronology c { A -> B; B -> A; }\nchronology d { C -> A; }\ntrace t = [ A @ 0 ]\n"
    ),
}
CODES = {"event": ["E-EVENT-UNRESOLVED", "E-EVENT-WINDOW"], "subdiagram": ["E-SUB-UNRESOLVED"] * 2, "chronology": ["E-CHRONOLOGY"] * 2}
# the command lines that exited 0, or exited 1 without the diagnostics, before every command ran the phases it needs
CHANGED = [
    ("event", ("runs",)),
    ("event", ("evaluate", "--trace", "t")),
    ("event", ("render", "--level", "behavior")),
    ("event", ("simulate",)),
    ("subdiagram", ("runs",)),
    ("subdiagram", ("evaluate", "--trace", "t")),
    ("subdiagram", ("simulate",)),
    ("subdiagram", ("render", "--level", "overlay")),
    ("subdiagram", ("render", "--level", "behavior")),
    ("chronology", ("runs", "--chronology", "c")),
    ("chronology", ("evaluate", "--chronology", "d", "--trace", "t")),
    ("chronology", ("simulate", "--chronology", "c")),
    ("chronology", ("render", "--level", "behavior")),
]


@pytest.mark.parametrize("name, argv", CHANGED, ids=lambda x: " ".join(x) if isinstance(x, tuple) else x)
def test_a_document_that_breaks_a_phase_stops_every_command_that_needs_it(tmp_path, capsys, name, argv):
    path = tmp_path / f"{name}.tm"
    path.write_text(REPRODUCERS[name])
    status, out, err = run_on(capsys, argv, path)
    *diagnostics, last = err.splitlines()
    assert (status, out, last) == (1, "", f"tmkit: {path}: invalid document")
    assert [line.split(": ")[1] for line in diagnostics if line.startswith("error: ")] == CODES[name]


def test_a_stop_prints_every_diagnostic_and_warning_once_in_report_order(tmp_path, capsys):
    path = tmp_path / "event.tm"
    path.write_text(REPRODUCERS["event"])
    assert run_cli(capsys, "runs", str(path)) == (
        1,
        "",
        "error: E-EVENT-UNRESOLVED: event 'E1' names unknown subdiagram 'ghost' [E1]\n"
        "error: E-EVENT-WINDOW: event 'E2' window 5..1 is empty (start after end) [E2]\n"
        "warning: W-STAGE-DANGLING: stage a.create has no arcs [a]\n"
        f"tmkit: {path}: invalid document\n",
    )


def test_check_reports_every_chronology_that_does_not_build(tmp_path, capsys):
    path = tmp_path / "chronology.tm"
    path.write_text(REPRODUCERS["chronology"])
    status, out, err = run_cli(capsys, "check", str(path))
    assert status == 1
    assert "error: E-CHRONOLOGY: cycle: A -> B -> A [c]" in err.splitlines()
    assert "error: E-CHRONOLOGY: chronology 'd' references undeclared event 'C' [d]" in err.splitlines()
    assert [d["elements"] for d in machine_block(out)["diagnostics"] if d["code"] == "E-CHRONOLOGY"] == [["c"], ["d"]]


def test_a_command_that_passes_prints_no_warnings(capsys):
    # single_create.tm has no arcs, so check warns of its dangling stage
    status, out, err = run_cli(capsys, "check", fixture_path("single_create.tm"))
    assert status == 0 and "W-STAGE-DANGLING" in err
    assert run_cli(capsys, "runs", fixture_path("single_create.tm")) == (0, "[E1]\n", "1 run(s)\n")


def test_the_phases_call_the_checks_the_module_holds_when_they_run(capsys, monkeypatch):
    called = []
    for name in ("parse", "validate_static", "check_subdiagram", "eventize", "build_chronology"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real, name=name: called.append(name) or real(*a))
    assert run_cli(capsys, "runs", fixture_path("bread.tm"))[0] == 0
    assert called == ["parse", "validate_static", "check_subdiagram", "check_subdiagram", "eventize", "build_chronology"]
