"""A seeded fuzz of every command: ``cli.main`` called in-process on the fixtures,
on printed random documents and on mutated texts. Every call exits 0, 1 or 2,
lets no exception escape, prints no traceback and answers in under 2 s."""
import contextlib
import io
import random
import re
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Optional

from tmkit.cli import main
from tmkit.syntax import print_document

from conftest import FIXTURES
from genutil import mutated, random_document

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
import gen  # noqa: E402  (the benchmark's document generators)

_TRACE = re.compile(r"^[ \t]*trace[ \t]+([A-Za-z_]\w*)", re.M)


def fuzzed_documents(rng: random.Random) -> list[tuple[str, Optional[str]]]:
    """Texts, each with the one it was made from or None: the 13 fixtures, 200 printed random
    documents, and 240 texts made by one to three edits of a fixture, of a small document of
    the benchmark's shapes or of a printed random document, in turn."""
    fixtures = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.tm"))]
    printed = [print_document(random_document(rng)) for _ in range(200)]
    found: list[tuple[str, Optional[str]]] = [(text, None) for text in fixtures + printed]
    for i in range(240):
        if i % 3 == 0:
            base = rng.choice(fixtures)
        elif i % 3 == 1:
            chain = gen.chain(rng, rng.randint(1, 4))
            base = rng.choice([chain.text, chain.simplified_text, gen.branchy(rng, rng.randint(1, 3)).text])
        else:
            base = rng.choice(printed)
        found.append((mutated(rng, base), base))
    return found


def command_lines(path: str, text: str, other: str) -> list[tuple[str, list[str]]]:
    """Every command on ``path``, which holds ``text``, each with the name its floor counts it
    under: evaluate once per trace the text declares, and iso against ``other``."""
    lines = [(command, [command, path]) for command in ("check", "runs", "desugar")]
    lines += [(f"render --level {level}", ["render", path, "--level", level]) for level in ("overlay", "behavior")]
    lines += [(f"simulate --seed {seed}", ["simulate", path, "--seed", seed]) for seed in ("0", "3")]
    lines += [("evaluate", ["evaluate", path, "--trace", t]) for t in dict.fromkeys(_TRACE.findall(text))]
    return lines + [("iso", ["iso", path, other])]


def call(argv: list[str]) -> tuple[object, str, float]:
    """main's exit status, or the exception that escaped it, its stderr, and its seconds."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except (Exception, SystemExit) as e:  # nothing may escape, an exit from argparse included
            status = e
    return status, err.getvalue(), time.perf_counter() - start


# the least count of calls that exit 0, per command, of the seeded fuzz below: about four
# fifths of what it counts, so the fuzz keeps reaching each command's own work
EXIT_0_FLOORS = {
    "check": 90,
    "runs": 20,
    "desugar": 7,  # only a simplified model desugars
    "render --level overlay": 100,
    "render --level behavior": 90,
    "simulate --seed 0": 17,
    "simulate --seed 3": 17,
    "evaluate": 25,
    "iso": 18,
}


def test_every_command_exits_0_1_or_2_on_fuzzed_documents(tmp_path):
    rng = random.Random(22)
    documents = []  # path, text, and the path of its base or None
    for i, (text, base) in enumerate(fuzzed_documents(rng)):
        path, base_path = tmp_path / f"d{i}.tm", tmp_path / f"base{i}.tm"
        path.write_text(text, encoding="utf-8")
        if base is not None:
            base_path.write_text(base, encoding="utf-8")
        documents.append((str(path), text, None if base is None else str(base_path)))
    calls, exit_0, faults = 0, Counter(dict.fromkeys(EXIT_0_FLOORS, 0)), []
    start = time.perf_counter()
    for path, text, base_path in documents:
        # iso against the base of an edited text, or else against another document
        for command, argv in command_lines(path, text, base_path or rng.choice(documents)[0]):
            status, err, seconds = call(argv)
            calls += 1
            if status not in (0, 1, 2) or "Traceback" in err or seconds >= 2:
                faults.append((argv, status, seconds, err[-500:]))
            exit_0[command] += status == 0
    elapsed = time.perf_counter() - start
    assert faults == []
    assert calls >= 4000 and elapsed < 5, (calls, elapsed)
    assert [command for command, n in exit_0.items() if n < EXIT_0_FLOORS[command]] == [], exit_0
