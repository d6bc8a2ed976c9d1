import sys
from pathlib import Path

import pytest

from tmkit.behavior import build_chronology
from tmkit.syntax import SourceFile, parse

sys.path.insert(0, str(Path(__file__).parent))

FIXTURES = Path(__file__).parent / "fixtures"

# Integers longer than int() converts (sys.get_int_max_str_digits(), 4300 by
# default) at each place the grammar reads one: text and the diagnostic.
_LONG_BASE = 'model m {\n  thimac a "A" { stages: create; }\n}\nsubdiagram s "S" { stages: a.create; }\nevent E = s'
LONG_INTEGERS = {
    "window start": (f"{_LONG_BASE} window {'9' * 5000}..9\n", "5:20: error: E-SYNTAX: window start has too many digits (5000)"),
    "window end": (f"{_LONG_BASE} window 0..{'9' * 5000}\n", "5:23: error: E-SYNTAX: window end has too many digits (5000)"),
    "timestamp": (f"{_LONG_BASE}\ntrace t = [ E @ {'9' * 5000} ]\n", "6:17: error: E-SYNTAX: timestamp has too many digits (5000)"),
}


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def declaration_spans(src: SourceFile, doc) -> dict:
    """The span in ``src`` of the first declaration of each id of ``doc``."""
    return {name: src.span(at) for name, at in doc.spans.items()}


def load(name: str):
    result = parse(SourceFile.read(fixture_path(name)))
    assert result.document is not None, result.diagnostics
    return result.document


@pytest.fixture(scope="session")
def airport():
    return load("airport.tm")


@pytest.fixture(scope="session")
def airport_chronology(airport):
    return build_chronology(airport.events, airport.chronologies[0])
