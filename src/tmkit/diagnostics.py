"""Diagnostics shared by the parser, the validator, the event checks and the
CLI's chronology phase.

Every check in the toolkit reports problems as :class:`Diagnostic` values
instead of raising, so callers can collect, sort and print them uniformly.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


class Span(NamedTuple):
    """A source location; column and line are 1-based."""

    file: str = "<memory>"
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


# Stable diagnostic codes. The validator codes are public API; tools may
# match on them.
SYNTAX = "E-SYNTAX"
DUPLICATE_SECTION = "E-DUPLICATE-SECTION"
FLOW_ILLEGAL = "W-FLOW-ILLEGAL"
TRIGGER_SELF = "W-TRIGGER-SELF"
STAGE_DANGLING = "W-STAGE-DANGLING"
CREATE_INFLOW = "E-CREATE-INFLOW"
MODE = "E-MODE"
SUB_UNRESOLVED = "E-SUB-UNRESOLVED"
SUB_CLOSURE = "E-SUB-CLOSURE"
EVENT_UNRESOLVED = "E-EVENT-UNRESOLVED"
EVENT_WINDOW = "E-EVENT-WINDOW"
EVENT_SHARED = "W-EVENT-SHARED"
CHRONOLOGY = "E-CHRONOLOGY"


class Diagnostic(NamedTuple):
    """One reported problem.

    ``elements`` carries the ids of the offending model elements; validator
    diagnostics always cite at least one.
    """

    code: str
    severity: Severity
    message: str
    elements: tuple[str, ...] = ()
    span: Span = Span()

    def __str__(self) -> str:
        where = f"{self.span}: " if self.span.line else ""
        subject = f" [{', '.join(self.elements)}]" if self.elements else ""
        return f"{where}{self.severity}: {self.code}: {self.message}{subject}"


def error(code: str, message: str, elements: tuple[str, ...] = (), span: Span = Span()) -> Diagnostic:
    return Diagnostic(code, Severity.ERROR, message, elements, span)


def warning(code: str, message: str, elements: tuple[str, ...] = (), span: Span = Span()) -> Diagnostic:
    return Diagnostic(code, Severity.WARNING, message, elements, span)


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Deterministic report order: by cited element, then code."""
    return sorted(diags, key=lambda d: (d.elements, d.code, d.message))


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)
