"""tmkit: an executable toolkit for thinging-machine conceptual models.

Parse ``.tm`` documents, validate the stage-connection discipline, declare
subdiagrams and events over the static model, order events into a chronology,
and assign truth values to event traces against it. A seeded simulator
produces conforming traces, and a DOT emitter renders all three views.
"""
from .behavior import (
    Chronology,
    ExclusiveGroup,
    Trace,
    Verdict,
    build_chronology,
    enumerate_runs,
    evaluate_trace,
)
from .diagnostics import Diagnostic, Severity, Span
from .dot import Level, RenderOptions, to_dot
from .events import CoverageReport, Event, Subdiagram, check_subdiagram, coverage, eventize
from .model import (
    Arc,
    ArcKind,
    IsoResult,
    Notation,
    StageKind,
    StageRef,
    StaticModel,
    Thimac,
    build_model,
    models_isomorphic,
)
from .simulate import Scripted, Seeded, simulate
from .syntax import Document, ParseResult, SourceFile, parse, parse_text, print_document
from .validate import desugar, validate_static

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "ArcKind",
    "Chronology",
    "CoverageReport",
    "Diagnostic",
    "Document",
    "Event",
    "ExclusiveGroup",
    "IsoResult",
    "Level",
    "Notation",
    "ParseResult",
    "RenderOptions",
    "Scripted",
    "Seeded",
    "Severity",
    "SourceFile",
    "Span",
    "StageKind",
    "StageRef",
    "StaticModel",
    "Subdiagram",
    "Thimac",
    "Trace",
    "Verdict",
    "build_chronology",
    "build_model",
    "check_subdiagram",
    "coverage",
    "desugar",
    "enumerate_runs",
    "evaluate_trace",
    "eventize",
    "models_isomorphic",
    "parse",
    "parse_text",
    "print_document",
    "simulate",
    "to_dot",
    "validate_static",
]
