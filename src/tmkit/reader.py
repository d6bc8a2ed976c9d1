"""A fast reader for clean ``.tm`` documents: one regular expression match per
declaration. ``syntax.parse`` gives every document it declines to the token
parser, the only source of diagnostics: a fast first pass and a precise second
one, as CPython's PEG parser reports syntax errors (PEP 617).
"""
from __future__ import annotations

import re
from typing import Optional

from . import syntax
from .behavior import ChronologyDecl, Trace, check_trace_shape
from .errors import DuplicateId, UnresolvedStageRef
from .events import Event, Subdiagram
from .model import ArcDecl, ArcKind, Notation, StageKind, StageRef, ThimacDecl

_KINDS = {k.value: k for k in StageKind}
# A pattern's spaces stand for blanks and comments; a comment runs to the end of its line, and
# keywords, identifiers and integers end at a word boundary, so no part gives back characters to
# the rest of a pattern (Python 3.10 has no atomic groups). Blanks (~) alone part list items.
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*"
_PARTS = {
    "ID": r"[A-Za-z_]\w*\b",
    "INT": r"\d+\b",
    "STR": r'"[^"\\\n]*"',
    "KIND": f"(?:{'|'.join(_KINDS)})\\b",
    "WORD": f"(?:{'|'.join(_KINDS)}|memory)\\b",
    "~": r"[ \t\r\n]*",
}


def _rx(pattern: str) -> re.Pattern[str]:
    pattern = pattern.replace(" ", _SKIP)
    for name, part in _PARTS.items():
        pattern = pattern.replace(name, part)
    return re.compile(pattern)


_MODEL = _rx(r" model\b (ID)(?: (simplified)\b)? \{")
# a block's last group is its closing brace; in this one lastindex 1 is stages, 2 things, 4 a thimac, 10 an arc
_BODY = _rx(
    r" (?:stages\b : (WORD(?:~,~WORD)*) ;|things\b : (STR(?:~,~STR)*) ;|thimac\b (ID) (STR) \{"
    r"|(flow|trigger)\b (ID) : (ID)\.(KIND) -> (ID)\.(KIND) ;|(\}))"
)
_SUBDIAGRAM = _rx(r" subdiagram\b (ID) (STR) \{")
_SUBDIAGRAM_ITEM = _rx(r" (?:stages\b : (ID\.KIND(?:~,~ID\.KIND)*) ;|arcs\b : (ID(?:~,~ID)*) ;|(\}))")
_EVENT = _rx(r" event\b (ID) = (ID)(?: window\b (INT) \.\. (INT))?")
_CHRONOLOGY = _rx(r" chronology\b (ID) \{")
# lastindex 1 a chain of edges, 2 events, 4 exclusive (3 its name), 5 start, 6 end
_CHRONOLOGY_ITEM = _rx(
    r" (?:(ID(?:~->~ID)+) ;|events\b : (ID(?:~,~ID)*) ;|exclusive\b(?: (ID))? \{ (ID(?:~\|~ID)*) \} ;"
    r"|start\b : (ID(?:~,~ID)*) ;|end\b : (ID(?:~,~ID)*) ;|(\}))"
)
_TRACE = _rx(r" trace\b (ID) = \[(?: (ID~@~INT(?:~,~ID~@~INT)*))? \]")
_END = _rx(r" \Z")
_WORDS, _STRINGS = re.compile(r"\w+"), re.compile(r'"([^"]*)"')
_REFS, _OCCURRENCES = re.compile(r"(\w+)\.(\w+)"), re.compile(r"(\w+)[ \t\r\n]*@[ \t\r\n]*(\d+)")


class _Declined(Exception):
    """The token parser may read the document otherwise than the reader would."""


def _next(rx: re.Pattern[str], text: str, pos: int) -> re.Match[str]:
    m = rx.match(text, pos)
    if m is None:
        raise _Declined
    return m


def _unique(ids: list[str]) -> None:
    if len(set(ids)) != len(ids):
        raise _Declined


def read(src: syntax.SourceFile) -> Optional[syntax.Document]:
    """The document in ``src`` as the token parser reads it, or None where that parser
    might report a problem or read it otherwise: escapes in strings, identifiers that
    start with a non-ASCII character, a comment in a list, blanks around a dot."""
    try:
        return _document(src.text, syntax._ParsedSpans(src))
    except (_Declined, ValueError, DuplicateId, UnresolvedStageRef):  # ValueError: an integer too long for int()
        return None


def _document(text: str, spans: syntax._ParsedSpans) -> syntax.Document:
    # build_model and the sections' records wait until the whole text has matched: most declined texts stop matching
    header, roots, arcs, pos = _model(text)
    subdiagrams, pos = _sections(_SUBDIAGRAM, _SUBDIAGRAM_ITEM, text, pos)
    events, pos = _sections(_EVENT, None, text, pos)
    chronologies, pos = _sections(_CHRONOLOGY, _CHRONOLOGY_ITEM, text, pos)
    traces, pos = _sections(_TRACE, None, text, pos)
    _next(_END, text, pos)
    sections = (
        tuple(_subdiagram(m, items) for m, items in subdiagrams),
        tuple(Event(m[1], m[2], None if m[3] is None else (int(m[3]), int(m[4]))) for m, _ in events),
        tuple(_chronology(m, items) for m, items in chronologies),
        tuple(Trace(m[1], tuple((e, int(t)) for e, t in _OCCURRENCES.findall(m[2] or ""))) for m, _ in traces),
    )
    if any(check_trace_shape(trace) is not None for trace in sections[3]):
        raise _Declined
    model = syntax.build_model(header[1], roots, arcs, Notation.SIMPLIFIED if header[2] else Notation.FULL)
    return syntax.Document(model, *sections, spans=spans)


def _sections(rx: re.Pattern[str], items: Optional[re.Pattern[str]], text: str, pos: int) -> tuple[list, int]:
    """Each section ``rx`` opens from ``pos`` on, as its match and its block's items, and the offset after them."""
    found = []
    while m := rx.match(text, pos):
        block, pos = [], m.end()
        while items and not (block and block[-1].lastindex == items.groups):
            block.append(_next(items, text, pos))
            pos = block[-1].end()
        found.append((m, block[:-1]))
    _unique([m[1] for m, _ in found])
    return found, pos


def _subdiagram(m: re.Match[str], items: list[re.Match[str]]) -> Subdiagram:
    stages = tuple(StageRef(t, _KINDS[k]) for i in items if i[1] for t, k in _REFS.findall(i[1]))
    arcs = tuple(a for i in items if i[2] for a in _WORDS.findall(i[2]))
    return Subdiagram(m[1], m[2][1:-1], stages, arcs)


def _chronology(m: re.Match[str], items: list[re.Match[str]]) -> ChronologyDecl:
    lists = [(i.lastindex, _WORDS.findall(i[i.lastindex])) for i in items]
    edges = [edge for kind, ids in lists if kind == 1 for edge in zip(ids, ids[1:])]
    explicit = [e for kind, ids in lists if kind == 2 for e in ids]
    groups = [(i[3], frozenset(ids)) for i, (kind, ids) in zip(items, lists) if kind == 4]
    last = dict(lists)  # a start or end clause replaces the one before it
    _unique([g for g, _ in groups if g is not None])
    return syntax.chronology_decl(m[1], explicit, edges, groups, last.get(5), last.get(6))


def _model(text: str) -> tuple[re.Match[str], list[ThimacDecl], list[ArcDecl], int]:
    """The model section's header at the start of ``text``, its root thimacs and arcs, and the offset after it."""
    m = _next(_MODEL, text, 0)
    roots, arcs = [], []
    # the thimacs being read, outermost first: id, label, stage words, children, things
    inside: list[tuple[str, str, list[str], list[ThimacDecl], list[str]]] = []
    item = _next(_BODY, text, m.end())
    while (kind := item.lastindex) != _BODY.groups or inside:
        if kind == 4 and len(inside) < syntax.MAX_NESTING:
            inside.append((item[3], item[4][1:-1], [], [], []))
        elif kind == 10 and not inside:
            arc_kind = ArcKind.FLOW if item[5] == "flow" else ArcKind.TRIGGER
            arcs.append(ArcDecl(item[6], arc_kind, (item[7], _KINDS[item[8]]), (item[9], _KINDS[item[10]])))
        elif kind == 1 and inside:
            inside[-1][2].extend(_WORDS.findall(item[1]))
            _unique(inside[-1][2])
        elif kind == 2 and inside:
            inside[-1][4].extend(_STRINGS.findall(item[2]))
        elif kind == _BODY.groups:
            decl = syntax.thimac_decl(*inside.pop())
            (inside[-1][3] if inside else roots).append(decl)
        else:
            raise _Declined
        item = _next(_BODY, text, item.end())
    return m, roots, arcs, item.end()
