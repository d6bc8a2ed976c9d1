"""A fast reader for ``.tm`` documents: one regular expression match per
declaration. It reads a text iff the token parser reports no error in it and no
character beyond ASCII stands outside its strings and comments, and
``syntax.parse`` gives every text it declines to the token parser, the only
source of diagnostics and of identifiers and numerals beyond ASCII: a fast first
pass and a precise second one, as CPython's PEG parser reports syntax errors (PEP 617).
"""
from __future__ import annotations

import re
from types import MappingProxyType
from typing import Optional

from . import syntax
from .behavior import Chronology, Trace, check_trace_shape
from .errors import BoundExceeded, DuplicateId, UnresolvedStageRef
from .events import Event, Subdiagram
from .model import Arc, ArcKind, Notation, StageRef, Thimac
from .syntax import _STAGE_WORDS

_FLOW, _TRIGGER = ArcKind.FLOW, ArcKind.TRIGGER
# A pattern's spaces stand for the token parser's blanks and comments. A comment runs to the end of
# its line, and keywords and identifiers end at a word boundary, so no part gives back characters to
# the rest of a pattern (Python 3.10 has no atomic groups). An integer needs no boundary: the token
# parser reads '5event' as 5 and a word. A string's backslash escapes any character, a newline too.
# Compiled under re.ASCII, no part but a string or a comment matches a character beyond ASCII.
_PARTS = {
    "ID": r"[^\W\d]\w*\b",
    "INT": r"\d+",
    "STR": r'"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*"',
    "KIND": f"(?:{'|'.join(_STAGE_WORDS)})\\b",
    "WORD": f"(?:{'|'.join(_STAGE_WORDS)}|memory)\\b",
}


def _rx(pattern: str) -> re.Pattern[str]:
    pattern = pattern.replace(" ", syntax._SKIP)
    for name, part in _PARTS.items():
        pattern = pattern.replace(name, part)
    return re.compile(pattern, re.ASCII)


_MODEL = _rx(r" model\b (ID)(?: (simplified)\b)? \{")
# a block's last group is its closing brace; in this one lastindex 1 is stages, 2 things, 4 a thimac, 10 an arc
_BODY = _rx(
    r" (?:stages\b : (WORD(?: , WORD)*) ;|things\b : (STR(?: , STR)*) ;|thimac\b (ID) (STR) \{"
    r"|(flow|trigger)\b (ID) : (ID) \. (KIND) -> (ID) \. (KIND) ;|(\}))"
)
_SUBDIAGRAM = _rx(r" subdiagram\b (ID) (STR) \{")
_SUBDIAGRAM_ITEM = _rx(r" (?:stages\b : (ID \. KIND(?: , ID \. KIND)*) ;|arcs\b : (ID(?: , ID)*) ;|(\}))")
_EVENT = _rx(r" event\b (ID) = (ID)(?: window\b (INT) \.\. (INT))?")
_CHRONOLOGY = _rx(r" chronology\b (ID) \{")
# lastindex 1 a chain of edges, 2 events, 4 exclusive (3 its name), 5 start, 6 end
_CHRONOLOGY_ITEM = _rx(
    r" (?:(ID(?: -> ID)+) ;|events\b : (ID(?: , ID)*) ;|exclusive\b(?: (ID))? \{ (ID(?: \| ID)*) \} ;"
    r"|start\b : (ID(?: , ID)*) ;|end\b : (ID(?: , ID)*) ;|(\}))"
)
_TRACE = _rx(r" trace\b (ID) = \[(?: (ID @ INT(?: , ID @ INT)*))? \]")
_END = _rx(r" \Z")
# strings (group 1) and comments
_LITERALS = _rx(r"(STR)|#[^\n]*")


class _Declined(Exception):
    """The token parser reports an error in the text."""


def _next(rx: re.Pattern[str], text: str, pos: int) -> re.Match[str]:
    m = rx.match(text, pos)
    if m is None:
        raise _Declined
    return m


def _unique(ids: list[str]) -> None:
    if len(set(ids)) != len(ids):
        raise _Declined


def _words(items: str, *separators: str) -> list[str]:
    """The words of a list that a pattern has matched, in order: ids, stage words and integers are word
    characters, and once its comments and ``separators`` are blanks only blanks stand between them."""
    if "#" in items:
        items = _LITERALS.sub(" ", items)
    for separator in separators:
        if separator in items:
            items = items.replace(separator, " ")
    return items.split()


def read(src: syntax.SourceFile) -> Optional[syntax.Document]:
    """The document in ``src`` as the token parser reads it, with the source offset of each
    declaration's id for its spans, or None where that parser reports an error."""
    try:
        return _document(src.text)
    # ValueError: an integer too long for int(); the others: a model build_model refuses
    except (_Declined, ValueError, BoundExceeded, DuplicateId, UnresolvedStageRef):
        return None


def _document(text: str) -> syntax.Document:
    # build_model and the sections' records wait until the whole text has matched: most declined texts stop matching
    first: dict[str, int] = {}  # source offset of each id's first declaration
    header, roots, arcs, pos = _model(text, first)
    subdiagrams, pos = _sections(_SUBDIAGRAM, _SUBDIAGRAM_ITEM, text, pos)
    events, pos = _sections(_EVENT, None, text, pos)
    chronologies, pos = _sections(_CHRONOLOGY, _CHRONOLOGY_ITEM, text, pos)
    traces, pos = _sections(_TRACE, None, text, pos)
    _next(_END, text, pos)
    for m, _ in (*subdiagrams, *events, *chronologies, *traces):
        first.setdefault(m[1], m.start(1))
    sections = (
        tuple(_subdiagram(m, items) for m, items in subdiagrams),
        tuple(Event(m[1], m[2], None if m[3] is None else (int(m[3]), int(m[4]))) for m, _ in events),
        tuple(_chronology(m, items) for m, items in chronologies),
        tuple(Trace(m[1], tuple(zip(w[::2], map(int, w[1::2])))) for m, _ in traces
              for w in [_words(m[2] or "", "@", ",")]),  # an occurrence is two words
    )
    if any(check_trace_shape(trace) is not None for trace in sections[3]):
        raise _Declined
    model = syntax.build_model(header[1], roots, arcs, Notation.SIMPLIFIED if header[2] else Notation.FULL)
    return syntax.Document(model, *sections, spans=MappingProxyType(first))


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
    refs = [w for i in items if i[1] for w in _words(i[1], ".", ",")]  # a stage reference is two words
    stages = tuple(StageRef(t, _STAGE_WORDS[k]) for t, k in zip(refs[::2], refs[1::2]))
    arcs = tuple(a for i in items if i[2] for a in _words(i[2], ","))
    return Subdiagram(m[1], syntax.unescape(m[2][1:-1]), stages, arcs)


def _chronology(m: re.Match[str], items: list[re.Match[str]]) -> Chronology:
    lists = [(i.lastindex, _words(i[i.lastindex], "->", ",", "|")) for i in items]
    edges = [edge for kind, ids in lists if kind == 1 for edge in zip(ids, ids[1:])]
    explicit = [e for kind, ids in lists if kind == 2 for e in ids]
    groups = [(i[3], frozenset(ids)) for i, (kind, ids) in zip(items, lists) if kind == 4]
    last = dict(lists)  # a start or end clause replaces the one before it
    _unique([g for g, _ in groups if g is not None])
    return syntax.chronology_decl(m[1], explicit, edges, groups, last.get(5), last.get(6))


def _model(text: str, first: dict[str, int]) -> tuple[re.Match[str], list[Thimac], list[Arc], int]:
    """The model section's header at the start of ``text``, its root thimacs and arcs, and the offset after it;
    ``first`` gains the offset of each thimac and arc id."""
    body, m = _BODY, _next(_MODEL, text, 0)
    roots, arcs = [], []
    # the thimacs being read, outermost first: id, label, stage words, children, things
    inside: list[tuple[str, str, list[str], list[Thimac], list[str]]] = []
    item = _next(body, text, m.end())
    while (kind := item.lastindex) != body.groups or inside:
        if kind == 4:
            first.setdefault(item[3], item.start(3))
            inside.append((item[3], syntax.unescape(item[4][1:-1]), [], [], []))
        elif kind == 10 and not inside:
            first.setdefault(item[6], item.start(6))
            src, dst = StageRef(item[7], _STAGE_WORDS[item[8]]), StageRef(item[9], _STAGE_WORDS[item[10]])
            arcs.append(Arc(item[6], _FLOW if item[5] == "flow" else _TRIGGER, src, dst))
        elif kind == 1 and inside:
            inside[-1][2].extend(_words(item[1], ","))
            _unique(inside[-1][2])
        elif kind == 2 and inside:
            inside[-1][4].extend([syntax.unescape(s[1:-1]) for s in _LITERALS.findall(item[2]) if s])
        elif kind == body.groups:
            decl = syntax.thimac_decl(*inside.pop())
            (inside[-1][3] if inside else roots).append(decl)
        else:
            raise _Declined
        item = _next(body, text, item.end())
    return m, roots, arcs, item.end()
