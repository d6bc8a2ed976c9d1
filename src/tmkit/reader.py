"""A fast reader for ``.tm`` documents: one regular expression match per
declaration. It reads a text iff the token parser reports no error in it, and
``syntax.parse`` gives every text it declines to the token parser, the only
source of diagnostics: a fast first pass and a precise second one, as CPython's
PEG parser reports syntax errors (PEP 617).
"""
from __future__ import annotations

import re
from typing import Optional

from . import syntax
from .behavior import ChronologyDecl, Trace, check_trace_shape
from .errors import DuplicateId, UnresolvedStageRef
from .events import Event, Subdiagram
from .model import Arc, ArcKind, Notation, StageKind, StageRef, Thimac

_KINDS = {k.value: k for k in StageKind}
# A pattern's spaces stand for the token parser's blanks and comments. A comment runs to the end of
# its line, and keywords and identifiers end at a word boundary, so no part gives back characters to
# the rest of a pattern (Python 3.10 has no atomic groups). An integer needs no boundary: the token
# parser reads '5event' as 5 and a word. A string's backslash escapes any character, a newline too.
_PARTS = {
    "ID": r"[^\W\d]\w*\b",
    "INT": r"\d+",
    "STR": r'"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*"',
    "KIND": f"(?:{'|'.join(_KINDS)})\\b",
    "WORD": f"(?:{'|'.join(_KINDS)}|memory)\\b",
}


def _rx(pattern: str) -> re.Pattern[str]:
    pattern = pattern.replace(" ", syntax._SKIP)
    for name, part in _PARTS.items():
        pattern = pattern.replace(name, part)
    return re.compile(pattern)


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
# the items of a list, once its comments are left out
_WORDS, _STRINGS = re.compile(r"\w+"), _rx("STR")
_REFS, _OCCURRENCES = _rx(r"(\w+) \. (\w+)"), _rx(r"(\w+) @ (\d+)")
# strings (group 1) and comments, and the first character of a word that is neither an ASCII letter, '_' nor a digit
_LITERALS, _FIRSTS = _rx(r"(STR)|#[^\n]*"), re.compile(r"(?<!\w)[^\W\d_A-Za-z]")


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


def _items(rx: re.Pattern[str], items: str) -> list:
    """The matches of ``rx`` in the text of a list, its comments left out."""
    return rx.findall(_LITERALS.sub(r"\1", items) if "#" in items else items)


def read(src: syntax.SourceFile) -> Optional[syntax.Document]:
    """The document in ``src`` as the token parser reads it, with the source offset of each
    declaration's id for its spans, or None where that parser reports an error."""
    try:
        return _document(src.text, syntax._Spans(src))
    except (_Declined, ValueError, DuplicateId, UnresolvedStageRef):  # ValueError: an integer too long for int()
        return None


def _document(text: str, spans: syntax._Spans) -> syntax.Document:
    # build_model and the sections' records wait until the whole text has matched: most declined texts stop matching
    header, roots, arcs, pos = _model(text, spans.first)
    subdiagrams, pos = _sections(_SUBDIAGRAM, _SUBDIAGRAM_ITEM, text, pos)
    events, pos = _sections(_EVENT, None, text, pos)
    chronologies, pos = _sections(_CHRONOLOGY, _CHRONOLOGY_ITEM, text, pos)
    traces, pos = _sections(_TRACE, None, text, pos)
    _next(_END, text, pos)
    # \w admits numerals such as '²' that no word may start with, where the token parser takes an identifier's
    # first character by str.isalpha
    if not text.isascii() and not all(c.isalpha() for c in _FIRSTS.findall(_LITERALS.sub(" ", text))):
        raise _Declined
    for m, _ in (*subdiagrams, *events, *chronologies, *traces):
        spans.first.setdefault(m[1], m.start(1))
    sections = (
        tuple(_subdiagram(m, items) for m, items in subdiagrams),
        tuple(Event(m[1], m[2], None if m[3] is None else (int(m[3]), int(m[4]))) for m, _ in events),
        tuple(_chronology(m, items) for m, items in chronologies),
        tuple(Trace(m[1], tuple((e, int(t)) for e, t in _items(_OCCURRENCES, m[2] or ""))) for m, _ in traces),
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
    stages = tuple(StageRef(t, _KINDS[k]) for i in items if i[1] for t, k in _items(_REFS, i[1]))
    arcs = tuple(a for i in items if i[2] for a in _items(_WORDS, i[2]))
    return Subdiagram(m[1], syntax.unescape(m[2][1:-1]), stages, arcs)


def _chronology(m: re.Match[str], items: list[re.Match[str]]) -> ChronologyDecl:
    lists = [(i.lastindex, _items(_WORDS, i[i.lastindex])) for i in items]
    edges = [edge for kind, ids in lists if kind == 1 for edge in zip(ids, ids[1:])]
    explicit = [e for kind, ids in lists if kind == 2 for e in ids]
    groups = [(i[3], frozenset(ids)) for i, (kind, ids) in zip(items, lists) if kind == 4]
    last = dict(lists)  # a start or end clause replaces the one before it
    _unique([g for g, _ in groups if g is not None])
    return syntax.chronology_decl(m[1], explicit, edges, groups, last.get(5), last.get(6))


def _model(text: str, first: dict[str, int]) -> tuple[re.Match[str], list[Thimac], list[Arc], int]:
    """The model section's header at the start of ``text``, its root thimacs and arcs, and the offset after it;
    ``first`` gains the offset of each thimac and arc id."""
    m = _next(_MODEL, text, 0)
    roots, arcs = [], []
    # the thimacs being read, outermost first: id, label, stage words, children, things
    inside: list[tuple[str, str, list[str], list[Thimac], list[str]]] = []
    item = _next(_BODY, text, m.end())
    while (kind := item.lastindex) != _BODY.groups or inside:
        if kind == 4 and len(inside) < syntax.MAX_NESTING:
            first.setdefault(item[3], item.start(3))
            inside.append((item[3], syntax.unescape(item[4][1:-1]), [], [], []))
        elif kind == 10 and not inside:
            first.setdefault(item[6], item.start(6))
            arc_kind = ArcKind.FLOW if item[5] == "flow" else ArcKind.TRIGGER
            arcs.append(Arc(item[6], arc_kind, StageRef(item[7], _KINDS[item[8]]), StageRef(item[9], _KINDS[item[10]])))
        elif kind == 1 and inside:
            inside[-1][2].extend(_items(_WORDS, item[1]))
            _unique(inside[-1][2])
        elif kind == 2 and inside:
            inside[-1][4].extend([syntax.unescape(s[1:-1]) for s in _items(_STRINGS, item[2])])
        elif kind == _BODY.groups:
            decl = syntax.thimac_decl(*inside.pop())
            (inside[-1][3] if inside else roots).append(decl)
        else:
            raise _Declined
        item = _next(_BODY, text, item.end())
    return m, roots, arcs, item.end()
