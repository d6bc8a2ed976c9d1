"""The textual language for models, subdiagrams, events, chronologies, traces.

One ``.tm`` file holds one document: a model section followed by optional
subdiagram, event, chronology and trace sections, in that order. Parsing is
total: any input yields either a Document or a non-empty list of diagnostics
with source spans, never an exception.

    model airport {
      thimac counter "Counter" { stages: transfer, receive, process, release; }
      flow f1: counter.receive -> counter.process;
      trigger t1: counter.process -> ticket.create;
    }
    subdiagram s5 "TICKETED" { stages: counter.process; arcs: f1; }
    event E5 = s5 window 0..9
    chronology b { E1 -> E5; exclusive x1 { E1 | E2 }; start: E1; end: E5; }
    trace ok = [ E1 @ 0, E5 @ 1 ]
"""
from __future__ import annotations

import re
import string
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, count
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional, TypeVar

from . import diagnostics as dg
from .behavior import Chronology, ExclusiveGroup, Trace, check_trace_shape
from .errors import BoundExceeded, DuplicateId, UnresolvedStageRef
from .events import Event, Subdiagram
from .model import (
    MAX_NESTING,
    Arc,
    ArcKind,
    Notation,
    STAGE_ORDER,
    StageKind,
    StageRef,
    StaticModel,
    Thimac,
    build_model,
)

_STAGE_WORDS = {k.value: k for k in StageKind}
_SECTION_KEYWORDS = ("model", "subdiagram", "event", "chronology", "trace")
_T = TypeVar("_T")


@dataclass(frozen=True)
class SourceFile:
    path: str
    text: str

    @classmethod
    def read(cls, path: str) -> "SourceFile":
        with open(path, "rb") as f:
            return cls(path, f.read().decode("utf-8-sig", errors="replace"))

    @cached_property
    def _newlines(self) -> list[int]:
        """Offsets of the newlines, between virtual ones before and after the text."""
        return list(accumulate(map((1).__add__, map(len, self.text.split("\n"))), initial=-1))

    def span(self, offset: int) -> dg.Span:
        """File, line and column of a source offset; columns count code points. The
        first call builds the newline table, so a clean parse computes no position."""
        line = bisect_left(self._newlines, offset)
        return dg.Span(self.path, line, offset - self._newlines[line - 1])


@dataclass(frozen=True)
class Document:
    model: StaticModel
    subdiagrams: tuple[Subdiagram, ...] = ()
    events: tuple[Event, ...] = ()
    chronologies: tuple[Chronology, ...] = ()
    traces: tuple[Trace, ...] = ()
    # the source offset of each id's first declaration; SourceFile.span places it
    spans: Mapping[str, int] = field(default_factory=dict, compare=False, repr=False)


class ParseResult(NamedTuple):
    document: Optional[Document]
    diagnostics: list[dg.Diagnostic]


# ---------------------------------------------------------------------------
# Tokens

# Every character that is neither blank nor in a comment starts exactly one
# piece; a string is one piece, its closing quote group 2. \d is str.isdecimal,
# exactly the digits int() accepts. \w also admits numerals such as '²' or 'Ⅻ':
# a word that starts with one is an error there. The empty piece at the end is
# the eof token.
_PIECE = r"""( " (?: \\.? | [^"\\\n] )* (")? | -> | \.\. | \d+ | \w+ | [^ \t\r\n] | \Z )"""
# blanks and whole comments; the empty branch keeps the gaps without a comment,
# nearly all of them, out of the slower repeat of a group. A comment runs to the
# end of its line even where more of a pattern follows (the reader's patterns).
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*|)"
# a token is a piece and the blanks and comments after it, so no search fails
# and none is retried over trailing blanks; the first follows those at the start
_TOKEN, _LEAD = re.compile(_PIECE + _SKIP, re.VERBOSE | re.DOTALL), re.compile(_SKIP)
# token kind by first character, or by the whole piece for '->'; a lone '-' has none
_KIND = dict.fromkeys(string.ascii_letters + "_", "ident") | dict.fromkeys(string.digits, "int")
_KIND |= dict.fromkeys("{}:;,.@=[]|", "punct") | {'"': "string", "->": "punct"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def unescape(body: str) -> str:
    """The text of a string between its quotes: \\n and \\t are a newline and a tab, and
    a backslash before any other character stands for that character."""
    return _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), body) if "\\" in body else body


def _tokenize(text: str) -> tuple[list[str], list[str], list[int], list[tuple[str, int]]]:
    """The tokens of ``text`` as columns (kinds, texts and start offsets), ending in
    one eof token, and its lexical errors as (message, offset) pairs."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    errors: list[tuple[str, int]] = []
    pos = _LEAD.match(text).end()
    while piece := (m := _TOKEN.match(text, pos))[1]:
        start, pos, c = m.start(), m.end(), piece[0]
        kind = _KIND.get(c) or _KIND.get(piece) or ("ident" if c.isalpha() or c == "_" else "int" if c.isdecimal() else None)
        if kind is None:
            errors.append((f"unexpected character {c!r}", start))
            if len(piece) > 1:  # a word goes on after a bad first character
                pos = start + 1
            continue
        if kind == "string":
            if m[2] is None:
                errors.append(("unterminated string", start))
            piece = unescape(piece[1:] if m[2] is None else piece[1:-1])
        kinds.append(kind)
        texts.append(piece)
        starts.append(start)
    kinds.append("eof")
    texts.append("")
    starts.append(pos)
    return kinds, texts, starts, errors


def thimac_decl(name: str, label: str, words: list[str], children: list[Thimac], things: list[str]) -> Thimac:
    """A thimac from its stage words, each a stage kind or 'memory', each once."""
    stages = frozenset([_STAGE_WORDS[word] for word in words if word != "memory"])
    return Thimac(name, label, stages, tuple(children), tuple(things), "memory" in words)


def chronology_decl(name: str, explicit: list[str], edges: list[tuple[str, str]], groups: list[tuple[Optional[str], frozenset[str]]],
                    start: Optional[list[str]], end: Optional[list[str]]) -> Chronology:
    """A chronology from its items as written, groups as (name or None, members). The unnamed groups
    are named x1, x2, ..., skipping every explicit name."""
    taken = {g for g, _ in groups}
    auto = (f"x{n}" for n in count(1) if f"x{n}" not in taken)
    named = tuple(ExclusiveGroup(next(auto) if g is None else g, members) for g, members in groups)
    return Chronology(name, tuple(explicit), tuple(edges), named, None if start is None else tuple(start),
                      None if end is None else tuple(end))


class _SyntaxError(Exception):
    def __init__(self, message: str, at: int):
        super().__init__(message)
        self.message = message
        self.at = at  # token index


class _Parser:
    def __init__(self, src: SourceFile):
        self.src = src
        self.first: dict[str, int] = {}  # source offset of each id's first declaration
        self.kinds, self.texts, self.starts, errors = _tokenize(src.text)
        self.diags: list[dg.Diagnostic] = [dg.error(dg.SYNTAX, msg, span=src.span(at)) for msg, at in errors]
        self.pos = 0  # token index
        self.declared: list[int] = []  # token index of every declaration's id

    # -- token helpers

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        i = self.pos
        return self.kinds[i] == kind and (text is None or self.texts[i] == text)

    def at_keyword(self, *words: str) -> bool:
        i = self.pos
        return self.kinds[i] == "ident" and self.texts[i] in words

    def advance(self) -> str:
        i = self.pos
        if self.kinds[i] != "eof":
            self.pos = i + 1
        return self.texts[i]

    def expect(self, kind: str, text: Optional[str] = None, what: str = "") -> str:
        i = self.pos
        if self.kinds[i] == kind and (text is None or self.texts[i] == text):
            self.pos = i + 1
            return self.texts[i]
        raise self.unexpected(what or text or kind)

    def unexpected(self, expected: str) -> _SyntaxError:
        i = self.pos
        found = self.texts[i] if self.kinds[i] != "eof" else "end of file"
        return _SyntaxError(f"expected {expected}, found {found!r}", i)

    def integer(self, what: str) -> int:
        digits = self.expect("int", what=what)
        try:
            return int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise _SyntaxError(f"{what} has too many digits ({len(digits)})", self.pos - 1) from None

    def declare(self, what: str) -> str:
        """Expect a declaration's id; an id's first declaration gives its span."""
        i = self.pos
        name = self.expect("ident", what=what)
        self.first.setdefault(name, self.starts[i])
        self.declared.append(i)
        return name

    def report(self, message: str, at: int, code: str = dg.SYNTAX, elements: tuple[str, ...] = ()) -> None:
        """An error at token ``at``."""
        self.diags.append(dg.error(code, message, elements, self.src.span(self.starts[at])))

    def sync_to_section(self) -> None:
        # On error, skip ahead to the next plausible section start.
        depth = 0
        while not self.at("eof"):
            kind, text = self.kinds[self.pos], self.texts[self.pos]
            if kind == "punct" and text == "{":
                depth += 1
            elif kind == "punct" and text == "}":
                depth = max(0, depth - 1)
            elif depth == 0 and kind == "ident" and text in _SECTION_KEYWORDS:
                return
            self.advance()

    # -- grammar: one method per rule (N. Wirth, Compiler Construction, 1996)

    def items(self, item: Callable[[], _T], sep: str = ",") -> list[_T]:
        """item {sep item}"""
        found = [item()]
        while self.kinds[self.pos] == "punct" and self.texts[self.pos] == sep:
            self.pos += 1
            found.append(item())
        return found

    def clause(self, item: Callable[[], _T]) -> list[_T]:
        """keyword ":" items ";", read from the keyword on"""
        self.advance()
        self.expect("punct", ":")
        found = self.items(item)
        self.expect("punct", ";")
        return found

    def event_id(self) -> str:
        return self.expect("ident", what="event id")

    def document(self) -> Optional[Document]:
        # each section's keyword is read here, and its rule, the method <keyword>_section, reads the rest
        rules = {word: getattr(self, f"{word}_section") for word in _SECTION_KEYWORDS}
        sections: dict[str, list[tuple[int, object]]] = {word: [] for word in _SECTION_KEYWORDS}  # (id token, parsed or None)
        reached = -1
        while not self.at("eof"):
            at, word = self.pos, self.texts[self.pos]
            if not self.at_keyword(*_SECTION_KEYWORDS):
                self.report(f"expected a section keyword ({', '.join(_SECTION_KEYWORDS)}), found {word!r}", at)
                self.advance()
                self.sync_to_section()
                continue
            rank = _SECTION_KEYWORDS.index(word)
            if word == "model" and sections["model"]:
                self.report("a document holds exactly one model section", at, dg.DUPLICATE_SECTION)
            elif rank < reached:
                self.report(f"{word} section out of order (sections go model, subdiagram, event, chronology, trace)", at)
            reached = max(reached, rank)
            self.advance()
            try:
                parsed = rules[word]()
            except _SyntaxError as e:
                self.report(e.message, e.at)
                self.sync_to_section()
                parsed = None
            sections[word].append((at + 1, parsed))

        models = sections.pop("model")
        model = models[0][1] if models else None  # the first model section decides
        if model is None:
            if not models:
                self.report("a document needs a model section", self.pos)
            return None

        # a section that did not parse declares nothing
        sections = {what: [(i, s) for i, s in found if s is not None] for what, found in sections.items()}
        for what, found in sections.items():
            seen: set[str] = set()
            for i, _ in found:
                name = self.texts[i]
                if name in seen:
                    self.report(f"duplicate {what} id '{name}'", i, elements=(name,))
                seen.add(name)
        for i, trace in sections["trace"]:
            problem = check_trace_shape(trace)
            if problem is not None:
                self.report(f"trace '{trace.id}': {problem}", i, elements=(trace.id,))
        return Document(model, *(tuple(s for _, s in found) for found in sections.values()),
                        spans=MappingProxyType(self.first))

    def model_section(self) -> Optional[StaticModel]:
        mark = len(self.declared)
        name = self.expect("ident", what="model name")
        notation = Notation.FULL
        if self.at_keyword("simplified"):
            self.advance()
            notation = Notation.SIMPLIFIED
        self.expect("punct", "{")
        thimacs: list[Thimac] = []
        arcs: list[Arc] = []
        while not self.at("punct", "}"):
            if self.at_keyword("thimac"):
                thimacs.append(self.thimac_decl(1))
            elif self.at_keyword("flow", "trigger"):
                arcs.append(self.arc_decl())
            else:
                raise self.unexpected("thimac, flow or trigger")
        self.expect("punct", "}")
        try:
            return build_model(name, thimacs, arcs, notation)
        except (DuplicateId, UnresolvedStageRef) as e:
            # a duplicate at its second thimac or arc declaration, an unresolved stage at its arc
            keywords = ("thimac",) if isinstance(e, DuplicateId) and e.kind == "thimac" else ("flow", "trigger")
            at = [i for i in self.declared[mark:] if self.texts[i] == e.element_id and self.texts[i - 1] in keywords]
            self.report(str(e), at[1] if isinstance(e, DuplicateId) else at[0])
            return None

    def thimac_decl(self, depth: int) -> Thimac:
        self.expect("ident", "thimac")
        if depth > MAX_NESTING:  # build_model's limit, checked before this rule recurses deeper
            raise _SyntaxError(f"thimacs nest more than {MAX_NESTING} deep", self.pos - 1)
        name = self.declare("thimac id")
        label = self.expect("string", what="thimac label")
        self.expect("punct", "{")
        words: list[str] = []  # stage kinds and memory, each once
        things: list[str] = []
        children: list[Thimac] = []

        def stage_word() -> None:
            word = self.expect("ident", what="stage kind")
            if word not in _STAGE_WORDS and word != "memory":
                raise _SyntaxError(f"unknown stage kind {word!r}", self.pos - 1)
            if word not in words:
                words.append(word)
            elif word == "memory":
                self.report("memory declared twice", self.pos - 1)
            else:
                self.report(f"a machine holds one {word} stage, '{name}' declares two", self.pos - 1)

        while not self.at("punct", "}"):
            if self.at_keyword("stages"):
                self.clause(stage_word)
            elif self.at_keyword("things"):
                things += self.clause(self.thing_label)
            elif self.at_keyword("thimac"):
                children.append(self.thimac_decl(depth + 1))
            else:
                raise self.unexpected("stages, things or thimac")
        self.expect("punct", "}")
        return thimac_decl(name, label, words, children, things)

    def thing_label(self) -> str:
        return self.expect("string", what="thing label")

    def arc_decl(self) -> Arc:
        kind = ArcKind.FLOW if self.advance() == "flow" else ArcKind.TRIGGER
        name = self.declare("arc id")
        self.expect("punct", ":")
        src = self.stage_ref()
        self.expect("punct", "->")
        dst = self.stage_ref()
        self.expect("punct", ";")
        return Arc(name, kind, src, dst)

    def stage_ref(self) -> StageRef:
        thimac = self.expect("ident", what="thimac id")
        self.expect("punct", ".")
        word = self.expect("ident", what="stage kind")
        if word not in _STAGE_WORDS:
            raise _SyntaxError(f"unknown stage kind {word!r}", self.pos - 1)
        return StageRef(thimac, _STAGE_WORDS[word])

    def arc_id(self) -> str:
        return self.expect("ident", what="arc id")

    def subdiagram_section(self) -> Subdiagram:
        name = self.declare("subdiagram id")
        label = self.expect("string", what="subdiagram label")
        self.expect("punct", "{")
        stages: list[StageRef] = []
        arcs: list[str] = []
        while not self.at("punct", "}"):
            if self.at_keyword("stages"):
                stages += self.clause(self.stage_ref)
            elif self.at_keyword("arcs"):
                arcs += self.clause(self.arc_id)
            else:
                raise self.unexpected("stages or arcs")
        self.expect("punct", "}")
        return Subdiagram(name, label, tuple(stages), tuple(arcs))

    def event_section(self) -> Event:
        name = self.declare("event id")
        self.expect("punct", "=")
        sub = self.expect("ident", what="subdiagram id")
        window = None
        if self.at_keyword("window"):
            self.advance()
            t0 = self.integer("window start")
            self.expect("punct", "..")
            window = (t0, self.integer("window end"))
        return Event(name, sub, window)

    def chronology_section(self) -> Chronology:
        name = self.declare("chronology id")
        self.expect("punct", "{")
        explicit: list[str] = []
        edges: list[tuple[str, str]] = []
        groups: list[tuple[Optional[int], frozenset[str]]] = []  # (name token or None, members)
        start: Optional[list[str]] = None
        end: Optional[list[str]] = None
        while not self.at("punct", "}"):
            # an identifier followed by '->' is an edge, even when the event
            # id collides with an item keyword like 'end'
            if self.at("ident") and self.kinds[self.pos + 1] == "punct" and self.texts[self.pos + 1] == "->":
                chain = self.items(self.event_id, "->")
                edges.extend(zip(chain, chain[1:]))
                self.expect("punct", ";")
            elif self.at_keyword("events"):
                explicit += self.clause(self.event_id)
            elif self.at_keyword("exclusive"):
                self.advance()
                named = self.pos if self.at("ident") else None  # the group name's token
                self.pos += named is not None
                self.expect("punct", "{")
                members = self.items(self.event_id, "|")
                self.expect("punct", "}")
                self.expect("punct", ";")
                groups.append((named, frozenset(members)))
            elif self.at_keyword("start"):
                start = self.clause(self.event_id)
            elif self.at_keyword("end"):
                end = self.clause(self.event_id)
            else:
                raise self.unexpected("a chronology item")
        self.expect("punct", "}")

        seen: set[str] = set()
        for i in [i for i, _ in groups if i is not None]:
            if self.texts[i] in seen:
                self.report(f"chronology '{name}' names exclusive group '{self.texts[i]}' twice", i)
            seen.add(self.texts[i])
        named = [(None if i is None else self.texts[i], members) for i, members in groups]
        return chronology_decl(name, explicit, edges, named, start, end)

    def trace_section(self) -> Trace:
        name = self.declare("trace id")
        self.expect("punct", "=")
        self.expect("punct", "[")
        occurrences = [] if self.at("punct", "]") else self.items(self.occurrence)
        self.expect("punct", "]")
        return Trace(name, tuple(occurrences))

    def occurrence(self) -> tuple[str, int]:
        event = self.event_id()
        self.expect("punct", "@")
        return (event, self.integer("timestamp"))


# ---------------------------------------------------------------------------
# Reader: the fast path of parse, one regular expression match per declaration. It reads a text
# iff the token parser reports no error in it and no character beyond ASCII stands outside its strings
# and comments; the token parser, the only source of diagnostics and of identifiers and numerals beyond
# ASCII, reads every text it declines: a fast first pass and a precise second one, as CPython's PEG
# parser reports syntax errors (PEP 617).

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
    pattern = pattern.replace(" ", _SKIP)
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


def _read(src: SourceFile) -> Optional[Document]:
    """The document in ``src`` as the token parser reads it, with the source offset of each
    declaration's id for its spans, or None where that parser reports an error."""
    try:
        return _document(src.text)
    # ValueError: an integer too long for int(); the others: a model build_model refuses
    except (_Declined, ValueError, BoundExceeded, DuplicateId, UnresolvedStageRef):
        return None


def _document(text: str) -> Document:
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
    model = build_model(header[1], roots, arcs, Notation.SIMPLIFIED if header[2] else Notation.FULL)
    return Document(model, *sections, spans=MappingProxyType(first))


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
    return Subdiagram(m[1], unescape(m[2][1:-1]), stages, arcs)


def _chronology(m: re.Match[str], items: list[re.Match[str]]) -> Chronology:
    lists = [(i.lastindex, _words(i[i.lastindex], "->", ",", "|")) for i in items]
    edges = [edge for kind, ids in lists if kind == 1 for edge in zip(ids, ids[1:])]
    explicit = [e for kind, ids in lists if kind == 2 for e in ids]
    groups = [(i[3], frozenset(ids)) for i, (kind, ids) in zip(items, lists) if kind == 4]
    last = dict(lists)  # a start or end clause replaces the one before it
    _unique([g for g, _ in groups if g is not None])
    return chronology_decl(m[1], explicit, edges, groups, last.get(5), last.get(6))


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
            inside.append((item[3], unescape(item[4][1:-1]), [], [], []))
        elif kind == 10 and not inside:
            first.setdefault(item[6], item.start(6))
            src, dst = StageRef(item[7], _STAGE_WORDS[item[8]]), StageRef(item[9], _STAGE_WORDS[item[10]])
            arcs.append(Arc(item[6], _FLOW if item[5] == "flow" else _TRIGGER, src, dst))
        elif kind == 1 and inside:
            inside[-1][2].extend(_words(item[1], ","))
            _unique(inside[-1][2])
        elif kind == 2 and inside:
            inside[-1][4].extend([unescape(s[1:-1]) for s in _LITERALS.findall(item[2]) if s])
        elif kind == body.groups:
            decl = thimac_decl(*inside.pop())
            (inside[-1][3] if inside else roots).append(decl)
        else:
            raise _Declined
        item = _next(body, text, item.end())
    return m, roots, arcs, item.end()


def parse(source: SourceFile) -> ParseResult:
    """Parse one document. Never raises on any input text. The token parser reads
    every document ``_read`` declines; it alone reports diagnostics."""
    doc = _read(source)
    if doc is not None:
        return ParseResult(doc, [])
    p = _Parser(source)
    doc = p.document()
    if dg.has_errors(p.diags):
        return ParseResult(None, p.diags)
    return ParseResult(doc, p.diags)


def parse_text(text: str, path: str = "<memory>") -> ParseResult:
    return parse(SourceFile(path, text))


# ---------------------------------------------------------------------------
# Printing


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t") + '"'


def _print_thimac(t, out: list[str], indent: int) -> None:
    pad = "  " * indent
    out.append(f"{pad}thimac {t.id} {_quote(t.label)} {{")
    words = [k.value for k in STAGE_ORDER if k in t.stages] + (["memory"] if t.memory else [])
    if words:
        out.append(f"{pad}  stages: {', '.join(words)};")
    if t.things:
        out.append(f"{pad}  things: {', '.join(_quote(x) for x in t.things)};")
    for c in t.children:
        _print_thimac(c, out, indent + 1)
    out.append(f"{pad}}}")


def print_document(doc: Document) -> str:
    """Canonical text: parse(print_document(d)) is structurally equal to d."""
    out: list[str] = []
    m = doc.model
    mode = " simplified" if m.notation is Notation.SIMPLIFIED else ""
    out.append(f"model {m.name}{mode} {{")
    for t in m.roots:
        _print_thimac(t, out, 1)
    for a in m.arcs:
        out.append(f"  {a.kind.value} {a.id}: {a.src} -> {a.dst};")
    out.append("}")

    for s in doc.subdiagrams:
        out.append("")
        out.append(f"subdiagram {s.id} {_quote(s.label)} {{")
        if s.stages:
            out.append(f"  stages: {', '.join(str(r) for r in s.stages)};")
        if s.arcs:
            out.append(f"  arcs: {', '.join(s.arcs)};")
        out.append("}")

    if doc.events:
        out.append("")
    for e in doc.events:
        suffix = f" window {e.window[0]}..{e.window[1]}" if e.window is not None else ""
        out.append(f"event {e.id} = {e.subdiagram}{suffix}")

    for c in doc.chronologies:
        out.append("")
        out.append(f"chronology {c.id} {{")
        if c.event_ids:
            out.append(f"  events: {', '.join(c.event_ids)};")
        for u, v in c.edges:
            out.append(f"  {u} -> {v};")
        for g in c.groups:
            out.append(f"  exclusive {g.name} {{ {' | '.join(sorted(g.members))} }};")
        if c.start is not None:
            out.append(f"  start: {', '.join(c.start)};")
        if c.end is not None:
            out.append(f"  end: {', '.join(c.end)};")
        out.append("}")

    if doc.traces:
        out.append("")
    for t in doc.traces:
        body = ", ".join(f"{e} @ {ts}" for e, ts in t.occurrences)
        out.append(f"trace {t.id} = [ {body} ]")

    return "\n".join(out) + "\n"
