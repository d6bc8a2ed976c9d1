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
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

from . import diagnostics as dg
from .behavior import ChronologyDecl, ExclusiveGroup, Trace, check_trace_shape
from .errors import TmkitError
from .events import Event, Subdiagram
from .model import (
    ArcDecl,
    ArcKind,
    Notation,
    STAGE_ORDER,
    StageKind,
    StageRef,
    StaticModel,
    ThimacDecl,
    build_model,
)

# Deeper thimac nesting is refused at parse time, which also bounds the
# recursion of every tree walk over a parsed model.
MAX_NESTING = 100

_STAGE_WORDS = {k.value: k for k in StageKind}
_SECTION_KEYWORDS = ("model", "subdiagram", "event", "chronology", "trace")


@dataclass(frozen=True)
class SourceFile:
    path: str
    text: str

    @classmethod
    def read(cls, path: str) -> "SourceFile":
        with open(path, "rb") as f:
            return cls(path, f.read().decode("utf-8", errors="replace"))


@dataclass(frozen=True)
class Document:
    model: StaticModel
    subdiagrams: tuple[Subdiagram, ...] = ()
    events: tuple[Event, ...] = ()
    chronologies: tuple[ChronologyDecl, ...] = ()
    traces: tuple[Trace, ...] = ()
    spans: dict = field(default_factory=dict, compare=False, repr=False)

    def span_of(self, element_id: str) -> dg.Span:
        return self.spans.get(element_id, dg.Span())


@dataclass(frozen=True)
class ParseResult:
    document: Optional[Document]
    diagnostics: list[dg.Diagnostic]

    @property
    def ok(self) -> bool:
        return self.document is not None and not self.diagnostics


# ---------------------------------------------------------------------------
# Tokens


class Token(NamedTuple):
    kind: str  # ident | string | int | punct | eof
    text: str
    pos: int  # offset of the first character in the source text


# Whitespace and comments lead every match, so each token takes exactly one.
# \d is str.isdecimal, exactly the digits int() accepts. \w also admits
# numerals such as '²' or 'Ⅻ', so an identifier that does not start with an
# ASCII letter or '_' is a ``word``, which must start with an alpha character.
_TOKEN = re.compile(
    r"""
    [ \t\r\n]* (?: \#[^\n]* [ \t\r\n]* )*
    (?: (?P<ident> [A-Za-z_]\w* )
      | (?P<punct> -> | \.\. | [{}:;,.@=\[\]|] )
      | (?P<int> \d+ )
      | (?P<string> " (?P<body> (?: \\.? | [^"\\\n] )* ) (?P<close> ")? )
      | (?P<word> [^\W\d]\w* )
      | (?P<other> . )
    )?
    """,
    re.VERBOSE | re.DOTALL,
)
_PLAIN = frozenset(("ident", "punct", "int"))
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def _tokenize(text: str) -> tuple[list[Token], list[tuple[str, int]]]:
    """The tokens of ``text``, ending in one eof token, and its lexical errors
    as (message, offset) pairs."""
    toks: list[Token] = []
    errors: list[tuple[str, int]] = []
    match, append, new, pos = _TOKEN.match, toks.append, tuple.__new__, 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        if kind is None:
            append(Token("eof", "", m.end()))
            return toks, errors
        start, pos = m.span(kind)
        if kind in _PLAIN:
            append(new(Token, (kind, m[kind], start)))  # Token(...) minus its Python-level __new__
        elif kind == "string":
            body = m["body"]
            if "\\" in body:
                body = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), body)
            if m["close"] is None:
                errors.append(("unterminated string", start))
            append(Token("string", body, start))
        elif kind == "word" and text[start].isalpha():
            append(Token("ident", m[kind], start))
        else:
            errors.append((f"unexpected character {text[start]!r}", start))
            pos = start + 1


def _found(tok: Token) -> str:
    return repr(tok.text if tok.kind != "eof" else "end of file")


class _SyntaxError(Exception):
    def __init__(self, message: str, tok: Token):
        super().__init__(message)
        self.message = message
        self.tok = tok


class _Parser:
    def __init__(self, src: SourceFile):
        self.src = src
        self.toks, errors = _tokenize(src.text)
        # offsets of the newlines, after a virtual one before the text
        self.newlines = [-1] + [m.start() for m in re.finditer("\n", src.text)]
        self.diags: list[dg.Diagnostic] = [dg.error(dg.SYNTAX, msg, span=self.span(at)) for msg, at in errors]
        self.pos = 0
        self.spans: dict[str, dg.Span] = {}

    # -- token helpers

    def peek(self) -> Token:
        return self.toks[self.pos]

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.toks[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def at_keyword(self, *words: str) -> bool:
        t = self.toks[self.pos]
        return t.kind == "ident" and t.text in words

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None, what: str = "") -> Token:
        t = self.toks[self.pos]
        if t.kind == kind and (text is None or t.text == text):
            self.pos += 1
            return t
        raise _SyntaxError(f"expected {what or text or kind}, found {_found(t)}", t)

    def span(self, pos: int) -> dg.Span:
        """File, line and column of a source offset; columns count code points."""
        line = bisect_left(self.newlines, pos)
        return dg.Span(self.src.path, line, pos - self.newlines[line - 1])

    def report(self, message: str, tok: Token) -> None:
        self.diags.append(dg.error(dg.SYNTAX, message, span=self.span(tok.pos)))

    def sync_to_section(self) -> None:
        # On error, skip ahead to the next plausible section start.
        depth = 0
        while not self.at("eof"):
            t = self.peek()
            if t.kind == "punct" and t.text == "{":
                depth += 1
            elif t.kind == "punct" and t.text == "}":
                depth = max(0, depth - 1)
            elif depth == 0 and t.kind == "ident" and t.text in _SECTION_KEYWORDS:
                return
            self.advance()

    # -- grammar

    def document(self) -> Optional[Document]:
        model: Optional[StaticModel] = None
        saw_model = False
        subdiagrams: list[Subdiagram] = []
        events: list[Event] = []
        chronologies: list[ChronologyDecl] = []
        traces: list[Trace] = []
        section_rank = {"model": 0, "subdiagram": 1, "event": 2, "chronology": 3, "trace": 4}
        reached = -1

        while not self.at("eof"):
            t = self.peek()
            if t.kind != "ident" or t.text not in _SECTION_KEYWORDS:
                self.report(f"expected a section keyword ({', '.join(_SECTION_KEYWORDS)}), found {t.text!r}", t)
                self.advance()
                self.sync_to_section()
                continue
            rank = section_rank[t.text]
            if t.text == "model" and saw_model:
                self.diags.append(
                    dg.error(dg.DUPLICATE_SECTION, "a document holds exactly one model section", span=self.span(t.pos))
                )
            elif rank < reached:
                self.report(f"{t.text} section out of order (sections go model, subdiagram, event, chronology, trace)", t)
            reached = max(reached, rank)
            try:
                if t.text == "model":
                    first = not saw_model
                    saw_model = True
                    parsed = self.model_section()
                    if first:
                        model = parsed
                elif t.text == "subdiagram":
                    subdiagrams.append(self.subdiagram_section())
                elif t.text == "event":
                    events.append(self.event_section())
                elif t.text == "chronology":
                    chronologies.append(self.chronology_section(len(chronologies)))
                else:
                    traces.append(self.trace_section())
            except _SyntaxError as e:
                self.report(e.message, e.tok)
                self.sync_to_section()

        if model is None:
            if not saw_model:
                self.report("a document needs a model section", self.peek())
            return None

        self._check_unique("subdiagram", [s.id for s in subdiagrams])
        self._check_unique("event", [e.id for e in events])
        self._check_unique("chronology", [c.id for c in chronologies])
        self._check_unique("trace", [t.id for t in traces])
        for trace in traces:
            problem = check_trace_shape(trace)
            if problem is not None:
                self.diags.append(
                    dg.error(dg.SYNTAX, f"trace '{trace.id}': {problem}", (trace.id,), self.spans.get(trace.id, dg.Span()))
                )

        return Document(
            model=model,
            subdiagrams=tuple(subdiagrams),
            events=tuple(events),
            chronologies=tuple(chronologies),
            traces=tuple(traces),
            spans=self.spans,
        )

    def _check_unique(self, what: str, ids: list[str]) -> None:
        seen: set[str] = set()
        for i in ids:
            if i in seen:
                self.diags.append(
                    dg.error(dg.SYNTAX, f"duplicate {what} id '{i}'", (i,), self.spans.get(i, dg.Span()))
                )
            seen.add(i)

    def model_section(self) -> Optional[StaticModel]:
        self.expect("ident", "model")
        name = self.expect("ident", what="model name").text
        notation = Notation.FULL
        if self.at_keyword("simplified"):
            self.advance()
            notation = Notation.SIMPLIFIED
        self.expect("punct", "{")
        thimacs: list[ThimacDecl] = []
        arcs: list[ArcDecl] = []
        while not self.at("punct", "}"):
            if self.at_keyword("thimac"):
                thimacs.append(self.thimac_decl(1))
            elif self.at_keyword("flow", "trigger"):
                arcs.append(self.arc_decl())
            else:
                raise _SyntaxError(f"expected thimac, flow or trigger, found {_found(self.peek())}", self.peek())
        self.expect("punct", "}")
        try:
            return build_model(name, thimacs, arcs, notation)
        except TmkitError as e:
            self.diags.append(dg.error(dg.SYNTAX, str(e), span=dg.Span(self.src.path, 1, 1)))
            return None

    def thimac_decl(self, depth: int) -> ThimacDecl:
        keyword = self.expect("ident", "thimac")
        if depth > MAX_NESTING:
            raise _SyntaxError(f"thimacs nest more than {MAX_NESTING} deep", keyword)
        name_tok = self.expect("ident", what="thimac id")
        self.spans.setdefault(name_tok.text, self.span(name_tok.pos))
        label = self.expect("string", what="thimac label").text
        self.expect("punct", "{")
        stages: list[StageKind] = []
        memory = False
        things: list[str] = []
        children: list[ThimacDecl] = []
        while not self.at("punct", "}"):
            if self.at_keyword("stages"):
                self.advance()
                self.expect("punct", ":")
                while True:
                    tok = self.expect("ident", what="stage kind")
                    if tok.text == "memory":
                        if memory:
                            self.report("memory declared twice", tok)
                        memory = True
                    elif tok.text in _STAGE_WORDS:
                        kind = _STAGE_WORDS[tok.text]
                        if kind in stages:
                            self.report(f"a machine holds one {kind.value} stage, '{name_tok.text}' declares two", tok)
                        else:
                            stages.append(kind)
                    else:
                        raise _SyntaxError(f"unknown stage kind {tok.text!r}", tok)
                    if self.at("punct", ","):
                        self.advance()
                        continue
                    break
                self.expect("punct", ";")
            elif self.at_keyword("things"):
                self.advance()
                self.expect("punct", ":")
                while True:
                    things.append(self.expect("string", what="thing label").text)
                    if self.at("punct", ","):
                        self.advance()
                        continue
                    break
                self.expect("punct", ";")
            elif self.at_keyword("thimac"):
                children.append(self.thimac_decl(depth + 1))
            else:
                raise _SyntaxError(f"expected stages, things or thimac, found {_found(self.peek())}", self.peek())
        self.expect("punct", "}")
        return ThimacDecl(name_tok.text, label, stages, children, things, memory)

    def arc_decl(self) -> ArcDecl:
        kind = ArcKind.FLOW if self.advance().text == "flow" else ArcKind.TRIGGER
        name_tok = self.expect("ident", what="arc id")
        self.spans.setdefault(name_tok.text, self.span(name_tok.pos))
        self.expect("punct", ":")
        src = self.stage_ref()
        self.expect("punct", "->")
        dst = self.stage_ref()
        self.expect("punct", ";")
        return ArcDecl(name_tok.text, kind, src, dst)

    def stage_ref(self) -> tuple[str, StageKind]:
        thimac = self.expect("ident", what="thimac id").text
        self.expect("punct", ".")
        tok = self.expect("ident", what="stage kind")
        if tok.text not in _STAGE_WORDS:
            raise _SyntaxError(f"unknown stage kind {tok.text!r}", tok)
        return (thimac, _STAGE_WORDS[tok.text])

    def subdiagram_section(self) -> Subdiagram:
        self.expect("ident", "subdiagram")
        name_tok = self.expect("ident", what="subdiagram id")
        self.spans.setdefault(name_tok.text, self.span(name_tok.pos))
        label = self.expect("string", what="subdiagram label").text
        self.expect("punct", "{")
        stages: list[StageRef] = []
        arcs: list[str] = []
        while not self.at("punct", "}"):
            if self.at_keyword("stages"):
                self.advance()
                self.expect("punct", ":")
                while True:
                    stages.append(StageRef(*self.stage_ref()))
                    if self.at("punct", ","):
                        self.advance()
                        continue
                    break
                self.expect("punct", ";")
            elif self.at_keyword("arcs"):
                self.advance()
                self.expect("punct", ":")
                while True:
                    arcs.append(self.expect("ident", what="arc id").text)
                    if self.at("punct", ","):
                        self.advance()
                        continue
                    break
                self.expect("punct", ";")
            else:
                raise _SyntaxError(f"expected stages or arcs, found {_found(self.peek())}", self.peek())
        self.expect("punct", "}")
        return Subdiagram(name_tok.text, label, tuple(stages), tuple(arcs))

    def event_section(self) -> Event:
        self.expect("ident", "event")
        name_tok = self.expect("ident", what="event id")
        self.spans.setdefault(name_tok.text, self.span(name_tok.pos))
        self.expect("punct", "=")
        sub = self.expect("ident", what="subdiagram id").text
        window = None
        if self.at_keyword("window"):
            self.advance()
            t0 = int(self.expect("int", what="window start").text)
            self.expect("punct", "..")
            t1 = int(self.expect("int", what="window end").text)
            window = (t0, t1)
        return Event(name_tok.text, sub, window)

    def chronology_section(self, index: int) -> ChronologyDecl:
        self.expect("ident", "chronology")
        name_tok = self.expect("ident", what="chronology id")
        self.spans.setdefault(name_tok.text, self.span(name_tok.pos))
        self.expect("punct", "{")
        explicit: list[str] = []
        edges: list[tuple[str, str]] = []
        groups: list[ExclusiveGroup] = []
        starts: Optional[list[str]] = None
        ends: Optional[list[str]] = None
        auto = 0
        while not self.at("punct", "}"):
            # an identifier followed by '->' is an edge, even when the event
            # id collides with an item keyword like 'end'
            next_tok = self.toks[min(self.pos + 1, len(self.toks) - 1)]
            if self.at("ident") and next_tok.kind == "punct" and next_tok.text == "->":
                chain = [self.advance().text]
                while self.at("punct", "->"):
                    self.advance()
                    chain.append(self.expect("ident", what="event id").text)
                edges.extend(zip(chain, chain[1:]))
                self.expect("punct", ";")
            elif self.at_keyword("events"):
                self.advance()
                self.expect("punct", ":")
                explicit.extend(self.id_list())
                self.expect("punct", ";")
            elif self.at_keyword("exclusive"):
                self.advance()
                if self.at("ident"):
                    group_name = self.advance().text
                else:
                    auto += 1
                    group_name = f"x{auto}"
                    while any(g.name == group_name for g in groups):
                        auto += 1
                        group_name = f"x{auto}"
                self.expect("punct", "{")
                members = [self.expect("ident", what="event id").text]
                while self.at("punct", "|"):
                    self.advance()
                    members.append(self.expect("ident", what="event id").text)
                self.expect("punct", "}")
                self.expect("punct", ";")
                groups.append(ExclusiveGroup(group_name, frozenset(members)))
            elif self.at_keyword("start"):
                self.advance()
                self.expect("punct", ":")
                starts = self.id_list()
                self.expect("punct", ";")
            elif self.at_keyword("end"):
                self.advance()
                self.expect("punct", ":")
                ends = self.id_list()
                self.expect("punct", ";")
            else:
                raise _SyntaxError(f"expected a chronology item, found {_found(self.peek())}", self.peek())
        self.expect("punct", "}")

        seen_groups: set[str] = set()
        for g in groups:
            if g.name in seen_groups:
                self.report(f"chronology '{name_tok.text}' names exclusive group '{g.name}' twice", name_tok)
            seen_groups.add(g.name)

        decl = ChronologyDecl(
            id=name_tok.text,
            event_ids=tuple(explicit),
            edges=tuple(edges),
            groups=tuple(groups),
            starts=tuple(starts) if starts is not None else None,
            ends=tuple(ends) if ends is not None else None,
        )
        return replace(decl, event_ids=tuple(sorted(decl.mentioned())))

    def id_list(self) -> list[str]:
        ids = [self.expect("ident", what="event id").text]
        while self.at("punct", ","):
            self.advance()
            ids.append(self.expect("ident", what="event id").text)
        return ids

    def trace_section(self) -> Trace:
        self.expect("ident", "trace")
        name_tok = self.expect("ident", what="trace id")
        self.spans.setdefault(name_tok.text, self.span(name_tok.pos))
        self.expect("punct", "=")
        self.expect("punct", "[")
        occurrences: list[tuple[str, int]] = []
        if not self.at("punct", "]"):
            while True:
                ev = self.expect("ident", what="event id").text
                self.expect("punct", "@")
                ts = int(self.expect("int", what="timestamp").text)
                occurrences.append((ev, ts))
                if self.at("punct", ","):
                    self.advance()
                    continue
                break
        self.expect("punct", "]")
        return Trace(name_tok.text, tuple(occurrences))


def parse(source: SourceFile) -> ParseResult:
    """Parse one document. Never raises on any input text."""
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
        if c.starts is not None:
            out.append(f"  start: {', '.join(c.starts)};")
        if c.ends is not None:
            out.append(f"  end: {', '.join(c.ends)};")
        out.append("}")

    if doc.traces:
        out.append("")
    for t in doc.traces:
        body = ", ".join(f"{e} @ {ts}" for e, ts in t.occurrences)
        out.append(f"trace {t.id} = [ {body} ]")

    return "\n".join(out) + "\n"
