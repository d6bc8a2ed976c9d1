import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings

from tmkit import diagnostics as dg
from tmkit.cli import main
from tmkit.model import MAX_NESTING
from tmkit.syntax import SourceFile, _Parser, parse, parse_text, print_document

from conftest import FIXTURES, LONG_INTEGERS, declaration_spans, load
from genutil import random_document
from oracles import first_declarations, tokenize_by_chars
from strategies import spliced_fixtures


def test_airport_document_shape(airport):
    assert len(airport.subdiagrams) == 14
    assert len(airport.events) == 14
    assert len(airport.chronologies) == 1
    assert {e.id for e in airport.events} == {f"E{i}" for i in range(1, 15)}


def test_model_only_file():
    res = parse_text('model lonely { thimac a "A" { stages: create; } }')
    assert res.document is not None and not res.diagnostics
    doc = res.document
    assert doc.subdiagrams == () and doc.events == () and doc.chronologies == () and doc.traces == ()


def test_reversed_arrow_is_a_syntax_error():
    res = parse_text('model m { thimac a "A" { stages: create, process; } flow f: a.process <- a.create; }')
    assert res.document is None
    assert any(d.code == dg.SYNTAX and d.span.line == 1 for d in res.diagnostics)


def test_duplicate_model_section():
    res = parse_text("model a { }\nmodel b { }")
    assert any(d.code == dg.DUPLICATE_SECTION for d in res.diagnostics)


def test_sections_out_of_order_reported():
    res = parse_text('model m { thimac a "A" { stages: create; } }\nevent E1 = s1\nsubdiagram s1 "S" { stages: a.create; }')
    assert res.document is None
    assert any("out of order" in d.message for d in res.diagnostics)


def test_trace_shape_is_checked_at_parse():
    base = 'model m { thimac a "A" { stages: create; } }\nsubdiagram s "S" { stages: a.create; }\nevent E1 = s\nevent E2 = s\n'
    res = parse_text(base + "trace t = [ E1 @ 5, E2 @ 3 ]")
    assert res.document is None and any("decrease" in d.message for d in res.diagnostics)
    res = parse_text(base + "trace t = [ E1 @ 1, E1 @ 2 ]")
    assert res.document is None and any("twice" in d.message for d in res.diagnostics)


def test_duplicate_stage_kind_in_machine_reported():
    res = parse_text('model m { thimac a "A" { stages: create, create; } }')
    assert res.document is None
    assert any("one create stage" in d.message for d in res.diagnostics)


def test_memory_round_trips_without_semantics():
    res = parse_text('model m { thimac a "A" { stages: create, memory; } }')
    assert res.document is not None and not res.diagnostics
    t = next(res.document.model.walk())
    assert t.memory
    assert "memory" in print_document(res.document)
    assert parse_text(print_document(res.document)).document == res.document


def test_diagnostics_carry_file_line_col():
    res = parse_text("model m {\n  junk;\n}", path="bad.tm")
    assert res.document is None
    d = res.diagnostics[0]
    assert str(d).startswith("bad.tm:2:")


def test_fixture_round_trips():
    for path in sorted(FIXTURES.glob("*.tm")):
        doc = load(path.name)
        printed = print_document(doc)
        again = parse_text(printed, path=path.name)
        assert again.document == doc, path.name
        assert print_document(again.document) == printed, path.name


def test_round_trip_500_random_documents():
    rng = random.Random(2024)
    for i in range(500):
        doc = random_document(rng)
        printed = print_document(doc)
        res = parse_text(printed)
        assert res.document is not None, (i, res.diagnostics, printed)
        assert res.document == doc, (i, printed)
        assert print_document(res.document) == printed, i


def test_parser_total_on_fuzz_inputs():
    rng = random.Random(99)
    fixtures = [p.read_text() for p in sorted(FIXTURES.glob("*.tm"))]
    for i in range(300):
        if i % 3 == 0:
            text = "".join(chr(rng.randint(1, 0x2FF)) for _ in range(rng.randint(0, 200)))
        elif i % 3 == 1:
            base = rng.choice(fixtures)
            text = base[: rng.randint(0, len(base))]
        else:
            base = rng.choice(fixtures)
            cut = rng.randint(0, max(0, len(base) - 5))
            text = base[:cut] + rng.choice(["|", "->", '"', "}", "@@", "\x00"]) + base[cut:]
        res = parse_text(text)  # must not raise
        assert res.document is not None or res.diagnostics


def test_parse_of_bytes_with_replacement_chars():
    blob = b"model m { \xff\xfe }"
    res = parse(SourceFile("x.tm", blob.decode("utf-8", errors="replace")))
    assert res.document is not None or res.diagnostics


def test_a_leading_byte_order_mark_is_skipped(tmp_path):
    plain, mark = (FIXTURES / "bread.tm").read_bytes(), b"\xef\xbb\xbf"
    bom = tmp_path / "bread.tm"
    bom.write_bytes(mark + plain)
    with_bom = parse(SourceFile.read(str(bom)))
    without = parse(SourceFile(str(bom), plain.decode("utf-8")))
    assert with_bom.document is not None and not with_bom.diagnostics
    assert with_bom.document == without.document
    assert dict(with_bom.document.spans) == dict(without.document.spans)
    # a mark anywhere but the first bytes is still an unexpected character
    cut = plain.index(b"\n") + 1
    for text, line in ((mark + mark + plain, 1), (plain[:cut] + mark + plain[cut:], 2)):
        bom.write_bytes(text)
        res = parse(SourceFile.read(str(bom)))
        assert res.document is None
        assert [(d.code, d.span.line, d.message) for d in res.diagnostics] == [(dg.SYNTAX, line, "unexpected character '\\ufeff'")]


def test_unterminated_string_reported():
    res = parse_text('model m { thimac a "A { stages: create; } }')
    assert res.document is None
    assert any("unterminated" in d.message for d in res.diagnostics)
    res = parse_text('model m { thimac a "A\\"\n  { stages: create; } }')  # the last quote is escaped
    assert any("unterminated" in d.message for d in res.diagnostics)


def test_superscript_digits_are_a_syntax_error():
    base = 'model m { thimac a "A" { stages: create; } }\nsubdiagram s "S" { stages: a.create; }\n'
    res = parse_text(base + "event E = s window ²..3", path="sup.tm")
    assert res.document is None
    assert any(d.code == dg.SYNTAX and d.span.file == "sup.tm" and d.span.line == 3 for d in res.diagnostics)


def nested_thimacs(depth):
    return "model m {\n" + "".join(f'thimac t{i} "T" {{\n' for i in range(depth)) + "}\n" * depth + "}\n"


def test_nesting_deeper_than_the_cap_is_a_syntax_error():
    res = parse_text(nested_thimacs(MAX_NESTING))
    assert res.document is not None and not res.diagnostics
    assert parse_text(print_document(res.document)).document is not None
    res = parse_text(nested_thimacs(1500), path="deep.tm")
    assert res.document is None
    assert [(d.code, d.span.line) for d in res.diagnostics] == [(dg.SYNTAX, MAX_NESTING + 2)]


def test_end_of_file_column_after_a_trailing_comment():
    res = parse_text('model m {\n  thimac a "A" { stages: process; } # trailing', path="c.tm")
    assert [str(d) for d in res.diagnostics] == [
        "c.tm:2:47: error: E-SYNTAX: expected thimac, flow or trigger, found 'end of file'"
    ]


def test_trailing_blanks_and_comments_take_one_scan():
    # a token search that failed at the end and was retried from each later blank
    # would take minutes on this text, which parses in milliseconds
    start = time.perf_counter()
    res = parse_text("model m { }" + " \n" * 50_000 + "# c\n" * 1_000, path="t.tm")
    assert res.document is not None and not res.diagnostics and time.perf_counter() - start < 2


def test_escaped_newline_in_a_string_ends_a_line():
    res = parse_text('model m {\n  thimac a "A\\\nB" { junk; }\n}', path="s.tm")
    assert [str(d) for d in res.diagnostics] == [
        "s.tm:3:6: error: E-SYNTAX: expected stages, things or thimac, found 'junk'"
    ]
    # the reader reads the document without the error, and places what follows the label
    src = SourceFile("s.tm", 'model m {\n  thimac a "A\\\nB" { }\n  thimac b "B" { }\n}')
    doc = parse(src).document
    assert doc.model.roots[0].label == "A\nB" and str(src.span(doc.spans["b"])) == "s.tm:4:10"


@pytest.mark.parametrize(
    "text, expected",
    [
        ("model m {", "expected thimac, flow or trigger"),
        ('model m {\n  thimac a "A" {', "expected stages, things or thimac"),
        ('model m {\n}\nsubdiagram s "S" {', "expected stages or arcs"),
        ("model m {\n}\nchronology c {", "expected a chronology item"),
        ("model m {\n}\nevent E = s window 1..", "expected window end"),
    ],
)
def test_end_of_file_is_named_in_grammar_errors(text, expected):
    res = parse_text(text)
    assert [d.message for d in res.diagnostics] == [f"{expected}, found 'end of file'"]


@pytest.mark.parametrize("where", sorted(LONG_INTEGERS))
def test_integers_too_long_to_convert_are_syntax_errors(where):
    text, diagnostic = LONG_INTEGERS[where]
    res = parse_text(text, path="big.tm")  # must not raise
    assert [str(d) for d in res.diagnostics] == [f"big.tm:{diagnostic}"]


_SECTIONS = 'model m { thimac a "A" { stages: create; } }\nsubdiagram s "S" { stages: a.create; }\n'
DUPLICATE_SECTION_IDS = {
    "subdiagram": (
        _SECTIONS + 'subdiagram s "T" { stages: a.create; }\n',
        ["3:12: error: E-SYNTAX: duplicate subdiagram id 's' [s]"],
    ),
    "subdiagram after a broken one": (
        _SECTIONS + 'subdiagram s "T" { junk; }\nsubdiagram s "U" { }\n',
        ["3:20: error: E-SYNTAX: expected stages or arcs, found 'junk'", "4:12: error: E-SYNTAX: duplicate subdiagram id 's' [s]"],
    ),
    "event": (_SECTIONS + "event E = s\nevent E = s\n", ["4:7: error: E-SYNTAX: duplicate event id 'E' [E]"]),
    "chronology": (
        _SECTIONS + "event E = s\nchronology c { events: E; }\nchronology c { events: E; }\n",
        ["5:12: error: E-SYNTAX: duplicate chronology id 'c' [c]"],
    ),
    "trace": (
        _SECTIONS + "event E = s\ntrace t = [ E @ 0 ]\ntrace t = [ E @ 1 ]\n",
        ["5:7: error: E-SYNTAX: duplicate trace id 't' [t]"],
    ),
}


@pytest.mark.parametrize("case", sorted(DUPLICATE_SECTION_IDS))
def test_duplicate_section_ids_are_placed_at_the_duplicate(case):
    text, diagnostics = DUPLICATE_SECTION_IDS[case]
    res = parse_text(text, path="dup.tm")
    assert res.document is None
    assert [str(d) for d in res.diagnostics] == [f"dup.tm:{d}" for d in diagnostics]


def test_a_malformed_trace_is_placed_at_its_own_declaration():
    # not at the event of the same id declared before it
    res = parse_text(_SECTIONS + "event E = s\ntrace E = [ E @ 1, E @ 2 ]\n", path="t.tm")
    assert res.document is None
    assert [str(d) for d in res.diagnostics] == ["t.tm:4:7: error: E-SYNTAX: trace 'E': event 'E' occurs twice [E]"]


def test_a_repeated_exclusive_group_name_is_placed_at_its_second_use():
    events = "event A = s\nevent B = s\nevent C = s\n\n"
    res = parse_text(_SECTIONS + events + "chronology c {\n  exclusive g { A | B };\n  exclusive g { A | C };\n}\n", path="x.tm")
    assert res.document is None
    assert [str(d) for d in res.diagnostics] == ["x.tm:9:13: error: E-SYNTAX: chronology 'c' names exclusive group 'g' twice"]


def test_unnamed_exclusive_groups_are_named_around_every_explicit_name():
    chronology = "chronology c { exclusive { A | B }; exclusive x1 { A | B }; exclusive { A | B }; }\n"
    res = parse_text(_SECTIONS + "event A = s\nevent B = s\n" + chronology)
    assert res.document is not None and not res.diagnostics, res.diagnostics
    assert [g.name for g in res.document.chronologies[0].groups] == ["x2", "x1", "x3"]
    assert parse_text(print_document(res.document)).document == res.document


_THIMAC = 'model m {\n  thimac a "A" { %s }\n}\n'
_SUBDIAGRAM = 'model m { thimac a "A" { stages: create; } flow f: a.create -> a.create; }\nsubdiagram s "S" { %s }\n'
_CHRONOLOGY = _SUBDIAGRAM % "stages: a.create;" + "event A = s\nevent B = s\nchronology c { %s }\n"
_TRACE = _SUBDIAGRAM % "stages: a.create;" + "event E = s\ntrace t = [ %s ]\n"
# one broken list or clause for each place the grammar reads one: text, its diagnostics
GRAMMAR_ERRORS = {
    "thimac stages: empty": (_THIMAC % "stages: ;", ["2:26: error: E-SYNTAX: expected stage kind, found ';'"]),
    "thimac stages: trailing comma": (_THIMAC % "stages: create, ;", ["2:34: error: E-SYNTAX: expected stage kind, found ';'"]),
    "thimac stages: missing comma": (_THIMAC % "stages: create process;", ["2:33: error: E-SYNTAX: expected ;, found 'process'"]),
    "thimac stages: unknown kind before the ;": (_THIMAC % "stages: foo bar;", ["2:26: error: E-SYNTAX: unknown stage kind 'foo'"]),
    "thimac stages: memory twice": (_THIMAC % "stages: memory, memory;", ["2:34: error: E-SYNTAX: memory declared twice"]),
    "thimac stages: a kind twice": (
        _THIMAC % "stages: create, create;",
        ["2:34: error: E-SYNTAX: a machine holds one create stage, 'a' declares two"],
    ),
    "thimac things: empty": (_THIMAC % "things: ;", ["2:26: error: E-SYNTAX: expected thing label, found ';'"]),
    "thimac things: missing comma": (_THIMAC % 'things: "x" "y";', ["2:30: error: E-SYNTAX: expected ;, found 'y'"]),
    "subdiagram stages: trailing comma": (
        _SUBDIAGRAM % "stages: a.create, ;",
        ["2:38: error: E-SYNTAX: expected thimac id, found ';'"],
    ),
    "subdiagram stages: missing comma": (
        _SUBDIAGRAM % "stages: a.create a.create;",
        ["2:37: error: E-SYNTAX: expected ;, found 'a'"],
    ),
    "subdiagram arcs: empty": (_SUBDIAGRAM % "arcs: ;", ["2:26: error: E-SYNTAX: expected arc id, found ';'"]),
    "subdiagram arcs: missing comma": (_SUBDIAGRAM % "arcs: f g;", ["2:28: error: E-SYNTAX: expected ;, found 'g'"]),
    "chronology events: empty": (_CHRONOLOGY % "events: ;", ["5:24: error: E-SYNTAX: expected event id, found ';'"]),
    "chronology events: trailing comma": (_CHRONOLOGY % "events: A,;", ["5:26: error: E-SYNTAX: expected event id, found ';'"]),
    # a word may not start with a numeral that is not a decimal digit, which \w admits
    "chronology events: an id after '²'": (_CHRONOLOGY % "events: ²A;", ["5:24: error: E-SYNTAX: unexpected character '²'"]),
    "subdiagram arcs: an id after 'Ⅻ'": (_SUBDIAGRAM % "arcs: Ⅻf;", ["2:26: error: E-SYNTAX: unexpected character 'Ⅻ'"]),
    "chronology start: missing comma": (_CHRONOLOGY % "start: A B;", ["5:25: error: E-SYNTAX: expected ;, found 'B'"]),
    "chronology end: empty": (_CHRONOLOGY % "end: ;", ["5:21: error: E-SYNTAX: expected event id, found ';'"]),
    "chronology exclusive: trailing bar": (
        _CHRONOLOGY % "exclusive { A | };",
        ["5:32: error: E-SYNTAX: expected event id, found '}'"],
    ),
    "chronology exclusive: missing bar": (_CHRONOLOGY % "exclusive g { A B };", ["5:32: error: E-SYNTAX: expected }, found 'B'"]),
    "chronology chain: no target": (_CHRONOLOGY % "A -> ;", ["5:21: error: E-SYNTAX: expected event id, found ';'"]),
    "chronology chain: missing arrow": (_CHRONOLOGY % "A -> B B;", ["5:23: error: E-SYNTAX: expected ;, found 'B'"]),
    "trace: trailing comma": (_TRACE % "E @ 1,", ["4:20: error: E-SYNTAX: expected event id, found ']'"]),
    "trace: missing comma": (_TRACE % "E @ 1 E @ 2", ["4:19: error: E-SYNTAX: expected ], found 'E'"]),
    "trace: no timestamp": (_TRACE % "E 1", ["4:15: error: E-SYNTAX: expected @, found '1'"]),
    "trace: lone comma": (_TRACE % ",", ["4:13: error: E-SYNTAX: expected event id, found ','"]),
}


@pytest.mark.parametrize("case", sorted(GRAMMAR_ERRORS))
def test_broken_lists_and_clauses_are_placed_where_they_break(case):
    text, diagnostics = GRAMMAR_ERRORS[case]
    res = parse_text(text, path="g.tm")
    assert res.document is None
    assert [str(d) for d in res.diagnostics] == [f"g.tm:{d}" for d in diagnostics]


# text, the one diagnostic, and the id with the place of its first declaration
MODEL_ERRORS = {
    "duplicate thimac": (
        'model m {\n  thimac a "A" { stages: create; }\n  thimac a "A" { stages: create; }\n}\n',
        "3:10: error: E-SYNTAX: duplicate thimac id 'a'",
        ("a", 2, 10),
    ),
    "duplicate flow": (
        'model m {\n  thimac a "A" { stages: create, process; }\n  flow f: a.create -> a.process;\n'
        "  flow f: a.create -> a.process;\n}\n",
        "4:8: error: E-SYNTAX: duplicate arc id 'f'",
        ("f", 3, 8),
    ),
    "unresolved stage": (
        'model m {\n  thimac a "A" { stages: create; }\n  flow g: a.create -> b.process;\n}\n',
        "3:8: error: E-SYNTAX: arc 'g' references unknown stage b.process",
        ("g", 3, 8),
    ),
    # thimacs and arcs have separate ids: the duplicate is the nested thimac
    "duplicate nested thimac after an arc of its id": (
        'model m {\n  thimac a "A" { stages: create, process; }\n  flow a: a.create -> a.process;\n'
        '  thimac b "B" { stages: create;\n    thimac a "C" { } }\n}\n',
        "5:12: error: E-SYNTAX: duplicate thimac id 'a'",
        ("a", 2, 10),
    ),
}


@pytest.mark.parametrize("case", sorted(MODEL_ERRORS))
def test_model_errors_are_placed_at_the_declaration_they_name(case):
    text, diagnostic, (element, line, col) = MODEL_ERRORS[case]
    p = _Parser(SourceFile("m.tm", text))
    assert p.document() is None
    assert [str(d) for d in p.diags] == [f"m.tm:{diagnostic}"]
    span = p.src.span(p.first[element])
    assert (span.line, span.col) == (line, col)


def lexed(text):
    """(tokens, diagnostics) of the parser's tokenizer and of the character
    loop, tokens as (kind, text, line, col) and diagnostics as printed."""
    p = _Parser(SourceFile("f.tm", text))
    spans = [p.src.span(start) for start in p.starts]
    got = ([(k, t, s.line, s.col) for k, t, s in zip(p.kinds, p.texts, spans, strict=True)], [str(d) for d in p.diags])
    diags = []
    want = (tokenize_by_chars("f.tm", text, diags), [str(d) for d in diags])
    return got, want


def test_tokenizer_agrees_with_the_character_loop_on_every_code_point_below_u3000():
    for cp in range(0x3000):
        c = chr(cp)
        for text in (c, f"a{c}1", f"{c}a", f'"\\{c}x\ny', f'"{c}\\'):
            got, want = lexed(text)
            assert got == want, text


@pytest.mark.parametrize(
    "text",
    [
        "a # c",  # a comment at the end of the text, with no newline
        "a #",
        "#",
        "# c\n²",  # a comment, then a lexical error
        "# c\n²b # d",
        'x "a # b" c',  # '#' inside a string
        '"a # b',
        "a # c\r\nb # d\r\n # e\r\n",  # comments with CRLF line ends
        "a # c\r\n\r\n",
        "a" + " \n" * 100 + "# c",  # trailing blanks and a comment
    ],
)
def test_tokenizer_agrees_with_the_character_loop_on_comments(text):
    got, want = lexed(text)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(spliced_fixtures())
def test_tokenizer_agrees_with_the_character_loop_on_spliced_fixtures(text):
    got, want = lexed(text)
    assert got == want
    src = SourceFile("f.tm", text)
    res = parse(src)  # must not raise
    assert res.document is not None or res.diagnostics
    if res.document is not None:
        assert declaration_spans(src, res.document) == first_declarations(text)


@settings(max_examples=40, deadline=None)
@given(text=spliced_fixtures())
def test_cli_check_exits_1_on_spliced_fixtures_that_do_not_parse(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "spliced.tm"
    path.write_text(text, encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        status = main(["check", str(path)])
    if parse_text(text).document is None:
        assert status == 1 and "parse failed" in err.getvalue()
    else:
        assert status in (0, 1)


def test_declaration_spans_point_at_the_first_declaration_of_their_ids():
    rng = random.Random(6)
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.tm"))]
    texts += [print_document(random_document(rng)) for _ in range(200)]
    # ids declared by several kinds of declaration: a by each, first by a thimac, and s first by a subdiagram
    texts.append('model m { thimac a "A" { stages: create, process; } flow a: a.create -> a.process; }\n'
                 'subdiagram a "S" { stages: a.create; }\nsubdiagram s "S" { stages: a.create; }\nevent a = a\nevent s = s\n'
                 'chronology a { events: a; }\nchronology s { events: s; }\ntrace a = [ a @ 0 ]\ntrace s = [ s @ 0 ]\n')
    for text in texts:
        src = SourceFile("f.tm", text)
        assert declaration_spans(src, parse(src).document) == first_declarations(text), text


def test_a_clean_parse_computes_no_position_until_one_is_read():
    text = (FIXTURES / "airport.tm").read_text(encoding="utf-8")
    src = SourceFile("f.tm", text)
    doc = parse(src).document
    assert "_newlines" not in vars(src)
    assert declaration_spans(src, doc) == first_declarations(text) and "_newlines" in vars(src)
    with pytest.raises(TypeError):
        doc.spans["E1"] = 0
