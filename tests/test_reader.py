"""The reader against the token parser: the reader reads a text iff the token
parser reports no error in it and no character beyond ASCII stands outside its
strings and comments, and then reads the token parser's document with the same
spans, so a clean ASCII document never reaches the token parser."""
import random
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings

from tmkit import syntax
from tmkit.model import StageKind
from tmkit.syntax import SourceFile, _Parser, _read, parse, parse_text, print_document

from conftest import FIXTURES, declaration_spans
from genutil import mutated, random_document
from oracles import first_declarations
from strategies import spliced_fixtures

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
import gen  # noqa: E402  (the benchmark's document generators)

# a string, to its closing quote or the end of its line, or a comment
_LITERAL = re.compile(r'"(?:[^"\\\n]|\\[\s\S])*"?|#[^\n]*')


def beyond_ascii(text: str) -> bool:
    """Whether a character beyond ASCII stands outside the strings and comments of ``text``."""
    return not _LITERAL.sub("", text).isascii()


def agree(text: str) -> bool:
    """Whether the reader reads ``text``, which it does iff the token parser reports
    nothing and no character beyond ASCII stands outside a string or comment; when
    it does, the token parser reads the same document, with the same spans."""
    src = SourceFile("f.tm", text)
    doc = _read(src)
    p = _Parser(src)
    want = p.document()
    assert (doc is not None) == (not p.diags and not beyond_ascii(text)), (text, p.diags)
    if doc is not None:
        assert doc == want, text
        assert dict(doc.spans) == dict(want.spans), text
    return doc is not None


_HEAD = 'model m {\n  thimac a "A" { stages: create, process; things: "x"; }\n  flow f: a.create -> a.process;\n}\n'
# valid documents in forms a regular expression reader can miss, the first two and the last as CI writes them
FORMS = {
    "an escaped quote": 'model m { thimac a "A\\"B" { stages: create; things: "x"; } }\nsubdiagram s "S" { stages: a.create; }\n'
    "event A = s\nchronology c { events: A; }\n",
    "a comment in a list": 'model m {\n  thimac a "A" { stages: create, # made here\n    process; things: "x"; }\n'
    '  flow f: a.create -> a.process;\n}\nsubdiagram s "S" { stages: a.create, a.process; arcs: f; }\nevent A = s\n'
    "chronology c { events: A; }\n",
    "blanks around a dot": 'model m {\n  thimac a "A" { stages: create, process; things: "x"; }\n  flow f: a . create -> a\n.process;\n}\n'
    'subdiagram s "S" { stages: a. create, a # c\n .process; arcs: f; }\nevent A = s\nchronology c { events: A; }\n',
    "an escaped newline": 'model m {\n  thimac a "A\\\nB" { stages: create; }\n  thimac b "B\\\\" { }\n}\n'
    'subdiagram s "S\\t" { stages: a.create; }\nevent A = s\n',
    "an integer against a word": _HEAD + 'subdiagram s "S" { stages: a.create; }\nevent A = s window 0..5event B = s\n',
    "comments everywhere": _HEAD + 'subdiagram s "S" { stages: a # c\n . # d\n create; arcs: # e\n f; }\n'
    "event A = s window 0 # f\n .. # g\n 5\nevent B = s\n"
    "chronology c { A # h\n -> # i\n B; exclusive # j\n g { A # k\n | B }; start: A # l\n; end: # m\n B; }\n"
    "trace t = [ A # n\n @ # o\n 0 , # p\n B @ 1 ]\n",
    "a label beyond ASCII in a model with ASCII identifiers": 'model m {\n  thimac a "Ärger ✈" { stages: create, process; '
    'things: "göods", "x"; }\n  flow f: a.create -> a.process;\n}\nsubdiagram s "Σ — über" { stages: a.create, a.process; '
    'arcs: f; }\nevent A = s\nchronology c { events: A; }\n',
}

# valid documents that only the token parser reads, as CI writes them: it takes an identifier's first character
# by str.isalpha and a numeral by str.isdecimal, as int() does
BEYOND_ASCII = {
    "identifiers that start beyond ASCII": 'model m { thimac é "É" { stages: create; things: "x"; } }\n'
    'subdiagram σ "S" { stages: é.create; }\nevent Ä = σ\nevent 一 = σ\nchronology c { events: Ä, 一; }\n',
    "numerals beyond ASCII": 'model m { thimac a "A" { stages: create; things: "x"; } }\nsubdiagram s "S" { stages: a.create; }\n'
    "event A = s window ٠..٥\nevent B = s\nchronology c { A -> B; }\ntrace t = [ A @ ٣, B @ ٤ ]\n",
}
_FIXTURE_TEXTS = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.tm"))]


def generated(rng: random.Random) -> list[str]:
    """Small documents of the benchmark's shapes: windows, exclusive groups, traces."""
    chain = gen.chain(rng, rng.randint(1, 4))
    return [chain.text, chain.simplified_text, gen.branchy(rng, rng.randint(1, 3)).text]


def test_the_reader_reads_every_fixture_as_the_token_parser_does():
    for path, text in zip(sorted(FIXTURES.glob("*.tm")), _FIXTURE_TEXTS):
        assert agree(text), path.name
    for form, text in FORMS.items():
        assert agree(text), form


def test_identifiers_and_numerals_beyond_ascii_are_the_token_parsers_alone():
    for form, text in BEYOND_ASCII.items():
        src = SourceFile("f.tm", text)
        assert _read(src) is None, form
        res, want = parse(src), _Parser(src).document()
        assert res.document == want and res.diagnostics == [], form
        assert dict(res.document.spans) == dict(want.spans), form
        assert declaration_spans(src, res.document) == first_declarations(text), form


# characters beyond ASCII: letters, a numeral str.isdecimal takes and one it does not, a combining accent, a no-break space
INSERTED = ("é", "一", "٣", "²", "\u0301", "\u00a0")


def test_the_reader_agrees_on_characters_beyond_ascii_inserted_anywhere():
    rng = random.Random(30)
    bases = _FIXTURE_TEXTS + list(FORMS.values()) + list(BEYOND_ASCII.values())
    outcomes = {"read": 0, "only the token parser reads": 0, "an error": 0}
    for i in range(2_000):
        base = bases[i % len(bases)]
        at = rng.randrange(len(base) + 1)
        text = base[:at] + rng.choice(INSERTED) + base[at:]
        read = agree(text)
        outcomes["read" if read else "an error" if parse_text(text).diagnostics else "only the token parser reads"] += 1
    assert all(outcomes.values()), outcomes


def test_the_reader_reads_random_documents_as_the_token_parser_does():
    rng = random.Random(15)
    for _ in range(300):
        printed = print_document(random_document(rng))
        assert agree(printed), printed


def test_chronologies_that_state_some_of_their_events_read_as_the_token_parser_does():
    # random_document states every event of a chronology; here each states a random subset, in random order, or none
    rng = random.Random(65)
    for _ in range(300):
        doc = random_document(rng)
        partial = [replace(c, event_ids=tuple(rng.sample(c.event_ids, rng.randint(0, len(c.event_ids))))) for c in doc.chronologies]
        doc = replace(doc, chronologies=tuple(partial))
        printed = print_document(doc)
        assert agree(printed), printed
        assert parse_text(printed).document == doc, printed

def test_the_reader_reads_the_benchmark_shapes_as_the_token_parser_does():
    rng = random.Random(15)
    for _ in range(30):
        for text in generated(rng):
            assert agree(text), text


def test_the_reader_declines_or_agrees_on_mutated_documents():
    rng = random.Random(1500)
    fixtures = _FIXTURE_TEXTS + list(FORMS.values()) + list(BEYOND_ASCII.values())
    read = 0
    for i in range(1500):
        base = rng.choice(fixtures) if i % 3 == 0 else rng.choice(generated(rng)) if i % 3 == 1 else print_document(random_document(rng))
        read += agree(mutated(rng, base))
    assert 0 < read < 1500  # both paths are taken


# a string, a comment or a window's '..', each kept as it is, or a separator of a list, a stage reference or
# an arc, or a trace's bracket, with the blanks around it
_SEPARATOR = re.compile(r'("(?:[^"\\\n]|\\[\s\S])*"|#[^\n]*|\.\.)|[ \t\r\n]*(->|[,.|@\[\]])[ \t\r\n]*')
# each separator with a comment and a line break after it, with blanks around it, and with no blanks at all
SEPARATED = {"commented": "{} # after {}\n", "spaced": " {} ", "tight": "{}"}


def separated(text: str, form: str) -> str:
    return _SEPARATOR.sub(lambda m: m[1] or SEPARATED[form].format(m[2], m[2]), text)


def test_separators_in_every_form_read_as_the_token_parser_does():
    rng = random.Random(19)
    texts = [print_document(random_document(rng)) for _ in range(300)]
    texts += [gen.branchy(rng, k).text for k in (1, 2, 3, 4, 5)]
    assert separated("stages: a . create, b.process;", "tight") == "stages: a.create,b.process;"
    assert separated('trace t = [ A @ 0, B @ 1 ] # "x, y"', "tight") == 'trace t =[A@0,B@1]# "x, y"'
    assert separated('things: "a.b", "c";', "commented") == 'things: "a.b", # after ,\n"c";'
    for text in texts:
        for form in SEPARATED:
            assert agree(separated(text, form)), (form, text)


@settings(max_examples=300, deadline=None)
@given(spliced_fixtures())
def test_the_reader_declines_or_agrees_on_spliced_fixtures(text):
    agree(text)


def test_a_clean_document_never_reaches_the_token_parser(monkeypatch):
    def refuse(src):
        raise AssertionError(f"the token parser ran on {src.path}")

    texts = list(_FIXTURE_TEXTS)
    rng = random.Random(7)
    for n in (50, 200):
        chain = gen.chain(rng, n)
        texts += [chain.text, chain.simplified_text]
    texts += [gen.branchy(rng, k).text for k in (4, 5)]
    texts += [*FORMS.values(), *(print_document(random_document(rng)) for _ in range(300))]
    wanted = [_Parser(SourceFile("f.tm", text)).document() for text in texts]
    monkeypatch.setattr(syntax, "_Parser", refuse)
    for text, want in zip(texts, wanted):
        src = SourceFile("f.tm", text)
        res = parse(src)
        assert res.document == want and res.diagnostics == []
        assert declaration_spans(src, res.document) == first_declarations(text), text


def test_the_reader_builds_its_model_with_the_syntax_modules_build_model(monkeypatch):
    # looked up when it runs, as cli looks up its checks, so a tracer may rebind it
    built = []
    real = syntax.build_model
    monkeypatch.setattr(syntax, "build_model", lambda *a: built.append(a[0]) or real(*a))
    monkeypatch.setattr(syntax, "_Parser", None)
    res = parse(SourceFile.read(str(FIXTURES / "bread.tm")))
    assert res.document is not None and built == [res.document.model.name]


def test_the_spans_of_a_read_document_need_no_token_parser(monkeypatch):
    src = SourceFile.read(str(FIXTURES / "airport.tm"))
    want = dict(_Parser(src).document().spans)
    monkeypatch.setattr(syntax, "_Parser", None)
    assert dict(_read(src).spans) == want


def test_a_hash_in_a_label_is_no_comment_and_a_comment_in_a_list_ends_at_its_line():
    doc = _read(SourceFile("f.tm", 'model m { thimac a "A" { things: "a # b", "c"; stages: create, # process\n release; } }'))
    (a,) = doc.model.roots
    assert a.things == ("a # b", "c") and a.stages == {StageKind.CREATE, StageKind.RELEASE}


def test_long_lists_and_labels_take_one_scan():
    # backtracking inside a pattern, over the items of a list or the escapes of a label,
    # counts no calls, so only a time bound catches it
    things = "".join(f'"l{i}", # label {i}\n' for i in range(20_000)) + '"end"'
    label = '"' + '\\"\\\\' * 50_000  # 100,000 escaped characters, unterminated
    refs = "".join(f"a{i} . create, # ref {i}\n" for i in range(20_000))
    occurrences = ", ".join(f"e{i} @ {i} # occurrence {i}\n" for i in range(20_000))
    texts = [
        (f'model m {{ thimac a "A" {{ things: {things}; }} }}\n', None),
        (f'model m {{ thimac a {label}" {{ }} }}\n', None),
        (f'model m {{\n  thimac a {label} {{ }}\n}}\n', "unterminated string"),
        (f'model m {{ thimac a "A" {{ things: {things} }} }}\n', "expected ;, found '}'"),
        (f'model m {{ }}\nsubdiagram s "S" {{ stages: {refs} a.create; }}\n', None),
        (f"model m {{ }}\ntrace t = [ {occurrences} ]\n", None),
    ]
    read = []
    for text, problem in texts:
        start = time.perf_counter()
        doc, res = _read(SourceFile("f.tm", text)), parse_text(text)
        assert time.perf_counter() - start < 2
        assert (doc is None) == (problem is not None) and doc == res.document
        assert problem is None or problem in [d.message for d in res.diagnostics]
        read.append(doc)
    assert len(read[0].model.roots[0].things) == 20_001 and read[1].model.roots[0].label == '"\\' * 50_000
    assert len(read[4].subdiagrams[0].stages) == 20_001 and read[4].subdiagrams[0].stages[-2].thimac == "a19999"
    assert read[5].traces[0].occurrences[-1] == ("e19999", 19_999) and len(read[5].traces[0].occurrences) == 20_000
