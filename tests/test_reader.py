"""The reader against the token parser: on every text the reader either
declines or reads the token parser's document, and a clean document of the
shapes users and the benchmark write never reaches the token parser."""
import random
import sys
from pathlib import Path

from hypothesis import given, settings

from tmkit import reader, syntax
from tmkit.syntax import SourceFile, _Parser, parse, parse_text, print_document

from conftest import FIXTURES
from genutil import random_document
from strategies import spliced_fixtures

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
import gen  # noqa: E402  (the benchmark's document generators)


def agree(text: str) -> bool:
    """Whether the reader reads ``text``; when it does, the token parser reads the
    same document, with the same spans, and reports nothing."""
    src = SourceFile("f.tm", text)
    doc = reader.read(src)
    p = _Parser(src)
    want = p.document()
    if doc is not None:
        assert not p.diags, (text, p.diags)
        assert doc == want, text
        assert dict(doc.spans) == dict(want.spans), text
    return doc is not None


def generated(rng: random.Random) -> list[str]:
    """Small documents of the benchmark's shapes: windows, exclusive groups, traces."""
    chain = gen.chain(rng, rng.randint(1, 4))
    return [chain.text, chain.simplified_text, gen.branchy(rng, rng.randint(1, 3)).text]


# pieces that open, close or extend a token, and words the grammar gives a meaning
PIECES = [
    "#", "# c\n", "\n", " ", "\t", "\r", "\f", '"', "\\", '\\"', "->", "-", "..", ".", ",", ";", ":", "{", "}",
    "[", "]", "|", "@", "=", "0", "07", "9" * 4400, "x1", "x2", "é", "²", "٣", "_", "model", "simplified",
    "thimac", "stages", "things", "memory", "create", "process", "flow", "trigger", "subdiagram", "arcs",
    "event", "window", "chronology", "events", "exclusive", "start", "end", "trace",
]


def mutated(rng: random.Random, text: str) -> str:
    """``text`` with one to three random edits: a piece inserted, a span deleted,
    duplicated or moved, or a line repeated."""
    for _ in range(rng.randint(1, 3)):
        at, width = rng.randint(0, len(text)), rng.randint(1, 12)
        edit = rng.randrange(5)
        if edit == 0:
            text = text[:at] + rng.choice(PIECES) + text[at:]
        elif edit == 1:
            text = text[:at] + text[at + width :]
        elif edit == 2:
            text = text[:at] + text[at : at + width] + text[at:]
        elif edit == 3:
            piece, rest = text[at : at + width], text[:at] + text[at + width :]
            to = rng.randint(0, len(rest))
            text = rest[:to] + piece + rest[to:]
        else:
            lines = text.split("\n")
            i = rng.randrange(len(lines))
            lines.insert(rng.randint(0, len(lines)), lines[i])
            text = "\n".join(lines)
    return text


def test_the_reader_reads_every_fixture_as_the_token_parser_does():
    for path in sorted(FIXTURES.glob("*.tm")):
        assert agree(path.read_text(encoding="utf-8")), path.name


def test_the_reader_reads_random_documents_as_the_token_parser_does():
    rng = random.Random(15)
    for _ in range(300):
        printed = print_document(random_document(rng))
        # a label with a quote, a backslash or a newline prints with an escape
        assert agree(printed) or "\\" in printed, printed


def test_the_reader_reads_the_benchmark_shapes_as_the_token_parser_does():
    rng = random.Random(15)
    for _ in range(30):
        for text in generated(rng):
            assert agree(text), text


def test_the_reader_declines_or_agrees_on_mutated_documents():
    rng = random.Random(1500)
    fixtures = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.tm"))]
    read = 0
    for i in range(1500):
        base = rng.choice(fixtures) if i % 3 == 0 else rng.choice(generated(rng)) if i % 3 == 1 else print_document(random_document(rng))
        read += agree(mutated(rng, base))
    assert 0 < read < 1500  # both paths are taken


@settings(max_examples=300, deadline=None)
@given(spliced_fixtures())
def test_the_reader_declines_or_agrees_on_spliced_fixtures(text):
    agree(text)


def test_a_clean_document_never_reaches_the_token_parser(monkeypatch):
    def refuse(src):
        raise AssertionError(f"the token parser ran on {src.path}")

    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.tm"))]
    rng = random.Random(7)
    for n in (50, 200):
        chain = gen.chain(rng, n)
        texts += [chain.text, chain.simplified_text]
    texts += [gen.branchy(rng, k).text for k in (4, 5)]
    wanted = [_Parser(SourceFile("f.tm", text)).document() for text in texts]
    monkeypatch.setattr(syntax, "_Parser", refuse)
    for text, want in zip(texts, wanted):
        res = parse_text(text)
        assert res.document == want and res.diagnostics == []


def test_the_reader_builds_its_model_with_the_syntax_modules_build_model(monkeypatch):
    # looked up when it runs, as cli looks up its checks, so a tracer may rebind it
    built = []
    real = syntax.build_model
    monkeypatch.setattr(syntax, "build_model", lambda *a: built.append(a[0]) or real(*a))
    monkeypatch.setattr(syntax, "_Parser", None)
    res = parse(SourceFile.read(str(FIXTURES / "bread.tm")))
    assert res.document is not None and built == [res.document.model.name]


def test_the_token_parser_finds_the_spans_of_a_read_document_when_first_read():
    text = (FIXTURES / "airport.tm").read_text(encoding="utf-8")
    doc = reader.read(SourceFile("f.tm", text))
    assert "_spans" not in vars(doc.spans)
    assert doc.spans["E1"] == _Parser(SourceFile("f.tm", text)).document().spans["E1"]
    assert "_spans" in vars(doc.spans)
