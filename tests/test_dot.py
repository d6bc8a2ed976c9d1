import re
from dataclasses import replace

import pytest

from tmkit.dot import Level, RenderOptions, to_dot
from tmkit.errors import UnknownHighlightId
from tmkit.model import build_model
from tmkit.syntax import Document, parse_text



def read_nodes_and_edges(dot_text):
    """Trivial DOT reader: quoted node statements and quoted edge statements."""
    nodes, edges = set(), set()
    for line in dot_text.splitlines():
        line = line.strip()
        m = re.match(r'^"([^"]+)" -> "([^"]+)"', line)
        if m:
            edges.add((m.group(1), m.group(2)))
            continue
        m = re.match(r'^"([^"]+)" \[', line)
        if m:
            nodes.add(m.group(1))
    return nodes, edges


def test_static_dot_draws_clusters_and_arc_styles(airport):
    text = to_dot(airport, RenderOptions(level=Level.STATIC))
    for t in airport.model.walk():
        assert f'subgraph "cluster_{t.id}"' in text
    nodes, edges = read_nodes_and_edges(text)
    assert nodes == {str(r) for r in airport.model.stages}
    assert text.count("style=dashed") == 2  # the two ticket triggers
    assert text.count("style=solid") == len(airport.model.arcs) - 2


def test_empty_model_renders_minimal_digraph():
    doc = Document(model=build_model("void"))
    text = to_dot(doc, RenderOptions(level=Level.STATIC))
    assert text.startswith('digraph "void"')
    nodes, edges = read_nodes_and_edges(text)
    assert nodes == set() and edges == set()


def test_behavior_dot_matches_chronology(airport):
    text = to_dot(airport, RenderOptions(level=Level.BEHAVIOR))
    nodes, edges = read_nodes_and_edges(text)
    chron = airport.chronologies[0]
    assert nodes == chron.events
    assert edges == set(chron.edges)
    assert "// exclusive start" in text and "// exclusive branch" in text


def test_overlay_mentions_subdiagram_membership(airport):
    text = to_dot(airport, RenderOptions(level=Level.OVERLAY))
    assert "[s1,s3]" in text  # pax_lug.create belongs to both
    assert 'label="s8,s9,s10"' in text or 'label="s9,s10"' in text


def test_render_is_deterministic(airport):
    options = RenderOptions(level=Level.STATIC)
    assert to_dot(airport, options) == to_dot(airport, options)


def test_every_element_rendered_exactly_once(airport):
    text = to_dot(airport, RenderOptions(level=Level.STATIC))
    for ref in airport.model.stages:
        assert len(re.findall(rf'^\s*"{re.escape(str(ref))}" \[', text, re.M)) == 1
    for a in airport.model.arcs:
        src, dst = str(a.src), str(a.dst)
        pattern = rf'"{re.escape(src)}" -> "{re.escape(dst)}"'
        assert re.search(pattern, text)


def test_unknown_highlight_id(airport):
    with pytest.raises(UnknownHighlightId):
        to_dot(airport, RenderOptions(highlight=frozenset({"nonsense"})))
    with pytest.raises(UnknownHighlightId):
        to_dot(airport, RenderOptions(highlight=frozenset({"counter.arrive"})))  # a stage counter does not declare
    ok = to_dot(airport, RenderOptions(highlight=frozenset({"counter", "counter.process", "f8"})))
    assert "color=red" in ok


def test_no_ids_are_gathered_when_nothing_is_highlighted(airport, monkeypatch):
    monkeypatch.setattr("tmkit.dot._known_ids", lambda doc: pytest.fail("gathered the ids of a render with no highlight"))
    for level in Level:
        to_dot(airport, RenderOptions(level=level))


# a memory thimac inside another, one arc, and a chronology of two events
_SMALL = parse_text(
    'model m {\n  thimac a "A" { stages: create, release; thimac box "Box" { stages: process, memory; } }\n'
    '  flow f: a.create -> a.release;\n}\nsubdiagram s "Made" { stages: a.create; }\n'
    "event E1 = s\nevent E2 = s\nchronology c { E1 -> E2; }\n"
).document


def test_flat_static_dot_draws_no_clusters_and_marks_memory():
    assert to_dot(_SMALL, RenderOptions(clusters=False)) == (
        'digraph "m" {\n'
        "  compound=true;\n"
        "  node [shape=box];\n"
        '  "a.create" [label="create"];\n'
        '  "a.release" [label="release"];\n'
        '  "box.process" [label="process"];\n'
        "  // memory\n"
        '  "a.create" -> "a.release" [style=solid, tooltip="f"];\n'
        "}\n"
    )


def test_a_memory_thimac_is_marked_inside_its_cluster():
    assert to_dot(_SMALL, RenderOptions()) == (
        'digraph "m" {\n'
        "  compound=true;\n"
        "  node [shape=box];\n"
        '  subgraph "cluster_a" {\n'
        '    label="A";\n'
        '    "a.create" [label="create"];\n'
        '    "a.release" [label="release"];\n'
        '    subgraph "cluster_box" {\n'
        '      label="Box";\n'
        '      "box.process" [label="process"];\n'
        "      // memory\n"
        "    }\n"
        "  }\n"
        '  "a.create" -> "a.release" [style=solid, tooltip="f"];\n'
        "}\n"
    )


def test_behavior_dot_highlights_an_event_and_its_edges():
    assert to_dot(_SMALL, RenderOptions(level=Level.BEHAVIOR, highlight=frozenset({"E1"}))) == (
        'digraph "c" {\n'
        "  node [shape=box];\n"
        '  "E1" [label="E1: Made", color=red, penwidth=2];\n'
        '  "E2" [label="E2: Made"];\n'
        '  "E1" -> "E2" [color=red, penwidth=2];\n'
        "}\n"
    )


def test_behavior_dot_of_a_document_without_chronologies_is_one_empty_digraph():
    assert to_dot(replace(_SMALL, chronologies=()), RenderOptions(level=Level.BEHAVIOR)) == 'digraph "behavior" {\n}\n'


def _behavior_of(chronology: str) -> str:
    text = 'model m { thimac a "A" { stages: create; } }\nsubdiagram s "S" { stages: a.create; }\nevent E1 = s\nevent E2 = s\n'
    return to_dot(parse_text(text + chronology).document, RenderOptions(level=Level.BEHAVIOR))


def test_behavior_dot_marks_the_starts_a_chronology_states_and_no_others():
    # E2 is marked although it has a predecessor: the mark follows the start clause as written
    stated = _behavior_of("chronology c { E1 -> E2; start: E1, E2; }\n")
    assert '"E1" [label="E1: S", peripheries=2];' in stated
    assert '"E2" [label="E2: S", peripheries=2];' in stated
    # without a start clause E1 still starts every run, but nothing is marked
    assert "peripheries" not in _behavior_of("chronology c { E1 -> E2; }\n")
