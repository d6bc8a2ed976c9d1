"""Hypothesis strategies shared by the property tests."""
from __future__ import annotations

from hypothesis import assume
from hypothesis import strategies as st

from tmkit.behavior import Chronology, ExclusiveGroup, build_chronology
from tmkit.errors import EdgeInsideExclusiveGroup
from tmkit.events import Event

from conftest import FIXTURES


@st.composite
def declared_chronologies(draw):
    """Chronologies with explicit start/end sets and overlapping groups: any
    event may be a start or an end, whatever its edges."""
    ids = [f"e{i}" for i in range(draw(st.integers(1, 10)))]
    rank = draw(st.permutations(ids))
    pairs = [(u, v) for i, u in enumerate(rank) for v in rank[i + 1:]]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    some_ids = st.sets(st.sampled_from(ids))
    starts, ends = draw(some_ids), draw(some_ids)
    member_sets = draw(st.lists(st.sets(st.sampled_from(ids), min_size=2), max_size=3)) if len(ids) > 1 else []
    groups = [ExclusiveGroup(f"x{i}", frozenset(m)) for i, m in enumerate(member_sets)]
    decl = Chronology("c", tuple(ids), tuple(edges), tuple(groups), tuple(sorted(starts)), tuple(sorted(ends)))
    try:
        return build_chronology([Event(e, "s") for e in ids], decl)
    except EdgeInsideExclusiveGroup:
        assume(False)


# digits, numerals, spaces and letters beyond ASCII, and the characters
# that open or extend a token
SPLICE_CHARS = st.characters(categories=("Nd", "No", "Nl", "Zs", "Lo")) | st.sampled_from(['"', "\\", "#", "\r", "-", "."])


@st.composite
def spliced_fixtures(draw):
    """A fixture's text with one to four short runs of SPLICE_CHARS inserted."""
    text = draw(st.sampled_from(sorted(FIXTURES.glob("*.tm")))).read_text(encoding="utf-8")
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.text(SPLICE_CHARS, min_size=1, max_size=6)) + text[at:]
    return text
