"""Independent oracles for the tests: slow, obviously exhaustive versions of
library functions, kept apart from the code they check."""
from __future__ import annotations

from tmkit.behavior import Chronology, canonical_order, run_set_valid
from tmkit.errors import BoundExceeded

# Exact enumeration is exponential in the event count; chronologies are
# desk-scale by design.
MAX_ENUMERABLE_EVENTS = 22


def enumerate_runs_by_subsets(chronology: Chronology, bound: int = 10_000) -> list[tuple[str, ...]]:
    """All runs of the chronology, one canonical order per run set.

    Exhaustive over event subsets, so deliberately independent of both
    evaluate_trace and enumerate_runs; the three are cross-checked in tests.
    Raises BoundExceeded when the run count passes ``bound`` or the
    chronology is too large to enumerate exactly.
    """
    events = sorted(chronology.events)
    if bound < len(events):
        raise ValueError(f"bound {bound} is smaller than the event count {len(events)}")
    if len(events) > MAX_ENUMERABLE_EVENTS:
        raise BoundExceeded(f"cannot enumerate runs over {len(events)} events (max {MAX_ENUMERABLE_EVENTS})")

    runs: list[tuple[str, ...]] = []
    for mask in range(1, 1 << len(events)):
        occurred = frozenset(events[i] for i in range(len(events)) if mask & (1 << i))
        if run_set_valid(chronology, occurred):
            runs.append(canonical_order(chronology, occurred))
            if len(runs) > bound:
                raise BoundExceeded(f"chronology '{chronology.id}' has more than {bound} runs")
    runs.sort(key=lambda r: (len(r), r))
    return runs
