"""Exception types raised by toolkit operations.

Checks that produce per-element findings return Diagnostic lists instead;
exceptions are reserved for contract violations and unusable inputs.
"""
from __future__ import annotations


class TmkitError(Exception):
    """Base class for all toolkit errors."""


class DuplicateId(TmkitError):
    def __init__(self, kind: str, element_id: str):
        super().__init__(f"duplicate {kind} id '{element_id}'")
        self.kind = kind  # thimac or arc
        self.element_id = element_id


class UnresolvedStageRef(TmkitError):
    def __init__(self, arc_id: str, ref):
        super().__init__(f"arc '{arc_id}' references unknown stage {ref}")
        self.element_id = arc_id


class NotSimplified(TmkitError):
    pass


class CycleDetected(TmkitError):
    def __init__(self, cycle: list[str]):
        super().__init__("cycle: " + " -> ".join(cycle))
        self.cycle = cycle


class UnknownEvent(TmkitError):
    pass


class EdgeInsideExclusiveGroup(TmkitError):
    pass


class BoundExceeded(TmkitError):
    pass


class MalformedTrace(TmkitError):
    pass


class IllegalAction(TmkitError):
    def __init__(self, stage, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


class NotEnabled(TmkitError):
    pass


class Deadlock(TmkitError):
    pass


class PolicyError(TmkitError):
    pass


class UnknownHighlightId(TmkitError):
    pass
