"""Check reports shared by the inequality checkers, diagnostics and certifiers."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .space import ProductPoint, Vector

PASSED = "passed"
FAILED = "failed"
INCONCLUSIVE = "inconclusive"
NOT_APPLICABLE = "not_applicable"

SHOWN_VIOLATIONS = 10  # to_json writes a report's first violations, this many

# worst status wins when reports are merged
_STATUS_RANK = {PASSED: 0, NOT_APPLICABLE: 1, INCONCLUSIVE: 2, FAILED: 3}


def render_vector(v: Vector) -> str:
    if not v.coords:
        return "{}"
    return "{" + ", ".join(f"{i}: {val!r}" for i, val in v.coords) + "}"


def render_pair(p: ProductPoint) -> str:
    return f"({render_vector(p.first)}, {render_vector(p.second)})"


class Violation:
    """One failed inequality: lhs <= rhs was expected, slack = lhs - rhs.

    inputs, the witness text, may be given as a function of no arguments
    that returns it; it is then built on the first read of inputs, so that
    a report holding many violations formats only those it shows.
    """

    __slots__ = ("_inputs", "lhs", "rhs", "note")

    def __init__(self, inputs: tuple[str, ...] | Callable[[], tuple[str, ...]],
                 lhs: float, rhs: float, note: str = ""):
        self._inputs, self.lhs, self.rhs, self.note = inputs, lhs, rhs, note

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def inputs(self) -> tuple[str, ...]:
        if callable(self._inputs):
            self._inputs = self._inputs()
        return self._inputs

    def _key(self) -> tuple:
        return self.inputs, self.lhs, self.rhs, self.slack, self.note

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, Violation) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "Violation(inputs={!r}, lhs={!r}, rhs={!r}, slack={!r}, note={!r})".format(
            *self._key())

    def to_json(self) -> dict:
        return {
            "inputs": list(self.inputs),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "note": self.note,
        }


@dataclass(frozen=True)
class CheckReport:
    name: str
    checked: int
    violations: tuple[Violation, ...] = ()
    status: str = PASSED
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASSED

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "status": self.status,
            "passed": self.passed,
            "n_violations": len(self.violations),
            "violations": [v.to_json() for v in self.violations[:SHOWN_VIOLATIONS]],
            "detail": self.detail,
        }


def conclude(name: str, checked: int, violations: list[Violation], detail: str = "") -> CheckReport:
    """Report for a sampled checker: failed with violations, inconclusive
    when nothing was checked, passed otherwise."""
    status = FAILED if violations else INCONCLUSIVE if checked == 0 else PASSED
    return CheckReport(name, checked, tuple(violations), status, detail)


def _tagged(tag: str, v: Violation) -> Violation:
    """v with tag before its inputs, read when the result's inputs are."""
    return Violation(lambda: (tag, *v.inputs), v.lhs, v.rhs, v.note)


def merge_reports(name: str, parts: list[CheckReport]) -> CheckReport:
    """One report for several runs of a check: the worst status, every
    violation tagged with its run index, and the runs' details joined."""
    if not parts:
        return CheckReport(name, 0, status=INCONCLUSIVE, detail="nothing to check")
    status = max((r.status for r in parts), key=lambda s: _STATUS_RANK[s])
    violations = [_tagged(f"run {i}", v) for i, r in enumerate(parts) for v in r.violations]
    detail = "; ".join(f"run {i}: {r.detail}" for i, r in enumerate(parts) if r.detail)
    return CheckReport(name, sum(r.checked for r in parts), tuple(violations),
                       status, detail)
