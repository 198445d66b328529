"""Check reports shared by the inequality checkers, diagnostics and certifiers."""
from __future__ import annotations

from dataclasses import dataclass

from .space import ProductPoint, Vector

PASSED = "passed"
FAILED = "failed"
INCONCLUSIVE = "inconclusive"
NOT_APPLICABLE = "not_applicable"

# worst status wins when reports are merged
_STATUS_RANK = {PASSED: 0, NOT_APPLICABLE: 1, INCONCLUSIVE: 2, FAILED: 3}


def render_vector(v: Vector) -> str:
    if not v.coords:
        return "{}"
    return "{" + ", ".join(f"{i}: {val!r}" for i, val in v.coords) + "}"


def render_pair(p: ProductPoint) -> str:
    return f"({render_vector(p.first)}, {render_vector(p.second)})"


@dataclass(frozen=True)
class Violation:
    """One failed inequality: lhs <= rhs was expected, slack = lhs - rhs."""

    inputs: tuple[str, ...]
    lhs: float
    rhs: float
    slack: float
    note: str = ""

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

    def to_json(self, max_violations: int = 10) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "status": self.status,
            "passed": self.passed,
            "n_violations": len(self.violations),
            "violations": [v.to_json() for v in self.violations[:max_violations]],
            "detail": self.detail,
        }


def conclude(name: str, checked: int, violations: list[Violation], detail: str = "") -> CheckReport:
    """Report for a sampled checker: failed with violations, inconclusive
    when nothing was checked, passed otherwise."""
    status = FAILED if violations else INCONCLUSIVE if checked == 0 else PASSED
    return CheckReport(name, checked, tuple(violations), status, detail)


def merge_reports(name: str, parts: list[CheckReport]) -> CheckReport:
    """One report for several runs of a check: the worst status, every
    violation tagged with its run index, and the runs' details joined."""
    if not parts:
        return CheckReport(name, 0, status=INCONCLUSIVE, detail="nothing to check")
    status = max((r.status for r in parts), key=lambda s: _STATUS_RANK[s])
    violations = [Violation((f"run {i}",) + v.inputs, v.lhs, v.rhs, v.slack, v.note)
                  for i, r in enumerate(parts) for v in r.violations]
    detail = "; ".join(f"run {i}: {r.detail}" for i, r in enumerate(parts) if r.detail)
    return CheckReport(name, sum(r.checked for r in parts), tuple(violations),
                       status, detail)
