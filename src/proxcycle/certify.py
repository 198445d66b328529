"""Certification of coupled best proximity points and uniqueness probing.

A candidate (x, y) in A x B is a coupled best proximity point when both
residuals ||x - T(x, y)|| and ||y - T(y, x)|| equal dist(A, B); when the
sets meet (dist = 0) that degenerates to a coupled fixed point.

solve_and_certify certifies the limits of the iteration from a batch of
starts, taken from the runs already made from them or iterated there.
A start that already certifies is kept as its own limit rather than its
run's limit: the iteration is a search procedure, and a found point is
found.  This matters for maps whose solution set is larger than the
attractor of the iteration, where limits alone would hide the
non-uniqueness.  certify and second_iterate_check take T on space.row_kernel
rows through maps.row_map, the package's one evaluation path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .iterate import TOL_STOP, StopRule, Trajectory, run
from .maps import SIDE_AB, SIDE_BA, CyclicMapSpec, DomainError, coupled, row_map
from .report import (
    FAILED,
    NOT_APPLICABLE,
    PASSED,
    CheckReport,
    Violation,
    render_pair,
    render_vector,
)
from .sets import ConvexSet, contains, dist as set_dist
from .space import (TOL_NUM, ModulusUnavailable, NormedSpaceSpec, ProductPoint, Vector,
                    pair_distance, row_kernel, row_vector)

VERDICT_BPP = "coupled_bpp"
VERDICT_FIXED = "coupled_fixed_point"
VERDICT_REJECTED = "rejected"

CERT_TOL = 1e-8


class CertifyError(ValueError):
    pass


class PremiseNotMet(CertifyError):
    """A harness premise failed; the message names which one and where."""


@dataclass(frozen=True)
class Certificate:
    candidate: ProductPoint
    residual_x: float | None  # None when rejected on membership, before measuring
    residual_y: float | None
    dist_used: float
    verdict: str
    tolerance: float
    reason: str = ""

    @property
    def accepted(self) -> bool:
        return self.verdict != VERDICT_REJECTED

    def to_json(self) -> dict:
        return {
            "candidate": render_pair(self.candidate),
            "residual_x": self.residual_x,
            "residual_y": self.residual_y,
            "dist_used": self.dist_used,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "reason": self.reason,
        }


def certify(T: CyclicMapSpec, candidate: ProductPoint, tol: float = CERT_TOL) -> Certificate:
    """Certify candidate = (x, y) with x in A, y in B.

    Verdict "coupled_bpp" when both residuals match the pair distance
    T.declared_dist within tol, "coupled_fixed_point" when additionally
    the distance itself is below tol, "rejected" otherwise (with a reason).
    """
    d = T.declared_dist
    if d is None:
        raise CertifyError("certification needs the pair distance")
    for v, S, reason in ((candidate.first, T.A, "x is not in the A set"),
                         (candidate.second, T.B, "y is not in the B set")):
        if not contains(S, T.space, v, tol):
            return Certificate(candidate, None, None, d, VERDICT_REJECTED, tol, reason=reason)
    f, (row, gap) = row_map(T), row_kernel(T.space)
    x, y = row(candidate.first), row(candidate.second)
    rx, ry = map(gap, (x, y), coupled(f, x, y, SIDE_AB))
    miss = max(abs(rx - d), abs(ry - d))
    if miss <= tol:
        verdict = VERDICT_FIXED if d <= tol else VERDICT_BPP
        return Certificate(candidate, rx, ry, d, verdict, tol)
    return Certificate(candidate, rx, ry, d, VERDICT_REJECTED, tol,
                       reason=f"residuals miss the pair distance by {miss!r}")


@dataclass(frozen=True)
class SolveRecord:
    start: ProductPoint
    limit: ProductPoint | None
    certificate: Certificate | None
    trajectory: Trajectory | None
    reason: str = ""


@dataclass(frozen=True)
class UniquenessReport:
    starts: tuple[ProductPoint, ...]
    limits: tuple[ProductPoint | None, ...]
    max_pairwise_limit_distance: float
    unique_within_tol: bool | None  # None when no start produced a limit
    tolerance: float

    def to_json(self) -> dict:
        return {
            "n_starts": len(self.starts),
            "limits": [None if p is None else render_pair(p) for p in self.limits],
            "max_pairwise_limit_distance": self.max_pairwise_limit_distance,
            "unique_within_tol": self.unique_within_tol,
            "tolerance": self.tolerance,
        }


def solve_and_certify(
    T: CyclicMapSpec,
    starts: list[tuple[Vector, Vector]],
    rule: StopRule = StopRule(),
    tol: float = CERT_TOL,
    trajectories: Sequence[Trajectory] | None = None,
    run_tol: float = TOL_NUM,
) -> tuple[list[SolveRecord], UniquenessReport]:
    """Certify the limit reached from each start, and compare the limits.

    The limit from start i is the final even point of trajectories[i],
    the run already made from that start; without trajectories each
    start is iterated here under rule, at membership tolerance run_tol.
    Starts that already certify are their own limits.  Starts outside
    A x B and runs ending in a domain error contribute no limit.
    Uniqueness holds when all limits found agree within 10 * t_tol, and
    is undecided (None) when there are none.
    """
    if not starts:
        raise CertifyError("need at least one start")
    if trajectories is not None and len(trajectories) != len(starts):
        raise CertifyError("need one trajectory per start")
    records: list[SolveRecord] = []
    for i, (x0, y0) in enumerate(starts):
        p0 = ProductPoint(x0, y0)
        c0 = certify(T, p0, tol=tol)
        if c0.accepted:
            records.append(SolveRecord(p0, p0, c0, None, "start already certifies"))
            continue
        if trajectories is not None:
            traj = trajectories[i]
        else:
            try:
                traj = run(T, x0, y0, rule, run_tol)
            except DomainError as exc:  # the start itself is outside A x B
                records.append(SolveRecord(p0, None, None, None, str(exc)))
                continue
        if traj.stop_reason == "domain_error":
            records.append(SolveRecord(
                p0, None, None, traj,
                f"iterate left its set at step {traj.error_index}"))
            continue
        limit = traj.final_even_point()
        records.append(SolveRecord(p0, limit, certify(T, limit, tol=tol), traj))

    limits = [r.limit for r in records]
    found = [p for p in limits if p is not None]
    worst = 0.0
    for i in range(len(found)):
        for j in range(i + 1, len(found)):
            worst = max(worst, pair_distance(T.space, found[i], found[j]))
    u_tol = 10.0 * (rule.t_tol if rule.t_tol is not None else TOL_STOP)
    report = UniquenessReport(
        starts=tuple(r.start for r in records),
        limits=tuple(limits),
        max_pairwise_limit_distance=worst,
        unique_within_tol=worst <= u_tol if found else None,
        tolerance=u_tol,
    )
    return records, report


def second_iterate_check(T: CyclicMapSpec, candidate: ProductPoint,
                         tol: float = CERT_TOL) -> CheckReport:
    """Second-iterate identity at a certified candidate.

    For (x, y) certified in a uniformly convex space the coupled image of
    the coupled image returns to (x, y).  Not applicable when the space
    has no convexity modulus.
    """
    if not T.space.modulus_available:
        return CheckReport("second_iterate", 0, status=NOT_APPLICABLE,
                           detail=f"{T.space.norm} has no convexity modulus")
    f, (row, gap), vector = row_map(T), row_kernel(T.space), row_vector(T.space)
    x, y = row(candidate.first), row(candidate.second)
    x1, y1 = coupled(f, x, y, SIDE_AB)
    x2, y2 = coupled(f, x1, y1, SIDE_BA)
    dx, dy = gap(x2, x), gap(y2, y)
    violations = [
        Violation((render_pair(candidate), render_vector(vector(got))), err, tol,
                  note=f"second iterate moved the {label} component")
        for label, err, got in (("x", dx, x2), ("y", dy, y2))
        if err > tol
    ]
    status = PASSED if not violations else FAILED
    return CheckReport("second_iterate", 2, tuple(violations), status,
                       detail=f"|x2 - x| = {dx!r}, |y2 - y| = {dy!r}")


def proximal_squeeze_check(
    space: NormedSpaceSpec,
    A: ConvexSet,
    B: ConvexSet,
    seq_xy: list[ProductPoint],
    seq_wz: list[ProductPoint],
    seq_uv: list[ProductPoint],
    d: float | None = None,
    tol: float = CERT_TOL,
) -> CheckReport:
    """Squeeze argument for uniformly convex spaces.

    seq_xy and seq_wz live in A x B, seq_uv in B x A.  When both product
    distances to seq_uv approach dist(A, B) (the premises), uniform
    convexity forces seq_xy and seq_wz together: the final gap must fall
    below 10 * tol.  Refuses spaces without a convexity modulus; raises
    PremiseNotMet when a premise fails, naming it.
    """
    if not space.modulus_available:
        raise ModulusUnavailable(
            f"squeeze argument needs a convexity modulus; {space.norm} has none")
    if not (len(seq_xy) == len(seq_wz) == len(seq_uv)) or len(seq_xy) < 2:
        raise CertifyError("need three equal-length sequences with >= 2 entries")
    if d is None:
        if space.norm != "l2":
            raise CertifyError("provide the pair distance for this space")
        d = set_dist(A, B, space).value
    for label, seq in (("xy-uv", seq_xy), ("wz-uv", seq_wz)):
        final = pair_distance(space, seq[-1], seq_uv[-1])
        if abs(final - d) > tol:
            raise PremiseNotMet(
                f"premise {label} not met at index {len(seq) - 1}: "
                f"product distance {final!r} is not within {tol} of dist {d!r}")
    gap = pair_distance(space, seq_xy[-1], seq_wz[-1])
    bound = 10.0 * tol
    detail = f"final squeeze gap = {gap!r}, bound = {bound!r}"
    if gap < bound:
        return CheckReport("proximal_squeeze", len(seq_xy), (), PASSED, detail)
    return CheckReport(
        "proximal_squeeze", len(seq_xy),
        (Violation(("final gap",), gap, bound,
                   note="sequences failed to collapse together"),),
        FAILED, detail)
