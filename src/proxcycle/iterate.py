"""Coupled Picard iteration and trajectory diagnostics.

From a start (x0, y0) in A x B the iteration produces
x_n = T(x_(n-1), y_(n-1)) and y_n = T(y_(n-1), x_(n-1)), so the pair
alternates between A x B (even n) and B x A (odd n): point n lies on
side n % 2 of maps.SIDES.  The recorded t-series is the product distance
between consecutive pairs; for the maps this package targets it
decreases to dist(A, B).  Every distance here is space.larger of two
row_kernel gaps on rows of the flat buffer, bit for bit pair_distance.

Diagnostics never raise on mathematical failure: they return reports.
A bound that fails on a budget-exhausted trajectory is inconclusive,
since more iterations might have met the tolerance; the same bound
failing after a converged stop is a genuine failure.
"""
from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property, partial, reduce
from itertools import accumulate
from numbers import Integral

from .maps import SIDES, CyclicMapSpec, DomainError, coupled, native_form
from .report import FAILED, INCONCLUSIVE, PASSED, CheckReport, Violation, conclude
from .sets import contains, member_test
from .space import (
    TOL_NUM,
    NormedSpaceSpec,
    ProductPoint,
    Vector,
    larger,
    pack_flat,
    row_kernel,
    unpack,
)

STOP_BUDGET = "budget"
STOP_CONVERGED_T = "converged_t"
STOP_CONVERGED_GAP = "converged_gap"
STOP_DOMAIN_ERROR = "domain_error"
TOL_STOP = 1e-8  # StopRule's default t_tol and gap_tol, and the diagnostics' fallback


@dataclass(frozen=True)
class StopRule:
    """Iteration budget plus optional tolerance triggers.

    t_tol stops once |t_n - dist| < t_tol (needs a declared distance);
    gap_tol stops once the latest two lag gaps (one even, one odd) fall below it.
    Either tolerance may be None to disable that trigger.
    """

    max_iters: int = 1000
    t_tol: float | None = TOL_STOP
    gap_tol: float | None = TOL_STOP

    def __post_init__(self):
        n = self.max_iters
        if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {n!r}")
        for label, tol in (("t_tol", self.t_tol), ("gap_tol", self.gap_tol)):
            if tol is not None and not 0.0 < tol < math.inf:
                raise ValueError(f"{label} must be positive and finite when given")


class _Points(Sequence):
    """Read-only view of the points in a trajectory's flat buffer.  Point n
    is built on first access and kept, so a point read twice is one object;
    a slice is a tuple.  It holds no Trajectory, so it makes no cycle."""

    def __init__(self, flat: array, index: tuple[int, ...], n_points: int):
        self._flat, self._index = flat, index
        self._built: list[ProductPoint | None] = [None] * n_points

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, n):
        if isinstance(n, slice):
            return tuple(self[i] for i in range(*n.indices(len(self))))
        n = range(len(self))[n]
        p = self._built[n]
        if p is None:
            p = self._built[n] = _point(_rows(self._flat, len(self._index), n), self._index)
        return p


def _rows(flat: array, k: int, n: int) -> tuple[array, array]:
    """The coordinate rows of x_n and y_n in a flat buffer of k-float rows."""
    return flat[2 * n * k:(2 * n + 1) * k], flat[(2 * n + 1) * k:(2 * n + 2) * k]


def _point(rows: tuple[array, array], index: Sequence[int]) -> ProductPoint:
    return ProductPoint(unpack(rows[0], index), unpack(rows[1], index))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A run of the coupled iteration.

    flat holds the points once, read-only: the rows x_0, y_0, x_1, ... over
    index, the sorted coordinates the points may use: range(dimension) in
    dense mode, the union of their supports in sequence mode.  points, a
    sequence of ProductPoints, is a view of it made on first read.
    t_series[j] is the product distance from point j to point j + 1, and
    lag_gaps[j] from point j to point j + 2, so the even gaps are
    lag_gaps[0::2] and the odd gaps lag_gaps[1::2].
    """

    space: NormedSpaceSpec
    flat: array
    index: tuple[int, ...]
    n_points: int
    t_series: tuple[float, ...]
    lag_gaps: tuple[float, ...]
    stop_reason: str
    rule: StopRule
    dist_used: float | None
    error_index: int | None = None

    def __post_init__(self):
        if len(self.flat) != 2 * self.n_points * len(self.index):
            raise ValueError("flat must hold two rows of len(index) floats per point")
        if (len(self.t_series) != self.n_points - 1
                or len(self.lag_gaps) != max(self.n_points - 2, 0)):
            raise ValueError("t_series needs n_points - 1 values and lag_gaps n_points - 2")

    @classmethod
    def from_points(cls, space: NormedSpaceSpec, points: Sequence[ProductPoint],
                    *args, **kwargs) -> "Trajectory":
        """A trajectory through the given points; the remaining arguments
        are the fields after n_points, as for the constructor."""
        flat, index = pack_flat([v for p in points for v in (p.first, p.second)], space)
        return cls(space, flat, index, len(points), *args, **kwargs)

    @cached_property
    def points(self) -> Sequence[ProductPoint]:
        return _Points(self.flat, self.index, self.n_points)

    def final_even_point(self) -> ProductPoint:
        last = self.n_points - 1
        return self.points[last if last % 2 == 0 else last - 1]


def run(T: CyclicMapSpec, x0: Vector, y0: Vector, rule: StopRule = StopRule(),
        tol: float = TOL_NUM) -> Trajectory:
    """Iterate T from (x0, y0) in A x B until a stop rule fires.

    Raises DomainError if the start itself is outside A x B.  An iterate
    leaving its required set mid-run ends the trajectory with
    stop_reason "domain_error" instead (the bad point is not recorded).

    T is evaluated through maps.native_form, on rows for a RowEvaluator
    and on Vectors otherwise, each image becoming a row once.  Distances
    and set tests work on rows (space.row_kernel) and equal norm and
    contains on the Vectors bit for bit.  A dense row joins the flat buffer
    at once; in sequence mode a row is the Vector itself, packed last.
    """
    space = T.space
    if not contains(T.A, space, x0, tol):
        raise DomainError("start x0 is not in the A set")
    if not contains(T.B, space, y0, tol):
        raise DomainError("start y0 is not in the B set")

    row, gap = row_kernel(space)
    f, to_row = native_form(T)
    # point n lies on side n % 2: step n applies side (n - 1) % 2 and lands there
    inside = [[member_test(S, space, tol) for S in T.domain_sets(s)] for s in range(len(SIDES))]

    flat, vectors = array("d"), []
    keep = (lambda r: flat.extend([*r[0], *r[1]])) if space.mode == "dense" else vectors.extend
    last = before = (row(x0), row(y0))  # the rows of points n - 1 and n - 2
    keep(last)
    x, y = last if to_row is None else (x0, y0)
    t_series: list[float] = []
    lag_gaps: list[float] = []
    stop_reason = STOP_BUDGET
    error_index = None
    d = T.declared_dist

    for n in range(1, rule.max_iters + 1):
        x, y = coupled(f, x, y, (n - 1) % 2)
        rx, ry = (x, y) if to_row is None else (to_row(x), to_row(y))
        in_x, in_y = inside[n % 2]
        if not (in_x(rx) and in_y(ry)):
            stop_reason = STOP_DOMAIN_ERROR
            error_index = n
            break
        older, before, last = before, last, (rx, ry)
        keep(last)
        t_series.append(larger(gap(before[0], rx), gap(before[1], ry)))
        if n >= 2:
            lag_gaps.append(larger(gap(rx, older[0]), gap(ry, older[1])))

        if rule.t_tol is not None and d is not None and abs(t_series[-1] - d) < rule.t_tol:
            stop_reason = STOP_CONVERGED_T
            break
        if (rule.gap_tol is not None and len(lag_gaps) >= 2
                and lag_gaps[-1] < rule.gap_tol and lag_gaps[-2] < rule.gap_tol):
            stop_reason = STOP_CONVERGED_GAP
            break

    flat, index = pack_flat(vectors, space) if vectors else (flat, tuple(range(space.dimension)))
    return Trajectory(
        space=space,
        flat=flat,
        index=index,
        n_points=len(t_series) + 1,
        t_series=tuple(t_series),
        lag_gaps=tuple(lag_gaps),
        stop_reason=stop_reason,
        rule=rule,
        dist_used=d,
        error_index=error_index,
    )


# ---------------------------------------------------------------------------
# diagnostics

def _budget_status(traj: Trajectory) -> str:
    return INCONCLUSIVE if traj.stop_reason == STOP_BUDGET else FAILED


def diagnose_monotone_t(traj: Trajectory, tol: float = TOL_NUM) -> CheckReport:
    """t_n must be non-increasing along the whole trajectory."""
    if len(traj.t_series) < 2:
        return CheckReport("monotone_t", 0, status=INCONCLUSIVE,
                           detail="need at least two t values")
    violations = []
    for k in range(len(traj.t_series) - 1):
        a, b = traj.t_series[k], traj.t_series[k + 1]
        if not b <= a + tol:
            violations.append(Violation(
                (f"t[{k}]={a!r}", f"t[{k + 1}]={b!r}"), b, a,
                note="t series increased",
            ))
    return conclude("monotone_t", len(traj.t_series) - 1, violations)


def diagnose_t_limit(traj: Trajectory, tol: float | None = None) -> CheckReport:
    """Final t value must sit within tol of dist(A, B), traj.dist_used.

    Also verifies the floor: every t value, a nan failing, must reach dist - TOL_NUM.
    """
    d = traj.dist_used
    if d is None:
        return CheckReport("t_limit", 0, status=INCONCLUSIVE,
                           detail="no pair distance available")
    if not traj.t_series:
        return CheckReport("t_limit", 0, status=INCONCLUSIVE, detail="empty t series")
    if tol is None:
        tol = traj.rule.t_tol if traj.rule.t_tol is not None else TOL_STOP
    violations = []
    for k, t in enumerate(traj.t_series):
        if not t >= d - TOL_NUM:
            violations.append(Violation(
                (f"t[{k}]={t!r}",), d, t,
                note="t value undercut the pair distance",
            ))
    final = traj.t_series[-1]
    detail = f"final t = {final!r}, dist = {d!r}"
    if violations:
        return CheckReport("t_limit", len(traj.t_series), tuple(violations), FAILED, detail)
    if abs(final - d) < tol:
        return CheckReport("t_limit", len(traj.t_series), (), PASSED, detail)
    miss = Violation((f"t[{len(traj.t_series) - 1}]={final!r}",), abs(final - d), tol,
                     note="final t missed dist")
    return CheckReport("t_limit", len(traj.t_series), (miss,), _budget_status(traj), detail)


def diagnose_even_gaps(traj: Trajectory, tol: float | None = None) -> CheckReport:
    """Final even-index and odd-index gaps must both fall below tol."""
    if traj.n_points < 4:
        return CheckReport("even_gaps", 0, status=INCONCLUSIVE,
                           detail="need at least four points")
    if tol is None:
        tol = traj.rule.gap_tol if traj.rule.gap_tol is not None else TOL_STOP
    even, odd = traj.lag_gaps[0::2], traj.lag_gaps[1::2]
    checked = len(traj.lag_gaps)
    detail = f"final even gap = {even[-1]!r}, final odd gap = {odd[-1]!r}"
    violations = []
    for label, series in (("even", even), ("odd", odd)):
        if not series[-1] < tol:
            violations.append(Violation(
                (f"final {label} gap",), series[-1], tol,
                note="subsequence gap did not vanish",
            ))
    if not violations:
        return CheckReport("even_gaps", checked, (), PASSED, detail)
    return CheckReport("even_gaps", checked, tuple(violations), _budget_status(traj), detail)


def diagnose_interleaved(traj: Trajectory, eps_list=(0.5, 0.1, 0.01),
                         tol: float = TOL_NUM) -> CheckReport:
    """Interleaved closeness: for each eps some tail index N bounds every
    cross distance ||u_2m - u_(2n+1)|| with m > n >= N by dist + eps,
    where dist is traj.dist_used.  eps_list must be non-empty and hold no nan.

    N is one past the last column n, the cross distances with m > n, that
    reaches dist + eps + tol.  With e the last even index, low[n] =
    ||u_e - u_(2n+1)|| is an entry of column n, and the triangle inequality
    bounds the column by low[n] + reach[n], reach[n] being the largest
    ||u_2m - u_e|| with m > n.  Walking n down from the last tail index, a
    column whose bound is below the threshold is skipped, one whose low[n]
    reaches it ends the walk, and any other is computed exactly, at most
    once per call.  Every distance is the row gap that run uses, bit for bit
    pair_distance.  A distance that reads a nan or inf, or overflows, is not
    finite, nor is a bound it enters, and a nan one reaches every threshold.

    On a settling trajectory this is O(n * d) plus a few columns.  On one
    that does not settle the bound stays loose and every column is
    computed, O(n^2 * d) in Python: about 0.9 s for 2,500 points at d = 32 on
    one Xeon core under CPython 3.11.
    """
    eps_list = tuple(eps_list)
    if not eps_list or any(math.isnan(eps) for eps in eps_list):
        raise ValueError(f"eps_list must be non-empty and hold no nan, got {eps_list!r}")
    d = traj.dist_used
    if d is None:
        return CheckReport("interleaved", 0, status=INCONCLUSIVE,
                           detail="no pair distance available")
    if traj.n_points < 3:
        return CheckReport("interleaved", 0, status=INCONCLUSIVE, detail="too short")
    # the rows as row_kernel's gap takes them: lists of floats, or Vectors
    k, values = len(traj.index), traj.flat.tolist()
    rows = [values[i * k:(i + 1) * k] for i in range(2 * traj.n_points)]
    if traj.space.mode == "sequence":
        rows = [unpack(r, traj.index) for r in rows]
    points = list(zip(rows[0::2], rows[1::2]))
    evens, odds = points[0::2], points[1::2]
    _, gap = row_kernel(traj.space)

    def dist(p, q) -> float:
        return larger(gap(p[0], q[0]), gap(p[1], q[1]))

    n_even, n_odd = len(evens), len(odds)
    last_tail = min(n_even - 1, n_odd) - 1  # the last N with a pair m > n >= N
    last = evens[-1]
    low = [dist(last, q) for q in odds[:last_tail + 1]]
    reach = list(accumulate((dist(p, last) for p in evens[:0:-1]), larger))[::-1]

    @cache
    def column(n: int) -> float:
        """The largest cross distance with m > n, nan if any is nan."""
        q = odds[n]
        return reduce(larger, (dist(p, q) for p in evens[n + 1:]), -math.inf)

    # each distance is within about (k + 6) half-ulps of the exact norm, so
    # a column entry can pass the computed bound by about (k + 7) ulps of
    # it; rel covers that with room, its floor also the error of tiny values
    rel = max(1e-12, 4 * k * math.ulp(1.0))
    pairs = sum(min(m, n_odd) for m in range(1, n_even))
    checked = 0
    violations = []
    tails = []
    for eps in eps_list:
        checked += pairs
        thr = d + eps + tol
        # a non-finite thr makes floor nan or -inf: nothing is skipped
        floor = thr - rel * max(1.0, abs(thr))
        N = 1 + next((n for n in range(last_tail, -1, -1)
                      if not low[n] + reach[n] < floor
                      and not (low[n] < thr and column(n) < thr)), -1)
        if N <= last_tail:
            tails.append((eps, N))
        else:
            violations.append(Violation(
                (f"eps={eps}",), float(N), float(last_tail),
                note="no tail index leaves the cross distances under dist + eps",
            ))
    detail = "tails " + ", ".join(f"eps={e}: N={n}" for e, n in tails)
    if not violations:
        return CheckReport("interleaved", checked, (), PASSED, detail)
    return CheckReport("interleaved", checked, tuple(violations), _budget_status(traj), detail)


def diagnose_cauchy(traj: Trajectory, k: int = 10, tol: float | None = None) -> CheckReport:
    """Max pairwise product distance among the last k even (and odd) points."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k!r}")
    if traj.n_points < 6:
        return CheckReport("cauchy", 0, status=INCONCLUSIVE,
                           detail="need at least six points")
    if tol is None:
        tol = traj.rule.gap_tol if traj.rule.gap_tol is not None else TOL_STOP
    _, gap = row_kernel(traj.space)  # on its rows: a dense buffer row, else its Vector
    row = (lambda r: r) if traj.space.mode == "dense" else partial(unpack, index=traj.index)
    checked = 0
    worst = {"even": 0.0, "odd": 0.0}
    for label, first in (("even", 0), ("odd", 1)):
        seq = range(first, traj.n_points, 2)
        tail = [tuple(map(row, _rows(traj.flat, len(traj.index), n))) for n in seq[-k:]]
        for i, (xi, yi) in enumerate(tail):
            for xj, yj in tail[i + 1:]:
                checked += 1
                worst[label] = larger(worst[label], larger(gap(xi, xj), gap(yi, yj)))
    detail = f"even spread = {worst['even']!r}, odd spread = {worst['odd']!r}"
    violations = [
        Violation((f"last-{k} {label} points",), spread, tol,
                  note="tail subsequence is not settling")
        for label, spread in worst.items() if not spread < tol
    ]
    if not violations:
        return CheckReport("cauchy", checked, (), PASSED, detail)
    return CheckReport("cauchy", checked, tuple(violations), _budget_status(traj), detail)


# ---------------------------------------------------------------------------
# trace export

def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    """Write the trace: one row per point, gaps attached to their later index.

    Coordinates print as repr(float): dense rows in full, joined by ';',
    sequence rows as i:value over their nonzero entries.  No field can
    hold a comma, quote or line break, so the lines are those csv.writer
    would write, ending in \\r\\n.
    """
    if traj.space.mode == "dense":
        def fmt(row: array) -> str:
            return ";".join(map(repr, row))
    else:
        def fmt(row: array) -> str:
            return ";".join(f"{j}:{v!r}" for j, v in zip(traj.index, row) if v != 0.0)

    with open(path, "w", newline="") as fh:
        fh.write("n,x,y,t,even_gap,odd_gap\r\n")
        for n in range(traj.n_points):
            x, y = _rows(traj.flat, len(traj.index), n)
            t = repr(traj.t_series[n]) if n < len(traj.t_series) else ""
            g = repr(traj.lag_gaps[n - 2]) if n >= 2 else ""
            eg, og = (g, "") if n % 2 == 0 else ("", g)
            fh.write(f"{n},{fmt(x)},{fmt(y)},{t},{eg},{og}\r\n")
