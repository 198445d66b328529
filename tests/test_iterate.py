"""Trajectory generation and diagnostics.

The interval map halves the deviation from the proximal pair (1, -1)
each step while alternating sign, so points, t values and gaps all have
dyadic closed forms that survive float arithmetic exactly.  Those are
frozen below and double as the oracle for the CSV export.
"""
import gc
import hashlib
import math
import random
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxcycle import (
    STOP_BUDGET,
    STOP_CONVERGED_GAP,
    STOP_CONVERGED_T,
    STOP_DOMAIN_ERROR,
    SIDE_AB,
    SIDE_BA,
    Box,
    CyclicMapSpec,
    DeclaredSet,
    DomainError,
    Hull,
    NormedSpaceSpec,
    ProductPoint,
    StopRule,
    Trajectory,
    Vector,
    basis,
    builtin,
    contains,
    diagnose_cauchy,
    diagnose_even_gaps,
    diagnose_interleaved,
    diagnose_monotone_t,
    diagnose_t_limit,
    norm,
    pair_distance,
    run,
    sample,
    trajectory_to_csv,
)
from proxcycle import iterate
from proxcycle.maps import RowEvaluator, native_form
from proxcycle.report import CheckReport, Violation

INTERVAL = builtin("interval_contraction")
FLIP = builtin("flip")

X0 = Vector.dense([2.0])
Y0 = Vector.dense([-2.0])

NO_TOLS = StopRule(max_iters=8, t_tol=None, gap_tol=None)


def test_interval_hand_values_exact():
    traj = run(INTERVAL, X0, Y0, NO_TOLS)
    assert traj.stop_reason == STOP_BUDGET
    assert len(traj.points) == 9
    for n, p in enumerate(traj.points):
        want = (1.0 + 2.0 ** -n) * (1 if n % 2 == 0 else -1)
        assert p.first.value_at(0) == want
        assert p.second.value_at(0) == -want
    assert list(traj.t_series) == [2.0 + 1.5 * 2.0 ** -k for k in range(8)]
    assert list(traj.lag_gaps) == [3.0 * 2.0 ** -n for n in range(2, 9)]
    assert traj.dist_used == 2.0
    assert traj.error_index is None


def test_default_rule_stops_on_t():
    traj = run(INTERVAL, X0, Y0)
    assert traj.stop_reason == STOP_CONVERGED_T
    assert len(traj.points) == 30
    assert traj.t_series[-1] == 2.0000000055879354


def test_tight_rule_runs_to_float_collapse():
    traj = run(INTERVAL, X0, Y0, StopRule(max_iters=200, t_tol=1e-15, gap_tol=None))
    assert traj.stop_reason == STOP_CONVERGED_T
    assert len(traj.points) == 53
    assert traj.t_series[-1] == 2.000000000000001


def test_alternation_and_membership():
    traj = run(INTERVAL, X0, Y0)
    for n, p in enumerate(traj.points):
        side = SIDE_AB if n % 2 == 0 else SIDE_BA
        sets = (INTERVAL.A, INTERVAL.B) if side == SIDE_AB else (INTERVAL.B, INTERVAL.A)
        assert INTERVAL.domain_sets(side) == sets
        assert contains(sets[0], INTERVAL.space, p.first)
        assert contains(sets[1], INTERVAL.space, p.second)
    assert traj.final_even_point() is traj.points[-1 if (len(traj.points) - 1) % 2 == 0 else -2]


@settings(max_examples=60, deadline=None)
@given(x=st.floats(1.0, 2.0), y=st.floats(-2.0, -1.0))
def test_interval_t_floor_and_convergence_property(x, y):
    traj = run(INTERVAL, Vector.dense([x]), Vector.dense([y]))
    assert traj.stop_reason == STOP_CONVERGED_T
    assert all(t >= 2.0 - 1e-12 for t in traj.t_series)
    assert abs(traj.t_series[-1] - 2.0) < 1e-8
    if len(traj.t_series) >= 2:  # a start on the proximal pair stops at once
        assert diagnose_monotone_t(traj).status == "passed"


def test_start_outside_domain_raises():
    with pytest.raises(DomainError):
        run(INTERVAL, Vector.dense([0.5]), Y0)
    with pytest.raises(DomainError):
        run(INTERVAL, X0, Vector.dense([0.5]))


def test_mid_run_escape_stops_with_domain_error():
    space = NormedSpaceSpec(norm="l2", mode="dense", dimension=1)
    escape = CyclicMapSpec(
        "escape", space, Box((1.0,), (2.0,)), Box((-2.0,), (-1.0,)),
        lambda x, y, side: Vector.dense([0.5]),
    )
    traj = run(escape, Vector.dense([1.5]), Vector.dense([-1.5]), NO_TOLS)
    assert traj.stop_reason == STOP_DOMAIN_ERROR
    assert traj.error_index == 1
    # the offending point is dropped, so only the start is recorded
    assert len(traj.points) == 1
    assert traj.t_series == ()


def test_stop_rule_validation():
    for bad in (0, 2.5, 2.0, True):  # a float budget would raise TypeError in run
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            StopRule(max_iters=bad)
    with pytest.raises(ValueError):
        StopRule(t_tol=0.0)
    with pytest.raises(ValueError):
        StopRule(gap_tol=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            StopRule(t_tol=bad)
        with pytest.raises(ValueError):
            StopRule(gap_tol=bad)


def test_kannan_constant_map_collapses_to_exact_cycle():
    T = builtin("l1_kannan")
    x0 = Vector.from_map({1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5})
    y0 = basis(2) + basis(3)
    traj = run(T, x0, y0, StopRule(max_iters=50, t_tol=None, gap_tol=1e-12))
    assert traj.stop_reason == STOP_CONVERGED_GAP
    assert len(traj.points) == 5
    assert list(traj.t_series) == [2.0, 2.0, 2.0, 2.0]
    assert traj.lag_gaps[-2:] == (0.0, 0.0)
    rep = diagnose_even_gaps(traj, tol=1e-12)
    assert rep.status == "passed"
    # t never converges to 0 here: 2.0 is the genuine floor
    assert diagnose_t_limit(traj, tol=1e-8).status == "passed"


# ---------------------------------------------------------------------------
# diagnostics

def test_monotone_t_passes_on_interval_and_flags_increase():
    traj = run(INTERVAL, X0, Y0, NO_TOLS)
    rep = diagnose_monotone_t(traj)
    assert rep.status == "passed"
    assert rep.checked == 7
    # flip oscillates at constant t and still counts as non-increasing
    flip_traj = run(FLIP, Vector.dense([1.5]), Vector.dense([-1.5]), StopRule(max_iters=40))
    assert diagnose_monotone_t(flip_traj).status == "passed"


def test_monotone_t_reports_increase():
    traj = run(INTERVAL, X0, Y0, NO_TOLS)
    # reversing the t series manufactures an increasing run
    from dataclasses import replace
    bad = replace(traj, t_series=tuple(reversed(traj.t_series)))
    rep = diagnose_monotone_t(bad)
    assert rep.status == "failed"
    assert all(v.note == "t series increased" for v in rep.violations)


def test_t_limit_passes_after_converged_stop():
    traj = run(INTERVAL, X0, Y0)
    rep = diagnose_t_limit(traj)
    assert rep.status == "passed"
    assert "final t = 2.0000000055879354" in rep.detail


def test_t_limit_budget_stop_is_inconclusive_not_failed():
    traj = run(INTERVAL, X0, Y0, StopRule(max_iters=6, t_tol=1e-15, gap_tol=None))
    assert traj.stop_reason == STOP_BUDGET
    rep = diagnose_t_limit(traj)
    assert rep.status == "inconclusive"
    # a looser explicit tolerance overrides the rule tolerance
    assert diagnose_t_limit(traj, tol=0.1).status == "passed"


def test_t_limit_fails_after_converged_stop_and_on_floor_violation():
    flip_traj = run(FLIP, Vector.dense([1.5]), Vector.dense([-1.5]), StopRule(max_iters=40))
    assert flip_traj.stop_reason == STOP_CONVERGED_GAP
    rep = diagnose_t_limit(flip_traj)
    assert rep.status == "failed"
    assert "final t = 3.0" in rep.detail
    # a fake larger distance trips the floor check instead
    traj = run(INTERVAL, X0, Y0)
    floor = diagnose_t_limit(replace(traj, dist_used=2.5))
    assert floor.status == "failed"
    assert any(v.note == "t value undercut the pair distance" for v in floor.violations)


def test_even_gaps_pass_and_budget_miss_is_inconclusive():
    # the default rule stops on t while gaps are still ~1.1e-8, so the
    # gap diagnostics need the tighter t tolerance to run long enough
    traj = run(INTERVAL, X0, Y0, StopRule(max_iters=200, t_tol=1e-15, gap_tol=None))
    assert diagnose_even_gaps(traj).status == "passed"
    short = run(INTERVAL, X0, Y0, StopRule(max_iters=5, t_tol=None, gap_tol=None))
    rep = diagnose_even_gaps(short, tol=1e-8)
    assert rep.status == "inconclusive"
    assert any(v.note == "subsequence gap did not vanish" for v in rep.violations)


def test_interleaved_tails_on_interval():
    traj = run(INTERVAL, X0, Y0)
    rep = diagnose_interleaved(traj)
    assert rep.status == "passed"
    assert "eps=0.5" in rep.detail and "eps=0.01" in rep.detail
    custom = diagnose_interleaved(traj, eps_list=(1.0, 0.25))
    assert custom.status == "passed"


def every_violation(report):
    """report.to_json(), with every violation rather than the first few."""
    return {**report.to_json(), "violations": [v.to_json() for v in report.violations]}


def interleaved_reference(traj, eps_list, d, tol):
    """diagnose_interleaved's report, from pair_distance on every pair."""
    evens, odds = traj.points[0::2], traj.points[1::2]
    cross = [(n, pair_distance(traj.space, evens[m], odds[n]))
             for m in range(1, len(evens)) for n in range(min(m, len(odds)))]
    checked, tails, violations = 0, [], []
    for eps in eps_list:
        worst_n = -1
        for n, dist in cross:
            checked += 1
            if not dist < d + eps + tol:  # a nan reaches every threshold
                worst_n = max(worst_n, n)
        N = worst_n + 1
        if N + 1 < len(evens) and N < len(odds):
            tails.append((eps, N))
        else:  # rhs: the last N with an admissible pair m > n >= N
            violations.append(Violation(
                (f"eps={eps}",), float(N), float(min(len(evens) - 1, len(odds)) - 1),
                note="no tail index leaves the cross distances under dist + eps"))
    status = "passed" if not violations else (
        "inconclusive" if traj.stop_reason == STOP_BUDGET else "failed")
    detail = "tails " + ", ".join(f"eps={e}: N={n}" for e, n in tails)
    return CheckReport("interleaved", checked, tuple(violations), status, detail)


def eps_reaching(target, d, tol):
    """An eps with d + eps + tol == target exactly, or None."""
    eps = target - d - tol
    for _ in range(16):
        got = d + eps + tol
        if got == target:
            return eps
        eps = math.nextafter(eps, math.inf if got < target else -math.inf)
    return None


def series(space, points):
    """The t_series and lag_gaps that run records for these points."""
    return (tuple(pair_distance(space, p, q) for p, q in zip(points, points[1:])),
            tuple(pair_distance(space, p, q) for p, q in zip(points, points[2:])))


def settling_trajectory(space, seed, n_points, offset, stop_reason):
    """Points that wander around (offset, -offset) with shrinking noise."""
    rng = random.Random(seed)
    indices = range(space.dimension) if space.mode == "dense" else range(7)

    def vec(sign, scale):
        vals = {i: sign * offset + scale * rng.uniform(-1.0, 1.0) for i in indices
                if space.mode == "dense" or rng.random() < 0.6}
        return Vector.from_map(vals)

    points = tuple(ProductPoint(vec(1 if n % 2 == 0 else -1, 0.8 ** n),
                                vec(-1 if n % 2 == 0 else 1, 0.8 ** n))
                   for n in range(n_points))
    return Trajectory.from_points(space, points, *series(space, points), stop_reason, StopRule(),
                                  None)


SPACES = [NormedSpaceSpec(norm, "dense", dim, 3.0 if norm == "lp" else None)
          for norm in ("l1", "l2", "lp", "linf") for dim in (1, 3, 12)] + \
         [NormedSpaceSpec(norm, "sequence", None, 3.0 if norm == "lp" else None)
          for norm in ("l1", "l2", "lp", "linf")]


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.norm}-{s.mode}-{s.dimension}")
@pytest.mark.parametrize("seed", range(3))
def test_interleaved_matches_the_pairwise_reference(space, seed):
    offset = (0.0, 2.5, 1000.0)[seed]
    stop = STOP_BUDGET if seed == 1 else STOP_CONVERGED_T
    traj = settling_trajectory(space, seed, 41 + seed, offset, stop)
    evens, odds = traj.points[0::2], traj.points[1::2]
    d, tol = pair_distance(space, evens[-1], odds[-1]), 1e-9
    eps_list = [0.5, 0.1, 0.01, 0.0, 1e-6]
    # thresholds that equal a cross distance exactly, one ulp above and
    # below it, where the verdict rests on the last bit
    rng = random.Random(seed)
    for _ in range(12):
        m = rng.randrange(1, len(evens))
        n = rng.randrange(min(m, len(odds)))
        target = pair_distance(space, evens[m], odds[n])
        for t in (target, math.nextafter(target, math.inf), math.nextafter(target, -math.inf)):
            eps = eps_reaching(t, d, tol)
            if eps is not None:
                eps_list.append(eps)
    assert len(eps_list) > 20
    got = every_violation(diagnose_interleaved(replace(traj, dist_used=d), eps_list, tol=tol))
    assert got == every_violation(interleaved_reference(traj, eps_list, d, tol))


@pytest.mark.parametrize("norm", ["l1", "l2", "lp"])
def test_interleaved_matches_the_pairwise_reference_past_squares_overflow(norm):
    # squares of these coordinates overflow; the distances do not
    space = NormedSpaceSpec(norm, "dense", 3, 3.0 if norm == "lp" else None)
    traj = settling_trajectory(space, 0, 21, 1e200, STOP_CONVERGED_T)
    evens, odds = traj.points[0::2], traj.points[1::2]
    target = pair_distance(space, evens[3], odds[1])
    eps_list = [1e201, 0.5, eps_reaching(target, 0.0, 1e-9)]
    got = diagnose_interleaved(replace(traj, dist_used=0.0), eps_list).to_json()
    assert got == interleaved_reference(traj, eps_list, 0.0, 1e-9).to_json()
    assert "eps=1e+201: N=0" in got["detail"]


@pytest.mark.parametrize("norm", ["l1", "l2", "lp", "linf"])
def test_interleaved_matches_the_pairwise_reference_on_zero_vectors(norm):
    # in sequence mode the zero vector has no coordinates at all
    space = NormedSpaceSpec(norm, "sequence", None, 3.0 if norm == "lp" else None)
    zero = ProductPoint(Vector(), Vector())
    points = (zero,) * 7
    traj = Trajectory.from_points(space, points, *series(space, points), STOP_BUDGET, StopRule(),
                                  None)
    eps_list = [0.5, 0.0, -1e-9]
    got = diagnose_interleaved(replace(traj, dist_used=0.0), eps_list).to_json()
    assert got == interleaved_reference(traj, eps_list, 0.0, 1e-9).to_json()


@pytest.mark.parametrize("name", ["interval_contraction", "overlap_contraction", "l1_kannan", "flip"])
def test_interleaved_matches_the_pairwise_reference_on_builtins(name):
    T = builtin(name)
    x0, y0 = sample(T.A, T.space, 1, seed=3)[0], sample(T.B, T.space, 1, seed=4)[0]
    traj = run(T, x0, y0, StopRule(max_iters=120, t_tol=None, gap_tol=None))
    d = T.declared_dist
    eps_list = (0.5, 0.1, 0.01, 0.0, 1e-6)
    got = diagnose_interleaved(traj, eps_list).to_json()
    assert got == interleaved_reference(traj, eps_list, d, 1e-9).to_json()


# one space per norm and mode; on the trajectories below the triangle bound
# is loose or broken, so the walk computes columns exactly
LOOSE_SPACES = [s for s in SPACES if s.dimension in (3, None)]


def sphere_trajectory(space, seed, n_points):
    """Odd points at 0, even points anywhere on the sphere of radius 0.4: no
    tail settles, so the bound of every column exceeds the thresholds."""
    rng = random.Random(seed)
    indices = range(space.dimension) if space.mode == "dense" else range(7)
    zero = ProductPoint(Vector(), Vector())

    def on_sphere():
        v = Vector.from_map({i: rng.gauss(0.0, 1.0) for i in indices
                             if space.mode == "dense" or rng.random() < 0.6})
        return v.scale(0.4 / norm(space, v)) if v.coords else on_sphere()

    points = tuple(ProductPoint(on_sphere(), on_sphere()) if n % 2 == 0 else zero
                   for n in range(n_points))
    return Trajectory.from_points(space, points, *series(space, points), STOP_BUDGET,
                                  StopRule(), 0.0)


def boundary_eps(traj, d, tol, seed, eps_list):
    """eps_list and the eps whose threshold equals a cross distance, or one
    ulp above or below it."""
    evens, odds = traj.points[0::2], traj.points[1::2]
    rng = random.Random(seed)
    out = list(eps_list)
    for _ in range(8):
        m = rng.randrange(1, len(evens))
        target = pair_distance(traj.space, evens[m], odds[rng.randrange(min(m, len(odds)))])
        for t in (target, math.nextafter(target, math.inf), math.nextafter(target, -math.inf)):
            if (eps := eps_reaching(t, d, tol)) is not None:
                out.append(eps)
    return out


@pytest.mark.parametrize("space", LOOSE_SPACES, ids=lambda s: f"{s.norm}-{s.mode}")
@pytest.mark.parametrize("seed", range(2))
def test_interleaved_matches_the_pairwise_reference_when_nothing_settles(space, seed):
    traj = sphere_trajectory(space, seed, 40 + seed)
    eps_list = boundary_eps(traj, 0.0, 1e-9, seed, [0.5, 0.45, 0.6, 0.3, 0.0])
    got = every_violation(diagnose_interleaved(traj, eps_list))
    assert got == every_violation(interleaved_reference(traj, eps_list, 0.0, 1e-9))


def growing_map(space):
    """Sends x to about -1.25 x, so the run grows until it leaves the ball
    of radius 100 that A and B are."""
    ball = DeclaredSet("ball", lambda v, tol: norm(space, v) <= 100.0 + tol,
                       lambda rng: Vector())

    def ev(x, y, side):
        xs, ys = dict(x.coords), dict(y.coords)
        indices = (range(space.dimension) if space.mode == "dense"
                   else SEQ_INDICES["B" if side == SIDE_AB else "A"])
        return Vector.from_map({i: -1.25 * xs.get(i, 0.0) + 0.5 * math.sin(ys.get(i, 0.0) + i)
                                for i in indices})

    return CyclicMapSpec("growing", space, ball, ball, ev)


@pytest.mark.parametrize("space", LOOSE_SPACES, ids=lambda s: f"{s.norm}-{s.mode}")
def test_interleaved_matches_the_pairwise_reference_on_a_domain_error(space):
    traj = run(growing_map(space), *wobble_start(space, 1.0, seed=2),
               StopRule(max_iters=200, t_tol=None, gap_tol=None))
    assert traj.stop_reason == STOP_DOMAIN_ERROR and traj.n_points > 12
    evens, odds = traj.points[0::2], traj.points[1::2]
    d = pair_distance(space, evens[-1], odds[-1])
    eps_list = boundary_eps(traj, d, 1e-9, 0, [0.5, 0.1, 0.0, 5.0, 50.0])
    got = every_violation(diagnose_interleaved(replace(traj, dist_used=d), eps_list))
    assert got == every_violation(interleaved_reference(traj, eps_list, d, 1e-9))


@pytest.mark.parametrize("space", LOOSE_SPACES, ids=lambda s: f"{s.norm}-{s.mode}")
@pytest.mark.parametrize("where", [(6,), (9,), (6, 9), (40,)])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_interleaved_matches_the_pairwise_reference_with_a_non_finite_coordinate(space, where,
                                                                                 value):
    # an inf coordinate makes its distances inf, or nan in lp (inf / inf),
    # and a nan one makes them nan in every norm
    points = list(settling_trajectory(space, 0, 41, 2.5, STOP_CONVERGED_T).points)
    for n in where:
        sign = 1.0 if n % 2 == 0 else -1.0
        points[n] = ProductPoint(points[n].first + Vector.from_map({1: sign * value}),
                                 points[n].second)
    traj = Trajectory.from_points(space, points, *series(space, points), STOP_CONVERGED_T,
                                  StopRule(), None)
    d = pair_distance(space, points[-1], points[-2])
    eps_list = [0.5, 0.1, 0.01, 0.0, 1e300]
    got = every_violation(diagnose_interleaved(replace(traj, dist_used=d), eps_list))
    assert got == every_violation(interleaved_reference(traj, eps_list, d, 1e-9))


def five_point_trajectory(space, even1, odd0, last):
    """Points 0 to 4 with every x at 0 and y_0 = y_1 = odd0, y_2 = even1 and
    y_3 = y_4 = last: column 0 holds the distances of points 2 and 4 to
    point 1, and column 1 only that of point 4 to point 3."""
    ys = (odd0, odd0, even1, last, last)
    points = tuple(ProductPoint(Vector(), Vector.from_map(dict(enumerate(y)))) for y in ys)
    return Trajectory.from_points(space, points, *series(space, points), STOP_CONVERGED_T,
                                  StopRule(), 0.0)


@pytest.mark.parametrize("space", LOOSE_SPACES, ids=lambda s: f"{s.norm}-{s.mode}")
def test_interleaved_matches_the_pairwise_reference_where_rounding_breaks_the_triangle(space):
    # on a line, the rounded ||even1 - odd0|| can pass the rounded sum of
    # ||last - odd0|| and ||even1 - last||, the bound of column 0
    rng = random.Random(0)
    for _ in range(1000):
        odd0, last = ([rng.uniform(-3.0, 3.0) for _ in range(3)] for _ in "ol")
        t = rng.uniform(0.1, 3.0)
        traj = five_point_trajectory(space, [b + t * (b - a) for a, b in zip(odd0, last)],
                                     odd0, last)
        p = traj.points
        entry = pair_distance(space, p[2], p[1])
        if entry > pair_distance(space, p[4], p[1]) + pair_distance(space, p[2], p[4]):
            break
    else:
        pytest.fail("no rounded triangle found")
    eps_list = [eps_reaching(entry, 0.0, 1e-9), 0.5]
    got = diagnose_interleaved(traj, eps_list).to_json()
    assert got == interleaved_reference(traj, eps_list, 0.0, 1e-9).to_json()
    assert got["detail"].startswith(f"tails eps={eps_list[0]}: N=1")


@pytest.mark.parametrize("mode", ["dense", "sequence"])
def test_interleaved_matches_the_pairwise_reference_when_linf_drops_a_nan(mode):
    # the last point's nan is no first term of its linf gaps to the others,
    # and its y gap to point 3, which has the same y, is nan, so column 1
    # reaches the threshold and no tail is found; were the nan dropped, as
    # builtin max drops a nan after first place, column 1 would be 0 and the
    # bound of column 0 would miss coordinate 1, where ||even1 - odd0|| = 100
    space = NormedSpaceSpec("linf", mode, 2 if mode == "dense" else None)
    traj = five_point_trajectory(space, [6.0, 100.0], [0.0, 0.0], [5.0, math.nan])
    got = diagnose_interleaved(traj, [50.0]).to_json()
    assert got == interleaved_reference(traj, [50.0], 0.0, 1e-9).to_json()
    assert got["detail"] == "tails " and got["status"] == "failed"


@pytest.mark.parametrize("mode", ["dense", "sequence"])
def test_interleaved_matches_the_pairwise_reference_when_an_lp_gap_overflows(mode):
    # the last point's y differs from the others' by more than the largest
    # float, so its lp gaps are inf / inf = nan; a product distance that kept
    # its x gap, 0, would bound column 0 by 0, under its entry 50
    space = NormedSpaceSpec("lp", mode, 2 if mode == "dense" else None, 3.0)
    traj = five_point_trajectory(space, [-1e308, 50.0], [-1e308, 0.0], [1e308, 0.0])
    got = diagnose_interleaved(traj, [10.0]).to_json()
    assert got == interleaved_reference(traj, [10.0], 0.0, 1e-9).to_json()
    assert got["detail"] == "tails eps=10.0: N=1"


@pytest.mark.parametrize("eps_list", [(), [math.nan], (0.5, math.nan)])
def test_interleaved_refuses_an_empty_or_nan_eps(eps_list):
    traj = run(INTERVAL, X0, Y0, StopRule(max_iters=50, t_tol=None, gap_tol=None))
    assert traj.n_points == 51
    with pytest.raises(ValueError, match="eps_list must be non-empty and hold no nan"):
        diagnose_interleaved(traj, eps_list)


@pytest.mark.parametrize("diagnose, status, detail", [
    (diagnose_t_limit, "failed", "final t = 2.0, dist = 2.0"),
    (diagnose_interleaved, "passed", "tails eps=0.5: N=15, eps=0.1: N=15, eps=0.01: N=15")])
def test_a_nan_point_counts_against_t_limit_and_interleaved(diagnose, status, detail):
    # point 30's nan x makes t[29], t[30] and its cross distances nan: a nan
    # t undercuts the floor, and a nan column reaches every threshold, so the
    # tails start at 15, past every column that holds point 30 = u_(2 * 15)
    traj = run(INTERVAL, X0, Y0, StopRule(max_iters=60, t_tol=None, gap_tol=None))
    points = list(traj.points)
    points[30] = ProductPoint(Vector.dense([math.nan]), points[30].second)
    bad = Trajectory.from_points(traj.space, points, *series(traj.space, points),
                                 traj.stop_reason, traj.rule, traj.dist_used)
    assert bad.n_points == 61 and diagnose_monotone_t(bad).status == "failed"
    report = diagnose(bad)
    assert (report.status, report.detail) == (status, detail)


def test_cauchy_tail_spread():
    traj = run(INTERVAL, X0, Y0, StopRule(max_iters=200, t_tol=1e-15, gap_tol=None))
    rep = diagnose_cauchy(traj, k=10)
    assert rep.status == "passed"
    # a flip orbit is period 2, so its even subsequence is constant and
    # the tail spread is legitimately zero
    flip_traj = run(FLIP, Vector.dense([1.0]), Vector.dense([-1.0]),
                    StopRule(max_iters=40, t_tol=None, gap_tol=None))
    assert diagnose_cauchy(flip_traj, k=5).status == "passed"
    # truncated by budget, the interval tail is still moving: open verdict
    short = run(INTERVAL, X0, Y0, StopRule(max_iters=10, t_tol=None, gap_tol=None))
    bad = diagnose_cauchy(short, k=5, tol=1e-8)
    assert bad.status == "inconclusive"
    assert any(v.note == "tail subsequence is not settling" for v in bad.violations)


@pytest.mark.parametrize("k", [1, 0, -3])
def test_cauchy_refuses_a_tail_shorter_than_two(k):
    traj = run(INTERVAL, X0, Y0, StopRule(max_iters=40, t_tol=None, gap_tol=None))
    assert traj.n_points == 41
    with pytest.raises(ValueError, match="k must be >= 2"):
        diagnose_cauchy(traj, k=k)


def test_short_trajectories_are_inconclusive():
    one = run(INTERVAL, X0, Y0, StopRule(max_iters=1, t_tol=None, gap_tol=None))
    assert diagnose_monotone_t(one).status == "inconclusive"
    three = run(INTERVAL, X0, Y0, StopRule(max_iters=2, t_tol=None, gap_tol=None))
    assert diagnose_even_gaps(three).status == "inconclusive"
    assert diagnose_cauchy(three).status == "inconclusive"
    assert diagnose_interleaved(three).status == "inconclusive"


def test_monotone_battery_over_builtin_contractions():
    # (1, -1) itself is excluded: starting on the proximal pair stops the
    # run after one step, too short for the monotone diagnostic
    starts = [(1.1, -1.2), (2.0, -2.0), (1.25, -1.75), (1.9, -1.1), (1.5, -1.5)]
    for name in ("interval_contraction",):
        T = builtin(name)
        for a, b in starts:
            traj = run(T, Vector.dense([a]), Vector.dense([b]))
            assert diagnose_monotone_t(traj).status == "passed"
            assert diagnose_t_limit(traj).status == "passed"
    T = builtin("overlap_contraction")
    for a, b in [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5), (0.25, 0.75), (1.0, 1.0)]:
        traj = run(T, Vector.dense([a]), Vector.dense([b]))
        assert diagnose_monotone_t(traj).status == "passed"
        assert diagnose_t_limit(traj).status == "passed"
        assert abs(traj.points[-1].first.value_at(0)) < 1e-7


# ---------------------------------------------------------------------------
# run against a Vector reference

# sequence-mode images in A and in B use these coordinates
SEQ_INDICES = {"A": (1, 2, 4, 6), "B": (0, 2, 3, 5)}


def wobble_map(space, offset):
    """A map that keeps the pair near (offset, -offset) in every coordinate
    it uses and mixes coordinates nonlinearly.  Dense mode: A and B are
    unit boxes around offset and -offset, and each image stays inside.
    Sequence mode: A and B hold every vector, and images in A and in B use
    different coordinates, so consecutive supports differ."""
    if space.mode == "dense":
        indices = {"A": range(space.dimension), "B": range(space.dimension)}
        d = space.dimension
        A = Box((offset - 1.0,) * d, (offset + 1.0,) * d)
        B = Box((-offset - 1.0,) * d, (-offset + 1.0,) * d)
    else:
        indices = SEQ_INDICES
        A = B = DeclaredSet("anything", lambda v, tol: True, lambda rng: Vector())

    def ev(x, y, side):
        # the image lies in B on side AB and in A on side BA
        c = -offset if side == SIDE_AB else offset
        xs, ys = dict(x.coords), dict(y.coords)
        return Vector.from_map({
            i: c + 0.55 * math.sin(xs.get(i, 0.0) + c + 0.3 * i)
            + 0.3 * math.cos(i) * (ys.get(i, 0.0) - c)
            for i in indices["B" if side == SIDE_AB else "A"]})

    return CyclicMapSpec("wobble", space, A, B, ev)


def wobble_start(space, offset, seed):
    rng = random.Random(seed)
    if space.mode == "dense":
        return tuple(Vector.dense([s * offset + rng.uniform(-1.0, 1.0)
                                   for _ in range(space.dimension)]) for s in (1, -1))
    return tuple(Vector.from_map({i: s * offset + rng.uniform(-1.0, 1.0)
                                  for i in SEQ_INDICES[label]})
                 for s, label in ((1, "A"), (-1, "B")))


def reference_points(T, x, y, n_points):
    """The coupled iteration on Vectors, with the evaluator alone."""
    out = [ProductPoint(x, y)]
    for n in range(1, n_points):
        side, other = (SIDE_AB, SIDE_BA) if n % 2 == 1 else (SIDE_BA, SIDE_AB)
        x, y = T.evaluator(x, y, side), T.evaluator(y, x, other)
        out.append(ProductPoint(x, y))
    return out


WOBBLE = StopRule(max_iters=24, t_tol=None, gap_tol=None)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"{s.norm}-{s.mode}-{s.dimension}")
@pytest.mark.parametrize("offset", [0.0, 2.5, 1000.0])
def test_run_matches_the_vector_reference(space, offset):
    T = wobble_map(space, offset)
    x0, y0 = wobble_start(space, offset, seed=1)
    traj = run(T, x0, y0, WOBBLE)
    assert traj.stop_reason == STOP_BUDGET and traj.n_points == 25
    points = traj.points
    assert list(points) == reference_points(T, x0, y0, 25)
    # bit for bit: == on floats that are never nan
    assert list(traj.t_series) == [pair_distance(space, points[k], points[k + 1])
                                   for k in range(24)]
    assert list(traj.lag_gaps) == [max(norm(space, points[n].first - points[n - 2].first),
                                       norm(space, points[n].second - points[n - 2].second))
                                   for n in range(2, 25)]
    # diagnose_cauchy measures the buffer's rows; its spreads are pair_distance's
    spread = {}
    for label, first in (("even", 0), ("odd", 1)):
        tail = points[first::2][-10:]
        spread[label] = max(pair_distance(space, p, q)
                            for i, p in enumerate(tail) for q in tail[i + 1:])
    assert diagnose_cauchy(traj).detail == (f"even spread = {spread['even']!r}, "
                                            f"odd spread = {spread['odd']!r}")


ROW_RUNS = {
    "interval": (INTERVAL, 2.0, -2.0),
    "interval-hull-sets": (replace(INTERVAL, A=Hull((Vector.dense([1.0]), Vector.dense([2.0]))),
                                   B=Hull((Vector.dense([-2.0]), Vector.dense([-1.0])))),
                           1.3, -1.9),
    "overlap": (builtin("overlap_contraction"), 0.0, 0.0),
    "flip": (FLIP, 1.5, -1.25),
    "flip-through-zero": (replace(FLIP, A=Box((-1.0,), (1.0,)), B=Box((-1.0,), (1.0,))), 0.0, 0.5),
    "non_cyclic": (builtin("non_cyclic"), 1.5, -1.5),
}


@pytest.mark.parametrize("name", sorted(ROW_RUNS))
def test_run_on_rows_matches_the_vector_path(name):
    T, x0, y0 = ROW_RUNS[name]
    vector_only = replace(T, evaluator=lambda x, y, side: T.evaluator(x, y, side))
    assert native_form(T)[1] is None and native_form(vector_only)[1] is not None
    start = Vector.dense([x0]), Vector.dense([y0])
    rule = StopRule(max_iters=30, t_tol=None, gap_tol=None)
    got, want = run(T, *start, rule), run(vector_only, *start, rule)
    # bit for bit, zero signs included: flip writes 0.0 for -0.0
    assert got.flat.tobytes() == want.flat.tobytes()
    assert got.index == want.index
    for field in ("t_series", "lag_gaps", "stop_reason", "error_index"):
        assert getattr(got, field) == getattr(want, field)


def test_points_is_a_lazy_read_only_view(monkeypatch):
    space = NormedSpaceSpec("l2", "dense", 3)
    T = wobble_map(space, 2.5)
    x0, y0 = wobble_start(space, 2.5, seed=1)
    traj = run(T, x0, y0, WOBBLE)
    built = []
    real = iterate._point
    monkeypatch.setattr(iterate, "_point", lambda *a: built.append(a) or real(*a))
    assert len(traj.points) == traj.n_points == 25
    assert built == []
    assert traj.points[3] is traj.points[3] is traj.points[-22]
    assert len(built) == 1
    ref = reference_points(T, x0, y0, 25)
    assert traj.points[0::2] == tuple(ref[0::2])
    assert len(built) == 1 + 13  # point 3 and the 13 even points
    assert traj.final_even_point() is traj.points[24]
    assert traj.index == (0, 1, 2) and len(traj.flat) == 25 * 2 * 3
    with pytest.raises(TypeError):
        traj.points[0] = ref[0]
    with pytest.raises(IndexError):
        traj.points[25]


def test_from_points_round_trips_sequence_supports():
    space = NormedSpaceSpec("l1", "sequence", None)
    points = (ProductPoint(Vector.from_map({4: 1.5}), Vector()),
              ProductPoint(Vector.from_map({1: -2.0, 4: 0.25}), Vector.from_map({9: 3.0})))
    traj = Trajectory.from_points(space, points, *series(space, points), STOP_BUDGET, StopRule(),
                                  None)
    assert traj.index == (1, 4, 9)
    assert traj.flat.tolist() == [0.0, 1.5, 0.0, 0.0, 0.0, 0.0,
                                  -2.0, 0.25, 0.0, 0.0, 0.0, 3.0]
    assert tuple(traj.points) == points


TWO_MODES = [NormedSpaceSpec("l2", "dense", 3), NormedSpaceSpec("l1", "sequence", None)]
# sha256 of flat.tobytes() for the wobble runs below, pinned from the numpy
# array run built from its row list, so the buffer must hold the same floats
VALUES_SHA256 = {
    "dense": "acb697c5e545804e4a6979cbeccae4aa2ef9b6a78adf324a7c6586ba73005975",
    "sequence": "f8943e43fb1f8d36ce6924b141e2ef4a843e1af85c85ca5a2586ad5c60a5bf5f",
}


@pytest.mark.parametrize("space", TWO_MODES, ids=lambda s: s.mode)
def test_flat_holds_the_pinned_floats(space):
    traj = run(wobble_map(space, 2.5), *wobble_start(space, 2.5, seed=1), WOBBLE)
    assert len(traj.flat) == 25 * 2 * len(traj.index)
    assert hashlib.sha256(traj.flat.tobytes()).hexdigest() == VALUES_SHA256[space.mode]


def test_a_row_of_the_wrong_length_is_refused():
    # a row form that drops a coordinate would shift every later row of the
    # buffer: the short row is in neither box, so run stops before keeping it,
    # and a buffer short of a row is refused when the trajectory is built
    space = NormedSpaceSpec("l1", "dense", 2)
    T = CyclicMapSpec("short_rows", space, Box((1.0, 1.0), (2.0, 2.0)),
                      Box((-2.0, -2.0), (-1.0, -1.0)),
                      RowEvaluator(lambda rx, ry, side: [1.5 if side == SIDE_BA else -1.5], 2))
    traj = run(T, Vector.dense([1.5, 1.5]), Vector.dense([-1.5, -1.5]), WOBBLE)
    assert (traj.stop_reason, traj.error_index, traj.n_points) == (STOP_DOMAIN_ERROR, 1, 1)
    assert traj.flat.tolist() == [1.5, 1.5, -1.5, -1.5]
    with pytest.raises(ValueError, match="two rows of len\\(index\\) floats per point"):
        Trajectory(space, traj.flat[:-1], traj.index, 1, (), (), STOP_BUDGET, StopRule(), None)


def test_series_of_the_wrong_length_are_refused(tmp_path):
    # diagnose_even_gaps and trajectory_to_csv index the series by point
    space = NormedSpaceSpec("l2", "dense", 1)
    points = tuple(ProductPoint(Vector.dense([1.0 + 0.5 ** n]), Vector.dense([-1.0]))
                   for n in range(5))
    t_series, lag_gaps = series(space, points)
    for bad in (((), ()), (t_series, ()), (t_series[1:], lag_gaps), (t_series, lag_gaps + (0.0,))):
        with pytest.raises(ValueError, match="t_series needs n_points - 1 values"):
            Trajectory.from_points(space, points, *bad, STOP_BUDGET, StopRule(), None)
    traj = Trajectory.from_points(space, points, t_series, lag_gaps, STOP_BUDGET, StopRule(), None)
    assert diagnose_even_gaps(traj).checked == 3
    trajectory_to_csv(traj, tmp_path / "trace.csv")
    assert len((tmp_path / "trace.csv").read_text().splitlines()) == 6


@pytest.mark.parametrize("space", TWO_MODES, ids=lambda s: s.mode)
def test_a_read_trajectory_is_freed_without_the_cycle_collector(space):
    traj = run(wobble_map(space, 2.5), *wobble_start(space, 2.5, seed=1), WOBBLE)
    gc.disable()
    try:
        traj.points[0], traj.final_even_point(), diagnose_cauchy(traj)
        diagnose_interleaved(traj)
        ref = weakref.ref(traj)
        del traj
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# trace export

GOLDEN_ROWS = [
    "n,x,y,t,even_gap,odd_gap",
    "0,2.0,-2.0,3.5,,",
    "1,-1.5,1.5,2.75,,",
    "2,1.25,-1.25,2.375,0.75,",
    "3,-1.125,1.125,,,0.375",
]


def test_csv_golden_text(tmp_path):
    traj = run(INTERVAL, X0, Y0, StopRule(max_iters=3, t_tol=1e-15, gap_tol=None))
    assert traj.stop_reason == STOP_BUDGET
    path = tmp_path / "trace.csv"
    trajectory_to_csv(traj, str(path))
    assert path.read_text().splitlines() == GOLDEN_ROWS


def test_csv_rewrite_is_byte_identical(tmp_path):
    traj = run(INTERVAL, X0, Y0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    trajectory_to_csv(traj, str(p1))
    trajectory_to_csv(traj, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_sparse_vector_format(tmp_path):
    T = builtin("l1_kannan")
    x0 = basis(1) + basis(2)
    y0 = basis(2) + basis(3)
    traj = run(T, x0, y0, StopRule(max_iters=6, t_tol=None, gap_tol=1e-12))
    path = tmp_path / "trace.csv"
    trajectory_to_csv(traj, str(path))
    rows = path.read_text().splitlines()
    assert rows[0] == "n,x,y,t,even_gap,odd_gap"
    assert rows[1].startswith("0,1:1.0;2:1.0,2:1.0;3:1.0,2.0")
