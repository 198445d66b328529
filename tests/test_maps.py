"""Map evaluation, the sampled inequality checkers, and the nan rule of
every bound a check tests.

The interval family is small enough for an exhaustive grid oracle over
cross quadruples, so the sampled checker is validated against a complete
enumeration at desk scale.
"""
import gc
import math
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from proxcycle import (
    SIDE_AB,
    SIDE_BA,
    SIDES,
    STOP_CONVERGED_T,
    CyclicMapSpec,
    DomainError,
    TOL_NUM,
    MapsError,
    NormedSpaceSpec,
    PhiSpec,
    ProductPoint,
    StopRule,
    Trajectory,
    Vector,
    basis,
    builtin,
    certify,
    check_cyclic_invariance,
    check_kannan,
    check_kannan_strict_hypothesis,
    check_phi_contraction,
    contains,
    diagnose_cauchy,
    diagnose_even_gaps,
    diagnose_monotone_t,
    eval_map,
    norm,
    pair_distance,
    run,
    sample,
    second_iterate_check,
)
from proxcycle import maps
from proxcycle.config import ConfigError, parse_phi
from proxcycle.maps import RowEvaluator, native_form
from proxcycle.report import Violation, merge_reports, render_pair, render_vector
from proxcycle.sets import Box, Hull
from vector_reference import coupled_image, displacement

INTERVAL = builtin("interval_contraction")
FLIP = builtin("flip")
HALF = PhiSpec.linear(0.5)
# the interval map between the hulls of its boxes' end points
INTERVAL_HULLS = replace(INTERVAL, A=Hull((Vector.dense([1.0]), Vector.dense([2.0]))),
                         B=Hull((Vector.dense([-2.0]), Vector.dense([-1.0]))))


def grid(lo, hi, step):
    n = round((hi - lo) / step)
    return [lo + k * step for k in range(n + 1)]


def phi_rhs(phi, delta, d):
    return delta - phi(delta) + phi(d)


def cross_quadruples(step):
    """All (A x B, B x A) pairs on a grid: x1, y2 in A = [1,2]; y1, x2 in B."""
    a = grid(1.0, 2.0, step)
    b = grid(-2.0, -1.0, step)
    for x1 in a:
        for y1 in b:
            for x2 in b:
                for y2 in a:
                    yield x1, y1, x2, y2


def image_pair_distances(T, x1, y1, x2, y2):
    p = ProductPoint(Vector.dense([x1]), Vector.dense([y1]))
    q = ProductPoint(Vector.dense([x2]), Vector.dense([y2]))
    i1 = coupled_image(T, p, SIDE_AB)
    i2 = coupled_image(T, q, SIDE_BA)
    return (abs(i1.first.value_at(0) - i2.first.value_at(0)),
            abs(i1.second.value_at(0) - i2.second.value_at(0)))


# ----------------------------------------------------------- grid oracles

def test_interval_phi_inequality_exhaustive_grid():
    # 9^4 = 6561 cross quadruples, zero violations expected
    bad = []
    for x1, y1, x2, y2 in cross_quadruples(0.125):
        delta = max(abs(x1 - x2), abs(y1 - y2))
        rhs = phi_rhs(HALF, delta, 2.0)
        for lhs in image_pair_distances(INTERVAL, x1, y1, x2, y2):
            if lhs > rhs + 1e-9:
                bad.append((x1, y1, x2, y2, lhs, rhs))
    assert bad == []


def test_sampled_checker_agrees_with_grid_on_interval():
    rep = check_phi_contraction(INTERVAL, HALF, n_samples=1000, seed=3)
    assert rep.status == "passed"
    assert rep.checked == 2000


def test_flip_violates_phi_on_grid_with_known_witness():
    worst, hits = None, 0
    for x1, y1, x2, y2 in cross_quadruples(0.25):
        delta = max(abs(x1 - x2), abs(y1 - y2))
        rhs = phi_rhs(HALF, delta, 2.0)
        for lhs in image_pair_distances(FLIP, x1, y1, x2, y2):
            if lhs > rhs + 1e-9:
                hits += 1
                if worst is None or lhs - rhs > worst[0]:
                    worst = (lhs - rhs, x1, y1, x2, y2)
    assert hits > 0
    # extreme corners: images at distance 4 while the bound allows 3
    assert worst[0] == pytest.approx(1.0)
    # the argmax is tied across corners; check the hand-picked one attains it
    delta = 4.0
    rhs = phi_rhs(HALF, delta, 2.0)
    corner = [lhs - rhs for lhs in image_pair_distances(FLIP, 2.0, -2.0, -2.0, 2.0)]
    assert max(corner) == pytest.approx(worst[0])


def test_sampled_checker_flags_flip():
    rep = check_phi_contraction(FLIP, HALF, n_samples=400, seed=3)
    assert rep.status == "failed"
    assert len(rep.violations) > 0
    v = rep.violations[0]
    assert v.lhs > v.rhs + 1e-9
    assert len(v.inputs) == 2  # the two offending product points


def test_linear_phi_matches_inline_lambda_form_on_grid():
    # with phi(t) = (1-lam) t the bound collapses to lam*Delta + (1-lam)*d;
    # for lam = 0.5 both forms are dyadic-exact, so decisions must agree
    lam = 0.5
    phi = PhiSpec.linear(lam)
    for T in (INTERVAL, FLIP):
        for x1, y1, x2, y2 in cross_quadruples(0.25):
            delta = max(abs(x1 - x2), abs(y1 - y2))
            rhs_phi = phi_rhs(phi, delta, 2.0)
            rhs_lam = lam * delta + (1.0 - lam) * 2.0
            assert rhs_phi == rhs_lam
            for lhs in image_pair_distances(T, x1, y1, x2, y2):
                assert (lhs > rhs_phi + 1e-9) == (lhs > rhs_lam + 1e-9)


# ------------------------------------------------------------------- phi

def test_phi_linear_values():
    phi = PhiSpec.linear(0.25)
    assert phi(0.0) == 0.0
    assert phi(2.0) == pytest.approx(1.5)


def test_phi_custom_interpolates_and_extrapolates():
    phi = PhiSpec.custom([(0.0, 0.0), (1.0, 0.5), (3.0, 0.6)])
    assert phi(0.0) == 0.0
    assert phi(0.5) == pytest.approx(0.25)
    assert phi(2.0) == pytest.approx(0.55)
    # beyond the table: continue at the final slope 0.05
    assert phi(4.0) == pytest.approx(0.65)


def test_phi_validation():
    with pytest.raises(MapsError):
        PhiSpec.linear(1.0)
    with pytest.raises(MapsError):
        PhiSpec.linear(-0.1)
    with pytest.raises(MapsError):
        PhiSpec.custom([(1.0, 0.5), (2.0, 0.6)])  # must start at t = 0
    with pytest.raises(MapsError):
        PhiSpec.custom([(0.0, 0.0), (1.0, 0.5), (2.0, 0.5)])  # not increasing


@settings(max_examples=100)
@given(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=2,
                max_size=6, unique=True),
       st.floats(min_value=0.01, max_value=5.0))
def test_phi_custom_strictly_increasing(increments, probe):
    ts, fs, t, f = [0.0], [0.0], 0.0, 0.0
    for inc in increments:
        t, f = t + inc, f + inc * 0.3
        ts.append(t)
        fs.append(f)
    phi = PhiSpec.custom(list(zip(ts, fs)))
    assert phi(probe) < phi(probe + 0.5)


# ----------------------------------------------------------------- kannan

def test_l1_builtin_passes_kannan_checks():
    T = builtin("l1_kannan")
    assert check_kannan(T, n_samples=1000, seed=0).status == "passed"
    assert check_kannan_strict_hypothesis(T, n_samples=400, seed=0).status == "passed"


def mirror_map():
    # T(u, v) = 1 - u on A = B = [0,1]: kannan holds with equality but the
    # displacement |2u - 1| never decreases, so the strict hypothesis fails
    sp = NormedSpaceSpec("l2", "dense", 1)
    S = Box((0.0,), (1.0,))

    def ev(u, v, side):
        return Vector.dense([1.0 - u.value_at(0)])

    return CyclicMapSpec("mirror", sp, S, S, ev, "kannan", 0.0, None)


def test_mirror_map_kannan_but_not_strict():
    T = mirror_map()
    assert check_cyclic_invariance(T, 100, seed=1).status == "passed"
    assert check_kannan(T, n_samples=500, seed=1).status == "passed"
    rep = check_kannan_strict_hypothesis(T, n_samples=300, seed=1)
    assert rep.status == "failed"
    assert rep.violations


# ------------------------------------------------------- evaluation rules

def test_eval_map_checks_domain():
    with pytest.raises(DomainError):
        eval_map(INTERVAL, Vector.dense([5.0]), Vector.dense([-1.5]), SIDE_AB)
    with pytest.raises(DomainError):
        eval_map(INTERVAL, Vector.dense([1.5]), Vector.dense([-1.5]), SIDE_BA)


def test_eval_map_frozen_values():
    out = eval_map(INTERVAL, Vector.dense([2.0]), Vector.dense([-2.0]), SIDE_AB)
    assert out.value_at(0) == -1.5
    back = eval_map(INTERVAL, Vector.dense([-2.0]), Vector.dense([2.0]), SIDE_BA)
    assert back.value_at(0) == 1.5


def test_coupled_image_and_displacement():
    p = ProductPoint(Vector.dense([2.0]), Vector.dense([-2.0]))
    img = coupled_image(INTERVAL, p, SIDE_AB)
    assert img.first.value_at(0) == -1.5
    assert img.second.value_at(0) == 1.5
    assert displacement(INTERVAL, p, SIDE_AB) == 3.5
    star = ProductPoint(Vector.dense([1.0]), Vector.dense([-1.0]))
    assert displacement(INTERVAL, star, SIDE_AB) == 2.0


def test_an_unknown_side_is_refused():
    x, y = Vector.dense([1.5]), Vector.dense([-1.5])
    for side in (2, -1, SIDES[SIDE_AB]):  # a label is not a side
        with pytest.raises(MapsError, match="unknown side"):
            eval_map(INTERVAL, x, y, side)


def test_unknown_builtin_rejected():
    with pytest.raises(MapsError):
        builtin("does_not_exist")


def test_non_cyclic_control_fails_invariance():
    rep = check_cyclic_invariance(builtin("non_cyclic"), 100, seed=0)
    assert rep.status == "failed"
    assert any("left the B set" in v.note for v in rep.violations)


def test_l1_constant_map_images():
    T = builtin("l1_kannan")
    x, y = basis(1) + basis(2), basis(2) + basis(3)
    assert eval_map(T, x, y, SIDE_AB) == basis(2) + basis(3)
    assert eval_map(T, y, x, SIDE_BA) == basis(1) + basis(2)


# ------------------------------------------- one evaluation per coupled image

def reference_side(T, side, n, seed):
    """The sampled points of one side, drawn as the checkers' contract says."""
    SX, SY = T.domain_sets(side)
    return [ProductPoint(x, y) for x, y in
            zip(sample(SX, T.space, n, seed=seed), sample(SY, T.space, n, seed=seed + 7919))]


def reference_kannan(T, n, seed, tol=TOL_NUM):
    """check_kannan's (lhs, rhs, inputs) violations, pair by pair with norm."""
    half, out = n // 2, []
    for s1, s2, count in ((SIDE_AB, SIDE_BA, n - half), (SIDE_AB, SIDE_AB, half - half // 2),
                          (SIDE_BA, SIDE_BA, half // 2)):
        for p, q in zip(reference_side(T, s1, count, seed),
                        reference_side(T, s2, count, seed + 15485863)):
            lhs = norm(T.space, T.evaluator(p.first, p.second, s1)
                       - T.evaluator(q.first, q.second, s2))
            rhs = 0.5 * (displacement(T, p, s1) + displacement(T, q, s2))
            if lhs > rhs + tol:
                out.append((lhs, rhs, (render_pair(p), render_pair(q))))
    return out


def reference_phi(T, phi, pairs, tol=TOL_NUM):
    """check_phi_contraction's violations over pairs (p, q), p in A x B and q in B x A."""
    out = []
    for p, q in pairs:
        delta = pair_distance(T.space, p, q)
        rhs = delta - phi(delta) + phi(T.declared_dist)
        ip, iq = coupled_image(T, p, SIDE_AB), coupled_image(T, q, SIDE_BA)
        for lhs in (norm(T.space, ip.first - iq.first), norm(T.space, ip.second - iq.second)):
            if lhs > rhs + tol:
                out.append((lhs, rhs, (render_pair(p), render_pair(q))))
    return out


def reference_cyclic_invariance(T, n, seed, tol=TOL_NUM):
    """check_cyclic_invariance's checked count and (lhs, rhs, inputs, note)
    violations, each image tested with contains."""
    checked, out = 0, []
    for side in (SIDE_AB, SIDE_BA):
        for p in reference_side(T, side, n, seed):
            image = T.evaluator(p.first, p.second, side)
            checked += 1
            if not contains(T.domain_sets(side)[1], T.space, image, tol):
                out.append((1.0, 0.0, (render_pair(p), render_vector(image)),
                            f"{SIDES[side]}-side image left the {SIDES[side][1]} set"))
    return checked, out


def reference_kannan_strict(T, n, seed, tol=TOL_NUM):
    """check_kannan_strict_hypothesis's checked count and (lhs, rhs, inputs,
    note) violations: n - n // 2 points on AB and n // 2 on BA, each counted
    when its displacement exceeds the declared distance."""
    checked, out = 0, []
    for side, count in ((SIDE_AB, n - n // 2), (SIDE_BA, n // 2)):
        for p in reference_side(T, side, count, seed):
            d0 = displacement(T, p, side)
            if d0 <= T.declared_dist + tol:
                continue
            d1 = displacement(T, coupled_image(T, p, side), 1 - side)
            checked += 1
            if not d1 < d0 - tol:
                out.append((d1, d0, (render_pair(p),),
                            "coupled image displacement failed to decrease strictly"))
    return checked, out


def violations_of(report):
    return [(v.lhs, v.rhs, v.inputs) for v in report.violations]


def noted_violations_of(report):
    return [(v.lhs, v.rhs, v.inputs, v.note) for v in report.violations]


def every_violation(report):
    """report.to_json(), with every violation rather than the first few."""
    return {**report.to_json(), "violations": [v.to_json() for v in report.violations]}


@pytest.mark.parametrize("name", ["l1_kannan", "non_cyclic", "overlap_contraction", "flip"])
def test_kannan_matches_the_pairwise_definition(name):
    T = builtin(name)
    rep = check_kannan(T, 301, seed=4)
    assert rep.checked == 301
    assert violations_of(rep) == reference_kannan(T, 301, 4)


@pytest.mark.parametrize("name", ["interval_contraction", "flip", "overlap_contraction"])
def test_phi_contraction_matches_the_pairwise_definition(name):
    T, seed = builtin(name), 6
    rep = check_phi_contraction(T, HALF, 120, seed=seed)
    assert rep.checked == 240
    pairs = zip(reference_side(T, SIDE_AB, 120, seed),
                reference_side(T, SIDE_BA, 120, seed + 104729))
    assert violations_of(rep) == reference_phi(T, HALF, pairs)


REFERENCE_MAPS = {
    **{name: builtin(name) for name in ("non_cyclic", "flip", "l1_kannan")},
    "interval-dist-0": replace(INTERVAL, declared_dist=0.0),
    "interval-hull-sets": INTERVAL_HULLS,
}


@pytest.mark.parametrize("name", sorted(REFERENCE_MAPS))
def test_cyclic_invariance_matches_the_pointwise_definition(name):
    T = REFERENCE_MAPS[name]
    rep = check_cyclic_invariance(T, 90, seed=5)
    assert (rep.checked, noted_violations_of(rep)) == reference_cyclic_invariance(T, 90, 5)


@pytest.mark.parametrize("name", sorted(REFERENCE_MAPS))
def test_kannan_strict_matches_the_pointwise_definition(name):
    T = REFERENCE_MAPS[name]
    rep = check_kannan_strict_hypothesis(T, 151, seed=7)
    assert (rep.checked, noted_violations_of(rep)) == reference_kannan_strict(T, 151, 7)


def counting(T):
    """T with an evaluator that records each call's side."""
    calls = []

    def ev(x, y, side):
        calls.append(side)
        return T.evaluator(x, y, side)

    return replace(T, evaluator=ev), calls


def test_kannan_evaluates_each_coupled_image_once():
    # the same-side points are prefixes of the cross-side draws, so only
    # half of them are new: 500 * 4 + 250 * 2 + 250 * 2 calls, not 6 a pair
    T, calls = counting(builtin("l1_kannan"))
    assert check_kannan(T, 1000, seed=0).checked == 1000
    assert len(calls) <= 3000


def test_kannan_strict_makes_four_calls_per_counted_point():
    T, calls = counting(replace(INTERVAL, declared_dist=0.0))
    rep = check_kannan_strict_hypothesis(T, 300, seed=2)
    assert rep.checked == 300 and len(calls) == 4 * 300
    T, calls = counting(builtin("l1_kannan"))
    rep = check_kannan_strict_hypothesis(T, 400, seed=3)
    # two calls for each sampled point's image, two more for a counted one
    assert 0 < rep.checked and len(calls) == 2 * 400 + 2 * rep.checked


@pytest.mark.parametrize("n", [1, 3])
def test_kannan_strict_draws_as_many_points_as_asked(n):
    # every point's displacement exceeds 0, so each drawn point is counted:
    # n - n // 2 on AB and n // 2 on BA, as check_kannan splits its pairs
    T, calls = counting(replace(INTERVAL, declared_dist=0.0))
    assert check_kannan_strict_hypothesis(T, n, seed=2).checked == n
    assert len(calls) == 4 * n


def test_phi_contraction_makes_four_calls_per_pair():
    T, calls = counting(INTERVAL)
    assert check_phi_contraction(T, HALF, 200, seed=1).checked == 400
    assert len(calls) == 4 * 200


def test_a_checker_that_checks_nothing_is_inconclusive():
    # no sampled displacement exceeds a declared distance of 100
    T = replace(INTERVAL, declared_dist=100.0)
    rep = check_kannan_strict_hypothesis(T, 200, seed=0)
    assert (rep.checked, rep.status, rep.violations) == (0, "inconclusive", ())
    assert check_kannan(INTERVAL, 0).status == "inconclusive"


SAMPLE_COUNT_CHECKS = {
    "cyclic_invariance": lambda n: check_cyclic_invariance(INTERVAL, n),
    "phi_contraction": lambda n: check_phi_contraction(INTERVAL, HALF, n),
    "kannan": lambda n: check_kannan(INTERVAL, n),
    "kannan_strict": lambda n: check_kannan_strict_hypothesis(INTERVAL, n),
}


@pytest.mark.parametrize("n", [-1, -5])
@pytest.mark.parametrize("check", sorted(SAMPLE_COUNT_CHECKS))
def test_a_negative_sample_count_is_refused(check, n):
    # a count of 0 draws nothing and is inconclusive; a negative one is an error
    assert SAMPLE_COUNT_CHECKS[check](0).status == "inconclusive"
    with pytest.raises(MapsError, match="cannot draw a negative number of samples"):
        SAMPLE_COUNT_CHECKS[check](n)


# ------------------------------------------------------------- row form

# each row builtin's evaluator as it was written on Vectors
VECTOR_FORMS = {
    "interval_contraction": lambda x, y, side: Vector.dense(
        [(y.value_at(0) - x.value_at(0)) / 4.0 + (0.5 if side == SIDE_BA else -0.5)]),
    "overlap_contraction": lambda x, y, side: Vector.dense(
        [(x.value_at(0) + y.value_at(0)) / 4.0]),
    "flip": lambda x, y, side: Vector.dense([-x.value_at(0)]),
    "non_cyclic": lambda x, y, side: x,
}


def signed(row):
    """The row with each zero's sign, which == alone ignores."""
    return [(v, math.copysign(1.0, v)) for v in row]


@pytest.mark.parametrize("name", sorted(VECTOR_FORMS))
def test_row_form_equals_the_vector_form(name):
    T = builtin(name)
    assert isinstance(T.evaluator, RowEvaluator) and native_form(T) == (T.evaluator.rows, None)
    us = [v.value_at(0) for S in (T.A, T.B) for v in sample(S, T.space, 40, seed=5)]
    us += [c for S in (T.A, T.B) for c in S.lower + S.upper] + [0.0, -0.0, 0.25, -0.25]
    for u in us:
        for v in us[::7] + [0.0, -0.0]:
            for side in (SIDE_AB, SIDE_BA):
                x, y = Vector.dense([u]), Vector.dense([v])
                want = VECTOR_FORMS[name](x, y, side)
                # the zero-sign rule: the row is Vector.dense(row).dense_values(1)
                assert signed(T.evaluator.rows([u], [v], side)) == signed(want.dense_values(1))
                assert T.evaluator(x, y, side) == want


def test_vector_evaluators_have_no_row_form():
    T = builtin("l1_kannan")
    assert native_form(T) == (T.evaluator, None)  # a sequence row is the Vector itself
    # a replaced evaluator is Vector-only, even one that wraps a row form
    vector_only = INTERVAL.evaluator.__call__
    assert native_form(replace(INTERVAL, evaluator=vector_only))[0] is vector_only
    # a row form of another dimension is not used on rows
    wide = replace(INTERVAL, space=NormedSpaceSpec(norm="l2", mode="dense", dimension=2))
    assert native_form(wide)[0] is INTERVAL.evaluator


def test_phi_contraction_on_rows_builds_almost_no_vectors(monkeypatch):
    built = []
    init = Vector.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Vector, "__init__", counting_init)
    rep = check_phi_contraction(INTERVAL, HALF, 800, seed=3)
    assert (rep.status, rep.checked) == ("passed", 1600)
    assert len(built) < 10


def test_flip_violations_render_each_point_once(monkeypatch):
    rendered = []
    monkeypatch.setattr("proxcycle.maps.render_pair", lambda p: rendered.append(p) or "p")
    rep = check_phi_contraction(FLIP, HALF, 400, seed=0)
    assert rep.status == "failed" and len(rep.violations) > 400
    assert len(rendered) <= 800


@pytest.mark.parametrize("check,points", [
    (lambda: check_phi_contraction(FLIP, HALF, 400, seed=0), 2),
    (lambda: check_cyclic_invariance(builtin("non_cyclic"), 200), 1),
], ids=["flip-phi_contraction", "non_cyclic-cyclic_invariance"])
def test_only_the_violations_written_are_rendered(check, points, monkeypatch):
    # each violation cites `points` sampled points, each rendered at most once
    rendered = []
    render = maps.render_pair
    monkeypatch.setattr("proxcycle.maps.render_pair",
                        lambda p: rendered.append(p) or render(p))
    rep = check()
    assert len(rep.violations) > 100 and not rendered
    rep.to_json()
    assert len(rendered) <= 10 * points
    assert len(rendered) == len({(p.first, p.second) for p in rendered})


def test_a_deferred_violation_equals_an_eager_one():
    text = ("({0: 1.5}, {0: -1.5})", "({0: -1.0}, {0: 2.0})")
    eager = Violation(text, 2.0, 1.0, note="n")
    deferred = Violation(lambda: text, 2.0, 1.0, note="n")
    assert deferred == eager and eager == deferred
    assert deferred.inputs == text and deferred.to_json() == eager.to_json()
    assert Violation(lambda: text[:1], 2.0, 1.0, note="n") != eager


def test_a_held_report_keeps_no_probe(monkeypatch):
    # the deferred witness text holds its points, not the sample streams
    made = []

    class Recorded(maps._Probe):
        def __init__(self, T):
            super().__init__(T)
            made.append(weakref.ref(self))

    monkeypatch.setattr(maps, "_Probe", Recorded)
    rep = merge_reports("flip", [check_phi_contraction(FLIP, HALF, 50, seed=0)])
    gc.collect()
    assert made and all(r() is None for r in made)
    assert rep.violations[0].inputs[0] == "run 0"


def test_half_phi_spelling_is_refused():
    # a linear gauge is written {"lambda": lam}; the half and linear variants are gone
    assert parse_phi({"lambda": 0.5}) == PhiSpec.linear(0.5)
    for phi in ({"variant": "half"}, {"variant": "linear", "lambda": 0.5}):
        with pytest.raises(ConfigError, match=f"map.phi: unknown phi variant '{phi['variant']}'"):
            parse_phi(phi)
    assert not hasattr(PhiSpec, "half")


# ------------------------------------------------------------- one path

def vector_only(T):
    """T with its evaluator behind a plain function, which gets Vectors."""
    return replace(T, evaluator=lambda x, y, side: T.evaluator(x, y, side))


ONE_PATH_MAPS = {
    **{name: builtin(name) for name in sorted(VECTOR_FORMS) + ["l1_kannan"]},
    "interval-hull-sets": INTERVAL_HULLS,
}

ONE_PATH_CHECKS = {
    "cyclic_invariance": lambda T: check_cyclic_invariance(T, 80, seed=3),
    "phi_contraction": lambda T: check_phi_contraction(T, HALF, 80, seed=3),
    # a piecewise phi, past its last breakpoint on the larger distances
    "phi_contraction-custom": lambda T: check_phi_contraction(
        T, PhiSpec.custom([[0, 0], [0.5, 0.1], [1, 0.5]]), 80, seed=3),
    "kannan": lambda T: check_kannan(T, 80, seed=3),
    "kannan_strict": lambda T: check_kannan_strict_hypothesis(T, 80, seed=3),
}


@pytest.mark.parametrize("check", sorted(ONE_PATH_CHECKS))
@pytest.mark.parametrize("name", sorted(ONE_PATH_MAPS))
def test_checkers_report_the_same_on_rows_and_on_vectors(name, check):
    T = ONE_PATH_MAPS[name]
    got, want = ONE_PATH_CHECKS[check](T), ONE_PATH_CHECKS[check](vector_only(T))
    # non_cyclic moves no point, so kannan_strict counts none
    assert got.checked > 0 or (name, check) == ("non_cyclic", "kannan_strict")
    # every violation, its rendered points included
    assert every_violation(got) == every_violation(want)


# ------------------------------------------------------------ nan bounds

# interval_contraction whose image on side BA is nan, so every distance
# from such an image is nan
NAN_BA = replace(INTERVAL, evaluator=RowEvaluator(
    lambda rx, ry, side: [math.nan] if side == SIDE_BA else INTERVAL.evaluator.rows(rx, ry, side),
    1))
PROXIMAL = ProductPoint(Vector.dense([1.0]), Vector.dense([-1.0]))


def nan_tail_trajectory():
    """An interval run of 61 points, settled so that every diagnostic
    passes on it, with its last x made nan and the series run records:
    its last t and lag gap are nan."""
    traj = run(INTERVAL, Vector.dense([1.5]), Vector.dense([-1.5]),
               StopRule(max_iters=60, t_tol=None, gap_tol=None))
    points = [*traj.points[:-1], ProductPoint(Vector.dense([math.nan]), traj.points[-1].second)]
    gaps = [tuple(pair_distance(INTERVAL.space, p, q) for p, q in zip(points, points[lag:]))
            for lag in (1, 2)]
    return Trajectory.from_points(INTERVAL.space, points, *gaps, STOP_CONVERGED_T, StopRule(),
                                  2.0)


NAN_CHECKS = {
    "cyclic_invariance": lambda: check_cyclic_invariance(NAN_BA, 20),
    "phi_contraction": lambda: check_phi_contraction(NAN_BA, HALF, 20),
    "kannan": lambda: check_kannan(NAN_BA, 20),
    "kannan_strict": lambda: check_kannan_strict_hypothesis(NAN_BA, 20),
    "second_iterate": lambda: second_iterate_check(NAN_BA, PROXIMAL),
    "certify": lambda: certify(NAN_BA, PROXIMAL),
    "monotone_t": lambda: diagnose_monotone_t(nan_tail_trajectory()),
    "even_gaps": lambda: diagnose_even_gaps(nan_tail_trajectory()),
    "cauchy": lambda: diagnose_cauchy(nan_tail_trajectory()),
}


@pytest.mark.parametrize("check", sorted(NAN_CHECKS))
def test_a_nan_distance_is_a_violation(check):
    got = NAN_CHECKS[check]()
    if check == "certify":
        assert got.verdict == "rejected" and math.isnan(got.residual_y)
    else:
        assert got.status == "failed" and got.violations


PHI_VARIANTS = {"linear": HALF, "custom": PhiSpec.custom([[0, 0], [1, 0.5], [4, 2]])}


@pytest.mark.parametrize("variant", sorted(PHI_VARIANTS))
def test_a_nan_declared_distance_fails_phi_contraction(variant):
    # phi(dist(A, B)) is nan, so every bound is nan and none may pass
    phi = PHI_VARIANTS[variant]
    assert math.isnan(phi(math.nan))
    rep = check_phi_contraction(replace(INTERVAL, declared_dist=math.nan), phi, 200, seed=1)
    assert rep.status == "failed"
    assert (rep.checked, len(rep.violations)) == (400, 400)
