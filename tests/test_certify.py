"""Certificates, batch solving, and the uniform-convexity harnesses.

Residuals for the builtin maps are hand-computable: the interval map
sends (1, -1) to (-1, 1), so both residuals are exactly 2.0, and the
constant map between the block hulls gives exactly 2.0 in l1 at both
published candidates.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from proxcycle import (
    SIDE_AB,
    SIDE_BA,
    Box,
    CertifyError,
    CyclicMapSpec,
    ModulusUnavailable,
    NormedSpaceSpec,
    PremiseNotMet,
    ProductPoint,
    StopRule,
    Vector,
    basis,
    builtin,
    certify,
    norm,
    proximal_squeeze_check,
    second_iterate_check,
    solve_and_certify,
)
from proxcycle.certify import CERT_TOL, Certificate
from proxcycle.maps import RowEvaluator, native_form
from proxcycle.report import CheckReport, Violation, render_pair, render_vector
from proxcycle.sets import DeclaredSet
from vector_reference import coupled_image

INTERVAL = builtin("interval_contraction")
OVERLAP = builtin("overlap_contraction")
L1 = builtin("l1_kannan")

BPP = ProductPoint(Vector.dense([1.0]), Vector.dense([-1.0]))

# the two published l1 candidates share the same y and differ in x
L1_CAND_1 = ProductPoint(basis(1) + basis(2), basis(2) + basis(3))
L1_CAND_2 = ProductPoint(
    Vector.from_map({1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5}), basis(2) + basis(3))


def test_interval_candidate_certifies_exactly():
    cert = certify(INTERVAL, BPP)
    assert cert.verdict == "coupled_bpp"
    assert cert.accepted
    assert cert.residual_x == 2.0
    assert cert.residual_y == 2.0
    assert cert.dist_used == 2.0
    assert cert.reason == ""


def test_interval_far_point_is_rejected_with_miss():
    cert = certify(INTERVAL, ProductPoint(Vector.dense([2.0]), Vector.dense([-2.0])))
    assert cert.verdict == "rejected"
    assert not cert.accepted
    assert cert.residual_x == 3.5
    assert cert.reason == "residuals miss the pair distance by 1.5"


def test_overlap_origin_is_a_coupled_fixed_point():
    cert = certify(OVERLAP, ProductPoint(Vector.dense([0.0]), Vector.dense([0.0])))
    assert cert.verdict == "coupled_fixed_point"
    assert cert.residual_x == 0.0 and cert.residual_y == 0.0


def test_both_l1_candidates_certify_with_exact_residuals():
    for cand in (L1_CAND_1, L1_CAND_2):
        cert = certify(L1, cand)
        assert cert.verdict == "coupled_bpp"
        assert cert.residual_x == 2.0
        assert cert.residual_y == 2.0


def test_membership_rejections_name_the_set():
    out_a = certify(INTERVAL, ProductPoint(Vector.dense([0.5]), Vector.dense([-1.0])))
    assert out_a.verdict == "rejected"
    assert out_a.reason == "x is not in the A set"
    assert out_a.residual_x is None and out_a.residual_y is None
    out_b = certify(INTERVAL, ProductPoint(Vector.dense([1.0]), Vector.dense([0.5])))
    assert out_b.reason == "y is not in the B set"
    assert out_b.residual_x is None and out_b.residual_y is None


def test_certify_needs_a_distance():
    space = NormedSpaceSpec(norm="l2", mode="dense", dimension=1)
    anon = CyclicMapSpec("anon", space, Box((1.0,), (2.0,)), Box((-2.0,), (-1.0,)),
                         lambda x, y, side: x)
    with pytest.raises(CertifyError, match="needs the pair distance"):
        certify(anon, BPP)
    # the distance is the map's declared one
    assert certify(replace(INTERVAL, declared_dist=0.0), BPP).verdict == "rejected"


def test_certificate_json_shape():
    js = certify(INTERVAL, BPP).to_json()
    assert set(js) == {"candidate", "residual_x", "residual_y", "dist_used",
                       "verdict", "tolerance", "reason"}


# ---------------------------------------------------------------------------
# batch solving and uniqueness probing

def test_interval_limits_agree_from_spread_starts():
    starts = [(Vector.dense([a]), Vector.dense([b]))
              for a, b in [(1.0, -1.0), (2.0, -2.0), (1.25, -1.75), (1.9, -1.1), (1.5, -1.5)]]
    records, rep = solve_and_certify(INTERVAL, starts)
    assert all(r.certificate is not None and r.certificate.accepted for r in records)
    # the proximal start is kept as its own limit
    assert records[0].reason == "start already certifies"
    assert records[0].trajectory is None
    assert records[0].limit is records[0].start
    assert all(r.trajectory is not None for r in records[1:])
    assert rep.unique_within_tol
    assert rep.max_pairwise_limit_distance < 1e-7
    assert rep.tolerance == 1e-7


def test_l1_candidates_expose_non_uniqueness():
    starts = [(L1_CAND_1.first, L1_CAND_1.second), (L1_CAND_2.first, L1_CAND_2.second)]
    records, rep = solve_and_certify(L1, starts)
    assert [r.reason for r in records] == ["start already certifies"] * 2
    assert all(r.certificate.verdict == "coupled_bpp" for r in records)
    assert rep.max_pairwise_limit_distance == 2.0
    assert not rep.unique_within_tol
    js = rep.to_json()
    assert js["n_starts"] == 2
    assert js["unique_within_tol"] is False
    assert len(js["limits"]) == 2


def test_overlap_limits_collapse_to_origin():
    starts = [(Vector.dense([a]), Vector.dense([b]))
              for a, b in [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5), (1.0, 1.0)]]
    records, rep = solve_and_certify(OVERLAP, starts)
    assert all(r.certificate.verdict == "coupled_fixed_point" for r in records)
    assert rep.unique_within_tol
    for r in records:
        assert abs(r.limit.first.value_at(0)) < 1e-7


def test_domain_error_run_contributes_no_limit():
    space = NormedSpaceSpec(norm="l2", mode="dense", dimension=1)
    escape = CyclicMapSpec(
        "escape", space, Box((1.0,), (2.0,)), Box((-2.0,), (-1.0,)),
        lambda x, y, side: Vector.dense([0.5]), declared_dist=2.0)
    records, rep = solve_and_certify(
        escape, [(Vector.dense([1.5]), Vector.dense([-1.5]))])
    assert records[0].limit is None
    assert records[0].certificate is None
    assert records[0].reason == "iterate left its set at step 1"
    assert rep.limits == (None,)
    assert rep.max_pairwise_limit_distance == 0.0


def test_solve_needs_starts():
    with pytest.raises(CertifyError, match="at least one start"):
        solve_and_certify(INTERVAL, [])


# ---------------------------------------------------------------------------
# second-iterate identity

def test_second_iterate_returns_on_certified_candidates():
    rep = second_iterate_check(INTERVAL, BPP)
    assert rep.status == "passed"
    assert "|x2 - x| = 0.0" in rep.detail
    origin = ProductPoint(Vector.dense([0.0]), Vector.dense([0.0]))
    assert second_iterate_check(OVERLAP, origin).status == "passed"


def test_second_iterate_refuses_l1():
    rep = second_iterate_check(L1, L1_CAND_1)
    assert rep.status == "not_applicable"
    assert rep.detail == "l1 has no convexity modulus"


def test_second_iterate_flags_a_moving_point():
    space = NormedSpaceSpec(norm="l2", mode="dense", dimension=1)
    const = CyclicMapSpec(
        "const", space, Box((0.0,), (2.0,)), Box((0.0,), (2.0,)),
        lambda x, y, side: Vector.dense([0.5]), declared_dist=0.0)
    rep = second_iterate_check(const, ProductPoint(Vector.dense([1.5]), Vector.dense([1.5])))
    assert rep.status == "failed"
    assert any("second iterate moved the x component" == v.note for v in rep.violations)


# ---------------------------------------------------------------------------
# squeeze harness

SQ_SPACE = NormedSpaceSpec(norm="l2", mode="dense", dimension=2)
SQ_A = Box((0.0, 0.0), (1.0, 0.0))
SQ_B = Box((0.0, 2.0), (1.0, 2.0))


def _squeeze_sequences(n_max=60, wz_drift=lambda n: 2.0 ** -n):
    xy, wz, uv = [], [], []
    for n in range(1, n_max + 1):
        c = 1.0 / n
        xy.append(ProductPoint(Vector.dense([c, 0.0]), Vector.dense([c, 2.0])))
        h = wz_drift(n)
        wz.append(ProductPoint(Vector.dense([c + h, 0.0]), Vector.dense([c + h, 2.0])))
        uv.append(ProductPoint(Vector.dense([c, 2.0]), Vector.dense([c, 0.0])))
    return xy, wz, uv


def test_squeeze_passes_on_geometric_drift():
    xy, wz, uv = _squeeze_sequences()
    rep = proximal_squeeze_check(SQ_SPACE, SQ_A, SQ_B, xy, wz, uv, d=2.0)
    assert rep.status == "passed"
    assert rep.checked == 60
    assert "bound = 1e-07" in rep.detail


def test_squeeze_computes_l2_distance_when_not_given():
    xy, wz, uv = _squeeze_sequences()
    rep = proximal_squeeze_check(SQ_SPACE, SQ_A, SQ_B, xy, wz, uv)
    assert rep.status == "passed"


def test_squeeze_refuses_l1():
    space = NormedSpaceSpec(norm="l1", mode="sequence", dimension=None)
    xy, wz, uv = _squeeze_sequences(5)
    with pytest.raises(ModulusUnavailable, match="l1 has none"):
        proximal_squeeze_check(space, SQ_A, SQ_B, xy, wz, uv, d=2.0)


def test_squeeze_premise_failures_name_the_premise_and_index():
    xy, wz, uv = _squeeze_sequences(wz_drift=lambda n: 0.0)
    # push the final wz pair away from the anchor so its premise breaks;
    # moving a component closer would not (the other side still reads 2.0
    # under the max-product distance)
    wz[-1] = ProductPoint(Vector.dense([1.0 / 60.0, -0.1]), Vector.dense([1.0 / 60.0, 2.0]))
    with pytest.raises(PremiseNotMet, match=r"premise wz-uv not met at index 59"):
        proximal_squeeze_check(SQ_SPACE, SQ_A, SQ_B, xy, wz, uv, d=2.0)
    xy[-1] = wz[-1]
    with pytest.raises(PremiseNotMet, match=r"premise xy-uv not met at index 59"):
        proximal_squeeze_check(SQ_SPACE, SQ_A, SQ_B, xy, wz, uv, d=2.0)


def test_squeeze_rejects_bad_sequence_shapes():
    xy, wz, uv = _squeeze_sequences(4)
    with pytest.raises(CertifyError, match="equal-length"):
        proximal_squeeze_check(SQ_SPACE, SQ_A, SQ_B, xy[:-1], wz, uv, d=2.0)
    with pytest.raises(CertifyError, match="equal-length"):
        proximal_squeeze_check(SQ_SPACE, SQ_A, SQ_B, [], [], [], d=2.0)


def test_squeeze_reports_a_stuck_gap():
    # the premises only pin each sequence to within ~1e-4 of the anchor
    # (sqrt(4 + 1e-8) is 2 + 2.5e-9), so straddling it laterally keeps
    # both premises while the mutual gap stays at 2e-4, past the bound
    xy, wz, uv = _squeeze_sequences(wz_drift=lambda n: 0.0)
    c = 1.0 / 60.0
    xy[-1] = ProductPoint(Vector.dense([c + 1e-4, 0.0]), Vector.dense([c, 2.0]))
    wz[-1] = ProductPoint(Vector.dense([c - 1e-4, 0.0]), Vector.dense([c, 2.0]))
    rep = proximal_squeeze_check(SQ_SPACE, SQ_A, SQ_B, xy, wz, uv, d=2.0)
    assert rep.status == "failed"
    assert rep.violations[0].note == "sequences failed to collapse together"


# ---------------------------------------------------------------------------
# certify and second_iterate on rows against the Vector reference

def reference_certificate(T, cand, d, tol=CERT_TOL):
    """certify's certificate from coupled_image and norm on Vectors, for a
    candidate inside A x B."""
    img = coupled_image(T, cand, SIDE_AB)
    rx, ry = norm(T.space, cand.first - img.first), norm(T.space, cand.second - img.second)
    miss = max(abs(rx - d), abs(ry - d))
    if miss <= tol:
        return Certificate(cand, rx, ry, d, "coupled_fixed_point" if d <= tol else "coupled_bpp",
                           tol)
    return Certificate(cand, rx, ry, d, "rejected", tol,
                       reason=f"residuals miss the pair distance by {miss!r}")


def reference_second_iterate(T, cand, tol=CERT_TOL):
    """second_iterate_check's report from coupled_image and norm on Vectors."""
    if not T.space.modulus_available:
        return CheckReport("second_iterate", 0, status="not_applicable",
                           detail=f"{T.space.norm} has no convexity modulus")
    p2 = coupled_image(T, coupled_image(T, cand, SIDE_AB), SIDE_BA)
    dx, dy = norm(T.space, p2.first - cand.first), norm(T.space, p2.second - cand.second)
    violations = tuple(
        Violation((render_pair(cand), render_vector(got)), err, tol,
                  note=f"second iterate moved the {label} component")
        for label, err, got in (("x", dx, p2.first), ("y", dy, p2.second)) if err > tol)
    return CheckReport("second_iterate", 2, violations, "failed" if violations else "passed",
                       detail=f"|x2 - x| = {dx!r}, |y2 - y| = {dy!r}")


KINDS = ("row", "vector", "sequence")
NORMS = (("l1", None), ("l2", None), ("linf", None), ("lp", 3.0))
EVERYWHERE = DeclaredSet("everywhere", lambda v, tol: True, lambda rng: Vector())


def affine_case(kind, norm_p, a, b, rows, c_scale):
    """T(x, y) = a x + b y + c_side and the candidate (x, y), from rows = [x,
    y, c_AB, c_BA].  kind "row" gives T as a RowEvaluator, "vector" as a plain
    Vector evaluator of the same dense space, "sequence" as that evaluator in
    sequence mode, with x, y and c_AB on supports shifted by 3, 4 and 5."""
    n = len(rows[0])
    rows = rows[:2] + [[c_scale * v for v in r] for r in rows[2:]]
    if kind == "sequence":
        space = NormedSpaceSpec(norm=norm_p[0], mode="sequence", dimension=None, p=norm_p[1])
        x, y, c_ab, c_ba = (Vector.from_map({k + i: v for i, v in enumerate(r)})
                            for k, r in zip((3, 4, 5, 3), rows))
        A = B = EVERYWHERE
    else:
        space = NormedSpaceSpec(norm=norm_p[0], mode="dense", dimension=n, p=norm_p[1])
        x, y, c_ab, c_ba = map(Vector.dense, rows)
        A = B = Box((-50.0,) * n, (50.0,) * n)
    c = {SIDE_AB: c_ab, SIDE_BA: c_ba}
    if kind == "row":
        cr = {side: v.dense_values(n) for side, v in c.items()}
        ev = RowEvaluator(lambda rx, ry, side: [a * u + b * v + w + 0.0  # -0.0 to 0.0
                                                for u, v, w in zip(rx, ry, cr[side])], n)
    else:
        def ev(x, y, side):
            return x.scale(a) + y.scale(b) + c[side]
    return CyclicMapSpec("affine", space, A, B, ev, declared_dist=2.0), ProductPoint(x, y)


coordinate = st.tuples(st.floats(0.5, 4.0), st.booleans()).map(lambda t: -t[0] if t[1] else t[0])
weight = st.sampled_from([0.0, 1.0, 0.5, -0.25, -1.0])
four_rows = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.lists(coordinate, min_size=n, max_size=n), min_size=4, max_size=4))
FAR_ROWS = [[1.5, -2.0, 3.0], [-1.0, 2.5, 0.75], [1.0, 1.0, -2.0], [0.5, -3.0, 1.25]]


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(KINDS), norm_p=st.sampled_from(NORMS), a=weight, b=weight,
       rows=four_rows, c_scale=st.sampled_from([0.0, 1.0]), accept=st.booleans())
@example(kind="vector", norm_p=("l2", None), a=0.0, b=1.0, rows=FAR_ROWS, c_scale=0.0,
         accept=True)  # T(x, y) = y: accepted, and the second iterate returns
@example(kind="sequence", norm_p=("lp", 3.0), a=0.5, b=-0.25, rows=FAR_ROWS, c_scale=1.0,
         accept=False)
def test_certify_and_second_iterate_on_rows_match_the_vector_reference(kind, norm_p, a, b, rows,
                                                                       c_scale, accept):
    T, cand = affine_case(kind, norm_p, a, b, rows, c_scale)
    d = reference_certificate(T, cand, 2.0).residual_x if accept else 2.0
    got = certify(replace(T, declared_dist=d), cand)
    assert repr(got.to_json()) == repr(reference_certificate(T, cand, d).to_json())
    assert (repr(second_iterate_check(T, cand).to_json())
            == repr(reference_second_iterate(T, cand).to_json()))


@pytest.mark.parametrize("norm_p", [("l2", None), ("lp", 3.0)], ids=str)
@pytest.mark.parametrize("kind", KINDS)
def test_second_iterate_witnesses_on_rows_match_the_vector_reference(kind, norm_p):
    T, cand = affine_case(kind, norm_p, 0.5, -0.25, FAR_ROWS, 1.0)
    # each kind takes its own branch of maps.row_map
    to_row = native_form(T)[1]
    assert isinstance(T.evaluator, RowEvaluator) == (kind == "row")
    assert (to_row is not None) == (kind == "vector")
    rep = second_iterate_check(T, cand)
    assert rep.status == "failed" and len(rep.violations) == 2
    assert repr(rep.to_json()) == repr(reference_second_iterate(T, cand).to_json())
