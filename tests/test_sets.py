"""Convex set membership, sampling and pair distance solvers.

Distance oracles: 1-d problems have closed forms, 2-d polytope cases are
checked against a dense grid over the convex-weight simplex.
"""
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proxcycle import (
    CyclicMapSpec,
    DimensionMismatch,
    NormedSpaceSpec,
    ProductPoint,
    SetsError,
    StopRule,
    Vector,
    basis,
    builtin,
    check_cyclic_invariance,
    contains,
    dist,
    l1_example_sets,
    norm,
    paired_block_hull,
    run,
    sample,
)
from proxcycle import sets
from proxcycle.config import load_config
from proxcycle.maps import SIDE_BA, RowEvaluator, _Probe
from proxcycle.sets import (Box, Hull, _cone, _nnls, _prepare_pair, _simplex_weights,
                            _subgrad_distance, member_test, sample_rows)
from proxcycle.space import TOL_NUM, pack, pack_flat, row_kernel, unpack

L1_SEQ = NormedSpaceSpec("l1", "sequence", None)
R1 = NormedSpaceSpec("l2", "dense", 1)
R2 = NormedSpaceSpec("l2", "dense", 2)

A_BOX = Box((1.0,), (2.0,))
B_BOX = Box((-2.0,), (-1.0,))


def test_box_validation():
    with pytest.raises(SetsError):
        Box((1.0,), (0.0,))
    with pytest.raises(SetsError):
        Box((0.0, 0.0), (1.0,))


def test_box_membership():
    assert contains(A_BOX, R1, Vector.dense([1.5]))
    assert contains(A_BOX, R1, Vector.dense([1.0]))
    assert not contains(A_BOX, R1, Vector.dense([0.99]))
    assert not contains(A_BOX, R1, Vector.dense([2.5]))


def test_hull_membership():
    tri = Hull((Vector.dense([0.0, 0.0]), Vector.dense([1.0, 0.0]),
                Vector.dense([0.0, 1.0])))
    assert contains(tri, R2, Vector.dense([0.2, 0.3]))
    assert contains(tri, R2, Vector.dense([0.5, 0.5]))  # on the edge
    assert not contains(tri, R2, Vector.dense([0.9, 0.9]))
    assert not contains(tri, R2, Vector.dense([-0.1, 0.0]))


def test_the_vertex_centroid_separates_without_a_solve(monkeypatch):
    # the first _nnls iterate, vertex (0, 0), separates nothing here, so the
    # solve alone takes a least-squares step before it rejects
    tri = Hull((Vector.dense([0.0, 0.0]), Vector.dense([4.0, 0.0]),
                Vector.dense([0.0, 4.0])))
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    assert not contains(tri, R2, Vector.dense([-1.0, 2.0]))
    assert calls == []
    assert contains(tri, R2, Vector.dense([1.0, 2.0]))
    assert calls


def test_sampled_points_are_members():
    tri = Hull((Vector.dense([0.0, 0.0]), Vector.dense([1.0, 0.0]),
                Vector.dense([0.0, 1.0])))
    for S, sp in ((A_BOX, R1), (tri, R2)):
        for v in sample(S, sp, 50, seed=4):
            assert contains(S, sp, v)


def assert_feasible_descent(C, group):
    """Every _nnls iterate is feasible, with each group summing to one, and
    its residual |C z| never rises."""
    resid = np.inf
    for z, y in _nnls(C, group):
        assert (z >= 0.0).all()
        assert np.abs(np.bincount(group, z) - 1.0).max() <= 1e-12
        assert np.array_equal(y, C @ z)
        assert np.linalg.norm(y) <= resid
        resid = np.linalg.norm(y)


def assert_membership_verdicts(V, rng):
    """Members, one with a weight of 1e-3, are accepted; points pushed 10 tol
    and 0.1 past a supporting hyperplane are not, each as the solve alone
    decides it; _nnls stays feasible."""
    k, d = V.shape
    hull = Hull(tuple(Vector.dense(v) for v in V))
    sp = NormedSpaceSpec("l2", "dense", d)
    members, outside = [], []
    for _ in range(4):
        w = rng.dirichlet(np.ones(k))
        if k > 1:
            w = np.r_[1e-3, (1.0 - 1e-3) * w[1:] / w[1:].sum()]
        members.append(w @ V)
        z = rng.standard_normal(d)
        z /= np.linalg.norm(z)
        base = rng.dirichlet(np.ones(k)) @ V
        for push in (10 * TOL_NUM, 0.1):
            outside.append(base + (float(np.max(V @ z)) - float(base @ z) + push) * z)
    for x, want in [(x, True) for x in members] + [(x, False) for x in outside]:
        assert contains(hull, sp, Vector.dense(x)) is want, (x, want)
        assert in_hull_reference(V, x.tolist(), TOL_NUM) is want, (x, want)
        assert_feasible_descent((V - x).T, np.zeros(k, dtype=np.intp))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 20])
def test_members_of_offset_hulls_are_accepted(d):
    # vertices about 2 from the origin, where rounding in a Gram-matrix
    # objective used to exceed the default tolerance
    rng = np.random.default_rng(d)
    for trial in range(4):
        V = 2.0 + 0.5 * rng.standard_normal((d + 2, d))
        hull = Hull(tuple(Vector.dense(v) for v in V))
        sp = NormedSpaceSpec("l2", "dense", d)
        for v in sample(hull, sp, 25, seed=trial):
            assert contains(hull, sp, v)
        assert_membership_verdicts(V, rng)


DEGENERATE_HULLS = {
    "repeated-vertex": np.array([[2.0, 1.5, 2.5], [1.0, 2.0, 2.0], [2.0, 1.5, 2.5],
                                 [2.5, 2.5, 1.0]]),
    "collinear-3d": np.array([2.0, 1.5, 1.0]) + np.outer([0.0, 0.3, 1.1, 1.7], [0.6, -0.8, 0.5]),
    "one-vertex": np.array([[1.0, -2.0, 0.5, 1.5, 0.25]]),
    "more-than-d-plus-1": 2.0 + 0.5 * np.random.default_rng(3).standard_normal((30, 3)),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_HULLS))
def test_degenerate_hull_membership(name):
    assert_membership_verdicts(DEGENERATE_HULLS[name], np.random.default_rng(len(name)))


def test_nnls_iterates_of_a_distance_stay_feasible():
    # several groups: a box's coordinates and a hull's weights
    rng = np.random.default_rng(5)
    hull = Hull(tuple(Vector.dense(v) for v in 2.0 + 0.5 * rng.standard_normal((7, 4))))
    box = Box((-1.0, -2.0, 0.0, -3.0), (0.0, -1.0, 0.5, -2.0))
    sp = NormedSpaceSpec("l2", "dense", 4)
    _, pa, pb = _prepare_pair(hull, box, sp)
    (Ca, ga), (Cb, gb) = _cone(*pa), _cone(*pb)
    assert_feasible_descent(np.hstack([Ca, -Cb]), np.concatenate([ga, gb + ga.max() + 1]))


def test_hull_vertices_are_packed_once(monkeypatch):
    packs = []

    def spy(vectors, sp):
        packs.append(tuple(vectors))
        return pack_flat(vectors, sp)

    monkeypatch.setattr("proxcycle.space.pack_flat", spy)
    tri = Hull((Vector.dense([0.0, 0.0]), Vector.dense([1.0, 0.0]), Vector.dense([0.0, 1.0])))
    assert contains(tri, R2, Vector.dense([0.2, 0.3]))
    packs.clear()
    for v in sample(tri, R2, 10, seed=1):
        assert contains(tri, R2, v)
    assert not contains(tri, R2, Vector.dense([0.9, 0.9]))
    assert packs == []

    A = Hull((Vector.dense([1.0, 0.5]), Vector.dense([2.0, 1.0]), Vector.dense([1.5, 2.0])))
    B = Hull(tuple(v.scale(-1.0) for v in A.vertices))
    T = CyclicMapSpec("negate", R2, A, B, lambda x, y, side: x.scale(-1.0))
    x0 = sample(A, R2, 1, seed=2)[0]
    traj = run(T, x0, x0.scale(-1.0), StopRule(50, None, None))
    assert traj.n_points == 51
    packed = len(packs)
    assert dist(A, B, R2) == dist(A, B, R2)
    assert len(packs) == packed
    for S in (A, B):
        assert sum(vs[:len(S.vertices)] == S.vertices for vs in packs) <= 1


@pytest.mark.parametrize("sp", [NormedSpaceSpec("l1", "dense", 6), L1_SEQ],
                         ids=["dense", "sequence"])
def test_prepare_pair_places_each_hull_over_the_union_index(sp):
    A = Hull((Vector.from_map({1: 1.0, 3: -2.0}), Vector.from_map({0: 0.5})))
    B = Hull((Vector.from_map({2: 4.0}), Vector.from_map({1: -1.0, 2: 3.0}), Vector()))
    index, (_, da), (_, db) = _prepare_pair(A, B, sp)
    arr, want = pack([*A.vertices, *B.vertices], sp)
    assert index == want
    assert np.array_equal(np.vstack([da, db]), arr)


def test_hull_vertex_outside_the_space_is_refused():
    hull = Hull((Vector.dense([0.0, 0.0, 5.0]), Vector.dense([1.0, 0.0, 5.0])))
    with pytest.raises(DimensionMismatch):
        contains(hull, R2, Vector.dense([0.5, 0.0]))
    with pytest.raises(DimensionMismatch):
        dist(hull, Box((3.0, 0.0), (4.0, 1.0)), R2)
    for n in (0, 2):  # as contains does, before any draw
        with pytest.raises(DimensionMismatch):
            sample_rows(hull, R2, n, seed=1)


def test_sampling_is_deterministic():
    a = sample(A_BOX, R1, 10, seed=9)
    b = sample(A_BOX, R1, 10, seed=9)
    c = sample(A_BOX, R1, 10, seed=10)
    assert a == b
    assert a != c


@pytest.mark.parametrize("S,space", [
    (Box((1.0, -2.0, 0.0), (2.0, -1.0, 0.0)), NormedSpaceSpec("l2", "dense", 3)),
    (Hull((Vector.dense([1.0, 0.0]), Vector.dense([0.0, 2.0]), Vector.dense([-1.0, -1.0]))),
     R2),
    (paired_block_hull(1, "odd"), L1_SEQ),
], ids=["box", "hull", "declared"])
def test_a_shorter_draw_is_a_prefix_of_a_longer_one(S, space):
    # the sampled checkers draw each (set, seed) stream once and serve
    # shorter requests from its prefix
    for seed in (0, 7, 7919):
        full = sample(S, space, 40, seed=seed)
        assert len(full) == 40 and all(contains(S, space, v) for v in full)
        for k in (0, 1, 13, 39):
            assert sample(S, space, k, seed=seed) == full[:k]


def test_sample_refuses_a_box_where_contains_does():
    box = Box((1.0,), (2.0,))
    for space in (NormedSpaceSpec("l2", "sequence", None), NormedSpaceSpec("l2", "dense", 3)):
        for draw in (sample, sample_rows):
            with pytest.raises(SetsError):
                draw(box, space, 2, seed=1)
        with pytest.raises(SetsError):
            contains(box, space, Vector.dense([1.5]))


def stdlib_simplex_weights(rng, k):
    """k weights uniform on the simplex, from the stdlib alone: the spacings of
    0.0, k - 1 sorted rng.random() cuts and 1.0."""
    edges = [0.0, *sorted(rng.random() for _ in range(k - 1)), 1.0]
    return [b - a for a, b in zip(edges, edges[1:])]


def test_simplex_weights_are_the_sorted_cut_spacings():
    # one and two weights skip the sort: they must still give the spacings'
    # values and consume the stream as k - 1 rng.random() calls do
    for k in range(1, 31):
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            assert _simplex_weights(rng, k) == stdlib_simplex_weights(ref, k), (k, seed)
            assert rng.getstate() == ref.getstate(), (k, seed)


def reference_sample(S, space, n, seed):
    """sample's draw as it was made before sample_rows: a box's coordinate
    rows as Vectors, a hull's weighted vertex sums, a declared set's sampler."""
    rng = random.Random(f"sample:{seed}")
    if isinstance(S, Box):
        out = [Vector.dense([lo + rng.random() * (hi - lo) for lo, hi in zip(S.lower, S.upper)])
               for _ in range(n)]
    elif isinstance(S, Hull):
        out = [sum(map(Vector.scale, S.vertices, stdlib_simplex_weights(rng, len(S.vertices))),
                   Vector()) for _ in range(n)]
    else:
        out = [S.sampler(rng) for _ in range(n)]
    for v in out:
        space.validate(v)
    return out


@st.composite
def sets_in_spaces(draw):
    """A box in a dense space, or a hull or paired-block set in a dense or
    sequence space.  A hull has up to 30 vertices over part of the space,
    their coordinates scaled by 2^e for one e in [-1000, 1000]."""
    kind, mode = draw(st.sampled_from([("box", "dense"), ("hull", "dense"), ("hull", "sequence"),
                                       ("blocks", "dense"), ("blocks", "sequence")]))
    norm_name = draw(st.sampled_from(["l1", "l2", "linf"]))
    if kind == "blocks":
        dimension = 14 if mode == "dense" else None  # the largest draw index is 13
        return paired_block_hull(draw(st.integers(1, 2)), "S"), NormedSpaceSpec(
            norm_name, mode, dimension)
    d = draw(st.integers(1, 4))
    space = NormedSpaceSpec(norm_name, mode, d if mode == "dense" else None)
    coordinate = st.floats(-4.0, 4.0)
    if kind == "box":
        lower = draw(st.lists(coordinate, min_size=d, max_size=d))
        widths = draw(st.lists(st.floats(0.0, 3.0), min_size=d, max_size=d))
        return Box(tuple(lower), tuple(map(float.__add__, lower, widths))), space
    index = st.integers(0, d - 1 if mode == "dense" else 12)
    e = draw(st.integers(-1000, 1000))
    scaled = coordinate.map(lambda c: math.ldexp(c, e))
    vertices = st.dictionaries(index, scaled, max_size=d).map(Vector.from_map)
    return Hull(tuple(draw(st.lists(vertices, min_size=1, max_size=30)))), space


def one_coordinate_hull(k):
    """k vertices on one coordinate, where np.add.reduce sums pairwise."""
    rng = random.Random(k)
    return Hull(tuple(Vector.dense([rng.uniform(-4.0, 4.0)]) for _ in range(k)))


# support = the whole dense space; weights below 1/2 round the +-2^-1074
# terms to 0.0 and -0.0, and equal ones cancel
FULL_SUPPORT_HULL = Hull((Vector.dense([5e-324, -5e-324, 1.0]),
                          Vector.dense([-5e-324, 1.0, -2.5]),
                          Vector.dense([5e-324, 5e-324, 0.5])))


@settings(max_examples=300, deadline=None)
@given(case=sets_in_spaces(), n=st.integers(0, 12), seed=st.integers(0, 2 ** 32))
@example(case=(one_coordinate_hull(30), R1), n=40, seed=30)
@example(case=(one_coordinate_hull(30), L1_SEQ), n=40, seed=30)
@example(case=(FULL_SUPPORT_HULL, NormedSpaceSpec("l1", "dense", 3)), n=40, seed=3)
def test_sample_and_the_probe_draw_as_before(case, n, seed):
    # one row draw serves every set kind: sample's Vectors and the probe's
    # rows are the draws each made before, a box's rows included; a hull's
    # draw adds its vertex rows one at a time, as the Vector sum does, and a
    # reordered sum (np.add.reduce, @) differs from about 10 vertices on
    S, space = case
    want = reference_sample(S, space, n, seed)
    assert sample(S, space, n, seed=seed) == want
    row, _ = row_kernel(space)
    # repr tells a -0.0 from the 0.0 of a coordinate the Vector sum drops
    assert repr(sample_rows(S, space, n, seed)) == repr([row(v) for v in want])
    probe = _Probe(replace(builtin("interval_contraction"), space=space, A=S, B=S))
    assert probe._stream(S, n, seed) == [row(v) for v in want]


# ------------------------------------------------------------- distances

def test_interval_distance_closed_form():
    # inf |a - b| over a in [1,2], b in [-2,-1] is 2, attained at (1, -1)
    res = dist(A_BOX, B_BOX, R1)
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.method == "nnls" and res.converged
    assert res.witness.first.value_at(0) == pytest.approx(1.0, abs=1e-7)
    assert res.witness.second.value_at(0) == pytest.approx(-1.0, abs=1e-7)


def test_triangle_segment_distance_hand_value():
    tri = Hull((Vector.dense([0.0, 0.0]), Vector.dense([1.0, 0.0]),
                Vector.dense([0.0, 1.0])))
    seg = Hull((Vector.dense([3.0, 0.0]), Vector.dense([3.0, 2.0])))
    # nearest pair is (1,0) and (3,0)
    assert dist(tri, seg, R2).value == pytest.approx(2.0, abs=1e-8)


def test_nnls_matches_grid_oracle():
    # irregular quadrilateral vs triangle; oracle scans convex weights
    P = Hull((Vector.dense([0.0, 0.0]), Vector.dense([2.0, 0.5]),
              Vector.dense([1.5, 2.0]), Vector.dense([0.2, 1.2])))
    Q = Hull((Vector.dense([4.0, 0.0]), Vector.dense([5.0, 2.0]),
              Vector.dense([4.5, 3.0])))

    def grid_pts(verts, steps):
        V = np.array([[v.value_at(0), v.value_at(1)] for v in verts])
        combos = np.array([w for w in itertools.product(range(steps + 1),
                                                        repeat=len(verts))
                           if sum(w) == steps], dtype=float) / steps
        return combos @ V

    pa = grid_pts(P.vertices, 16)
    pb = grid_pts(Q.vertices, 16)
    diff = pa[:, None, :] - pb[None, :, :]
    best = float(np.sqrt((diff ** 2).sum(axis=2)).min())

    res = dist(P, Q, R2)
    assert res.method == "nnls"
    assert res.converged
    # the grid only explores feasible points, so it upper-bounds the optimum
    assert res.value <= best + 1e-9
    assert res.value == pytest.approx(best, abs=2e-2)
    # solver witnesses must be feasible and consistent with the value
    assert contains(P, R2, res.witness.first, tol=1e-6)
    assert contains(Q, R2, res.witness.second, tol=1e-6)
    assert norm(R2, res.witness.first - res.witness.second) == pytest.approx(
        res.value, abs=1e-8)


def test_l2_box_pair_matches_closed_form():
    # the boxes overlap in the first coordinate, so the nearest points
    # are not vertices; the per-coordinate gaps are 0, 1.5, 0.4, 0.1, 1.2
    A = Box((0.5, 1.0, -3.0, -1.0, -0.4), (1.5, 1.5, -1.8, 0.9, 0.4))
    B = Box((0.3, -2.3, -1.4, 1.0, -2.3), (2.0, -0.5, -1.2, 2.9, -1.6))
    res = dist(A, B, NormedSpaceSpec("l2", "dense", 5))
    assert res.method == "nnls" and res.converged
    assert res.value == pytest.approx(np.sqrt(1.5 ** 2 + 0.4 ** 2 + 0.1 ** 2 + 1.2 ** 2),
                                      abs=1e-9)


def test_l2_hull_pair_with_a_facet_optimum():
    # A's facet on x = 1 contains (1, 0.2, 0.3); B's nearest vertex is
    # (-1, 0.2, 0.3), so the only optimum lies inside the facet
    R3 = NormedSpaceSpec("l2", "dense", 3)
    A = Hull((Vector.dense([1.0, -1.0, -1.0]), Vector.dense([1.0, 2.0, -1.0]),
              Vector.dense([1.0, -1.0, 2.0]), Vector.dense([3.0, 0.0, 0.0])))
    B = Hull((Vector.dense([-1.0, 0.2, 0.3]), Vector.dense([-3.0, 0.5, -0.5])))
    res = dist(A, B, R3)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    for wit, want in ((res.witness.first, (1.0, 0.2, 0.3)),
                      (res.witness.second, (-1.0, 0.2, 0.3))):
        assert [wit.value_at(i) for i in range(3)] == pytest.approx(want, abs=1e-12)


def test_solvers_do_not_import_scipy():
    # importing scipy.optimize nearly triples the process's resident memory
    code = ("import sys\n"
            "from proxcycle import Box, Hull, NormedSpaceSpec, Vector, contains, dist\n"
            "sp = NormedSpaceSpec('l2', 'dense', 1)\n"
            "hull = Hull((Vector.dense([1.0]), Vector.dense([2.0])))\n"
            "assert contains(hull, sp, Vector.dense([1.5]))\n"
            "assert dist(hull, Box((-2.0,), (-1.0,)), sp).value == 2.0\n"
            "assert 'scipy' not in sys.modules\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_axis_separated_boxes_random_instances():
    rng = random.Random(77)
    for _ in range(20):
        gap = rng.uniform(0.5, 3.0)
        a_lo, a_hi = sorted((rng.uniform(-4, -gap), -gap))
        b_lo, b_hi = sorted((gap, rng.uniform(gap, 4)))
        y0, y1 = sorted((rng.uniform(-2, 2), rng.uniform(-2, 2)))
        A = Box((a_lo, y0), (a_hi, y1 + 1.0))
        B = Box((b_lo, y0), (b_hi, y1 + 1.0))
        # boxes overlap in y, so the distance is the x gap
        expected = b_lo - a_hi
        assert dist(A, B, R2).value == pytest.approx(expected, abs=1e-7)


def test_l1_distance_is_flagged_approximate():
    sp = NormedSpaceSpec("l1", "dense", 1)
    res = dist(A_BOX, B_BOX, sp)
    assert res.method == "subgradient"
    assert not res.converged
    assert res.value == pytest.approx(2.0, abs=1e-5)


def subgrad_by_start(A, B, space, seed, n_starts, iters):
    """_subgrad_distance as a loop over its starts, one start at a time."""
    index, (ka, da), (kb, db) = _prepare_pair(A, B, space)
    rng = np.random.default_rng(seed)

    def project_simplex(w):
        u = np.sort(w)[::-1]
        css = np.cumsum(u) - 1.0
        rho = int(np.nonzero(u - css / np.arange(1, len(w) + 1) > 0)[0][-1])
        return np.maximum(w - css[rho] / (rho + 1.0), 0.0)

    def point(kind, data, par):
        return data.T @ par if kind == "hull" else par

    def init(kind, data):
        if kind == "hull":
            w = rng.random(len(data))
            return w / w.sum()
        lo, hi = data
        return lo + rng.random(len(lo)) * (hi - lo)

    def subgrad(w):
        if space.norm == "linf":
            g = np.zeros_like(w)
            j = int(np.argmax(np.abs(w)))
            g[j] = np.sign(w[j])
            return g
        return np.sign(w)

    def value_of(w):
        return norm(space, unpack(w.tolist(), index))

    best_val, best_pair = math.inf, None
    for _ in range(n_starts):
        pa, pb = init(ka, da), init(kb, db)
        cur_a, cur_b = point(ka, da, pa), point(kb, db, pb)
        loc_val, loc_pair = value_of(cur_a - cur_b), (cur_a, cur_b)
        spread = loc_val + 1.0
        for k in range(1, iters + 1):
            g = subgrad(cur_a - cur_b)
            step = spread / math.sqrt(k)
            if ka == "hull":
                pa = project_simplex(pa - step * (da @ g))
            else:
                pa = np.clip(pa - step * g, *da)
            if kb == "hull":
                pb = project_simplex(pb + step * (db @ g))
            else:
                pb = np.clip(pb + step * g, *db)
            cur_a, cur_b = point(ka, da, pa), point(kb, db, pb)
            val = value_of(cur_a - cur_b)
            if val < loc_val:
                loc_val, loc_pair = val, (cur_a, cur_b)
        if loc_val < best_val:
            best_val, best_pair = loc_val, loc_pair
    a, b = (unpack(p.tolist(), index) for p in best_pair)
    return best_val, ProductPoint(a, b)


def random_set(kind, d, offset, rng):
    """A hull of 1 to d + 3 vertices or a box, both about offset."""
    if kind == "hull":
        scale = rng.uniform(0.1, 5.0)
        return Hull(tuple(Vector.dense((offset + scale * rng.standard_normal(d)).tolist())
                          for _ in range(rng.integers(1, d + 4))))
    lo = offset + rng.uniform(-3.0, 3.0, d)
    return Box(tuple(lo.tolist()), tuple((lo + rng.uniform(0.0, 4.0, d)).tolist()))


@settings(max_examples=50, deadline=None)
@given(norm_name=st.sampled_from(["l1", "linf"]),
       kinds=st.sampled_from([("hull", "hull"), ("box", "box"), ("hull", "box"), ("box", "hull")]),
       d=st.integers(1, 20), offsets=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
       seed=st.integers(0, 2 ** 32 - 1), n_starts=st.sampled_from([1, 6]))
def test_batched_subgradient_equals_the_loop_over_starts(norm_name, kinds, d, offsets, seed,
                                                         n_starts):
    rng = np.random.default_rng(seed)
    A, B = (random_set(kind, d, off, rng) for kind, off in zip(kinds, offsets))
    sp = NormedSpaceSpec(norm_name, "dense", d)
    got = _subgrad_distance(A, B, sp, seed, n_starts, iters=25)
    assert type(got[0]) is float
    assert got == subgrad_by_start(A, B, sp, seed, n_starts, iters=25)


@pytest.mark.parametrize("norm_name", ["l1", "linf"])
@pytest.mark.parametrize("d,k", [(1, 2), (3, 6), (8, 12), (20, 24)])
@pytest.mark.parametrize("seed", range(2))
def test_batched_subgradient_equals_the_loop_on_hulls_of_one_size(norm_name, d, k, seed):
    # the hull_geometry shapes, whose two hulls share each simplex projection
    rng = np.random.default_rng([seed, d])
    A, B = (Hull(tuple(Vector.dense((off + rng.standard_normal(d)).tolist()) for _ in range(k)))
            for off in (1.5, -1.5))
    sp = NormedSpaceSpec(norm_name, "dense", d)
    got = _subgrad_distance(A, B, sp, seed, 6, iters=25)
    assert got == subgrad_by_start(A, B, sp, seed, 6, iters=25)


def sequence_hull(k, offset, rng):
    """A hull of k vertices, each on 1 to 4 of the coordinates 0 to 11."""
    return Hull(tuple(Vector.from_map({int(j): offset + float(rng.standard_normal())
                                       for j in rng.choice(12, rng.integers(1, 5), replace=False)})
                      for _ in range(k)))


@pytest.mark.parametrize("norm_name", ["l1", "linf"])
@pytest.mark.parametrize("sizes", [(1, 1), (4, 4), (9, 9), (3, 7)])
@pytest.mark.parametrize("seed", range(3))
def test_batched_subgradient_equals_the_loop_on_sequence_hulls(norm_name, sizes, seed):
    rng = np.random.default_rng([seed, *sizes])
    A, B = (sequence_hull(k, off, rng) for k, off in zip(sizes, (1.0, -1.0)))
    sp = NormedSpaceSpec(norm_name, "sequence", None)
    got = _subgrad_distance(A, B, sp, seed, 6, iters=25)
    assert got == subgrad_by_start(A, B, sp, seed, 6, iters=25)


@pytest.mark.parametrize("norm_name", ["l1", "linf"])
@pytest.mark.parametrize("kinds", [("hull", "hull"), ("box", "box"), ("hull", "box"),
                                   ("box", "hull")])
def test_subgradient_value_is_the_norm_of_its_witnesses(norm_name, kinds):
    rng = np.random.default_rng(len(norm_name))
    A, B = (random_set(kind, 3, off, rng) for kind, off in zip(kinds, (4.0, -4.0)))
    sp = NormedSpaceSpec(norm_name, "dense", 3)
    res = dist(A, B, sp)
    w = res.witness
    assert res.value == norm(sp, w.first - w.second)
    assert contains(A, sp, w.first, 1e-9) and contains(B, sp, w.second, 1e-9)


@pytest.mark.parametrize("norm_name", ["l1", "linf"])
def test_subgradient_builds_no_vector_per_iteration(norm_name, monkeypatch):
    rng = np.random.default_rng(4)
    A, B = (random_set("hull", 8, off, rng) for off in (2.0, -2.0))
    sp = NormedSpaceSpec(norm_name, "dense", 8)
    built = []
    init = Vector.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Vector, "__init__", counting_init)
    counts = []
    for iters in (5, 50):
        built.clear()
        _subgrad_distance(A, B, sp, 0, iters=iters)
        counts.append(len(built))
    built.clear()
    dist(A, B, sp)
    assert counts[0] == counts[1] == len(built) < 10


@pytest.mark.parametrize("seed", range(3))
def test_batched_subgradient_keeps_the_first_of_equal_iterates(seed):
    # every point of A is at linf distance 2 from B, and the iterates drift
    # along A in the last bits, so a start sees equal values at other points
    sp = NormedSpaceSpec("linf", "dense", 2)
    A = Hull((Vector.dense([1.0, 0.0]), Vector.dense([1.0, 1.0])))
    B = Hull((Vector.dense([-1.0, 0.5]),))
    got = _subgrad_distance(A, B, sp, seed, 6, iters=50)
    assert got == subgrad_by_start(A, B, sp, seed, 6, iters=50)


# float.hex of the value, and the first 16 hex digits of the sha256 of the
# witness coordinates' float.hex, at the default 2,500 steps
SUBGRADIENT_PINS = {
    ("l1", 1, 2): ("0x1.0041a559feb5dp+0", "4b4b52527c99c804"),
    ("l1", 3, 6): ("0x1.437e42d506affp+2", "90c67a5162ead4d2"),
    ("l1", 8, 12): ("0x1.ec5861af186f7p+3", "2b4c66e7938b6e0d"),
    ("l1", 20, 24): ("0x1.5ae2f6446a348p+5", "9a61a795e094510d"),
    ("linf", 1, 2): ("0x1.0041a559feb5dp+0", "4b4b52527c99c804"),
    ("linf", 3, 6): ("0x1.f93bd249bba1ep+0", "769da0ae7bfdfbc0"),
    ("linf", 8, 12): ("0x1.4e87974c815e2p+1", "dca66cd349ece6de"),
    ("linf", 20, 24): ("0x1.98444ec86c536p+1", "dff343c08da2ba23"),
}


@pytest.mark.parametrize("norm_name,d,k", sorted(SUBGRADIENT_PINS))
def test_default_length_subgradient_values_are_pinned(norm_name, d, k):
    # the hull_geometry shapes; the loop references above run 25 to 50
    # steps, too few to see every change of rounding in a full-length run
    rng = np.random.default_rng([7, d])
    A, B = (Hull(tuple(Vector.dense((off + rng.standard_normal(d)).tolist()) for _ in range(k)))
            for off in (1.5, -1.5))
    res = dist(A, B, NormedSpaceSpec(norm_name, "dense", d))
    coords = [x.hex() for v in (res.witness.first, res.witness.second) for x in v.dense_values(d)]
    digest = hashlib.sha256(" ".join(coords).encode()).hexdigest()[:16]
    assert (res.value.hex(), digest) == SUBGRADIENT_PINS[norm_name, d, k]


@pytest.mark.parametrize("e", [520, -540, 1000, -1000])
@pytest.mark.parametrize("kind", ["box", "hull"])
def test_l2_distance_at_extreme_scales(kind, e):
    # |C z|^2 overflows above about 2^512 and underflows below about 2^-537,
    # where an unscaled solve stops at its start, at distance 3s
    s = math.ldexp(1.0, e)
    if kind == "box":
        A, B = Box((s, 0.0), (2 * s, s)), Box((-2 * s, 0.0), (-s, s))
    else:
        A = Hull((Vector.dense([2 * s, 0.0]), Vector.dense([s, 0.0])))
        B = Hull((Vector.dense([-s, 0.0]),))
    res = dist(A, B, R2)
    assert res.method == "nnls"
    assert res.value == 2 * s
    assert (res.witness.first.value_at(0), res.witness.second.value_at(0)) == (s, -s)


def scaled_hull(s):
    return Hull(tuple(Vector.dense(v) for v in ([2 * s, 0.0, 0.0], [s, 0.0, 0.0], [s, s, 0.0])))


@pytest.mark.parametrize("e", [520, 1000])
def test_hull_membership_at_extreme_scales(e):
    # the squares of V - x overflowed above about 2^512; scaled by a power of
    # two, the solve is the one at s = 1
    s, R3 = math.ldexp(1.0, e), NormedSpaceSpec("l2", "dense", 3)
    H = scaled_hull(s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert contains(H, R3, Vector.dense([1.5 * s, 0.0, 0.0]))
        assert not contains(H, R3, Vector.dense([-s, 0.0, 0.0]))
        assert not contains(H, R3, Vector.dense([1.5 * s, 0.0, s]))
        assert isinstance(contains(H, R3, Vector.dense([1.25 * s, 0.25 * s, 0.0])), bool)


def test_hull_membership_at_the_top_of_the_float_range(capfd):
    # V - x is inf for the hull of -1e308 and 1e308 unless V and x are
    # halved before the difference is taken
    R1 = NormedSpaceSpec("l2", "dense", 1)
    line = Hull((Vector.dense([-1e308]), Vector.dense([1e308])))
    flat = Hull((Vector.dense([-1e308, 0.0]), Vector.dense([1e308, 0.0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e308, -1e308, 0.0, 5e307):
            assert contains(line, R1, Vector.dense([x])), x
        assert contains(flat, R2, Vector.dense([1e308, 0.0]))
        assert not contains(flat, R2, Vector.dense([1e308, 1e300]))
        assert not contains(flat, R2, Vector.dense([0.0, -1e300]))
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("s, x", [(2.0 ** 1000, (0.0, 1.0)), (1e308, (0.0, 1.0)),
                                  (1e308, (-1e308, -1.0))])
def test_a_gap_far_below_the_hull_scale_does_not_underflow(s, x):
    # the scaled gap is about 1 / s; its square underflowed to 0, which
    # accepted a point at distance 1 from the segment
    segment = Hull((Vector.dense([-s, 0.0]), Vector.dense([s, 0.0])))
    assert not contains(segment, R2, Vector.dense(list(x)))


def in_hull_reference(V, x, tol):
    """sets._in_hull as it was before it halved V and x ahead of V - x, tried
    the vertex centroid ahead of the _nnls iterates and took the gap by
    math.hypot."""
    if not all(map(math.isfinite, x)):
        return False
    D, e = sets._scaled(V - np.array(x))
    tol = math.ldexp(tol, -e)
    for _, r in _nnls(D.T, np.zeros(len(D), dtype=np.intp)):
        gap = math.sqrt(r @ r)
        if gap <= tol:
            return True
        if (D @ r).min() > tol * gap:
            return False
    return False


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 6), d=st.integers(1, 5), e=st.integers(-60, 60),
       seed=st.integers(0, 2 ** 32))
def test_halving_ahead_of_the_difference_keeps_the_solve(k, d, e, seed):
    # at ordinary scales the solve sees the same scaled V - x, bit for bit,
    # and decides as before
    rng = np.random.default_rng(seed)
    V = np.ldexp(rng.uniform(-1.0, 1.0, (k, d)), e)
    x = np.ldexp(rng.uniform(-1.0, 1.0, d), e).tolist()
    if rng.random() < 0.5:  # a point of the hull, or near it
        w = rng.dirichlet(np.ones(k))
        x = (w @ V + np.ldexp(rng.uniform(-1.0, 1.0, d), e - 30)).tolist()
    seen = []

    def nnls(C, group):
        seen.append(C.copy())
        return _nnls(C, group)

    sets._nnls = nnls
    try:
        got = sets._in_hull(0.5 * V, x, 1e-9 * 2.0 ** e)
    finally:
        sets._nnls = _nnls
    D, _ = sets._scaled(V - np.array(x))
    assert seen[0].tobytes() == D.T.tobytes()
    assert got is in_hull_reference(V, x, 1e-9 * 2.0 ** e)


@pytest.mark.xfail(strict=True, reason="the absolute tol is below the solve's rounding, "
                                       "about 2^-55 s; what a tolerance means is still open")
@pytest.mark.parametrize("e", [40, 520, 1000])
def test_an_exact_hull_member_at_a_large_scale_is_accepted(e):
    s = math.ldexp(1.0, e)
    assert contains(scaled_hull(s), NormedSpaceSpec("l2", "dense", 3),
                    Vector.dense([1.25 * s, 0.25 * s, 0.0]))


def test_lp_distance_is_refused():
    sp = NormedSpaceSpec("lp", "dense", 1, p=3.0)
    with pytest.raises(SetsError, match="lp"):
        dist(A_BOX, B_BOX, sp)


# ------------------------------------------------------ the l1 block hulls

def test_paired_block_hull_membership():
    A = paired_block_hull(1, "A")  # blocks e1+e2, e3+e4, ...
    B = paired_block_hull(2, "B")  # blocks e2+e3, e4+e5, ...
    assert contains(A, L1_SEQ, basis(1) + basis(2))
    assert contains(A, L1_SEQ, (basis(1) + basis(2)).scale(0.5)
                    + (basis(3) + basis(4)).scale(0.5))
    assert contains(B, L1_SEQ, basis(2) + basis(3))
    assert not contains(A, L1_SEQ, basis(2) + basis(3))
    assert not contains(B, L1_SEQ, basis(1) + basis(2))
    # block generators are unit-weight pairs; a lone basis vector is outside
    assert not contains(A, L1_SEQ, basis(1))


def test_paired_block_membership_refuses_nan():
    A = paired_block_hull(1, "A")
    assert contains(A, L1_SEQ, Vector(((1, 1.0), (2, 1.0))))
    assert not contains(A, L1_SEQ, Vector(((0, math.nan), (1, 1.0), (2, 1.0))))
    assert not contains(A, L1_SEQ, Vector(((1, math.nan), (2, 1.0))))


# the pairs that achieve the l1 example's distance 2: configs/l1_kannan.json's candidates
L1_NAMED_PAIRS = [
    (basis(1) + basis(2), basis(2) + basis(3)),
    ((basis(1) + basis(2)).scale(0.5) + (basis(3) + basis(4)).scale(0.5), basis(2) + basis(3)),
]


def test_l1_example_sets_declared_distance():
    A, B = l1_example_sets()
    d = builtin("l1_kannan").declared_dist
    assert d == 2.0
    for a, b in L1_NAMED_PAIRS:
        assert contains(A, L1_SEQ, a)
        assert contains(B, L1_SEQ, b)
        assert norm(L1_SEQ, a - b) == d


def test_l1_example_witnesses_are_the_named_pairs():
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "l1_kannan.json"))
    assert cfg.candidates == L1_NAMED_PAIRS


def test_paired_block_sample_members():
    A = paired_block_hull(1, "A")
    for v in sample(A, L1_SEQ, 40, seed=1):
        assert contains(A, L1_SEQ, v)
        # convex combinations of unit-sum blocks keep total mass 2
        assert norm(L1_SEQ, v) == pytest.approx(2.0, abs=1e-9)


def reference_paired_block_draw(rng, offset):
    """One paired-block draw through the stdlib calls it stands for."""
    k = rng.randint(1, 4)
    blocks = rng.sample(range(1, 7), k)
    weights = stdlib_simplex_weights(rng, k)
    coords = []
    for n, w in sorted(zip(blocks, weights)):
        if w != 0.0:
            coords += ((2 * n - 2 + offset, w), (2 * n - 1 + offset, w))
    return Vector(tuple(coords))


@pytest.mark.parametrize("offset", [1, 2])
def test_paired_block_draws_consume_the_stream_as_the_stdlib_calls_do(offset):
    draw = paired_block_hull(offset, "S").sampler
    for seed in range(200):
        rng, ref = random.Random(f"sample:{seed}"), random.Random(f"sample:{seed}")
        for _ in range(200):
            assert draw(rng) == reference_paired_block_draw(ref, offset)
        assert rng.getstate() == ref.getstate()


# ---------------------------------------------------------------------------
# membership on rows

MEMBER_TOL = 1e-6
HULL_EDGE = Hull((Vector.dense([0.0, 0.0]), Vector.dense([2.0, 0.0]), Vector.dense([0.0, 2.0])))
# (set, space, boundary point, outward direction, whether an inward step stays in)
BOUNDARY_CASES = {
    "box": (Box((1.0, -1.0), (2.0, 3.0)), R2, [2.0, 0.5], [1.0, 0.0], True),
    "hull-dense": (HULL_EDGE, R2, [1.0, 1.0], [0.5 ** 0.5] * 2, True),
    "hull-sequence": (HULL_EDGE, NormedSpaceSpec("l2", "sequence", None), [1.0, 1.0],
                      [0.5 ** 0.5] * 2, True),
    # total weight 1 + delta: off the set on either side
    "paired-blocks-dense": (paired_block_hull(1, "odd"), NormedSpaceSpec("l1", "dense", 6),
                            [0.0, 0.5, 0.5, 0.5, 0.5], [0.0, 1.0, 1.0, 0.0, 0.0], False),
    "paired-blocks-sequence": (paired_block_hull(1, "odd"), L1_SEQ, [0.0, 0.5, 0.5, 0.5, 0.5],
                               [0.0, 1.0, 1.0, 0.0, 0.0], False),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_CASES))
def test_member_test_on_rows_is_contains(name):
    S, space, base, out, inward_in = BOUNDARY_CASES[name]
    row, _ = row_kernel(space)
    inside = member_test(S, space, MEMBER_TOL)
    for k in (0.0, 0.5, -0.5, 3.0, -3.0):
        v = Vector.dense([b + k * MEMBER_TOL * o for b, o in zip(base, out)])
        want = k <= 1.0 if inward_in else abs(k) <= 1.0
        assert contains(S, space, v, MEMBER_TOL) is want, k
        assert inside(row(v)) is want, k


def test_a_point_with_a_non_finite_coordinate_is_in_no_hull(capfd):
    # refused before any least-squares solve, which LAPACK cannot run on a
    # nan or an infinity
    for point in ([math.nan, 0.5], [math.inf, 0.5], [0.5, -math.inf]):
        assert contains(HULL_EDGE, R2, Vector.dense(point)) is False, point
        assert member_test(HULL_EDGE, R2, TOL_NUM)(point) is False, point
    # in a sequence space, on the vertex support and off it
    seq = NormedSpaceSpec("l2", "sequence", None)
    for coords in ({0: math.nan, 1: 0.5}, {0: 0.5, 5: math.nan}, {0: 0.5, 5: math.inf},
                   {0: 0.5, 5: math.nan, 6: -math.inf}):
        assert contains(HULL_EDGE, seq, Vector.from_map(coords)) is False, coords
    assert capfd.readouterr().err == ""


def test_a_nan_image_leaves_a_box_and_a_hull_alike():
    # the interval pair as boxes and as hulls of their end points: a map
    # whose image is nan leaves either pair the same way
    nan_map = RowEvaluator(lambda rx, ry, side: [math.nan], 1)
    hulls = tuple(Hull(tuple(map(Vector.dense, ends))) for ends in
                  (([1.0], [2.0]), ([-2.0], [-1.0])))
    seen = []
    for A, B in ((A_BOX, B_BOX), hulls):
        T = replace(builtin("interval_contraction"), A=A, B=B, evaluator=nan_map)
        traj = run(T, Vector.dense([1.5]), Vector.dense([-1.5]), StopRule(max_iters=10))
        rep = check_cyclic_invariance(T, 20, seed=3)
        seen.append((traj.stop_reason, traj.error_index, traj.n_points,
                     rep.status, rep.checked, len(rep.violations)))
    assert seen[0] == seen[1] == ("domain_error", 1, 1, "failed", 40, 40)


def short_row_map(space):
    """The 2-D boxes [1,2]x[0,1] and [-2,-1]x[0,1] under a row form that
    returns one coordinate: [-1.5] into B, [1.5] into A."""
    rows = RowEvaluator(lambda rx, ry, side: [1.5 if side == SIDE_BA else -1.5], 2)
    return CyclicMapSpec("short_rows", space, Box((1.0, 0.0), (2.0, 1.0)),
                         Box((-2.0, 0.0), (-1.0, 1.0)), rows)


@pytest.mark.parametrize("norm_name", ["l2", "l1"])
def test_a_row_of_the_wrong_length_leaves_every_box(norm_name):
    # map stops at the shorter argument: the box test must compare lengths
    T = short_row_map(NormedSpaceSpec(norm_name, "dense", 2))
    traj = run(T, Vector.dense([1.5, 0.5]), Vector.dense([-1.5, 0.5]), StopRule(max_iters=10))
    assert (traj.stop_reason, traj.error_index, traj.n_points) == ("domain_error", 1, 1)
    rep = check_cyclic_invariance(T, 20, seed=3)
    assert (rep.status, rep.checked, len(rep.violations)) == ("failed", 40, 40)
    inside = member_test(T.A, T.space, TOL_NUM)
    assert inside([1.5, 0.5]) and not inside([1.5]) and not inside([1.5, 0.5, 0.0])


def test_a_row_of_the_wrong_length_is_in_no_hull():
    # numpy would broadcast a short row against every vertex
    R3 = NormedSpaceSpec("l2", "dense", 3)
    simplex = Hull((Vector(), *(basis(i).scale(2.0) for i in range(3))))
    inside = member_test(simplex, R3, TOL_NUM)
    assert inside([0.5, 0.5, 0.5])
    assert not inside([0.5]) and not inside([0.5, 0.5]) and not inside([0.5, 0.5, 0.5, 0.0])
    # a hull off part of the space pads the row's Vector, which dropped the missing coordinate
    edge = member_test(Hull((basis(0), basis(1))), R3, TOL_NUM)
    assert edge([0.5, 0.5, 0.0]) and not edge([0.5, 0.5])


@pytest.mark.parametrize("space", [NormedSpaceSpec("l1", "dense", 2),
                                   NormedSpaceSpec("linf", "dense", 2),
                                   NormedSpaceSpec("lp", "dense", 2, p=3.0),
                                   NormedSpaceSpec("l2", "dense", 2)], ids=lambda s: s.norm)
def test_a_dense_gap_refuses_rows_of_unequal_length(space):
    _, gap = row_kernel(space)
    assert gap([1.0, 2.0], [1.0, 0.0]) == norm(space, Vector.dense([0.0, 2.0]))
    for a, b in (([1.0, 2.0], [1.0]), ([1.0], [1.0, 2.0]), ([], [1.0])):
        with pytest.raises(ValueError, match="same number of dimensions"):
            gap(a, b)


@pytest.mark.parametrize("mode,off", [("sequence", 7), ("dense", 0)])
def test_query_off_the_vertex_support(mode, off):
    # the hull lies on coordinates 1 and 2; a step of k tol along coordinate
    # off leaves each point at distance k tol from it
    sp = NormedSpaceSpec("l2", mode, 3 if mode == "dense" else None)
    hull = Hull((Vector.from_map({1: 1.0}), Vector.from_map({2: 2.0}),
                 Vector.from_map({1: 2.0, 2: 2.0})))
    row, _ = row_kernel(sp)
    inside = member_test(hull, sp, MEMBER_TOL)
    for base in ({1: 1.0}, {1: 0.5, 2: 1.0}, {1: 1.5, 2: 1.5}):
        for k, want in ((0.5, True), (2.0, False)):
            v = Vector.from_map({**base, off: k * MEMBER_TOL})
            assert contains(hull, sp, v, MEMBER_TOL) is want, (base, k)
            assert inside(row(v)) is want, (base, k)
