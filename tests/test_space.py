"""Norm, product norm and convexity modulus tests.

The frozen values are hand computations; the hypothesis blocks cover the
norm axioms on sparse vectors with mixed supports.
"""
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from proxcycle import (
    DimensionMismatch,
    ModulusUnavailable,
    NormedSpaceSpec,
    ProductPoint,
    SpaceError,
    Vector,
    basis,
    convexity_modulus,
    norm,
    pair_distance,
)
from proxcycle.space import pack, row_kernel, row_vector, unpack

L1 = NormedSpaceSpec("l1", "sequence", None)
L2 = NormedSpaceSpec("l2", "sequence", None)
LINF = NormedSpaceSpec("linf", "sequence", None)
L2_2 = NormedSpaceSpec("l2", "dense", 2)


# ---------------------------------------------------------------- vectors

def test_vector_drops_zeros_and_sorts():
    v = Vector.from_map({5: 0.0, 2: 1.0, 9: -3.0})
    assert v.coords == ((2, 1.0), (9, -3.0))
    assert v.support() == (2, 9)
    assert v.value_at(5) == 0.0


def test_vector_arithmetic_cancels():
    v = basis(1) + basis(2)
    w = basis(2) + basis(3)
    assert (v - w).coords == ((1, 1.0), (3, -1.0))
    assert (v - v) == Vector()
    assert (v.scale(2.0)).value_at(1) == 2.0


def test_vector_rejects_negative_index():
    with pytest.raises(SpaceError):
        Vector.from_map({-1: 1.0})


def test_dense_round_trip():
    v = Vector.dense([3.0, 0.0, -4.0])
    assert v.coords == ((0, 3.0), (2, -4.0))


# ------------------------------------------------------------------ norms

def test_frozen_norm_values():
    # l1: e3 and e1 have disjoint support
    assert norm(L1, basis(3) - basis(1)) == 2.0
    # classic 3-4-5 triangle
    assert norm(L2, Vector.dense([3.0, 4.0])) == 5.0
    assert norm(LINF, Vector.dense([3.0, -4.0])) == 4.0
    assert norm(L1, Vector()) == 0.0
    p3 = NormedSpaceSpec("lp", "sequence", None, p=3.0)
    assert norm(p3, Vector.dense([1.0, 1.0])) == pytest.approx(2.0 ** (1.0 / 3.0))


@pytest.mark.parametrize("space,values,want", [
    (NormedSpaceSpec("l1", "dense", 10), [0.1] * 10, 0.9999999999999999),
    (L1, [0.1] * 10, 0.9999999999999999),
    (NormedSpaceSpec("lp", "dense", 6, p=3.0), [1.0] + [0.1] * 5, 1.0016638965793119),
], ids=["l1-dense", "l1-sequence", "lp"])
def test_l1_and_lp_add_their_terms_left_to_right(space, values, want):
    # builtin sum compensates float sums since CPython 3.12, which gives 1.0
    # and 1.001663896579312 here; the norm must not depend on the version,
    # and row_kernel's gap is the norm's sum
    v = Vector.dense(values)
    assert norm(space, v) == want
    row, gap = row_kernel(space)
    assert gap(row(v), row(Vector())) == want
    assert gap(row(Vector()), row(v)) == want


def test_the_l1_sequence_gap_adds_its_terms_in_merge_order():
    # ten terms of 0.1 from indices that interleave, one cancelled shared
    # index between them and a tail of b's: the merge takes both branches,
    # the shared one and either tail, and sums left to right as l1_sum does
    u = Vector.from_map({0: 0.1, 2: -0.1, 4: 0.7, 5: 0.1, 7: 0.1})
    v = Vector.from_map({1: 0.1, 3: -0.1, 4: 0.7, 6: 0.1, 8: 0.1, 9: -0.1, 10: 0.1})
    _, gap = row_kernel(L1)
    assert gap(u, v) == gap(v, u) == norm(L1, u - v) == 0.9999999999999999
    # 1.0 first absorbs each 1e-16; two of them added before it give more
    u = Vector.from_map({1: 1e-16, 3: 1e-16, 5: -1e-16})
    v = Vector.from_map({0: 1.0, 2: 1e-16, 4: -1e-16})
    assert gap(u, v) == gap(v, u) == norm(L1, u - v) == 1.0


def test_dense_mode_rejects_out_of_range_support():
    with pytest.raises(DimensionMismatch):
        norm(L2_2, basis(7))


@pytest.mark.parametrize("dimension", [2.0, 2.5, True, None, 0])
def test_a_dense_dimension_must_be_a_positive_integer(dimension):
    # otherwise 2.0 loads and contains raises TypeError making a dense row
    with pytest.raises(SpaceError, match="integer dimension >= 1"):
        NormedSpaceSpec("l2", "dense", dimension)


coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)
sparse = st.dictionaries(st.integers(min_value=0, max_value=40), coord, max_size=8).map(
    Vector.from_map)


@settings(max_examples=200)
@given(sparse, sparse)
def test_triangle_inequality(v, w):
    for sp in (L1, L2, LINF):
        assert norm(sp, v + w) <= norm(sp, v) + norm(sp, w) + 1e-7


@settings(max_examples=200)
@given(sparse, st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_absolute_homogeneity(v, a):
    for sp in (L1, L2, LINF):
        assert norm(sp, v.scale(a)) == pytest.approx(abs(a) * norm(sp, v), abs=1e-6)


@settings(max_examples=200)
@given(sparse)
def test_norm_separates_points(v):
    for sp in (L1, L2, LINF):
        assert (norm(sp, v) == 0.0) == (v == Vector())


@settings(max_examples=150)
@given(sparse, sparse)
def test_norm_order_l_inf_below_l2_below_l1(v, w):
    u = v - w
    assert norm(LINF, u) <= norm(L2, u) + 1e-9
    assert norm(L2, u) <= norm(L1, u) + 1e-9


# ---------------------------------------------------------- product space

def test_pair_distance_from_the_origin_is_the_larger_component_norm():
    origin = ProductPoint(Vector(), Vector())
    p = ProductPoint(Vector.dense([3.0, 4.0]), Vector.dense([1.0, 1.0]))
    assert pair_distance(L2_2, p, origin) == 5.0
    q = ProductPoint(Vector.dense([0.0, 0.0]), Vector.dense([0.0, 7.0]))
    assert pair_distance(L2_2, q, origin) == 7.0


def test_pair_distance_matches_difference_norm():
    p = ProductPoint(basis(1), basis(2))
    q = ProductPoint(basis(3), basis(2))
    assert pair_distance(L1, p, q) == 2.0
    assert pair_distance(L1, p, p) == 0.0


# -------------------------------------------------------- convexity modulus

def test_modulus_frozen_values():
    # delta(eps) = 1 - sqrt(1 - (eps/2)^2)
    assert convexity_modulus(L2, 2.0) == pytest.approx(1.0)
    assert convexity_modulus(L2, math.sqrt(2.0)) == pytest.approx(1.0 - math.sqrt(0.5))
    assert convexity_modulus(L2, 1.0) == pytest.approx(1.0 - math.sqrt(0.75))


def test_modulus_strictly_increasing_on_grid():
    eps = [0.01 * k for k in range(1, 201)]
    vals = [convexity_modulus(L2, e) for e in eps]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v > 0.0 for v in vals)


def test_modulus_domain_and_availability():
    with pytest.raises(SpaceError):
        convexity_modulus(L2, 0.0)
    with pytest.raises(SpaceError):
        convexity_modulus(L2, 2.5)
    with pytest.raises(ModulusUnavailable):
        convexity_modulus(L1, 1.0)
    with pytest.raises(ModulusUnavailable):
        convexity_modulus(LINF, 1.0)
    with pytest.raises(ModulusUnavailable):
        convexity_modulus(NormedSpaceSpec("lp", "sequence", None, p=3.0), 1.0)


def test_l2_spaces_report_modulus_available():
    assert L2.modulus_available
    assert not L1.modulus_available
    assert not LINF.modulus_available


# ------------------------------------------------------------ row kernel

SPECIALS = [0.0, -0.0, 1e308, -1e308, 5e-324, -1e-310, 2.2250738585072014e-308, math.nan]


def kernel_vectors(rng, d, offset, n=40):
    """Vectors with d coordinates (over indices 0 .. 15 when d is None):
    offset plus noise at mixed scales, with zero rows, 1e308 entries whose
    differences overflow, subnormals and NaN mixed in."""
    out = [Vector()]
    for _ in range(n):
        idx = range(d) if d is not None else sorted(rng.sample(range(16), rng.randint(1, 6)))
        vals = [offset + rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 3) for _ in idx]
        for k in range(len(vals)):
            if rng.random() < 0.15:
                vals[k] = rng.choice(SPECIALS)
            elif rng.random() < 0.15:
                vals[k] = 0.0
        out.append(Vector.from_map(dict(zip(idx, vals))))
    return out


def non_finite_vectors(vs, d):
    """The finite vectors of vs with a nan, inf or -inf put at the first,
    middle and last of their coordinates: range(d), or their support."""
    out = []
    for v in vs:
        idx = list(range(d)) if d is not None else list(v.support())
        if not idx or not all(math.isfinite(x) for _, x in v.coords):
            continue
        for value in (math.nan, math.inf, -math.inf):
            for i in sorted({idx[0], idx[len(idx) // 2], idx[-1]}):
                out.append(Vector.from_map({**dict(v.coords), i: value}))
    return out


@pytest.mark.parametrize("norm_name,p", [("l1", None), ("l2", None), ("lp", 3.0), ("linf", None)])
@pytest.mark.parametrize("d", [1, 3, 12, None])
@pytest.mark.parametrize("offset", [0.0, 2.5, 1000.0])
def test_row_kernel_gap_is_the_difference_norm(norm_name, p, d, offset):
    space = NormedSpaceSpec(norm_name, "dense" if d else "sequence", d, p)
    row, gap = row_kernel(space)
    rng = random.Random(f"{norm_name}:{d}:{offset}")
    vs = kernel_vectors(rng, d, offset)
    rows = [row(v) for v in vs]
    for u, ru in zip(vs, rows):
        for v, rv in zip(vs, rows):
            want, got = norm(space, u - v), gap(ru, rv)
            assert got == want or (math.isnan(got) and math.isnan(want)), (u, v)
    # a gap that reads a nan or infinite term is never finite, wherever the
    # term stands and whichever side it is on
    bad = non_finite_vectors(vs[:12], d)
    assert len(bad) >= 9
    for u in bad:
        ru = row(u)
        for v, rv in zip(vs, rows):
            for want, got in ((norm(space, u - v), gap(ru, rv)), (norm(space, v - u), gap(rv, ru))):
                assert got == want or (math.isnan(got) and math.isnan(want)), (u, v)
                assert not math.isfinite(got), (u, v)


def test_dense_row_refuses_an_index_past_the_dimension():
    row, _ = row_kernel(L2_2)
    assert row(Vector.dense([0.0, 3.0])) == [0.0, 3.0]
    with pytest.raises(DimensionMismatch):
        row(basis(2))


# ------------------------------------------------------------ formats

PACKED = [Vector.dense([1.5, 0.0, -2.0]), Vector(), basis(3).scale(0.25),
          Vector.dense([0.1, 0.2, 0.3, -0.4])]


@pytest.mark.parametrize("space,vs", [
    (NormedSpaceSpec("l2", "dense", 4), PACKED),
    (L1, PACKED + [Vector.from_map({9: -3.0, 2: 1e-300}), basis(40)]),
])
def test_unpack_inverts_pack(space, vs):
    values, index = pack(vs, space)
    assert index == tuple(sorted(set(range(space.dimension or 0)).union(
        *(v.support() for v in vs))))
    assert values.shape == (len(vs), len(index))
    row, _ = row_kernel(space)
    for i, v in enumerate(vs):
        got = unpack(values[i].tolist(), index)
        assert got == v and all(type(x) is float for _, x in got.coords)
        assert row_vector(space)(row(v)) == v


def test_pack_refuses_a_coordinate_at_or_past_the_dimension():
    for v in (basis(2), basis(7)):
        with pytest.raises(DimensionMismatch):
            pack([Vector.dense([1.0, 2.0]), v], L2_2)
