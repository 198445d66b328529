"""Convex sets and the distance between a pair of them.

Three set variants: coordinate boxes, finitely generated hulls, and
declared sets (membership predicate plus sampler, for sets that are not
finitely generated).  check_set is the one test of a set against a space.
dist returns its witnesses as a space.ProductPoint and picks its method
from the norm: an exact non-negative least-squares (NNLS) solve for l2, its
columns scaled by a power of two, else projected subgradient descent for
l1/linf from seed 0, not converged.  Its starts are the rows of one batch,
and two sides of one kind and width advance as one batch over a side axis:
each step moves, projects and measures both at once.  lp is refused; a map
declares the distance of sets dist cannot solve (CyclicMapSpec.declared_dist).

Hull membership is the same NNLS solve, on vertices packed once per hull,
after the vertex centroid: the centroid's gap to x is tried first with the
solve's two certificates (within tol, or a separating hyperplane), which
turns most outside points away before any solve and costs a member one
matrix-vector product; a correct map's run, cyclic invariance and certify
ask only about members, so they pay it.  A step is one least-squares solve
with each sum-to-one constraint eliminated at a reference column, and the
residual is measured directly, not through a Gram matrix; its length is
taken by math.hypot, so a gap far below the vertices' scale does not
underflow to 0.  Containment in a hull is norm independent, so it is always
decided in l2 coordinates, on half of V - x so that it cannot overflow; a
point with a nan or infinite coordinate is in no hull.  Only the solvers
and hull draws import numpy.

Every set kind is drawn (sample_rows) and tested (member_test) on
space.row_kernel rows, and space converts rows and Vectors: contains is
member_test on a Vector's row, sample is sample_rows' draw as Vectors.  A
hull is drawn from its packed rows, added vertex by vertex so that each
coordinate sums left to right.  In a dense space a row whose length is not
the dimension is in no box and no hull.  Hull and paired-block draws take
their weights from the one _simplex_weights.  Only this module tells the
set kinds apart; it does no Vector arithmetic.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import le
from typing import TYPE_CHECKING, Any, Callable

from .space import (TOL_NUM, NormedSpaceSpec, ProductPoint, Vector, l1_sum, pack,
                    row_kernel, row_vector, unpack)

if TYPE_CHECKING:
    import numpy as np


class SetsError(ValueError):
    pass


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: lower[i] <= v[i] <= upper[i], dense mode only."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise SetsError("lower/upper length mismatch")
        if not self.lower:
            raise SetsError("empty box")
        for lo, hi in zip(self.lower, self.upper):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise SetsError(f"box bounds must be finite, got [{lo}, {hi}]")
            if lo > hi:
                raise SetsError(f"empty interval [{lo}, {hi}]")


@dataclass(frozen=True)
class Hull:
    """Convex hull of finitely many vertices."""

    vertices: tuple[Vector, ...]

    def __post_init__(self):
        if not self.vertices:
            raise SetsError("hull needs at least one vertex")
        for v in self.vertices:
            if not all(math.isfinite(x) for _, x in v.coords):
                raise SetsError(f"hull vertex coordinates must be finite, got {dict(v.coords)}")

    @cached_property
    def packed(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """space.pack of the vertices over their own support, once per hull."""
        return pack(self.vertices, NormedSpaceSpec(mode="sequence", dimension=None))

    @cached_property
    def halved(self) -> np.ndarray:
        """packed's vertex rows halved, as hull membership reads them (_in_hull)."""
        return 0.5 * self.packed[0]


@dataclass(frozen=True)
class DeclaredSet:
    """Set given by a membership predicate and a sampler.

    member(v, tol) decides membership with coordinate slack tol; sampler(rng)
    draws one element.  Used for sets with infinitely many generators.
    """

    label: str
    member: Callable[[Vector, float], bool]
    sampler: Callable[[random.Random], Vector]


ConvexSet = Box | Hull | DeclaredSet


@dataclass(frozen=True)
class DistResult:
    value: float
    witness: ProductPoint
    method: str
    converged: bool


def check_set(S: ConvexSet, space: NormedSpaceSpec) -> None:
    """Raise unless S can live in space: a box needs a dense space of its
    dimension, and every hull vertex must lie in the space (DimensionMismatch,
    read off Hull.packed's index)."""
    if isinstance(S, Box):
        if space.mode != "dense":
            raise SetsError("box sets need a dense space")
        if len(S.lower) != space.dimension:
            raise SetsError("box dimension does not match the space")
    elif isinstance(S, Hull) and space.mode == "dense":
        index = S.packed[1]
        if index and index[-1] >= space.dimension:
            for v in S.vertices:
                space.validate(v)


# ---------------------------------------------------------------------------
# non-negative least squares

def _scaled(M: np.ndarray) -> tuple[np.ndarray, int]:
    """(M / 2^e, e) for e the binary exponent of M's largest |entry|: exact, and
    the squares of an NNLS solve neither overflow nor underflow to 0."""
    import numpy as np
    e = math.frexp(np.abs(M).max())[1]
    return np.ldexp(M, -e), e


def _nnls(C: np.ndarray, group: np.ndarray):
    """Iterates of min ||C z|| over z >= 0 whose entries in each group sum
    to one, by the active-set method of Lawson and Hanson (Solving Least
    Squares Problems, 1974, ch. 23).

    Starts from each group's first entry, its reference.  Each step frees
    the fixed entry whose dual value -C^T C z most exceeds its reference's,
    then moves toward the least-squares point over the free entries, fixing
    at zero each one that would turn negative.  A change of a free entry is
    taken back at its reference, keeping the group sums, so the move is one
    least-squares solve over the columns less their reference's.  Yields
    each iterate z, all feasible, with its residual C z; the last is the
    solution.  Stops when no entry gains or the residual stops falling.
    """
    import numpy as np
    entry = np.arange(len(group))
    ref = np.argmax(group == group[:, None], axis=1)  # each entry's reference
    free = ref == entry
    z = free.astype(float)
    y = C @ z
    resid = y @ y
    yield z, y
    for _ in range(3 * len(z)):
        grad = C.T @ y
        gain = grad[ref] - grad
        gain[free] = -np.inf
        j = int(gain.argmax())
        if gain[j] <= 0.0:
            return
        free[j] = True
        while True:
            F = np.flatnonzero(free & (ref != entry))
            t = np.linalg.lstsq(C[:, F] - C[:, ref[F]], y, rcond=None)[0]
            s = z.copy()
            s[F] -= t
            np.add.at(s, ref[F], t)
            neg = free & (s < 0.0)
            if not neg.any():
                break
            ratio = np.full(len(z), np.inf)
            ratio[neg] = z[neg] / (z[neg] - s[neg])
            k = int(ratio.argmin())
            z = np.maximum(z + ratio[k] * (s - z), 0.0)
            z[k], free[k] = 0.0, False
            if ref[k] == k:  # hand over to the group's largest free entry
                ref[ref == k] = np.where(free & (ref == k), z, -1.0).argmax()
            y = C @ z
        z, y = s, C @ s
        if y @ y >= resid:
            return
        resid = y @ y
        yield z, y


# ---------------------------------------------------------------------------
# containment

def _in_hull(half: np.ndarray, x: list[float], tol: float) -> bool:
    """Whether x is within l2 distance tol of the hull of the rows of V = 2 half;
    a point with a nan or infinite coordinate is in no hull.

    D = half - x / 2 cannot overflow, and above 2^-1021 it is (V - x) / 2
    exactly, so D scaled by a power of two is V - x scaled.  Measures the gap
    r = D^T w of the centroid's weights, then of each _nnls iterate w,
    directly, and its length by math.hypot, which does not underflow.
    Accepts once |r| <= tol; rejects once every row d of D has d.r > tol |r|,
    a hyperplane separating x from the hull by more than tol.  Either holds
    for any weights; the centroid's separates most outside points without a
    solve, at one matrix-vector product's cost to a member.
    """
    if not all(map(math.isfinite, x)):
        return False
    import numpy as np
    D, e = _scaled(half - [0.5 * c for c in x])
    tol = math.ldexp(tol, -e - 1)
    centroid = D.sum(axis=0) / len(D)
    for _, r in chain([(None, centroid)], _nnls(D.T, np.zeros(len(D), dtype=np.intp))):
        gap = math.hypot(*r.tolist())
        if gap <= tol:
            return True
        if (D @ r).min() > tol * gap:
            return False
    return False


def contains(S: ConvexSet, space: NormedSpaceSpec, v: Vector, tol: float = TOL_NUM) -> bool:
    """Membership of v in S within slack tol."""
    return member_test(S, space, tol)(row_kernel(space)[0](v))


def member_test(S: ConvexSet, space: NormedSpaceSpec, tol: float) -> Callable[[Any], bool]:
    """Membership in S within tol of the vector with the given row
    (space.row_kernel), as contains decides it.  In a dense space a row whose
    length is not the dimension is in no box and no hull.  Off a hull's vertex
    support, a row's coordinates are one direction orthogonal to the hull:
    their norm is one more coordinate, 0 at every vertex."""
    vector = row_vector(space)
    check_set(S, space)
    if isinstance(S, DeclaredSet):
        return lambda r: bool(S.member(vector(r), tol))
    if isinstance(S, Box):
        lo, hi = [a - tol for a in S.lower], [b + tol for b in S.upper]
        n = len(lo)
        return lambda r: len(r) == n and all(map(le, lo, r)) and all(map(le, r, hi))
    import numpy as np
    half, index = S.halved, S.packed[1]
    n = space.dimension  # None in a sequence space, whose rows are Vectors
    if len(index) == n:
        return lambda r: len(r) == n and _in_hull(half, r, tol)
    half = np.hstack([half, np.zeros((len(half), 1))])

    def test(r) -> bool:
        if n is not None and len(r) != n:
            return False
        rest = dict(vector(r).coords)
        x = [rest.pop(j, 0.0) for j in index]
        return _in_hull(half, [*x, math.hypot(*rest.values())], tol)

    return test


# ---------------------------------------------------------------------------
# sampling

def _simplex_weights(rng: random.Random, k: int) -> list[float]:
    """k weights uniform on the simplex: the spacings of k - 1 sorted rng.random()
    cuts.  One weight draws no cut and two draw one, with no sort."""
    if k == 1:
        return [1.0]
    if k == 2:
        r = rng.random()
        return [r, 1.0 - r]
    at = sorted([rng.random() for _ in range(k - 1)])
    at.append(1.0)
    return [at[0], *map(float.__sub__, at[1:], at)]


def sample_rows(S: ConvexSet, space: NormedSpaceSpec, n: int, seed: int = 0) -> list:
    """The space.row_kernel rows of n elements of S, deterministic per seed;
    a draw of k < n is its prefix.  A hull's draws add its packed, weighted
    vertex rows vertex by vertex, so each coordinate sums left to right from
    0.0, bit for bit the sum of the scaled vertex Vectors.  In a dense space
    those sums are put at the packed index of a zero row: a sum starts at
    +0.0 and only adds products, so it is never -0.0, and its zeros are the
    0.0 that a dense row has where the Vector sum has no coordinate."""
    check_set(S, space)
    rng = random.Random(f"sample:{seed}")
    if isinstance(S, Box):
        spans = [(lo, hi - lo) for lo, hi in zip(S.lower, S.upper)]
        return [[lo + rng.random() * w for lo, w in spans] for _ in range(n)]
    if isinstance(S, Hull):
        import numpy as np
        V, index = S.packed
        W = np.array([_simplex_weights(rng, len(V)) for _ in range(n)])
        X = np.zeros((n, len(index)))
        for w, v in zip(W.T, V):  # not @ or np.add.reduce, which reorder the sum
            X += w[:, None] * v
        if space.mode == "dense":
            rows = np.zeros((n, space.dimension))
            rows[:, index] = X
            return rows.tolist()
        draws = (unpack(x, index) for x in X.tolist())
    else:
        draws = (S.sampler(rng) for _ in range(n))
    return list(map(row_kernel(space)[0], draws))


def sample(S: ConvexSet, space: NormedSpaceSpec, n: int, seed: int = 0) -> list[Vector]:
    """sample_rows' draw of n elements of S as Vectors."""
    return list(map(row_vector(space), sample_rows(S, space, n, seed)))


# ---------------------------------------------------------------------------
# distance between two sets

def _prepare_pair(A: ConvexSet, B: ConvexSet, space: NormedSpaceSpec):
    """The coordinate index over both sets' support, and each set as
    (kind, data): a hull's packed vertices over it or a box's (lower, upper)."""
    import numpy as np
    for S in (A, B):
        check_set(S, space)
    supports = [S.packed[1] for S in (A, B) if isinstance(S, Hull)]
    index = set(range(space.dimension)) if space.mode == "dense" else set()
    index = tuple(sorted(index.union(*supports)))

    def prepare(S):
        if isinstance(S, Hull):
            V, own = S.packed
            data = np.zeros((len(V), len(index)))
            data[:, np.searchsorted(index, own)] = V
            return "hull", data
        if isinstance(S, Box):
            return "box", (np.array(S.lower, dtype=float), np.array(S.upper, dtype=float))
        raise SetsError("dist needs box or hull sets")

    return index, prepare(A), prepare(B)


def _cone(kind: str, data) -> tuple[np.ndarray, np.ndarray]:
    """A prepared set as (C, group): the points C z over z >= 0 whose
    entries in each group sum to one.  A hull has one group, its vertex
    weights; a box has one per coordinate i, the weights of lower_i e_i
    and upper_i e_i."""
    import numpy as np
    if kind == "hull":
        return data.T, np.zeros(len(data), dtype=int)
    lo, hi = data
    return np.hstack([np.diag(lo), np.diag(hi)]), np.tile(np.arange(len(lo)), 2)


def _nnls_distance(A: ConvexSet, B: ConvexSet, space: NormedSpaceSpec):
    """l2 distance as one NNLS over both sets' weights, minimising
    |C_A z_A - C_B z_B|.  The witnesses are feasible and the value is
    their distance in space's norm, row_kernel's gap on their rows."""
    import numpy as np
    index, pa, pb = _prepare_pair(A, B, space)
    (Ca, ga), (Cb, gb) = _cone(*pa), _cone(*pb)
    C, _ = _scaled(np.hstack([Ca, -Cb]))
    *_, (z, _) = _nnls(C, np.concatenate([ga, gb + ga.max() + 1]))
    a, b = (unpack(w.tolist(), index) for w in (Ca @ z[:len(ga)], Cb @ z[len(ga):]))
    row, gap = row_kernel(space)
    return gap(row(a), row(b)), ProductPoint(a, b)


def _subgrad_distance(A: ConvexSet, B: ConvexSet, space: NormedSpaceSpec, seed: int,
                      n_starts: int = 6, iters: int = 2500):
    """Projected subgradient descent on |a - b| over hull weights and box
    coordinates, its n_starts starts advanced together as rows.  Each start
    keeps its best iterate; the first start with the least value wins.  Two
    sides of one kind and width form one batch over a leading side axis, so
    each step moves, projects and places both at once; otherwise each side
    is a batch of its own."""
    import numpy as np
    index, (ka, da), (kb, db) = _prepare_pair(A, B, space)
    rng = np.random.default_rng(seed)

    def init(kind, data):
        w = rng.random(len(data) if kind == "hull" else len(data[0]))
        return w / w.sum() if kind == "hull" else data[0] + w * (data[1] - data[0])

    def batch(kind, datas):
        """move(P, step, G) and point(P) of sides of one kind, stacked on a leading axis."""
        if kind == "box":
            lo, hi = (np.stack(bound)[:, None] for bound in zip(*datas))
            return lambda P, step, G: np.clip(P + step * G, lo, hi), lambda P: P
        D = np.stack(datas)[:, None]  # C-contiguous items, which matmul hands to BLAS
        Dt, width = D.swapaxes(-1, -2), D.shape[2]
        ranks, at = np.arange(1.0, width + 1), np.ix_(range(len(D)), range(n_starts))

        def move(P, step, G):  # a step along D G, then each row's sort-based simplex projection
            W = P + step * np.matmul(D, G[..., None])[..., 0]
            u = np.sort(W)[..., ::-1]
            css = u.cumsum(-1) - 1.0
            rho = (width - 1) - (u - css / ranks > 0)[..., ::-1].argmax(-1)  # last positive index
            return np.maximum(W - (css[(*at, rho)] / (rho + 1.0))[..., None], 0.0)

        return move, lambda P: np.matmul(Dt, P[..., None])[..., 0]

    def place(Ps):
        pts = [point(P) for point, P in zip(points, Ps)]
        return pts[0] if len(pts) == 1 else np.concatenate(pts)  # one batch: no copy

    top = np.arange(len(index))

    def measure(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's norm, space.norm's bit for bit (a zero adds nothing), and a subgradient."""
        if space.norm == "linf":
            size = np.abs(W)
            return (size.max(axis=1, initial=0.0),
                    np.where(top == size.argmax(axis=1)[:, None], np.sign(W), 0.0))
        return np.array([l1_sum(w) for w in W.tolist()], dtype=float), np.sign(W)

    PA, PB = map(np.array, zip(*[(init(ka, da), init(kb, db)) for _ in range(n_starts)]))
    # a box's data is (lower, upper), so two boxes always form one batch
    parts = [slice(0, 2)] if ka == kb and len(da) == len(db) else [slice(0, 1), slice(1, 2)]
    moves, points = zip(*(batch((ka, kb)[s.start], (da, db)[s]) for s in parts))
    Ps = [np.stack((PA, PB)[s]) for s in parts]
    cur = place(Ps)
    best, G = measure(cur[0] - cur[1])
    best_pts, spread = cur.copy(), (best + 1.0)[:, None]
    signed = np.stack([-spread, spread])
    for k in range(1, iters + 1):
        step = signed / math.sqrt(k)
        Ps = [move(P, step[s], G) for move, P, s in zip(moves, Ps, parts)]
        cur = place(Ps)
        val, G = measure(cur[0] - cur[1])
        up = val < best
        np.copyto(best, val, where=up)
        np.copyto(best_pts, cur, where=up[:, None])
    i = int(best.argmin())
    a, b = (unpack(P[i].tolist(), index) for P in best_pts)
    return float(best[i]), ProductPoint(a, b)


def dist(A: ConvexSet, B: ConvexSet, space: NormedSpaceSpec) -> DistResult:
    """Distance between A and B with an achieving (or near-achieving) witness.

    The method follows from the norm: "nnls" for l2 over box/hull pairs
    (exact), else "subgradient" for l1/linf over box/hull pairs (multi start
    from seed 0, never converged).  lp is refused.
    """
    if space.norm == "l2":
        return DistResult(*_nnls_distance(A, B, space), "nnls", True)
    if space.norm == "lp":
        raise SetsError("dist has no solver for lp; declare the distance on the map")
    return DistResult(*_subgrad_distance(A, B, space, 0), "subgradient", False)


# ---------------------------------------------------------------------------
# the summable-sequence example pair: hulls of paired basis blocks

def _paired_block_member(offset: int) -> Callable[[Vector, float], bool]:
    def member(v: Vector, tol: float) -> bool:
        blocks: dict[int, list[float]] = {}
        for j, val in v.coords:
            if j < offset:
                if not abs(val) <= tol:
                    return False
                continue
            m = j - offset
            slot = blocks.setdefault(m // 2, [0.0, 0.0])
            slot[m % 2] = val
        total = 0.0
        for a, b in blocks.values():
            if abs(a - b) > tol or a < -tol or b < -tol:
                return False
            total += 0.5 * (a + b)
        return abs(total - 1.0) <= tol

    return member


MAX_BLOCK = 6  # the paired-block sampler draws its blocks from 1 .. MAX_BLOCK


def _paired_block_sampler(offset: int) -> Callable[[random.Random], Vector]:
    """Draws of 1 to 4 distinct blocks n in 1 .. MAX_BLOCK with weights
    uniform on the simplex, weight w putting w at 2n - 2 + offset and
    2n - 1 + offset.  A draw of k blocks consumes rng as randint(1, 4),
    sample(range(1, MAX_BLOCK + 1), k) and _simplex_weights(rng, k) would in
    turn, and gives their values.  It calls _simplex_weights itself, but
    getrandbits for randint and sample's pool swaps: each draws below n by
    taking n.bit_length() bits until they are below n."""
    swaps = [(n, n.bit_length()) for n in range(MAX_BLOCK, 0, -1)]
    blocks_in_order = list(range(1, MAX_BLOCK + 1))
    pair_at = [(2 * n - 2 + offset, 2 * n - 1 + offset) for n in range(MAX_BLOCK + 1)]

    def sampler(rng: random.Random) -> Vector:
        bits = rng.getrandbits
        cuts = bits(3)  # randint(1, 4) - 1, the number of cuts
        while cuts >= 4:
            cuts = bits(3)
        pool, blocks = blocks_in_order[:], []
        for n, b in swaps[:cuts + 1]:
            j = bits(b)
            while j >= n:
                j = bits(b)
            blocks.append(pool[j])
            pool[j] = pool[n - 1]
        coords = []  # the blocks are distinct, so in block order the indices ascend
        for n, w in sorted(zip(blocks, _simplex_weights(rng, cuts + 1))):
            if w != 0.0:
                i, j = pair_at[n]
                coords += ((i, w), (j, w))
        return Vector(tuple(coords))

    return sampler


def paired_block_hull(offset: int, label: str) -> DeclaredSet:
    """Closed hull of {e_(2n-2+offset) + e_(2n-1+offset) : n >= 1}.

    offset 1 gives the hull of e1+e2, e3+e4, ...; offset 2 gives the hull
    of e2+e3, e4+e5, ...  Membership decomposes the support into index
    blocks and checks equal nonnegative weights summing to one.
    """
    return DeclaredSet(label, _paired_block_member(offset), _paired_block_sampler(offset))


def l1_example_sets() -> tuple[DeclaredSet, DeclaredSet]:
    """The two paired-block hulls in the l1 sequence space, distance 2."""
    return paired_block_hull(1, "paired-blocks-odd"), paired_block_hull(2, "paired-blocks-even")
