"""Convex sets and the distance between a pair of them.

Three set variants: coordinate boxes, finitely generated hulls, and
declared sets (membership predicate plus sampler, for sets that are not
finitely generated).  Distances come from a declared analytic value, a
Frank-Wolfe solve of the squared-l2 problem over the two weight
simplices, or a multi-start projected subgradient descent for l1/linf.

Hull membership is a convex-combination feasibility solve.  Containment
in a hull is norm independent, so the feasibility problem is always
solved in l2 coordinates regardless of the space's declared norm.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .space import TOL_NUM, NormedSpaceSpec, Vector, basis, norm

# witness must achieve the reported distance this tightly
TOL_DIST = 1e-8

FW_BUDGET = 100_000
FW_GAP_TOL = 1e-10


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
            if lo > hi:
                raise SetsError(f"empty interval [{lo}, {hi}]")


@dataclass(frozen=True)
class Hull:
    """Convex hull of finitely many vertices."""

    vertices: tuple[Vector, ...]

    def __post_init__(self):
        if not self.vertices:
            raise SetsError("hull needs at least one vertex")


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
class ProximalWitness:
    a_star: Vector
    b_star: Vector
    achieved: float


@dataclass(frozen=True)
class DeclaredDistance:
    """Trusted analytic distance with at least one achieving witness pair."""

    value: float
    witnesses: tuple[tuple[Vector, Vector], ...]


@dataclass(frozen=True)
class DistResult:
    value: float
    witness: ProximalWitness
    method: str
    approximate: bool
    converged: bool


# ---------------------------------------------------------------------------
# dense interop helpers

def _support_union(vectors: Sequence[Vector], space: NormedSpaceSpec) -> tuple[int, ...]:
    idx: set[int] = set()
    if space.mode == "dense":
        idx.update(range(space.dimension))
    for v in vectors:
        idx.update(v.support())
    return tuple(sorted(idx))


def _to_array(v: Vector, index: tuple[int, ...]) -> np.ndarray:
    pos = {j: k for k, j in enumerate(index)}
    out = np.zeros(len(index))
    for j, val in v.coords:
        out[pos[j]] = val
    return out


def _from_array(arr: np.ndarray, index: tuple[int, ...]) -> Vector:
    return Vector.from_map({j: float(x) for j, x in zip(index, arr)})


def _box_arrays(S: Box, space: NormedSpaceSpec, index: tuple[int, ...]):
    if space.mode != "dense":
        raise SetsError("box sets need a dense space")
    if len(S.lower) != space.dimension:
        raise SetsError("box dimension does not match the space")
    lo = _to_array(Vector.dense(S.lower), index)
    hi = _to_array(Vector.dense(S.upper), index)
    # indices beyond the box's own coordinates are pinned at zero
    for k, j in enumerate(index):
        if j >= len(S.lower):
            lo[k] = hi[k] = 0.0
    return lo, hi


# ---------------------------------------------------------------------------
# containment

def _hull_feasibility_gap(vertices: np.ndarray, x: np.ndarray, tol: float,
                          budget: int = 10_000) -> float:
    """Distance from x to the hull of the rows of `vertices` (l2).

    Accelerated projected gradient on the simplex weights.  Plain
    Frank-Wolfe stalls at 1/k rates when the nearest point sits inside a
    face, which is exactly the boundary-membership case; momentum plus
    simplex projection identifies the face and then converges fast.
    Stops early once membership at tol is decided either way.
    """
    k = vertices.shape[0]
    G = vertices @ vertices.T
    Vx = vertices @ x
    xx = float(np.dot(x, x))
    L = max(float(np.linalg.eigvalsh(G)[-1]), 1e-12)

    def half_sq(w: np.ndarray) -> float:
        # 0.5 * ||w @ vertices - x||^2 via the Gram matrix
        return max(0.5 * (float(w @ G @ w) - 2.0 * float(w @ Vx) + xx), 0.0)

    w = np.full(k, 1.0 / k)
    y, t = w.copy(), 1.0
    f = half_sq(w)
    accept = 0.5 * tol * tol
    for _ in range(budget):
        if f <= accept:
            break
        g = G @ y - Vx
        # Frank-Wolfe gap at y gives a valid lower bound on the optimum
        lower = half_sq(y) - (float(np.dot(g, y)) - float(g.min()))
        if lower > accept:
            return math.sqrt(2.0 * lower)
        w_new = _project_simplex(y - g / L)
        f_new = half_sq(w_new)
        if f_new > f:
            # momentum overshoot: restart from the best iterate
            y, t = w.copy(), 1.0
            continue
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = w_new + ((t - 1.0) / t_new) * (w_new - w)
        w, t, f = w_new, t_new, f_new
    return math.sqrt(2.0 * f)


def contains(S: ConvexSet, space: NormedSpaceSpec, v: Vector, tol: float = TOL_NUM) -> bool:
    """Membership of v in S within slack tol."""
    space.validate(v)
    if isinstance(S, Box):
        index = _support_union([v], space)
        lo, hi = _box_arrays(S, space, index)
        arr = _to_array(v, index)
        return bool(np.all(arr >= lo - tol) and np.all(arr <= hi + tol))
    if isinstance(S, Hull):
        index = _support_union(list(S.vertices) + [v], space)
        V = np.array([_to_array(w, index) for w in S.vertices])
        return _hull_feasibility_gap(V, _to_array(v, index), tol) <= tol
    return bool(S.member(v, tol))


# ---------------------------------------------------------------------------
# sampling

def _simplex_weights(rng: random.Random, k: int) -> list[float]:
    # spacings of sorted uniforms: uniform on the simplex
    if k == 1:
        return [1.0]
    cuts = sorted(rng.random() for _ in range(k - 1))
    prev = 0.0
    out = []
    for c in cuts:
        out.append(c - prev)
        prev = c
    out.append(1.0 - prev)
    return out


def sample(S: ConvexSet, space: NormedSpaceSpec, n: int, seed: int = 0) -> list[Vector]:
    """Draw n elements of S, deterministic per seed."""
    rng = random.Random(f"sample:{seed}")
    out: list[Vector] = []
    for _ in range(n):
        if isinstance(S, Box):
            vals = [lo + rng.random() * (hi - lo) for lo, hi in zip(S.lower, S.upper)]
            out.append(Vector.dense(vals))
        elif isinstance(S, Hull):
            w = _simplex_weights(rng, len(S.vertices))
            acc = Vector.zero()
            for wi, vert in zip(w, S.vertices):
                acc = acc + vert.scale(wi)
            out.append(acc)
        else:
            out.append(S.sampler(rng))
    for v in out:
        space.validate(v)
    return out


# ---------------------------------------------------------------------------
# distance between two sets

def _lmo(kind: str, data, grad: np.ndarray) -> np.ndarray:
    if kind == "hull":
        return data[int(np.argmin(data @ grad))]
    lo, hi = data
    return np.where(grad > 0.0, lo, hi)


def _prepare_pair(A: ConvexSet, B: ConvexSet, space: NormedSpaceSpec, method: str):
    """The coordinate index over both sets' support, and each set as
    (kind, data): a hull's vertex array or a box's (lower, upper) arrays."""
    index = _support_union([v for S in (A, B) if isinstance(S, Hull) for v in S.vertices],
                           space)

    def prepare(S):
        if isinstance(S, Hull):
            return "hull", np.array([_to_array(v, index) for v in S.vertices])
        if isinstance(S, Box):
            return "box", _box_arrays(S, space, index)
        raise SetsError(f"{method} needs box or hull sets")

    return index, prepare(A), prepare(B)


def _fw_distance(A: ConvexSet, B: ConvexSet, space: NormedSpaceSpec, seed: int,
                 budget: int, gap_tol: float):
    index, (ka, da), (kb, db) = _prepare_pair(A, B, space, "frank_wolfe")
    rng = random.Random(f"fw:{seed}")

    def start(kind, data):
        if kind == "hull":
            return data[rng.randrange(len(data))].copy()
        lo, hi = data
        return np.array([lo[i] if rng.random() < 0.5 else hi[i] for i in range(len(lo))])

    a, b = start(ka, da), start(kb, db)
    converged = False
    for _ in range(budget):
        w = a - b
        ga, gb = 2.0 * w, -2.0 * w
        sa = _lmo(ka, da, ga)
        sb = _lmo(kb, db, gb)
        gap = float(np.dot(ga, a - sa) + np.dot(gb, b - sb))
        if gap <= gap_tol:
            converged = True
            break
        u = (sa - a) - (sb - b)
        uu = float(np.dot(u, u))
        if uu == 0.0:
            converged = True
            break
        step = min(1.0, max(0.0, -float(np.dot(w, u)) / uu))
        if step == 0.0:
            break
        a = a + step * (sa - a)
        b = b + step * (sb - b)
    value = float(np.linalg.norm(a - b))
    wit = ProximalWitness(_from_array(a, index), _from_array(b, index), value)
    return value, wit, converged


def _project_simplex(w: np.ndarray) -> np.ndarray:
    # Euclidean projection onto the probability simplex (sort based)
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, len(w) + 1)
    cond = u - css / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(w - theta, 0.0)


def _subgrad_distance(A: ConvexSet, B: ConvexSet, space: NormedSpaceSpec, seed: int,
                      n_starts: int = 6, iters: int = 2500):
    index, (ka, da), (kb, db) = _prepare_pair(A, B, space, "subgradient")
    rng = np.random.default_rng(seed)

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
        return np.sign(w)  # l1 (and a valid descent signal for l2)

    def value_of(w: np.ndarray) -> float:
        return norm(space, _from_array(w, index))

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
                pa = _project_simplex(pa - step * (da @ g))
            else:
                lo, hi = da
                pa = np.clip(pa - step * g, lo, hi)
            if kb == "hull":
                pb = _project_simplex(pb + step * (db @ g))
            else:
                lo, hi = db
                pb = np.clip(pb + step * g, lo, hi)
            cur_a, cur_b = point(ka, da, pa), point(kb, db, pb)
            val = value_of(cur_a - cur_b)
            if val < loc_val:
                loc_val, loc_pair = val, (cur_a, cur_b)
        if loc_val < best_val:
            best_val, best_pair = loc_val, loc_pair
    wit = ProximalWitness(
        _from_array(best_pair[0], index), _from_array(best_pair[1], index), best_val
    )
    return best_val, wit


def dist(
    A: ConvexSet,
    B: ConvexSet,
    space: NormedSpaceSpec,
    method: str | None = None,
    declared: DeclaredDistance | None = None,
    seed: int = 0,
    budget: int = FW_BUDGET,
    gap_tol: float = FW_GAP_TOL,
) -> DistResult:
    """Distance between A and B with an achieving (or near-achieving) witness.

    method: "declared" (trusted analytic value), "frank_wolfe" (l2 over
    box/hull pairs, duality-gap stop), or "subgradient" (l1/linf, multi
    start, always flagged approximate).  Default: declared when given,
    else frank_wolfe for l2, else subgradient.
    """
    if method is None:
        if declared is not None:
            method = "declared"
        elif space.norm == "l2":
            method = "frank_wolfe"
        else:
            method = "subgradient"
    if method == "declared":
        if declared is None:
            raise SetsError("declared method needs a DeclaredDistance")
        a, b = declared.witnesses[0]
        achieved = norm(space, a - b)
        if abs(achieved - declared.value) > TOL_DIST:
            raise SetsError(
                f"declared witness achieves {achieved}, not {declared.value}"
            )
        return DistResult(declared.value, ProximalWitness(a, b, achieved),
                          "declared", False, True)
    if method == "frank_wolfe":
        if space.norm != "l2":
            raise SetsError("frank_wolfe applies to the l2 norm only")
        value, wit, converged = _fw_distance(A, B, space, seed, budget, gap_tol)
        return DistResult(value, wit, "frank_wolfe", not converged, converged)
    if method == "subgradient":
        value, wit = _subgrad_distance(A, B, space, seed)
        return DistResult(value, wit, "subgradient", True, False)
    raise SetsError(f"unknown dist method {method!r}")


def proximal_pairs(
    A: ConvexSet,
    B: ConvexSet,
    space: NormedSpaceSpec,
    k: int,
    method: str | None = None,
    declared: DeclaredDistance | None = None,
    seed: int = 0,
) -> list[ProximalWitness]:
    """Up to k distinct near-optimal witness pairs, deduplicated at 1e-6."""
    if declared is not None and (method is None or method == "declared"):
        out = []
        for a, b in declared.witnesses[:k]:
            out.append(ProximalWitness(a, b, norm(space, a - b)))
        return out
    found: list[tuple[float, ProximalWitness]] = []
    for i in range(max(k, 1) * 3):
        r = dist(A, B, space, method=method, declared=None, seed=seed + i)
        found.append((r.value, r.witness))
    found.sort(key=lambda t: t[0])
    best = found[0][0]
    out = []
    for val, wit in found:
        if val > best + max(TOL_DIST * 10, 1e-6):
            continue
        dup = False
        for w in out:
            gap = max(norm(space, wit.a_star - w.a_star),
                      norm(space, wit.b_star - w.b_star))
            if gap <= 1e-6:
                dup = True
                break
        if not dup:
            out.append(wit)
        if len(out) == k:
            break
    return out


# ---------------------------------------------------------------------------
# the summable-sequence example pair: hulls of paired basis blocks

def _paired_block_member(offset: int) -> Callable[[Vector, float], bool]:
    def member(v: Vector, tol: float) -> bool:
        blocks: dict[int, list[float]] = {}
        for j, val in v.coords:
            if j < offset:
                if abs(val) > tol:
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


def _paired_block_sampler(offset: int, max_block: int = 6) -> Callable[[random.Random], Vector]:
    def sampler(rng: random.Random) -> Vector:
        k = rng.randint(1, 4)
        blocks = rng.sample(range(1, max_block + 1), k)
        weights = _simplex_weights(rng, k)
        m: dict[int, float] = {}
        for n, w in zip(blocks, weights):
            first = 2 * (n - 1) + offset
            m[first] = m.get(first, 0.0) + w
            m[first + 1] = m.get(first + 1, 0.0) + w
        return Vector.from_map(m)

    return sampler


def paired_block_hull(offset: int, label: str) -> DeclaredSet:
    """Closed hull of {e_(2n-2+offset) + e_(2n-1+offset) : n >= 1}.

    offset 1 gives the hull of e1+e2, e3+e4, ...; offset 2 gives the hull
    of e2+e3, e4+e5, ...  Membership decomposes the support into index
    blocks and checks equal nonnegative weights summing to one.
    """
    return DeclaredSet(label, _paired_block_member(offset), _paired_block_sampler(offset))


def l1_example_sets() -> tuple[DeclaredSet, DeclaredSet, DeclaredDistance]:
    """The two paired-block hulls in the l1 sequence space, distance 2."""
    A = paired_block_hull(1, "paired-blocks-odd")
    B = paired_block_hull(2, "paired-blocks-even")
    e = basis
    w1 = (e(1) + e(2), e(2) + e(3))
    w2 = ((e(1) + e(2)).scale(0.5) + (e(3) + e(4)).scale(0.5), e(2) + e(3))
    return A, B, DeclaredDistance(2.0, (w1, w2))
