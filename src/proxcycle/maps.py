"""Cyclic maps on a pair of convex sets, with sampled inequality checks.

A coupled cyclic map, after Sintunavarat & Kumam (Fixed Point Theory Appl.
2012:93), sends A x B into B and B x A into A: on side A x B it takes
(x, y) to T(x, y) in B, and T(y, x) is evaluated on the other side, B x A.
p-cyclic maps generalise this to p sets; the table here has the two sides
of p = 2.  A side is an index into SIDES, whose labels notes and messages
print; CyclicMapSpec.domain_sets gives its sets, and coupled its step, the
one place that names the side of (y, x).  Each checker tests on sampled
points an inequality that the iteration and certification layers rely on,
as one row of the driver _sampled: its draws, a (side, count, seed) for
each point of a tuple, zipped, and a test of each tuple.  The driver draws
through _Probe, refuses a negative count, counts each tuple tested once per
bound, and makes each bound broken a Violation whose witness, the tuple's
points and any image row, is rendered when first read.  The phi bound
holds for every cross-side pair (Eldred & Veeramani 2006), so
check_phi_contraction samples such pairs.
T is evaluated one way, native_form: a RowEvaluator runs on coordinate
rows, any other evaluator on Vectors, each image becoming a row once.  run
takes it as it is; the checkers and certify take row_map, T on rows.
eval_map is T on Vectors with its domain checked, for callers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from typing import Any, Callable

from .report import CheckReport, Violation, conclude, render_pair, render_vector
from .sets import Box, ConvexSet, contains, l1_example_sets, member_test, sample_rows
from .space import (
    TOL_NUM,
    NormedSpaceSpec,
    ProductPoint,
    Vector,
    basis,
    larger,
    row_kernel,
    row_vector,
)

SIDE_AB, SIDE_BA = 0, 1
SIDES = ("AB", "BA")  # the label of each side


class MapsError(ValueError):
    pass


class DomainError(MapsError):
    """Input (or iterate) left the set it is required to lie in."""


# ---------------------------------------------------------------------------
# phi specifications

@dataclass(frozen=True)
class PhiSpec:
    """Strictly increasing gauge phi: [0, inf) -> [0, inf).

    variant "linear": phi(t) = (1 - lam) * t for a contraction constant
    lam in [0, 1).  variant "custom": piecewise-linear interpolation of a
    strictly increasing breakpoint table starting at t = 0, extrapolated
    with the final slope.
    """

    variant: str
    lam: float | None = None
    table: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.variant == "linear":
            if self.lam is None or not (0.0 <= self.lam < 1.0):
                raise MapsError("linear phi needs lam in [0, 1)")
        elif self.variant == "custom":
            if len(self.table) < 2:
                raise MapsError("custom phi needs at least two breakpoints")
            if not all(map(math.isfinite, chain.from_iterable(self.table))):
                raise MapsError("custom phi breakpoints must be finite")
            if self.table[0][0] != 0.0:
                raise MapsError("custom phi table must start at t = 0")
            if self.table[0][1] < 0.0:
                raise MapsError("phi must be nonnegative")
            for (t0, f0), (t1, f1) in zip(self.table, self.table[1:]):
                if t1 <= t0 or f1 <= f0:
                    raise MapsError("custom phi table must be strictly increasing")
        else:
            raise MapsError(f"unknown phi variant {self.variant!r}")

    @staticmethod
    def linear(lam: float) -> "PhiSpec":
        return PhiSpec("linear", lam=lam)

    @staticmethod
    def custom(table) -> "PhiSpec":
        return PhiSpec("custom", table=tuple((float(t), float(f)) for t, f in table))

    def __call__(self, t: float) -> float:
        if t < 0.0:
            raise MapsError(f"phi argument {t} < 0")
        if self.variant == "linear":
            return (1.0 - self.lam) * t
        pts = self.table
        if t >= pts[-1][0]:
            (t0, f0), (t1, f1) = pts[-2], pts[-1]
            return f1 + (t - t1) * (f1 - f0) / (t1 - t0)
        for (t0, f0), (t1, f1) in zip(pts, pts[1:]):
            if t <= t1:
                return f0 + (t - t0) * (f1 - f0) / (t1 - t0)
        return math.nan  # only a nan t gets here; phi(nan) is nan in both variants


# ---------------------------------------------------------------------------
# map specification

@dataclass(frozen=True, slots=True)
class RowEvaluator:
    """A dense-mode evaluator given on coordinate rows: rows(rx, ry, side)
    returns the row of T(x, y) from the rows of x and y, without -0.0, so
    that it equals Vector.dense(row).dense_values(dimension).  Called with
    Vectors it is an ordinary evaluator."""

    rows: Callable[[list, list, int], list]
    dimension: int

    def __call__(self, x: Vector, y: Vector, side: int) -> Vector:
        d = self.dimension
        return Vector.dense(self.rows(x.dense_values(d), y.dense_values(d), side))


@dataclass(frozen=True)
class CyclicMapSpec:
    label: str
    space: NormedSpaceSpec
    A: ConvexSet
    B: ConvexSet
    evaluator: Callable[[Vector, Vector, int], Vector]
    declared_class: str = "none"
    declared_dist: float | None = None
    phi: PhiSpec | None = None

    def domain_sets(self, side: int) -> tuple[ConvexSet, ConvexSet]:
        """The sets of x and of y on side; T(x, y) lies in the second."""
        if side not in range(len(SIDES)):
            raise MapsError(f"unknown side {side!r}")
        return (self.A, self.B) if side == SIDE_AB else (self.B, self.A)


def coupled(f: Callable, x, y, side: int) -> tuple:
    """The coupled step on side: (f(x, y, side), f(y, x, other)), where
    other is the side of (y, x)."""
    return f(x, y, side), f(y, x, 1 - side)


def eval_map(T: CyclicMapSpec, x: Vector, y: Vector, side: int,
             tol: float = TOL_NUM) -> Vector:
    """Evaluate T(x, y) on the given side.

    SIDE_AB requires (x, y) in A x B, SIDE_BA requires (x, y) in B x A.
    Image membership is not re-verified here; see check_cyclic_invariance.
    """
    for v, S, label in zip((x, y), T.domain_sets(side), SIDES[side]):
        if not contains(S, T.space, v, tol):
            raise DomainError(f"{render_vector(v)} not in the {label} set")
    return T.evaluator(x, y, side)


def native_form(T: CyclicMapSpec) -> tuple[Callable, Callable[[Vector], list] | None]:
    """(f, to_row): the row function of T's evaluator if it is a RowEvaluator of
    T's space, else T's evaluator on Vectors, and the map from an image of f to
    its row_kernel row, None when the images are rows already (a row
    function's, or a Vector in sequence mode)."""
    ev = T.evaluator
    if isinstance(ev, RowEvaluator) and ev.dimension == T.space.dimension:
        return ev.rows, None
    return ev, None if T.space.mode == "sequence" else row_kernel(T.space)[0]


def row_map(T: CyclicMapSpec) -> Callable[[Any, Any, int], Any]:
    """T on row_kernel rows, f(rx, ry, side): native_form's f if its images are
    rows already, else the Vector evaluator wrapped once."""
    (f, to_row), vector = native_form(T), row_vector(T.space)
    return f if to_row is None else lambda rx, ry, side: to_row(f(vector(rx), vector(ry), side))


# ---------------------------------------------------------------------------
# checkers

class _Point:
    """(x, y) on one side, as rows rx, ry.  The text, coupled image (a
    _Point) and displacement are filled in on first use."""

    __slots__ = ("rx", "ry", "side", "text", "image", "disp")

    def __init__(self, rx, ry, side: int):
        self.rx, self.ry, self.side = rx, ry, side
        self.text = self.image = self.disp = None


class _Probe:
    """One checker call's points, each piece of work done once: each (set,
    seed) sample stream is drawn once and serves shorter requests as its
    prefix, and each (side, seed) draw keeps its points and their images.
    f(rx, ry, side) is T on rows, row_map(T)."""

    def __init__(self, T: CyclicMapSpec):
        self.T = T
        self.gap = row_kernel(T.space)[1]
        self.vector = row_vector(T.space)
        self.f = row_map(T)
        self._streams: dict[tuple[int, int], list] = {}
        self._sides: dict[tuple[int, int], list[_Point]] = {}

    def _stream(self, S: ConvexSet, n: int, seed: int) -> list:
        """The rows of n points drawn from S at seed."""
        got = self._streams.get((id(S), seed))
        if got is None or len(got) < n:
            got = self._streams[id(S), seed] = sample_rows(S, self.T.space, n, seed)
        return got

    def points(self, side: int, n: int, seed: int) -> list[_Point]:
        """n points (x, y) of side, x drawn at seed and y at seed + 7919."""
        got = self._sides.setdefault((side, seed), [])
        if (k := len(got)) < n:
            SX, SY = self.T.domain_sets(side)
            rxs, rys = self._stream(SX, n, seed), self._stream(SY, n, seed + 7919)
            got += map(_Point, rxs[k:n], rys[k:n], repeat(side))
        return got[:n]

    def image(self, p: _Point) -> _Point:
        if p.image is None:  # on the side after p's, as in run
            p.image = _Point(*coupled(self.f, p.rx, p.ry, p.side), (p.side + 1) % len(SIDES))
        return p.image

    def displacement(self, p: _Point) -> float:
        if p.disp is None:
            q = self.image(p)
            p.disp = larger(self.gap(p.rx, q.rx), self.gap(p.ry, q.ry))
        return p.disp


def _render(vector: Callable[[Any], Vector], points: tuple[_Point, ...], image) -> tuple[str, ...]:
    """Each point's text, rendered once per point, then the image row's if any."""
    for p in points:
        if p.text is None:
            p.text = render_pair(ProductPoint(vector(p.rx), vector(p.ry)))
    texts = tuple(p.text for p in points)
    return texts if image is None else (*texts, render_vector(vector(image)))


def _sampled(name: str, T: CyclicMapSpec, draws: list[tuple], test: Callable,
             bounds: int = 1, detail: str = "") -> CheckReport:
    """The report of one row: test(probe, points) returns None to skip the
    tuple, else the bounds it broke as (lhs, rhs, note, image) rows, () when
    none.  A witness holds the points and row_vector, not the probe."""
    if any(count < 0 for group in draws for _, count, _ in group):
        raise MapsError(f"{name} cannot draw a negative number of samples")
    probe = _Probe(T)
    violations: list[Violation] = []
    tested = 0
    for group in draws:
        for points in zip(*(probe.points(*draw) for draw in group)):
            failed = test(probe, points)
            if failed is None:
                continue
            tested += 1
            if failed:
                violations += [Violation(partial(_render, probe.vector, points, image),
                                         lhs, rhs, note) for lhs, rhs, note, image in failed]
    return conclude(name, bounds * tested, violations, detail)


def check_cyclic_invariance(T: CyclicMapSpec, n_samples: int = 200, seed: int = 0,
                            tol: float = TOL_NUM) -> CheckReport:
    """T must send A x B into B and B x A into A (sampled)."""
    inside = [member_test(T.domain_sets(side)[1], T.space, tol) for side in range(len(SIDES))]

    def test(probe: _Probe, points: tuple[_Point]):
        (p,) = points
        if inside[p.side](r := probe.f(p.rx, p.ry, p.side)):
            return ()
        return ((1.0, 0.0, f"{SIDES[p.side]}-side image left the {SIDES[p.side][1]} set", r),)

    draws = [((side, n_samples, seed),) for side in range(len(SIDES))]
    return _sampled("cyclic_invariance", T, draws, test)


def _require_dist(T: CyclicMapSpec) -> float:
    if T.declared_dist is None:
        raise MapsError("this check needs the pair distance declared on the map spec")
    return T.declared_dist


def check_phi_contraction(T: CyclicMapSpec, phi: PhiSpec, n_samples: int = 1000,
                          seed: int = 0, tol: float = TOL_NUM) -> CheckReport:
    """Sampled phi-contraction inequality over all cross-side pairs.

    For every p in A x B and q in B x A, each component of their images'
    distance must not exceed ||p - q|| - phi(||p - q||) + phi(dist(A, B)).
    n_samples independent pairs (p, q) are drawn, p at seed and q at
    seed + 104729; each image component is one bound checked.
    """
    phi_d = phi(_require_dist(T))

    def test(probe: _Probe, points: tuple[_Point, _Point]):
        p, q = points
        delta = larger(probe.gap(p.rx, q.rx), probe.gap(p.ry, q.ry))
        rhs = delta - phi(delta) + phi_d
        img_p, img_q = probe.image(p), probe.image(q)
        lhs1, lhs2 = probe.gap(img_p.rx, img_q.rx), probe.gap(img_p.ry, img_q.ry)
        if lhs1 <= rhs + tol and lhs2 <= rhs + tol:  # both components obey one bound
            return ()
        return tuple((lhs, rhs, f"{c}-component image pair broke the phi bound", None)
                     for lhs, c in ((lhs1, "first"), (lhs2, "second")) if not lhs <= rhs + tol)

    return _sampled("phi_contraction", T,
                    [((SIDE_AB, n_samples, seed), (SIDE_BA, n_samples, seed + 104729))], test,
                    bounds=2, detail="quantification=all_cross_pairs")


def check_kannan(T: CyclicMapSpec, n_samples: int = 1000, seed: int = 0,
                 tol: float = TOL_NUM) -> CheckReport:
    """Kannan-type nonexpansiveness on sampled same-side and cross-side pairs.

    Image distance of two inputs must not exceed half the sum of their
    coupled displacements.  One point of each same-side pair is a cross-side
    pair's point, whose coupled image is reused.
    """
    def test(probe: _Probe, points: tuple[_Point, _Point]):
        p, q = points
        lhs = probe.gap(probe.image(p).rx, probe.image(q).rx)
        rhs = 0.5 * (probe.displacement(p) + probe.displacement(q))
        if lhs <= rhs + tol:
            return ()
        return ((lhs, rhs, f"sides {SIDES[p.side]}/{SIDES[q.side]}", None),)

    half, qseed = n_samples // 2, seed + 15485863
    return _sampled("kannan", T, [
        ((SIDE_AB, n_samples - half, seed), (SIDE_BA, n_samples - half, qseed)),  # cross side
        ((SIDE_AB, half - half // 2, seed), (SIDE_AB, half - half // 2, qseed)),  # same side
        ((SIDE_BA, half // 2, seed), (SIDE_BA, half // 2, qseed))], test)


def check_kannan_strict_hypothesis(T: CyclicMapSpec, n_samples: int = 500,
                                   seed: int = 0, tol: float = TOL_NUM) -> CheckReport:
    """Strict displacement decrease away from the pair distance.

    Whenever a sampled point's coupled displacement exceeds dist(A, B),
    the displacement of its coupled image must be strictly smaller.
    """
    d = _require_dist(T)

    def test(probe: _Probe, points: tuple[_Point]):
        (p,) = points
        if (d0 := probe.displacement(p)) <= d + tol:
            return None
        if (d1 := probe.displacement(probe.image(p))) < d0 - tol:
            return ()
        return ((d1, d0, "coupled image displacement failed to decrease strictly", None),)

    draws = [((side, (n_samples + 1 - side) // 2, seed),) for side in range(len(SIDES))]
    return _sampled("kannan_strict_hypothesis", T, draws, test)  # n - n // 2 on AB, n // 2 on BA


# ---------------------------------------------------------------------------
# builtin map registry

def interval_contraction() -> CyclicMapSpec:
    """Linear contraction between [1, 2] and [-2, -1] on the real line."""
    space = NormedSpaceSpec(norm="l2", mode="dense", dimension=1)
    A = Box((1.0,), (2.0,))
    B = Box((-2.0,), (-1.0,))

    ev = RowEvaluator(lambda rx, ry, side:
                      [(ry[0] - rx[0]) / 4.0 + (0.5 if side == SIDE_BA else -0.5)], 1)

    return CyclicMapSpec("interval_contraction", space, A, B, ev,
                         declared_class="phi_contraction", declared_dist=2.0,
                         phi=PhiSpec.linear(0.5))


def overlap_contraction() -> CyclicMapSpec:
    """Contraction on a single interval (A = B), distance zero."""
    space = NormedSpaceSpec(norm="l2", mode="dense", dimension=1)
    box = Box((0.0,), (1.0,))

    ev = RowEvaluator(lambda rx, ry, side: [(rx[0] + ry[0]) / 4.0 + 0.0], 1)  # -0.0 to 0.0

    return CyclicMapSpec("overlap_contraction", space, box, box, ev,
                         declared_class="phi_contraction", declared_dist=0.0,
                         phi=PhiSpec.linear(0.5))


def l1_kannan() -> CyclicMapSpec:
    """Constant-by-side map between the paired-block hulls in l1.

    Kannan-type nonexpansive; its best proximity points are not unique.
    """
    space = NormedSpaceSpec(norm="l1", mode="sequence", dimension=None)
    A, B = l1_example_sets()
    to_b = basis(2) + basis(3)
    to_a = basis(1) + basis(2)

    def ev(x: Vector, y: Vector, side: int) -> Vector:
        return to_b if side == SIDE_AB else to_a

    return CyclicMapSpec("l1_kannan", space, A, B, ev,
                         declared_class="kannan", declared_dist=2.0)


def flip_map() -> CyclicMapSpec:
    """Negative control: cyclic but not contractive (T(u, v) = -u)."""
    space = NormedSpaceSpec(norm="l2", mode="dense", dimension=1)
    A = Box((1.0,), (2.0,))
    B = Box((-2.0,), (-1.0,))

    ev = RowEvaluator(lambda rx, ry, side: [0.0 - rx[0]], 1)  # -u, but 0.0 for u = 0.0

    return CyclicMapSpec("flip", space, A, B, ev,
                         declared_class="none", declared_dist=2.0)


def non_cyclic_control() -> CyclicMapSpec:
    """Negative control: T(u, v) = u keeps each side in place, breaking cyclicity."""
    space = NormedSpaceSpec(norm="l2", mode="dense", dimension=1)
    A = Box((1.0,), (2.0,))
    B = Box((-2.0,), (-1.0,))

    ev = RowEvaluator(lambda rx, ry, side: [rx[0] + 0.0], 1)  # u, with -0.0 as 0.0

    return CyclicMapSpec("non_cyclic", space, A, B, ev,
                         declared_class="none", declared_dist=2.0)


BUILTIN_MAPS: dict[str, Callable[[], CyclicMapSpec]] = {
    "interval_contraction": interval_contraction,
    "overlap_contraction": overlap_contraction,
    "l1_kannan": l1_kannan,
    "flip": flip_map,
    "non_cyclic": non_cyclic_control,
}


def builtin(name: str) -> CyclicMapSpec:
    try:
        factory = BUILTIN_MAPS[name]
    except KeyError:
        raise MapsError(
            f"unknown builtin map {name!r}; available: {', '.join(sorted(BUILTIN_MAPS))}"
        ) from None
    return factory()
