"""Normed-space primitives.

Vectors are sparse index -> value maps so the same type serves finite
dimensional spaces and summable sequence spaces.  A space spec pins the norm,
the mode (dense with a dimension bound, or unbounded sequence) and, for dense
mode, the dimension.  This module alone converts between Vectors, rows
(row_kernel, row_vector) and index arrays (pack_flat, pack, unpack).

A norm or product distance that reads a nan or infinite term is never
finite: linf keeps a nan wherever it stands, and the product distance of
(x, y) and (u, v) is larger(||x - u||, ||y - v||), nan if either is.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from numbers import Integral
from operator import itemgetter, methodcaller, sub
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

# Global inequality slack: the default tolerance of the checks that compare
# two real quantities, and the fixed slack of t_limit's floor.
TOL_NUM = 1e-9

NORMS = ("l1", "l2", "lp", "linf")
MODES = ("dense", "sequence")


class SpaceError(ValueError):
    pass


class DimensionMismatch(SpaceError):
    pass


class ModulusUnavailable(SpaceError):
    pass


def _clean(items: Iterable[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
    out = []
    for i, v in items:
        i = int(i)
        v = float(v)
        if i < 0:
            raise SpaceError(f"negative coordinate index {i}")
        if v != 0.0:
            out.append((i, v))
    out.sort()
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Vector:
    """Sparse vector: sorted (index, value) pairs, no explicit zeros."""

    coords: tuple[tuple[int, float], ...] = ()

    @staticmethod
    def from_map(m: Mapping[int, float]) -> "Vector":
        return Vector(_clean(m.items()))

    @staticmethod
    def dense(values: Iterable[float]) -> "Vector":
        # enumerate's indices are sorted and non-negative: only drop the zero
        # (falsy) values; nan is truthy, as nan != 0.0
        return Vector(tuple(filter(itemgetter(1), enumerate(map(float, values)))))

    @staticmethod
    def zero() -> "Vector":
        return Vector(())

    def value_at(self, i: int) -> float:
        for j, v in self.coords:
            if j == i:
                return v
        return 0.0

    def dense_values(self, dimension: int) -> list[float]:
        """Coordinates 0 .. dimension - 1, missing ones as 0.0; an index at
        or past dimension raises DimensionMismatch."""
        out = [0.0] * dimension
        try:
            for i, v in self.coords:
                out[i] = v
        except IndexError:
            raise DimensionMismatch(
                f"index {self.max_index()} out of range for dimension {dimension}") from None
        return out

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.coords)

    def max_index(self) -> int:
        return self.coords[-1][0] if self.coords else -1

    def __add__(self, other: "Vector") -> "Vector":
        m = dict(self.coords)
        for i, v in other.coords:
            m[i] = m.get(i, 0.0) + v
        return Vector(_clean(m.items()))

    def __sub__(self, other: "Vector") -> "Vector":
        # both operands are clean, so only the zeros need dropping
        m = dict(self.coords)
        for i, v in other.coords:
            m[i] = m.get(i, 0.0) - v
        return Vector(tuple(sorted([item for item in m.items() if item[1] != 0.0])))

    def scale(self, c: float) -> "Vector":
        return Vector(_clean((i, c * v) for i, v in self.coords))

    def __mul__(self, c: float) -> "Vector":
        return self.scale(c)

    __rmul__ = __mul__

    def __neg__(self) -> "Vector":
        return self.scale(-1.0)


def basis(i: int) -> Vector:
    """Canonical basis vector with a single 1 at index i."""
    return Vector.from_map({i: 1.0})


@dataclass(frozen=True)
class NormedSpaceSpec:
    """Which norm, dense or sequence mode, and the dense dimension bound."""

    norm: str = "l2"
    mode: str = "dense"
    dimension: int | None = 1
    p: float | None = None

    def __post_init__(self):
        if self.norm not in NORMS:
            raise SpaceError(f"unknown norm {self.norm!r}")
        if self.mode not in MODES:
            raise SpaceError(f"unknown mode {self.mode!r}")
        if self.mode == "dense":
            d = self.dimension
            if isinstance(d, bool) or not isinstance(d, Integral) or d < 1:
                raise SpaceError(f"dense mode needs an integer dimension >= 1, got {d!r}")
        elif self.dimension is not None:
            raise SpaceError("sequence mode takes no dimension bound")
        if self.norm == "lp":
            if self.p is None or not (1.0 < self.p < math.inf):
                raise SpaceError("lp norm needs finite p > 1")
        elif self.p is not None:
            raise SpaceError("p is only meaningful for the lp norm")

    @property
    def modulus_available(self) -> bool:
        # uniformly convex: l2 and lp for 1 < p < inf; l1 and linf are not
        return self.norm in ("l2", "lp")

    def validate(self, v: Vector) -> None:
        if self.mode == "dense" and v.max_index() >= self.dimension:
            raise DimensionMismatch(
                f"index {v.max_index()} out of range for dimension {self.dimension}"
            )


def norm(space: NormedSpaceSpec, v: Vector) -> float:
    """Norm of v under the space's declared norm.

    Dense mode rejects vectors whose support exceeds the dimension bound.
    """
    space.validate(v)
    return _norm_values(space, [x for _, x in v.coords])


def _norm_values(space: NormedSpaceSpec, vals: list[float]) -> float:
    """The norm of a vector whose nonzero coordinates, in index order, are
    vals.  A caller holding a dense row drops its zeros to get norm's value bit for bit."""
    if not vals:
        return 0.0
    if space.norm == "l1":
        return float(sum(map(abs, vals)))
    if space.norm == "l2":
        return math.hypot(*vals)
    if space.norm == "linf":
        return math.nan if any(map(math.isnan, vals)) else float(max(map(abs, vals)))
    # scale by the largest entry so x**p cannot under- or overflow
    m = max(map(abs, vals))
    if m == 0.0:
        return 0.0
    return float(m * sum((abs(x) / m) ** space.p for x in vals) ** (1.0 / space.p))


def row_kernel(space: NormedSpaceSpec) -> tuple[Callable[[Vector], Any], Callable[..., float]]:
    """(row, gap) with gap(row(u), row(v)) == norm(space, u - v), without u - v.  A
    dense row is v.dense_values(dimension), and math.dist reduces it as hypot
    does, zero terms adding nothing; a sequence row is v itself."""
    if space.mode == "dense":
        row = methodcaller("dense_values", space.dimension)
        if space.norm == "l2":
            return row, math.dist
        return row, lambda a, b: _norm_values(space, [z for z in map(sub, a, b) if z != 0.0])

    def gap(a: Vector, b: Vector) -> float:
        # one merge of the two sorted coordinate tuples, in index order; a
        # coordinate of one alone is nonzero, a shared one may cancel
        ac, bc = a.coords, b.coords
        na, nb = len(ac), len(bc)
        i = j = 0
        vals = []
        while i < na and j < nb:
            ia, va = ac[i]
            ib, vb = bc[j]
            if ia < ib:
                vals.append(va)
                i += 1
            elif ib < ia:
                vals.append(-vb)
                j += 1
            else:
                if (d := va - vb) != 0.0:
                    vals.append(d)
                i += 1
                j += 1
        vals += [v for _, v in ac[i:]]
        vals += [-v for _, v in bc[j:]]
        return _norm_values(space, vals)

    return lambda v: v, gap


def row_vector(space: NormedSpaceSpec) -> Callable[[Any], Vector]:
    """The Vector of a row_kernel row: Vector.dense, or in sequence mode the row."""
    return Vector.dense if space.mode == "dense" else lambda v: v


def pack_flat(vectors: Sequence[Vector], space: NormedSpaceSpec) -> tuple[array, tuple[int, ...]]:
    """The vectors as len(vectors) rows of one flat array("d") over index, the sorted
    coordinates of the space and their supports, each checked to lie in the space."""
    idx = set(range(space.dimension)) if space.mode == "dense" else set()
    for v in vectors:
        space.validate(v)
        idx.update(v.support())
    index = tuple(sorted(idx))
    pos = {j: k for k, j in enumerate(index)}
    flat = array("d", [0.0]) * (len(vectors) * len(index))
    for r, v in enumerate(vectors):
        for j, x in v.coords:
            flat[r * len(index) + pos[j]] = x
    return flat, index


def pack(vectors: Sequence[Vector], space: NormedSpaceSpec) -> tuple[np.ndarray, tuple[int, ...]]:
    """pack_flat's floats as a (len(vectors), len(index)) numpy array."""
    import numpy as np
    flat, index = pack_flat(vectors, space)
    return np.frombuffer(flat).reshape(len(vectors), len(index)), index


def unpack(row: Sequence[float], index: Sequence[int]) -> Vector:
    """The Vector with row[k] at coordinate index[k], for a row of Python floats
    over a sorted index: a slice of pack_flat's array, or a numpy row's .tolist()."""
    return Vector(tuple((j, v) for j, v in zip(index, row) if v != 0.0))


@dataclass(frozen=True, slots=True)
class ProductPoint:
    """Ordered pair (first, second) of vectors in the same underlying space."""

    first: Vector
    second: Vector


def larger(a: float, b: float) -> float:
    """max(a, b), but nan if either is: the product distance of two gaps."""
    return a if a >= b or a != a else b


def pair_distance(space: NormedSpaceSpec, p: ProductPoint, q: ProductPoint) -> float:
    """The product distance of p and q, measured on row_kernel rows."""
    row, gap = row_kernel(space)
    return larger(gap(row(p.first), row(q.first)), gap(row(p.second), row(q.second)))


def convexity_modulus(space: NormedSpaceSpec, eps: float) -> float:
    """Modulus of uniform convexity delta(eps) for eps in (0, 2].

    Only the l2 modulus ships in exact form.  l1 and linf are not uniformly
    convex; lp with p != 2 is uniformly convex but no exact modulus is
    bundled, so both cases raise ModulusUnavailable.
    """
    if not (0.0 < eps <= 2.0):
        raise SpaceError(f"modulus argument {eps} outside (0, 2]")
    if space.norm == "l2":
        return 1.0 - math.sqrt(1.0 - (eps / 2.0) ** 2)
    if space.norm == "lp":
        raise ModulusUnavailable("no exact modulus bundled for lp with p != 2")
    raise ModulusUnavailable(f"{space.norm} is not uniformly convex")
