"""Seeded hull-pair inputs for the hull_geometry workload (numpy only).

Every instance is a pair of hulls A, B whose vertices sit about 1 to 2.5
from the origin.  B has a single vertex at -u and its other vertices
behind the hyperplane u.x = -1.  For d >= FACET_FROM_DIM, A has a facet
of d vertices on u.x = 1 whose relative interior contains u, just inside
one edge; below that, A has a single vertex at u.  Its other vertices
lie behind.  So the l2 distance is exactly 2, attained only at (u, -u):
at a vertex pair in low dimension, inside a facet in high dimension.
Random hulls mix the two kinds of optimum from seed to seed, and
Frank-Wolfe takes a few steps on one and its whole budget on the other,
so the cost of a run would swing with the seed.  A facet optimum at
d = 3 still does that, through the solver's start, so d = 3 keeps the
vertex optimum.

The query points carry their truth by construction: a member is a convex
combination with known weights, a non-member is a member pushed past a
supporting hyperplane of its hull by NONMEMBER_MARGIN.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# (dimension, vertices per hull); a run's inputs visit each once per norm
DIMS = ((1, 2), (3, 6), (8, 12), (20, 24))
NORMS = ("l2", "l1", "linf")
NONMEMBERS_PER_MEMBER = 3
NONMEMBER_MARGIN = 0.1
# spread of the vertices inside the facet hyperplane, so |v| is about 2
IN_PLANE = 1.7
EDGE_WEIGHT = 1e-3
FACET_FROM_DIM = 8


@dataclass(frozen=True)
class HullPair:
    dim: int
    norm: str
    A: np.ndarray  # (k, d) vertex rows
    B: np.ndarray
    member: np.ndarray
    member_of: int  # 0 for A, 1 for B
    nonmembers: tuple[tuple[int, np.ndarray], ...]

    def digest(self) -> str:
        h = hashlib.sha256(self.A.tobytes())
        h.update(self.B.tobytes())
        return h.hexdigest()[:16]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _plane(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the hyperplane orthogonal to u."""
    d = len(u)
    q, _ = np.linalg.qr(np.column_stack([u, rng.standard_normal((d, d - 1))]))
    return q[:, 1:]


def _behind(rng: np.random.Generator, u: np.ndarray, plane: np.ndarray, n: int) -> np.ndarray:
    scale = IN_PLANE / np.sqrt(max(len(u) - 1, 1))
    depth = rng.uniform(1.4, 2.2, size=n)
    return depth[:, None] * u + (rng.standard_normal((n, len(u) - 1)) * scale) @ plane.T


def _near_edge_weights(rng: np.random.Generator, d: int) -> np.ndarray:
    """Convex weights with one of them EDGE_WEIGHT: a point just inside a
    facet edge."""
    return np.r_[EDGE_WEIGHT, (1.0 - EDGE_WEIGHT) * rng.dirichlet(np.ones(d - 1))]


def _facet_hull(rng: np.random.Generator, u: np.ndarray, k: int) -> np.ndarray:
    d = len(u)
    plane = _plane(rng, u)
    facet = rng.standard_normal((d, d - 1)) * (IN_PLANE / np.sqrt(max(d - 1, 1)))
    facet -= _near_edge_weights(rng, d) @ facet  # puts u inside the facet
    return np.vstack([u + facet @ plane.T, _behind(rng, u, plane, k - d)])


def _pointed_hull(rng: np.random.Generator, u: np.ndarray, k: int) -> np.ndarray:
    return np.vstack([u, _behind(rng, u, _plane(rng, u), k - 1)])


def instance(seed: int, dim_index: int, norm_index: int) -> HullPair:
    """The hull pair and query points of one (dimension, norm) slot."""
    d, k = DIMS[dim_index]
    # numpy seeds must be non-negative; the sign adds nothing here
    rng = np.random.default_rng([abs(seed), dim_index, norm_index])
    u = _unit(rng.standard_normal(d))
    A = _facet_hull(rng, u, k) if d >= FACET_FROM_DIM else _pointed_hull(rng, u, k)
    B = -_pointed_hull(rng, u, k)
    member_of = norm_index % 2
    V = B if member_of else A
    member = rng.dirichlet(np.ones(k)) @ V
    nonmembers = []
    for t in range(NONMEMBERS_PER_MEMBER):
        which = (member_of + t) % 2
        W = B if which else A
        z = _unit(rng.standard_normal(d))
        base = rng.dirichlet(np.ones(k)) @ W
        support = float(np.max(W @ z))
        nonmembers.append((which, base + (support - float(base @ z) + NONMEMBER_MARGIN) * z))
    return HullPair(d, NORMS[norm_index], A, B, member, member_of, tuple(nonmembers))

