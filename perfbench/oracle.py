"""Reference distances for the hull_geometry workload, computed with scipy.

l1 and linf distances between two hulls are linear programs, solved
with HiGHS through scipy.optimize.linprog.  The l2 distance is a
simplex-constrained least-squares problem, solved with scipy's NNLS on a
system that weights the two sum-to-one rows heavily.  Each value is the
exact norm of a feasible witness pair (an upper bound) and comes with a
lower bound: the LP dual objective, or for l2 the separating hyperplane
along the witness difference.  The gap between the two is recorded.

Run as a script, it fills a per-seed cache file so that every run with a
seed compares against the same truth and the measured process never
imports scipy:

    python3 perfbench/oracle.py --seed 3 --cache .bench_out/oracle-3.json
"""
from __future__ import annotations

import argparse
import json
import os

import numpy as np
from scipy.optimize import linprog, nnls

import geometry

# the oracle must pin each distance at least this tightly (relative)
MAX_GAP = 1e-9


def _norm(w: np.ndarray, which: str) -> float:
    return float({"l1": np.sum(np.abs(w)), "l2": np.linalg.norm(w),
                  "linf": np.max(np.abs(w))}[which])


def _on_simplex(w: np.ndarray) -> np.ndarray:
    w = np.maximum(w, 0.0)
    return w / w.sum()


def l2_distance(A: np.ndarray, B: np.ndarray) -> tuple[float, float]:
    ka, kb = len(A), len(B)
    M = np.hstack([A.T, -B.T])
    s = 1e4 * max(1.0, float(np.abs(M).max()))
    rows = np.vstack([M, s * np.r_[np.ones(ka), np.zeros(kb)],
                      s * np.r_[np.zeros(ka), np.ones(kb)]])
    z, _ = nnls(rows, np.r_[np.zeros(A.shape[1]), s, s], maxiter=50 * (ka + kb))
    w = A.T @ _on_simplex(z[:ka]) - B.T @ _on_simplex(z[ka:])
    upper = float(np.linalg.norm(w))
    u = w / upper
    lower = float(np.min(A @ u) - np.max(B @ u))
    return upper, upper - lower


def lp_distance(A: np.ndarray, B: np.ndarray, which: str) -> tuple[float, float]:
    ka, kb, d = len(A), len(B), A.shape[1]
    ns = d if which == "l1" else 1
    # variables: weights a (ka), weights b (kb), slack s; |A'a - B'b| <= s
    S = np.eye(d) if which == "l1" else np.ones((d, 1))
    diff = np.hstack([A.T, -B.T])
    A_ub = np.vstack([np.hstack([diff, -S]), np.hstack([-diff, -S])])
    A_eq = np.vstack([np.r_[np.ones(ka), np.zeros(kb + ns)],
                      np.r_[np.zeros(ka), np.ones(kb), np.zeros(ns)]])
    c = np.r_[np.zeros(ka + kb), np.ones(ns)]
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(2 * d), A_eq=A_eq, b_eq=[1.0, 1.0],
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    x = res.x
    upper = _norm(A.T @ _on_simplex(x[:ka]) - B.T @ _on_simplex(x[ka:ka + kb]), which)
    dual = float(np.sum(res.eqlin.marginals))  # b_ub = 0, b_eq = (1, 1)
    return upper, upper - dual


def distance(pair: geometry.HullPair) -> tuple[float, float]:
    """(value, certified gap) of dist(A, B) under the pair's norm."""
    if pair.norm == "l2":
        return l2_distance(pair.A, pair.B)
    return lp_distance(pair.A, pair.B, pair.norm)


def _key(i: int, j: int) -> str:
    return f"{i}.{j}"


def fill_cache(seed: int, path: str) -> None:
    cache = {"seed": seed, "values": {}}
    if os.path.exists(path):
        with open(path) as fh:
            cache = json.load(fh)
        if cache.get("seed") != seed:
            raise RuntimeError(f"{path} holds oracle values for another seed")
    values = cache["values"]
    for i in range(len(geometry.DIMS)):
        for j in range(len(geometry.NORMS)):
            pair = geometry.instance(seed, i, j)
            key = _key(i, j)
            if key in values and values[key]["digest"] == pair.digest():
                continue
            value, gap = distance(pair)
            if not gap <= MAX_GAP * max(1.0, value):
                raise RuntimeError(f"oracle gap {gap!r} too wide at {key}")
            values[key] = {"value": value, "gap": gap, "digest": pair.digest()}
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(cache, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cache", required=True)
    args = ap.parse_args()
    fill_cache(args.seed, args.cache)


if __name__ == "__main__":
    main()
