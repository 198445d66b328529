"""The verdicts of a corpus of map mutants and of a grid of builtin runs.

A mutant row is a shipped config with one override of its map object, run
in-process at the config's own seed; a grid row is a builtin with a
declared distance and a stop rule, run at two seeds.  The tests pin the
exit code and the sorted names of the checks that failed.  Mutant rows that
exit 1 break the map's declared distance, its gauge or its cyclicity; the
rows that exit 0 change a set but keep the map valid.  A change that moves
any verdict shows here as a changed row.
"""
import json
from pathlib import Path

import pytest

from proxcycle.config import parse_config
from proxcycle.runner import execute

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def box(lower, upper):
    return {"variant": "box", "lower": [lower], "upper": [upper]}


A, B = box(1.0, 2.0), box(-2.0, -1.0)  # interval's sets

# (config, map override, exit code, failing checks)
ROWS = {
    "interval-dist-2.1": ("interval", {"dist": 2.1}, 1,
                          ["certify_candidates", "certify_limits", "t_limit"]),
    "interval-dist-1.9": ("interval", {"dist": 1.9}, 1,
                          ["certify_candidates", "certify_limits", "phi_contraction"]),
    "interval-lambda-0.3": ("interval", {"lambda": 0.3}, 1, ["phi_contraction"]),
    "interval-lambda-0.45": ("interval", {"lambda": 0.45}, 1, ["phi_contraction"]),
    "interval-B-short": ("interval", {"sets": [A, box(-2.0, -1.2)]}, 1,
                         ["certify_candidates", "certify_limits", "cyclic_invariance",
                          "t_limit"]),
    "interval-A-wide-dist-1.9": ("interval", {"sets": [box(0.9, 2.0), B], "dist": 1.9}, 1,
                                 ["certify_candidates", "certify_limits", "cyclic_invariance",
                                  "phi_contraction"]),
    "overlap-dist-0.1": ("overlap", {"dist": 0.1}, 1, ["certify_limits", "t_limit"]),
    "overlap-lambda-0.3": ("overlap", {"lambda": 0.3}, 1, ["phi_contraction"]),
    "l1_kannan-dist-2.1": ("l1_kannan", {"dist": 2.1}, 1,
                           ["certify_candidates", "certify_limits", "t_limit"]),
    "l1_kannan-dist-1.9": ("l1_kannan", {"dist": 1.9}, 1,
                           ["certify_candidates", "certify_limits", "kannan_strict_hypothesis",
                            "t_limit"]),
    "interval-B-narrow": ("interval", {"sets": [A, box(-1.4, -1.0)]}, 0, []),
    "interval-A-wide": ("interval", {"sets": [box(1.0, 3.0), B]}, 0, []),
}


@pytest.mark.parametrize("name", ROWS)
def test_a_mutant_keeps_its_verdict(name, tmp_path):
    config, override, exit_code, failing = ROWS[name]
    raw = json.loads((CONFIGS / f"{config}.json").read_text())
    raw["map"] = {**raw["map"], **override}
    code, summary = execute(parse_config(raw, out_override=str(tmp_path)), "run",
                            say=lambda _: None)
    assert (code, sorted(c["name"] for c in summary["checks"] if c["status"] == "failed")) == (
        exit_code, failing)


# Item 16's grid: each builtin at its true distance d and three larger
# declared ones, under four stop rules and two seeds, with certify_limits and
# every trajectory check.  Each entry is the exit code and the sorted failing
# checks, one string for both seeds or one per seed.  The interval and
# overlap rows at d fail only on a finite tail (cauchy, even_gaps) or on a
# 25-step budget, although their maps are correct.
GRID_DIST = {"interval_contraction": 2.0, "overlap_contraction": 0.0, "l1_kannan": 2.0,
             "flip": 2.0}
GRID_RULES = {"default": {}, "no-t_tol": {"t_tol": None}, "no-gap_tol": {"gap_tol": None},
              "25-iters": {"max_iters": 25}}
GRID_CHECKS = ["certify_limits", "monotone_t", "t_limit", "even_gaps", "interleaved", "cauchy"]
GRID = {
    ("interval_contraction", "d", "default"): "1 cauchy even_gaps",
    ("interval_contraction", "d", "no-t_tol"): "1 cauchy",
    ("interval_contraction", "d", "no-gap_tol"): "1 cauchy even_gaps",
    ("interval_contraction", "d", "25-iters"): "1 certify_limits",
    ("interval_contraction", "d+0.05", "default"): "1 cauchy certify_limits t_limit",
    ("interval_contraction", "d+0.05", "no-t_tol"): "1 cauchy certify_limits t_limit",
    ("interval_contraction", "d+0.05", "no-gap_tol"): "1 certify_limits t_limit",
    ("interval_contraction", "d+0.05", "25-iters"): "1 certify_limits t_limit",
    ("interval_contraction", "d+0.5", "default"): "1 cauchy certify_limits t_limit",
    ("interval_contraction", "d+0.5", "no-t_tol"): "1 cauchy certify_limits t_limit",
    ("interval_contraction", "d+0.5", "no-gap_tol"): "1 certify_limits t_limit",
    ("interval_contraction", "d+0.5", "25-iters"): "1 certify_limits t_limit",
    ("interval_contraction", "2d+1", "default"): "1 cauchy certify_limits t_limit",
    ("interval_contraction", "2d+1", "no-t_tol"): "1 cauchy certify_limits t_limit",
    ("interval_contraction", "2d+1", "no-gap_tol"): "1 certify_limits t_limit",
    ("interval_contraction", "2d+1", "25-iters"): "1 certify_limits t_limit",
    ("overlap_contraction", "d", "default"): "1 cauchy even_gaps",
    ("overlap_contraction", "d", "no-t_tol"): "1 cauchy",
    ("overlap_contraction", "d", "no-gap_tol"): "1 cauchy even_gaps",
    ("overlap_contraction", "d", "25-iters"):
        ("1 certify_limits", "1 cauchy certify_limits even_gaps"),
    ("overlap_contraction", "d+0.05", "default"): "1 cauchy certify_limits t_limit",
    ("overlap_contraction", "d+0.05", "no-t_tol"): "1 cauchy certify_limits t_limit",
    ("overlap_contraction", "d+0.05", "no-gap_tol"): "1 certify_limits t_limit",
    ("overlap_contraction", "d+0.05", "25-iters"): "1 certify_limits t_limit",
    ("overlap_contraction", "d+0.5", "default"): "1 cauchy certify_limits t_limit",
    ("overlap_contraction", "d+0.5", "no-t_tol"): "1 cauchy certify_limits t_limit",
    ("overlap_contraction", "d+0.5", "no-gap_tol"): "1 certify_limits t_limit",
    ("overlap_contraction", "d+0.5", "25-iters"): "1 certify_limits t_limit",
    ("overlap_contraction", "2d+1", "default"): "1 cauchy certify_limits t_limit",
    ("overlap_contraction", "2d+1", "no-t_tol"): "1 cauchy certify_limits t_limit",
    ("overlap_contraction", "2d+1", "no-gap_tol"): "1 certify_limits t_limit",
    ("overlap_contraction", "2d+1", "25-iters"): "1 certify_limits t_limit",
    ("l1_kannan", "d", "default"): "0",
    ("l1_kannan", "d", "no-t_tol"): "0",
    ("l1_kannan", "d", "no-gap_tol"): "0",
    ("l1_kannan", "d", "25-iters"): "0",
    ("l1_kannan", "d+0.05", "default"): "1 certify_limits t_limit",
    ("l1_kannan", "d+0.05", "no-t_tol"): "1 certify_limits t_limit",
    ("l1_kannan", "d+0.05", "no-gap_tol"): "1 certify_limits t_limit",
    ("l1_kannan", "d+0.05", "25-iters"): "1 certify_limits t_limit",
    ("l1_kannan", "d+0.5", "default"): "1 certify_limits t_limit",
    ("l1_kannan", "d+0.5", "no-t_tol"): "1 certify_limits t_limit",
    ("l1_kannan", "d+0.5", "no-gap_tol"): "1 certify_limits t_limit",
    ("l1_kannan", "d+0.5", "25-iters"): "1 certify_limits t_limit",
    ("l1_kannan", "2d+1", "default"): "1 certify_limits t_limit",
    ("l1_kannan", "2d+1", "no-t_tol"): "1 certify_limits t_limit",
    ("l1_kannan", "2d+1", "no-gap_tol"): "1 certify_limits t_limit",
    ("l1_kannan", "2d+1", "25-iters"): "1 certify_limits t_limit",
    ("flip", "d", "default"): "1 certify_limits interleaved t_limit",
    ("flip", "d", "no-t_tol"): "1 certify_limits interleaved t_limit",
    ("flip", "d", "no-gap_tol"): "1 certify_limits",
    ("flip", "d", "25-iters"): "1 certify_limits interleaved t_limit",
    ("flip", "d+0.05", "default"): "1 certify_limits interleaved t_limit",
    ("flip", "d+0.05", "no-t_tol"): "1 certify_limits interleaved t_limit",
    ("flip", "d+0.05", "no-gap_tol"): "1 certify_limits",
    ("flip", "d+0.05", "25-iters"): "1 certify_limits interleaved t_limit",
    ("flip", "d+0.5", "default"): "1 certify_limits interleaved t_limit",
    ("flip", "d+0.5", "no-t_tol"): "1 certify_limits interleaved t_limit",
    ("flip", "d+0.5", "no-gap_tol"): ("1 certify_limits", "1 certify_limits t_limit"),
    ("flip", "d+0.5", "25-iters"): "1 certify_limits interleaved t_limit",
    ("flip", "2d+1", "default"): "1 certify_limits t_limit",
    ("flip", "2d+1", "no-t_tol"): "1 certify_limits t_limit",
    ("flip", "2d+1", "no-gap_tol"): "1 certify_limits t_limit",
    ("flip", "2d+1", "25-iters"): "1 certify_limits t_limit",
}


def grid_dist(builtin, name):
    d = GRID_DIST[builtin]
    return {"d": d, "d+0.05": d + 0.05, "d+0.5": d + 0.5, "2d+1": 2 * d + 1}[name]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("row", GRID, ids="-".join)
def test_a_grid_run_keeps_its_verdict(row, seed, tmp_path):
    builtin, dist_name, rule = row
    raw = {"map": {"builtin": builtin, "dist": grid_dist(builtin, dist_name)}, "seed": seed,
           "rule": GRID_RULES[rule], "starts": {"count": 3}, "checks": GRID_CHECKS}
    code, summary = execute(parse_config(raw, out_override=str(tmp_path)), "run",
                            say=lambda _: None)
    want = GRID[row] if isinstance(GRID[row], str) else GRID[row][seed]
    assert " ".join([str(code), *sorted(c["name"] for c in summary["checks"]
                                        if c["status"] == "failed")]) == want
