"""The verdicts of a corpus of map mutants.

Each row is a shipped config with one override of its map object, run
in-process at the config's own seed.  The test pins the exit code and the
sorted names of the checks that failed.  Rows that exit 1 break the map's
declared distance, its gauge or its cyclicity; the rows that exit 0 change
a set but keep the map valid.  A change that moves any verdict shows here
as a changed row.
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
