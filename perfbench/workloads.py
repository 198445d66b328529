"""The three benchmark workloads: inputs, set-up, one op, and its check.

Each workload is a class with the same five steps:

- ``setup()`` builds the maps and configs the ops need (timed as setup_s
  in a fresh interpreter by setup_probe.py);
- ``inputs()`` gives the run's op inputs, generated from the seed.  A
  run repeats this list in whole rounds, so the mix of shapes is the
  same on every run and commit, and the same seed always gives the same
  distinct inputs and so the same verdicts;
- ``op(x)`` makes the library calls of one op and returns its output;
- ``check(done)`` decides, after the timed loop, which ops failed.  It
  returns one Verdict per op.  ``unsound`` marks an answer that is wrong
  in a way no known defect explains, which makes the whole run incorrect;
- ``negative_controls(done)`` feeds the workload's judge deliberately
  wrong outputs and reports whether each one was caught.

The library is only reached through the public module attributes
(``config.load_config``, ``runner.execute``, ``sets.contains``, ...), so
that the tracer can wrap them.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from proxcycle import config, maps, runner, sets, space
from proxcycle.config import CheckSpec, ExperimentConfig
from proxcycle.iterate import StopRule

import geometry

HERE = os.path.dirname(os.path.abspath(__file__))


def _quiet(_msg: str) -> None:
    pass


@dataclass
class Done:
    """One executed op: its input, its output (None if it raised), the
    error, and the input's place in the run's input list."""

    x: Any
    out: Any
    error: str | None
    index: int
    traced: bool = False


@dataclass(frozen=True)
class Verdict:
    failed: bool
    unsound: bool = False
    why: str = ""


def _raised(d: Done) -> Verdict:
    return Verdict(True, True, f"raised {d.error}")


# ---------------------------------------------------------------------------
# shipped_configs

# config -> (exit code, its checks in order, the checks that fail); the
# exit codes are those of the README table.  The verdicts are the same at every seed tried (0-24, 101, 9999, 2**31 - 1).
_PASS = "passed"
_FAIL = "failed"
SHIPPED = {
    "interval": (0, ("cyclic_invariance", "phi_contraction", "certify_candidates",
                     "certify_limits", "second_iterate", "monotone_t", "t_limit",
                     "even_gaps", "interleaved", "cauchy"), ()),
    "overlap": (0, ("cyclic_invariance", "phi_contraction", "certify_limits",
                    "second_iterate", "monotone_t", "t_limit", "even_gaps"), ()),
    "l1_kannan": (0, ("cyclic_invariance", "kannan", "kannan_strict_hypothesis",
                      "certify_candidates", "certify_limits", "t_limit", "even_gaps"), ()),
    "flip_negative": (1, ("cyclic_invariance", "phi_contraction", "monotone_t", "t_limit"),
                      ("phi_contraction", "t_limit")),
    "non_cyclic_negative": (1, ("cyclic_invariance",), ("cyclic_invariance",)),
}


def expected_statuses(name: str) -> list[tuple[str, str]]:
    _, checks, failing = SHIPPED[name]
    return [(c, _FAIL if c in failing else _PASS) for c in checks]


def read_outputs(outdir: str) -> dict[str, bytes]:
    out = {}
    for fn in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, fn), "rb") as fh:
            out[fn] = fh.read()
    return out


class ShippedConfigs:
    """load_config + runner.execute(mode="run") on the five shipped configs."""

    name = "shipped_configs"

    def __init__(self, root: str, seed: int, outdir: str):
        self.seed, self.outdir = seed, outdir
        self.paths = {n: os.path.join(root, "configs", n + ".json") for n in SHIPPED}
        self.count = 0

    def setup(self) -> None:
        for p in self.paths.values():
            if not os.path.isfile(p):
                raise FileNotFoundError(p)

    def inputs(self) -> list[str]:
        return list(SHIPPED)

    def op(self, name: str):
        self.count += 1
        out = os.path.join(self.outdir, f"op{self.count:06d}-{name}")
        cfg = config.load_config(self.paths[name], seed_override=self.seed, out_override=out)
        code, summary = runner.execute(cfg, "run", say=_quiet)
        return out, code, [(c["name"], c["status"]) for c in summary["checks"]]

    def judge(self, name: str, out, reference: dict[str, bytes]) -> Verdict:
        outdir, code, statuses = out
        if code != SHIPPED[name][0]:
            return Verdict(True, True, f"{name}: exit code {code}")
        if statuses != expected_statuses(name):
            return Verdict(True, True, f"{name}: statuses {statuses}")
        got = read_outputs(outdir)
        if got != reference:
            diff = sorted(set(got) ^ set(reference)
                          | {k for k in set(got) & set(reference) if got[k] != reference[k]})
            return Verdict(True, True, f"{name}: outputs differ from the first run: {diff}")
        return Verdict(False)

    def check(self, done: list[Done]) -> list[Verdict]:
        refs: dict[str, dict[str, bytes]] = {}
        verdicts = []
        for d in done:
            if d.error is not None:
                verdicts.append(_raised(d))
                continue
            if d.x not in refs:
                refs[d.x] = read_outputs(d.out[0])
            verdicts.append(self.judge(d.x, d.out, refs[d.x]))
        return verdicts

    def negative_controls(self, done: list[Done]) -> list[tuple[str, bool]]:
        d = next(d for d in done if d.error is None)
        outdir, code, statuses = d.out
        ref = read_outputs(outdir)
        bad = dict(ref)
        blob = bytearray(bad["summary.json"])
        blob[len(blob) // 2] ^= 0x01
        bad["summary.json"] = bytes(blob)
        return [
            ("changed byte in summary.json", self.judge(d.x, d.out, bad).failed),
            ("wrong exit code", self.judge(d.x, (outdir, 1 - code, statuses), ref).failed),
        ]


# ---------------------------------------------------------------------------
# long_trajectory

DIMS_LONG = (2, 8, 32)
# kappa for each op shape: about 2,400 and about 400 points to t_tol
KAPPA = {"produce": 0.99, "analyse": 0.94}
# the l2 norm of a start's offset from the limit, per sqrt(d)
START_OFFSET = 0.625
T_TOL = 1e-10
CERT_TOL = 1e-8
PRODUCE_CHECKS = ("certify_limits", "monotone_t", "t_limit", "even_gaps", "cauchy")
ANALYSE_CHECKS = ("certify_candidates", "certify_limits", "second_iterate", "monotone_t",
                  "t_limit", "even_gaps", "interleaved", "cauchy")
# the alternation runs on to a seventh op, a second produce at d = 2: with
# six ops of six costs the median would fall in the gap between the three
# cheap and the three dear ones; with seven it falls among the cheap ones
ROUND_LONG = tuple(("produce" if i % 2 == 0 else "analyse", DIMS_LONG[i % 3]) for i in range(7))


def box_pair_map(d: int, kappa: float) -> maps.CyclicMapSpec:
    """A = [1,2]^d, B = [-2,-1]^d; T sends |x_i| - 1 to kappa (|x_i| - 1)
    on the other side, so iterates converge to (1,...,1), (-1,...,-1)."""
    sp = space.NormedSpaceSpec(norm="l2", mode="dense", dimension=d)
    A = sets.Box((1.0,) * d, (2.0,) * d)
    B = sets.Box((-2.0,) * d, (-1.0,) * d)

    def ev(x, y, side):
        # O(d): every coordinate of a point of A or B is nonzero, so
        # x.coords lists all d of them in index order
        sign = -1.0 if side == maps.SIDE_AB else 1.0
        return space.Vector.dense([sign * (1.0 + kappa * (abs(v) - 1.0)) for _, v in x.coords])

    return maps.CyclicMapSpec(f"box_pair_d{d}", sp, A, B, ev,
                              declared_class="none", declared_dist=2.0 * math.sqrt(d))


class LongTrajectory:
    """One runner.execute experiment per op on a box-pair contraction."""

    name = "long_trajectory"

    def __init__(self, root: str, seed: int, outdir: str):
        self.seed, self.outdir = seed, outdir
        self.count = 0
        self.templates: dict[tuple[str, int], ExperimentConfig] = {}

    def setup(self) -> None:
        for shape, checks in (("produce", PRODUCE_CHECKS), ("analyse", ANALYSE_CHECKS)):
            for d in DIMS_LONG:
                T = box_pair_map(d, KAPPA[shape])
                pair = (space.Vector.dense([1.0] * d), space.Vector.dense([-1.0] * d))
                raw = {"map": T.label, "kappa": KAPPA[shape], "dimension": d,
                       "rule": {"max_iters": 10_000, "t_tol": T_TOL, "gap_tol": None},
                       "checks": list(checks), "cert_tol": CERT_TOL}
                self.templates[shape, d] = ExperimentConfig(
                    map_name=T.label, T=T, phi=None, starts=[],
                    candidates=[pair] if "certify_candidates" in checks else [],
                    rule=StopRule(max_iters=10_000, t_tol=T_TOL, gap_tol=None),
                    checks=[CheckSpec(c) for c in checks], seed=self.seed, tol=1e-9,
                    cert_tol=CERT_TOL, output="", raw=raw)

    def inputs(self) -> list[tuple[str, int, list[float], list[float]]]:
        rng = np.random.default_rng(abs(self.seed))

        def offset(d: int) -> list[float]:
            # |x_i| - 1 in [0.5, 0.75], scaled to the l2 norm 0.625 sqrt(d):
            # the map shrinks the whole offset by kappa per step, so a
            # fixed norm keeps the run length alike from seed to seed
            u = rng.uniform(0.5, 0.75, d)
            return list(1.0 + u * (START_OFFSET * math.sqrt(d) / np.linalg.norm(u)))

        return [(shape, d, offset(d), [-v for v in offset(d)]) for shape, d in ROUND_LONG]

    def op(self, x):
        shape, d, x0, y0 = x
        self.count += 1
        out = os.path.join(self.outdir, f"op{self.count:06d}-{shape}-d{d}")
        t = self.templates[shape, d]
        start = (space.Vector.dense(x0), space.Vector.dense(y0))
        cfg = dataclasses.replace(t, starts=[start], output=out,
                                  raw={**t.raw, "start": [x0, y0]})
        code, summary = runner.execute(cfg, "run", say=_quiet)
        return out, code, summary

    @staticmethod
    def judge(x, out) -> Verdict:
        shape, d = x[0], x[1]
        outdir, code, summary = out
        tag = f"{shape} d={d}"
        if code != 0:
            return Verdict(True, True, f"{tag}: exit code {code}")
        bad = [c["name"] for c in summary["checks"] if c["status"] != _PASS]
        if bad:
            return Verdict(True, True, f"{tag}: checks not passed: {bad}")
        run = summary["runs"][0]
        if run["stop_reason"] != "converged_t":
            return Verdict(True, True, f"{tag}: stop reason {run['stop_reason']}")
        limits = [c for c in summary["certifications"] if c["name"] == "certify_limits"]
        cert = limits[0]["certificates"][0]
        x_lim, y_lim = _parse_pair(cert["candidate"])
        miss = max(max(abs(v - 1.0) for v in x_lim), max(abs(v + 1.0) for v in y_lim))
        if len(x_lim) != d or len(y_lim) != d or miss > CERT_TOL:
            return Verdict(True, True, f"{tag}: certified limit misses the pair by {miss!r}")
        with open(os.path.join(outdir, run["trace"]), "rb") as fh:
            rows = fh.read().count(b"\n") - 1
        if rows != run["n_points"]:
            return Verdict(True, True, f"{tag}: trace has {rows} rows, not {run['n_points']}")
        return Verdict(False)

    def check(self, done: list[Done]) -> list[Verdict]:
        return [_raised(d) if d.error is not None else self.judge(d.x, d.out) for d in done]

    def negative_controls(self, done: list[Done]) -> list[tuple[str, bool]]:
        d = next(d for d in done if d.error is None)
        outdir, code, summary = d.out
        return [("wrong exit code", self.judge(d.x, (outdir, 1, summary)).failed)]


_COORD = re.compile(r"(\d+): ([^,}]+)")


def _parse_pair(text: str) -> tuple[list[float], list[float]]:
    """Inverse of report.render_pair for dense vectors."""
    first, second = re.findall(r"\{[^}]*\}", text)
    return ([float(v) for _, v in _COORD.findall(first)],
            [float(v) for _, v in _COORD.findall(second)])


# ---------------------------------------------------------------------------
# hull_geometry

# a distance may differ from the oracle by this much (relative, floor 1)
DIST_RTOL = 1e-6


class HullGeometry:
    """sets.contains and sets.dist on seeded hull pairs (see geometry.py)."""

    name = "hull_geometry"

    def __init__(self, root: str, seed: int, outdir: str):
        self.seed, self.outdir = seed, outdir
        self.spaces: dict[tuple[str, int], space.NormedSpaceSpec] = {}
        self.oracle: dict[str, dict] = {}

    def setup(self) -> None:
        for d, _ in geometry.DIMS:
            for norm in geometry.NORMS:
                self.spaces[norm, d] = space.NormedSpaceSpec(norm=norm, mode="dense", dimension=d)

    def inputs(self) -> list[tuple]:
        ops = []
        for i in range(len(geometry.DIMS)):
            for j in range(len(geometry.NORMS)):
                p = geometry.instance(self.seed, i, j)
                hulls = [sets.Hull(tuple(space.Vector.dense(v) for v in V)) for V in (p.A, p.B)]
                sp = self.spaces["l2", p.dim]
                ops.append(("member", hulls[p.member_of], sp, space.Vector.dense(p.member), True))
                for which, x in p.nonmembers:
                    ops.append(("nonmember", hulls[which], sp, space.Vector.dense(x), False))
                ops.append(("dist", hulls[0], hulls[1], self.spaces[p.norm, p.dim], f"{i}.{j}"))
        return ops

    def op(self, x):
        if x[0] == "dist":
            res = sets.dist(x[1], x[2], x[3])
            return res.value, res.method, res.converged
        return sets.contains(x[1], x[2], x[3])

    def load_oracle(self) -> None:
        path = os.path.join(os.path.dirname(self.outdir), f"oracle-seed{self.seed}.json")
        subprocess.run([sys.executable, os.path.join(HERE, "oracle.py"), "--seed", str(self.seed),
                        "--cache", path], check=True, timeout=170)
        with open(path) as fh:
            self.oracle = json.load(fh)["values"]

    def judge(self, x, out) -> Verdict:
        if x[0] != "dist":
            truth = x[4]
            if out == truth:
                return Verdict(False)
            if truth:
                return Verdict(True, False, f"member of a {x[2].dimension}-D hull rejected")
            return Verdict(True, True, f"non-member of a {x[2].dimension}-D hull accepted")
        value, method = out[0], out[1]
        ref = self.oracle[x[4]]["value"]
        err = value - ref
        if abs(err) <= DIST_RTOL * max(1.0, ref):
            return Verdict(False)
        tag = f"{x[3].norm} distance in {x[3].dimension}-D by {method}"
        if err < 0:
            return Verdict(True, True, f"{tag}: {value!r} below the optimum {ref!r}")
        return Verdict(True, False, f"{tag}: {value!r} above the optimum {ref!r}")

    def accuracy(self, judged: list[tuple[Done, Verdict]]) -> tuple[int, float]:
        """Wrong membership answers, and the largest relative distance error."""
        wrong = sum(1 for d, v in judged if d.x[0] != "dist" and v.failed)
        errs = [abs(d.out[0] - self.oracle[d.x[4]]["value"]) / self.oracle[d.x[4]]["value"]
                for d, _ in judged if d.x[0] == "dist" and d.error is None]
        return wrong, max(errs, default=0.0)

    def check(self, done: list[Done]) -> list[Verdict]:
        self.load_oracle()
        return [_raised(d) if d.error is not None else self.judge(d.x, d.out) for d in done]

    def negative_controls(self, done: list[Done]) -> list[tuple[str, bool]]:
        member = next(d for d in done if d.x[0] == "member" and d.error is None)
        dist = next(d for d in done if d.x[0] == "dist" and d.error is None)
        ref = self.oracle[dist.x[4]]["value"]
        moved = (ref + 10 * DIST_RTOL * max(1.0, ref),) + tuple(dist.out[1:])
        return [
            ("flipped membership answer", self.judge(member.x, not member.x[4]).failed),
            ("distance moved off the oracle", self.judge(dist.x, moved).failed),
        ]


WORKLOADS = {w.name: w for w in (ShippedConfigs, LongTrajectory, HullGeometry)}
