"""Experiment execution: runs checks and trajectories, writes traces and
a summary document, and turns the outcome into a process exit code.

Exit codes are the machine contract: 0 when every requested check passed
or was inconclusive by budget, 1 when any check found violations, 2 for
configuration errors (handled by the command layer).
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Callable, Iterator

from .certify import certify
from .config import CHECKS, CheckContext, ConfigError, ExperimentConfig, parse_point
from .iterate import Trajectory, run, trajectory_to_csv
from .maps import DomainError
from .report import FAILED, INCONCLUSIVE, NOT_APPLICABLE, PASSED, CheckReport
from .space import ProductPoint

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


@contextmanager
def _writing(path: str) -> Iterator[None]:
    """An OSError raised while writing path is a ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _run_trajectories(cfg: ExperimentConfig, outdir: str,
                      say: Callable[[str], None]) -> list[Trajectory]:
    trajectories = []
    for i, (x0, y0) in enumerate(cfg.starts):
        try:
            traj = run(cfg.T, x0, y0, cfg.rule, tol=cfg.tol)
        except DomainError as exc:
            raise ConfigError(f"start {i} is unusable: {exc}") from exc
        trajectories.append(traj)
        path = os.path.join(outdir, f"trace_{i:03d}.csv")
        with _writing(path):
            trajectory_to_csv(traj, path)
        final_t = traj.t_series[-1] if traj.t_series else float("nan")
        say(f"run {i}: {traj.stop_reason} after {traj.n_points} points, "
            f"final t = {final_t!r}")
    return trajectories


def execute(cfg: ExperimentConfig, mode: str,
            say: Callable[[str], None] = print) -> tuple[int, dict]:
    """Run the experiment; returns (exit_code, summary dict)."""
    dynamic = [c for c in cfg.checks if c.needs_trajectories]
    if mode == "verify" and dynamic:
        names = ", ".join(c.name for c in dynamic)
        raise ConfigError(f"verify runs static checks only; {names} need trajectories "
                          f"(use the run command)")
    if dynamic and not cfg.starts:
        raise ConfigError(f"check {dynamic[0].name!r} needs starts")
    names = {c.name for c in cfg.checks}
    if "certify_candidates" in names and not cfg.candidates:
        raise ConfigError("check 'certify_candidates' needs candidates")
    if "phi_contraction" in names and cfg.phi is None:
        raise ConfigError("no phi available: give map.phi in the config or pick a builtin "
                          "with a declared contraction gauge")

    outdir = cfg.output
    with _writing(outdir):
        os.makedirs(outdir, exist_ok=True)

    trajectories = _run_trajectories(cfg, outdir, say) if mode == "run" else []

    ctx = CheckContext(cfg, trajectories, say)
    reports: list[CheckReport] = []
    for spec in cfg.checks:
        rep = CHECKS[spec.name].run(ctx, spec.params)
        reports.append(rep)
        _say_report(rep, say)

    failed = any(r.status == FAILED for r in reports)
    exit_code = EXIT_VIOLATION if failed else EXIT_OK
    summary = {
        "mode": mode,
        "map": cfg.map_name,
        "seed": cfg.seed,
        "tol": cfg.tol,
        "config": cfg.raw,
        "checks": [r.to_json() for r in reports],
        "runs": [
            {
                "start_index": i,
                "stop_reason": t.stop_reason,
                "n_points": t.n_points,
                "final_t": t.t_series[-1] if t.t_series else None,
                "error_index": t.error_index,
                "trace": f"trace_{i:03d}.csv",
            }
            for i, t in enumerate(trajectories)
        ],
        "certifications": ctx.certifications,
        "exit_code": exit_code,
    }
    path = os.path.join(outdir, "summary.json")
    with _writing(path), open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    say(f"summary written to {path}")
    return exit_code, summary


def _say_report(rep: CheckReport, say: Callable[[str], None]) -> None:
    tag = {PASSED: "PASS", FAILED: "FAIL", INCONCLUSIVE: "INCONCLUSIVE",
           NOT_APPLICABLE: "N/A"}.get(rep.status, rep.status.upper())
    line = f"[{tag}] {rep.name}: checked={rep.checked}"
    if rep.detail:
        line += f" ({rep.detail})"
    say(line)
    for v in rep.violations[:3]:
        say(f"    violated: lhs={v.lhs!r} rhs={v.rhs!r} slack={v.slack!r} "
            f"inputs={' | '.join(v.inputs)}" + (f" [{v.note}]" if v.note else ""))
    if len(rep.violations) > 3:
        say(f"    ... and {len(rep.violations) - 3} more")


def run_certify_command(cfg: ExperimentConfig, x_obj, y_obj,
                        say: Callable[[str], None] = print) -> int:
    """Certify a single explicit candidate; exit 0 only if accepted."""
    x, y = parse_point(x_obj, "--x", cfg.T.space), parse_point(y_obj, "--y", cfg.T.space)
    cert = certify(cfg.T, ProductPoint(x, y), tol=cfg.cert_tol)
    say(json.dumps(cert.to_json(), indent=2, sort_keys=True))
    return EXIT_OK if cert.accepted else EXIT_VIOLATION
