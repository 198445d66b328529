"""Experiment configuration: a single JSON document, and the check table.

Vectors are written sparsely as {"index": value} maps ({"1": 1, "2": 1}
is e1 + e2); a plain list is accepted as dense shorthand.  The map comes
from the builtin registry; its convex sets and declared distance can be
overridden for contrapositive experiments.  See docs/config.schema.json
for the full shape.

CHECKS is the one description of the checks a config can name: whether
each needs trajectories, its parameters with their defaults, its seed
offset, and how it runs.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter
from typing import Any, Callable

from .certify import CERT_TOL, Certificate, certify, second_iterate_check, solve_and_certify
from .iterate import (
    TOL_STOP,
    StopRule,
    Trajectory,
    diagnose_cauchy,
    diagnose_even_gaps,
    diagnose_interleaved,
    diagnose_monotone_t,
    diagnose_t_limit,
)
from .maps import (
    QUANTIFICATIONS,
    CyclicMapSpec,
    MapsError,
    PhiSpec,
    builtin,
    check_cyclic_invariance,
    check_kannan,
    check_kannan_strict_hypothesis,
    check_phi_contraction,
)
from .report import INCONCLUSIVE, CheckReport, Violation, conclude, merge_reports
from .sets import Box, ConvexSet, Hull, SetsError, check_set, sample
from .space import TOL_NUM, NormedSpaceSpec, ProductPoint, SpaceError, Vector


class ConfigError(ValueError):
    pass


def _nonnegative(value: Any) -> float:
    """A tolerance or eps: a finite float >= 0 (JSON NaN and Infinity load)."""
    x = float(value)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"must be finite and >= 0, got {x!r}")
    return x


def _integer(value: Any, least: float = -math.inf) -> int:
    """An integer >= least; true, false, NaN, Infinity and fractions are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"must be >= {least}, got {value!r}")
    return int(value)


_count = partial(_integer, least=1)  # a sample, start, step or iteration count


def _quantification(value: Any) -> str:
    if value not in QUANTIFICATIONS:
        raise ValueError(f"must be one of {', '.join(QUANTIFICATIONS)}, got {value!r}")
    return value


def _given(convert: Callable[[Any], Any], value: Any, key: str) -> Any:
    """convert(value), or a ConfigError naming key."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def parse_vector(obj: Any) -> Vector:
    if isinstance(obj, dict):
        try:
            return Vector.from_map({int(k): float(v) for k, v in obj.items()})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad sparse vector {obj!r}: {exc}") from exc
    if isinstance(obj, list):
        try:
            return Vector.dense([float(v) for v in obj])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad dense vector {obj!r}: {exc}") from exc
    raise ConfigError(f"a vector must be an index->value map or a list, got {obj!r}")


def parse_point(obj: Any, key: str, space: NormedSpaceSpec) -> Vector:
    """parse_vector, with a non-finite coordinate or one outside space a
    ConfigError naming key."""
    v = parse_vector(obj)
    if not all(math.isfinite(x) for _, x in v.coords):
        raise ConfigError(f"{key}: coordinates must be finite, got {obj!r}")
    _given(space.validate, v, key)
    return v


def parse_pair(obj: Any, key: str, space: NormedSpaceSpec) -> tuple[Vector, Vector]:
    if not (isinstance(obj, list) and len(obj) == 2):
        raise ConfigError(f"a point pair must be a two-element list, got {obj!r}")
    return parse_point(obj[0], f"{key}[0]", space), parse_point(obj[1], f"{key}[1]", space)


def parse_set(obj: Any) -> ConvexSet:
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ConfigError(f"a set needs a 'variant' key, got {obj!r}")
    try:
        if obj["variant"] == "box":
            return Box(tuple(float(v) for v in obj["lower"]),
                       tuple(float(v) for v in obj["upper"]))
        if obj["variant"] == "hull":
            return Hull(tuple(parse_vector(v) for v in obj["vertices"]))
    except (KeyError, TypeError, ValueError, SetsError) as exc:
        raise ConfigError(f"bad set definition: {exc}") from exc
    raise ConfigError(
        f"unknown set variant {obj['variant']!r} (declared sets are builtin-only)")


def parse_phi(obj: Any) -> PhiSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"phi must be an object, got {obj!r}")
    try:
        if set(obj) == {"lambda"}:
            return PhiSpec.linear(float(obj["lambda"]))
        variant = obj.get("variant")
        if variant == "linear":
            return PhiSpec.linear(float(obj["lambda"]))
        if variant == "half":
            return PhiSpec.half()
        if variant == "custom":
            return PhiSpec.custom([(float(t), float(f)) for t, f in obj["table"]])
    except (KeyError, TypeError, ValueError, MapsError) as exc:
        raise ConfigError(f"bad phi spec: {exc}") from exc
    raise ConfigError(f"unknown phi spec {obj!r}")


@dataclass(frozen=True)
class CheckSpec:
    name: str
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def needs_trajectories(self) -> bool:
        return CHECKS[self.name].needs_trajectories


@dataclass(frozen=True)
class ExperimentConfig:
    map_name: str
    T: CyclicMapSpec
    phi: PhiSpec | None
    starts: list[tuple[Vector, Vector]]
    candidates: list[tuple[Vector, Vector]]
    rule: StopRule
    checks: list[CheckSpec]
    seed: int
    tol: float
    cert_tol: float
    output: str
    raw: dict

    def require_phi(self) -> PhiSpec:
        if self.phi is None:
            raise ConfigError(
                "no phi available: give map.phi in the config or pick a builtin "
                "with a declared contraction gauge")
        return self.phi


# ---------------------------------------------------------------------------
# the check table

# parameter defaults read from the experiment
CFG_TOL, CFG_CERT_TOL = attrgetter("tol"), attrgetter("cert_tol")


@dataclass
class CheckContext:
    """The experiment, its trajectories, and what certification gathered."""

    cfg: ExperimentConfig
    trajectories: list[Trajectory]
    say: Callable[[str], None]
    accepted: list[Certificate] = field(default_factory=list)
    certifications: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class Check:
    """One named check.

    params maps each parameter a config may give to (convert, default);
    the loader converts given values, a callable default reads the
    experiment, and a default of None leaves the value to the stop
    rule.  fn(ctx, name, p)
    runs the check with the resolved parameters p and p["seed"], the
    experiment's seed plus seed_offset.  fn calls the library by global
    name, so that a wrapper installed on a module attribute sees the call.
    """

    name: str
    needs_trajectories: bool
    params: dict[str, tuple[Callable[[Any], Any], Any]]
    seed_offset: int
    fn: Callable[[CheckContext, str, dict[str, Any]], CheckReport]

    def run(self, ctx: CheckContext, given: dict[str, Any]) -> CheckReport:
        p: dict[str, Any] = {"seed": ctx.cfg.seed + self.seed_offset}
        for key, (_, default) in self.params.items():
            p[key] = given[key] if key in given else (
                default(ctx.cfg) if callable(default) else default)
        return self.fn(ctx, self.name, p)


def _certify(ctx: CheckContext, name: str, pool_attr: str, tol: float) -> CheckReport:
    """Solve and certify from cfg.candidates or cfg.starts, and record the
    certificates for the summary and for second_iterate.  The starts'
    limits come from the runs the runner made; candidates are iterated
    here, at the experiment's tol."""
    pool = getattr(ctx.cfg, pool_attr)
    if not pool:
        raise ConfigError(f"check {name!r} needs {pool_attr}")
    runs = ctx.trajectories if pool_attr == "starts" else None
    records, uniq = solve_and_certify(ctx.cfg.T, pool, ctx.cfg.rule, tol, runs, ctx.cfg.tol)
    violations = []
    for i, rec in enumerate(records):
        cert = rec.certificate
        if cert is None:
            violations.append(Violation((f"start {i}", rec.reason), 1.0, 0.0,
                                        note="no limit produced"))
        elif cert.accepted:
            ctx.accepted.append(cert)
        else:  # a rejection on membership has no residuals to subtract
            lhs, rhs = (1.0, 0.0) if cert.residual_x is None else (
                max(abs(cert.residual_x - cert.dist_used), abs(cert.residual_y - cert.dist_used)),
                cert.tolerance)
            violations.append(Violation((f"start {i}", cert.reason), lhs, rhs,
                                        note=f"verdict {cert.verdict}"))
    ctx.certifications.append({
        "name": name,
        "certificates": [None if r.certificate is None else r.certificate.to_json()
                         for r in records],
        "uniqueness": uniq.to_json(),
    })
    ctx.say(f"{name}: {len(records)} starts, "
            f"max pairwise limit distance {uniq.max_pairwise_limit_distance!r}, "
            f"unique_within_tol={uniq.unique_within_tol}")
    return conclude(name, len(records), violations,
                    f"max pairwise limit distance {uniq.max_pairwise_limit_distance!r}; "
                    f"unique_within_tol={uniq.unique_within_tol}")


def _second_iterate(ctx: CheckContext, name: str, p: dict[str, Any]) -> CheckReport:
    """Second-iterate identity at every certified candidate or limit."""
    T = ctx.cfg.T
    pool = ctx.accepted or [certify(T, ProductPoint(x, y), tol=ctx.cfg.cert_tol)
                            for x, y in ctx.cfg.candidates]
    pool = [c for c in pool if c.accepted]
    if not pool:
        return CheckReport(name, 0, status=INCONCLUSIVE,
                           detail="no certified candidate available")
    return merge_reports(name, [second_iterate_check(T, c.candidate, p["tol"]) for c in pool])


def _each_run(diagnose: Callable[[Trajectory, dict[str, Any]], CheckReport]):
    """A check fn that diagnoses every trajectory and merges the reports."""
    return lambda ctx, name, p: merge_reports(name, [diagnose(t, p) for t in ctx.trajectories])


CHECKS: dict[str, Check] = {c.name: c for c in (
    Check("cyclic_invariance", False,
          {"samples": (_count, 200), "tol": (_nonnegative, CFG_TOL)}, 11,
          lambda ctx, _, p: check_cyclic_invariance(ctx.cfg.T, p["samples"], p["seed"],
                                                    p["tol"])),
    Check("phi_contraction", False,
          {"samples": (_count, 1000), "tol": (_nonnegative, CFG_TOL),
           "quantification": (_quantification, "all_cross_pairs"), "starts": (_count, 5),
           "steps": (_count, 20)}, 23,
          lambda ctx, _, p: check_phi_contraction(
              ctx.cfg.T, ctx.cfg.require_phi(), p["samples"], p["seed"],
              p["quantification"], p["starts"], p["steps"], p["tol"])),
    Check("kannan", False, {"samples": (_count, 1000), "tol": (_nonnegative, CFG_TOL)}, 37,
          lambda ctx, _, p: check_kannan(ctx.cfg.T, p["samples"], p["seed"], p["tol"])),
    Check("kannan_strict", False, {"samples": (_count, 500), "tol": (_nonnegative, CFG_TOL)}, 53,
          lambda ctx, _, p: check_kannan_strict_hypothesis(ctx.cfg.T, p["samples"],
                                                           p["seed"], p["tol"])),
    Check("certify_candidates", False, {"tol": (_nonnegative, CFG_CERT_TOL)}, 0,
          lambda ctx, name, p: _certify(ctx, name, "candidates", p["tol"])),
    Check("second_iterate", False, {"tol": (_nonnegative, CFG_CERT_TOL)}, 0, _second_iterate),
    Check("certify_limits", True, {"tol": (_nonnegative, CFG_CERT_TOL)}, 0,
          lambda ctx, name, p: _certify(ctx, name, "starts", p["tol"])),
    Check("monotone_t", True, {"tol": (_nonnegative, CFG_TOL)}, 0,
          _each_run(lambda t, p: diagnose_monotone_t(t, p["tol"]))),
    Check("t_limit", True, {"tol": (_nonnegative, None)}, 0,
          _each_run(lambda t, p: diagnose_t_limit(t, tol=p["tol"]))),
    Check("even_gaps", True, {"tol": (_nonnegative, None)}, 0,
          _each_run(lambda t, p: diagnose_even_gaps(t, tol=p["tol"]))),
    Check("interleaved", True,
          {"eps": (lambda v: tuple(map(_nonnegative, v)), (0.5, 0.1, 0.01)),
           "tol": (_nonnegative, CFG_TOL)}, 0,
          _each_run(lambda t, p: diagnose_interleaved(t, p["eps"], tol=p["tol"]))),
    Check("cauchy", True, {"k": (partial(_integer, least=2), 10), "tol": (_nonnegative, None)}, 0,
          _each_run(lambda t, p: diagnose_cauchy(t, p["k"], tol=p["tol"]))),
)}


def _parse_checks(obj: Any) -> list[CheckSpec]:
    if obj is None:
        return []
    if not isinstance(obj, list):
        raise ConfigError("'checks' must be a list")
    out = []
    for item in obj:
        if isinstance(item, str):
            name, params = item, {}
        elif isinstance(item, dict) and "name" in item:
            name = item["name"]
            params = {k: v for k, v in item.items() if k != "name"}
        else:
            raise ConfigError(f"bad check entry {item!r}")
        if name not in CHECKS:
            raise ConfigError(
                f"unknown check {name!r}; available: {', '.join(sorted(CHECKS))}")
        for k in params:
            if k not in CHECKS[name].params:
                raise ConfigError(f"check {name!r} takes no parameter {k!r}")
            try:
                params[k] = CHECKS[name].params[k][0](params[k])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"check {name!r}: bad parameter {k!r}: {exc}") from exc
        out.append(CheckSpec(name, params))
    return out


def _parse_rule(obj: Any) -> StopRule:
    if obj is None:
        return StopRule()
    if not isinstance(obj, dict):
        raise ConfigError("'rule' must be an object")
    known = {"max_iters", "t_tol", "gap_tol"}
    for k in obj:
        if k not in known:
            raise ConfigError(f"rule takes no key {k!r}")
    tols = {}
    for k in ("t_tol", "gap_tol"):
        v = obj.get(k, TOL_STOP)
        tols[k] = None if v is None else _given(_nonnegative, v, f"rule.{k}")
    max_iters = _given(_count, obj.get("max_iters", 1000), "rule.max_iters")
    try:
        return StopRule(max_iters=max_iters, **tols)
    except ValueError as exc:
        raise ConfigError(f"bad stop rule: {exc}") from exc


def _resolve_starts(obj: Any, T: CyclicMapSpec, default_seed: int) -> list[tuple[Vector, Vector]]:
    if obj is None:
        return []
    if isinstance(obj, dict) and "explicit" in obj:
        return [parse_pair(p, f"starts.explicit[{i}]", T.space)
                for i, p in enumerate(obj["explicit"])]
    if isinstance(obj, dict) and "count" in obj:
        n = _given(_count, obj["count"], "starts.count")
        seed = _given(_integer, obj.get("seed", default_seed), "starts.seed")
        xs = sample(T.A, T.space, n, seed=seed)
        ys = sample(T.B, T.space, n, seed=seed + 1000003)
        return list(zip(xs, ys))
    raise ConfigError("'starts' needs either 'explicit' or 'count'")


def parse_config(raw: dict, seed_override: int | None = None,
                 max_iters_override: int | None = None,
                 tol_override: float | None = None,
                 out_override: str | None = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("the configuration document must be a JSON object")
    known = {"map", "starts", "candidates", "rule", "checks", "seed", "tol",
             "cert_tol", "output"}
    for k in raw:
        if k not in known:
            raise ConfigError(f"unknown configuration key {k!r}")

    map_cfg = raw.get("map")
    if not (isinstance(map_cfg, dict) and "builtin" in map_cfg):
        raise ConfigError("'map' must be an object naming a 'builtin'")
    for k in map_cfg:
        if k not in {"builtin", "phi", "lambda", "sets", "dist"}:
            raise ConfigError(f"map takes no key {k!r}")
    try:
        T = builtin(str(map_cfg["builtin"]))
    except MapsError as exc:
        raise ConfigError(str(exc)) from exc

    if "sets" in map_cfg:
        pair = map_cfg["sets"]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError("map.sets must be a two-element list")
        T = replace(T, A=parse_set(pair[0]), B=parse_set(pair[1]))
        try:
            for S in (T.A, T.B):
                check_set(S, T.space)
        except (SetsError, SpaceError) as exc:
            raise ConfigError(f"bad set in map.sets: {exc}") from exc
    if "dist" in map_cfg:
        T = replace(T, declared_dist=_given(_nonnegative, map_cfg["dist"], "map.dist"))

    phi = T.phi
    if "phi" in map_cfg:
        phi = parse_phi(map_cfg["phi"])
    elif "lambda" in map_cfg:
        phi = parse_phi({"lambda": map_cfg["lambda"]})

    seed = _given(_integer, raw.get("seed", 0), "seed") if seed_override is None else seed_override
    rule = _parse_rule(raw.get("rule"))
    if max_iters_override is not None:
        rule = StopRule(_given(_count, max_iters_override, "--max-iters"), rule.t_tol, rule.gap_tol)
    tol = (_given(_nonnegative, raw.get("tol", TOL_NUM), "tol") if tol_override is None
           else _given(_nonnegative, tol_override, "--tol"))
    output = str(raw.get("output", "out")) if out_override is None else out_override

    try:
        starts = _resolve_starts(raw.get("starts"), T, seed)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad starts: {exc}") from exc
    candidates = [parse_pair(p, f"candidates[{i}]", T.space)
                  for i, p in enumerate(raw.get("candidates", []))]

    return ExperimentConfig(
        map_name=str(map_cfg["builtin"]),
        T=T,
        phi=phi,
        starts=starts,
        candidates=candidates,
        rule=rule,
        checks=_parse_checks(raw.get("checks")),
        seed=seed,
        tol=tol,
        cert_tol=_given(_nonnegative, raw.get("cert_tol", CERT_TOL), "cert_tol"),
        output=output,
        raw=raw,
    )


def load_config(path: str, **overrides) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return parse_config(raw, **overrides)
