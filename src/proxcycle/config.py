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
    StopRule,
    Trajectory,
    diagnose_cauchy,
    diagnose_even_gaps,
    diagnose_interleaved,
    diagnose_monotone_t,
    diagnose_t_limit,
)
from .maps import (
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
from .space import TOL_NUM, NormedSpaceSpec, ProductPoint, SpaceError, Vector, larger


class ConfigError(ValueError):
    pass


def _fields(obj: Any, key: str, required: tuple = (), optional: tuple = ()) -> dict:
    """obj, the JSON object at key, holding every required key and no key
    that is neither required nor optional."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{key} must be an object, got {obj!r}")
    for k in obj:
        if k not in required and k not in optional:
            raise ConfigError(f"{key} takes no key {k!r}")
    for k in required:
        if k not in obj:
            raise ConfigError(f"{key} needs key {k!r}")
    return obj


def _array(obj: Any, key: str, least: int = 0, exact: bool = False) -> list:
    """obj, the JSON array at key, of least items if exact, else of least or more."""
    if not isinstance(obj, list) or (len(obj) != least if exact else len(obj) < least):
        size = f" of {least}{'' if exact else ' or more'} items" if exact or least else ""
        raise ConfigError(f"{key} must be a list{size}, got {obj!r}")
    return obj


def _number(value: Any) -> float:
    """A JSON number as a float; true, false and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def _nonnegative(value: Any) -> float:
    """A tolerance or eps: a finite number >= 0 (JSON NaN and Infinity load)."""
    x = _number(value)
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


_count = partial(_integer, least=1)  # a sample, start or iteration count


def _given(convert: Callable[[Any], Any], value: Any, key: str) -> Any:
    """convert(value), or a ConfigError naming key."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def parse_vector(obj: Any, key: str) -> Vector:
    """A sparse {"index": value} map, each index ASCII digits with no leading
    zero, or a dense list."""
    if isinstance(obj, dict):
        if not all(k.isascii() and k.isdigit() for k in obj):
            raise ConfigError(f"{key}: sparse indices must be ASCII digits, got {list(obj)!r}")
        for k in obj:
            if k != "0" and k.startswith("0"):  # "01" and "1" would name one coordinate
                raise ConfigError(f"{key}: sparse index {k!r} has a leading zero")
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        raise ConfigError(f"{key}: a vector must be an index->value map or a list, got {obj!r}")
    return Vector.from_map({int(i): _given(_number, v, key) for i, v in items})


def parse_point(obj: Any, key: str, space: NormedSpaceSpec) -> Vector:
    """parse_vector, with a non-finite coordinate or one outside space a
    ConfigError naming key."""
    v = parse_vector(obj, key)
    if not all(math.isfinite(x) for _, x in v.coords):
        raise ConfigError(f"{key}: coordinates must be finite, got {obj!r}")
    _given(space.validate, v, key)
    return v


def parse_pair(obj: Any, key: str, space: NormedSpaceSpec) -> tuple[Vector, Vector]:
    x, y = _array(obj, key, 2, exact=True)
    return parse_point(x, f"{key}[0]", space), parse_point(y, f"{key}[1]", space)


def parse_set(obj: Any, key: str) -> ConvexSet:
    """{"variant": "box", "lower": [...], "upper": [...]} or
    {"variant": "hull", "vertices": [vector, ...]}."""
    variant = obj.get("variant") if isinstance(obj, dict) else None
    try:
        if variant == "box":
            box = _fields(obj, key, ("variant", "lower", "upper"))
            return Box(*(tuple(_given(_number, v, f"{key}.{b}")
                               for v in _array(box[b], f"{key}.{b}")) for b in ("lower", "upper")))
        if variant == "hull":
            hull = _fields(obj, key, ("variant", "vertices"))
            return Hull(tuple(parse_vector(v, f"{key}.vertices[{i}]")
                              for i, v in enumerate(_array(hull["vertices"], f"{key}.vertices"))))
    except SetsError as exc:
        raise ConfigError(f"bad set definition: {exc}") from exc
    raise ConfigError(f"{key} must be a box or hull set (declared sets are builtin-only)")


def parse_phi(obj: Any, key: str = "map.phi") -> PhiSpec:
    """A linear gauge {"lambda": lam}, or {"variant": "custom", "table":
    [[t, phi(t)], ...]}."""
    custom = isinstance(obj, dict) and "variant" in obj
    if custom and obj["variant"] != "custom":
        raise ConfigError(f"{key}: unknown phi variant {obj['variant']!r}")
    phi = _fields(obj, key, ("variant", "table") if custom else ("lambda",))
    try:
        if custom:
            rows = enumerate(_array(phi["table"], f"{key}.table"))
            return PhiSpec.custom([[_given(_number, x, f"{key}.table[{i}]")
                                    for x in _array(row, f"{key}.table[{i}]", 2, True)]
                                   for i, row in rows])
        return PhiSpec.linear(_given(_number, phi["lambda"], f"{key}.lambda"))
    except MapsError as exc:
        raise ConfigError(f"bad phi spec: {exc}") from exc


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
    here, at the experiment's tol.  The runner has refused an empty pool."""
    pool = getattr(ctx.cfg, pool_attr)
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
            lhs, rhs = (1.0, 0.0) if cert.residual_x is None else (larger(
                abs(cert.residual_x - cert.dist_used), abs(cert.residual_y - cert.dist_used)),
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
    Check("phi_contraction", False, {"samples": (_count, 1000), "tol": (_nonnegative, CFG_TOL)}, 23,
          lambda ctx, _, p: check_phi_contraction(ctx.cfg.T, ctx.cfg.phi, p["samples"],
                                                  p["seed"], p["tol"])),
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
          {"eps": (lambda v: tuple(map(_nonnegative, _array(v, "eps", 1))), (0.5, 0.1, 0.01)),
           "tol": (_nonnegative, CFG_TOL)}, 0,
          _each_run(lambda t, p: diagnose_interleaved(t, p["eps"], tol=p["tol"]))),
    Check("cauchy", True, {"k": (partial(_integer, least=2), 10), "tol": (_nonnegative, None)}, 0,
          _each_run(lambda t, p: diagnose_cauchy(t, p["k"], tol=p["tol"]))),
)}


def _parse_checks(obj: Any) -> list[CheckSpec]:
    out = []
    for i, item in enumerate(_array(obj, "checks")):
        name = item.get("name") if isinstance(item, dict) else item
        if name not in sorted(CHECKS):  # compared by ==, so an unhashable name is refused too
            raise ConfigError(
                f"checks[{i}]: unknown check {name!r}; available: {', '.join(sorted(CHECKS))}")
        check = CHECKS[name]
        given = (_fields(item, f"check {name!r}", ("name",), tuple(check.params))
                 if isinstance(item, dict) else {})
        out.append(CheckSpec(name, {
            k: _given(check.params[k][0], v, f"check {name!r}: bad parameter {k!r}")
            for k, v in given.items() if k != "name"}))
    return out


def _parse_rule(obj: Any) -> StopRule:
    tol = lambda v: None if v is None else _nonnegative(v)  # null switches the trigger off
    readers = {"max_iters": _count, "t_tol": tol, "gap_tol": tol}
    given = {k: _given(readers[k], v, f"rule.{k}")
             for k, v in _fields(obj, "rule", (), tuple(readers)).items()}
    try:
        return replace(StopRule(), **given)
    except ValueError as exc:
        raise ConfigError(f"bad stop rule: {exc}") from exc


def _resolve_starts(obj: Any, T: CyclicMapSpec, default_seed: int) -> list[tuple[Vector, Vector]]:
    """{"explicit": [pair, ...]}, or {"count": n} with an optional "seed"."""
    if isinstance(obj, dict) and "explicit" in obj:
        pairs = _array(_fields(obj, "starts", ("explicit",))["explicit"], "starts.explicit", 1)
        return [parse_pair(p, f"starts.explicit[{i}]", T.space) for i, p in enumerate(pairs)]
    given = _fields(obj, "starts", ("count",), ("seed",))
    n = _given(_count, given["count"], "starts.count")
    seed = _given(_integer, given.get("seed", default_seed), "starts.seed")
    xs = sample(T.A, T.space, n, seed=seed)
    ys = sample(T.B, T.space, n, seed=seed + 1000003)
    return list(zip(xs, ys))


def parse_config(raw: dict, seed_override: int | None = None,
                 max_iters_override: int | None = None,
                 tol_override: float | None = None,
                 out_override: str | None = None) -> ExperimentConfig:
    _fields(raw, "the configuration document", ("map",),
            ("starts", "candidates", "rule", "checks", "seed", "tol", "cert_tol", "output"))
    map_cfg = _fields(raw["map"], "map", ("builtin",), ("phi", "lambda", "sets", "dist"))
    try:
        T = builtin(str(map_cfg["builtin"]))
    except MapsError as exc:
        raise ConfigError(str(exc)) from exc

    if "sets" in map_cfg:
        A, B = (parse_set(s, f"map.sets[{i}]")
                for i, s in enumerate(_array(map_cfg["sets"], "map.sets", 2, True)))
        T = replace(T, A=A, B=B)
        try:
            for S in (T.A, T.B):
                check_set(S, T.space)
        except (SetsError, SpaceError) as exc:
            raise ConfigError(f"bad set in map.sets: {exc}") from exc
    if "dist" in map_cfg:
        T = replace(T, declared_dist=_given(_nonnegative, map_cfg["dist"], "map.dist"))

    if "phi" in map_cfg and "lambda" in map_cfg:
        raise ConfigError("map takes phi or lambda, not both")
    phi = (parse_phi(map_cfg["phi"]) if "phi" in map_cfg
           else parse_phi({"lambda": map_cfg["lambda"]}, "map") if "lambda" in map_cfg
           else T.phi)

    seed = _given(_integer, raw.get("seed", 0), "seed") if seed_override is None else seed_override
    rule = _parse_rule(raw.get("rule", {}))
    if max_iters_override is not None:
        rule = replace(rule, max_iters=_given(_count, max_iters_override, "--max-iters"))
    tol = (_given(_nonnegative, raw.get("tol", TOL_NUM), "tol") if tol_override is None
           else _given(_nonnegative, tol_override, "--tol"))
    output = raw.get("output", "out")
    if not (isinstance(output, str) and output):
        raise ConfigError(f"output must be a non-empty string, got {output!r}")

    return ExperimentConfig(
        map_name=str(map_cfg["builtin"]),
        T=T,
        phi=phi,
        starts=_resolve_starts(raw["starts"], T, seed) if "starts" in raw else [],
        candidates=[parse_pair(p, f"candidates[{i}]", T.space)
                    for i, p in enumerate(_array(raw.get("candidates", []), "candidates"))],
        rule=rule,
        checks=_parse_checks(raw.get("checks", [])),
        seed=seed,
        tol=tol,
        cert_tol=_given(_nonnegative, raw.get("cert_tol", CERT_TOL), "cert_tol"),
        output=output if out_override is None else out_override,
        raw=raw,
    )


def load_config(path: str, **overrides) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, too many digits or brackets
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return parse_config(raw, **overrides)
