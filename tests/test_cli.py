"""End-to-end drives of the shipped experiment configurations.

Every config goes through the real argument parser and runner.  Exit
codes, the summary document shape, and the trace files are contract
surface; the subprocess tests additionally pin byte-level determinism
across interpreter hash seeds.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft7Validator

from proxcycle.cli import main
from proxcycle.config import CHECKS, load_config

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

SUMMARY_VALIDATOR = Draft7Validator(
    json.loads((ROOT / "docs" / "summary.schema.json").read_text()))
CONFIG_VALIDATOR = Draft7Validator(
    json.loads((ROOT / "docs" / "config.schema.json").read_text()))

EXPECTED_EXITS = [
    ("interval.json", 0),
    ("l1_kannan.json", 0),
    ("overlap.json", 0),
    ("flip_negative.json", 1),
    ("non_cyclic_negative.json", 1),
]


def run_config(name, tmp_path, *extra):
    out = tmp_path / name.replace(".json", "")
    code = main(["run", str(CONFIGS / name), "--out", str(out), *extra])
    summary = json.loads((out / "summary.json").read_text())
    return code, out, summary


@pytest.mark.parametrize("name", sorted(c.name for c in CONFIGS.glob("*.json")))
def test_shipped_configs_match_their_schema(name):
    CONFIG_VALIDATOR.validate(json.loads((CONFIGS / name).read_text()))


def test_config_schema_gives_each_check_the_table_parameters():
    schema = json.loads((ROOT / "docs" / "config.schema.json").read_text())
    assert sorted(schema["definitions"]["check_name"]["enum"]) == sorted(CHECKS)
    objects = [o["properties"] for o in schema["properties"]["checks"]["items"]["oneOf"]
               if "properties" in o]
    assert len(objects) == len(CHECKS)
    assert {o["name"]["const"]: set(o) - {"name"} for o in objects} == {
        name: set(check.params) for name, check in CHECKS.items()}
    # the loader refuses a parameter another check takes, or no check takes;
    # so must the schema
    assert not CONFIG_VALIDATOR.is_valid(
        {"map": {"builtin": "interval_contraction"}, "checks": [{"name": "kannan", "k": 3}]})
    assert not CONFIG_VALIDATOR.is_valid(interval_with("phi_contraction", quantification="foo"))


def test_the_checks_take_four_parameter_names():
    # a new check parameter has to be a deliberate edit of this line
    assert sorted({k for c in CHECKS.values() for k in c.params}) == ["eps", "k", "samples", "tol"]


@pytest.mark.parametrize("name,expected", EXPECTED_EXITS)
def test_config_exit_codes_and_summary_shape(name, expected, tmp_path):
    code, out, summary = run_config(name, tmp_path)
    assert code == expected
    SUMMARY_VALIDATOR.validate(summary)
    assert summary["exit_code"] == expected
    assert summary["mode"] == "run"
    for entry in summary["runs"]:
        trace = out / entry["trace"]
        assert trace.is_file()
        assert trace.read_text().splitlines()[0] == "n,x,y,t,even_gap,odd_gap"


def test_interval_battery_passes_throughout(tmp_path):
    code, _, summary = run_config("interval.json", tmp_path)
    assert code == 0
    assert {c["status"] for c in summary["checks"]} == {"passed"}
    assert all(r["stop_reason"] == "converged_t" for r in summary["runs"])
    for cert_block in summary["certifications"]:
        assert cert_block["uniqueness"]["unique_within_tol"] is True
        for cert in cert_block["certificates"]:
            assert cert["verdict"] == "coupled_bpp"


def test_l1_candidates_are_non_unique_but_limits_agree(tmp_path):
    code, _, summary = run_config("l1_kannan.json", tmp_path)
    assert code == 0
    by_name = {c["name"]: c for c in summary["checks"]}
    assert by_name["kannan"]["status"] == "passed"
    assert by_name["kannan_strict_hypothesis"]["status"] == "passed"
    blocks = {b["name"]: b for b in summary["certifications"]}
    cand = blocks["certify_candidates"]["uniqueness"]
    assert cand["unique_within_tol"] is False
    assert cand["max_pairwise_limit_distance"] == 2.0
    assert blocks["certify_limits"]["uniqueness"]["unique_within_tol"] is True


def test_overlap_reaches_a_coupled_fixed_point(tmp_path):
    code, _, summary = run_config("overlap.json", tmp_path)
    assert code == 0
    for cert_block in summary["certifications"]:
        for cert in cert_block["certificates"]:
            assert cert["verdict"] == "coupled_fixed_point"


def test_flip_fails_contraction_and_t_limit_but_stays_cyclic(tmp_path):
    code, _, summary = run_config("flip_negative.json", tmp_path)
    assert code == 1
    by_name = {c["name"]: c for c in summary["checks"]}
    assert by_name["phi_contraction"]["status"] == "failed"
    assert by_name["phi_contraction"]["violations"]
    assert by_name["t_limit"]["status"] == "failed"
    assert by_name["monotone_t"]["status"] == "passed"
    assert by_name["cyclic_invariance"]["status"] == "passed"


def test_non_cyclic_control_fails_invariance(tmp_path):
    code, _, summary = run_config("non_cyclic_negative.json", tmp_path)
    assert code == 1
    rep = summary["checks"][0]
    assert rep["name"] == "cyclic_invariance"
    assert rep["status"] == "failed"


def test_budget_override_keeps_diagnostic_verdicts_open(tmp_path):
    # trajectory diagnostics alone cannot fail under a budget stop; note
    # that certification checks still can (a truncated limit is rejected),
    # so this config carries only the diagnostics
    cfg = dict(BASE, checks=["monotone_t", "t_limit", "even_gaps"])
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["run", str(path), "--out", str(out), "--max-iters", "3"])
    assert code == 0  # inconclusive is not a failure
    summary = json.loads((out / "summary.json").read_text())
    assert all(r["stop_reason"] == "budget" for r in summary["runs"])
    by_name = {c["name"]: c for c in summary["checks"]}
    assert by_name["t_limit"]["status"] == "inconclusive"
    assert by_name["even_gaps"]["status"] == "inconclusive"
    assert by_name["monotone_t"]["status"] == "passed"


# 2.000000005 lies in A = [1, 2] at cert_tol, but not at the run's own tolerance
@pytest.mark.parametrize("x", [3.0, 2.000000005])
def test_candidate_outside_the_sets_fails_without_a_limit(x, tmp_path):
    cfg = dict(BASE, candidates=[[[x], [-1.0]]], checks=["certify_candidates"])
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    text = (out / "summary.json").read_text()
    assert "NaN" not in text
    summary = json.loads(text)
    SUMMARY_VALIDATOR.validate(summary)
    rep = summary["checks"][0]
    assert rep["status"] == "failed"
    assert rep["violations"][0]["inputs"] == ["start 0", "start x0 is not in the A set"]
    assert summary["certifications"][0]["certificates"] == [None]
    # no limit at all leaves uniqueness undecided
    assert summary["certifications"][0]["uniqueness"]["unique_within_tol"] is None


def test_candidate_is_iterated_at_the_config_tol(tmp_path):
    # 2.000000005 lies in A = [1, 2] at a tol of 1e-8, so it is iterated
    cfg = dict(BASE, tol=1e-8, candidates=[[[2.000000005], [-1.0]]],
               checks=["certify_candidates"])
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"][0]["status"] == "passed"
    cert = summary["certifications"][0]["certificates"][0]
    assert cert["verdict"] == "coupled_bpp"
    assert summary["certifications"][0]["uniqueness"]["limits"] == [cert["candidate"]]


def test_certify_limits_reuses_the_runs(tmp_path, monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(args[1:3])
            return fn(*args, **kwargs)
        return wrapper

    for name in ("proxcycle.certify", "proxcycle.runner"):
        mod = importlib.import_module(name)
        monkeypatch.setattr(mod, "run", counted(mod.run))
    code, _, summary = run_config("interval.json", tmp_path)
    assert code == 0
    assert len(summary["runs"]) == 5
    # one run per start, none of which already certifies
    assert len(calls) == 5
    assert len({repr(c) for c in calls}) == 5
    assert all(c is not None for c in summary["certifications"][1]["uniqueness"]["limits"])


def test_interval_with_hull_sets_matches_the_box_version(tmp_path):
    # the same sets written as hulls; explicit starts, since sampling
    # draws differently from boxes and hulls
    cfg = json.loads((CONFIGS / "interval.json").read_text())
    cfg["starts"] = {"explicit": [[[1.5], [-1.5]], [[1.0], [-2.0]], [[2.0], [-1.0]]]}
    hull = json.loads(json.dumps(cfg))
    hull["map"]["sets"] = [{"variant": "hull", "vertices": [[1.0], [2.0]]},
                           {"variant": "hull", "vertices": [[-2.0], [-1.0]]}]
    summaries = []
    for name, doc in (("box", cfg), ("hull", hull)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        assert main(["run", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)]) == 0
        summary = json.loads((tmp_path / name / "summary.json").read_text())
        del summary["config"]
        summaries.append(summary)
    assert summaries[0] == summaries[1]
    traces = sorted(p.name for p in (tmp_path / "box").glob("trace_*.csv"))
    assert len(traces) == 3
    for trace in traces:
        assert (tmp_path / "box" / trace).read_bytes() == (tmp_path / "hull" / trace).read_bytes()


def test_truncated_limits_are_rejected_hard(tmp_path):
    # with certification in play the same truncation is a real failure
    code, _, summary = run_config("interval.json", tmp_path, "--max-iters", "3")
    assert code == 1
    by_name = {c["name"]: c for c in summary["checks"]}
    assert by_name["certify_limits"]["status"] == "failed"
    assert by_name["t_limit"]["status"] == "inconclusive"


def test_every_violation_has_slack_lhs_minus_rhs(tmp_path):
    # a truncated run violates certify_limits, t_limit, even_gaps and interleaved
    _, _, summary = run_config("interval.json", tmp_path, "--max-iters", "3")
    violated = {c["name"] for c in summary["checks"] if c["violations"]}
    assert {"certify_limits", "t_limit", "even_gaps", "interleaved"} <= violated
    violations = [v for c in summary["checks"] for v in c["violations"]]
    assert [v["slack"] for v in violations] == [v["lhs"] - v["rhs"] for v in violations]


# ---------------------------------------------------------------------------
# verify and certify subcommands

def test_verify_rejects_trajectory_checks(tmp_path, capsys):
    code = main(["verify", str(CONFIGS / "interval.json"), "--out", str(tmp_path / "v")])
    assert code == 2
    err = capsys.readouterr().err
    assert "verify runs static checks only" in err


def test_verify_passes_on_static_subset(tmp_path):
    cfg = json.loads((CONFIGS / "l1_kannan.json").read_text())
    static = {"cyclic_invariance", "kannan", "kannan_strict", "certify_candidates"}
    cfg["checks"] = [c for c in cfg["checks"]
                     if (c if isinstance(c, str) else c["name"]) in static]
    path = tmp_path / "static.json"
    path.write_text(json.dumps(cfg))
    code = main(["verify", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    SUMMARY_VALIDATOR.validate(summary)
    assert summary["mode"] == "verify"
    assert summary["runs"] == []


def test_certify_subcommand_accepts_and_rejects(capsys):
    cfg = str(CONFIGS / "interval.json")
    assert main(["certify", cfg, "--x", "[1.0]", "--y", "[-1.0]"]) == 0
    assert "coupled_bpp" in capsys.readouterr().out
    assert main(["certify", cfg, "--x", "[2.0]", "--y", "[-2.0]"]) == 1
    assert "rejected" in capsys.readouterr().out
    assert main(["certify", cfg, "--x", "{oops", "--y", "[-1.0]"]) == 2


@pytest.mark.parametrize("flag,value", [("--seed", "0"), ("--max-iters", "5"), ("--tol", "0.5"),
                                        ("--out", "out")])
def test_certify_refuses_the_run_overrides(flag, value, capsys):
    # certify reads none of them: its tolerance is the config's cert_tol
    with pytest.raises(SystemExit) as exc:
        main(["certify", str(CONFIGS / "interval.json"), "--x", "[1.0]", "--y", "[-1.0]",
              flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# configuration error paths

def bad_config_case(tmp_path, payload, name="bad.json"):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return main(["run", str(path), "--out", str(tmp_path / "out")])


BASE = {
    "map": {"builtin": "interval_contraction"},
    "starts": {"explicit": [[[1.5], [-1.5]]]},
    "checks": ["monotone_t"],
    "output": "unused",
}


def test_unknown_builtin_is_a_config_error(tmp_path, capsys):
    cfg = dict(BASE, map={"builtin": "nope"})
    assert bad_config_case(tmp_path, cfg) == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_check_is_a_config_error(tmp_path, capsys):
    cfg = dict(BASE, checks=["does_not_exist"])
    assert bad_config_case(tmp_path, cfg) == 2
    assert "unknown check" in capsys.readouterr().err


def test_unknown_top_level_key_is_a_config_error(tmp_path, capsys):
    cfg = dict(BASE, extra_key=1)
    assert bad_config_case(tmp_path, cfg) == 2
    assert "extra_key" in capsys.readouterr().err


def test_unparseable_json_is_a_config_error(tmp_path, capsys):
    assert bad_config_case(tmp_path, "{this is not json") == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [b"\xff{}", b'{"seed": ' + b"1" * 5000 + b"}",
                                     b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf8", "integer-past-the-digit-limit", "nested-too-deep"])
def test_an_undecodable_document_is_a_config_error(payload, tmp_path, capsys):
    # json.load raises these as a ValueError or RecursionError, not a JSONDecodeError
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"configuration error: {path} is not valid JSON: " in capsys.readouterr().err


def test_check_param_typo_is_a_config_error(tmp_path, capsys):
    cfg = dict(BASE, checks=[{"name": "monotone_t", "samples": 5}])
    assert bad_config_case(tmp_path, cfg) == 2
    assert "monotone_t" in capsys.readouterr().err


@pytest.mark.parametrize("check", [{"name": "kannan", "samples": "abc"},
                                   {"name": "interleaved", "eps": 5}])
def test_check_param_of_the_wrong_type_is_a_config_error(check, tmp_path, capsys):
    cfg = dict(BASE, checks=[check])
    assert bad_config_case(tmp_path, cfg) == 2
    assert check["name"] in capsys.readouterr().err


def test_hull_vertex_outside_the_space_is_a_config_error(tmp_path, capsys):
    cfg = dict(BASE, map={"builtin": "interval_contraction", "sets": [
        {"variant": "hull", "vertices": [[1.0], [2.0, 5.0]]},
        {"variant": "box", "lower": [-2.0], "upper": [-1.0]}]})
    assert bad_config_case(tmp_path, cfg) == 2
    assert "map.sets" in capsys.readouterr().err


def test_box_of_the_wrong_dimension_is_a_config_error(tmp_path, capsys):
    cfg = dict(BASE, map={"builtin": "interval_contraction", "sets": [
        {"variant": "box", "lower": [1.0, 0.0], "upper": [2.0, 1.0]},
        {"variant": "box", "lower": [-2.0], "upper": [-1.0]}]})
    assert bad_config_case(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert "map.sets" in err and "box dimension" in err


NAN, INF = float("nan"), float("inf")
INTERVAL = json.loads((CONFIGS / "interval.json").read_text())


def interval_with(check, **params):
    """interval.json with params set on its entry for check."""
    return dict(INTERVAL, checks=[
        dict(c, **params) if isinstance(c, dict) and c["name"] == check else c
        for c in INTERVAL["checks"]])


L1_KANNAN = json.loads((CONFIGS / "l1_kannan.json").read_text())
NO_PHI = ("no phi available: give map.phi in the config or pick a builtin "
          "with a declared contraction gauge")


@pytest.mark.parametrize("mode", ["run", "verify"])
@pytest.mark.parametrize("cfg,message", [
    ({k: v for k, v in INTERVAL.items() if k != "candidates"},
     "check 'certify_candidates' needs candidates"),
    (dict(L1_KANNAN, checks=[*L1_KANNAN["checks"][:3], "phi_contraction"]), NO_PHI),
], ids=["certify_candidates-without-candidates", "phi_contraction-without-phi"])
def test_a_check_without_its_input_is_refused_before_any_output(cfg, message, mode, tmp_path,
                                                                capsys):
    if mode == "verify":
        cfg = dict(cfg, checks=[c for c in cfg["checks"]
                                if not CHECKS[c if isinstance(c, str) else c["name"]]
                                .needs_trajectories])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main([mode, str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"configuration error: {message}\n" in captured.err
    assert not (tmp_path / "out").exists()


REFUSED = "must be finite and >= 0, got"
REFUSED_TOLERANCES = [
    ("tol-nan", dict(INTERVAL, tol=NAN), (), f"tol: {REFUSED} nan"),
    ("tol-negative", dict(INTERVAL, tol=-1e-9), (), f"tol: {REFUSED} -1e-09"),
    ("cert_tol-inf", dict(INTERVAL, cert_tol=INF), (), f"cert_tol: {REFUSED} inf"),
    # float() raises OverflowError, not ValueError, for an integer past its range
    ("tol-huge", dict(INTERVAL, tol=10 ** 400), (), "tol: int too large to convert to float"),
    ("--tol-nan", INTERVAL, ("--tol", "nan"), f"--tol: {REFUSED} nan"),
    ("--tol-negative", INTERVAL, ("--tol", "-1"), f"--tol: {REFUSED} -1.0"),
    ("rule.t_tol-nan", dict(INTERVAL, rule=dict(INTERVAL["rule"], t_tol=NAN)), (),
     f"rule.t_tol: {REFUSED} nan"),
    ("rule.gap_tol-inf", dict(INTERVAL, rule=dict(INTERVAL["rule"], gap_tol=INF)), (),
     f"rule.gap_tol: {REFUSED} inf"),
    ("eps-nan", interval_with("interleaved", eps=[NAN]), (),
     f"check 'interleaved': bad parameter 'eps': {REFUSED} nan"),
    ("eps-inf", interval_with("interleaved", eps=[0.5, INF]), (),
     f"check 'interleaved': bad parameter 'eps': {REFUSED} inf"),
    ("eps-negative", interval_with("interleaved", eps=[0.5, -0.1]), (),
     f"check 'interleaved': bad parameter 'eps': {REFUSED} -0.1"),
    ("cauchy-tol-negative", interval_with("cauchy", tol=-1.0), (),
     f"check 'cauchy': bad parameter 'tol': {REFUSED} -1.0"),
    ("even_gaps-tol-nan", interval_with("even_gaps", tol=NAN), (),
     f"check 'even_gaps': bad parameter 'tol': {REFUSED} nan"),
]


@pytest.mark.parametrize("cfg,extra,message", [c[1:] for c in REFUSED_TOLERANCES],
                         ids=[c[0] for c in REFUSED_TOLERANCES])
def test_non_finite_or_negative_tolerance_is_a_config_error(cfg, extra, message, tmp_path,
                                                            capsys):
    # json.dumps writes NaN and Infinity, which json.load reads back
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out"), *extra]) == 2
    assert f"configuration error: {message}\n" in capsys.readouterr().err


# a zero tolerance or eps is allowed: the loader takes it, and so must the schema
ZERO_TOLERANCES = [
    ("tol", dict(INTERVAL, tol=0), 0),
    ("cert_tol", dict(INTERVAL, cert_tol=0), 1),
    ("check-tol", interval_with("phi_contraction", tol=0), 0),
    ("eps", interval_with("interleaved", eps=[0]), 0),
]


@pytest.mark.parametrize("cfg,code", [c[1:] for c in ZERO_TOLERANCES],
                         ids=[c[0] for c in ZERO_TOLERANCES])
def test_zero_tolerance_loads_runs_and_matches_the_schema(cfg, code, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    load_config(str(path))
    CONFIG_VALIDATOR.validate(cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == code


REFUSED_INTEGERS = [
    ("cauchy-k-negative", interval_with("cauchy", k=-3), (),
     "check 'cauchy': bad parameter 'k': must be >= 2, got -3"),
    ("cauchy-k-one", interval_with("cauchy", k=1), (),
     "check 'cauchy': bad parameter 'k': must be >= 2, got 1"),
    ("samples-zero", interval_with("phi_contraction", samples=0), (),
     "check 'phi_contraction': bad parameter 'samples': must be >= 1, got 0"),
    ("samples-bool", interval_with("phi_contraction", samples=True), (),
     "check 'phi_contraction': bad parameter 'samples': must be an integer, got True"),
    ("samples-fractional", interval_with("phi_contraction", samples=2.5), (),
     "check 'phi_contraction': bad parameter 'samples': must be an integer, got 2.5"),
    ("samples-nan", interval_with("phi_contraction", samples=NAN), (),
     "check 'phi_contraction': bad parameter 'samples': must be an integer, got nan"),
    ("rule.max_iters-fractional", dict(INTERVAL, rule=dict(INTERVAL["rule"], max_iters=2.7)),
     (), "rule.max_iters: must be an integer, got 2.7"),
    ("rule.max_iters-inf", dict(INTERVAL, rule=dict(INTERVAL["rule"], max_iters=INF)), (),
     "rule.max_iters: must be an integer, got inf"),
    ("--max-iters-zero", INTERVAL, ("--max-iters", "0"), "--max-iters: must be >= 1, got 0"),
    ("starts.count-fractional", dict(INTERVAL, starts={"count": 2.5}), (),
     "starts.count: must be an integer, got 2.5"),
    ("starts.seed-bool", dict(INTERVAL, starts={"count": 2, "seed": False}), (),
     "starts.seed: must be an integer, got False"),
    ("seed-fractional", dict(INTERVAL, seed=7.5), (), "seed: must be an integer, got 7.5"),
    ("seed-nan", dict(INTERVAL, seed=NAN), (), "seed: must be an integer, got nan"),
]


@pytest.mark.parametrize("cfg,extra,message", [c[1:] for c in REFUSED_INTEGERS],
                         ids=[c[0] for c in REFUSED_INTEGERS])
def test_non_integral_or_too_small_count_is_a_config_error(cfg, extra, message, tmp_path,
                                                           capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out"), *extra]) == 2
    assert f"configuration error: {message}\n" in capsys.readouterr().err


def with_map(name, **entries):
    """The shipped config name with entries set on its map."""
    cfg = json.loads((CONFIGS / name).read_text())
    return dict(cfg, map=dict(cfg["map"], **entries))


REFUSED_MAP_VALUES = [
    ("dist-negative", with_map("interval.json", dist=-1), f"map.dist: {REFUSED} -1.0"),
    ("dist-string", with_map("interval.json", dist="abc"), "map.dist: must be a number, got 'abc'"),
    ("dist-nan", with_map("l1_kannan.json", dist=NAN), f"map.dist: {REFUSED} nan"),
    ("dist-inf", with_map("interval.json", dist=INF), f"map.dist: {REFUSED} inf"),
    ("lambda-too-large", with_map("interval.json", **{"lambda": 1.5}),
     "bad phi spec: linear phi needs lam in [0, 1)"),
    ("lambda-string", with_map("interval.json", **{"lambda": "x"}),
     "map.lambda: must be a number, got 'x'"),
    # map.lambda is read as map.phi's {"lambda": ...} is
    ("phi-lambda-too-large", with_map("interval.json", phi={"lambda": 1.5}),
     "bad phi spec: linear phi needs lam in [0, 1)"),
]


@pytest.mark.parametrize("cfg,message", [c[1:] for c in REFUSED_MAP_VALUES],
                         ids=[c[0] for c in REFUSED_MAP_VALUES])
def test_bad_map_dist_or_lambda_is_a_config_error(cfg, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"configuration error: {message}\n" in capsys.readouterr().err


B_BOX = {"variant": "box", "lower": [-2.0], "upper": [-1.0]}
REFUSED_VALUES = [
    ("quantification-unknown", interval_with("phi_contraction", quantification="foo"),
     "check 'phi_contraction' takes no key 'quantification'"),
    ("box-lower-nan", with_map("interval.json", sets=[
        {"variant": "box", "lower": [NAN], "upper": [2.0]}, B_BOX]),
     "bad set definition: box bounds must be finite, got [nan, 2.0]"),
    ("box-upper-inf", with_map("interval.json", sets=[
        {"variant": "box", "lower": [1.0], "upper": [INF]}, B_BOX]),
     "bad set definition: box bounds must be finite, got [1.0, inf]"),
    ("hull-vertex-nan", with_map("interval.json", sets=[
        {"variant": "hull", "vertices": [[1.0], [NAN]]}, B_BOX]),
     "bad set definition: hull vertex coordinates must be finite, got {0: nan}"),
    ("phi-custom-nan", with_map("interval.json", phi={
        "variant": "custom", "table": [[0, 0], [NAN, 1], [2, 2]]}),
     "bad phi spec: custom phi breakpoints must be finite"),
]


@pytest.mark.parametrize("cfg,message", [c[1:] for c in REFUSED_VALUES],
                         ids=[c[0] for c in REFUSED_VALUES])
def test_unknown_quantification_or_non_finite_set_or_phi_is_a_config_error(cfg, message,
                                                                           tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"configuration error: {message}\n" in capsys.readouterr().err


def base_map(**entries):
    return dict(BASE, map={"builtin": "interval_contraction", **entries})


def l1_candidate(index):
    """An l1_kannan config whose one candidate has a sparse index written as index."""
    return {"map": {"builtin": "l1_kannan"}, "candidates": [[{index: 1.0}, {"2": 1.0}]]}


AVAILABLE = ", ".join(sorted(CHECKS))
# documents the schema refuses; the loader must refuse each one too, naming its key
MALFORMED = [
    ("tol-true", dict(BASE, tol=True), "tol: must be a number, got True"),
    ("dist-true", base_map(dist=True), "map.dist: must be a number, got True"),
    ("check-tol-false", dict(BASE, checks=[{"name": "monotone_t", "tol": False}]),
     "check 'monotone_t': bad parameter 'tol': must be a number, got False"),
    ("coordinate-string", dict(BASE, starts={"explicit": [[["1.5"], [-1.5]]]}),
     "starts.explicit[0][0]: must be a number, got '1.5'"),
    ("box-bound-string", base_map(sets=[{"variant": "box", "lower": ["1"], "upper": [2.0]},
                                        B_BOX]),
     "map.sets[0].lower: must be a number, got '1'"),
    ("starts-explicit-and-count", dict(BASE, starts={"explicit": [[[1.5], [-1.5]]], "count": 2}),
     "starts takes no key 'count'"),
    ("starts-unknown-key", dict(BASE, starts={"count": 2, "sed": 3}),
     "starts takes no key 'sed'"),
    ("set-unknown-key", base_map(sets=[{"variant": "box", "lower": [1.0], "upper": [2.0],
                                        "color": "red"}, B_BOX]),
     "map.sets[0] takes no key 'color'"),
    ("custom-phi-lambda", base_map(phi={"variant": "custom", "table": [[0, 0], [1, 0.5]],
                                        "lambda": 0.5}),
     "map.phi takes no key 'lambda'"),
    ("phi-half-lambda", base_map(phi={"variant": "half", "lambda": 0.9}),
     "map.phi: unknown phi variant 'half'"),
    ("phi-and-lambda", base_map(phi={"lambda": 0.5}, **{"lambda": 0.9}),
     "map takes phi or lambda, not both"),
    ("candidates-number", dict(BASE, candidates=5), "candidates must be a list, got 5"),
    ("check-name-list", dict(BASE, checks=[{"name": []}]),
     f"checks[0]: unknown check []; available: {AVAILABLE}"),
    ("output-number", dict(BASE, output=5), "output must be a non-empty string, got 5"),
    *((f"index-{name}", l1_candidate(index),
       f"candidates[0][0]: sparse indices must be ASCII digits, got [{index!r}]")
      for name, index in (("1_0", "1_0"), ("space-3", " 3"), ("plus-1", "+1"),
                          ("arabic-indic-3", "\u0663"), ("trailing-newline", "3\n"))),
]


@pytest.mark.parametrize("cfg,message", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED])
def test_a_document_the_schema_refuses_is_a_config_error(cfg, message, tmp_path, capsys):
    assert not CONFIG_VALIDATOR.is_valid(cfg)
    assert bad_config_case(tmp_path, cfg) == 2
    assert f"configuration error: {message}\n" in capsys.readouterr().err


def test_an_unusable_output_path_is_a_config_error(tmp_path, capsys):
    # a regular file where the output directory goes, then a directory where
    # the first trace goes: each raises an OSError
    blocker = tmp_path / "file"
    blocker.write_text("")
    trace = tmp_path / "out" / "trace_000.csv"
    trace.mkdir(parents=True)
    for out, path, reason in ((blocker, blocker, "File exists"),
                              (trace.parent, trace, "Is a directory")):
        assert main(["run", str(CONFIGS / "overlap.json"), "--out", str(out)]) == 2
        assert f"configuration error: cannot write {path}: {reason}\n" in capsys.readouterr().err


NON_FINITE = "coordinates must be finite, got"
REFUSED_POINTS = [
    ("starts-nan", dict(INTERVAL, starts={"explicit": [[[NAN], [-1.5]]]}), (),
     f"starts.explicit[0][0]: {NON_FINITE} [nan]"),
    ("starts-sparse-inf", dict(INTERVAL, starts={"explicit": [[[1.5], [-1.5]],
                                                              [[1.5], {"0": -INF}]]}), (),
     f"starts.explicit[1][1]: {NON_FINITE} {{'0': -inf}}"),
    ("candidates-nan", dict(INTERVAL, candidates=[[[1.0], [-1.0]], [[NAN], [-1.0]]]), (),
     f"candidates[1][0]: {NON_FINITE} [nan]"),
    ("--x-nan", INTERVAL, ("--x", "[NaN]", "--y", "[-1]"), f"--x: {NON_FINITE} [nan]"),
    ("--y-inf", INTERVAL, ("--x", "[1]", "--y", "[-Infinity]"), f"--y: {NON_FINITE} [-inf]"),
]


@pytest.mark.parametrize("cfg,extra,message", [c[1:] for c in REFUSED_POINTS],
                         ids=[c[0] for c in REFUSED_POINTS])
def test_non_finite_start_or_candidate_is_a_config_error(cfg, extra, message, tmp_path, capsys):
    # otherwise a NaN candidate is merely rejected (exit 1, "violations found"),
    # and certify prints a NaN residual, which is not strict JSON
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    command = "certify" if extra else "run"
    out = () if extra else ("--out", str(tmp_path / "out"))  # certify writes no files
    assert main([command, str(path), *out, *extra]) == 2
    captured = capsys.readouterr()
    assert f"configuration error: {message}\n" in captured.err
    assert "NaN" not in captured.out


OUTSIDE = "index 1 out of range for dimension 1"
OUTSIDE_POINTS = [
    ("starts.explicit", dict(INTERVAL, starts={"explicit": [[[1.5, 2.0], [-1.5]]]}), (),
     f"starts.explicit[0][0]: {OUTSIDE}"),
    ("candidates", dict(INTERVAL, candidates=[[[1.5, 2.0], [-1.5]]]), (),
     f"candidates[0][0]: {OUTSIDE}"),
    ("--x", INTERVAL, ("--x", "[1.5, 2]", "--y", "[-1.5]"), f"--x: {OUTSIDE}"),
]


@pytest.mark.parametrize("cfg,extra,message", [c[1:] for c in OUTSIDE_POINTS],
                         ids=[c[0] for c in OUTSIDE_POINTS])
def test_point_outside_the_dense_space_is_a_config_error(cfg, extra, message, tmp_path, capsys):
    # otherwise the first membership test raises DimensionMismatch: a traceback
    # with exit 1, the "violations found" code
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    command = "certify" if extra else "run"
    out = () if extra else ("--out", str(tmp_path / "out"))  # certify writes no files
    assert main([command, str(path), *out, *extra]) == 2
    assert f"configuration error: {message}\n" in capsys.readouterr().err


def strict_json(text):
    """json.loads, refusing the NaN and Infinity that are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_certify_rejection_on_membership_prints_null_residuals(capsys):
    code = main(["certify", str(CONFIGS / "l1_kannan.json"), "--x", "[1.0]", "--y", "[-1.0]"])
    assert code == 1
    cert = strict_json(capsys.readouterr().out)
    assert cert["reason"] == "x is not in the A set"
    assert cert["residual_x"] is None and cert["residual_y"] is None


def test_limit_outside_its_set_at_cert_tol_writes_null_residuals(tmp_path):
    # the run's tol lets the iterates converge to x = 1, just below A's lower
    # bound; at cert_tol that limit is outside A, so no residual is measured
    cfg = dict(BASE, map={"builtin": "interval_contraction", "sets": [
        {"variant": "box", "lower": [1.0 + 5e-9], "upper": [2.0]}, B_BOX]},
        tol=1e-8, cert_tol=1e-10, checks=["certify_limits"])
    path = tmp_path / "limit.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    summary = strict_json((out / "summary.json").read_text())
    SUMMARY_VALIDATOR.validate(summary)
    cert = summary["certifications"][0]["certificates"][0]
    assert cert["reason"] == "x is not in the A set"
    assert cert["residual_x"] is None and cert["residual_y"] is None
    violation = summary["checks"][0]["violations"][0]
    assert violation["inputs"] == ["start 0", "x is not in the A set"]
    assert (violation["lhs"], violation["rhs"], violation["slack"]) == (1.0, 0.0, 1.0)


def test_integral_floats_load_as_integers(tmp_path):
    cfg = dict(INTERVAL, seed=7.0, checks=[{"name": "cyclic_invariance", "samples": 50.0}])
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", str(path), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["seed"] == 7 and summary["checks"][0]["checked"] == 100


def test_a_check_that_checks_nothing_is_inconclusive(tmp_path, capsys):
    # no sampled displacement of the interval map exceeds a declared 100
    cfg = {"map": {"builtin": "interval_contraction", "dist": 100},
           "checks": [{"name": "kannan_strict", "samples": 200}]}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "[INCONCLUSIVE] kannan_strict_hypothesis: checked=0" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "summary.json").read_text())["checks"][0]
    assert (report["status"], report["passed"], report["checked"]) == ("inconclusive", False, 0)


# ---------------------------------------------------------------------------
# determinism

def child_env():
    # the child imports proxcycle from this checkout, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_subprocess(config, outdir, hash_seed, seed_args=()):
    env = dict(child_env(), PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, "-m", "proxcycle.cli", "run", str(config),
         "--out", str(outdir), *seed_args],
        capture_output=True, text=True, env=env, cwd=str(ROOT))
    return proc


def dir_bytes(d):
    return {p.name: p.read_bytes() for p in sorted(Path(d).iterdir())}


def test_python_dash_m_proxcycle_runs_the_cli(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "proxcycle", "run", str(CONFIGS / "overlap.json"),
         "--out", str(tmp_path / "m")], capture_output=True, env=child_env(), cwd=str(ROOT))
    assert proc.returncode == 0, proc.stderr
    assert main(["run", str(CONFIGS / "overlap.json"), "--out", str(tmp_path / "main")]) == 0
    assert dir_bytes(tmp_path / "m") == dir_bytes(tmp_path / "main")


def test_a_run_without_hulls_or_interleaved_does_not_import_numpy(tmp_path):
    # numpy's import is about half of a shipped run's wall time; only the
    # sets solvers and space.pack need it, and no shipped config runs them
    code = "import sys\nfrom proxcycle.cli import main\n" + "".join(
        f"assert main(['run', {str(CONFIGS / name)!r}, '--out', "
        f"{str(tmp_path / name)!r}]) == {exit_code}\n"
        for name, exit_code in EXPECTED_EXITS
    ) + "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), cwd=str(ROOT))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["l1_kannan.json", "interval.json"])
def test_outputs_identical_across_hash_seeds(name, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    p1 = run_subprocess(CONFIGS / name, d1, hash_seed=1)
    p2 = run_subprocess(CONFIGS / name, d2, hash_seed=2)
    assert p1.returncode == p2.returncode == 0
    assert dir_bytes(d1) == dir_bytes(d2)
    # stdout matches too, once the output path it echoes is masked
    scrub = lambda s: [ln for ln in s.splitlines() if not ln.startswith("summary written")]
    assert scrub(p1.stdout) == scrub(p2.stdout)


def test_seed_override_changes_sampled_starts(tmp_path):
    base, reseeded, repeat = tmp_path / "s7", tmp_path / "s8", tmp_path / "s7again"
    assert main(["run", str(CONFIGS / "interval.json"), "--out", str(base)]) == 0
    assert main(["run", str(CONFIGS / "interval.json"), "--out", str(reseeded),
                 "--seed", "8"]) == 0
    assert main(["run", str(CONFIGS / "interval.json"), "--out", str(repeat)]) == 0
    assert dir_bytes(base) == dir_bytes(repeat)
    assert (base / "trace_000.csv").read_bytes() != (reseeded / "trace_000.csv").read_bytes()
