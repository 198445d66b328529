"""Acceptance battery: one test per headline behavior, library level.

Each test prints one PASS line with its key numbers on success, so a
verbose pytest run reads as a checklist.  The first three carry a
wall-clock budget of one second apiece.
"""
import json
import time
from pathlib import Path

import pytest
from jsonschema import Draft7Validator

from proxcycle import (
    SIDE_AB,
    Box,
    CyclicMapSpec,
    ModulusUnavailable,
    NormedSpaceSpec,
    PhiSpec,
    ProductPoint,
    StopRule,
    Vector,
    basis,
    builtin,
    certify,
    check_cyclic_invariance,
    check_kannan,
    check_phi_contraction,
    diagnose_cauchy,
    diagnose_even_gaps,
    diagnose_interleaved,
    diagnose_monotone_t,
    diagnose_t_limit,
    dist,
    l1_example_sets,
    norm,
    proximal_squeeze_check,
    run,
    sample,
    second_iterate_check,
    solve_and_certify,
)
from proxcycle.cli import main

ROOT = Path(__file__).resolve().parents[1]

INTERVAL = builtin("interval_contraction")
OVERLAP = builtin("overlap_contraction")
L1 = builtin("l1_kannan")

L1_CANDIDATES = [
    ProductPoint(basis(1) + basis(2), basis(2) + basis(3)),
    ProductPoint(Vector.from_map({1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5}),
                 basis(2) + basis(3)),
]

SPACE1 = NormedSpaceSpec(norm="l2", mode="dense", dimension=1)


def _damped(u: Vector, v: Vector, side: int) -> Vector:
    q = (v.value_at(0) - u.value_at(0)) / 8.0
    return Vector.dense([q - 0.75 if side == SIDE_AB else q + 0.75])


DAMPED = CyclicMapSpec("damped", SPACE1, Box((1.0,), (2.0,)), Box((-2.0,), (-1.0,)),
                       _damped, declared_class="phi_contraction",
                       declared_dist=2.0, phi=PhiSpec.linear(0.5))

TIGHT = StopRule(max_iters=200, t_tol=1e-15, gap_tol=None)


def test_criterion_1_l1_kannan_example():
    t0 = time.perf_counter()
    A, B, declared = l1_example_sets()
    assert declared.value == 2.0
    res = dist(A, B, L1.space, declared=declared)
    assert res.value == 2.0
    for a, b in declared.witnesses:
        assert abs(norm(L1.space, a - b) - 2.0) <= 1e-12

    for cand in L1_CANDIDATES:
        cert = certify(L1, cand)
        assert cert.verdict == "coupled_bpp"
        assert abs(cert.residual_x - 2.0) <= 1e-12
        assert abs(cert.residual_y - 2.0) <= 1e-12

    kan = check_kannan(L1, 1000, seed=11)
    assert kan.status == "passed"
    assert kan.checked >= 1000

    records, uniq = solve_and_certify(L1, [(c.first, c.second) for c in L1_CANDIDATES])
    assert all(r.certificate.accepted for r in records)
    assert not uniq.unique_within_tol
    assert uniq.max_pairwise_limit_distance == 2.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 1: block-hull pair at distance 2, both candidates "
          f"certify with residuals exactly 2, kannan holds on {kan.checked} "
          f"samples, solution is non-unique ({elapsed:.3f}s)")


def test_criterion_2_interval_iteration_reaches_the_proximal_pair():
    t0 = time.perf_counter()
    rule = StopRule(max_iters=200, t_tol=1e-8, gap_tol=None)
    starts = [(1.0, -1.0), (2.0, -2.0), (1.3, -1.7), (1.9, -1.2), (1.5, -1.5)]
    for a, b in starts:
        traj = run(INTERVAL, Vector.dense([a]), Vector.dense([b]), rule)
        assert traj.stop_reason == "converged_t"
        assert len(traj.points) <= 201
        assert abs(traj.t_series[-1] - 2.0) < 1e-8
        limit = traj.final_even_point()
        assert abs(limit.first.value_at(0) - 1.0) <= 1e-8
        assert abs(limit.second.value_at(0) + 1.0) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 2: t reaches 2 within 1e-8 from {len(starts)} starts "
          f"in at most 200 steps; limits within 1e-8 of (1, -1) ({elapsed:.3f}s)")


def test_criterion_3_overlap_iteration_reaches_a_coupled_fixed_point():
    t0 = time.perf_counter()
    rule = StopRule(max_iters=500, t_tol=1e-11, gap_tol=1e-11)
    starts = [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5), (0.25, 0.75), (1.0, 1.0)]
    for a, b in starts:
        traj = run(OVERLAP, Vector.dense([a]), Vector.dense([b]), rule)
        limit = traj.final_even_point()
        assert abs(limit.first.value_at(0)) <= 1e-10
        assert abs(limit.second.value_at(0)) <= 1e-10
        cert = certify(OVERLAP, limit, tol=1e-10)
        assert cert.verdict == "coupled_fixed_point"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 3: limits within 1e-10 of (0, 0) from {len(starts)} "
          f"starts, certified as coupled fixed points ({elapsed:.3f}s)")


def test_criterion_4_check_battery():
    # monotone t from 20 sampled starts for each contraction that passes
    # the phi inequality (two builtins plus a damped variant)
    for T in (INTERVAL, OVERLAP, DAMPED):
        phi_rep = check_phi_contraction(T, T.phi, n_samples=400, seed=5)
        assert phi_rep.status == "passed", T.label
        xs = sample(T.A, T.space, 20, seed=101)
        ys = sample(T.B, T.space, 20, seed=202)
        for x0, y0 in zip(xs, ys):
            traj = run(T, x0, y0)
            assert diagnose_monotone_t(traj).status == "passed", T.label

    # the full diagnostic battery on a tight interval run
    tight = run(INTERVAL, Vector.dense([2.0]), Vector.dense([-2.0]), TIGHT)
    for rep in (diagnose_monotone_t(tight), diagnose_t_limit(tight, tol=1e-8),
                diagnose_even_gaps(tight, tol=1e-8), diagnose_interleaved(tight),
                diagnose_cauchy(tight, k=10)):
        assert rep.status == "passed", rep.name

    # negative controls, with the flip witness printed
    flip_rep = check_phi_contraction(builtin("flip"), PhiSpec.linear(0.5),
                                     n_samples=400, seed=3)
    assert flip_rep.status == "failed"
    w = flip_rep.violations[0]
    print(f"flip witness: inputs={w.inputs} lhs={w.lhs!r} rhs={w.rhs!r}")
    nc_rep = check_cyclic_invariance(builtin("non_cyclic"), 100, seed=1)
    assert nc_rep.status == "failed"

    # certification rejects the far corner
    bad = certify(INTERVAL, ProductPoint(Vector.dense([2.0]), Vector.dense([-2.0])))
    assert bad.verdict == "rejected"

    # squeeze harness: conclusion below 1e-7 in l2, refusal in l1
    space2 = NormedSpaceSpec(norm="l2", mode="dense", dimension=2)
    seg_a = Box((0.0, 0.0), (1.0, 0.0))
    seg_b = Box((0.0, 2.0), (1.0, 2.0))
    xy, wz, uv = [], [], []
    for n in range(1, 61):
        c, h = 1.0 / n, 2.0 ** -n
        xy.append(ProductPoint(Vector.dense([c, 0.0]), Vector.dense([c, 2.0])))
        wz.append(ProductPoint(Vector.dense([c + h, 0.0]), Vector.dense([c + h, 2.0])))
        uv.append(ProductPoint(Vector.dense([c, 2.0]), Vector.dense([c, 0.0])))
    squeeze = proximal_squeeze_check(space2, seg_a, seg_b, xy, wz, uv, d=2.0)
    assert squeeze.status == "passed"
    assert "bound = 1e-07" in squeeze.detail
    with pytest.raises(ModulusUnavailable):
        proximal_squeeze_check(L1.space, seg_a, seg_b, xy, wz, uv, d=2.0)

    # second-iterate identity where a modulus exists, refusal where not
    assert second_iterate_check(
        INTERVAL, ProductPoint(Vector.dense([1.0]), Vector.dense([-1.0]))).status == "passed"
    assert second_iterate_check(
        OVERLAP, ProductPoint(Vector.dense([0.0]), Vector.dense([0.0]))).status == "passed"
    assert second_iterate_check(L1, L1_CANDIDATES[0]).status == "not_applicable"

    print("PASS criterion 4: monotone t over 20 starts x 3 contractions, tight "
          "interval diagnostics, flip/non_cyclic controls fail as designed, "
          "far corner rejected, squeeze < 1e-7 with l1 refusal, second iterate verified")


def test_criterion_5_cli_determinism_and_schema_round_trip(tmp_path):
    config = ROOT / "configs" / "interval.json"
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(config), "--out", str(d1)]) == 0
    assert main(["run", str(config), "--out", str(d2)]) == 0

    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    csvs = [n for n in names if n.endswith(".csv")]
    assert csvs, "expected trace files"
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    summary_schema = json.loads((ROOT / "docs" / "summary.schema.json").read_text())
    Draft7Validator(summary_schema).validate(json.loads((d1 / "summary.json").read_text()))
    config_schema = json.loads((ROOT / "docs" / "config.schema.json").read_text())
    for cfg_path in sorted((ROOT / "configs").glob("*.json")):
        Draft7Validator(config_schema).validate(json.loads(cfg_path.read_text()))

    print(f"PASS criterion 5: two identical runs produced byte-identical "
          f"{len(csvs)} traces + summary; configs and summary match their schemas")
