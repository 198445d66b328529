"""proxcycle benchmark: one closed-loop caller, one process, three workloads.

    python3 perfbench/run.py --workload shipped_configs --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  The seed gives a fixed list of op inputs.  Ops run back to
back in whole rounds over that list until ``--seconds`` of op time have
passed, then every output is checked.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it runs each round
twice, untraced and then with every layer wrapped, until half of
``--seconds`` of untraced op time, and reports the per-layer metrics and
the tracing overhead.  Human-readable lines come first; the last line of
stdout is the JSON result.

``attempted`` and ``failed`` count distinct inputs, so they depend on the
seed only, not on how many rounds fit in the time.  Every execution is
checked, and a repeat whose verdict differs from its input's other
executions makes the run incorrect.

Every reported time is speed-corrected: each op runs between two probes
of a fixed reference workload, and its latency is scaled to a fixed
reference speed (see calibrate.py); the raw times are printed too.
Only timers that act on this process are used: time.perf_counter for
spans, latencies and probes, and getrusage(RUSAGE_SELF) for peak
memory.  The BLAS thread pool is capped at one thread before numpy is
imported.
"""
from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # children inherit the cap
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 9


def die(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def import_library() -> float:
    """Import proxcycle from this checkout's src/; returns the import time."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "proxcycle", "__init__.py")):
        die(f"no proxcycle sources under {src}; run from a source checkout")
    if not os.path.isdir(os.path.join(ROOT, "configs")):
        die(f"no configs/ directory under {ROOT}")
    sys.path.insert(0, src)
    t0 = perf_counter()
    import proxcycle  # noqa: F401
    import proxcycle.config  # noqa: F401
    import proxcycle.runner  # noqa: F401
    took = perf_counter() - t0
    if os.path.dirname(os.path.abspath(proxcycle.__file__)) != os.path.join(src, "proxcycle"):
        die(f"imported proxcycle from {proxcycle.__file__}, not from {src}")
    return took


# ---------------------------------------------------------------------------
# measuring

def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh interpreter to first op ready, SETUP_PROBES times; returns the
    raw and the speed-corrected times."""
    spans, probes = [], [calibrate.probe()]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, os.path.join(HERE, "setup_probe.py"),
                               workload, str(seed)], stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            t1 = perf_counter()
            p.stdout.read()
            code = p.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            die(f"setup probe for {workload} failed with exit code {code}", 1)
        spans.append((t0, t1))
        probes.append(calibrate.probe(t1 - t0))
    return _corrected(spans, probes)


def _corrected(spans: list[tuple[float, float]],
               probes: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
    raw = [t1 - t0 for t0, t1 in spans]
    return raw, [r * k for r, k in zip(raw, calibrate.speed_scales(spans, probes))]


def run_round(wl, xs: list, done: list, tracer=None) -> tuple[list[float], list[float]]:
    """Run every input once, each op between two reference probes (see
    calibrate.py); returns the raw and the speed-corrected latencies."""
    from workloads import Done

    spans: list[tuple[float, float]] = []
    probes = [calibrate.probe()]
    for i, x in enumerate(xs):
        if tracer is not None:
            tracer.op = len(done)
        t0 = perf_counter()
        try:
            out, err = wl.op(x), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        spans.append((t0, t1))
        done.append(Done(x, out, err, i, traced=tracer is not None))
        probes.append(calibrate.probe(t1 - t0))
    return _corrected(spans, probes)


def latency_metrics(lat: list[float]) -> dict[str, float]:
    """Throughput and latency percentiles over every execution."""
    return {"ops_per_s": len(lat) / sum(lat),
            "op_s_p50": statistics.median(lat),
            "op_s_p90": statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]}


def environment() -> str:
    import numpy

    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = "absent"
    caps = ",".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    return (f"env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy} "
            f"blas_threads: {caps}; timers: time.perf_counter, getrusage(RUSAGE_SELF); "
            f"nothing traces the machine")


def verify(wl, done: list) -> tuple[list, int, bool]:
    """Check every execution; returns the verdicts, the number of failed
    inputs, and whether the run is sound: no unsound verdict, and each
    input got the same verdict every time."""
    verdicts = wl.check(done)
    controls = wl.negative_controls(done)
    for label, detected in controls:
        if not detected:
            die(f"negative control not detected: {label}", 1)
    print(f"negative controls: {len(controls)}/{len(controls)} detected "
          f"({'; '.join(label for label, _ in controls)})")
    for v in [v for v in verdicts if v.failed][:5]:
        print(f"failed op: {v.why}" + (" [unsound]" if v.unsound else ""))
    outcomes: dict[int, set[bool]] = {}
    for d, v in zip(done, verdicts):
        outcomes.setdefault(d.index, set()).add(v.failed)
    flaky = sorted(i for i, seen in outcomes.items() if len(seen) > 1)
    if flaky:
        print(f"inputs whose repeats disagree: {flaky[:10]}")
    sound = not flaky and not any(v.unsound for v in verdicts)
    return verdicts, sum(True in seen for seen in outcomes.values()), sound


# ---------------------------------------------------------------------------
# the two kinds of run

E2E_UNITS = {"ops_per_s": "1/s", "op_s_p50": "s", "op_s_p90": "s", "setup_s": "s",
             "peak_rss_mb": "MiB"}


def plain_run(wl, args) -> tuple[dict, tuple[int, int, bool]]:
    setup_raw, setups = setup_seconds(args.workload, args.seed)
    wl.setup()
    xs = wl.inputs()
    done: list = []
    raw: list[float] = []
    lat: list[float] = []
    rounds = 0
    while sum(raw) < args.seconds:
        more_raw, more = run_round(wl, xs, done)
        raw += more_raw
        lat += more
        rounds += 1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts, failed, sound = verify(wl, done)
    m = latency_metrics(lat)
    m["setup_s"] = statistics.median(setups)
    m["peak_rss_mb"] = peak
    r = latency_metrics(raw)
    r["setup_s"] = statistics.median(setup_raw)
    n = len(lat)
    beyond = sum(1 for x in lat if x > m["op_s_p90"])
    notes = {"ops_per_s": f"{n} ops in {rounds} rounds of {len(xs)} inputs, "
                          f"{sum(raw):.3f} s of raw op time",
             "op_s_p50": f"n={n}", "op_s_p90": f"n={n}, {beyond} beyond",
             "setup_s": f"median of {len(setups)} fresh interpreters: "
                        + " ".join(f"{s:.4f}" for s in setups)}
    for k, unit in E2E_UNITS.items():
        if k in r:
            print(f"{k:12s} = {m[k]:.6g} {unit} speed-corrected, {r[k]:.6g} {unit} raw  "
                  f"({notes[k]})")
    print(f"peak_rss_mb  = {peak:.6g} MiB  (getrusage(RUSAGE_SELF).ru_maxrss)")
    print(f"speed: the reference took {calibrate.REFERENCE_S * sum(raw) / sum(lat) * 1e3:.4g} ms "
          f"on average over the op time, against {calibrate.REFERENCE_S * 1e3:g} ms nominal")
    print(f"failed_ratio = {failed / len(xs):.6g} fraction  ({failed} of {len(xs)} inputs failed; "
          f"{sum(v.failed for v in verdicts)} of {len(done)} executions)")
    return {k: {"value": m[k], "unit": E2E_UNITS[k]} for k in E2E_UNITS}, (len(xs), failed, sound)


def traced_run(wl, args, import_s: float) -> tuple[dict, tuple[int, int, bool]]:
    import tracer as tracing

    wl.setup()
    xs = wl.inputs()
    done: list = []
    tr = tracing.Tracer()
    raw_u = 0.0
    lat_u: list[float] = []
    lat_t: list[float] = []
    rounds = 0
    # each round runs untraced and then traced, so both halves see the
    # same inputs and nearly the same machine state
    while raw_u < args.seconds / 2:
        more_raw, more = run_round(wl, xs, done)
        raw_u += sum(more_raw)
        lat_u += more
        tr.install()
        try:
            _, more = run_round(wl, xs, done, tracer=tr)
        finally:
            tr.uninstall()
        lat_t += more
        rounds += 1
    tr.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    verdicts, failed, sound = verify(wl, done)
    untraced, traced = latency_metrics(lat_u), latency_metrics(lat_t)
    overhead = {k: traced[k] - untraced[k] for k in traced}
    judged = [(d, v) for d, v in zip(done, verdicts) if d.traced]
    wrong, max_rel_err = wl.accuracy(judged) if hasattr(wl, "accuracy") else (0, 0.0)
    m = tracing.layer_metrics(tr, wrong, max_rel_err, len(judged), import_s, overhead)
    for k, unit in (("ops_per_s", "1/s"), ("op_s_p50", "s"), ("op_s_p90", "s")):
        print(f"{k:9s} untraced {untraced[k]:.6g} {unit}, traced {traced[k]:.6g} {unit}, "
              f"overhead {overhead[k]:+.6g} {unit}  (same {rounds} rounds of {len(xs)} ops each)")
    top = sorted((k for k in m if k.endswith(".self_s")), key=lambda k: -m[k]["value"])[:8]
    print("largest self times: " + ", ".join(f"{k} {m[k]['value']:.4g} s" for k in top))
    return m, (len(xs), failed, sound)


def main() -> None:
    ap = argparse.ArgumentParser(description="proxcycle benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    import_s = import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}; one process, closed loop, one caller")
    print(environment())
    os.makedirs(OUT, exist_ok=True)
    rundir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(rundir)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, rundir)
    try:
        if args.trace:
            metrics, (attempted, failed, sound) = traced_run(wl, args, import_s)
        else:
            metrics, (attempted, failed, sound) = plain_run(wl, args)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps({"correct": sound, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
