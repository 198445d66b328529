"""Per-layer tracing by wrapping the library's public functions.

Each wrapped name is replaced in every proxcycle module that holds it
(for example ``proxcycle.iterate.contains`` as well as
``proxcycle.sets.contains``), so a call is attributed to its layer
whichever module makes it.  A wrapper times its call with
``time.perf_counter`` and keeps a stack, so a layer's self time is its
duration minus the time of the wrapped calls it made.

Hot leaves (norm, Vector arithmetic, pair_distance, contains, eval_map
and sample run up to millions of times a run) are only aggregated into
call counts and times.  Every other call is also kept as a span (id,
parent span, op, name, start, end), written out when the run ends.
"""
from __future__ import annotations

import importlib
import json
import os
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

MODULES = ("proxcycle", "proxcycle.space", "proxcycle.sets", "proxcycle.maps",
           "proxcycle.iterate", "proxcycle.certify", "proxcycle.config",
           "proxcycle.runner")

VECTOR_METHODS = ("dense", "from_map", "__add__", "__sub__", "scale")


_SET_KINDS = {"Box": "box", "Hull": "hull", "DeclaredSet": "declared"}


def _set_kind(args, _result) -> str:
    return "sets.contains." + _SET_KINDS[type(args[0]).__name__]


def _dist_kind(_args, result) -> str:
    return "sets.dist." + (result.method if result is not None else "error")


def _count_converged(tr: "Tracer", _args, result) -> None:
    tr.counts[f"sets.dist.{result.method}.converged"] += int(result.converged)


class Tracer:
    def __init__(self):
        # name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn: Callable, name, span: bool,
              after: Callable[["Tracer", tuple, Any], None] | None) -> Callable:
        stack, stats, spans = self._stack, self.stats, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if span:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                key = name(args, result) if callable(name) else name
                s = stats[key]
                s[0] += 1
                s[1] += dur
                s[2] += dur - frame[0]
                if span:
                    spans.append((sid, parent, self.op, key, t0, t1))
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _patch_everywhere(self, fn: Callable, wrapper: Callable) -> None:
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, val))

    def install(self) -> None:
        space = importlib.import_module("proxcycle.space")
        sets = importlib.import_module("proxcycle.sets")
        maps = importlib.import_module("proxcycle.maps")
        it = importlib.import_module("proxcycle.iterate")
        cert = importlib.import_module("proxcycle.certify")
        config = importlib.import_module("proxcycle.config")
        runner = importlib.import_module("proxcycle.runner")

        def count(key: str, value: Callable[[tuple, Any], int]):
            def after(tr: Tracer, args, result):
                tr.counts[key] += value(args, result)
            return after

        checked = lambda _a, r: r.checked  # noqa: E731
        leaves = [
            (space.norm, "space.norm", None),
            (space.pair_distance, "space.pair_distance", None),
            (sets.contains, _set_kind, None),
            (sets.sample, "sets.sample", None),
            (maps.eval_map, "maps.eval_map", None),
        ]
        spans = [
            (sets.dist, _dist_kind, _count_converged),
            (it.run, "iterate.run", count("iterate.run.steps", lambda _a, r: len(r.points) - 1)),
            (it.trajectory_to_csv, "iterate.trajectory_to_csv",
             count("iterate.trajectory_to_csv.bytes", lambda a, _r: os.path.getsize(a[1]))),
            (cert.certify, "certify.certify", None),
            (cert.solve_and_certify, "certify.solve_and_certify", None),
            (cert.second_iterate_check, "certify.second_iterate_check", None),
            (config.load_config, "config.load_config", None),
            (runner.execute, "runner.execute",
             count("runner.summary_bytes",
                   lambda a, _r: os.path.getsize(os.path.join(a[0].output, "summary.json")))),
        ]
        for fn in (maps.check_cyclic_invariance, maps.check_phi_contraction, maps.check_kannan,
                   maps.check_kannan_strict_hypothesis):
            spans.append((fn, "maps." + fn.__name__, count(f"maps.{fn.__name__}.checked", checked)))
        for fn in (it.diagnose_interleaved, it.diagnose_cauchy, it.diagnose_monotone_t,
                   it.diagnose_t_limit, it.diagnose_even_gaps):
            spans.append((fn, "iterate." + fn.__name__,
                          count(f"iterate.{fn.__name__}.checked", checked)))

        for fn, name, after in leaves:
            self._patch_everywhere(fn, self._wrap(fn, name, False, after))
        for fn, name, after in spans:
            self._patch_everywhere(fn, self._wrap(fn, name, True, after))
        for meth in VECTOR_METHODS:
            raw = vars(space.Vector)[meth]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            w = self._wrap(fn, "space.vector", False, None)
            setattr(space.Vector, meth, staticmethod(w) if is_static else w)
            self._undo.append((space.Vector, meth, raw))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total_s(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_s(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics reported by a traced run

CALLS_AND_SELF = ("space.norm", "space.vector", "space.pair_distance", "sets.contains.box",
                  "sets.contains.hull", "sets.contains.declared", "sets.sample",
                  "sets.dist.frank_wolfe", "sets.dist.subgradient", "maps.eval_map",
                  "iterate.run", "certify.certify")
SELF_AND_CHECKED = ("maps.check_cyclic_invariance", "maps.check_phi_contraction",
                    "maps.check_kannan", "maps.check_kannan_strict_hypothesis",
                    "iterate.diagnose_interleaved", "iterate.diagnose_cauchy")
SELF_ONLY = ("iterate.diagnose_monotone_t", "iterate.diagnose_t_limit",
             "iterate.diagnose_even_gaps", "iterate.trajectory_to_csv",
             "certify.solve_and_certify", "certify.second_iterate_check",
             "config.load_config", "runner.execute")


def layer_metrics(tr: Tracer, hull_wrong: int, max_rel_err: float, n_ops: int,
                  import_s: float, overhead: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric, over the traced ops.

    The wrong hull answers and the largest relative distance error come
    from the workload's check against the truth, not from the tracer.
    """
    m: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = {"value": value, "unit": unit}

    for key in CALLS_AND_SELF:
        put(key + ".calls", tr.calls(key), "count")
        put(key + ".self_s", tr.self_s(key), "s")
    for key in SELF_AND_CHECKED:
        put(key + ".self_s", tr.self_s(key), "s")
        put(key + ".checked", tr.count(key + ".checked"), "count")
    for key in SELF_ONLY:
        put(key + ".self_s", tr.self_s(key), "s")

    put("sets.contains.hull.wrong", hull_wrong, "count")
    fw = tr.calls("sets.dist.frank_wolfe")
    put("sets.dist.frank_wolfe.converged_ratio",
        tr.count("sets.dist.frank_wolfe.converged") / fw if fw else 0.0, "fraction")
    put("sets.dist.max_rel_err", max_rel_err, "fraction")

    steps = tr.count("iterate.run.steps")
    put("iterate.run.steps", steps, "count")
    put("iterate.run.us_per_step", 1e6 * tr.total_s("iterate.run") / steps if steps else 0.0, "us")
    put("iterate.trajectory_to_csv.bytes", tr.count("iterate.trajectory_to_csv.bytes"), "B")
    put("runner.summary_bytes", tr.count("runner.summary_bytes"), "B")
    put("import.proxcycle_s", import_s, "s")

    put("trace.ops", n_ops, "count")
    put("trace.overhead.ops_per_s", overhead["ops_per_s"], "1/s")
    put("trace.overhead.op_s_p50", overhead["op_s_p50"], "s")
    put("trace.overhead.op_s_p90", overhead["op_s_p90"], "s")
    return m
