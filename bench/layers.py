"""Per-layer tracing: timing wrappers around gogrow's module attributes.

gogrow resolves these names as module globals at call time (`run()` calls
`make_state` and `_maybe_recenter`, `TraceRecorder` calls the diagnostics
functions, the diagnostics call `eta_*`, and so on), so replacing the
attribute reaches every call.  Each call records a span (name, start,
end, parent) in memory; `layer_metrics` turns the spans into the
per-layer metrics, using self time: a span's duration minus that of its
child spans.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np
from gogrow import asymptotics, cli, diagnostics, lambertw, profiles, solver

import reference

DIAGNOSTIC_FNS = (
    "front_location",
    "exponential_moment",
    "min_shape_defect",
    "weighted_defect_sup",
    "rankine_hugoniot_residual",
)
MODELS = ("local_u", "nonlocal_p", "nonlocal_rho")


def _run_info(args, kwargs, final):
    cfg = args[0]
    steps = 0 if cfg.t_end <= 0.0 else max(1, math.ceil(cfg.t_end / solver.stable_dt(cfg) - 1e-12))
    return cfg.model.value, steps, cfg.grid.n, final.clip_count


def _targets():
    """(owner, attribute, span name, info) for every wrapped call.

    info(args, kwargs, result) is evaluated after the span closes.
    """
    return [
        (solver, "run", "solver.run", _run_info),
        (solver, "make_state", "solver.make_state", None),
        (solver, "_maybe_recenter", "solver.recenter", lambda a, k, r: r != a[1]),
        (diagnostics.TraceRecorder, "__call__", "diagnostics.sample", None),
        *[(diagnostics, fn, f"diagnostics.{fn}", None) for fn in DIAGNOSTIC_FNS],
        (diagnostics, "eta_regularized", "profiles.eta", None),
        (diagnostics, "eta_nonlocal", "profiles.eta", None),
        (profiles, "lambert_w_minus1_array", "lambertw.array", lambda a, k, r: np.size(a[0])),
        (lambertw, "lambert_w_minus1", "lambertw.scalar", None),
        (asymptotics, "fit_front_delay", "asymptotics.fit", None),
        (asymptotics, "check_envelopes", "asymptotics.envelope", None),
        (cli, "cmd_run", "cli.cmd_run", None),
        (cli, "_write_csv", "cli.csv", lambda a, k, r: os.path.getsize(a[0])),
    ]


class Tracer:
    """In-memory span log; spans are [name, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, info in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, info))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(spans: list[list], rounds: int, solve_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of `rounds` traced rounds, which
    spent solve_s seconds in gogrow in all.  Counts and totals are per
    round; the *_ms of single calls are medians."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name = defaultdict(list)  # name -> [(duration, self time, info, index)]
    for i, (name, start, end, _, info) in enumerate(spans):
        by_name[name].append((end - start, end - start - child_time[i], info, i))

    def total(name, col=1):
        return sum(s[col] for s in by_name[name])

    def median_ms(name):
        durations = [s[0] for s in by_name[name]]
        return 1e3 * statistics.median(durations) if durations else 0.0

    per_round = 1.0 / rounds
    m: dict[str, tuple[float, str]] = {}

    runs = by_name["solver.run"]
    steps = sum(s[2][1] for s in runs)
    nodes = sum(s[2][1] * s[2][2] for s in runs)
    m["solver.steps"] = (steps * per_round, "count")
    m["solver.node_updates"] = (nodes * per_round, "count")
    for model in MODELS:
        mine = [s for s in runs if s[2][0] == model]
        model_steps = sum(s[2][1] for s in mine)
        us = 1e6 * sum(s[1] for s in mine) / model_steps if model_steps else 0.0
        m[f"solver.step_us.{model}"] = (us, "us")
    m["solver.ns_per_node"] = (1e9 * total("solver.run") / nodes if nodes else 0.0, "ns")
    recenters = by_name["solver.recenter"]
    m["solver.recenter_calls"] = (len(recenters) * per_round, "count")
    m["solver.recenter_shifts"] = (sum(1 for s in recenters if s[2]) * per_round, "count")
    m["solver.recenter_ms"] = (1e3 * total("solver.recenter") * per_round, "ms")
    m["solver.make_state_ms"] = (1e3 * total("solver.make_state") * per_round, "ms")
    m["solver.clips"] = (sum(s[2][3] for s in runs) * per_round, "count")

    samples = [s[0] for s in by_name["diagnostics.sample"]]
    m["diagnostics.samples"] = (len(samples) * per_round, "count")
    m["diagnostics.sample_ms"] = (median_ms("diagnostics.sample"), "ms")
    tail = reference.tail_percentile(samples)
    m["diagnostics.sample_ms_tail"] = (1e3 * tail[1] if tail else median_ms("diagnostics.sample"), "ms")
    for fn in DIAGNOSTIC_FNS:
        m[f"diagnostics.{fn}_ms"] = (median_ms(f"diagnostics.{fn}"), "ms")
    # the observers' time, with the profiles and lambertw calls they make
    m["diagnostics.share"] = (sum(samples) / solve_s if solve_s > 0 else 0.0, "ratio")

    m["profiles.eta_calls"] = (len(by_name["profiles.eta"]) * per_round, "count")
    m["profiles.eta_ms"] = (1e3 * total("profiles.eta") * per_round, "ms")

    points = sum(s[2] for s in by_name["lambertw.array"])
    fallbacks = len(by_name["lambertw.scalar"])
    lam_time = total("lambertw.array") + total("lambertw.scalar")
    m["lambertw.points"] = (points * per_round, "count")
    m["lambertw.ns_per_point"] = (1e9 * lam_time / points if points else 0.0, "ns")
    m["lambertw.scalar_fallbacks"] = (fallbacks * per_round, "count")
    m["lambertw.fallback_ratio"] = (fallbacks / points if points else 0.0, "ratio")

    m["asymptotics.fit_ms"] = (1e3 * total("asymptotics.fit", 0) * per_round, "ms")
    m["asymptotics.envelope_ms"] = (1e3 * total("asymptotics.envelope", 0) * per_round, "ms")

    inner_runs = sum(
        s[0] for s in runs if spans[s[3]][3] >= 0 and spans[spans[s[3]][3]][0] == "cli.cmd_run"
    )
    m["cli.overhead_ms"] = (1e3 * (total("cli.cmd_run", 0) - inner_runs) * per_round, "ms")
    m["cli.csv_ms"] = (1e3 * total("cli.csv", 0) * per_round, "ms")
    m["cli.csv_bytes"] = (sum(s[2] for s in by_name["cli.csv"]) * per_round, "B")
    return m
