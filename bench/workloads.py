"""The benchmark's workloads: inputs drawn from a seed, one round of
operations through gogrow's public API, and the checks on every output.

An operation is one model run together with its checks.  A round runs
every operation of the workload once, in a fixed order, so every round
attempts the same operations.  `prepare_*` is the set-up (configs and
inputs); `run_*` runs one round and times only the calls into gogrow.
"""

from __future__ import annotations

import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from gogrow import cli, solver
from gogrow.diagnostics import TraceRecorder
from gogrow.solver import make_config

import reference

# Seeded chi intervals: the pulled (chi < 1) and pushed (chi > 1) regimes;
# the pushmi-pullyu point chi = 1 is fixed where a workload uses it.
PULLED = (0.0, 0.6)
PUSHED = (1.5, 2.5)


@dataclass
class Round:
    """Outcome of one round: time in gogrow, operation counts, and the
    checks that did not hold on the operations that did not fail."""

    solve_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"operation failed: {what}", file=sys.stderr)

    def timed_run(self, tag: str, cfg, **kwargs):
        """solver.run, timed into solve_s; None when the run raises."""
        t0 = perf_counter()
        try:
            return solver.run(cfg, **kwargs)
        except (RuntimeError, ValueError) as err:
            self.fail(f"{tag}: {err}")
            return None
        finally:
            self.solve_s += perf_counter() - t0


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


# ---------------------------------------------------------------------------
# pulled_fronts: `gogrow sweep --jobs 1` in-process, the local_t400 window

# The shortest run at which the pulled second-half speed is within 0.05 of
# c* (1.957 at chi = 0) and the delay fits keep their order.
SWEEP_T = 40.0
SWEEP_CONFIG = """\
[model]
kind = "local_u"
[grid]
dx = 0.05
x_left = -30
width = 102
[run]
t_end = {t_end}
init = "heaviside"
left_pad = 18
right_pad = 60
[output]
trace_every = 0.5
"""


@dataclass
class SweepPlan:
    chis: list[float]
    config: Path
    out: Path


def prepare_pulled_fronts(seed: int, work: Path) -> SweepPlan:
    rng = random.Random(seed)
    half = 0.5 * (PULLED[0] + PULLED[1])
    chis = [_draw(rng, PULLED[0], half - 0.05), _draw(rng, half + 0.05, PULLED[1]), 1.0,
            _draw(rng, *PUSHED)]
    work.mkdir(parents=True, exist_ok=True)
    config = work / "sweep.toml"
    config.write_text(SWEEP_CONFIG.format(t_end=SWEEP_T))
    return SweepPlan(chis=chis, config=config, out=work / "sweep")


def run_pulled_fronts(plan: SweepPlan) -> Round:
    shutil.rmtree(plan.out, ignore_errors=True)
    argv = ["sweep", "--chi", ",".join(str(c) for c in plan.chis), "--config", str(plan.config),
            "--out", str(plan.out), "--jobs", "1"]
    rnd = Round(attempted=len(plan.chis))
    t0 = perf_counter()
    status = cli.main(argv)
    rnd.solve_s = perf_counter() - t0

    summary = plan.out / "sweep_summary.csv"
    rows = _read_csv(summary) if summary.exists() else None
    r_fit = {}
    for i, chi in enumerate(plan.chis):
        member = plan.out / f"chi_{chi:.12g}"
        if not (member / "summary.json").exists():
            rnd.fail(f"sweep member chi={chi} wrote no summary.json (sweep exit {status})")
            continue
        c = reference.c_star(chi)
        trace = _read_csv(member / "trace.csv")
        t, x = trace["t"], trace["x_front"]
        rnd.check(abs(t[-1] - SWEEP_T) < 1e-9, f"chi={chi}: trace ends at t={t[-1]}")
        half = int(np.searchsorted(t, SWEEP_T / 2 - 1e-9))
        speed = (x[-1] - x[half]) / (t[-1] - t[half])
        rnd.check(abs(speed - c) <= 0.05, f"chi={chi}: second-half speed {speed:.4f} vs c* {c}")
        r_fit[chi] = reference.delay_fit(t, x, c)
        if rows is not None:
            rnd.check(abs(rows["chi"][i] - chi) < 1e-12, f"row {i} is chi={rows['chi'][i]}")
            rnd.check(abs(rows["c_star"][i] - c) <= 1e-9 * c, f"chi={chi}: c_star {rows['c_star'][i]}")
            rnd.check(abs(rows["r_fit"][i] - r_fit[chi]) <= 1e-6,
                      f"chi={chi}: sweep r_fit {rows['r_fit'][i]} vs refit {r_fit[chi]}")
    if len(r_fit) == len(plan.chis):
        rnd.check(status == 0 and rows is not None and len(rows["chi"]) == len(plan.chis),
                  f"sweep exit {status} with every member done")
        pulled = min(r_fit[c] for c in plan.chis if c < 1.0)
        pushed = r_fit[plan.chis[-1]]
        rnd.check(pulled - r_fit[1.0] >= 0.25 and r_fit[1.0] - pushed >= 0.25,
                  f"delay order broken: {r_fit}")
        rnd.check(abs(r_fit[1.0] - 0.5) <= 0.25, f"r(1) = {r_fit[1.0]}")
        rnd.check(abs(pushed) <= 0.25, f"r({plan.chis[-1]}) = {pushed}")
    return rnd


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    data = np.genfromtxt(path, delimiter=",", names=True)
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}


# ---------------------------------------------------------------------------
# wave_refinement: closed-form waves in the moving frame on two grids

# Long enough for the fine/coarse deviation ratio to sit at the scheme's order.
WAVE_T = 0.25
WAVE_DX = (0.02, 0.01)
WAVE_FIELD = {"local_u": "u", "nonlocal_p": "p", "nonlocal_rho": "rho"}
# Order of the scheme in dx: the local model's regularization width and the
# density model's rectangle-rule mass are tied to dx; the P model is
# second order.
WAVE_ORDER = {"local_u": 1, "nonlocal_p": 2, "nonlocal_rho": 1}
RATIO_SLACK = 1.2


def prepare_wave_refinement(seed: int, work: Path) -> list:
    rng = random.Random(seed)
    chis = [_draw(rng, *PULLED), _draw(rng, *PUSHED)]
    return [
        (model, chi, dx, make_config(model=model, chi=chi, dx=dx, t_end=WAVE_T, x_left=-15.0,
                                     width=32.0, frame="moving", init="traveling_wave",
                                     left_pad=8.0, right_pad=8.0))
        for model in WAVE_FIELD for chi in chis for dx in WAVE_DX
    ]


def run_wave_refinement(plan: list) -> Round:
    rnd = Round(attempted=len(plan))
    devs = {}
    for model, chi, dx, cfg in plan:
        tag = f"{model} chi={chi} dx={dx}"
        final = rnd.timed_run(tag, cfg, trace_every=WAVE_T, recenter=False)
        if final is None:
            continue
        v = final.field
        x = -15.0 + dx * np.arange(v.size)
        rnd.check(final.t == WAVE_T and final.x_left == -15.0, f"{tag}: t={final.t}, x_left={final.x_left}")
        rnd.check(abs(cfg.frame.c - reference.c_star(chi)) <= 1e-12, f"{tag}: frame speed {cfg.frame.c}")
        rnd.check(bool(np.isfinite(v).all()), f"{tag}: non-finite field")
        if model == "local_u":
            rnd.check(v.min() >= 0.0 and v.max() <= 1.0, f"{tag}: u outside [0, 1]")
        p = v if model == "nonlocal_p" else dx * np.cumsum(v[::-1])[::-1]
        rnd.check(bool(np.all(np.diff(p) <= 0.0)), f"{tag}: P increases")
        devs[model, chi, dx] = float(np.max(np.abs(v - reference.wave(WAVE_FIELD[model], chi, x))))
    for (model, chi, dx), dev in devs.items():
        if dx != WAVE_DX[0]:
            continue
        rnd.check(dev <= 5.0 * dx, f"{model} chi={chi}: coarse deviation {dev:.3e} > 5 dx")
        fine = devs.get((model, chi, WAVE_DX[1]))
        bound = RATIO_SLACK * 2.0 ** -WAVE_ORDER[model]
        rnd.check(fine is not None and fine <= bound * dev,
                  f"{model} chi={chi}: refinement ratio {fine} / {dev} above {bound}")
    return rnd


# ---------------------------------------------------------------------------
# defect_diagnostics: Heaviside data, the full TraceRecorder every 0.02

DEFECT_T = 3.0
DEFECT_DX = 0.04
SAMPLE_EVERY = 0.02


def prepare_defect_diagnostics(seed: int, work: Path) -> list:
    rng = random.Random(seed)
    chis = [_draw(rng, *PULLED), _draw(rng, *PUSHED)]
    return [
        (model, chi, make_config(model=model, chi=chi, dx=DEFECT_DX, t_end=DEFECT_T, x_left=-30.0,
                                 width=65.0, init="heaviside",
                                 amplitude=1.0 if model == "local_u" else max(1.0, chi),
                                 left_pad=15.0, right_pad=20.0))
        for model in WAVE_FIELD for chi in chis
    ]


def run_defect_diagnostics(plan: list) -> Round:
    rnd = Round(attempted=len(plan))
    for model, chi, cfg in plan:
        tag = f"{model} chi={chi}"
        rec = TraceRecorder()
        final = rnd.timed_run(tag, cfg, observers=[rec], trace_every=SAMPLE_EVERY)
        if final is None:
            continue
        t = np.asarray(rec.t)
        moment = np.asarray(rec.moment)
        rnd.check(t.size == round(DEFECT_T / SAMPLE_EVERY) + 1 and t[-1] == DEFECT_T,
                  f"{tag}: {t.size} samples ending at {t[-1]}")
        defect = np.asarray(rec.min_defect)[t >= 0.5]
        rnd.check(bool(np.isfinite(defect).all()) and defect.min() >= -10.0 * DEFECT_DX,
                  f"{tag}: min shape defect {np.min(defect):.3e} below -10 dx")
        i0 = moment[0]
        if chi >= 1.0:
            drift = float(np.max(np.abs(moment - i0)) / i0)
            rnd.check(drift <= 1e-2, f"{tag}: moment drift {drift:.2e}")
        else:
            # roundoff budget of 1e-8 I0 per step; the diffusion limit
            # 0.4 dx^2 / 2 sets the step on this grid
            allowed = SAMPLE_EVERY / (0.2 * DEFECT_DX**2) * 1e-8 * i0
            rnd.check(float(np.max(np.diff(moment))) <= allowed, f"{tag}: moment increases")
        # the last sample's moment, recomputed from the final field (u, P
        # or rho: each model's moment weighs its own field)
        x = final.x_left + DEFECT_DX * np.arange(final.field.size)
        weight = np.exp((x - reference.c_star(chi) * DEFECT_T) / max(1.0, chi))
        mine = float(np.trapezoid(final.field * weight, dx=DEFECT_DX))
        rnd.check(abs(mine - moment[-1]) <= 1e-9 * abs(mine), f"{tag}: moment {moment[-1]} vs {mine}")
    return rnd


WORKLOADS = {
    "pulled_fronts": (prepare_pulled_fronts, run_pulled_fronts),
    "wave_refinement": (prepare_wave_refinement, run_wave_refinement),
    "defect_diagnostics": (prepare_defect_diagnostics, run_defect_diagnostics),
}

