"""Microseconds per Euler step and per unit of simulated time, per model,
grid size and batch, and per trace sample.

    python3 scripts/kernel_us.py --before OLD/src --after src --rounds 10 --out BENCH.json
    python3 scripts/kernel_us.py --src src          # one measurement, JSON to stdout

Every case is timed in its own fresh interpreter that imports gogrow from
the given `--src` directory, so that its number does not depend on the
cases timed before it, and two checkouts can be timed side by side:
`--before` and `--after` alternate case by case, each round starting with
the other side, and the output file holds, per case, the median and
quartiles of each side's per-round values with the machine, Python and
numpy versions.  In round k of r, both sides' interpreters get an
environment padded by 64 * (64 k // r) bytes (the variable KERNEL_US_PAD,
read by nothing), which moves where their stacks and arrays fall within
a 4,096-byte page: a case's medians then average over memory layouts
rather than take one layout's luck.

The stepping cases time `solver.run_batch` runs over RUN_STEPS steps,
with no observer but, in the sweep case, one that reads the clock, of
which the median run is kept: the stepping loop a run pays for.  Each
reports `us`, µs per step, and `us_per_t`, µs per unit of simulated time:
`us` divided by the case's `stable_dt`.  A change of the step size shows
only in the second.  Only `run_batch`, `run`, `step` and
`TraceRecorder.sample` are called, so any two checkouts that have them
can be compared.  Seven kinds of case are timed:

- `run_batch`: a Heaviside front in a frame moving at speed 2 with
  dx = 0.05 (n = 1601, 2041 and 3201 nodes), with its recentring and
  emits; a batch of B = 4 holds chi = 0.5, 1, 2 and 0.25 side by side;
- `step`: the `run_batch` case of `local_u` at n = 1601 and B = 1 taken
  as RUN_STEPS calls of `solver.step`, each from the state the last one
  returned, so that `us` is µs per call: a new kernel and one step;
- `log`: the `run_batch` case of each model at n = 1601 and B = 1 in
  the log-shifted frame (speed 2, r = 1.5, t0 = 1), whose drift, and so
  the kernel's weights, change on every step;
- `wave`: B = 1 on the benchmark's `wave_refinement` shape, the
  closed-form traveling wave of each model in the frame moving at
  c*(chi), on the window [-15, 17] at dx = 0.02 and 0.01 (n = 1601 and
  3201), without recentring.  The plateaus of `local_u` and
  `nonlocal_rho` and the unchanged left part of `nonlocal_p` are what
  the kernel's band holds, and the case reports `held` as below;
- `sweep`: the benchmark's `pulled_fronts` batch, `local_u` at chi =
  0.123, 0.456, 1 and 2 in the lab frame, dx = 0.05 on a window of 102
  with pads 18/60 and recentring, advanced untimed to t = 20, when the
  rows behind its fronts have settled, and timed over the next
  RUN_STEPS steps.  It also reports `held`, the nodes per row that the
  kernel left unstepped in those steps (`_Kernel.held`), from one more
  run;
- `dense`: the two runs of a model on the benchmark's
  `defect_diagnostics` window (Heaviside data, dx = 0.04, pads 15/20) at
  its seed-1 chi, 0.081 and 2.347, to its T = 3 with an emit every 0.02
  and no observer, so that `us` is the cost of stepping between emits;
  it also reports `held`, the nodes per step left unstepped in the same
  runs with the same emits, and `no_emit_us`, the same runs with no emit
  but the last;
- `sample`: µs per `TraceRecorder.sample` of the state of one of those
  runs at T = 1 (`us` only), the median of RUNS means over SAMPLES calls.

`--src` alone runs every case, each in its own interpreter: 51 cases,
about 23 s in all on a 2-core x86 host.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

MODELS = ("local_u", "nonlocal_p", "nonlocal_rho", "fkpp")
SIZES = (1601, 2041, 3201)
CHIS = {1: (0.5,), 4: (0.5, 1.0, 2.0, 0.25)}
DX = 0.05
RUN_STEPS, RUNS = 2000, 3
WAVE_MODELS = ("local_u", "nonlocal_p", "nonlocal_rho")
WAVE_DX = (0.02, 0.01)
WAVE_CHIS = (0.3, 2.0)
SWEEP_CHIS = (0.123, 0.456, 1.0, 2.0)
SWEEP_T = 20.0
DEFECT_CHIS = (0.081, 2.347)
DENSE_T, DENSE_EVERY, SAMPLE_T, SAMPLES = 3.0, 0.02, 1.0, 100


def cases() -> dict[str, tuple]:
    """Every case by name, in the order they are timed, with what builds
    its configs."""
    found = {}
    for model in MODELS:
        for n in SIZES:
            for rows in CHIS:
                found[f"run_batch {model} n={n} B={rows}"] = ("run_batch", model, n, CHIS[rows])
    found[f"step local_u n={SIZES[0]}"] = ("step", "local_u", SIZES[0], CHIS[1])
    for model in MODELS:
        found[f"log {model} n={SIZES[0]}"] = ("log", model, SIZES[0], CHIS[1])
    for model in WAVE_MODELS:
        for dx in WAVE_DX:
            for chi in WAVE_CHIS:
                found[f"wave {model} n={round(32.0 / dx) + 1} chi={chi}"] = ("wave", model, dx, chi)
    found["sweep local_u n=2041 B=4"] = ("sweep", "local_u", DX, SWEEP_CHIS)
    for model in WAVE_MODELS:
        found[f"dense {model}"] = ("dense", model, None, DEFECT_CHIS)
    for model in WAVE_MODELS:
        for chi in DEFECT_CHIS:
            found[f"sample {model} chi={chi}"] = ("sample", model, None, chi)
    return found


def measure(src: str, case: str) -> dict:
    """The metrics of one case, timed with gogrow from src: {"us": µs per
    step, "us_per_t": µs per unit of simulated time}, and "held" too for
    the wave, sweep and dense cases, "no_emit_us" for the dense ones;
    {"us": µs per sample} for the sample cases."""
    sys.path.insert(0, str(Path(src).resolve()))
    from gogrow import solver

    kind, model, size, chis = cases()[case]
    if kind == "sample":
        return {"us": _sample_us(solver, _defect_cfg(solver, model, chis, SAMPLE_T))}
    if kind == "dense":
        cfgs = [_defect_cfg(solver, model, chi, DENSE_T) for chi in chis]
        steps = sum(math.ceil(cfg.t_end / solver.stable_dt(cfg) - 1e-12) for cfg in cfgs)
        held = _held(solver, lambda watch: [solver.run(cfg, [watch], trace_every=DENSE_EVERY) for cfg in cfgs])
        out = {"us": _dense_us(solver, cfgs, steps, DENSE_EVERY), "held": held / steps,
               "no_emit_us": _dense_us(solver, cfgs, steps, DENSE_T)}
    elif kind == "sweep":
        cfgs = [solver.make_config(model, chi=chi, dx=size, x_left=-30.0, width=102.0, frame=solver.Frame.lab(),
                                   left_pad=18.0, right_pad=60.0) for chi in chis]
        out = _sweep(solver, cfgs)
    elif kind == "wave":
        cfg = solver.make_config(model, chi=chis, dx=size, x_left=-15.0, width=32.0, frame="moving",
                                 init="traveling_wave", left_pad=8.0, right_pad=8.0)
        cfgs = [dataclasses.replace(cfg, t_end=RUN_STEPS * solver.stable_dt(cfg))]
        held = _held(solver, lambda watch: solver.run_batch(cfgs, [[watch]], trace_every=cfgs[0].t_end,
                                                            recenter=False))
        out = {"us": _run_batch_us(solver, cfgs, recenter=False), "held": held / RUN_STEPS}
    else:
        width = (size - 1) * DX
        frame = solver.Frame.log_shifted(2.0, r=1.5, t0=1.0) if kind == "log" else solver.Frame.moving(2.0)
        cfgs = [solver.make_config(model, chi=chi, dx=DX, x_left=-width / 2, width=width, frame=frame)
                for chi in chis]
        out = {"us": _step_us(solver, cfgs[0]) if kind == "step" else _run_batch_us(solver, cfgs)}
    out["us_per_t"] = out["us"] / solver.stable_dt(cfgs[0])
    return out


def _defect_cfg(solver, model, chi, t_end):
    # the benchmark's defect_diagnostics run, to t_end
    return solver.make_config(model, chi=chi, dx=0.04, t_end=t_end, x_left=-30.0, width=65.0,
                              amplitude=1.0 if model == "local_u" else max(1.0, chi), left_pad=15.0,
                              right_pad=20.0)


def _dense_us(solver, cfgs, steps, every) -> float:
    """µs per step of the runs of cfgs, `steps` in all, each emitting every
    `every` with no observer: the median over RUNS of the time of all of
    them."""
    runs = []
    for _ in range(RUNS):
        start = time.perf_counter()
        for cfg in cfgs:
            solver.run(cfg, trace_every=every)
        runs.append((time.perf_counter() - start) / steps * 1e6)
    return statistics.median(runs)


def _sample_us(solver, cfg) -> float:
    """µs per TraceRecorder.sample of the final state of the run of cfg."""
    from gogrow.diagnostics import TraceRecorder

    state, rec = solver.run(cfg), TraceRecorder()
    runs = []
    for _ in range(RUNS):
        start = time.perf_counter()
        for _ in range(SAMPLES):
            rec.sample(state, cfg)
        runs.append((time.perf_counter() - start) / SAMPLES * 1e6)
    return statistics.median(runs)


def _step_us(solver, cfg) -> float:
    """µs per solver.step call over RUN_STEPS calls from the initial state
    of cfg, each stepping the state the last one returned."""
    dt = solver.stable_dt(cfg)
    runs = []
    for _ in range(RUNS):
        state = solver.make_state(cfg)
        start = time.perf_counter()
        for _ in range(RUN_STEPS):
            state = solver.step(state, cfg, dt)
        runs.append((time.perf_counter() - start) / RUN_STEPS * 1e6)
    return statistics.median(runs)


def _run_batch_us(solver, cfgs, recenter=True) -> float:
    t_end = RUN_STEPS * solver.stable_dt(cfgs[0])
    cfgs = [dataclasses.replace(cfg, t_end=t_end) for cfg in cfgs]
    runs = []
    for _ in range(RUNS):
        start = time.perf_counter()
        solver.run_batch(cfgs, [[] for _ in cfgs], recenter=recenter)
        runs.append((time.perf_counter() - start) / RUN_STEPS * 1e6)
    return statistics.median(runs)


def _sweep(solver, cfgs) -> dict:
    """µs per step of the RUN_STEPS steps after SWEEP_T, timed from the
    emit at SWEEP_T, and the nodes per row held in them."""
    t_end = SWEEP_T + RUN_STEPS * solver.stable_dt(cfgs[0])
    cfgs = [dataclasses.replace(cfg, t_end=t_end) for cfg in cfgs]
    runs = []
    for _ in range(RUNS):
        marks = []
        observers = [[lambda state, _: marks.append(time.perf_counter())]] + [[] for _ in cfgs[1:]]
        solver.run_batch(cfgs, observers, trace_every=SWEEP_T)
        runs.append((time.perf_counter() - marks[1]) / RUN_STEPS * 1e6)
    held = _held(solver, lambda watch: solver.run_batch(cfgs, [[watch]] + [[] for _ in cfgs[1:]],
                                                        trace_every=SWEEP_T), after=SWEEP_T)
    return {"us": statistics.median(runs), "held": held / (len(cfgs) * RUN_STEPS)}


def _held(solver, runs, after: float = 0.0) -> int:
    """The node-steps that the kernels of runs(watch) left unstepped after
    its first emit at or after the time `after`: runs makes solver.run or
    run_batch calls, with the observer watch on their first config."""
    base = solver._Kernel
    made, marks = [], []

    class Counting(base):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def held() -> int:
        return sum(k.held for k in made)

    solver._Kernel = Counting
    try:
        runs(lambda state, _: marks.append((state.t, held())))
    finally:
        solver._Kernel = base
    return held() - next(count for t, count in marks if t >= after)


def _child(src: Path, case: str, pad: int) -> dict:
    env = dict(os.environ, KERNEL_US_PAD="x" * pad)
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--src", str(src), "--case", case],
                          capture_output=True, text=True, check=True, env=env)
    return json.loads(proc.stdout)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _summary(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(med, 2), "q1": round(q1, 2), "q3": round(q3, 2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, help="time one checkout and print its JSON")
    ap.add_argument("--before", type=Path, help="src directory of the reference checkout")
    ap.add_argument("--after", type=Path, help="src directory of the changed checkout")
    ap.add_argument("--case", choices=list(cases()), help="with --src: time this case alone")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = ap.parse_args(argv)
    if args.src is not None:
        if args.case is not None:
            print(json.dumps(measure(str(args.src), args.case)))
        else:
            print(json.dumps({case: _child(args.src, case, 0) for case in cases()}))
        return 0
    if args.before is None or args.after is None or args.rounds < 1:
        ap.error("give --src, or --before and --after with --rounds >= 1")

    runs = {side: {case: [] for case in cases()} for side in ("before", "after")}
    for k in range(args.rounds):
        pad = 64 * (64 * k // args.rounds)  # the same layout for both sides
        for i, case in enumerate(cases()):
            # alternate which side goes first, so drift does not favour one
            for side in (("before", "after") if (k + i) % 2 == 0 else ("after", "before")):
                runs[side][case].append(_child(getattr(args, side), case, pad))
        print(f"round {k + 1}/{args.rounds} done", file=sys.stderr)
    table = {}
    for case, before in runs["before"].items():
        after = runs["after"][case]
        row = {f"{side}_{metric}": _summary([r[metric] for r in rounds])
               for metric in before[0] for side, rounds in (("before", before), ("after", after))}
        row["after_faster_rounds"] = sum(a["us"] < b["us"] for a, b in zip(after, before))
        if "us_per_t" in before[0]:  # not for the sample cases
            row["after_faster_per_t_rounds"] = sum(a["us_per_t"] < b["us_per_t"] for a, b in zip(after, before))
        table[case] = row
    report = {
        "what": "microseconds per step (us) and per unit of simulated time (us_per_t: us / "
                "stable_dt) of whole solver.run_batch runs (median run of each round, each case "
                "in its own interpreter, whose environment is padded by a length that differs "
                "from round to round; step: us per solver.step call; log: run_batch in the "
                "log-shifted frame; wave: traveling waves in their moving frame, no "
                "recentring; sweep: the pulled_fronts batch after t = 20; wave and sweep report the "
                "nodes per row the kernel held; dense: the defect_diagnostics runs to T = 3 with an emit "
                "every 0.02 and no observer, held the nodes per step the kernels held with those emits, "
                "and no_emit_us without the emits; sample: us per "
                "TraceRecorder.sample of their state at T = 1)",
        "machine": {"platform": platform.platform(), "cpu": _cpu_model(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rounds": args.rounds,
        "cases": table,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for case, row in table.items():
        held = f"  held {row['before_held']['median']:.0f} -> {row['after_held']['median']:.0f}" \
            if "before_held" in row else ""
        per_t = f"  {row['before_us_per_t']['median']:9.0f} -> {row['after_us_per_t']['median']:9.0f} us per t" \
            f"  ({row['after_faster_per_t_rounds']}/{args.rounds} faster)" if "before_us_per_t" in row else ""
        plain = f"  no emit {row['before_no_emit_us']['median']:.2f} -> {row['after_no_emit_us']['median']:.2f} us" \
            if "before_no_emit_us" in row else ""
        print(f"{case:36s} {row['before_us']['median']:8.2f} -> {row['after_us']['median']:8.2f} us"
              f"  ({row['after_faster_rounds']}/{args.rounds} faster){per_t}{held}{plain}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
