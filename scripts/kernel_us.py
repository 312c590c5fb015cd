"""Microseconds per Euler step, per model, grid size and batch.

    python3 scripts/kernel_us.py --before OLD/src --after src --rounds 10 --out BENCH.json
    python3 scripts/kernel_us.py --src src          # one measurement, JSON to stdout

Each measurement runs in a fresh interpreter that imports gogrow from the
given `--src` directory, so two checkouts can be timed side by side:
`--before` and `--after` alternate round by round, and the output file
holds, per case, the median and quartiles of each side's per-round values
with the machine, Python and numpy versions.

Every case times whole `solver.run_batch` runs of RUN_STEPS steps, with
no observer, of which the median run is kept: the stepping loop a run
pays for.  Only `run_batch` is called, so any two checkouts that have it
can be compared.  Two kinds of case are timed:

- `run_batch`: a Heaviside front in a frame moving at speed 2 with
  dx = 0.05 (n = 1601, 2041 and 3201 nodes), with its recentring and
  emits; a batch of B = 4 holds chi = 0.5, 1, 2 and 0.25 side by side;
- `wave`: B = 1 on the benchmark's `wave_refinement` shape, the
  closed-form traveling wave of each model in the frame moving at
  c*(chi), on the window [-15, 17] at dx = 0.02 and 0.01 (n = 1601 and
  3201), without recentring.  Its plateaus are what the kernel's band
  skips.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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


def measure(src: str) -> dict:
    """µs per step of every (kind, model, n, B) case, timed with gogrow
    from src."""
    sys.path.insert(0, str(Path(src).resolve()))
    from gogrow import solver

    frame = solver.Frame.moving(2.0)
    result = {}
    for model in MODELS:
        for n in SIZES:
            width = (n - 1) * DX
            for rows, chis in CHIS.items():
                cfgs = [solver.make_config(model, chi=chi, dx=DX, x_left=-width / 2, width=width,
                                           frame=frame) for chi in chis]
                result[f"run_batch {model} n={n} B={rows}"] = _run_batch_us(solver, cfgs)
    for model in WAVE_MODELS:
        for dx in WAVE_DX:
            for chi in WAVE_CHIS:
                cfg = solver.make_config(model, chi=chi, dx=dx, x_left=-15.0, width=32.0, frame="moving",
                                         init="traveling_wave", left_pad=8.0, right_pad=8.0)
                case = f"wave {model} n={cfg.grid.n} chi={chi}"
                result[case] = _run_batch_us(solver, [cfg], recenter=False)
    return result


def _run_batch_us(solver, cfgs, recenter=True) -> float:
    t_end = RUN_STEPS * solver.stable_dt(cfgs[0])
    cfgs = [dataclasses.replace(cfg, t_end=t_end) for cfg in cfgs]
    runs = []
    for _ in range(RUNS):
        start = time.perf_counter()
        solver.run_batch(cfgs, [[] for _ in cfgs], recenter=recenter)
        runs.append((time.perf_counter() - start) / RUN_STEPS * 1e6)
    return statistics.median(runs)


def _child(src: Path) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--src", str(src)],
                          capture_output=True, text=True, check=True)
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
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = ap.parse_args(argv)
    if args.src is not None:
        print(json.dumps(measure(str(args.src))))
        return 0
    if args.before is None or args.after is None or args.rounds < 1:
        ap.error("give --src, or --before and --after with --rounds >= 1")

    runs = {"before": [], "after": []}
    for k in range(args.rounds):
        # alternate which side goes first, so drift does not favour one
        for side in (("before", "after") if k % 2 == 0 else ("after", "before")):
            runs[side].append(_child(getattr(args, side)))
            print(f"round {k + 1}/{args.rounds} {side} done", file=sys.stderr)
    cases = {}
    for case in runs["before"][0]:
        before = [r[case] for r in runs["before"]]
        after = [r[case] for r in runs["after"]]
        cases[case] = {
            "before_us": _summary(before),
            "after_us": _summary(after),
            "after_faster_rounds": sum(a < b for a, b in zip(after, before)),
        }
    report = {
        "what": "microseconds per step of whole solver.run_batch runs (median run of each "
                "round; wave: traveling waves in their moving frame, no recentring)",
        "machine": {"platform": platform.platform(), "cpu": _cpu_model(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rounds": args.rounds,
        "cases": cases,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for case, row in cases.items():
        print(f"{case:36s} {row['before_us']['median']:8.2f} -> {row['after_us']['median']:8.2f} us"
              f"  ({row['after_faster_rounds']}/{args.rounds} faster)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
