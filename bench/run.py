"""gogrow benchmark: run one workload closed-loop and print its metrics.

    python3 bench/run.py --workload pulled_fronts --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout.  The benchmark imports gogrow from the
checkout's `src/` and nothing else.  It measures set-up time in fresh
child processes, then runs whole rounds of the workload until about
`--seconds` have passed, and prints one line per metric followed by a
JSON object as the last line of standard output.  `--trace 0` gives the
end-to-end metrics; `--trace 1` alternates untraced and traced rounds and
gives the per-layer metrics, with the tracing overhead.  `--workload all`
runs every workload in its own process and prints all their metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
NAMES = ("pulled_fronts", "wave_refinement", "defect_diagnostics")
SETUP_PROBES = 7


def import_gogrow() -> None:
    """Put the checkout's src/ first on the path and import gogrow from it.

    Raises ImportError when the checkout has no gogrow sources, so that an
    installed copy elsewhere is never measured in their place.
    """
    src = ROOT / "src"
    if not (src / "gogrow" / "__init__.py").is_file():
        raise ImportError(f"no gogrow sources under {src}")
    sys.path.insert(0, str(src))
    import gogrow

    if Path(gogrow.__file__).resolve().parent != (src / "gogrow").resolve():
        raise ImportError(f"gogrow imported from {gogrow.__file__}, not from {src}")


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child's reading is comparable.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to the point where the first solver.run
    or cli.main call would be made, in fresh interpreters."""
    times = []
    for i in range(SETUP_PROBES):
        start = _now()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe", str(OUT / f"probe-{workload}-{i}")],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(probe.stdout.split()[-1]) - start)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import workloads

    prepare, run_round = workloads.WORKLOADS[name]
    work = OUT / f"{name}-{seed}"
    setup = [] if trace else measure_setup(name, seed)
    plan = prepare(seed, work)

    tracer = layers.Tracer()
    plain, traced = [], []
    rounds = []
    started = _now()
    while True:
        tracing = trace and len(rounds) % 2 == 1
        if tracing:
            with layers.traced(tracer):
                rnd = run_round(plan)
            traced.append(rnd.solve_s)
        else:
            rnd = run_round(plan)
            plain.append(rnd.solve_s)
        rounds.append(rnd)
        elapsed = _now() - started
        # Start another round if it should end by `seconds` plus half a
        # round; trace runs need an untraced and a traced round at least.
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds and not (trace and not traced):
            break
    shutil.rmtree(work, ignore_errors=True)

    problems = [p for rnd in rounds for p in rnd.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if trace:
        metrics = layers.layer_metrics(tracer.spans, len(traced), sum(traced))
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"spans-{name}-{seed}.json", "w") as fh:
            json.dump(tracer.spans, fh)
    else:
        metrics = {
            "solve_s": (statistics.median(plain), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(f"# {name} seed={seed} rounds={len(rounds)} solve_s per round: "
          + " ".join(f"{r.solve_s:.3f}" for r in rounds))
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process (peak memory is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        import_gogrow()
    except ImportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.setup_probe is not None:
        import workloads

        workloads.WORKLOADS[args.workload][0](args.seed, args.setup_probe)
        ready = _now()
        shutil.rmtree(args.setup_probe, ignore_errors=True)
        print(ready)
        return 0

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
