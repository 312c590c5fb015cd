"""Byte-identity of gogrow's outputs between two checkouts.

    python3 scripts/identity.py --before OLD/src --after src
    python3 scripts/identity.py --src src --into DIR   # write one side's files

Each side runs in a fresh interpreter that imports gogrow from the given
`--src` directory and writes the same set of outputs into its own
directory:

- the benchmark's `pulled_fronts` sweeps (bench/workloads.py) of seeds 1
  and 2, each with `--jobs` 1 and 2;
- a run of the default config for every model in every frame;
- a `nonlocal_rho` sweep of three chi with snapshots;
- traveling-wave runs in the frame moving at c*(chi), on the benchmark's
  `wave_refinement` window at dx = 0.02, with snapshots: `local_u` and
  `nonlocal_p` at a pulled and a pushed chi and `nonlocal_rho` at the
  pulled one, whose plateaus, and P's unchanged left part, the kernel's
  band skips;
- densely sampled runs on the benchmark's `defect_diagnostics` window
  (Heaviside data, dx = 0.04, pads 15/20) to T = 1 with the full trace
  every 0.02, each model at chi = 0.3 and 2: between two recentrings the
  kernel's steps are split into calls at every emit;
- `gogrow wave` for every model at a pulled and a pushed chi.

The two directories are then compared file by file.  The script prints
one line per file that is missing on a side or differs, with the largest
|difference| of each numeric column (CSV) or key (JSON), and exits 1 when
there is any such file, 0 when every file is byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODELS = ("local_u", "nonlocal_p", "nonlocal_rho", "fkpp")
FRAMES = ("lab", "moving", "log_shifted")
SEEDS = (1, 2)
RHO_SWEEP = """\
[model]
kind = "nonlocal_rho"
[grid]
dx = 0.05
x_left = -30
width = 90
[run]
t_end = 20
[output]
trace_every = 0.5
snapshot_every = 5
"""
WAVE_RUN = """\
[model]
kind = "{model}"
chi = {chi}
[grid]
dx = 0.02
x_left = -15
width = 32
[run]
t_end = 1
frame = "moving"
init = "traveling_wave"
left_pad = 8
right_pad = 8
[output]
trace_every = 0.1
snapshot_every = 0.5
"""
WAVE_RUNS = (("local_u", 0.081), ("local_u", 2.347), ("nonlocal_p", 0.081), ("nonlocal_p", 2.347),
             ("nonlocal_rho", 0.081))
DENSE_RUN = """\
[model]
kind = "{model}"
chi = {chi}
[grid]
dx = 0.04
x_left = -30
width = 65
[run]
t_end = 1
amplitude = {amplitude}
left_pad = 15
right_pad = 20
[output]
trace_every = 0.02
"""
DENSE_CHIS = (0.3, 2.0)
WAVES = ((0.5, "u"), (0.5, "p"), (0.5, "rho"), (2.0, "u"), (2.0, "p"), (2.0, "rho"))


def write_outputs(src: Path, into: Path) -> None:
    """Write every output of the identity set, made by gogrow from src."""
    sys.path[:0] = [str(src.resolve()), str(ROOT / "bench")]
    from gogrow import cli

    import workloads  # the benchmark's pulled_fronts inputs

    def gogrow(*argv) -> None:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            status = cli.main([str(a) for a in argv])
        if status != 0:
            raise SystemExit(f"gogrow {' '.join(map(str, argv))} exited {status}: {err.getvalue()}")

    into.mkdir(parents=True, exist_ok=True)
    for seed in SEEDS:
        plan = workloads.prepare_pulled_fronts(seed, into / "inputs" / f"pulled_{seed}")
        for jobs in (1, 2):
            gogrow("sweep", "--chi", ",".join(map(str, plan.chis)), "--config", plan.config,
                   "--out", into / f"pulled_seed{seed}_jobs{jobs}", "--jobs", jobs)
    for model in MODELS:
        for frame in FRAMES:
            config = into / "inputs" / f"{model}_{frame}.toml"
            config.write_text(f'[model]\nkind = "{model}"\n[run]\nframe = "{frame}"\n')
            gogrow("run", "--config", config, "--out", into / f"run_{model}_{frame}")
    config = into / "inputs" / "rho_sweep.toml"
    config.write_text(RHO_SWEEP)
    gogrow("sweep", "--chi", "0.5,1,2", "--config", config, "--out", into / "rho_sweep")
    for model, chi in WAVE_RUNS:
        config = into / "inputs" / f"wave_{model}_{chi}.toml"
        config.write_text(WAVE_RUN.format(model=model, chi=chi))
        gogrow("run", "--config", config, "--out", into / f"wave_run_{model}_{chi}")
    for model in MODELS[:3]:
        for chi in DENSE_CHIS:
            config = into / "inputs" / f"dense_{model}_{chi}.toml"
            amplitude = 1.0 if model == "local_u" else max(1.0, chi)
            config.write_text(DENSE_RUN.format(model=model, chi=chi, amplitude=amplitude))
            gogrow("run", "--config", config, "--out", into / f"dense_run_{model}_{chi}")
    for chi, model in WAVES:
        gogrow("wave", "--chi", chi, "--model", model, "--xmin", -20, "--xmax", 20, "--dx", 0.05,
               "--out", into / f"wave_{model}_{chi}.csv")
    shutil.rmtree(into / "inputs")


def _numbers(path: Path) -> dict[str, list[float]]:
    """The numeric columns of a CSV file, or the numeric values of a JSON
    object, by name; {} when the file is neither."""
    text = path.read_text()
    if path.suffix == ".json":
        values = json.loads(text)
        return {k: [float(v)] for k, v in values.items() if isinstance(v, (int, float))}
    if path.suffix != ".csv":
        return {}
    header, *rows = [line.split(",") for line in text.splitlines()]
    return {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}


def _largest_gaps(a: Path, b: Path) -> str:
    """The largest |difference| of each column or key whose values differ."""
    try:
        left, right = _numbers(a), _numbers(b)
    except (ValueError, IndexError) as err:
        return f"not comparable as numbers ({err})"
    if left.keys() != right.keys():
        return f"columns differ: {sorted(left)} vs {sorted(right)}"
    gaps = []
    for name in left:
        if len(left[name]) != len(right[name]):
            gaps.append(f"{name} {len(left[name])} vs {len(right[name])} rows")
            continue
        worst = max((abs(x - y) if not (math.isnan(x) and math.isnan(y)) else 0.0
                     for x, y in zip(left[name], right[name])), default=0.0)
        if worst != 0.0:
            gaps.append(f"{name} {worst:.3g}")
    return ", ".join(gaps) or "same numbers, different bytes"


def compare(before: Path, after: Path) -> list[tuple[str, str]]:
    """(file, what differs) for every file that is not byte-identical."""
    names = {p.relative_to(before) for p in before.rglob("*") if p.is_file()}
    names |= {p.relative_to(after) for p in after.rglob("*") if p.is_file()}
    found = []
    for name in sorted(names):
        a, b = before / name, after / name
        if not a.is_file() or not b.is_file():
            found.append((str(name), "only after" if b.is_file() else "only before"))
        elif a.read_bytes() != b.read_bytes():
            found.append((str(name), _largest_gaps(a, b)))
    return found


def _child(src: Path, into: Path) -> int:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--src", str(src),
                           "--into", str(into)], capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
    return proc.returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, help="write one checkout's outputs into --into")
    ap.add_argument("--into", type=Path, help="output directory of --src")
    ap.add_argument("--before", type=Path, help="src directory of the reference checkout")
    ap.add_argument("--after", type=Path, help="src directory of the changed checkout")
    ap.add_argument("--keep", type=Path, help="keep both sides' outputs in this directory")
    args = ap.parse_args(argv)
    if args.src is not None:
        if args.into is None:
            ap.error("--src needs --into")
        write_outputs(args.src, args.into)
        return 0
    if args.before is None or args.after is None:
        ap.error("give --before and --after, or --src with --into")

    work = Path(tempfile.mkdtemp(prefix="gogrow-identity-")) if args.keep is None else args.keep
    try:
        for side in ("before", "after"):
            if _child(getattr(args, side), work / side) != 0:
                print(f"the {side} side failed to write its outputs", file=sys.stderr)
                return 2
        found = compare(work / "before", work / "after")
        files = sum(1 for p in (work / "before").rglob("*") if p.is_file())
    finally:
        if args.keep is None:
            shutil.rmtree(work, ignore_errors=True)
    for name, what in found:
        print(f"{name}: {what}")
    print(f"{len(found)} of {files} files differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
