"""Command-line front end: config parsing, run orchestration, chi sweeps,
and deterministic CSV/JSON emission.

Config files are a TOML-subset of `[section]` headers and `key = value`
lines (numbers, booleans, quoted or bare strings).  Unknown sections or
keys are rejected with the offending line number.  All CSV numbers are
written with 12 significant digits and newline line endings so identical
configs produce byte-identical outputs.

Exit codes: 0 ok, 1 validation error, 2 runtime abort, 3 check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import asymptotics, solver
from .diagnostics import FrontTrace, TraceRecorder
from .profiles import minimal_speed, traveling_wave, eta_local, eta_nonlocal
from .solver import Model, SimConfig, make_config


def _fmt(v: float) -> str:
    return format(v, ".12g")


@dataclass(frozen=True)
class RunConfig:
    """Solver config plus output cadence settings."""

    sim: SimConfig
    trace_every: float = 0.5
    snapshot_every: float | None = None
    raw: dict | None = None

    def __post_init__(self):
        if not (self.trace_every > 0.0 and math.isfinite(self.trace_every)):
            raise ValueError("trace_every must be positive and finite")
        snap = self.snapshot_every
        if snap is not None and not (snap > 0.0 and math.isfinite(snap)):
            raise ValueError("snapshot_every must be positive and finite")


# section -> its keys; [model] kind is make_config's `model`
_SCHEMA = {
    "model": ("kind", "chi", "flux", "epsilon_mode", "epsilon"),
    "grid": ("x_left", "dx", "width"),
    "run": ("t_end", "cfl_sigma", "frame", "frame_r", "frame_t0", "init", "init_file",
            "amplitude", "left_pad", "right_pad", "front_theta", "gaussian_center",
            "gaussian_width"),
    "output": ("trace_every", "snapshot_every"),
}
# the keys that are neither a make_config argument nor a RunConfig field
_UNBOUND = {("model", "flux"): "auto", ("run", "init_file"): None}


def _default(section: str, key: str):
    """A key's default: RunConfig's for [output], make_config's for the
    other keys but the _UNBOUND ones."""
    if (section, key) in _UNBOUND:
        return _UNBOUND[section, key]
    if section == "output":
        return getattr(RunConfig, key)
    return inspect.signature(make_config).parameters["model" if key == "kind" else key].default


_DEFAULTS = {(section, key): _default(section, key) for section, keys in _SCHEMA.items() for key in keys}
# the keys that may be none, and the type of their other values
_OPTIONAL = {("run", "init_file"): str, ("output", "snapshot_every"): float}


def _parse_value(text: str, lineno: int):
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    if text == "none":
        return None
    try:
        return int(text) if text.lstrip("+-").isdigit() else float(text)
    except ValueError:
        if text and all(c.isalnum() or c in "_-." for c in text):
            return text
        raise ValueError(f"line {lineno}: cannot parse value {text!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse the key-value config format; unknown keys are rejected."""
    return _build_config(_read_values(text))


def _read_values(text: str) -> dict:
    """Config text to {(section, key): value}, defaults filled in."""
    values: dict = dict(_DEFAULTS)
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ValueError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        if section is None:
            raise ValueError(f"line {lineno}: key outside of any section")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA[section]:
            raise ValueError(f"line {lineno}: unknown key `{key}` in [{section}]")
        values[(section, key)] = _parse_value(val, lineno)
    return values


def _literal(v) -> str:
    """A config value as config text."""
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(float(v)) if _finite(v) else repr(v)
    return f'"{v}"'


def _finite(v) -> bool:
    """Whether v is a finite float; an int too large for one is not."""
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


def _check_types(values: dict) -> None:
    """Each value is a finite number (not a boolean) where its key's
    default is one, and a string where that is one; only _OPTIONAL keys
    take none."""
    for key, v in values.items():
        if v is None and key in _OPTIONAL:
            continue
        if _OPTIONAL.get(key, type(_DEFAULTS[key])) is str:
            ok, name = isinstance(v, str), "a string"
        else:
            ok = isinstance(v, (int, float)) and not isinstance(v, bool) and _finite(v)
            name = "a finite number"
        if not ok:
            raise ValueError(f"validation error on `{key[1]}`: expected {name}, got {_literal(v)}")


def _build_config(values: dict) -> RunConfig:
    """Validated RunConfig from a complete {(section, key): value} dict."""
    _check_types(values)
    chi = values[("model", "chi")]
    if chi < 0.0 or not math.isfinite(chi):
        raise ValueError("validation error on `chi`: must be finite and >= 0")
    # `flux` only names the model's flux: auto, or the one it has anyway
    kind = values[("model", "kind")]
    flux_name = values[("model", "flux")]
    epsilon_mode = values[("model", "epsilon_mode")]
    if flux_name not in ("auto", "heaviside", "ramp", "regularized"):
        raise ValueError(f"validation error on `flux`: unknown kind {flux_name!r}")
    if kind == "local_u" and flux_name == "ramp":
        raise ValueError("validation error: the local model uses a local flux kind")
    if kind in ("nonlocal_p", "nonlocal_rho") and flux_name in ("heaviside", "regularized"):
        raise ValueError("validation error: nonlocal models use the ramp flux")
    if flux_name == "regularized":
        # epsilon is then the flux width, which the scheme uses as a
        # fixed epsilon whatever epsilon_mode says
        epsilon_mode = "fixed"
    init: str | solver.InitPreset = values[("run", "init")]
    if init == "file_table":
        path = values[("run", "init_file")]
        if not path:
            raise ValueError("validation error on `init_file`: required for file_table init")
        table = np.genfromtxt(path, delimiter=",", skip_header=1)
        if table.ndim != 2 or table.shape[1] < 2:
            raise ValueError("validation error on `init_file`: need two CSV columns x,v")
        init = solver.InitPreset.file_table(table[:, 0], table[:, 1])
    kw = {key: v for (section, key), v in values.items()
          if section != "output" and (section, key) not in _UNBOUND}
    kw.update(model=kw.pop("kind"), epsilon_mode=epsilon_mode, init=init)
    try:
        sim = make_config(**kw)
    except ValueError as err:
        raise ValueError(f"validation error: {err}") from err
    snap = values[("output", "snapshot_every")]
    return RunConfig(
        sim=sim,
        trace_every=float(values[("output", "trace_every")]),
        snapshot_every=None if snap is None else float(snap),
        raw=dict(values),
    )


def emit_config(cfg: RunConfig) -> str:
    """Canonical config text; parse(emit(parse(text))) is the identity.

    Raises ValueError for a config built in code (raw is None), which has
    no text form.
    """
    if cfg.raw is None:
        raise ValueError("config built in code, no text form")
    out = []
    vals = dict(cfg.raw)
    vals[("output", "trace_every")] = cfg.trace_every
    vals[("output", "snapshot_every")] = cfg.snapshot_every
    for section in _SCHEMA:
        out.append(f"[{section}]")
        for key in sorted(_SCHEMA[section]):
            out.append(f"{key} = {_literal(vals[(section, key)])}")
        out.append("")
    return "\n".join(out)


def _csv_text(header: list[str], columns: list) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(float(v)) for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(_csv_text(header, columns))


class _SnapshotWriter:
    def __init__(self, out_dir: Path, every: float):
        self.out_dir = out_dir
        self.every = every
        self.next_t = 0.0

    def __call__(self, state, cfg) -> None:
        if state.t < self.next_t - 1e-9:
            return
        self.next_t = max(self.next_t + self.every, state.t + self.every * 0.5)
        x = cfg.grid.nodes(state.x_left)
        name = f"snapshot_{state.t:.6g}.csv"
        if cfg.model in (Model.LOCAL_U, Model.FKPP):
            _write_csv(self.out_dir / name, ["x", "u"], [x, state.field])
        else:
            rho = solver.derived_rho(state, cfg)
            p = solver.derived_P(state, cfg)
            _write_csv(self.out_dir / name, ["x", "rho", "P"], [x, rho, p])


def _open_run(cfg: RunConfig, out_dir: Path) -> tuple[TraceRecorder, list]:
    """Create the output directory; return the recorder and the observers."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rec = TraceRecorder()
    observers = [rec]
    if cfg.snapshot_every is not None:
        observers.append(_SnapshotWriter(out_dir, cfg.snapshot_every))
    return rec, observers


def _close_run(cfg: RunConfig, out_dir: Path, rec: TraceRecorder, final) -> dict:
    """Write trace.csv and summary.json of a run that ended in the final
    state or in a RuntimeError; return the summary, which holds a
    `status` only when the run aborted."""
    _flush_trace(out_dir, rec)
    if isinstance(final, RuntimeError):
        summary = {"status": 2, "error": str(final)}
        _write_summary(out_dir, summary)
        print(f"runtime abort: {final}", file=sys.stderr)
        return summary

    moments = np.asarray(rec.moment)
    finite = np.isfinite(moments)
    drift = math.nan
    worst = math.nan
    i0 = rec.moment_initial
    if finite.any() and not math.isnan(i0) and i0 > 0:
        drift = float(np.max(np.abs(moments[finite] - i0)) / abs(i0))
        report = asymptotics.check_envelopes(
            rec.front_trace(),
            cfg.sim.chi_params,
            i0,
            cfg.sim.grid.dx,
            local_model=cfg.sim.model is Model.LOCAL_U,
        )
        worst = report.upper_margin_min
    defects = np.asarray(rec.min_defect)
    min_defect = float(np.nanmin(defects)) if np.isfinite(defects).any() else math.nan
    summary = {
        "final_t": final.t,
        "final_x_front": rec.x_front[-1] if rec.x_front else math.nan,
        "moment_drift": drift,
        "min_shape_defect": min_defect,
        "worst_envelope_margin": worst,
        "undershoot_clips": final.clip_count,
    }
    _write_summary(out_dir, summary)
    return summary


def cmd_run(cfg: RunConfig, out_dir: Path) -> int:
    solver.make_state(cfg.sim)  # a rejected initial field makes no directory
    rec, observers = _open_run(cfg, out_dir)
    try:
        final = solver.run(cfg.sim, observers=observers, trace_every=cfg.trace_every)
    except RuntimeError as err:
        final = err
    return _close_run(cfg, out_dir, rec, final).get("status", 0)


def _write_summary(out_dir: Path, summary: dict) -> None:
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _flush_trace(out_dir: Path, rec: TraceRecorder) -> None:
    _write_csv(
        out_dir / "trace.csv",
        ["t", "x_front", "I", "min_shape_defect", "weighted_defect_sup", "rh_residual"],
        [
            np.asarray(rec.t),
            np.asarray(rec.x_front),
            np.asarray(rec.moment),
            np.asarray(rec.min_defect),
            np.asarray(rec.weighted_sup),
            np.asarray(rec.rh_residual),
        ],
    )


def _sweep_batch(members: list[tuple[float, RunConfig, Path]]) -> list[dict]:
    """Run sweep members (chi, config, directory) that share
    solver.batch_key as one batch; one summary row per member."""
    opened = [_open_run(cfg, job_dir) for _, cfg, job_dir in members]
    finals = solver.run_batch(
        [cfg.sim for _, cfg, _ in members],
        [observers for _, observers in opened],
        trace_every=members[0][1].trace_every,
    )
    return [
        _sweep_row(chi, job_dir, _close_run(cfg, job_dir, rec, final))
        for (chi, cfg, job_dir), (rec, _), final in zip(members, opened, finals)
    ]


def _sweep_row(chi: float, job_dir: Path, summary: dict) -> dict:
    """A sweep_summary.csv row of a member whose run wrote job_dir and
    summary; r is fitted to trace.csv as written."""
    status = summary.get("status", 0)
    row = {"chi": chi, "c_star": minimal_speed(chi).c_star, "status": status}
    t, x = _read_trace(job_dir / "trace.csv")
    try:
        r_fit = asymptotics.fit_front_delay(FrontTrace(t=t, x_front=x), row["c_star"]).r
    except ValueError:
        r_fit = math.nan
    row["r_fit"] = r_fit
    row["r_theory"] = asymptotics.theoretical_delay(chi)
    row["moment_drift"] = summary.get("moment_drift", math.nan)
    fit_ok = not math.isnan(r_fit) and abs(r_fit - row["r_theory"]) <= 0.25
    row["pass"] = 1.0 if (status == 0 and fit_ok) else 0.0
    return row


def _read_trace(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.genfromtxt(path, delimiter=",", names=True)
    t = np.atleast_1d(data["t"])
    x = np.atleast_1d(data["x_front"])
    return t, x


def _member_sim(sim: SimConfig, chi: float) -> SimConfig:
    """sim at another chi: c*(chi) replaces the moving or log frame speed,
    and SimConfig validation runs again.  make_config builds those frames
    at c*(chi) >= 2 only, and a frame at c = 0 is the lab frame."""
    cp = minimal_speed(chi)
    frame = sim.frame
    if frame.c != 0.0:
        frame = dataclasses.replace(frame, c=cp.c_star)
    return dataclasses.replace(sim, chi_params=cp, frame=frame)


def cmd_sweep(chi_list: list[float], cfg: RunConfig, out_dir: Path, jobs: int = 1) -> int:
    """Run one member per chi and write sweep_summary.csv.

    Members that share solver.batch_key step together as one batch; jobs
    > 1 splits every batch into up to `jobs` parts run in that many
    processes, and jobs < 1 counts as 1.  Each member's files are those of
    its own `cmd_run`.
    """
    if not chi_list or any(not math.isfinite(c) or c < 0 for c in chi_list):
        raise ValueError("validation error on `chi`: sweep needs finite nonnegative values")
    jobs = max(1, jobs)
    # Every member's config and initial field are built, and so validated,
    # before any directory is made or any member runs.
    members = [dataclasses.replace(cfg, sim=_member_sim(cfg.sim, float(chi))) for chi in chi_list]
    for member in members:
        solver.make_state(member.sim)
    out_dir.mkdir(parents=True, exist_ok=True)
    names: list[str] = []
    seen: dict[str, int] = {}
    for chi in chi_list:
        base = f"chi_{_fmt(float(chi))}"
        if base in seen:
            seen[base] += 1
            names.append(f"{base}_{seen[base]}")
        else:
            seen[base] = 0
            names.append(base)
    batches: dict[tuple, list[int]] = {}
    for i, member in enumerate(members):
        batches.setdefault(solver.batch_key(member.sim), []).append(i)
    parts = []
    for batch in batches.values():
        k = min(jobs, len(batch))
        parts += [batch[len(batch) * p // k : len(batch) * (p + 1) // k] for p in range(k)]
    work = [[(float(chi_list[i]), members[i], out_dir / names[i]) for i in part] for part in parts]
    if jobs > 1 and len(work) > 1:
        import concurrent.futures  # pulls in logging; only a parallel sweep needs it

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_sweep_batch, work))
    else:
        done = [_sweep_batch(w) for w in work]
    by_member: dict[int, dict] = {}
    for part, part_rows in zip(parts, done):
        by_member.update(zip(part, part_rows))
    rows = [by_member[i] for i in range(len(members))]
    header = ["chi", "c_star", "r_fit", "r_theory", "moment_drift", "pass"]
    _write_csv(out_dir / "sweep_summary.csv", header, [[row[k] for row in rows] for k in header])
    return 0 if all(r["status"] == 0 for r in rows) else 2


def cmd_wave(chi: float, model: str, x_min: float, x_max: float, dx: float, out_path: Path | None) -> int:
    if not (math.isfinite(x_min) and math.isfinite(x_max) and x_min < x_max and 0 < dx < math.inf):
        raise ValueError("validation error on wave range: need finite xmin < xmax and dx > 0")
    if not (x_max - x_min) / dx <= solver.MAX_NODES - 1:
        raise ValueError(f"validation error on wave range: [{x_min!r}, {x_max!r}] at dx {dx!r} "
                         f"needs more than {solver.MAX_NODES} points")
    x = np.arange(x_min, x_max + dx * 0.5, dx)
    u = traveling_wave("u", chi, x)
    rho = traveling_wave("rho", chi, x)
    p = traveling_wave("p", chi, x)
    key = model.lower()
    if key == "u":
        eta_vals = eta_local(chi, np.clip(u, 0.0, 1.0))
    elif key in ("p", "rho"):
        # the density model's defect lives on its cumulative mass
        eta_vals = eta_nonlocal(chi, p)
    else:
        raise ValueError(f"validation error on `model`: {model!r}")
    h = 1e-5
    slope = (np.asarray(traveling_wave(key if key != "rho" else "p", chi, x + h))
             - np.asarray(traveling_wave(key if key != "rho" else "p", chi, x - h))) / (2.0 * h)
    defect = np.abs(-slope - eta_vals)
    header = ["x", "u_tw", "rho_tw", "P_tw", "eta_of_value", "shape_defect_check"]
    cols = [x, u, rho, p, eta_vals, defect]
    if out_path is None:
        sys.stdout.write(_csv_text(header, cols))
    else:
        _write_csv(out_path, header, cols)
    return 0


def cmd_fit(trace_path: Path, c: float, t_min: float | None, t_max: float | None, chi: float | None) -> int:
    t, x = _read_trace(trace_path)
    window = None
    if t_min is not None or t_max is not None:
        window = (t_min if t_min is not None else 1.0, t_max if t_max is not None else float(t[-1]))
    fit = asymptotics.fit_front_delay(FrontTrace(t=t, x_front=x), c, window)
    out = {"r": fit.r, "b": fit.b, "stderr_r": fit.stderr_r}
    if chi is not None:
        out["r_theory"] = asymptotics.theoretical_delay(chi)
        out["pass"] = bool(abs(fit.r - out["r_theory"]) <= 0.25)
    else:
        out["r_theory"] = None
        out["pass"] = None
    print(json.dumps(out, sort_keys=True))
    if out["pass"] is False:
        return 3
    return 0


def cmd_check(trace_path: Path, chi: float, i0: float, dx: float) -> int:
    t, x = _read_trace(trace_path)
    report = asymptotics.check_envelopes(
        FrontTrace(t=t, x_front=x), minimal_speed(chi), i0, dx
    )
    print(
        json.dumps(
            {
                "upper_margin_min": report.upper_margin_min,
                "fitted_B": report.fitted_B,
                "n_skipped": report.n_skipped,
                "pass": report.upper_ok,
            },
            sort_keys=True,
        )
    )
    return 0 if report.upper_ok else 3


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gogrow", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    p_run.add_argument("--config", required=True, type=Path)
    p_run.add_argument("--out", required=True, type=Path)

    p_sweep = sub.add_parser("sweep", help="run a chi sweep")
    p_sweep.add_argument("--chi", required=True, help="comma-separated chi values")
    p_sweep.add_argument("--config", required=True, type=Path)
    p_sweep.add_argument("--out", required=True, type=Path)
    p_sweep.add_argument("--jobs", type=int, default=1)

    p_wave = sub.add_parser("wave", help="dump sampled traveling waves")
    p_wave.add_argument("--chi", required=True, type=float)
    p_wave.add_argument("--model", required=True, choices=["u", "p", "rho"])
    p_wave.add_argument("--xmin", required=True, type=float)
    p_wave.add_argument("--xmax", required=True, type=float)
    p_wave.add_argument("--dx", required=True, type=float)
    p_wave.add_argument("--out", type=Path, default=None)

    p_fit = sub.add_parser("fit", help="fit the log-delay coefficient of a trace")
    p_fit.add_argument("--trace", required=True, type=Path)
    p_fit.add_argument("--c", required=True, type=float)
    p_fit.add_argument("--tmin", type=float, default=None)
    p_fit.add_argument("--tmax", type=float, default=None)
    p_fit.add_argument("--chi", type=float, default=None)

    p_check = sub.add_parser("check", help="check envelope bounds on a trace")
    p_check.add_argument("--trace", required=True, type=Path)
    p_check.add_argument("--chi", required=True, type=float)
    p_check.add_argument("--i0", required=True, type=float)
    p_check.add_argument("--dx", type=float, default=0.05)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.cmd == "run":
            cfg = parse_config(args.config.read_text())
            return cmd_run(cfg, args.out)
        if args.cmd == "sweep":
            cfg = parse_config(args.config.read_text())
            chi_list = [float(v) for v in str(args.chi).split(",") if v.strip()]
            return cmd_sweep(chi_list, cfg, args.out, jobs=args.jobs)
        if args.cmd == "wave":
            return cmd_wave(args.chi, args.model, args.xmin, args.xmax, args.dx, args.out)
        if args.cmd == "fit":
            return cmd_fit(args.trace, args.c, args.tmin, args.tmax, args.chi)
        if args.cmd == "check":
            return cmd_check(args.trace, args.chi, args.i0, args.dx)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RuntimeError as err:
        print(f"runtime abort: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
