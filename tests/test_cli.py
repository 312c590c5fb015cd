import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gogrow.cli import cmd_run, cmd_sweep, cmd_wave, emit_config, main, parse_config
from gogrow.solver import Frame

MINIMAL = """
[model]
kind = "local_u"
chi = 1.0
[grid]
dx = 0.1
[run]
t_end = 2.0
"""


def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.sim.cfl_sigma == 0.6
    assert cfg.sim.frame == Frame.lab()
    assert cfg.sim.init.kind.value == "heaviside"
    assert cfg.sim.t_end == 2.0
    assert cfg.trace_every == 0.5


def test_parse_rejects_bad_chi():
    with pytest.raises(ValueError, match="chi"):
        parse_config(MINIMAL.replace("chi = 1.0", "chi = -1"))


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="line"):
        parse_config(MINIMAL + "\nwhatever = 3\n")
    with pytest.raises(ValueError, match="unknown section"):
        parse_config("[nope]\na = 1\n")


def test_config_round_trip():
    cfg = parse_config(MINIMAL)
    text = emit_config(cfg)
    cfg2 = parse_config(text)
    assert emit_config(cfg2) == text
    assert cfg2.sim == cfg.sim


def test_cmd_run_t_end_zero(tmp_path):
    cfg = parse_config(MINIMAL.replace("t_end = 2.0", "t_end = 0.0"))
    assert cmd_run(cfg, tmp_path) == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the t = 0 row
    assert lines[0] == "t,x_front,I,min_shape_defect,weighted_defect_sup,rh_residual"


def test_cmd_run_summary_schema(tmp_path):
    cfg = parse_config(MINIMAL)
    assert cmd_run(cfg, tmp_path) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {
        "final_t",
        "final_x_front",
        "moment_drift",
        "min_shape_defect",
        "worst_envelope_margin",
        "undershoot_clips",
    }
    assert summary["final_t"] == pytest.approx(2.0)


def test_cmd_run_deterministic(tmp_path):
    cfg = parse_config(MINIMAL)
    cmd_run(cfg, tmp_path / "a")
    cmd_run(cfg, tmp_path / "b")
    assert (tmp_path / "a/trace.csv").read_bytes() == (tmp_path / "b/trace.csv").read_bytes()


def test_cmd_run_nan_file_table(tmp_path):
    table = tmp_path / "init.csv"
    table.write_text("x,v\n-10,1\n-5,1\n0,nan\n5,0\n10,0\n")
    text = MINIMAL + f'init = "file_table"\ninit_file = "{table}"\n'
    rc = main(["run", "--config", _write(tmp_path, text), "--out", str(tmp_path / "out")])
    assert rc == 1  # validation error before stepping


def _write(tmp_path, text):
    p = tmp_path / "cfg.toml"
    p.write_text(text)
    return str(p)


def test_snapshots_written(tmp_path):
    text = MINIMAL + "[output]\nsnapshot_every = 1.0\n"
    cfg = parse_config(text)
    assert cmd_run(cfg, tmp_path) == 0
    snaps = sorted(tmp_path.glob("snapshot_*.csv"))
    assert len(snaps) >= 2
    head = snaps[0].read_text().splitlines()[0]
    assert head == "x,u"


SWEEP_CFG = """
[model]
kind = "local_u"
[grid]
dx = 0.1
[run]
t_end = 20.0
"""


def test_sweep_single_matches_run(tmp_path):
    cfg = parse_config(SWEEP_CFG)
    assert cmd_sweep([2.0], cfg, tmp_path / "sweep") == 0
    rows = (tmp_path / "sweep/sweep_summary.csv").read_text().splitlines()
    assert rows[0] == "chi,c_star,r_fit,r_theory,moment_drift,pass"
    assert len(rows) == 2
    # the per-job directory holds a normal run
    assert (tmp_path / "sweep/chi_2/trace.csv").exists()
    assert (tmp_path / "sweep/chi_2/summary.json").exists()


def test_sweep_three_chis_r_theory(tmp_path):
    cfg = parse_config(SWEEP_CFG)
    assert cmd_sweep([0.0, 1.0, 2.0], cfg, tmp_path / "sw") == 0
    rows = (tmp_path / "sw/sweep_summary.csv").read_text().splitlines()[1:]
    r_theory = [float(r.split(",")[3]) for r in rows]
    assert r_theory == [1.5, 0.5, 0.0]


def test_sweep_duplicate_chi_dirs(tmp_path):
    cfg = parse_config(SWEEP_CFG)
    assert cmd_sweep([1.0, 1.0], cfg, tmp_path / "dup") == 0
    assert (tmp_path / "dup/chi_1").is_dir()
    assert (tmp_path / "dup/chi_1_1").is_dir()


def test_sweep_isolation_under_parallelism(tmp_path):
    cfg = parse_config(SWEEP_CFG)
    cmd_sweep([0.5, 1.5], cfg, tmp_path / "ser", jobs=1)
    cmd_sweep([0.5, 1.5], cfg, tmp_path / "par", jobs=2)
    assert (tmp_path / "ser/sweep_summary.csv").read_bytes() == (
        tmp_path / "par/sweep_summary.csv"
    ).read_bytes()


def test_cmd_wave_values(tmp_path):
    out = tmp_path / "wave.csv"
    assert cmd_wave(2.0, "u", -2.0, 2.0, 0.5, out) == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    row = data[np.isclose(data["x"], 1.0)]
    assert row["u_tw"] == pytest.approx(math.exp(-2.0), abs=1e-12)

    out0 = tmp_path / "wave0.csv"
    cmd_wave(0.0, "u", -2.0, 2.0, 0.5, out0)
    d0 = np.genfromtxt(out0, delimiter=",", names=True)
    row0 = d0[np.isclose(d0["x"], 1.0)]
    assert row0["u_tw"] == pytest.approx(0.735759, abs=1e-6)
    off_kink = np.abs(d0["x"]) > 0.26
    assert np.max(d0["shape_defect_check"][off_kink]) <= 1e-6


def test_cli_fit_and_check(tmp_path):
    # synthetic trace written the way cmd_run does
    t = np.arange(1.0, 201.0, 0.5)
    x = 2.0 * t - 1.5 * np.log(t) + 3.0
    trace = tmp_path / "trace.csv"
    rows = ["t,x_front,I,min_shape_defect,weighted_defect_sup,rh_residual"]
    for ti, xi in zip(t, x):
        rows.append(f"{ti:.12g},{xi:.12g},1,0,0,0")
    trace.write_text("\n".join(rows) + "\n")

    rc = main(["fit", "--trace", str(trace), "--c", "2.0", "--tmin", "50", "--tmax", "200",
               "--chi", "0.3"])
    assert rc == 0
    rc = main(["check", "--trace", str(trace), "--chi", "0.3", "--i0", "1000.0",
               "--dx", "0.05"])
    assert rc == 0
    # an envelope the trace violates
    rc = main(["check", "--trace", str(trace), "--chi", "0.3", "--i0", "1.0",
               "--dx", "0.05"])
    assert rc == 3


def test_cli_validation_exit_code(tmp_path):
    bad = _write(tmp_path, MINIMAL.replace("chi = 1.0", "chi = -2"))
    assert main(["run", "--config", bad, "--out", str(tmp_path / "o")]) == 1


def test_console_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "gogrow.cli", "wave", "--chi", "1.0", "--model", "p",
         "--xmin", "-1", "--xmax", "1", "--dx", "0.5"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[0].startswith("x,u_tw")
