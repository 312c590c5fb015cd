"""The CLI leaves a clean record when a sweep or a run cannot go through."""

import json
import math

import pytest

from gogrow import cli, solver
from gogrow.cli import cmd_run, main, parse_config

CONFIG = """
[model]
kind = "local_u"
[grid]
dx = 0.1
[run]
t_end = 20.0
"""


def test_sweep_rejects_bad_chi_before_any_run(tmp_path):
    # chi = 100 breaks the mesh Peclet bound on this grid; chi = 0.5 is fine
    cfg_path = tmp_path / "cfg.toml"
    cfg_path.write_text(CONFIG)
    out = tmp_path / "sweep"
    rc = main(["sweep", "--chi", "0.5,100", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    assert not out.exists() or not any(out.iterdir())


def test_cmd_run_runtime_abort_writes_summary(tmp_path, monkeypatch):
    message = "step 3 at t = 0.006 failed: non-finite field value produced"

    def abort(*args, **kwargs):
        raise RuntimeError(message)

    monkeypatch.setattr(solver, "run", abort)
    assert cmd_run(parse_config(CONFIG), tmp_path) == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary == {"status": 2, "error": message}
    assert (tmp_path / "trace.csv").exists()


NUMBER_KEYS = sorted(key for key, default in cli._DEFAULTS.items() if isinstance(default, float))
NON_FINITE = ("nan", "inf", "-inf", "1" + "0" * 400)  # the last parses as an int too large for a float
BAD_NUMBERS = [(key, value) for key in NUMBER_KEYS for value in ("none", "true", *NON_FINITE)]
# none is the default of snapshot_every
BAD_NUMBERS += [(("output", "snapshot_every"), value) for value in ("true", *NON_FINITE)]


@pytest.mark.parametrize("cmd", ["run", "sweep"])
@pytest.mark.parametrize("key,value", BAD_NUMBERS, ids=[f"{k}={v[:8]}" for (_, k), v in BAD_NUMBERS])
def test_number_key_rejects_none_and_booleans(tmp_path, capsys, cmd, key, value):
    # none used to end in a float(None) traceback, true ran as 1.0, and
    # nan or inf ran, or ended in an OverflowError traceback
    section, name = key
    cfg_path = tmp_path / "cfg.toml"
    cfg_path.write_text(CONFIG + f"[{section}]\n{name} = {value}\n")
    out = tmp_path / "out"
    chi = ["--chi", "0.5,2"] if cmd == "sweep" else []
    assert main([cmd, *chi, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"validation error on `{name}`" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["run", "sweep"])
@pytest.mark.parametrize("bad", [
    '[run]\namplitude = 2.0\n',  # above 1 for the local density
    '[model]\nkind = "fkpp"\n[run]\ninit = "traveling_wave"\n',  # no FKPP wave
], ids=["local_u-amplitude-2", "fkpp-traveling_wave"])
def test_rejected_initial_field_leaves_no_directory(tmp_path, capsys, cmd, bad):
    cfg_path = tmp_path / "cfg.toml"
    cfg_path.write_text(CONFIG + bad)
    out = tmp_path / "out"
    chi = ["--chi", "0.5,2"] if cmd == "sweep" else []
    assert main([cmd, *chi, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["run", "sweep"])
def test_out_that_is_a_file_fails_before_any_run(tmp_path, capsys, monkeypatch, cmd):
    def no_compute(*args, **kwargs):
        raise AssertionError("stepping began before --out was made")

    monkeypatch.setattr(solver, "run", no_compute)
    monkeypatch.setattr(solver, "run_batch", no_compute)
    cfg_path = tmp_path / "cfg.toml"
    cfg_path.write_text(CONFIG)
    out = tmp_path / "out"
    out.write_text("a file\n")
    chi = ["--chi", "0.5,2"] if cmd == "sweep" else []
    assert main([cmd, *chi, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == "a file\n"


@pytest.mark.parametrize("cmd", ["run", "sweep"])
@pytest.mark.parametrize("key,value", [
    ("width", "1e12"),  # 2e13 nodes at dx = 0.05: an 80 TB row
    ("width", "0"),
    ("width", "-5"),
    ("dx", "0"),
    ("dx", "1e-9"),  # 8e10 nodes over the default width
])
def test_grid_size_is_checked_before_any_compute(tmp_path, capsys, monkeypatch, cmd, key, value):
    def no_compute(*args, **kwargs):
        raise AssertionError("a field was made for a grid that should be refused")

    for name in ("make_state", "run", "run_batch"):
        monkeypatch.setattr(solver, name, no_compute)
    cfg_path = tmp_path / "cfg.toml"
    cfg_path.write_text(f"[grid]\n{key} = {value}\n")
    out = tmp_path / "out"
    chi = ["--chi", "0.5,2"] if cmd == "sweep" else []
    assert main([cmd, *chi, "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation error: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize("xmin,xmax,dx", [
    ("-inf", "1", "0.5"),
    ("-1", "inf", "0.5"),
    ("nan", "1", "0.5"),
    ("-1", "nan", "0.5"),
    ("-1", "1", "inf"),
    ("-1e308", "1e308", "1"),  # the width overflows to inf
    ("-50", "50.0001", "1e-4"),  # one point more than MAX_NODES
    ("0", "1", "1e-12"),  # 1e12 points: an 8 TB array
])
def test_wave_range_is_checked_before_any_array(capsys, monkeypatch, xmin, xmax, dx):
    def no_array(*args, **kwargs):
        raise AssertionError("an array was made for a range that should be refused")

    monkeypatch.setattr(cli.np, "arange", no_array)
    argv = ["wave", "--chi", "1.0", "--model", "u", f"--xmin={xmin}", f"--xmax={xmax}", f"--dx={dx}"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: validation error on wave range")


@pytest.mark.parametrize("width", [math.inf, math.nan, 1e308])
def test_make_config_names_a_width_it_cannot_grid(width):
    with pytest.raises(ValueError, match="width"):
        solver.make_config(dx=1e-300 if width == 1e308 else 0.1, width=width)


def test_node_cap_is_inclusive():
    assert solver.make_config(dx=1e-4, width=100.0, x_left=-50.0).grid.n == solver.MAX_NODES
    with pytest.raises(ValueError, match="width"):
        solver.make_config(dx=1e-4, width=100.0 + 1e-4, x_left=-50.0)
    with pytest.raises(ValueError, match="at most"):
        solver.Grid1D(x_left=0.0, dx=1e-4, n=solver.MAX_NODES + 1)
