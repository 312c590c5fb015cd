"""The CLI leaves a clean record when a sweep or a run cannot go through."""

import json

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
BAD_NUMBERS = [(key, value) for key in NUMBER_KEYS for value in ("none", "true")]
BAD_NUMBERS.append((("output", "snapshot_every"), "true"))  # none is its default


@pytest.mark.parametrize("cmd", ["run", "sweep"])
@pytest.mark.parametrize("key,value", BAD_NUMBERS, ids=[f"{k}={v}" for (_, k), v in BAD_NUMBERS])
def test_number_key_rejects_none_and_booleans(tmp_path, capsys, cmd, key, value):
    # none used to end in a float(None) traceback, and true ran as 1.0
    section, name = key
    cfg_path = tmp_path / "cfg.toml"
    cfg_path.write_text(CONFIG + f"[{section}]\n{name} = {value}\n")
    out = tmp_path / "out"
    chi = ["--chi", "0.5,2"] if cmd == "sweep" else []
    assert main([cmd, *chi, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"validation error on `{name}`" in capsys.readouterr().err
    assert not out.exists()
