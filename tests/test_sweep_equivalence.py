"""A sweep member runs exactly the config that `gogrow run` reads from the
same text: a dx with more digits than the CSV output keeps them all."""

from gogrow.cli import main

CONFIG = """
[model]
kind = "local_u"
chi = {chi}
[grid]
dx = 0.0512345678901234
x_left = -20
width = 40
[run]
t_end = 1.0
"""


def test_sweep_member_trace_equals_run(tmp_path):
    sweep_cfg = tmp_path / "sweep.toml"
    sweep_cfg.write_text(CONFIG.format(chi=1.0))
    run_cfg = tmp_path / "run.toml"
    run_cfg.write_text(CONFIG.format(chi=0.5))
    assert main(["sweep", "--chi", "0.5", "--config", str(sweep_cfg), "--out", str(tmp_path / "s")]) == 0
    assert main(["run", "--config", str(run_cfg), "--out", str(tmp_path / "r")]) == 0
    member = (tmp_path / "s" / "chi_0.5" / "trace.csv").read_bytes()
    assert member == (tmp_path / "r" / "trace.csv").read_bytes()
