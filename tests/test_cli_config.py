"""Config paths of the CLI: a sweep of a config built in code, and the
width of the regularized flux."""

from gogrow.cli import RunConfig, cmd_run, cmd_sweep, main
from gogrow.solver import make_config


def _sim(chi, frame):
    return make_config("local_u", chi=chi, dx=0.1, t_end=0.5, x_left=-20.0, width=40.0, frame=frame)


def test_sweep_of_a_config_built_in_code_uses_its_sim(tmp_path):
    # the config has no text behind it (raw is None): each member is its
    # sim at the member's chi, with the moving frame at c*(chi)
    for frame in ("lab", "moving"):
        out = tmp_path / frame
        assert cmd_sweep([0.5, 2.0], RunConfig(sim=_sim(1.0, frame), trace_every=0.25), out) == 0
        for chi in (0.5, 2.0):
            alone = tmp_path / f"{frame}_{chi}"
            assert cmd_run(RunConfig(sim=_sim(chi, frame), trace_every=0.25), alone) == 0
            for name in ("trace.csv", "summary.json"):
                member = (out / f"chi_{chi:.12g}" / name).read_bytes()
                assert member == (alone / name).read_bytes(), (frame, chi, name)


REGULARIZED = """
[model]
kind = "local_u"
chi = 0.5
flux = "regularized"
epsilon = 0.1
{mode}
[grid]
dx = 0.1
x_left = -15
width = 30
[run]
t_end = 1.0
"""


def test_regularized_flux_epsilon_is_not_a_grid_multiple(tmp_path):
    # epsilon = 0.1 is the flux width; as a grid-tied multiple it would
    # have to be >= 1
    traces = []
    for i, mode in enumerate(("", 'epsilon_mode = "fixed"')):
        cfg = tmp_path / f"cfg{i}.toml"
        cfg.write_text(REGULARIZED.format(mode=mode))
        out = tmp_path / f"out{i}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]
