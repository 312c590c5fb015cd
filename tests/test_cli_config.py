"""Config paths of the CLI: a sweep and the text form of a config built in
code, the width of the regularized flux, and the flux and epsilon
settings each model kind accepts."""

import pytest

from gogrow.cli import RunConfig, cmd_run, cmd_sweep, emit_config, main
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


def test_emit_config_refuses_a_config_built_in_code():
    # with no text behind it, the emitted defaults would describe another run
    sim = make_config("nonlocal_p", chi=0.5, dx=0.1, t_end=2.0, x_left=-20.0, width=40.0)
    with pytest.raises(ValueError, match="built in code"):
        emit_config(RunConfig(sim=sim))


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


CONTRACT = """
[model]
kind = "{kind}"
chi = 0.5
flux = "{flux}"
{eps}
[grid]
dx = 0.1
x_left = -15
width = 30
[run]
t_end = 0.5
[output]
trace_every = 0.25
"""

# the flux names each model kind accepts
ACCEPTS = {
    "local_u": {"auto", "heaviside", "regularized"},
    "nonlocal_p": {"auto", "ramp"},
    "nonlocal_rho": {"auto", "ramp"},
    "fkpp": {"auto", "heaviside", "regularized", "ramp"},
}
# epsilon lines as (config text, mode, value)
EPSILON_LINES = [
    ("", "grid_tied", 2.0),
    ("epsilon = 0.1", "grid_tied", 0.1),
    ('epsilon_mode = "fixed"\nepsilon = 0.1', "fixed", 0.1),
    ('epsilon_mode = "fixed"\nepsilon = 0.7', "fixed", 0.7),
    ("epsilon = 6", "grid_tied", 6.0),
]


def _contract_run(tmp_path, name, **fields):
    cfg = tmp_path / f"{name}.toml"
    cfg.write_text(CONTRACT.format(**fields))
    out = tmp_path / name
    status = main(["run", "--config", str(cfg), "--out", str(out)])
    return status, (out / "trace.csv").read_bytes() if status == 0 else None


@pytest.mark.parametrize("eps_line,mode,eps", EPSILON_LINES,
                         ids=[f"{m}-{e:g}" for _, m, e in EPSILON_LINES])
@pytest.mark.parametrize("flux", ["auto", "heaviside", "regularized", "ramp", "bogus"])
@pytest.mark.parametrize("kind", sorted(ACCEPTS))
def test_flux_and_epsilon_contract(tmp_path, kind, flux, eps_line, mode, eps):
    # regularized makes epsilon a fixed width; a grid-tied multiple must be
    # >= 1, and only the local model resolves it against dx = 0.1
    if flux == "regularized":
        mode = "fixed"
    if mode == "fixed":
        eps_ok = 0.0 < eps < 0.5
    else:
        eps_ok = eps >= 1.0 and (kind != "local_u" or eps * 0.1 < 0.5)
    expected = 0 if flux in ACCEPTS[kind] and eps_ok else 1
    status, trace = _contract_run(tmp_path, "run", kind=kind, flux=flux, eps=eps_line)
    assert status == expected
    if status == 0 and kind == "local_u" and flux != "auto":
        # heaviside is auto; regularized is auto with a fixed epsilon
        same = eps_line if flux == "heaviside" else f'epsilon_mode = "fixed"\nepsilon = {eps}'
        _, auto = _contract_run(tmp_path, "auto", kind=kind, flux="auto", eps=same)
        assert trace == auto
