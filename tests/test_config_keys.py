"""Each config key reaches the make_config argument it names, the empty
config is make_config's defaults, and a Gaussian-bump config runs for
every model."""

import inspect
import json

import pytest

from gogrow import cli
from gogrow.cli import main, parse_config
from gogrow.solver import make_config

# one valid non-default setting per key that is a make_config argument;
# a key that matters only with another setting is set with it
SETTINGS = {
    "kind": {"kind": "nonlocal_p"},
    "chi": {"chi": 0.5},
    "epsilon_mode": {"epsilon_mode": "fixed", "epsilon": 0.2},
    "epsilon": {"epsilon": 3.0},
    "x_left": {"x_left": -30.0},
    "dx": {"dx": 0.1},
    "width": {"width": 60.0},
    "t_end": {"t_end": 10.0},
    "cfl_sigma": {"cfl_sigma": 0.3},
    "frame": {"frame": "moving"},
    "frame_r": {"frame": "log_shifted", "frame_r": 1.5},
    "frame_t0": {"frame": "log_shifted", "frame_t0": 20.0},
    "init": {"init": "traveling_wave"},
    "amplitude": {"amplitude": 0.5},
    "left_pad": {"left_pad": 10.0},
    "right_pad": {"right_pad": 30.0},
    "front_theta": {"front_theta": 1e-4},
    "gaussian_center": {"init": "gaussian_bump", "gaussian_center": -3.0},
    "gaussian_width": {"init": "gaussian_bump", "gaussian_width": 2.0},
}


def _text(settings: dict) -> str:
    section_of = {key: section for section, keys in cli._SCHEMA.items() for key in keys}
    lines = []
    for section in cli._SCHEMA:
        keys = [key for key in settings if section_of[key] == section]
        if keys:
            lines.append(f"[{section}]")
            lines += [f"{key} = {cli._literal(settings[key])}" for key in keys]
    return "\n".join(lines) + "\n"


def test_every_make_config_argument_has_a_key():
    args = {"kind" if name == "model" else name for name in inspect.signature(make_config).parameters}
    keys = {key for section, keys in cli._SCHEMA.items() if section != "output" for key in keys}
    assert args == keys - {"flux", "init_file"} == set(SETTINGS)


def test_the_empty_config_is_make_configs_defaults():
    assert parse_config("").sim == make_config()


@pytest.mark.parametrize("key", sorted(SETTINGS))
def test_a_key_sets_its_make_config_argument(key):
    settings = SETTINGS[key]
    kw = {"model" if k == "kind" else k: v for k, v in settings.items()}
    sim = parse_config(_text(settings)).sim
    assert sim == make_config(**kw)
    assert sim != make_config()


@pytest.mark.parametrize("model", ["local_u", "nonlocal_p", "nonlocal_rho", "fkpp"])
def test_a_gaussian_bump_runs_for_every_model(tmp_path, model):
    text = _text({"kind": model, "chi": 0.5, "dx": 0.1, "x_left": -20.0, "width": 40.0,
                  "t_end": 1.0, "init": "gaussian_bump", "gaussian_center": -2.0,
                  "gaussian_width": 1.5})
    config = tmp_path / "bump.toml"
    config.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_t"] == 1.0 and "status" not in summary
