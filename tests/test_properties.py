"""Property tests: comparison ordering, range preservation, config text
round trip, and the matching residual of the regularized profile.

Runs use small grids (dx 0.1, width at most 30, T at most 0.5) without
recentring, so two runs of one config stay on the same nodes.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gogrow import solver  # noqa: E402
from gogrow.cli import emit_config, parse_config  # noqa: E402
from gogrow.profiles import eta_local, regularization_constants  # noqa: E402

KNOTS = 8
RUN_SETTINGS = settings(max_examples=20, deadline=None)
UNIT = st.floats(min_value=0.0, max_value=1.0)
STEP = st.floats(min_value=0.0, max_value=0.5)


@st.composite
def run_configs(draw, model):
    """Builder of a short-run config of the model from the knot values of
    a piecewise-linear initial table."""
    width = draw(st.floats(min_value=20.0, max_value=30.0))
    chi = draw(st.floats(min_value=0.0, max_value=2.0))
    frame = draw(st.sampled_from(["lab", "moving"]))
    t_end = draw(st.floats(min_value=0.05, max_value=0.5))
    x_left = -0.5 * width
    knots = np.linspace(x_left, x_left + width, KNOTS)

    def build(values):
        init = solver.InitPreset.file_table(knots, np.asarray(values, dtype=float))
        return solver.make_config(model, chi=chi, dx=0.1, t_end=t_end, x_left=x_left,
                                  width=width, frame=frame, init=init)

    return build


def _final(cfg):
    return solver.run(cfg, recenter=False).field


def _ordered_pair(draw, elements):
    a = draw(st.lists(elements, min_size=KNOTS, max_size=KNOTS))
    b = draw(st.lists(elements, min_size=KNOTS, max_size=KNOTS))
    return np.minimum(a, b), np.maximum(a, b)


def _mass(steps):
    # nonincreasing and nonnegative: the mass to the right of each knot
    return np.cumsum(np.asarray(steps)[::-1])[::-1]


@RUN_SETTINGS
@given(data=st.data(), model=st.sampled_from(["local_u", "nonlocal_p", "fkpp"]))
def test_comparison_ordering(data, model):
    build = data.draw(run_configs(model))
    if model == "nonlocal_p":
        lo, hi = (_mass(v) for v in _ordered_pair(data.draw, STEP))
    else:
        lo, hi = _ordered_pair(data.draw, UNIT)
    assert np.all(_final(build(lo)) <= _final(build(hi)) + 1e-12)


@RUN_SETTINGS
@given(data=st.data(), model=st.sampled_from(["local_u", "fkpp"]))
def test_range_preserved(data, model):
    build = data.draw(run_configs(model))
    v = _final(build(data.draw(st.lists(UNIT, min_size=KNOTS, max_size=KNOTS))))
    assert v.min() >= 0.0 and v.max() <= 1.0


@RUN_SETTINGS
@given(data=st.data())
def test_cumulative_mass_stays_nonincreasing(data):
    build = data.draw(run_configs("nonlocal_p"))
    p = _final(build(_mass(data.draw(st.lists(STEP, min_size=KNOTS, max_size=KNOTS)))))
    assert p.min() >= 0.0
    assert np.all(np.diff(p) <= 0.0)


# Float keys whose values anywhere in these ranges give a valid config
# with the default local_u model, grid-tied epsilon and lab frame.
FLOAT_KEYS = {
    ("model", "chi"): (0.0, 1.9),
    ("model", "epsilon"): (1.0, 2.0),
    ("grid", "x_left"): (-50.0, 0.0),
    ("grid", "dx"): (0.05, 0.12),
    ("grid", "width"): (25.0, 100.0),
    ("run", "t_end"): (0.0, 100.0),
    ("run", "cfl_sigma"): (0.05, 0.95),
    ("run", "frame_r"): (0.1, 2.0),
    ("run", "frame_t0"): (1.0, 200.0),
    ("run", "amplitude"): (0.1, 1.0),
    ("run", "left_pad"): (1.0, 50.0),
    ("run", "right_pad"): (1.0, 50.0),
    ("run", "front_theta"): (1e-9, 0.4),
    ("run", "gaussian_center"): (-10.0, 10.0),
    ("run", "gaussian_width"): (0.1, 5.0),
    ("output", "trace_every"): (0.01, 5.0),
    ("output", "snapshot_every"): (0.01, 5.0),
}


@st.composite
def config_texts(draw):
    keys = draw(st.lists(st.sampled_from(sorted(FLOAT_KEYS)), unique=True))
    sections: dict[str, list[str]] = {}
    for section, key in keys:
        lo, hi = FLOAT_KEYS[(section, key)]
        v = draw(st.floats(min_value=lo, max_value=hi))
        sections.setdefault(section, []).append(f"{key} = {v:.17g}")
    return "\n".join(f"[{s}]\n" + "\n".join(lines) for s, lines in sections.items()) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=config_texts())
def test_config_text_round_trip(text):
    cfg = parse_config(text)
    again = parse_config(emit_config(cfg))
    assert again.raw == cfg.raw
    assert again.sim == cfg.sim
    assert (again.trace_every, again.snapshot_every) == (cfg.trace_every, cfg.snapshot_every)
    assert emit_config(again) == emit_config(cfg)


@settings(max_examples=300, deadline=None)
@given(
    chi=st.floats(min_value=0.0, max_value=0.995),
    eps=st.floats(min_value=1e-4, max_value=0.49, exclude_min=True, exclude_max=True),
)
def test_k_eps_matching_residual(chi, eps):
    rc = regularization_constants(chi, eps)
    lhs = math.exp(-rc.k_eps) * eta_local(chi, math.exp(rc.k_eps) * (1.0 - eps))
    assert abs(lhs - rc.psi_star) <= 1e-13
