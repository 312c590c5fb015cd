import math

import numpy as np
import pytest

from gogrow.profiles import minimal_speed, traveling_wave
from gogrow.solver import (
    Frame,
    Grid1D,
    InitPreset,
    Model,
    SimConfig,
    cumulative_mass,
    derived_P,
    derived_rho,
    make_config,
    make_state,
    run,
    stable_dt,
    step,
)
from gogrow.diagnostics import TraceRecorder, exponential_moment, MomentKind


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(x_left=0.0, dx=-0.1, n=100)
    with pytest.raises(ValueError):
        Grid1D(x_left=0.0, dx=0.1, n=4)
    with pytest.raises(ValueError):
        Grid1D(x_left=0.0, dx=0.1, n=100)  # width 10 < 20
    g = Grid1D(x_left=-10.0, dx=0.1, n=300)
    assert g.nodes()[0] == -10.0 and g.nodes()[-1] == pytest.approx(19.9)


def test_frame_shift_and_drift():
    lab = Frame.lab()
    assert lab.shift(3.0) == 0.0 and lab.drift(3.0) == 0.0
    mv = Frame.moving(2.5)
    assert mv.shift(2.0) == 5.0 and mv.drift(7.0) == 2.5
    ls = Frame.log_shifted(2.0, r=1.5, t0=4.0)
    assert ls.shift(1.0) == pytest.approx(2.0 - 1.5 * math.log(5.0))
    assert ls.drift(1.0) == pytest.approx(2.0 - 1.5 / 5.0)
    with pytest.raises(ValueError):
        Frame.log_shifted(2.0, r=0.7)
    with pytest.raises(ValueError):
        Frame.log_shifted(2.0, r=0.5, t0=0.5)


@pytest.mark.parametrize("t", [0.0, 1e-3, 0.5, 7.0, 400.0])
def test_frame_formulas_are_exact(t):
    # shift, drift and drift_bound are the written-out closed forms, bit for bit
    lab = Frame.lab()
    assert (lab.shift(t), lab.drift(t), lab.drift_bound()) == (0.0, 0.0, 0.0)
    mv = Frame.moving(2.5)
    assert (mv.shift(t), mv.drift(t), mv.drift_bound()) == (2.5 * t, 2.5, 2.5)
    for r in (0.5, 1.5):
        for t0 in (1.0, 100.0):
            ls = Frame.log_shifted(2.0, r=r, t0=t0)
            assert ls.shift(t) == 2.0 * t - r * math.log(t + t0)
            assert ls.drift(t) == 2.0 - r / (t + t0)
            assert ls.drift_bound() == max(2.0, abs(2.0 - r / t0))
    with pytest.raises(ValueError):
        Frame.log_shifted(2.0, r=0.0)  # that is the moving frame


# ---------------------------------------------------------------------------
# stable_dt


def test_stable_dt_examples():
    cfg = make_config(model="nonlocal_p", chi=1.0, dx=0.05, t_end=1.0)
    assert stable_dt(cfg) == pytest.approx(0.6 * min(0.05**2 / 2, 0.05 / 1.0, 0.5))
    assert stable_dt(cfg) == pytest.approx(7.5e-4)
    # grid-tied epsilon = 2 dx: advection bound eps*dx = 5e-3 >= dx^2/2
    cfg2 = make_config(model="local_u", chi=1.0, dx=0.05, t_end=1.0)
    assert cfg2.epsilon == pytest.approx(0.1)
    assert stable_dt(cfg2) == pytest.approx(0.6 * 0.05**2 / 2)
    with pytest.raises(ValueError):
        make_config(model="local_u", chi=1.0, dx=0.05, t_end=1.0, cfl_sigma=0.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        make_config(model="local_u", chi=-1.0, dx=0.05, t_end=1.0)
    with pytest.raises(ValueError):  # mesh Peclet: chi/(2*multiple) >= 1
        make_config(model="local_u", chi=4.5, dx=0.05, t_end=1.0, epsilon=2.0)
    with pytest.raises(ValueError):  # epsilon belongs to the local model only
        SimConfig(
            model=Model.NONLOCAL_P,
            chi_params=minimal_speed(1.0),
            grid=Grid1D(-20.0, 0.05, 801),
            frame=Frame.lab(),
            init=InitPreset.heaviside(),
            t_end=1.0,
            epsilon=0.1,
        )


# ---------------------------------------------------------------------------
# make_state


def test_make_state_heaviside_local():
    cfg = make_config(model="local_u", chi=1.0, dx=0.25, t_end=1.0, x_left=-10.0,
                      width=20.0, epsilon_mode="fixed", epsilon=0.2)
    st = make_state(cfg)
    x = cfg.grid.nodes()
    assert np.array_equal(st.field, (x <= 0.0).astype(float))


def test_make_state_heaviside_nonlocal_p():
    cfg = make_config(model="nonlocal_p", chi=2.0, dx=0.25, t_end=1.0, x_left=-10.0, width=20.0)
    st = make_state(cfg)
    x = cfg.grid.nodes()
    expect = np.maximum(0.0, -x) + (x <= 0.0)
    assert np.allclose(st.field, expect)
    assert np.all(np.diff(st.field) <= 1e-12 * cfg.grid.dx)


def test_make_state_traveling_wave_p():
    cfg = make_config(
        model="nonlocal_p", chi=2.0, dx=0.1, t_end=1.0, x_left=-10.0, width=20.0,
        frame="moving", init="traveling_wave",
    )
    st = make_state(cfg)
    assert np.allclose(st.field, traveling_wave("p", 2.0, cfg.grid.nodes()))


@pytest.mark.parametrize("model", ["local_u", "nonlocal_rho", "nonlocal_p"])
def test_make_state_gaussian_bump(model):
    cfg = make_config(model=model, chi=0.5, dx=0.1, t_end=1.0, x_left=-20.0, width=40.0,
                      init="gaussian_bump", amplitude=0.8, gaussian_center=-2.0,
                      gaussian_width=1.5)
    x = cfg.grid.nodes()
    bump = 0.8 * np.exp(-((x + 2.0) ** 2) / (2.0 * 1.5**2))
    # the P model starts from the bump's mass to the right
    expect = cumulative_mass(bump, 0.1) if model == "nonlocal_p" else bump
    assert np.array_equal(make_state(cfg).field, expect)


def test_make_state_gaussian_bump_above_one_refused_for_local_u():
    cfg = make_config(model="local_u", chi=0.5, dx=0.1, t_end=1.0, x_left=-20.0, width=40.0,
                      init="gaussian_bump", amplitude=1.5)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        make_state(cfg)


def test_make_state_file_table_validation():
    x = np.linspace(-15.0, 15.0, 31)
    bad_p = np.where(x <= 0.0, -x + 1.0, 0.0)
    bad_p[5] = bad_p[4] + 1.0  # non-monotone
    cfg = make_config(model="nonlocal_p", chi=1.0, dx=0.1, t_end=1.0, x_left=-15.0,
                      width=30.0, init=InitPreset.file_table(x, bad_p))
    with pytest.raises(ValueError):
        make_state(cfg)
    nan_u = np.clip(np.where(x <= 0, 1.0, 0.0), 0, 1)
    nan_u[3] = math.nan
    cfg2 = make_config(model="local_u", chi=1.0, dx=0.1, t_end=1.0, x_left=-15.0,
                       width=30.0, init=InitPreset.file_table(x, nan_u))
    with pytest.raises(ValueError):
        make_state(cfg2)


# ---------------------------------------------------------------------------
# cumulative mass


def test_cumulative_mass_examples():
    assert np.all(cumulative_mass(np.zeros(9), 0.25) == 0.0)
    x = np.arange(-1.0, 2.0 + 1e-9, 0.25)
    rho = ((x >= 0.0) & (x < 1.0)).astype(float)
    p = cumulative_mass(rho, 0.25)
    assert p[x == 0.0][0] == pytest.approx(1.0)
    assert p[x == 0.5][0] == pytest.approx(0.5)
    assert p[x == 1.0][0] == pytest.approx(0.0)
    with pytest.raises(ValueError):
        cumulative_mass(np.array([1.0, -0.5]), 0.1)


def test_cumulative_mass_against_wave():
    dx = 0.01
    x = np.arange(-20.0, 20.0 + 1e-9, dx)
    rho = traveling_wave("rho", 1.0, x)
    p = cumulative_mass(rho, dx)
    # window truncation loses the right tail only (~e^-20)
    p_exact = traveling_wave("p", 1.0, x)
    assert np.max(np.abs(p - p_exact)) <= 0.02


# ---------------------------------------------------------------------------
# step fixed points and invariants


def _short_cfg(model, chi=1.0, **kw):
    return make_config(model=model, chi=chi, dx=0.1, t_end=1.0, x_left=-15.0, width=30.0, **kw)


def test_step_fixed_point_zero():
    for model in ("local_u", "nonlocal_p", "nonlocal_rho", "fkpp"):
        cfg = _short_cfg(model)
        st = make_state(cfg)
        st.field[:] = 0.0
        out = step(st, cfg, stable_dt(cfg))
        assert np.all(out.field == 0.0)


def test_step_fixed_point_one_local():
    cfg = _short_cfg("local_u")
    st = make_state(cfg)
    st.field[:] = 1.0
    out = step(st, cfg, stable_dt(cfg))
    assert np.max(np.abs(out.field[:-1] - 1.0)) <= 1e-14  # right edge is pinned to 0


def test_step_constant_density_in_go_region():
    # rho const with P >= 1 everywhere: reaction off, pure advection of a
    # constant leaves the interior unchanged
    cfg = _short_cfg("nonlocal_rho", chi=2.0)
    st = make_state(cfg)
    st.field[:] = 2.0  # P_min = 2 * 30 * ... >> 1 away from the right edge
    dt = stable_dt(cfg)
    out = st
    for _ in range(10):
        out = step(out, cfg, dt)
    assert np.max(np.abs(out.field[:-15] - 2.0)) <= 1e-12


def test_step_cfl_violation():
    cfg = _short_cfg("local_u")
    st = make_state(cfg)
    with pytest.raises(ValueError):
        step(st, cfg, 10.0 * stable_dt(cfg))


def test_range_preservation_local():
    cfg = _short_cfg("local_u", chi=2.0)
    st = make_state(cfg)
    dt = stable_dt(cfg)
    for _ in range(200):
        st = step(st, cfg, dt)
    assert st.field.min() >= 0.0
    assert st.field.max() <= 1.0 + 1e-12


def test_range_preservation_nonlocal():
    cfg = _short_cfg("nonlocal_p", chi=2.0)
    st = make_state(cfg)
    dt = stable_dt(cfg)
    for _ in range(200):
        st = step(st, cfg, dt)
    p = st.field
    assert p.min() >= 0.0
    assert np.all(np.diff(p) <= 1e-10)


@pytest.mark.parametrize(
    "model,flux_spec",
    [("nonlocal_p", None), ("local_u", dict(epsilon_mode="fixed", epsilon=0.1))],
)
def test_comparison_ordering(model, flux_spec):
    # ordered data stay ordered under the monotone update
    cfg = make_config(model=model, chi=1.0, dx=0.1, t_end=1.0, x_left=-15.0,
                      width=30.0, **(flux_spec or {}), init="traveling_wave", frame="moving")
    hi = make_state(cfg)
    lo_cfg = make_config(model=model, chi=1.0, dx=0.1, t_end=1.0, x_left=-15.0,
                         width=30.0, **(flux_spec or {}),
                         init=InitPreset.traveling_wave(amplitude=0.8), frame="moving")
    lo = make_state(lo_cfg)
    dt = stable_dt(cfg)
    for _ in range(500):
        hi = step(hi, cfg, dt)
        lo = step(lo, lo_cfg, dt)
    assert float(np.min(hi.field - lo.field)) >= -1e-12


def test_step_refinement_of_wave_drift():
    # moving-frame wave drift shrinks at least first order under dx-halving
    devs = []
    for dx in (0.08, 0.04):
        cfg = make_config(model="local_u", chi=1.0, dx=dx, t_end=1.0, x_left=-12.0,
                          width=26.0, frame="moving", init="traveling_wave",
                          left_pad=8.0, right_pad=8.0)
        st0 = make_state(cfg)
        final = run(cfg, trace_every=1.0, recenter=False)
        devs.append(float(np.max(np.abs(final.field - st0.field))))
    assert devs[1] <= 0.6 * devs[0]


# ---------------------------------------------------------------------------
# run machinery


def test_run_t_end_zero():
    cfg = make_config(model="local_u", chi=1.0, dx=0.1, t_end=0.0)
    rec = TraceRecorder()
    final = run(cfg, observers=[rec], trace_every=0.5)
    assert final.t == 0.0
    assert len(rec.t) == 1 and rec.t[0] == 0.0
    assert np.array_equal(final.field, make_state(cfg).field)


def test_run_front_speed_chi1():
    cfg = make_config(model="local_u", chi=1.0, dx=0.1, t_end=50.0, x_left=-25.0,
                      width=60.0, left_pad=12.0, right_pad=30.0)
    rec = TraceRecorder(collect_defect=False, collect_rh=False)
    run(cfg, observers=[rec], trace_every=1.0)
    displacement = rec.x_front[-1] - rec.x_front[0]
    assert 1.8 <= displacement / 50.0 <= 2.1


def test_window_recenter_preserves_moment():
    # moving the window drops only tail mass below 1e-8.  I is measured in
    # the frame at c*, which the scheme trails, so it drifts by about
    # 3.05e-4 t at cfl_sigma = 0.4 (1.83e-3 of the budget by t = 6) and
    # faster at larger steps; the sharp check at the default is the test
    # below
    cfg = make_config(model="nonlocal_rho", chi=2.0, dx=0.05, t_end=6.0, x_left=-30.0,
                      width=60.0, left_pad=20.0, right_pad=18.0, cfl_sigma=0.4)
    rec = TraceRecorder(collect_defect=False, collect_rh=False)
    final = run(cfg, observers=[rec], trace_every=0.5)
    assert final.x_left > -30.0  # the window did move
    m = np.asarray(rec.moment)
    assert np.max(np.abs(m - m[0])) <= 2e-3 * m[0]


def test_window_recenter_drops_only_tail_mass():
    # the run above against the same run on a window wide enough never to
    # move: the scheme's own moment drift cancels, and what is left is the
    # tail mass the shifts dropped (1.7e-10 I0 when written)
    kw = dict(model="nonlocal_rho", chi=2.0, dx=0.05, t_end=6.0, x_left=-30.0,
              left_pad=20.0, right_pad=18.0)
    moments, lefts = [], []
    for width, recenter in ((60.0, True), (90.0, False)):
        rec = TraceRecorder(collect_defect=False, collect_rh=False)
        lefts.append(run(make_config(width=width, **kw), observers=[rec], trace_every=0.5,
                         recenter=recenter).x_left)
        moments.append(np.asarray(rec.moment))
    assert lefts[0] > -30.0 and lefts[1] == -30.0
    recentred, wide = moments
    assert len(recentred) == len(wide) == 13
    assert np.max(np.abs(recentred - wide)) <= 1e-8 * recentred[0]


def test_log_shifted_frame_consistency():
    # a log-shifted run agrees with the lab run after undoing the shift
    t_end = 3.0
    kw = dict(model="local_u", chi=1.0, dx=0.05, t_end=t_end, x_left=-20.0,
              width=50.0, left_pad=10.0, right_pad=10.0)
    lab = run(make_config(frame="lab", **kw), trace_every=t_end, recenter=False)
    ls_cfg = make_config(frame="log_shifted", frame_r=0.5, frame_t0=100.0, **kw)
    ls = run(ls_cfg, trace_every=t_end, recenter=False)
    # both runs start from the same grid data; the frames differ by the
    # accumulated drift shift(t) - shift(0)
    shift = ls_cfg.frame.shift(t_end) - ls_cfg.frame.shift(0.0)
    x_ls = ls_cfg.grid.nodes(ls.x_left) + shift
    x_lab = ls_cfg.grid.nodes(lab.x_left)
    interp = np.interp(x_ls, x_lab, lab.field)
    inside = (x_ls > x_lab[0] + 1.0) & (x_ls < x_lab[-1] - 1.0)
    dt = stable_dt(ls_cfg)
    tol = 2.0 * (0.05 + dt) * t_end
    assert np.max(np.abs(interp[inside] - ls.field[inside])) <= tol


def test_frame_consistency():
    # lab run and moving-frame run agree after shifting by c t
    t_end = 5.0
    kw = dict(model="local_u", chi=1.0, dx=0.05, t_end=t_end, x_left=-20.0,
              width=50.0, left_pad=10.0, right_pad=10.0)
    lab = run(make_config(frame="lab", **kw), trace_every=t_end, recenter=False)
    mov_cfg = make_config(frame="moving", **kw)
    mov = run(mov_cfg, trace_every=t_end, recenter=False)
    c = mov_cfg.chi_params.c_star
    x_mov = mov_cfg.grid.nodes(mov.x_left) + c * t_end
    x_lab = mov_cfg.grid.nodes(lab.x_left)
    interp = np.interp(x_mov, x_lab, lab.field)
    inside = (x_mov > x_lab[0] + 1.0) & (x_mov < x_lab[-1] - 1.0)
    dt = stable_dt(mov_cfg)
    tol = 2.0 * (0.05 + dt) * t_end
    assert np.max(np.abs(interp[inside] - mov.field[inside])) <= tol


@pytest.mark.parametrize("chi", [0.0, 0.5, 1.0, 2.0])
def test_wave_stationarity_local(chi):
    # regularized local scheme: first-order in epsilon = 2 dx
    devs = []
    for dx in (0.02, 0.01):
        cfg = make_config(model="local_u", chi=chi, dx=dx, t_end=5.0, x_left=-20.0,
                          width=45.0, frame="moving", init="traveling_wave",
                          left_pad=10.0, right_pad=10.0)
        st0 = make_state(cfg)
        final = run(cfg, trace_every=5.0, recenter=False)
        devs.append(float(np.max(np.abs(final.field - st0.field))))
    assert devs[0] <= 5 * 0.02
    assert devs[1] <= 5 * 0.01
    assert devs[1] <= 0.55 * devs[0]


def test_derived_fields_round_trip():
    cfg = make_config(model="nonlocal_rho", chi=1.0, dx=0.02, t_end=1.0, x_left=-20.0,
                      width=40.0, init="traveling_wave", frame="moving")
    st = make_state(cfg)
    p = derived_P(st, cfg)
    assert np.max(np.abs(p - traveling_wave("p", 1.0, cfg.grid.nodes()))) <= 0.05
    cfg_p = make_config(model="nonlocal_p", chi=1.0, dx=0.02, t_end=1.0, x_left=-20.0,
                        width=40.0, init="traveling_wave", frame="moving")
    st_p = make_state(cfg_p)
    rho = derived_rho(st_p, cfg_p)
    x = cfg_p.grid.nodes()
    inner = np.abs(x) > 0.05
    assert np.max(np.abs(rho[inner] - traveling_wave("rho", 1.0, x[inner]))) <= 1e-3
