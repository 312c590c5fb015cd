import math

import numpy as np
import pytest

from gogrow.diagnostics import (
    MomentKind,
    TailNotResolvedWarning,
    TraceRecorder,
    default_moment_kind,
    exponential_moment,
    front_location,
    min_shape_defect,
    rankine_hugoniot_residual,
    shape_defect,
    weighted_defect_sup,
    _Derived,
)
from gogrow.profiles import traveling_wave
from gogrow.solver import InitPreset, make_config, make_state, run


def _state_from_field(cfg, field):
    st = make_state(cfg)
    st.field = np.asarray(field, dtype=float)
    return st


# ---------------------------------------------------------------------------
# front location


def test_front_location_wave_p():
    cfg = make_config(model="nonlocal_p", chi=1.0, dx=0.01, t_end=1.0, x_left=-10.0,
                      width=25.0, frame="moving", init="traveling_wave")
    st = make_state(cfg)
    f = front_location(st, cfg)
    assert f == pytest.approx(0.0, abs=0.01)


def test_front_location_no_front():
    cfg = make_config(model="local_u", chi=1.0, dx=0.1, t_end=1.0)
    st = make_state(cfg)
    st.field[:] = 0.0
    assert front_location(st, cfg) is None


def test_front_location_heaviside():
    for model in ("local_u", "nonlocal_p"):
        cfg = make_config(model=model, chi=1.0, dx=0.05, t_end=1.0)
        st = make_state(cfg)
        f = front_location(st, cfg)
        assert f is not None and abs(f) <= 0.05
    # plain density Heaviside: unit mass to the right of x sits at x = -1
    cfg = make_config(model="nonlocal_rho", chi=1.0, dx=0.05, t_end=1.0)
    st = make_state(cfg)
    f = front_location(st, cfg)
    assert f == pytest.approx(-1.0, abs=0.06)


# ---------------------------------------------------------------------------
# shape defect


def test_shape_defect_zero_on_plateau():
    cfg = make_config(model="local_u", chi=2.0, dx=0.05, t_end=1.0)
    st = make_state(cfg)
    omega = shape_defect(st, cfg)
    x = cfg.grid.nodes()
    plateau = x < -1.0
    assert np.max(np.abs(omega[plateau])) == 0.0


def test_shape_defect_wave_small_off_kink():
    cfg = make_config(model="nonlocal_p", chi=2.0, dx=0.01, t_end=1.0, x_left=-10.0,
                      width=25.0, frame="moving", init="traveling_wave")
    st = make_state(cfg)
    omega = shape_defect(st, cfg)
    keep = _Derived(st, cfg).keep
    assert np.max(np.abs(omega[keep])) <= 0.05


def test_shape_defect_heaviside_initial_nonnegative():
    for model in ("local_u", "nonlocal_p"):
        amp = 1.0 if model == "local_u" else 2.0
        cfg = make_config(model=model, chi=2.0, dx=0.02, t_end=1.0, amplitude=amp)
        st = make_state(cfg)
        omega = shape_defect(st, cfg)
        keep = _Derived(st, cfg).keep
        assert float(omega[keep].min()) >= -1e-9


def test_shape_defect_after_short_run():
    # density Heaviside, chi = 1: defect stays above -10 dx
    dx = 0.02
    cfg = make_config(model="nonlocal_rho", chi=1.0, dx=dx, t_end=2.0, x_left=-20.0,
                      width=40.0, left_pad=10.0, right_pad=12.0)
    rec = TraceRecorder()
    run(cfg, observers=[rec], trace_every=0.5)
    assert min(rec.min_defect) >= -10.0 * dx


def test_weighted_defect_wave_and_zero():
    cfg = make_config(model="nonlocal_p", chi=2.0, dx=0.01, t_end=1.0, x_left=-10.0,
                      width=25.0, frame="moving", init="traveling_wave")
    st = make_state(cfg)
    assert weighted_defect_sup(st, cfg) <= 0.05  # kink weight is ~1 at z = 0
    st.field[:] = 0.0
    assert weighted_defect_sup(st, cfg) == 0.0


def test_shape_defect_weight_and_gamma():
    cfg = make_config(model="nonlocal_p", chi=1.0, dx=0.05, t_end=1.0, frame="moving",
                      init="traveling_wave")
    st = make_state(cfg)
    plain = shape_defect(st, cfg)
    z = cfg.grid.nodes()
    weighted = shape_defect(st, cfg, weighted=True)
    assert np.allclose(weighted, plain * np.exp(z), rtol=1e-12)
    localized = shape_defect(st, cfg, weighted=True, gamma=0.3)
    assert np.allclose(localized, weighted * np.exp(-0.3 * np.sqrt(1 + z * z)), rtol=1e-12)


# ---------------------------------------------------------------------------
# exponential moments


def test_moment_heaviside_local():
    # jump placed mid-cell so the trapezoid sees the exact half-cell mass
    dx = 1e-3
    cfg = make_config(model="local_u", chi=1.0, dx=dx, t_end=1.0,
                      x_left=-40.0 - dx / 2, width=80.0)
    st = make_state(cfg)
    val = exponential_moment(st, cfg, MomentKind.IU)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_moment_heaviside_rho_chi2():
    dx = 1e-3
    cfg = make_config(model="nonlocal_rho", chi=2.0, dx=dx, t_end=1.0,
                      x_left=-40.0 - dx / 2, width=80.0)
    st = make_state(cfg)
    val = exponential_moment(st, cfg, MomentKind.IRHO)
    assert val == pytest.approx(2.0, abs=1e-6)


def test_moment_wave_rho_chi2():
    # analytic: int 2 e^{x/2} on (-inf,0] plus int 2 e^{-3x/2} on [0,inf) = 16/3
    cfg = make_config(model="nonlocal_rho", chi=2.0, dx=0.002, t_end=1.0, x_left=-40.0,
                      width=80.0, frame="moving", init="traveling_wave")
    st = make_state(cfg)
    val = exponential_moment(st, cfg, MomentKind.IRHO)
    assert val == pytest.approx(16.0 / 3.0, abs=1e-3)


def test_moment_tail_warning():
    cfg = make_config(model="local_u", chi=1.0, dx=0.05, t_end=1.0, x_left=-18.0,
                      width=20.0)
    st = make_state(cfg)
    st.field[:] = np.exp(-0.1 * (cfg.grid.nodes() - 2.0) ** 2)  # fat right tail
    st.field[:] = np.clip(st.field, 0.0, 1.0)
    with pytest.warns(TailNotResolvedWarning):
        exponential_moment(st, cfg, MomentKind.IU)


def test_moment_im_requires_unit_interval():
    cfg = make_config(model="nonlocal_rho", chi=1.0, dx=0.05, t_end=1.0)
    st = make_state(cfg)
    with pytest.raises(ValueError):
        exponential_moment(st, cfg, MomentKind.IM, m=1.5)


def test_moment_conservation_improves_under_refinement():
    # chi >= 1 conserves the moment; the discrete drift shrinks with dx
    drifts = []
    for dx in (0.04, 0.02):
        cfg = make_config(model="nonlocal_rho", chi=2.0, dx=dx, t_end=10.0,
                          x_left=-45.0 - dx / 2, width=70.0, init="heaviside",
                          left_pad=20.0, right_pad=22.0)
        rec = TraceRecorder(collect_defect=False, collect_rh=False)
        run(cfg, observers=[rec], trace_every=1.0)
        m = np.asarray(rec.moment)
        drifts.append(float(np.max(np.abs(m - m[0])) / m[0]))
    assert drifts[1] < drifts[0]
    assert drifts[1] <= 1e-2


def test_moment_im_growth_bound():
    # I_m(t) <= I_m(0) exp((1 + C0) m^2 t) with C0 the observed sup of
    # (front - 2t)_+
    m = 0.2
    cfg = make_config(model="nonlocal_rho", chi=1.0, dx=0.05, t_end=10.0, x_left=-40.0,
                      width=90.0, left_pad=20.0, right_pad=45.0)
    samples = []

    def obs(state, c):
        samples.append(
            (state.t,
             exponential_moment(state, c, MomentKind.IM, m=m),
             front_location(state, c))
        )

    run(cfg, observers=[obs], trace_every=1.0)
    i0 = samples[0][1]
    c0 = max(max(0.0, (f + cfg.frame.shift(t)) - 2.0 * t) for t, _, f in samples if f is not None)
    for t, im, _ in samples:
        assert im <= i0 * math.exp((1.0 + c0) * m * m * t) * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# Rankine-Hugoniot residuals


def test_rh_exact_local_wave():
    cfg = make_config(model="local_u", chi=1.0, dx=0.01, t_end=1.0, x_left=-10.0,
                      width=25.0, frame="moving", init="traveling_wave")
    st = make_state(cfg)
    r = rankine_hugoniot_residual(st, cfg)
    assert r is not None and r <= 0.05


def test_rh_exact_nonlocal_wave():
    cfg = make_config(model="nonlocal_rho", chi=2.0, dx=0.01, t_end=1.0, x_left=-10.0,
                      width=25.0, frame="moving", init="traveling_wave")
    st = make_state(cfg)
    r = rankine_hugoniot_residual(st, cfg)
    assert r is not None and r <= 0.1


def test_rh_no_front():
    cfg = make_config(model="local_u", chi=1.0, dx=0.05, t_end=1.0)
    st = make_state(cfg)
    st.field[:] = 0.0
    assert rankine_hugoniot_residual(st, cfg) is None


# ---------------------------------------------------------------------------
# recorder


def test_trace_recorder_rows_and_traces():
    # at cfl_sigma = 0.4, dt = 2e-3 divides 0.5, so the samples fall on
    # the multiples of trace_every themselves
    cfg = make_config(model="local_u", chi=1.0, dx=0.1, t_end=2.0, cfl_sigma=0.4)
    rec = TraceRecorder()
    run(cfg, observers=[rec], trace_every=0.5)
    assert rec.t == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    ft = rec.front_trace()
    assert np.all(np.isfinite(ft.x_front))
    assert default_moment_kind(cfg) is MomentKind.IU
    assert rec.moment_initial == pytest.approx(rec.moment[0])
