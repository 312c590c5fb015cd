"""Acceptance gate: every verification target at its stated tolerance.

Runs the desk-scale experiment set (a few minutes of CPU) and prints one
pass/fail line per criterion.  Session fixtures share the long runs
between criteria.
"""

import math
import time

import numpy as np
import pytest

from gogrow.asymptotics import (
    SupersolutionParams,
    check_envelopes,
    fit_front_delay,
    fkpp_reference,
    pp_operator_residual,
    pulled_operator_residual,
    theoretical_delay,
)
from gogrow.diagnostics import TraceRecorder
from gogrow.lambertw import lambert_w_minus1
from gogrow.profiles import (
    eta_local,
    eta_nonlocal,
    eta_regularized,
    flux,
    minimal_speed,
    q_and_r,
)
from gogrow.solver import (
    InitPreset,
    make_config,
    make_state,
    run,
    run_batch,
    stable_dt,
    step,
)

pytestmark = pytest.mark.acceptance


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {name}: {status} ({detail})")


# ---------------------------------------------------------------------------
# shared long runs


def _run_batch(cfgs, observers, trace_every, recenter=True):
    """run_batch over configs that share batch_key; a member's RuntimeError
    is raised here, as run raises it."""
    finals = run_batch(cfgs, observers, trace_every, recenter)
    for final in finals:
        if isinstance(final, RuntimeError):
            raise final
    return finals


def _front_runs(model, chis, t_end, dx, right_pad):
    """{chi: (cfg, rec)} of Heaviside front runs, stepped as one batch."""
    cfgs = [make_config(model=model, chi=chi, dx=dx, t_end=t_end, x_left=-30.0,
                        width=right_pad + 42.0, init="heaviside",
                        left_pad=18.0, right_pad=right_pad) for chi in chis]
    recs = [TraceRecorder(collect_defect=False, collect_rh=False) for _ in chis]
    _run_batch(cfgs, [[rec] for rec in recs], 0.5)
    return dict(zip(chis, zip(cfgs, recs)))


@pytest.fixture(scope="session")
def local_t400():
    # chi = 2 has a narrower pad, so it cannot share the pulled batch
    out = _front_runs("local_u", (0.0, 0.5, 1.0), 400.0, 0.05, 60.0)
    out.update(_front_runs("local_u", (2.0,), 400.0, 0.05, 40.0))
    return out


@pytest.fixture(scope="session")
def fkpp_t400():
    cfg = make_config(model="local_u", chi=0.0, dx=0.05, t_end=400.0, x_left=-30.0,
                      width=102.0, init="heaviside", left_pad=18.0, right_pad=60.0)
    return fkpp_reference(cfg, trace_every=0.5)


@pytest.fixture(scope="session")
def nonlocal_chi0_t400():
    return _front_runs("nonlocal_p", (0.0,), 400.0, 0.05, 60.0)[0.0]


@pytest.fixture(scope="session")
def moment_runs():
    cfg2 = make_config(model="nonlocal_rho", chi=2.0, dx=0.02, t_end=50.0,
                       x_left=-45.01, width=72.0, init="heaviside",
                       left_pad=20.0, right_pad=22.0)
    rec2 = TraceRecorder(collect_defect=False, collect_rh=False)
    run(cfg2, observers=[rec2], trace_every=0.5)
    cfg05 = make_config(model="nonlocal_rho", chi=0.5, dx=0.02, t_end=50.0,
                        x_left=-42.01, width=115.0, init="heaviside",
                        left_pad=18.0, right_pad=70.0)
    rec05 = TraceRecorder(collect_defect=False, collect_rh=False)
    run(cfg05, observers=[rec05], trace_every=0.5)
    return {2.0: (cfg2, rec2), 0.5: (cfg05, rec05)}


@pytest.fixture(scope="session")
def defect_runs():
    out = {}
    chis = (0.5, 1.0, 2.0)
    for model in ("local_u", "nonlocal_p"):
        for dx in (0.04, 0.02):
            cfgs = [make_config(model=model, chi=chi, dx=dx, t_end=50.0,
                                x_left=-30.0, width=65.0, init="heaviside",
                                amplitude=max(1.0, chi) if model == "nonlocal_p" else 1.0,
                                left_pad=15.0, right_pad=20.0) for chi in chis]
            recs = [TraceRecorder(collect_rh=False) for _ in chis]
            _run_batch(cfgs, [[rec] for rec in recs], 0.5)
            out.update({(model, chi, dx): pair for chi, pair in zip(chis, zip(cfgs, recs))})
    return out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_speed_trichotomy(local_t400):
    targets = {0.0: 2.0, 0.5: 2.0, 1.0: 2.0, 2.0: 2.5}
    details = []
    ok = True
    for chi, (cfg, rec) in local_t400.items():
        t = np.asarray(rec.t)
        x = np.asarray(rec.x_front)
        i1, i2 = np.searchsorted(t, (100.0, 200.0))
        speed = (x[i2] - x[i1]) / (t[i2] - t[i1])
        details.append(f"chi={chi}: {speed:.4f} vs {targets[chi]}")
        ok = ok and abs(speed - targets[chi]) <= 0.05
    _report(1, "speed-trichotomy", ok, "; ".join(details))
    assert ok


def test_criterion_02_delay_trichotomy(local_t400):
    fits = {}
    for chi, (cfg, rec) in local_t400.items():
        fits[chi] = fit_front_delay(rec.front_trace(), cfg.chi_params.c_star,
                                    (50.0, 400.0)).r
    ok = (
        abs(fits[0.0] - 1.5) <= 0.25
        and abs(fits[0.5] - 1.5) <= 0.25
        and abs(fits[1.0] - 0.5) <= 0.25
        and abs(fits[2.0] - 0.0) <= 0.25
        and fits[2.0] < fits[1.0] < fits[0.0]
        and fits[1.0] - fits[2.0] >= 0.25
        and fits[0.0] - fits[1.0] >= 0.25
    )
    detail = ", ".join(f"r({chi}) = {r:.3f}" for chi, r in sorted(fits.items()))
    _report(2, "delay-trichotomy", ok, detail)
    assert ok


def test_criterion_03_wave_stationarity():
    devs = {}
    # chi = 2 moves its frame at c* = 2.5, so it cannot share the c* = 2 batch
    for chis in ((0.0, 0.5, 1.0), (2.0,)):
        for dx in (0.02, 0.01):
            cfgs = [make_config(model="nonlocal_p", chi=chi, dx=dx, t_end=5.0,
                                x_left=-15.0, width=32.0, frame="moving",
                                init="traveling_wave", left_pad=8.0, right_pad=8.0)
                    for chi in chis]
            v0 = [make_state(cfg).field.copy() for cfg in cfgs]
            finals = _run_batch(cfgs, [()] * len(cfgs), 5.0, recenter=False)
            for chi, final, v in zip(chis, finals, v0):
                devs[chi, dx] = float(np.max(np.abs(final.field - v)))
    details = []
    ok = True
    for chi in (0.0, 0.5, 1.0, 2.0):
        details.append(f"chi={chi}: {devs[chi, 0.02]:.2e}/{devs[chi, 0.01]:.2e}")
        ok = ok and devs[chi, 0.02] <= 5 * 0.02 and devs[chi, 0.01] <= 0.5 * devs[chi, 0.02]
    _report(3, "wave-stationarity", ok, "; ".join(details))
    assert ok


def test_criterion_04_moment_dichotomy(moment_runs):
    cfg2, rec2 = moment_runs[2.0]
    m2 = np.asarray(rec2.moment)
    drift = float(np.max(np.abs(m2 - 2.0)) / 2.0)
    ok2 = drift <= 1e-2

    cfg05, rec05 = moment_runs[0.5]
    m05 = np.asarray(rec05.moment)
    i0 = m05[0]
    steps_per_sample = 0.5 / stable_dt(cfg05)
    allowed = steps_per_sample * 1e-8 * i0
    worst_inc = float(np.max(np.diff(m05)))
    ok05 = worst_inc <= allowed
    _report(4, "moment-dichotomy", ok2 and ok05,
            f"chi=2 |I-2|/2 max = {drift:.2e}; chi=0.5 worst increase "
            f"{worst_inc:.2e} <= {allowed:.2e}")
    assert ok2 and ok05


def test_criterion_05_shape_defect_nonnegative(defect_runs):
    details = []
    ok = True
    for model in ("local_u", "nonlocal_p"):
        for chi in (0.5, 1.0, 2.0):
            mins = {}
            for dx in (0.04, 0.02):
                cfg, rec = defect_runs[(model, chi, dx)]
                t = np.asarray(rec.t)
                md = np.asarray(rec.min_defect)
                mins[dx] = float(np.nanmin(md[t >= 0.5]))
                # the -10 dx bound must keep holding as it tightens
                ok = ok and mins[dx] >= -10.0 * dx
            if model == "nonlocal_p":
                # the sharp-flux family improves outright under halving
                ok = ok and mins[0.02] >= mins[0.04] - 1e-6
            details.append(f"{model} chi={chi}: {mins[0.04]:.1e}/{mins[0.02]:.1e}")
    _report(5, "shape-defect-nonnegativity", ok, "; ".join(details))
    assert ok


def test_criterion_06_weighted_defect_decay():
    details = []
    ok = True
    for chi in (1.0, 2.0):
        cfg = make_config(model="nonlocal_p", chi=chi, dx=0.05, t_end=100.0,
                          x_left=-30.0, width=70.0, init="heaviside",
                          amplitude=max(1.0, chi), left_pad=15.0, right_pad=25.0)
        rec = TraceRecorder(collect_rh=False)
        run(cfg, observers=[rec], trace_every=1.0)
        t = np.asarray(rec.t)
        w = np.asarray(rec.weighted_sup)
        sel = t >= 1.0
        prod = np.sqrt(t[sel]) * w[sel]
        ok = ok and float(prod.max()) <= 2.0 * float(prod[0])
        details.append(f"chi={chi}: max {prod.max():.3f} vs t=1 value {prod[0]:.3f}")
    _report(6, "weighted-defect-decay", ok, "; ".join(details))
    assert ok


def test_criterion_07_comparison_ordering():
    details = []
    ok = True
    cases = [
        ("nonlocal_p", None),
        ("local_u", dict(epsilon_mode="fixed", epsilon=0.1)),
    ]
    for model, flux_spec in cases:
        kw = dict(model=model, chi=1.0, dx=0.05, t_end=10.0, x_left=-30.0,
                  width=60.0, **(flux_spec or {}))
        cfg_hi = make_config(init=InitPreset.heaviside(1.0), **kw)
        cfg_lo = make_config(init=InitPreset.heaviside(0.8), **kw)
        hi = make_state(cfg_hi)
        lo = make_state(cfg_lo)
        dt = stable_dt(cfg_hi)
        worst = 0.0
        for _ in range(10_000):
            hi = step(hi, cfg_hi, dt)
            lo = step(lo, cfg_lo, dt)
            worst = min(worst, float(np.min(hi.field - lo.field)))
        ok = ok and worst >= -1e-12
        details.append(f"{model}: min gap {worst:.2e}")
    _report(7, "comparison-ordering", ok, "; ".join(details))
    assert ok


def test_criterion_08_rankine_hugoniot():
    cfg_l = make_config(model="local_u", chi=1.0, dx=0.01, t_end=20.0, x_left=-25.0,
                        width=55.0, left_pad=12.0, right_pad=18.0)
    rec_l = TraceRecorder(collect_defect=False)
    run(cfg_l, observers=[rec_l], trace_every=5.0)
    rh_local = rec_l.rh_residual[-1]

    cfg_n = make_config(model="nonlocal_p", chi=2.0, dx=0.01, t_end=20.0, x_left=-25.0,
                        width=60.0, init="heaviside", amplitude=2.0,
                        left_pad=12.0, right_pad=18.0)
    rec_n = TraceRecorder(collect_defect=False)
    run(cfg_n, observers=[rec_n], trace_every=5.0)
    rh_nonlocal = rec_n.rh_residual[-1]

    ok = rh_local <= 0.1 and rh_nonlocal <= 0.1
    _report(8, "rankine-hugoniot", ok,
            f"local chi=1: {rh_local:.3f}; nonlocal chi=2: {rh_nonlocal:.3f}")
    assert ok


def test_criterion_09_easy_upper_bound(local_t400, moment_runs):
    details = []
    ok = True
    for chi, (cfg, rec) in local_t400.items():
        rep = check_envelopes(rec.front_trace(), cfg.chi_params,
                              rec.moment_initial, cfg.grid.dx, local_model=True)
        ok = ok and rep.upper_ok
        details.append(f"local chi={chi}: margin {rep.upper_margin_min:.2f}")
    for chi, (cfg, rec) in moment_runs.items():
        rep = check_envelopes(rec.front_trace(), cfg.chi_params,
                              rec.moment_initial, cfg.grid.dx, local_model=False)
        ok = ok and rep.upper_ok
        details.append(f"rho chi={chi}: margin {rep.upper_margin_min:.2f}")
    _report(9, "easy-upper-bound", ok, "; ".join(details))
    assert ok


def test_criterion_10_analytic_oracle_suite():
    t_start = time.time()
    ok = True

    # Lambert residual on 1e3 log-uniform points
    ys = -np.exp(np.linspace(math.log(1e-12), math.log(math.exp(-1.0) * (1 - 1e-12)), 1000))
    lam_worst = max(abs(lambert_w_minus1(float(y)) * math.exp(lambert_w_minus1(float(y))) - y)
                    / abs(y) for y in ys)
    ok = ok and lam_worst <= 1e-13

    # profile ODE residuals with centered differences
    h = 1e-6
    ode_worst = 0.0
    for chi in (0.0, 0.3, 0.7):
        c = minimal_speed(chi).c_star
        s = np.linspace(1e-3, 1.0 - 2e-3, 401)
        eta = eta_local(chi, s)
        d_eta = (eta_local(chi, s + h) - eta_local(chi, s - h)) / (2 * h)
        ode_worst = max(ode_worst, float(np.max(np.abs(c * eta - d_eta * eta - s))))
        sn = np.concatenate([np.linspace(1e-3, 0.99, 199), np.linspace(1.01, 10.0, 151)])
        a = np.maximum(sn - 1.0, 0.0)
        da = (sn > 1.0).astype(float)
        en = eta_nonlocal(chi, sn)
        den = (eta_nonlocal(chi, sn + h) - eta_nonlocal(chi, sn - h)) / (2 * h)
        ode_worst = max(ode_worst, float(np.max(np.abs(c * en - den * en - chi * da * en - (sn - a)))))
    ok = ok and ode_worst <= 1e-7

    # sandwich bounds
    sandwich_ok = True
    for chi in (0.0, 0.5, 1.0, 2.0):
        cp = minimal_speed(chi)
        s = np.linspace(0.0, 1.0, 501)
        au = np.asarray(flux("u", s))
        el = eta_local(chi, s)
        sandwich_ok &= bool(np.all(el >= chi * (s - au) - 1e-10))
        sandwich_ok &= bool(np.all(el <= max(1.0, chi) * (s - au) + 1e-10))
        sn = np.linspace(0.0, 5.0, 501)
        ap = np.maximum(sn - 1.0, 0.0)
        en = eta_nonlocal(chi, sn)
        sandwich_ok &= bool(np.all(en >= (sn - ap) / (cp.c_star - chi) - 1e-10))
        sandwich_ok &= bool(np.all(en <= max(1.0, chi) * (sn - ap) + 1e-10))
    ok = ok and sandwich_ok

    # regularized profile: ordering and C0 convergence on [0, 0.9]
    reg_ok = True
    for chi in (0.0, 0.5):
        s_all = np.linspace(0.0, 1.0, 501)
        s09 = np.linspace(0.0, 0.9, 451)
        sharp_all = eta_local(chi, s_all)
        sharp09 = eta_local(chi, s09)
        sups = []
        for eps in (0.1, 0.05, 0.01):
            reg_ok &= bool(np.all(eta_regularized(chi, eps, s_all) <= sharp_all + 1e-10))
            sups.append(float(np.max(np.abs(eta_regularized(chi, eps, s09) - sharp09))))
        reg_ok &= sups[0] > sups[1] > sups[2]
    ok = ok and reg_ok

    # Q concavity
    conc_ok = True
    for model, epsilon, chi in [
        ("u", None, 0.5),
        ("p", None, 0.5),
        ("p", None, 2.0),
        ("u", 0.1, 0.5),
    ]:
        grid = np.linspace(1e-3, 0.999 if model == "u" else 3.0, 400)
        q = np.array([q_and_r(model, chi, float(v), epsilon)[0] for v in grid])
        conc_ok &= bool(np.max(q[2:] - 2 * q[1:-1] + q[:-2]) <= 1e-9)
    ok = ok and conc_ok

    # supersolution operator residuals on the sample grids
    t, z = np.meshgrid(np.linspace(0.0, 100.0, 41), np.linspace(0.05, 30.0, 160))
    pp = SupersolutionParams(beta=3.0 * math.e, K=4.5, t0=400.0)
    pu = SupersolutionParams.pulled(0.0)
    l_ok = float(pp_operator_residual(pp, t, z).min()) >= -1e-10
    l_ok = l_ok and float(pulled_operator_residual(pu, t, z).min()) >= -1e-10
    ok = ok and l_ok

    elapsed = time.time() - t_start
    _report(10, "analytic-oracle-suite", ok,
            f"lambert {lam_worst:.1e}, ode {ode_worst:.1e}, "
            f"sandwich {sandwich_ok}, reg {reg_ok}, concave {conc_ok}, "
            f"operators {l_ok}")
    # wall time apart from the deterministic [acceptance] line
    print(f"[timing] criterion 10 analytic-oracle-suite: {elapsed:.2f}s")
    assert ok


def test_fkpp_reference_bramson_delay(fkpp_t400):
    # supplementary: the logistic reference itself shows the classic delay
    fit = fit_front_delay(fkpp_t400, 2.0, (50.0, 400.0))
    ok = 1.2 <= fit.r <= 1.8
    _report(0, "fkpp-reference-delay", ok, f"r = {fit.r:.3f} in [1.2, 1.8]")
    assert ok


def test_criterion_11_fkpp_domination(nonlocal_chi0_t400, fkpp_t400):
    cfg, rec = nonlocal_chi0_t400
    ours = rec.front_trace()
    ref = fkpp_t400
    xf = np.interp(ours.t, ref.t, ref.x_front)
    good = np.isfinite(ours.x_front) & np.isfinite(xf)
    margin = float(np.min(ours.x_front[good] - xf[good]))
    ok = margin >= -5.0 * cfg.grid.dx
    _report(11, "fkpp-domination", ok, f"min front gap {margin:.3f} >= {-5 * cfg.grid.dx}")
    assert ok
