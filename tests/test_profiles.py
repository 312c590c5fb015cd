import math

import numpy as np
import pytest

from gogrow.profiles import (
    _kappa,
    _lam,
    eta_local,
    eta_nonlocal,
    eta_regularized,
    flux,
    minimal_speed,
    q_and_r,
    regularization_constants,
    traveling_wave,
)

CHI_GRID = [0.0, 0.3, 0.5, 0.7, 0.9, 1.0, 1.5, 2.0, 3.0]


# ---------------------------------------------------------------------------
# minimal speed


def test_minimal_speed_examples():
    p2 = minimal_speed(2.0)
    assert p2.c_star == pytest.approx(2.5)
    p1 = minimal_speed(1.0)
    assert p1.c_star == pytest.approx(2.0)
    p0 = minimal_speed(0.0)
    assert p0.c_star == pytest.approx(2.0)


@pytest.mark.parametrize("chi", CHI_GRID)
def test_minimal_speed_invariants(chi):
    p = minimal_speed(chi)
    assert p.chi_vee == max(1.0, chi)
    assert p.c_star >= 2.0
    assert (p.c_star == 2.0) == (chi <= 1.0)
    if chi >= 1.0:
        assert p.c_star == pytest.approx(chi + 1.0 / chi)


@pytest.mark.parametrize("chi", [-1.0, math.nan, math.inf])
def test_minimal_speed_domain(chi):
    with pytest.raises(ValueError):
        minimal_speed(chi)


# ---------------------------------------------------------------------------
# fluxes


def test_flux_examples():
    assert flux("u", 0.5) == 0.0
    assert flux("p", 2.0) == pytest.approx(1.0)
    assert flux("u", 0.95, epsilon=0.1) == pytest.approx(0.5)


def test_flux_nondecreasing_and_zero_at_zero():
    s_local = np.linspace(0.0, 1.0, 501)
    s_ramp = np.linspace(0.0, 5.0, 501)
    for model, epsilon, s in [
        ("u", None, s_local),
        ("u", 0.2, s_local),
        ("p", None, s_ramp),
    ]:
        a = flux(model, s, epsilon)
        assert a[0] == 0.0
        assert np.all(np.diff(a) >= -1e-14)


def test_flux_domain_errors():
    with pytest.raises(ValueError):
        flux("p", -0.1)
    with pytest.raises(ValueError):
        flux("u", 1.5)
    with pytest.raises(ValueError):
        flux("u", 1.0001, epsilon=0.1)
    with pytest.raises(ValueError):
        flux("u", 0.5, epsilon=0.7)
    with pytest.raises(ValueError):
        flux("rho", 0.5)
    with pytest.raises(ValueError):
        flux("p", 0.5, epsilon=0.1)


# ---------------------------------------------------------------------------
# eta_local


def _utw_inverse(chi, target):
    # z with u_tw(z) = target, bisection on the explicit tail formula
    lo, hi = 0.0, 80.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if traveling_wave("u", chi, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_eta_local_examples():
    assert eta_local(2.0, 0.5) == pytest.approx(1.0)
    for chi in CHI_GRID:
        assert eta_local(chi, 1.0) == 0.0
    # independent oracle: -u_tw'(z) at the point where u_tw = 0.5
    chi = 0.5
    z = _utw_inverse(chi, 0.5)
    slope = ((1.0 - chi) * z + chi) * math.exp(-z)  # -u_tw' on the tail
    val = eta_local(chi, 0.5)
    assert val == pytest.approx(slope, abs=1e-10)
    assert 0.25 <= val <= 0.5  # uniform bounds at s = 1/2
    assert val == pytest.approx(0.341, abs=5e-4)


@pytest.mark.parametrize("chi", CHI_GRID)
def test_eta_local_sandwich(chi):
    s = np.linspace(0.0, 1.0, 801)
    a = flux("u", s)
    eta = eta_local(chi, s)
    lower = chi * (s - a)
    upper = max(1.0, chi) * (s - a)
    assert np.all(eta >= lower - 1e-10)
    assert np.all(eta <= upper + 1e-10)


@pytest.mark.parametrize("chi", CHI_GRID)
def test_eta_nonlocal_sandwich(chi):
    cp = minimal_speed(chi)
    s = np.linspace(0.0, 10.0, 1001)
    a = flux("p", s)
    eta = eta_nonlocal(chi, s)
    lower = (s - a) / (cp.c_star - chi)
    upper = max(1.0, chi) * (s - a)
    assert np.all(eta >= lower - 1e-10)
    assert np.all(eta <= upper + 1e-10)


def test_eta_nonlocal_examples():
    assert eta_nonlocal(2.0, 1.5) == pytest.approx(2.0)  # 1/(c - chi), c - chi = 0.5
    assert eta_nonlocal(1.0, 0.5) == pytest.approx(0.5)  # chi * min(1, s)
    assert eta_nonlocal(0.3, 0.0) == 0.0
    with pytest.raises(ValueError):
        eta_nonlocal(1.0, -0.5)


@pytest.mark.parametrize("chi", [0.0, 0.3, 0.7])
def test_eta_ode_residual_local(chi):
    # c eta - eta' eta - chi A' eta = s - A, with eta' by centered differences
    c = minimal_speed(chi).c_star
    h = 1e-6
    s = np.linspace(1e-3, 1.0 - 2e-3, 401)
    eta = eta_local(chi, s)
    d_eta = (eta_local(chi, s + h) - eta_local(chi, s - h)) / (2.0 * h)
    resid = c * eta - d_eta * eta - s  # A and A' vanish on (0, 1)
    assert np.max(np.abs(resid)) <= 1e-7


@pytest.mark.parametrize("chi", [0.0, 0.3, 0.7])
def test_eta_ode_residual_nonlocal(chi):
    c = minimal_speed(chi).c_star
    h = 1e-6
    s = np.concatenate([np.linspace(1e-3, 0.99, 199), np.linspace(1.01, 10.0, 151)])
    a = flux("p", s)
    da = (s > 1.0).astype(float)
    eta = eta_nonlocal(chi, s)
    d_eta = (eta_nonlocal(chi, s + h) - eta_nonlocal(chi, s - h)) / (2.0 * h)
    resid = c * eta - d_eta * eta - chi * da * eta - (s - a)
    assert np.max(np.abs(resid)) <= 1e-7


# ---------------------------------------------------------------------------
# regularized profile


def test_psi_star_chi0():
    rc = regularization_constants(0.0, 0.25)
    assert rc.psi_star == pytest.approx(0.25, abs=1e-14)
    assert rc.psi_star == pytest.approx(math.sqrt(0.25) - 0.25, abs=1e-14)


def test_regularization_constants_invariants():
    for chi in (0.0, 0.3, 0.7, 0.95):
        for eps in (0.25, 0.1, 0.01):
            rc = regularization_constants(chi, eps)
            d = chi - 2.0 * eps
            assert rc.psi_star == pytest.approx(
                0.5 * (d + math.sqrt(d * d + 4 * eps * (1 - eps))), abs=1e-13
            )
            assert rc.m_eps == pytest.approx(rc.psi_star / eps)
            assert rc.k_eps < -math.log(1.0 - eps)
            # k_eps solves the matching relation to 1e-12
            lhs = math.exp(-rc.k_eps) * eta_local(chi, math.exp(rc.k_eps) * (1 - eps))
            assert abs(lhs - rc.psi_star) <= 1e-12
            q = 1.0 / (1.0 - chi)
            assert _kappa(chi) == pytest.approx(q * math.exp(-q))
            p = (2.0 - chi) / (1.0 - chi)
            assert _lam(chi) == pytest.approx(p * math.exp(-p))
    with pytest.raises(ValueError):
        regularization_constants(1.0, 0.1)


def test_k_eps_vanishes_with_epsilon():
    k2 = regularization_constants(0.5, 1e-2).k_eps
    k3 = regularization_constants(0.5, 1e-3).k_eps
    assert abs(k3) < abs(k2)


def test_eta_regularized_examples():
    assert eta_regularized(2.0, 0.1, 1.0) == 0.0
    # continuity at the matching point
    for chi in (0.0, 0.5, 2.0):
        for eps in (0.1, 0.05):
            left = eta_regularized(chi, eps, (1 - eps) - 1e-12)
            right = eta_regularized(chi, eps, (1 - eps) + 1e-12)
            assert abs(left - right) <= 1e-10


@pytest.mark.parametrize("chi", [0.0, 0.3, 0.7, 1.0, 2.0])
def test_eta_regularized_below_sharp(chi):
    s = np.linspace(0.0, 1.0, 801)
    sharp = eta_local(chi, s)
    for eps in (0.1, 0.05, 0.01):
        reg = eta_regularized(chi, eps, s)
        assert np.all(reg <= sharp + 1e-10)


@pytest.mark.parametrize("chi", [0.0, 0.3, 0.7])
def test_eta_regularized_converges(chi):
    s = np.linspace(0.0, 0.9, 451)
    sharp = eta_local(chi, s)
    sups = [
        float(np.max(np.abs(eta_regularized(chi, eps, s) - sharp)))
        for eps in (0.1, 0.05, 0.01)
    ]
    assert sups[0] > sups[1] > sups[2]


# ---------------------------------------------------------------------------
# Q and R


def test_r_constant_for_pushed_ramp():
    for s in (0.1, 0.5, 0.9, 1.0, 1.5, 3.0):
        _, r = q_and_r("p", 2.0, s)
        assert r == pytest.approx(0.5, abs=1e-12)


def test_q_local_linear_at_chi1():
    q, _ = q_and_r("u", 1.0, 0.5)
    assert q == pytest.approx(0.5, abs=1e-12)


def test_r_nondecreasing_pulled_ramp():
    s = np.linspace(0.01, 3.0, 300)
    r = np.array([q_and_r("p", 0.5, float(v))[1] for v in s])
    assert np.all(np.diff(r) >= -1e-10)


def test_r_endpoint_limits():
    # R(0) = c - max(1, chi)
    for chi in (0.0, 0.5, 2.0):
        c = minimal_speed(chi).c_star
        for model in ("u", "p"):
            _, r = q_and_r(model, chi, 0.0)
            assert r == pytest.approx(c - max(1.0, chi), abs=1e-12)
    # local s = 1 limits
    assert q_and_r("u", 2.0, 1.0)[1] == pytest.approx(0.5)
    assert q_and_r("u", 0.0, 1.0)[1] == math.inf
    rc = regularization_constants(0.5, 0.1)
    assert q_and_r("u", 0.5, 1.0, epsilon=0.1)[1] == pytest.approx(
        0.9 / rc.psi_star
    )


def test_r_matches_c_minus_q_prime():
    # independent route: R = c - Q' with Q' by centered differences
    h = 1e-6
    for model, epsilon, chi, s_grid in [
        ("p", None, 0.5, np.linspace(0.05, 2.5, 40)),
        ("u", None, 0.3, np.linspace(0.05, 0.95, 40)),
        ("u", 0.1, 0.5, np.linspace(0.05, 0.85, 40)),
    ]:
        c = minimal_speed(chi).c_star
        for s in s_grid:
            s = float(s)
            if abs(s - 1.0) < 2 * h:
                continue
            q_m = q_and_r(model, chi, s - h, epsilon)[0]
            q_p = q_and_r(model, chi, s + h, epsilon)[0]
            r = q_and_r(model, chi, s, epsilon)[1]
            assert r == pytest.approx(c - (q_p - q_m) / (2 * h), abs=1e-5)


@pytest.mark.parametrize(
    "spec,chi,grid",
    [
        (("u", None), 0.0, np.linspace(1e-3, 1 - 1e-3, 400)),
        (("u", None), 0.5, np.linspace(1e-3, 1 - 1e-3, 400)),
        (("u", None), 2.0, np.linspace(1e-3, 1 - 1e-3, 400)),
        (("p", None), 0.5, np.linspace(1e-3, 3.0, 600)),
        (("p", None), 2.0, np.linspace(1e-3, 3.0, 600)),
        (("u", 0.1), 0.5, np.linspace(1e-3, 1 - 1e-3, 400)),
    ],
)
def test_q_concavity(spec, chi, grid):
    model, epsilon = spec
    q = np.array([q_and_r(model, chi, float(s), epsilon)[0] for s in grid])
    second = q[2:] - 2.0 * q[1:-1] + q[:-2]
    assert np.max(second) <= 1e-9


# ---------------------------------------------------------------------------
# traveling waves


def test_traveling_wave_examples():
    assert traveling_wave("u", 0.0, 1.0) == pytest.approx(2.0 * math.exp(-1.0))
    for chi in CHI_GRID:
        assert traveling_wave("u", chi, -3.0) == 1.0
    assert traveling_wave("p", 2.0, -1.0) == pytest.approx(3.0)
    assert traveling_wave("u", 2.0, 0.0) == 1.0  # left value at the kink


def test_rho_is_regime_multiple_of_u():
    x = np.linspace(-4.0, 6.0, 200)
    for chi in CHI_GRID:
        mult = chi if chi >= 1.0 else 1.0 / (2.0 - chi)
        u = traveling_wave("u", chi, x)
        rho = traveling_wave("rho", chi, x)
        assert np.allclose(rho, mult * u, atol=1e-14)


def test_chi1_agrees_from_both_branches():
    x = np.linspace(-3.0, 6.0, 101)
    u1 = traveling_wave("u", 1.0, x)
    u_below = traveling_wave("u", 1.0 - 1e-9, x)
    assert np.max(np.abs(u1 - u_below)) < 1e-7


@pytest.mark.parametrize("chi", [0.0, 0.5, 1.0, 2.0])
def test_wave_profile_consistency(chi):
    # -d/dx u_tw(x) = eta_local(chi, u_tw(x)) away from the kink
    h = 1e-5
    x = np.concatenate([np.linspace(-5.0, -0.01, 60), np.linspace(0.01, 8.0, 120)])
    slope = -(traveling_wave("u", chi, x + h) - traveling_wave("u", chi, x - h)) / (2 * h)
    eta = eta_local(chi, np.clip(traveling_wave("u", chi, x), 0.0, 1.0))
    assert np.max(np.abs(slope - eta)) <= 1e-6
    slope_p = -(traveling_wave("p", chi, x + h) - traveling_wave("p", chi, x - h)) / (2 * h)
    eta_p = eta_nonlocal(chi, traveling_wave("p", chi, x))
    assert np.max(np.abs(slope_p - eta_p)) <= 1e-6


@pytest.mark.parametrize("chi", [0.0, 0.5, 1.0, 2.0])
def test_p_prime_is_minus_rho(chi):
    h = 1e-5
    x = np.concatenate([np.linspace(-5.0, -0.01, 60), np.linspace(0.01, 8.0, 120)])
    dp = (traveling_wave("p", chi, x + h) - traveling_wave("p", chi, x - h)) / (2 * h)
    rho = traveling_wave("rho", chi, x)
    assert np.max(np.abs(dp + rho)) <= 1e-6


@pytest.mark.parametrize("chi", [0.0, 0.5, 1.0, 2.0])
def test_stationary_equation_residual(chi):
    # -c v' + chi A(v)' - v'' = v - A(v) pointwise away from the kink
    c = minimal_speed(chi).c_star
    h = 1e-4
    x = np.concatenate([np.linspace(-5.0, -0.05, 40), np.linspace(0.05, 8.0, 100)])

    def resid(key):
        vm, v0, vp = (traveling_wave(key, chi, x + d) for d in (-h, 0.0, h))
        am, a0, ap = (np.asarray(flux(key, np.clip(v, 0, None if key == "p" else 1.0)))
                      for v in (vm, v0, vp))
        dv = (vp - vm) / (2 * h)
        d2v = (vp - 2 * v0 + vm) / (h * h)
        da = (ap - am) / (2 * h)
        return -c * dv + chi * da - d2v - (v0 - a0)

    assert np.max(np.abs(resid("u"))) <= 1e-6
    assert np.max(np.abs(resid("p"))) <= 1e-6
