"""Closed-form layer of the go-or-grow front models.

Minimal wave speed c*(chi), the advection fluxes A (named by the
traveling_wave model key, "u" or "p", and a width epsilon), the
wave-profile functions eta (slope of the minimal traveling wave as a
function of its value), their Lipschitz-regularized family, the
companion quantities Q = eta + chi*A and R with eta*R = s - A, and the
explicit minimal-speed traveling waves for the local density u, the
nonlocal density rho, and the cumulative mass P.

Everything here is a pure function of its arguments; array inputs are
broadcast elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lambertw import lambert_w_minus1_array


@dataclass(frozen=True)
class ChiParams:
    """Drift strength chi and the quantities derived from it."""

    chi: float
    chi_vee: float  # max(1, chi)
    c_star: float


def minimal_speed(chi: float) -> ChiParams:
    """Minimal front speed c*(chi).

    c* = chi + 1/chi for chi >= 1 and 2 otherwise, so c* >= 2 with equality
    exactly for chi <= 1.  The front is pushed for chi > 1, pulled for
    chi < 1, pushmi-pullyu at chi = 1.
    """
    chi = float(chi)
    if not math.isfinite(chi) or chi < 0.0:
        raise ValueError(f"chi must be finite and >= 0, got {chi!r}")
    c_star = chi + 1.0 / chi if chi >= 1.0 else 2.0
    return ChiParams(chi=chi, chi_vee=max(1.0, chi), c_star=c_star)


def _return_like(s, out):
    return float(out[0]) if np.ndim(s) == 0 else out


def _ramp_flux(v: np.ndarray, epsilon: float | None) -> np.ndarray:
    """Ramp flux without validation: (v - 1)_+ for epsilon None, else the
    regularized clip(v - (1 - eps), 0) / eps."""
    out = np.subtract(v, 1.0 if epsilon is None else 1.0 - epsilon)
    np.maximum(out, 0.0, out=out)
    if epsilon is not None:
        out /= epsilon
    return out


def flux(model: str, s, epsilon: float | None = None):
    """Advection flux A(s); nondecreasing with A(0) = 0.

    model "u" is the local flux on [0, 1]: the Heaviside A(s) = s for
    s >= 1, else 0, or with epsilon in (0, 1/2) its regularization, 0 on
    [0, 1-eps] with slope 1/eps above.  model "p" is the nonlocal ramp
    (s - 1)_+ on s >= 0 and takes no epsilon.

    Raises ValueError for any other model or epsilon, for s < 0, and for
    s > 1 with "u".
    """
    if model == "p":
        if epsilon is not None:
            raise ValueError("epsilon is only meaningful for the local flux")
    elif model != "u":
        raise ValueError(f"flux model must be 'u' or 'p', got {model!r}")
    elif epsilon is not None and not (0.0 < epsilon < 0.5):
        raise ValueError(f"regularized flux needs epsilon in (0, 1/2), got {epsilon!r}")
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("flux argument must be finite and >= 0")
    if model == "p":
        out = _ramp_flux(arr, None)
    elif np.any(arr > 1.0):
        raise ValueError("local flux argument must lie in [0, 1]")
    elif epsilon is None:
        out = np.where(arr >= 1.0, arr, 0.0)
    else:
        out = _ramp_flux(arr, epsilon)
    return _return_like(s, out)


def _kappa(chi: float) -> float:
    # Lambert prefactor of the local profile, chi < 1 only.
    q = 1.0 / (1.0 - chi)
    return q * math.exp(-q)


def _lam(chi: float) -> float:
    # Lambert prefactor of the nonlocal profile, chi < 1 only.
    p = (2.0 - chi) / (1.0 - chi)
    return p * math.exp(-p)


def _lambert_profile(cp: ChiParams, arr: np.ndarray, prefactor, go_value: float) -> np.ndarray:
    """Profile shared by the local and cumulative-mass models: chi*s below
    1 for chi >= 1, and (1 + 1/W_{-1}(-k*s)) * s with k = prefactor(chi)
    below chi = 1; go_value from s = 1 on."""
    if cp.chi >= 1.0:
        return np.where(arr < 1.0, cp.chi * arr, go_value)
    out = np.where(arr < 1.0, 0.0, go_value)
    y = prefactor(cp.chi) * arr
    # k*s can underflow to 0 for subnormal s; there eta(s) -> s
    tiny = (arr > 0.0) & (y <= 0.0) & (arr < 1.0)
    out[tiny] = arr[tiny]
    inner = (y > 0.0) & (arr < 1.0)
    if inner.any():
        w = lambert_w_minus1_array(-y[inner])
        out[inner] = (1.0 + 1.0 / w) * arr[inner]
    np.maximum(out, 0.0, out=out)  # roundoff guard at the endpoints
    return out


def eta_local(chi: float, s):
    """Wave-profile function of the local model on [0, 1].

    chi >= 1 gives the linear profile chi*s below 1; below chi = 1 the
    profile is (1 + 1/W_{-1}(-kappa*s)) * s with kappa = q*exp(-q),
    q = 1/(1-chi).  eta(1) = 0 by the endpoint convention (the wave sits at
    its plateau there).
    """
    cp = minimal_speed(chi)
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("eta_local argument must lie in [0, 1]")
    return _return_like(s, _lambert_profile(cp, arr, _kappa, 0.0))


def eta_nonlocal(chi: float, s):
    """Wave-profile function of the cumulative-mass model on s >= 0.

    Linear chi*s below 1 for chi >= 1; Lambert form with prefactor
    lambda = p*exp(-p), p = (2-chi)/(1-chi), below chi = 1.  For s >= 1 the
    profile is the constant 1/(c - chi).
    """
    cp = minimal_speed(chi)
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("eta_nonlocal argument must be finite and >= 0")
    return _return_like(s, _eta_nonlocal(cp, arr))


def _eta_nonlocal(cp: ChiParams, arr: np.ndarray) -> np.ndarray:
    # eta_nonlocal of a finite array >= 0, unchecked
    return _lambert_profile(cp, arr, _lam, 1.0 / (cp.c_star - cp.chi))


@dataclass(frozen=True)
class RegularizationConstants:
    """Constants of the chi < 1 regularized profile.

    psi_star is the profile value at the matching point 1 - eps, m_eps the
    slope of its linear cap, k_eps the log-shift matching the scaled sharp
    profile to the cap.
    """

    chi: float
    epsilon: float
    psi_star: float
    m_eps: float
    k_eps: float


@lru_cache(maxsize=256)
def regularization_constants(chi: float, epsilon: float) -> RegularizationConstants:
    """Matching constants of the regularized local profile, in closed form.

    Defined for chi in [0, 1).  k_eps solves
    exp(-k) * eta_local(exp(k) * (1 - eps)) = psi_star, with psi_star the
    positive root of mu^2 - (chi - 2 eps) mu - eps (1 - eps).  With
    p = exp(k) (1 - eps) the condition reads 1 + 1/W_{-1}(-kappa p) =
    psi_star / (1 - eps), so w = (1 - eps) / (psi_star - 1 + eps) and
    p = -w exp(w) / kappa.
    """
    chi = float(chi)
    epsilon = float(epsilon)
    if not (0.0 <= chi < 1.0):
        raise ValueError("regularization constants exist for chi in [0, 1) only")
    if not (0.0 < epsilon < 0.5):
        raise ValueError("epsilon must lie in (0, 1/2)")
    d = chi - 2.0 * epsilon
    psi = 0.5 * (d + math.sqrt(d * d + 4.0 * epsilon * (1.0 - epsilon)))
    w = (1.0 - epsilon) / (psi - 1.0 + epsilon)
    p_star = -w * math.exp(w) / _kappa(chi)
    if not (0.0 < p_star < 1.0):
        raise RuntimeError("k_eps matching point outside (0, 1); regularization constants bug")
    k_eps = math.log(p_star / (1.0 - epsilon))
    return RegularizationConstants(
        chi=chi,
        epsilon=epsilon,
        psi_star=psi,
        m_eps=psi / epsilon,
        k_eps=k_eps,
    )


def eta_regularized(chi: float, epsilon: float, s):
    """Wave-profile function of the regularized local flux on [0, 1].

    chi >= 1: chi * (s - A_eps(s)).  chi < 1: the log-shifted sharp profile
    exp(-k) eta_local(exp(k) s) on [0, 1-eps] matched continuously to the
    linear cap m_eps (1 - s) above.
    """
    cp = minimal_speed(chi)
    if not (0.0 < epsilon < 0.5):
        raise ValueError("epsilon must lie in (0, 1/2)")
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("eta_regularized argument must lie in [0, 1]")
    return _return_like(s, _eta_regularized(cp, epsilon, arr))


def _eta_regularized(cp: ChiParams, epsilon: float, arr: np.ndarray) -> np.ndarray:
    # eta_regularized of an array in [0, 1] with epsilon in (0, 1/2), unchecked
    if cp.chi >= 1.0:
        out = cp.chi * (arr - _ramp_flux(arr, epsilon))
        out[arr >= 1.0] = 0.0  # exact zero, avoids 1 - (1-eps)/eps roundoff
        np.maximum(out, 0.0, out=out)
    else:
        rc = regularization_constants(cp.chi, epsilon)
        scale = math.exp(rc.k_eps)
        out = np.empty_like(arr)
        low = arr <= 1.0 - epsilon
        if low.any():
            # eta_local of scale * s, which lies in [0, 1) below 1 - eps
            out[low] = _lambert_profile(cp, scale * arr[low], _kappa, 0.0) / scale
        high = ~low
        out[high] = rc.m_eps * (1.0 - arr[high])
    return out


def q_and_r(model: str, chi: float, s: float, epsilon: float | None = None) -> tuple[float, float]:
    """Companion quantities Q = eta + chi*A and R with eta(s) R(s) = s - A(s),
    for the flux that (model, epsilon) names (see flux).

    R equals c - Q' and is evaluated from the profile identity where
    eta > 0.  At the endpoint zeros of eta it takes its one-sided limit:
    R(0) = c - max(1, chi), and at s = 1 (model "u") the limit from below,
    1/chi for the sharp flux (infinite at chi = 0) and (1-eps)/psi_star for
    the regularized one below chi = 1.
    """
    cp = minimal_speed(chi)
    sf = float(s)
    a = float(flux(model, sf, epsilon))
    if model == "p":
        eta = float(eta_nonlocal(chi, sf))
    elif epsilon is None:
        eta = float(eta_local(chi, sf))
    else:
        eta = float(eta_regularized(chi, epsilon, sf))
    q = eta + cp.chi * a
    if eta > 0.0:
        r = (sf - a) / eta
    elif sf == 0.0:
        r = cp.c_star - max(1.0, cp.chi)
    else:
        # s = 1 with model "u" (the nonlocal profile never vanishes there)
        if cp.chi >= 1.0:
            r = 1.0 / cp.chi
        elif epsilon is None:
            r = 1.0 / cp.chi if cp.chi > 0.0 else math.inf
        else:
            rc = regularization_constants(chi, epsilon)
            r = (1.0 - epsilon) / rc.psi_star
    return q, r


def traveling_wave(model: str, chi: float, x):
    """Minimal-speed traveling wave sampled at x.

    model is one of "u" (local density), "rho" (nonlocal density), or "p"
    (cumulative mass).  rho is the regime multiple of u: 1/(2-chi) below
    chi = 1, chi at and above (the chi = 1 forms agree).  At the kink x = 0
    the left value is returned.
    """
    cp = minimal_speed(chi)
    key = str(model).lower()
    if key not in ("u", "rho", "p"):
        raise ValueError(f"model must be 'u', 'rho' or 'p', got {model!r}")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    chi_ = cp.chi
    left = arr <= 0.0
    if chi_ >= 1.0:
        u = np.where(left, 1.0, np.exp(-chi_ * arr))
        if key == "u":
            out = u
        elif key == "rho":
            out = chi_ * u
        else:
            out = np.where(left, 1.0 - chi_ * arr, np.exp(-chi_ * arr))
    else:
        c2 = 2.0 - chi_
        tail = ((1.0 - chi_) * arr + 1.0) * np.exp(-arr)
        u = np.where(left, 1.0, tail)
        if key == "u":
            out = u
        elif key == "rho":
            out = u / c2
        else:
            out = np.where(
                left,
                1.0 - arr / c2,
                ((1.0 - chi_) * arr + c2) * np.exp(-arr) / c2,
            )
    return _return_like(x, out)
