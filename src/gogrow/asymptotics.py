"""Quantitative front asymptotics: log-delay regression, explicit
super/subsolution envelopes, and the FKPP reference comparison.

The front position behaves like x(t) = c t - r log t + O(1) with
r = 0 (pushed, chi > 1), 1/2 (pushmi-pullyu, chi = 1), 3/2 (pulled,
chi < 1).  This module fits r from a front trace, evaluates the explicit
supersolution families used for the upper bounds, and checks the simple
moment-based upper envelope on traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import solver
from .diagnostics import FrontTrace, TraceRecorder
from .profiles import ChiParams, eta_local, minimal_speed, _kappa
from .solver import Model, SimConfig


class InsufficientDataError(ValueError):
    pass


def theoretical_delay(chi: float) -> float:
    """Logarithmic-delay coefficient of the front-location trichotomy."""
    cp = minimal_speed(chi)
    if cp.chi > 1.0:
        return 0.0
    if cp.chi == 1.0:
        return 0.5
    return 1.5


@dataclass(frozen=True)
class DelayFit:
    r: float
    b: float
    stderr_r: float
    window: tuple[float, float]


def fit_front_delay(
    trace: FrontTrace,
    c: float,
    window: tuple[float, float] | None = None,
) -> DelayFit:
    """Least squares of x(t) - c t against (-log t, 1) over the window.

    The window defaults to [T/8, T]: the log regressor is nearly collinear
    with the constant on short windows and early transients pollute small
    times.  Requires at least 10 samples with t >= 1.
    """
    t_all = trace.t
    x_all = trace.x_front
    if window is None:
        t_max = float(t_all[-1])
        window = (max(1.0, t_max / 8.0), t_max)
    t_min, t_max = float(window[0]), float(window[1])
    if t_min < 1.0:
        raise InsufficientDataError("fit window must start at t >= 1")
    mask = (t_all >= t_min) & (t_all <= t_max) & np.isfinite(x_all)
    t = t_all[mask]
    x = x_all[mask]
    if t.size < 10:
        raise InsufficientDataError(f"need >= 10 samples in the window, have {t.size}")
    y = x - c * t
    design = np.column_stack([-np.log(t), np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = t.size - 2
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    cov = sigma2 * np.linalg.inv(design.T @ design)
    return DelayFit(
        r=float(coef[0]),
        b=float(coef[1]),
        stderr_r=float(math.sqrt(max(cov[0, 0], 0.0))),
        window=(t_min, t_max),
    )


@dataclass(frozen=True)
class SupersolutionParams:
    """Parameters of the exponential-Gaussian-helper supersolutions.

    The moving-frame profile is built from E = exp(-z),
    G = exp(-z^2 / (4(t+t0))), H = exp((z^2/(t+t0) - K) / sqrt(t+t0)),
    scaled by beta (and by z for the pulled family).  K = 4 + K_tilde/2
    with K_tilde >= 1 for the pushmi-pullyu bound and K_tilde = 16 + 9/16
    for the pulled one; t0 must exceed 16^2.  s_slope < 1 is the left
    slope of the pulled nonlocal concatenation and eps_gap =
    (1 - s_slope)/2 its cusp margin.
    """

    beta: float = 3.0 * math.e
    K: float = 4.5
    t0: float = 400.0
    s_slope: float = 0.5
    eps_gap: float = 0.25

    def __post_init__(self):
        if self.beta <= 0.0 or self.t0 < 16.0**2:
            raise ValueError("need beta > 0 and t0 >= 256")
        if not (0.0 < self.s_slope < 1.0):
            raise ValueError("s_slope must lie in (0, 1)")

    @staticmethod
    def pulled(chi: float, beta: float = 3.0 * math.e, t0: float = 400.0) -> "SupersolutionParams":
        s = 1.0 / (2.0 - chi)
        if s >= 1.0:
            raise ValueError("left slope must stay below 1 for the pulled construction")
        k_tilde = 16.0 + 9.0 / 16.0
        return SupersolutionParams(
            beta=beta, K=4.0 + k_tilde / 2.0, t0=t0, s_slope=s, eps_gap=(1.0 - s) / 2.0
        )


def _egh_log(params: SupersolutionParams, t, z):
    tp = t + params.t0
    return -z - z * z / (4.0 * tp) + (z * z / tp - params.K) / np.sqrt(tp)


def supersolution_pp_local(params: SupersolutionParams, t, z):
    """Pushmi-pullyu local upper envelope min(1, beta E G H)."""
    val = params.beta * np.exp(_egh_log(params, np.asarray(t, float), np.asarray(z, float)))
    out = np.minimum(1.0, val)
    return float(out) if np.ndim(out) == 0 else out


def pp_operator_residual(params: SupersolutionParams, t, z):
    """(L_{1/2} R) / R for R = beta E G H, where
    L_{1/2} = d_t - d_zz - (2 - 1/(2(t+t0))) d_z - 1.

    Closed form; nonnegative on the verification grid for admissible
    parameters (K >= 4.5, t0 > 256).
    """
    tp = np.asarray(t, float) + params.t0
    z = np.asarray(z, float)
    out = (
        z * z / (2.0 * tp**2.5) * (1.0 - 8.0 / np.sqrt(tp))
        - z / (4.0 * tp**2)
        + (params.K - 4.0) / (2.0 * tp**1.5)
        + z / tp**2.5
    )
    return float(out) if np.ndim(out) == 0 else out


def pulled_operator_residual(params: SupersolutionParams, t, z):
    """(L_{3/2} R) / R for R = beta z E G H, where
    L_{3/2} = d_t - d_zz - (2 - 3/(2(t+t0))) d_z - 1.  Valid for z > 0."""
    tp = np.asarray(t, float) + params.t0
    z = np.asarray(z, float)
    out = (
        z * z / (2.0 * tp**2.5) * (1.0 - 8.0 / np.sqrt(tp))
        - 3.0 * z / (4.0 * tp**2)
        + (params.K - 12.0) / (2.0 * tp**1.5)
        + 3.0 * z / tp**2.5
        + 3.0 / (2.0 * z * tp)
    )
    return float(out) if np.ndim(out) == 0 else out


def pulled_profile(params: SupersolutionParams, t, z):
    """Right branch R = beta z E G H of the pulled supersolution."""
    z = np.asarray(z, float)
    out = params.beta * z * np.exp(_egh_log(params, np.asarray(t, float), z))
    return float(out) if np.ndim(out) == 0 else out


def pulled_profile_slope(params: SupersolutionParams, t: float, z: float) -> float:
    tp = t + params.t0
    r = pulled_profile(params, t, z)
    return r * (1.0 / z - 1.0 - z / (2.0 * tp) + 2.0 * z / tp**1.5)


def z_super(params: SupersolutionParams, t: float) -> float:
    """Largest root of pulled_profile(t, .) = 1, by bisection plus Newton.

    Raises ValueError when the profile never reaches 1 (beta too small,
    roughly beta <= e after the G H damping)."""
    lo = 1.0
    if pulled_profile(params, t, lo) <= 1.0:
        raise ValueError("supersolution amplitude beta too small: no unit crossing")
    hi = 2.0 * math.log(params.beta) + 2.0
    while pulled_profile(params, t, hi) >= 1.0:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("no decaying branch found; parameters invalid")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if pulled_profile(params, t, mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    for _ in range(4):
        f = pulled_profile(params, t, z) - 1.0
        fp = pulled_profile_slope(params, t, z)
        if fp == 0.0:
            break
        z -= f / fp
    return z


def supersolution_pulled(params: SupersolutionParams, model: Model, t, z):
    """Pulled upper envelope: R on the right of its unit crossing, and on
    the left the plateau 1 (local model) or the line of slope
    -(1 + s_slope)/2 through the crossing (cumulative-mass model)."""
    if model not in (Model.LOCAL_U, Model.NONLOCAL_P):
        raise ValueError("pulled supersolution exists for the u and P models")
    t = float(t)
    zs = z_super(params, t)
    z_arr = np.asarray(z, float)
    right = pulled_profile(params, t, np.maximum(z_arr, zs))
    if model is Model.LOCAL_U:
        left = np.ones_like(z_arr)
    else:
        left = 1.0 - 0.5 * (1.0 + params.s_slope) * (z_arr - zs)
    out = np.where(z_arr >= zs, right, left)
    return float(out) if np.ndim(out) == 0 else out


def pulled_beta_floor(chi: float, K: float, t0: float) -> float:
    """Smallest beta for which the pulled local branch has a nonnegative
    shape defect to the right of its unit crossing."""
    if t0 <= 16.0:
        raise ValueError("need t0 > 16")
    return (1.0 / _kappa(chi)) * math.exp(
        math.sqrt(t0) / (2.0 * (math.sqrt(t0) - 4.0)) + K / math.sqrt(t0)
    )


def pulled_local_defect(params: SupersolutionParams, chi: float, t: float, z) -> np.ndarray:
    """Shape defect -R_z - eta_u(R) of the pulled right branch (z beyond
    the unit crossing, so R < 1)."""
    z_arr = np.atleast_1d(np.asarray(z, float))
    r = pulled_profile(params, t, z_arr)
    return -pulled_profile_slope(params, t, z_arr) - eta_local(chi, np.clip(r, 0.0, 1.0))


@dataclass(frozen=True)
class EnvelopeReport:
    """Worst margins of a trace against its analytic envelopes.

    upper_margin_min: min over samples of (c t + chi_vee log I0 [+ slack]
    - x(t)); nonnegative means the moment envelope holds everywhere.
    fitted_B: smallest constant with x(t) >= c t - r log(1+t) - B on the
    samples.  fkpp_margin_min: min of (x(t) - x_fkpp(t) + slack) when a
    reference trace is supplied.  n_skipped counts front-less samples.
    """

    upper_margin_min: float
    fitted_B: float
    fkpp_margin_min: float | None
    n_skipped: int
    upper_ok: bool
    fkpp_ok: bool | None


def check_envelopes(
    trace: FrontTrace,
    chi_params: ChiParams,
    I0: float,
    dx: float,
    local_model: bool = False,
    fkpp_trace: FrontTrace | None = None,
) -> EnvelopeReport:
    """Check every sample against the moment upper bound
    x(t) <= c t + chi_vee log I0 + 5 dx (the local variant divides I0 by
    chi_vee), report the fitted additive constant of the trichotomy lower
    form, and compare against an FKPP half-level reference when given."""
    cp = chi_params
    arg = I0 / cp.chi_vee if local_model else I0
    if arg <= 0.0:
        raise ValueError("I0 must be positive")
    offset = cp.chi_vee * math.log(arg)
    slack = 5.0 * dx
    ok = np.isfinite(trace.x_front)
    n_skipped = int((~ok).sum())
    t = trace.t[ok]
    x = trace.x_front[ok]
    margins = cp.c_star * t + offset + slack - x
    upper_margin_min = float(margins.min()) if t.size else math.inf
    r_th = theoretical_delay(cp.chi)
    mask = t > 0.0
    fitted_B = float(np.max(cp.c_star * t[mask] - r_th * np.log1p(t[mask]) - x[mask])) if mask.any() else math.nan
    fkpp_margin_min = None
    fkpp_ok = None
    if fkpp_trace is not None:
        xf = np.interp(t, fkpp_trace.t, fkpp_trace.x_front)
        good = np.isfinite(xf)
        fkpp_margin_min = float(np.min(x[good] - xf[good] + slack)) if good.any() else math.inf
        fkpp_ok = fkpp_margin_min >= 0.0
    return EnvelopeReport(
        upper_margin_min=upper_margin_min,
        fitted_B=fitted_B,
        fkpp_margin_min=fkpp_margin_min,
        n_skipped=n_skipped,
        upper_ok=upper_margin_min >= 0.0,
        fkpp_ok=fkpp_ok,
    )


def fkpp_reference(cfg: SimConfig, trace_every: float) -> FrontTrace:
    """Run the logistic reference v_t = v_xx + v(1 - v) on the same grid
    machinery and return its half-level front trace."""
    import dataclasses

    ref = dataclasses.replace(cfg, model=Model.FKPP, epsilon=None)
    rec = TraceRecorder(collect_defect=False, collect_rh=False)
    solver.run(ref, observers=[rec], trace_every=trace_every)
    return rec.front_trace()
