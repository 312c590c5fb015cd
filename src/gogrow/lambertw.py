"""Secondary real branch W_{-1} of the Lambert W function.

W_{-1} inverts r -> r*exp(r) on r <= -1, mapping [-1/e, 0) onto (-inf, -1].
Only this branch is provided; the wave-profile formulas never need the
principal branch.  The algorithm uses the asymptotic guess
log(-y) - log(-log(-y)) away from the branch point, the branch-point series
near -1/e, Halley iteration on r*exp(r) = y in between, Newton iteration on
the log form r + log(-r) = log(-y) for tiny |y|, and a bisection fallback.
"""

from __future__ import annotations

import math

import numpy as np

_INV_E = math.exp(-1.0)
# Within this distance of -1/e the iteration loses an order of accuracy,
# so the branch-point series value is returned directly.
_BRANCH_PAD = 1e-12
_RESIDUAL_TOL = 1e-13
# A Halley step below 4 ulp of r, scaled up by the conditioning 1/|r + 1|
# of f/f' near the branch point, is at the rounding floor of f: a further
# step cannot improve r.
_STOP = 4.0 * np.finfo(float).eps
_MAX_HALLEY = 60

# Below this |y|, exp(r) = y/r comes within a factor 1e5 of the subnormal
# range and r*exp(r) loses digits; such points solve the log form, which
# never forms exp(r).  There |r| > 690: from the asymptotic guess the error
# is below 0.01 and Newton contracts it by about 1/(2 r^2) < 1e-6 per step,
# so two steps reach the rounding level and the third absorbs the rounding.
_LOG_FORM_BELOW = 1e-300
_LOG_NEWTON_STEPS = 3
# log(-y) rounded to a double is off by up to 6e-14 near 700, more than the
# tolerance allows, so the log form reads it as log(-y 2^1000) - 1000 ln 2:
# the scaling is exact, and so is r + 1000 * ln2_hi for |r| > 346.
_SCALE = 1000
_SHIFT_HI = _SCALE * 6.93147180369123816490e-01  # ln 2 to 32 bits
_SHIFT_LO = _SCALE * 1.90821492927058770002e-10

# The bisection bracket [2 log(-y), -1] is at most 1490 wide, and 64
# halvings take it below ulp(1).
_BISECT_STEPS = 64


def _log_residual(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    # r + log(-r) - log(-y) = log(r e^r / y), the relative residual of
    # r e^r = y to first order, to about 1e-14 for |r| > 346.
    return ((r + _SHIFT_HI) - np.log(np.ldexp(-y, _SCALE))) + (np.log(-r) + _SHIFT_LO)


def _halley(r: np.ndarray, y: np.ndarray, idx: np.ndarray) -> None:
    """Halley iteration on r*exp(r) = y at r[idx], in place; each point
    stops iterating as soon as its own step is at the rounding floor,
    judged on the starting value of r."""
    ra, ya = r[idx], y[idx]
    floor = _STOP * np.abs(ra) / np.minimum(np.abs(ra + 1.0), 1.0)
    for _ in range(_MAX_HALLEY):
        if idx.size == 0:
            return
        er = np.exp(ra)
        f = ra * er - ya
        fp = er * (ra + 1.0)
        denom = fp - 0.5 * f * er * (ra + 2.0) / fp
        step = f / denom
        ra -= step
        more = np.abs(step) > floor
        if not more.all():
            r[idx] = ra
            idx, ra, ya, floor = idx[more], ra[more], ya[more], floor[more]
    r[idx] = ra


def _bisect(ly: np.ndarray) -> np.ndarray:
    """Vectorised bisection on r + log(-r) = log(-y), which increases on
    r <= -1; r >= 2 log(-y) because r^2 e^r <= 4/e^2 < 1 there."""
    lo = 2.0 * ly
    hi = np.full_like(ly, -1.0)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        below = (mid - ly) + np.log(-mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def lambert_w_minus1_array(y: np.ndarray) -> np.ndarray:
    """Solve r * exp(r) = y on the branch r <= -1, elementwise.

    Accepts y in [-1/e, 0); relative residual |r e^r - y| <= 1e-13 |y|
    (checked in the log form for |y| < 1e-300, subnormal y included), and
    exactly -1 at the branch point.  Raises ValueError off the domain.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        return y.copy()
    if not (y.min() >= -_INV_E and y.max() < 0.0):  # NaN fails both
        bad = y[~((y >= -_INV_E) & (y < 0.0))]
        raise ValueError(f"lambert_w_minus1 needs -1/e <= y < 0, got {float(bad.flat[0])!r}")
    shape = y.shape
    y = y.reshape(-1)  # the iteration addresses points by flat index
    p2 = 2.0 * (1.0 + math.e * y)
    np.maximum(p2, 0.0, out=p2)
    p = np.sqrt(p2)
    # Expansion about the branch point, p = sqrt(2*(1 + e*y)).
    series = -1.0 - p - p2 / 3.0 - 11.0 * p * p2 / 72.0
    near = p2 < 2.0 * math.e * _BRANCH_PAD
    my = -y
    ly = np.log(my)
    r = np.where(y > -0.25, ly - np.log(-ly), series)

    tiny = y > -_LOG_FORM_BELOW
    _halley(r, y, np.flatnonzero(~(near | tiny)))
    np.minimum(r, -1.0, out=r)
    r[near] = series[near]
    bad = ~(np.abs(r * np.exp(r) - y) <= _RESIDUAL_TOL * my)  # NaN counts as bad
    if tiny.any():
        rt, yt = r[tiny], y[tiny]
        for _ in range(_LOG_NEWTON_STEPS):
            rt = rt - _log_residual(rt, yt) * rt / (rt + 1.0)
        r[tiny] = rt
        bad[tiny] = ~(np.abs(_log_residual(rt, yt)) <= _RESIDUAL_TOL)
    if bad.any():
        r[bad] = _bisect(ly[bad])
    return r.reshape(shape)


def lambert_w_minus1(y: float) -> float:
    """Scalar W_{-1}: lambert_w_minus1_array on one value, same contract."""
    return float(lambert_w_minus1_array(np.array([float(y)]))[0])
