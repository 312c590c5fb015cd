"""Closed-form references for the benchmark's checks.

Written from the paper's formulas, not from gogrow, so that a fault in
`gogrow.profiles` cannot hide itself in the checks.
"""

from __future__ import annotations

import numpy as np


def c_star(chi: float) -> float:
    """Minimal front speed: 2 for chi <= 1, chi + 1/chi above."""
    return 2.0 if chi <= 1.0 else chi + 1.0 / chi


def wave(field: str, chi: float, x) -> np.ndarray:
    """Minimal-speed traveling wave of the go-or-grow models at x.

    field is "u" (local density), "rho" (nonlocal density) or "p" (mass to
    the right, P = integral of rho over (x, inf)).  On the left u = 1; on
    the right u = exp(-chi x) for chi >= 1 and ((1 - chi) x + 1) exp(-x)
    below.  rho = chi u for chi >= 1 and u / (2 - chi) below.
    """
    x = np.asarray(x, dtype=float)
    left = x <= 0.0
    xr = np.maximum(x, 0.0)  # keeps exp() finite on the left, where it is unused
    if chi >= 1.0:
        u = np.where(left, 1.0, np.exp(-chi * xr))
        rho = chi * u
        p = np.where(left, 1.0 - chi * x, np.exp(-chi * xr))
    else:
        c2 = 2.0 - chi
        u = np.where(left, 1.0, ((1.0 - chi) * xr + 1.0) * np.exp(-xr))
        rho = u / c2
        p = np.where(left, 1.0 - x / c2, ((1.0 - chi) * xr + c2) * np.exp(-xr) / c2)
    return {"u": u, "rho": rho, "p": p}[field]


def delay_fit(t, x, c: float) -> float:
    """Least-squares r in x(t) - c t = -r log t + b over the window [T/8, T]."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    t_end = float(t[-1])
    keep = (t >= max(1.0, t_end / 8.0)) & np.isfinite(x)
    design = np.column_stack([-np.log(t[keep]), np.ones(int(keep.sum()))])
    coef, *_ = np.linalg.lstsq(design, x[keep] - c * t[keep], rcond=None)
    return float(coef[0])


def tail_percentile(samples) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns (percentile level, value), the value being the eleventh
    largest sample, or None below forty samples, where such a percentile
    would be no tail.
    """
    values = sorted(samples)
    n = len(values)
    if n < 40:
        return None
    return 100.0 * (n - 10) / n, values[n - 11]
