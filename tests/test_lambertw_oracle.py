"""lambert_w_minus1_array against mpmath's W_{-1} at 50 digits.

The other lambertw tests check the residual r e^r - y; this one checks the
value itself.  W_{-1} is ill-conditioned at the branch point -1/e, where
dW/dy grows like 1/sqrt(y + 1/e), so the bound is scaled by that: the
relative error times sqrt(y + 1/e) was at most 6.4e-17 over the grid below
(2.7e-9 relative at y = -1/e + 1.1e-16, in the branch pad; 1.2e-14 at
y = -1/e + 1e-6; 1.1e-16 from y = -0.06 to -5e-324, the log form
included), with numpy 2.4.  The bound allows 2e-16, about three times
that, for other builds of numpy's exp and log.
"""

import math

import numpy as np
import pytest

from gogrow.lambertw import lambert_w_minus1_array

mpmath = pytest.importorskip("mpmath")

INV_E = math.exp(-1.0)
# 31 distances from the branch point, 1e-16 to 0.1, ten of them inside the
# series pad of 1e-12; then 200 values of |y| from 1/e down to the least
# subnormal, fifteen of them in the log-form range |y| < 1e-300
GRID = np.concatenate([-INV_E + np.geomspace(1e-16, 1e-1, 31), -np.geomspace(INV_E, 5e-324, 200)])
BOUND = 2e-16


def test_grid_covers_every_method():
    near = GRID + INV_E
    assert (near <= 1e-12).sum() == 10 and (GRID > -1e-300).sum() == 15 and GRID[-1] == -5e-324


def test_matches_mpmath_at_50_digits():
    with mpmath.workdps(50):
        got = lambert_w_minus1_array(GRID)
        for y, r in zip(GRID, got):
            want = mpmath.lambertw(mpmath.mpf(float(y)), -1).real
            rel = float(abs((mpmath.mpf(float(r)) - want) / want))
            assert rel * math.sqrt(y + INV_E) <= BOUND, (float(y), float(r), rel)
