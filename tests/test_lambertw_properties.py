"""Property tests of W_{-1} over its whole domain, subnormal inputs included.

Residuals are taken in 40-digit decimal arithmetic from the exact binary
values of r and y, so they do not depend on the floating-point exp and log
the routine uses (r e^r underflows in floating point when y is tiny).
"""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gogrow import lambertw  # noqa: E402
from gogrow.lambertw import lambert_w_minus1, lambert_w_minus1_array  # noqa: E402

TINY = sys.float_info.min  # smallest normal double
NORMAL_Y = st.floats(min_value=-math.exp(-1.0), max_value=-TINY)
SUBNORMAL_Y = st.floats(min_value=-TINY, max_value=-math.ulp(0.0), exclude_min=True,
                        allow_subnormal=True)
ANY_Y = st.one_of(NORMAL_Y, SUBNORMAL_Y)
SETTINGS = settings(max_examples=300, deadline=None)


def _relative_residual(r: float, y: float) -> float:
    with localcontext() as ctx:
        ctx.prec = 40
        dr, dy = Decimal(r), Decimal(y)
        return float(abs(dr * dr.exp() - dy) / abs(dy))


def _log_residual(r: float, y: float) -> float:
    with localcontext() as ctx:
        ctx.prec = 40
        return float(abs(Decimal(r) + (-Decimal(r)).ln() - (-Decimal(y)).ln()))


@SETTINGS
@given(NORMAL_Y)
@example(-math.exp(-1.0))
@example(-TINY)
@example(-1e-300)
def test_relative_residual_normal(y):
    r = lambert_w_minus1(y)
    assert r <= -1.0
    assert _relative_residual(r, y) <= 1e-13


@SETTINGS
@given(SUBNORMAL_Y)
@example(-math.ulp(0.0))
def test_log_form_residual_subnormal(y):
    r = lambert_w_minus1(y)
    assert math.isfinite(r) and r <= -1.0
    assert _log_residual(r, y) <= 1e-13


@SETTINGS
@given(st.lists(ANY_Y, min_size=1, max_size=40))
def test_scalar_and_array_bit_identical(ys):
    arr = lambert_w_minus1_array(np.array(ys))
    scal = np.array([lambert_w_minus1(y) for y in ys])
    assert arr.tobytes() == scal.tobytes()


@SETTINGS
@given(ANY_Y, ANY_Y)
def test_monotone_in_y(a, b):
    # W_{-1} decreases as y rises toward 0.  Each value carries about one
    # ulp of rounding; at |W| ~ 700 that is the change of W over a relative
    # step of 1e-13 in y, so closer inputs are not compared.
    lo, hi = min(a, b), max(a, b)
    if hi - lo <= 1e-12 * abs(lo):
        return
    assert lambert_w_minus1(lo) >= lambert_w_minus1(hi)


def test_bisection_fallback_agrees():
    # the fallback alone, on the log form, lands on the Halley/Newton values
    ys = -np.exp(np.linspace(math.log(1e-320), -1.0, 2000))
    bisected = lambertw._bisect(np.log(-ys))
    np.testing.assert_allclose(bisected, lambert_w_minus1_array(ys), rtol=1e-15, atol=0.0)
