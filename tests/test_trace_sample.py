"""A TraceRecorder row is, bit for bit, what the standalone observables give."""

import math
import struct
import warnings

import pytest

from gogrow.diagnostics import (
    TailNotResolvedWarning,
    TraceRecorder,
    default_moment_kind,
    exponential_moment,
    front_location,
    min_shape_defect,
    rankine_hugoniot_residual,
    weighted_defect_sup,
)
from gogrow.solver import Model, make_config, run


def _bits(value) -> bytes:
    return struct.pack("<d", math.nan if value is None else float(value))


def _standalone_row(state, cfg) -> tuple:
    front = front_location(state, cfg)
    kind = default_moment_kind(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailNotResolvedWarning)
        moment = None if kind is None else exponential_moment(state, cfg, kind)
    go_or_grow = cfg.model is not Model.FKPP
    return (
        state.t,
        None if front is None else front + cfg.frame.shift(state.t),
        moment,
        min_shape_defect(state, cfg) if go_or_grow else None,
        weighted_defect_sup(state, cfg) if go_or_grow else None,
        rankine_hugoniot_residual(state, cfg) if go_or_grow else None,
    )


@pytest.mark.parametrize("chi", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("model", ["local_u", "nonlocal_p", "nonlocal_rho", "fkpp"])
def test_recorder_row_matches_standalone(model, chi):
    cfg = make_config(model=model, chi=chi, dx=0.1, t_end=2.0, x_left=-15.0, width=40.0,
                      frame="moving", init="heaviside", left_pad=10.0, right_pad=15.0)
    rec = TraceRecorder()
    expected = []
    run(cfg, observers=[rec, lambda s, c: expected.append(_standalone_row(s, c))],
        trace_every=0.5)
    got = list(zip(rec.t, rec.x_front, rec.moment, rec.min_defect, rec.weighted_sup,
                   rec.rh_residual))
    assert len(got) == len(expected) == 5
    for row, want in zip(got, expected):
        assert [_bits(v) for v in row] == [_bits(v) for v in want], (row, want)
    # the states are mid-run fronts, so the columns are not vacuous
    assert all(math.isfinite(x) for x in rec.x_front)
    if model != "fkpp":
        assert all(math.isfinite(v) for v in rec.moment + rec.min_defect + rec.weighted_sup)
