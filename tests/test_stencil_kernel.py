"""The two-stencil step kernel against the term-by-term Euler update.

One kernel step equals ((v[2:] - 2v) + v[:-2])/dx^2 - chi (A[2:] - A[:-2])/2dx
+ (v - A) + c (v[2:] - v[:-2])/2dx, times dt, plus v, to roundoff, for every
model and frame and for batches whose rows differ in chi; the stationary
states 0 and 1 stay exact; a batch in a log-shifted frame, whose weights
change every step, equals its standalone runs bit for bit; and the window
never walks off the front.
"""

import math

import numpy as np
import pytest

from gogrow import solver
from gogrow.diagnostics import TraceRecorder

MODELS = ("local_u", "nonlocal_p", "nonlocal_rho", "fkpp")
FRAMES = {
    "lab": solver.Frame.lab(),
    "moving": solver.Frame.moving(2.5),
    "log_shifted": solver.Frame.log_shifted(2.0, r=1.5, t0=1.0),
}
CHIS = {1: (0.5,), 3: (0.0, 1.0, 2.5)}


def _cfgs(model, frame, chis):
    cfgs = [solver.make_config(model, chi=chi, dx=0.1, x_left=-10.0, width=24.0, frame=FRAMES[frame])
            for chi in chis]
    assert len({solver.batch_key(cfg) for cfg in cfgs}) == 1
    return cfgs


def _random_row(model, rng, n):
    """A rough random field in the range of the model's initial data."""
    if model == "nonlocal_p":
        return 0.1 * np.cumsum(rng.uniform(0.0, 3.0, n)[::-1])[::-1]
    if model == "nonlocal_rho":
        return rng.uniform(0.0, 2.0, n) * (np.linspace(0.0, 1.0, n) < rng.uniform(0.2, 1.0))
    return np.clip(rng.uniform(-0.5, 1.5, n), 0.0, 1.0)


def _written_out_step(v, cfg, t, dt):
    """The Euler update written term by term, with the kernel's edge rules."""
    dx = cfg.grid.dx
    chi = cfg.chi_params.chi
    if cfg.model.value == "local_u":
        eps = cfg.scheme_epsilon()
        a = np.clip(v - (1.0 - eps), 0.0, None) / eps
    elif cfg.model.value == "nonlocal_p":
        a = np.clip(v - 1.0, 0.0, None)
    elif cfg.model.value == "nonlocal_rho":
        a = (dx * np.cumsum(v[::-1])[::-1] >= 1.0) * v
    else:
        a = None
    vc = v[1:-1]
    rhs = ((v[2:] - 2.0 * vc) + v[:-2]) / dx**2
    if a is None:
        rhs = rhs + vc * (1.0 - vc)
    else:
        rhs = rhs - chi * (a[2:] - a[:-2]) / (2.0 * dx) + (vc - a[1:-1])
    rhs = rhs + cfg.frame.drift(t) * (v[2:] - v[:-2]) / (2.0 * dx)
    out = np.empty_like(v)
    out[1:-1] = rhs * dt + vc
    out[-1] = 0.0
    out[0] = 2.0 * out[1] - out[2] if cfg.model.value == "nonlocal_p" else v[0]
    return out


@pytest.mark.parametrize("rows", (1, 3))
@pytest.mark.parametrize("frame", tuple(FRAMES))
@pytest.mark.parametrize("model", MODELS)
def test_step_matches_written_out_update(model, frame, rows):
    cfgs = _cfgs(model, frame, CHIS[rows])
    n = cfgs[0].grid.n
    dt = solver.stable_dt(cfgs[0])
    kern = solver._Kernel(cfgs)
    rng = np.random.default_rng(1234)
    # a shortened step and several drifts exercise rebuilt weights
    for t, step in ((0.0, dt), (3.7, dt), (3.7, dt / 3.0), (41.0, dt)):
        v = np.concatenate([_random_row(model, rng, n) for _ in cfgs])
        out = np.empty_like(v)
        kern.step_into(v, t, step, out)
        for j, cfg in enumerate(cfgs):
            row = v[j * n : (j + 1) * n]
            want = _written_out_step(row, cfg, t, step)
            got = out[j * n : (j + 1) * n]
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(row)))


@pytest.mark.parametrize("rows", (1, 3))
@pytest.mark.parametrize("frame", tuple(FRAMES))
@pytest.mark.parametrize("model", MODELS)
def test_zero_state_is_exact(model, frame, rows):
    cfgs = _cfgs(model, frame, CHIS[rows])
    dt = solver.stable_dt(cfgs[0])
    kern = solver._Kernel(cfgs)
    v = np.zeros(len(cfgs) * cfgs[0].grid.n)
    out = np.full_like(v, np.nan)
    for t, step in ((0.0, dt), (2.3, dt / 3.0)):
        assert kern.step_into(v, t, step, out) is None
        assert out.tobytes() == v.tobytes()  # +0.0 everywhere, bit for bit


@pytest.mark.parametrize("rows", (1, 3))
@pytest.mark.parametrize("frame", tuple(FRAMES))
@pytest.mark.parametrize("model", ("local_u", "fkpp"))
def test_one_state_is_exact(model, frame, rows):
    cfgs = _cfgs(model, frame, CHIS[rows])
    n = cfgs[0].grid.n
    dt = solver.stable_dt(cfgs[0])
    kern = solver._Kernel(cfgs)
    v = np.ones(len(cfgs) * n)
    out = np.empty_like(v)
    for t in (0.0, 0.37, 2.3, 17.0, 400.0):
        for step in (dt, dt / 3.0, dt * 0.999):
            assert kern.step_into(v, t, step, out) is None
            rows_out = out.reshape(len(cfgs), n)
            assert np.all(rows_out[:, :-1] == 1.0)
            assert np.all(rows_out[:, -1] == 0.0)  # the pinned right edge


class _PoisonAtHalf(TraceRecorder):
    """Recorder that writes NaN into the field it watches once t >= 0.5."""

    def __call__(self, state, cfg):
        super().__call__(state, cfg)
        if state.t >= 0.5:
            state.field[40] = math.nan


def _columns(rec):
    return np.array([rec.t, rec.x_front, rec.moment, rec.min_defect, rec.weighted_sup, rec.rh_residual])


@pytest.mark.parametrize("model", MODELS)
def test_log_shifted_batch_equals_standalone_runs(model):
    frame = solver.Frame.log_shifted(2.0, r=1.5, t0=1.0)
    cfgs = [solver.make_config(model, chi=chi, dx=0.1, t_end=1.0, x_left=-10.0, width=30.0,
                               frame=frame, left_pad=5.0, right_pad=10.0)
            for chi in (0.3, 1.0, 2.0)]
    recorders = [TraceRecorder(), _PoisonAtHalf(), TraceRecorder()]
    finals = solver.run_batch(cfgs, [[rec] for rec in recorders], trace_every=0.25)
    assert isinstance(finals[1], RuntimeError)
    assert "non-finite" in str(finals[1])
    for j in (0, 2):
        alone_rec = TraceRecorder()
        alone = solver.run(cfgs[j], [alone_rec], trace_every=0.25)
        assert finals[j].field.tobytes() == alone.field.tobytes()
        assert (finals[j].t, finals[j].x_left, finals[j].clip_count) == (alone.t, alone.x_left, alone.clip_count)
        assert np.array_equal(_columns(recorders[j]), _columns(alone_rec), equal_nan=True)


def test_window_keeps_the_front_when_the_left_pad_cannot_hold():
    # pads of 30 + 5 in a window of 25: the right pad wins, and the window
    # must not walk left off the front, leaving a "front" pinned to the
    # right edge
    cfg = solver.make_config("local_u", chi=0.5, dx=0.1, t_end=3.0, x_left=-10.0, width=25.0,
                             left_pad=30.0, right_pad=5.0)
    seen = []

    def window(state, cfg):
        f = solver.front_position(solver.front_field(state.field, cfg), state.x_left, cfg)
        seen.append((state.t, state.x_left, f))

    rec = TraceRecorder()
    final = solver.run(cfg, [rec, window], trace_every=0.25)
    width = cfg.grid.width
    for t, x_left, f in seen:
        assert f is not None and x_left < f < x_left + width
        if t > 0.0:
            # checked every 0.25, between which the front moves well under 1
            assert x_left + width - f > cfg.window.right_pad - 1.0
    fronts = np.asarray(rec.x_front)
    assert np.all(np.diff(fronts[4:]) > 0.0)  # advancing once formed
    assert fronts[-1] > -5.0
    assert final.x_left > -30.0
