"""advance(a); advance(b) is advance(a + b) while nothing writes the rows
between the two calls: the kernel keeps its bands, its proof schedule and
what its buffers hold across the call boundary, so the same steps give
the same bytes and hold the same nodes however they are split into calls.
A write to the rows, found by comparing them with what the last call left,
makes the next call prove its bands again, and a step under new weights
proves nothing from a step under the old ones."""

import numpy as np
import pytest

from gogrow import solver

FRAMES = {
    "lab": solver.Frame.lab(),
    "moving": solver.Frame.moving(2.0),
    "log_shifted": solver.Frame.log_shifted(2.0, r=1.5, t0=1.0),
}
STEPS = 420  # a multiple of every split below


def _batch(model, frame):
    """Two rows with their own chi, each in its own slice: Heaviside data
    at dx = 0.1, or for P the closed-form wave at chi = 0.3 and 0.5 on the
    benchmark's wave window, whose left part a frame moving at c* = 2
    leaves unchanged."""
    if model == "nonlocal_p":
        return [solver.make_config(model, chi=chi, dx=0.02, x_left=-15.0, width=32.0, frame=frame,
                                   init="traveling_wave") for chi in (0.3, 0.5)]
    amplitudes = (1.5, 2.0) if model == "nonlocal_rho" else (1.0, 1.0)
    return [solver.make_config(model, chi=chi, dx=0.1, x_left=-25.0, width=30.0, frame=frame, amplitude=amp)
            for chi, amp in zip((0.5, 2.0), amplitudes)]


def _stepped(cfgs, calls, full=False):
    """A kernel of cfgs after STEPS steps from t = 0, taken in calls of
    `calls` steps; full: one that steps every node."""
    kern = solver._Kernel(cfgs, [solver.make_state(cfg).field for cfg in cfgs])
    if full:
        kern._find = lambda: None
    dt = solver.stable_dt(cfgs[0])
    for k0 in range(0, STEPS, calls):
        assert kern.advance([k * dt for k in range(k0, k0 + calls)], dt) == (calls, None)
    return kern


@pytest.mark.parametrize("frame", sorted(FRAMES))
@pytest.mark.parametrize("model", ["local_u", "nonlocal_p", "nonlocal_rho", "fkpp"])
def test_split_calls_equal_one_call(model, frame):
    cfgs = _batch(model, FRAMES[frame])
    one = _stepped(cfgs, STEPS)
    assert one.cur.tobytes() == _stepped(cfgs, STEPS, full=True).cur.tobytes()
    for calls in (1, 7, 42):
        split = _stepped(cfgs, calls)
        assert split.cur.tobytes() == one.cur.tobytes()
        assert split.held == one.held
    # P grows on the left in the lab frame, and changes its weights every
    # step in the log-shifted one: there nothing is held
    assert (one.held > 0) is not (model == "nonlocal_p" and frame != "moving")


@pytest.mark.parametrize("model", ["local_u", "nonlocal_p", "nonlocal_rho"])
def test_a_write_between_calls_is_proved_again(model):
    # one ulp more at a held node in both twins: the banded twin must see
    # the write and step that node, as the full twin does
    (cfg,) = _batch(model, FRAMES["moving"])[:1]
    dt = solver.stable_dt(cfg)
    kern, full = (solver._Kernel([cfg], [solver.make_state(cfg).field]) for _ in range(2))
    full._find = lambda: None
    for k0 in (0, 300):
        for each in (kern, full):
            assert each.advance([k * dt for k in range(k0, k0 + 300)], dt) == (300, None)
        assert kern.cur.tobytes() == full.cur.tobytes()
        node = kern._start[0] // 2
        assert node > 0  # held
        for each in (kern, full):
            each.cur[node] = np.nextafter(each.cur[node], np.inf)
    for each in (kern, full):
        assert each.advance([k * dt for k in range(600, 900)], dt) == (300, None)
    assert kern.cur.tobytes() == full.cur.tobytes()


@pytest.mark.parametrize("first", [1, 2])
def test_a_step_under_other_weights_proves_nothing(first):
    # 120 nodes 60 and 61 ulp below 1 in turn, then a front: a step of
    # length dt leaves them as they are, one of 3 dt moves them.  After
    # `first` steps of dt, the next call steps at 3 dt; the stretch that the
    # dt steps left unchanged (its proof due at the second step of the
    # run) must not be held
    cfg = solver.make_config("local_u", chi=0.5, dx=0.1, x_left=-25.0, width=30.0)
    dt = solver.stable_dt(cfg) / 3.0
    row = solver.make_state(cfg).field
    row[:120] = 1.0 - np.where(np.arange(120) % 2, 61.0, 60.0) * 2.0**-53
    kern, full = (solver._Kernel([cfg], [row]) for _ in range(2))
    full._find = lambda: None
    for each in (kern, full):
        assert each.advance([k * dt for k in range(first)], dt) == (first, None)
    assert kern.cur[:100].tobytes() == row[:100].tobytes()  # the stretch is unchanged
    for each in (kern, full):
        assert each.advance([first * dt + k * 3.0 * dt for k in range(3)], 3.0 * dt) == (3, None)
    assert kern.cur[:100].tobytes() != row[:100].tobytes()
    assert kern.cur.tobytes() == full.cur.tobytes()
