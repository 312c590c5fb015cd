"""A call of the kernel proves its bands from its own first step, which is
a full one, and only its weights, its switch nodes and its count of held
node-steps outlive the call.  So advance(a); advance(b) gives the bytes
of advance(a + b), though not the same held count; a write into either
buffer between two calls is stepped again; and a step under new weights
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
    """Two rows with their own chi: Heaviside data at dx = 0.1, or for P
    the closed-form wave at chi = 0.3 and 0.5 on the benchmark's wave
    window, whose left part a frame moving at c* = 2 leaves unchanged."""
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
        # each call proves its bands from its own first step, a full one,
        # so calls of one step hold nothing
        assert (split.held > 0) is (one.held > 0 and calls > 1)
    # the log-shifted frame changes its weights every step, and P grows on
    # the left in the lab frame: there nothing is held
    assert (one.held > 0) is (frame == "moving" or frame == "lab" and model != "nonlocal_p")


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
    # and into nxt, which the next step writes in full
    node = kern._start[0] // 2
    assert node > 0
    for each in (kern, full):
        each.nxt[node] = np.nextafter(each.nxt[node], np.inf)
        assert each.advance([900 * dt], dt) == (1, None)
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
