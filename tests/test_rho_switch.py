"""The density model's reaction R = [P < 1] rho keeps each row's switch
node from step to step and confirms it from one tail sum.  Every run must
give the bytes of the same run with that shortcut off, which takes the
full sequential suffix sum on every step; states whose tail mass sits at
or within the roundoff margin of 1 must be refused."""

import math

import numpy as np
import pytest

from gogrow import solver

FRAMES = {
    "lab": solver.Frame.lab(),
    "moving": solver.Frame.moving(2.0),
    "log_shifted": solver.Frame.log_shifted(2.0, r=0.5, t0=1.0),
}
BATCH_CHIS = (0.5, 1.0, 2.0)


def _shortcut_off(monkeypatch):
    monkeypatch.setattr(solver._Kernel, "_locate", lambda self, row, k: None)


class _Snapshots:
    """Observer that keeps the bytes of every state it sees."""

    def __init__(self):
        self.seen = []

    def __call__(self, state, cfg):
        self.seen.append((state.t, state.x_left, state.clip_count, state.field.tobytes()))


def _cfgs(frame, chis, t_end=6.0):
    return [solver.make_config("nonlocal_rho", chi=chi, dx=0.1, t_end=t_end, x_left=-10.0, width=30.0,
                               frame=FRAMES[frame], left_pad=5.0, right_pad=15.0)
            for chi in chis]


def _run(cfgs, observers):
    if len(cfgs) == 1:
        try:
            return [solver.run(cfgs[0], observers[0], trace_every=0.25)]
        except RuntimeError as err:
            return [err]
    return solver.run_batch(cfgs, observers, trace_every=0.25)


def _outcome(finals, snaps):
    """What a run did, comparable across runs: final bytes or error text,
    and every observed state."""
    return [
        (str(f) if isinstance(f, RuntimeError) else (f.t, f.x_left, f.clip_count, f.field.tobytes()), s.seen)
        for f, s in zip(finals, snaps)
    ]


def _observed(cfgs, extra):
    snaps = [_Snapshots() for _ in cfgs]
    finals = _run(cfgs, [[s, *extra(j)] for j, s in enumerate(snaps)])
    return _outcome(finals, snaps)


def _both_ways(monkeypatch, kernels, cfgs, extra=lambda j: []):
    """The outcome of the runs with the shortcut on and with it off, and
    the fallbacks of the first."""
    fast = _observed(cfgs, extra)
    fallbacks = sum(k.fallbacks for k in kernels)
    _shortcut_off(monkeypatch)
    return fast, _observed(cfgs, extra), fallbacks


@pytest.mark.parametrize("rows", (1, 3))
@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_runs_equal_the_full_suffix_sums(monkeypatch, kernels, frame, rows):
    cfgs = _cfgs(frame, BATCH_CHIS if rows == 3 else (0.5,))
    fast, full, fallbacks = _both_ways(monkeypatch, kernels, cfgs)
    assert fast == full
    steps = math.ceil(cfgs[0].t_end / solver.stable_dt(cfgs[0]))
    assert fallbacks < 0.05 * rows * steps  # the shortcut did the work
    if frame == "lab":
        # the window recentred, and the runs still agree
        assert all(seen[-1][1] > seen[0][1] for _, seen in fast)


@pytest.mark.parametrize("frame", ("lab", "moving"))
def test_dropped_member_equals_the_full_suffix_sums(monkeypatch, kernels, poison, frame):
    cfgs = _cfgs(frame, BATCH_CHIS, t_end=3.0)
    poison(1.0, 1.0)  # the chi = 1 member fails at its first step past t = 1
    fast, full, _ = _both_ways(monkeypatch, kernels, cfgs)
    assert fast == full
    assert "non-finite" in fast[1][0]
    assert not isinstance(fast[0][0], str) and not isinstance(fast[2][0], str)


class _Writer:
    """Observer that tries to write into every state it sees, far left of
    the front, and keeps the errors it gets."""

    def __init__(self):
        self.errors = []

    def __call__(self, state, cfg):
        try:
            state.field[5] = -float(np.sum(state.field)) - 1.0
        except ValueError as err:
            self.errors.append(err)


@pytest.mark.parametrize("rows", (1, 3))
def test_observers_read_a_read_only_state(rows):
    cfgs = _cfgs("lab", BATCH_CHIS if rows == 3 else (0.5,), t_end=2.0)
    writer = _Writer()
    watched = _observed(cfgs, lambda j: [writer] if j == rows - 1 else [])
    assert watched == _observed(cfgs, lambda j: [])
    assert len(writer.errors) == len(watched[-1][1])  # every write refused
    assert all("read-only" in str(err) for err in writer.errors)

    def write(state, cfg):
        state.field *= 1.0

    with pytest.raises(ValueError, match="read-only"):
        _run(cfgs, [[write] for _ in cfgs])


def _row(*edits):
    """rho = 1 on nodes 0..207 of a dx = 1/8 row, so dx times the suffix
    sum from node 200 is 1 exactly, with edits (node, value) applied."""
    v = np.zeros(241)
    v[:208] = 1.0
    for i, value in edits:
        v[i] = value
    return v


def _kernel(*rows):
    """A kernel of these rows, one chi each, and its step."""
    cfgs = [solver.make_config("nonlocal_rho", chi=chi, dx=0.125, x_left=-10.0, width=30.0)
            for chi in BATCH_CHIS[: len(rows)]]
    assert cfgs[0].grid.n == 241
    return solver._Kernel(cfgs, rows), solver.stable_dt(cfgs[0])


# tail masses from node 200 at 1 and a few ulps above and below it: all
# within eta = 4 (n + 2) 2^-53 of 1, so no tail sum may decide them
EDGE_ROWS = {
    "exactly_1": ((), 201),
    "just_above": (((200, 1.0 + 2.0**-45),), 201),
    "just_below": (((207, 1.0 - 2.0**-45),), 200),
}


@pytest.mark.parametrize("case", sorted(EDGE_ROWS))
def test_tail_mass_at_one_is_refused(case):
    edits, switch = EDGE_ROWS[case]
    v = _row(*edits)
    p = 0.125 * np.cumsum(v[::-1])[::-1]
    assert int(np.argmax(p < 1.0)) == switch
    assert abs(p[200] - 1.0) < 4.0 * (241 + 2) * 2.0**-53
    kern, dt = _kernel(v)
    kern.advance((0.0,), dt)  # no switch known: the full sums find it
    first = kern.cur.copy()
    assert (kern.fallbacks, kern.switch) == (1, [switch])
    for k in (switch - 1, switch, switch + 1):
        assert kern._locate(v, k) is None
    kern.cur[:] = v
    kern.advance((0.0,), dt)
    assert kern.fallbacks == 2
    assert kern.cur.tobytes() == first.tobytes()


def test_tail_mass_clear_of_one_is_accepted_per_row():
    # row 0 sits on the edge; the crossing of row 1 moves a node right
    # and that of row 2 a node left, each clear of 1 by 1/16
    first = [_row(), _row((201, 0.5)), _row((200, 1.5))]
    second = [_row(), _row((200, 2.0), (201, 0.5)), _row((201, 0.5))]
    kern, dt = _kernel(*first)
    kern.advance((0.0,), dt)
    assert (kern.fallbacks, kern.switch) == (3, [201, 200, 201])
    kern.cur[:] = np.concatenate(second)
    kern.advance((0.0,), dt)
    assert (kern.fallbacks, kern.switch) == (4, [201, 201, 200])
    ref, _ = _kernel(*second)
    ref.advance((0.0,), dt)
    assert kern.cur.tobytes() == ref.cur.tobytes()


def test_shortcut_taken_on_a_moving_wave(kernels):
    cfg = solver.make_config("nonlocal_rho", chi=0.5, dx=0.02, t_end=0.05, x_left=-15.0, width=32.0,
                             frame="moving", init="traveling_wave", left_pad=8.0, right_pad=8.0)
    solver.run(cfg, trace_every=cfg.t_end, recenter=False)
    assert len(kernels) == 1
    assert kernels[0].fallbacks == 1  # the first step only
    assert math.ceil(cfg.t_end / solver.stable_dt(cfg)) > 100  # and the shortcut all the rest
