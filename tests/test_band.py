"""The kernel steps only a band of each row, past the leading nodes that a
step provably leaves as they are: a constant run that the kernel's update
keeps, or a stretch that the call's first step left unchanged.  A run with
the band must equal the same run with every node stepped, bit for bit:
final fields, window origins, clip counts, errors and every observed
state."""

import numpy as np
import pytest

from gogrow import kernel, solver

FRAMES = {
    "lab": solver.Frame.lab(),
    "moving": solver.Frame.moving(2.0),
    "log_shifted": solver.Frame.log_shifted(2.0, r=1.5, t0=1.0),
}
# chi of each row, and the Heaviside amplitude of each row (the density
# model's plateau may sit at any height; the local ones rest only at 1)
BATCHES = {
    "single": ((0.5,), (1.0,)),
    "distinct_chi": ((0.5, 1.0, 2.0), (1.0, 1.0, 1.0)),
    "shared_chi": ((0.5, 0.5, 0.5), (1.0, 0.8, 0.6)),
}
RHO_AMPLITUDES = {"single": (1.5,), "distinct_chi": (1.0, 1.5, 2.0), "shared_chi": (1.5, 1.0, 2.0)}


class _Snapshots:
    def __init__(self):
        self.seen = []

    def __call__(self, state, cfg):
        self.seen.append((state.t, state.x_left, state.clip_count, state.field.tobytes()))


@pytest.fixture
def bands(monkeypatch):
    """(first stepped node, value of the skipped run) of every slice, each
    time the kernel builds its views."""
    seen = []
    leg = solver._Kernel._leg

    def spy(self, v, out):
        seen.append(tuple(zip(self._start, self._const)))
        return leg(self, v, out)

    monkeypatch.setattr(solver._Kernel, "_leg", spy)
    return seen


def _cfgs(model, frame, chis, amplitudes, t_end=1.3013, **kw):
    # t_end is not a multiple of dt, so the last step is short; the window
    # recentres every 0.25 with the pads below
    return [solver.make_config(model, chi=chi, dx=0.1, t_end=t_end, x_left=-25.0, width=30.0, frame=frame,
                               amplitude=amp, left_pad=5.0, right_pad=10.0, **kw)
            for chi, amp in zip(chis, amplitudes)]


def _outcome(cfgs, trace_every=0.3):
    snaps = [_Snapshots() for _ in cfgs]
    finals = solver.run_batch(cfgs, [[s] for s in snaps], trace_every=trace_every)
    return [
        (str(f) if isinstance(f, RuntimeError) else (f.t, f.x_left, f.clip_count, f.field.tobytes()), s.seen)
        for f, s in zip(finals, snaps)
    ]


def _full_rows(monkeypatch, cfgs, **kw):
    """The outcome of the same run with every node stepped."""
    with monkeypatch.context() as m:
        m.setattr(solver._Kernel, "_find", lambda self: None)
        return _outcome(cfgs, **kw)


@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("frame", sorted(FRAMES))
@pytest.mark.parametrize("model", ["local_u", "fkpp", "nonlocal_rho"])
def test_band_equals_full_rows(monkeypatch, bands, model, frame, batch):
    chis, amplitudes = BATCHES[batch]
    if model == "nonlocal_rho":
        amplitudes = RHO_AMPLITUDES[batch]
    cfgs = _cfgs(model, FRAMES[frame], chis, amplitudes)
    banded = _outcome(cfgs)
    assert any(s > 1 for slices in bands for s, _ in slices)  # some nodes were skipped
    assert banded == _full_rows(monkeypatch, cfgs)


def test_band_widens_as_the_plateau_recedes(bands):
    # a Heaviside front lags a frame at its own speed, so the plateau
    # behind it recedes through the band within each interval
    cfgs = _cfgs("local_u", solver.Frame.moving(2.0), (0.5,), (1.0,))
    _outcome(cfgs)
    firsts = [slices[0][0] for slices in bands if slices[0][0] > 1]
    assert any(b < a for a, b in zip(firsts, firsts[1:]))


def test_member_dropped_mid_run(monkeypatch, poison):
    # NaN at node 40 of the chi = 1 row after each emit from t = 0.6: that
    # member fails, the other two run to the end
    poison(1.0, 0.6)
    cfgs = _cfgs("local_u", solver.Frame.lab(), (0.5, 1.0, 2.0), (1.0, 1.0, 1.0))
    banded = _outcome(cfgs)
    assert [isinstance(final, str) for final, _ in banded] == [False, True, False]
    assert banded == _full_rows(monkeypatch, cfgs)


def test_weights_that_move_the_plateau_step_full_rows(monkeypatch, bands):
    # At cfl_sigma = 0.5, the chi = 0.5 weights in a frame at speed 2 move
    # a density plateau of 1.7 by an ulp: c + corr([c, c, c], wv) != c.
    # That row must step in full while its plateau is 1.7 (once it has
    # moved, the new value may be kept); the chi = 1 row, whose weights
    # keep 1.7, is banded.
    cfgs = _cfgs("nonlocal_rho", solver.Frame.moving(2.0), (0.5, 1.0), (1.7, 1.7), cfl_sigma=0.5)
    kern = solver._Kernel(cfgs, [solver.make_state(cfg).field for cfg in cfgs])
    kern._reweigh(solver.stable_dt(cfgs[0]), 2.0)
    assert [kern._keeps(j, 1.7) for j in range(2)] == [False, True]
    banded = _outcome(cfgs)
    assert not any(start > 1 and c == 1.7 for (start, c), _ in bands)
    assert any(start > 1 and c == 1.7 for _, (start, c) in bands)
    assert banded == _full_rows(monkeypatch, cfgs)



def test_find_keeps_a_band_only_while_it_fits():
    # a band in use stays while its first stepped node is inside the run
    # and fewer than 16 nodes left of the new start; else it moves there
    cfg = solver.make_config("local_u", chi=0.5, dx=0.1, x_left=-20.0, width=30.0)
    kern = solver._Kernel([cfg], [np.zeros(cfg.grid.n)])
    kern._reweigh(solver.stable_dt(cfg), 0.0)
    v = kern.cur
    starts = []
    for run in (200, 210, 216, 215, 214, 2):
        v[:run] = 1.0
        v[run:] = 0.5
        kern._find()
        starts.append(kern._start[0])
    assert starts == [199, 199, 215, 214, 213, 1]
    assert kern._const == [None]


def _runs_only(monkeypatch):
    """Bands from constant runs alone: the call's first step never proves
    the stretch it left unchanged."""
    find = solver._Kernel._find

    def runs(self):
        self._witness = False
        find(self)

    monkeypatch.setattr(solver._Kernel, "_find", runs)


def test_pulled_fronts_batch_holds_its_settled_region(monkeypatch, kernels):
    # the pulled_fronts sweep's batch at dx = 0.1: local_u, pulled,
    # pushmi-pullyu and pushed chi in the lab frame, recentring with pads
    # 18/60 on a window of 102; by t = 20 the rows behind the fronts
    # settle a few ulp below 1, where R is not 0
    cfgs = [solver.make_config("local_u", chi=chi, dx=0.1, t_end=20.0, x_left=-30.0, width=102.0,
                               frame=solver.Frame.lab(), left_pad=18.0, right_pad=60.0)
            for chi in (0.123, 0.456, 1.0, 2.0)]
    steps = []  # the nodes each step holds, counted from the bands
    local = kernel._Kernel._local

    def counted(self, v, r, mask):
        if v.size > 3:  # a step, not _keeps on [c, c, c]
            steps.append(sum(self._start) - len(self._start))
        local(self, v, r, mask)

    with monkeypatch.context() as m:
        m.setattr(kernel._Kernel, "_local", counted)
        banded = _outcome(cfgs, trace_every=0.5)
    (kern,) = kernels
    assert len(steps) == 10000 and kern.held == sum(steps)
    assert banded == _full_rows(monkeypatch, cfgs, trace_every=0.5)
    with monkeypatch.context() as m:
        _runs_only(m)
        _outcome(cfgs, trace_every=0.5)
    runs = kernels[-1]
    assert runs is not kern and kern.held > 1.5 * runs.held > 0


def _settled_row(t_end):
    # the pushed row of that batch at t_end: the nodes between its plateau
    # and the front have settled, and by t = 20 recentring has brought the
    # plateau, 8 ulp below 1, to the left edge
    cfg = solver.make_config("local_u", chi=2.0, dx=0.1, t_end=t_end, x_left=-30.0, width=102.0,
                             frame=solver.Frame.lab(), left_pad=18.0, right_pad=60.0)
    return cfg, solver.run(cfg).field


def _twins(cfgs, rows):
    """A kernel and one that steps every node, from the same rows."""
    full = solver._Kernel(cfgs, rows)
    full._find = lambda: None
    return solver._Kernel(cfgs, rows), full


def test_shifted_rows_are_proved_again():
    # a shift of the rows between two calls, by more than the margin, moves
    # the stretch that the first call saw unchanged: the next call must not
    # hold it where it was
    cfg, row = _settled_row(10.0)
    dt = solver.stable_dt(cfg)
    kern, full = _twins([cfg], [row])
    for k0, shift in ((0, 40), (100, -25), (200, 0)):
        times = [10.0 + k * dt for k in range(k0, k0 + 100)]
        for each in (kern, full):
            assert each.advance(times, dt) == (100, None)
        assert kern.cur.tobytes() == full.cur.tobytes()
        # the band held more than the run: the first step proved it
        assert kern._const == [None] and kern._start[0] > int(np.argmax(kern.cur != kern.cur[0]))
        for each in (kern, full):
            solver._shift_window(each.cur, shift, cfg.model)


def test_log_shifted_frame_holds_a_plateau_below_one():
    # the pushed row's plateau, 8 ulp below 1, has R(c) > 0, and the
    # log-shifted frame's weights change every step: the kernel's update of
    # [c, c, c] keeps c under each of them, so the run is held throughout
    _, row = _settled_row(20.0)
    cfg = solver.make_config("local_u", chi=2.0, dx=0.1, x_left=-30.0, width=102.0,
                             frame=solver.Frame.log_shifted(2.5, r=1.5, t0=1.0))
    dt = solver.stable_dt(cfg)
    kern, full = _twins([cfg], [row])
    c, r = 0.9999999999999982, np.empty(1)
    kern._reaction(kern, np.array([c]), r, None)
    assert row[0] == c and r[0] > 0.0
    times = [20.0 + k * dt for k in range(200)]
    for each in (kern, full):
        assert each.advance(times, dt) == (200, None)
    assert kern.cur.tobytes() == full.cur.tobytes()
    run = int(np.argmax(row != c))
    assert kern._const == [c] and kern.held >= 200 * (run - 2 - 16)
