"""The kernel steps only a band of each row, past the leading nodes that a
step provably leaves as they are: a stretch that the last step, under the
same weights, left unchanged.  A run with the band must equal the same
run with every node stepped, bit for bit: final fields, window origins,
clip counts, errors and every observed state.  The log-shifted frame,
whose weights change on every step, holds nothing."""

import math

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
    """The first stepped node of every row, each time the kernel builds its
    views."""
    seen = []
    leg = solver._Kernel._leg

    def spy(self, v, out):
        seen.append(tuple(self._start))
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
def test_band_equals_full_rows(monkeypatch, kernels, model, frame, batch):
    chis, amplitudes = BATCHES[batch]
    if model == "nonlocal_rho":
        amplitudes = RHO_AMPLITUDES[batch]
    cfgs = _cfgs(model, FRAMES[frame], chis, amplitudes)
    banded = _outcome(cfgs)
    held = sum(kern.held for kern in kernels)
    # no step of the log-shifted frame proves the next
    assert held == 0 if frame == "log_shifted" else held > 0
    assert banded == _full_rows(monkeypatch, cfgs)


@pytest.mark.parametrize("frame", ["lab", "moving"])
def test_rows_that_share_chi_each_hold_their_plateau(monkeypatch, bands, frame):
    # rows of equal chi step as rows of their own: a density plateau rests
    # at any height, so every row holds nodes, not only the first
    chis, _ = BATCHES["shared_chi"]
    cfgs = _cfgs("nonlocal_rho", FRAMES[frame], chis, RHO_AMPLITUDES["shared_chi"])
    banded = _outcome(cfgs)
    assert bands and all(len(starts) == len(cfgs) for starts in bands)
    assert all(any(starts[j] > 1 for starts in bands) for j in range(len(cfgs)))
    assert banded == _full_rows(monkeypatch, cfgs)


def test_band_widens_as_the_plateau_recedes(bands):
    # a Heaviside front lags a frame at its own speed, so the plateau
    # behind it recedes through the band within each interval
    cfgs = _cfgs("local_u", solver.Frame.moving(2.0), (0.5,), (1.0,))
    _outcome(cfgs)
    firsts = [starts[0] for starts in bands if starts[0] > 1]
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
    # a density plateau of 1.7 by an ulp, and the chi = 1 weights keep it.
    # The first proof, that step, holds the chi = 1 row's plateau and
    # nothing of the chi = 0.5 row's.
    cfgs = _cfgs("nonlocal_rho", solver.Frame.moving(2.0), (0.5, 1.0), (1.7, 1.7), cfl_sigma=0.5)
    kern = solver._Kernel(cfgs, [solver.make_state(cfg).field for cfg in cfgs])
    assert kern.advance((0.0,), solver.stable_dt(cfgs[0])) == (1, None)
    assert [row[1] == 1.7 for row in kern.cur.reshape(2, -1)] == [False, True]
    banded = _outcome(cfgs)
    first = next(starts for starts in bands if max(starts) > 1)
    assert first[0] == 1 and first[1] > 1
    assert banded == _full_rows(monkeypatch, cfgs)


def _pulled_fronts_batch(**kw):
    # the pulled_fronts sweep's batch at dx = 0.1: local_u, pulled,
    # pushmi-pullyu and pushed chi in the lab frame, recentring with pads
    # 18/60 on a window of 102
    return [solver.make_config("local_u", chi=chi, dx=0.1, t_end=20.0, x_left=-30.0, width=102.0,
                               frame=solver.Frame.lab(), left_pad=18.0, right_pad=60.0, **kw)
            for chi in (0.123, 0.456, 1.0, 2.0)]


def _banded_steps(monkeypatch, kernels, cfgs):
    """The run's outcome, checked against full rows, and its kernel, whose
    held count is checked against the nodes each step holds."""
    steps = []  # the nodes each step holds, counted from the bands
    local = kernel._Kernel._local

    def counted(self, v, r, mask):
        steps.append(sum(self._start) - len(self._start))
        local(self, v, r, mask)

    with monkeypatch.context() as m:
        m.setattr(kernel._Kernel, "_local", counted)
        banded = _outcome(cfgs, trace_every=0.5)
    (kern,) = kernels
    assert len(steps) == math.ceil(cfgs[0].t_end / solver.stable_dt(cfgs[0])) and kern.held == sum(steps)
    assert banded == _full_rows(monkeypatch, cfgs, trace_every=0.5)
    return banded, kern


def test_pulled_fronts_batch_holds_its_settled_region(monkeypatch, kernels):
    # at cfl_sigma = 0.4, by t = 20 the rows behind the fronts settle a few
    # ulp below 1, where R is not 0, and the steps leave them unchanged
    banded, kern = _banded_steps(monkeypatch, kernels, _pulled_fronts_batch(cfl_sigma=0.4))
    row = np.frombuffer(banded[-1][0][3])
    assert row[0] < 1.0 and kern.held > 0


def test_pulled_fronts_batch_at_the_default_step(monkeypatch, kernels):
    # at the default step the pushed row's plateau settles at exactly 1,
    # which every step keeps
    banded, kern = _banded_steps(monkeypatch, kernels, _pulled_fronts_batch())
    row = np.frombuffer(banded[-1][0][3])
    assert row[0] == 1.0 and kern.held > 0


def _settled_row(t_end):
    # the pushed row of that batch at t_end, stepped at cfl_sigma = 0.4: the
    # nodes between its plateau and the front have settled, and by t = 20
    # recentring has brought the plateau, 8 ulp below 1, to the left edge;
    # the ulp count is a roundoff value of that step
    cfg = solver.make_config("local_u", chi=2.0, dx=0.1, t_end=t_end, x_left=-30.0, width=102.0,
                             frame=solver.Frame.lab(), left_pad=18.0, right_pad=60.0, cfl_sigma=0.4)
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
        # the band held more than the run of the row's left value
        assert kern._start[0] > int(np.argmax(kern.cur != kern.cur[0]))
        for each in (kern, full):
            solver._shift_window(each.cur, shift, cfg.model)


def _waves(model, chis, frame="moving", t_end=0.5):
    # the benchmark's wave_refinement window at dx = 0.02: the closed-form
    # wave of each row, in the frame moving at c*(chi) or log-shifted from
    # it; steps leave the left part of P's wave unchanged in its moving frame
    return [solver.make_config(model, chi=chi, dx=0.02, t_end=t_end, x_left=-15.0, width=32.0,
                               frame=frame, init="traveling_wave", left_pad=8.0, right_pad=8.0)
            for chi in chis]


@pytest.mark.parametrize("chis", [(0.3,), (2.0,), (0.0, 0.5, 1.0)])
def test_p_wave_holds_its_unchanged_left_part(monkeypatch, kernels, chis):
    # B = 1 at a pulled and a pushed chi, and criterion 03's batch, whose
    # rows share c* = 2 and so the frame
    cfgs = _waves("nonlocal_p", chis)
    banded = _outcome(cfgs, trace_every=0.1)
    assert sum(kern.held for kern in kernels) > 0
    assert banded == _full_rows(monkeypatch, cfgs, trace_every=0.1)


def test_p_in_the_lab_frame_holds_nothing(monkeypatch, kernels):
    # P grows on the left, so no node of a lab-frame run is ever unchanged
    cfgs = _cfgs("nonlocal_p", solver.Frame.lab(), (0.5, 1.0, 2.0), (1.0, 1.0, 1.0))
    banded = _outcome(cfgs)
    assert kernels and sum(kern.held for kern in kernels) == 0
    assert banded == _full_rows(monkeypatch, cfgs)


def test_a_row_without_a_band_proves_one_later_in_the_call(monkeypatch):
    # the first step of a P wave moves node 0 onto its linear rule, so the
    # proof it gives holds nothing; a later proof, 64 steps on, does
    (cfg,) = _waves("nonlocal_p", (0.3,))
    dt = solver.stable_dt(cfg)
    proofs = []  # (steps taken, first stepped node) at each proof
    steps = [0]  # the steps the banded twin has taken
    find, ramp = kernel._Kernel._find, kernel._Kernel._ramp

    def seen(self):
        find(self)
        proofs.append((steps[0], self._start[0]))

    def stepped(self, v, r, mask):
        steps[0] += self is kern
        ramp(self, v, r, mask)

    monkeypatch.setattr(kernel._Kernel, "_find", seen)
    monkeypatch.setattr(kernel._Kernel, "_ramp", stepped)
    kern, full = _twins([cfg], [solver.make_state(cfg).field])
    times = [k * dt for k in range(1000)]
    for each in (kern, full):
        assert each.advance(times, dt) == (1000, None)
    assert kern.cur.tobytes() == full.cur.tobytes()
    assert proofs[0] == (1, 1)
    assert [taken for taken, _ in proofs[:3]] == [1, 65, 129] and proofs[-1][1] > 1
    assert kern.held > 0


def test_shifted_p_rows_are_proved_again():
    # a shift between two calls writes new values into the stretch that the
    # last call held, and P's left edge takes the linear extension: each
    # call must prove its band again
    (cfg,) = _waves("nonlocal_p", (0.3,))
    dt = solver.stable_dt(cfg)
    kern, full = _twins([cfg], [solver.make_state(cfg).field])
    for k0, shift in ((0, -40), (300, 25), (600, -3), (900, 0)):
        times = [k * dt for k in range(k0, k0 + 300)]
        for each in (kern, full):
            assert each.advance(times, dt) == (300, None)
        assert kern.cur.tobytes() == full.cur.tobytes()
        for each in (kern, full):
            solver._shift_window(each.cur, shift, cfg.model)
    assert kern.held > 0


@pytest.mark.parametrize("model", ["local_u", "nonlocal_p"])
def test_log_shifted_waves_hold_nothing(monkeypatch, kernels, model):
    # the log-shifted frame changes its weights every step, so no step
    # repeats the weights of the one before and none proves a band, not
    # even of the local wave's plateau at exactly 1
    cfgs = _waves(model, (0.0, 0.5, 1.0), frame="log_shifted")
    banded = _outcome(cfgs, trace_every=0.1)
    assert kernels and sum(kern.held for kern in kernels) == 0
    assert banded == _full_rows(monkeypatch, cfgs, trace_every=0.1)
