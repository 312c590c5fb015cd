"""The kernel steps only a band of each row, past the leading run of nodes
that a step would leave as they are.  A run with the band must equal the
same run with every node stepped, bit for bit: final fields, window
origins, clip counts, errors and every observed state."""

import numpy as np
import pytest

from gogrow import solver

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
