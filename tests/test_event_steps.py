"""run_batch steps from event to event: a recentre, an emit, or the last
step, which alone is shortened to end at t_end.  These tests write the
per-step rule out again and check that the events fall on the same steps
and that a run equals the same single steps taken one by one."""

import math

import pytest

from gogrow import solver


def _per_step_rule(t_end, dt, trace_every, recheck):
    """Emit times and recentre steps of a run, decided step by step: after
    step k, recentre when k + 1 is a multiple of recheck, and emit at the
    last step or once (k + 1) dt reaches the next multiple of trace_every."""
    n_steps = max(1, int(math.ceil(t_end / dt - 1e-12)))
    emits, recentres = [(0, 0.0)], []
    next_emit = trace_every
    for k in range(n_steps):
        t_new = t_end if k == n_steps - 1 else (k + 1) * dt
        if (k + 1) % recheck == 0:
            recentres.append(k + 1)
        if k == n_steps - 1:
            emits.append((k + 1, t_end))
        elif t_new >= next_emit - 1e-9:
            emits.append((k + 1, t_new))
            while next_emit <= t_new + 1e-9:
                next_emit += trace_every
    return n_steps, emits, recentres


def _cfg(dx, t_end, model="local_u", chi=0.5):
    return solver.make_config(model, chi=chi, dx=dx, t_end=t_end, x_left=-25.0, width=30.0,
                              left_pad=5.0, right_pad=10.0)


class _Snapshots:
    def __init__(self):
        self.seen = []

    def __call__(self, state, cfg):
        self.seen.append((state.t, state.x_left, state.clip_count, state.field.tobytes()))


def _single_steps(cfg, trace_every):
    """The run of cfg by solver.step calls, one per step, the last one
    shortened, with recentring and snapshots by the per-step rule."""
    dt = solver.stable_dt(cfg)
    recheck = max(1, int(round(0.25 / dt)))
    n_steps, emits, recentres = _per_step_rule(cfg.t_end, dt, trace_every, recheck)
    snaps = _Snapshots()
    state = solver.make_state(cfg)
    snaps(state, cfg)
    for k in range(n_steps):
        h = dt if k < n_steps - 1 else cfg.t_end - (n_steps - 1) * dt
        state = solver.step(solver.SimState(t=k * dt, x_left=state.x_left, field=state.field,
                                            clip_count=state.clip_count), cfg, h)
        if k + 1 in recentres:
            state.x_left = solver._maybe_recenter(state.field, state.x_left, cfg)
        for step, t in emits:
            if step == k + 1:
                snaps(solver.SimState(t=t, x_left=state.x_left, field=state.field,
                                      clip_count=state.clip_count), cfg)
    return state, snaps.seen


@pytest.mark.parametrize("model", ["local_u", "nonlocal_p", "nonlocal_rho", "fkpp"])
def test_run_ends_at_t_end_with_a_short_last_step(model):
    cfg = _cfg(0.1, 1.3013, model=model)
    dt = solver.stable_dt(cfg)
    n_steps = math.ceil(cfg.t_end / dt)
    short = cfg.t_end - (n_steps - 1) * dt
    assert 0.0 < short < 0.9 * dt  # t_end is not a multiple of dt
    snaps = _Snapshots()
    final = solver.run(cfg, [snaps], trace_every=0.3)
    want, want_seen = _single_steps(cfg, trace_every=0.3)
    assert final.t == cfg.t_end and snaps.seen[-1][0] == cfg.t_end
    assert final.x_left != cfg.grid.x_left  # the window moved
    assert (final.x_left, final.clip_count) == (want.x_left, want.clip_count)
    assert final.field.tobytes() == want.field.tobytes()
    assert [s[:3] for s in snaps.seen] == [s[:3] for s in want_seen]
    assert snaps.seen == want_seen


def test_batch_members_end_as_their_single_steps():
    cfgs = [_cfg(0.1, 0.7311, chi=chi) for chi in (0.5, 2.0)]
    finals = solver.run_batch(cfgs, [[], []], trace_every=0.25)
    for cfg, final in zip(cfgs, finals):
        want, _ = _single_steps(cfg, trace_every=0.25)
        assert final.t == cfg.t_end
        assert final.field.tobytes() == want.field.tobytes()


EVENT_CASES = [
    # dx, t_end, trace_every
    (0.1, 0.5013, 0.1),
    (0.1, 1.0, 0.25),  # emits and recentres on the same steps
    (0.15, 0.999, 1.0 / 3.0),
    (0.2, 2.0, 0.3),
    (0.2, 1.7, 0.0137),
    (0.1, 0.05, 1e-4),  # shorter than dt: an emit after every step
    (0.15, 0.8, 5.0),  # longer than the run: only t = 0 and t_end
    (0.2, 0.01, 0.5),  # fewer steps than a recentre interval
]


@pytest.mark.parametrize("dx,t_end,trace_every", EVENT_CASES)
def test_events_fall_on_the_steps_of_the_per_step_rule(monkeypatch, dx, t_end, trace_every):
    steps = [0]
    recentred = []

    class Counting(solver._Kernel):
        def advance(self, times, dt):
            taken, guarded = super().advance(times, dt)
            steps[0] += taken
            return taken, guarded

    recenter = solver._maybe_recenter

    def counted(field, x_left, cfg):
        recentred.append(steps[0])
        return recenter(field, x_left, cfg)

    monkeypatch.setattr(solver, "_Kernel", Counting)
    monkeypatch.setattr(solver, "_maybe_recenter", counted)
    cfg = _cfg(dx, t_end)
    dt = solver.stable_dt(cfg)
    emitted = []
    solver.run(cfg, [lambda state, _: emitted.append((steps[0], state.t))], trace_every=trace_every)
    n_steps, emits, recentres = _per_step_rule(t_end, dt, trace_every, max(1, int(round(0.25 / dt))))
    assert steps[0] == n_steps
    assert emitted == emits
    assert recentred == recentres


@pytest.mark.parametrize("bad_step", [130, 131])  # an even and an odd count into the interval
def test_guard_trip_mid_interval_resumes_on_the_next_step(monkeypatch, bad_step):
    # NaN reaches node 40 of the chi = 2 row just before step bad_step,
    # between the first recentre and the second
    cfgs = [_cfg(0.1, 1.1, chi=chi) for chi in (0.5, 2.0)]
    n = cfgs[0].grid.n
    dt = solver.stable_dt(cfgs[0])
    recheck = max(1, int(round(0.25 / dt)))
    assert recheck < bad_step < 2 * recheck - 1

    class Poisoned(solver._Kernel):
        def advance(self, times, dt):
            def poisoned():
                for t in times:
                    if t == bad_step * dt and self.rows == 2:
                        # the step reads one buffer and writes every node of the other
                        self.cur[n + 40] = self.nxt[n + 40] = math.nan
                    yield t

            return super().advance(poisoned(), dt)

    alone = solver.run(cfgs[0], trace_every=0.5)
    monkeypatch.setattr(solver, "_Kernel", Poisoned)
    snaps = [_Snapshots(), _Snapshots()]
    finals = solver.run_batch(cfgs, [[snaps[0]], [snaps[1]]], trace_every=0.5)
    assert str(finals[1]) == f"step {bad_step} at t = {bad_step * dt:.6g} failed: non-finite field value produced"
    assert [s[0] for s in snaps[1].seen] == [0.0]
    assert [s[0] for s in snaps[0].seen] == [t for _, t in _per_step_rule(1.1, dt, 0.5, recheck)[1]]
    assert finals[0].field.tobytes() == alone.field.tobytes()
    assert finals[0].x_left == alone.x_left
