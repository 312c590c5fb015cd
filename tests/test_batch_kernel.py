"""One step of B rows in the flat batch kernel equals B single steps bit
for bit: the per-row suffix sums of the density model, the left edge of
the P model, per-row chi in the lab or a moving frame, and every guard,
including rows poisoned with NaN, infinity, undershoot or overshoot."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gogrow import solver  # noqa: E402

MODELS = ("local_u", "nonlocal_p", "nonlocal_rho", "fkpp")


def _row_fields(model, rng, n):
    """A rough random field in the range of the model's initial data."""
    x = np.linspace(0.0, 1.0, n)
    if model == "nonlocal_p":
        rho = rng.uniform(0.0, 3.0, n)
        return 0.1 * np.cumsum(rho[::-1])[::-1]
    if model == "nonlocal_rho":
        return rng.uniform(0.0, 2.0, n) * (x < rng.uniform(0.2, 1.0))
    return np.clip(rng.uniform(-0.5, 1.5, n), 0.0, 1.0)


POISON = (None, math.nan, math.inf, -1e-13, -1e-3, 1.5)


@settings(max_examples=120, deadline=None)
@given(
    model=st.sampled_from(MODELS),
    frame=st.sampled_from([solver.Frame.lab(), solver.Frame.moving(2.5)]),
    chis=st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0, 1.5, 2.5]), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    poison=st.lists(st.tuples(st.sampled_from(POISON), st.integers(0, 240)), min_size=4, max_size=4),
    t=st.floats(0.0, 50.0),
)
def test_kernel_rows_equal_single_steps(model, frame, chis, seed, poison, t):
    cfgs = [solver.make_config(model, chi=chi, dx=0.1, x_left=-10.0, width=24.0, frame=frame)
            for chi in chis]
    assert len({solver.batch_key(cfg) for cfg in cfgs}) == 1
    n = cfgs[0].grid.n
    rng = np.random.default_rng(seed)
    rows = [_row_fields(model, rng, n) for _ in cfgs]
    for row, (value, i) in zip(rows, poison):
        if value is not None:
            row[i] = value
    dt = solver.stable_dt(cfgs[0])
    kern = solver._Kernel(cfgs, rows)
    with np.errstate(invalid="ignore"):  # inf - inf in a poisoned row
        _, guarded = kern.advance((t,), dt)
    for j, (cfg, row) in enumerate(zip(cfgs, rows)):
        batched = 0 if guarded is None else guarded[j]
        try:
            with np.errstate(invalid="ignore"):
                alone = solver.step(solver.SimState(t=t, x_left=-10.0, field=row), cfg, dt)
        except RuntimeError as err:
            assert str(err) == f"step at t = {t:.6g} failed: {batched}"
            continue
        assert batched == alone.clip_count
        assert kern.cur[j * n : (j + 1) * n].tobytes() == alone.field.tobytes()
