"""The default step keeps the scheme monotone on every acceptance grid.

With lam = dt/dx^2, d = dt c_frame/2dx and m = dt chi/2dx, one step maps
node i to

    v_i (1 - 2 lam) + dt R(v_i) + (lam - d) v_{i-1} + (lam + d) v_{i+1}
        + m (A(v_{i-1}) - A(v_{i+1})),      A = v - R,

so its weights on v_{i-1}, v_i and v_{i+1} are lam - d + m (1 - R'),
1 - 2 lam + dt R' and lam + d - m (1 - R'), each at the R' of its node.
The neighbour weights are linear in R', so their least values lie at the
extremes of R'.  Their signs do not depend on dt: they are the mesh-Peclet
conditions that SimConfig checks.  At the diffusion limit 2 lam = sigma,
so the centre weight is 1 - sigma + dt min R', and the comparison
principle holds up to sigma = 1 - dt max(-R'), about 0.99 on these grids.

nonlocal_rho is not covered: its R = [P < 1] rho switches on a mask set by
the suffix sums of the whole row, so a step is not a three-point map.
"""

import numpy as np
import pytest

from gogrow import solver

# (model, chis, dxs, frame, extra make_config arguments) of the runs that
# tests/test_acceptance.py makes, by criterion
GRIDS = [
    ("local_u", (0.0, 0.5, 1.0, 2.0), (0.05,), "lab", {}),  # 01, 02, 09
    ("local_u", (0.5, 1.0, 2.0), (0.04, 0.02), "lab", {}),  # 05
    ("local_u", (1.0,), (0.05,), "lab", dict(epsilon_mode="fixed", epsilon=0.1)),  # 07
    ("local_u", (1.0,), (0.01,), "lab", {}),  # 08
    ("fkpp", (0.0,), (0.05,), "lab", {}),  # 00, 11
    ("nonlocal_p", (0.0,), (0.05,), "lab", {}),  # 11
    ("nonlocal_p", (0.0, 0.5, 1.0, 2.0), (0.02, 0.01), "moving", {}),  # 03
    ("nonlocal_p", (0.5, 1.0, 2.0), (0.04, 0.02), "lab", {}),  # 05
    ("nonlocal_p", (1.0, 2.0), (0.05,), "lab", {}),  # 06, 07
    ("nonlocal_p", (2.0,), (0.01,), "lab", {}),  # 08
    # a frame drifting backward, which the right neighbour weight pays for
    # with the flux: (chi Lip(A) + 25) dx/2 = 0.875
    ("local_u", (1.0,), (0.05,), solver.Frame.moving(-25.0), {}),
]
CASES = [
    pytest.param(model, chi, dx, frame, kw,
                 id=f"{model}-{getattr(frame, 'c', frame)}-chi{chi}-dx{dx}{'-fixed' if kw else ''}")
    for model, chis, dxs, frame, kw in GRIDS
    for chi in chis
    for dx in dxs
]


def _extreme_slopes(cfg):
    """The least and greatest R' of the model's reaction R = v - A(v)."""
    if cfg.model is solver.Model.LOCAL_U:
        return -(1.0 - cfg.epsilon) / cfg.epsilon, 1.0  # min(v, (1 - eps)/eps (1 - v))
    if cfg.model is solver.Model.NONLOCAL_P:
        return 0.0, 1.0  # min(P, 1)
    return -1.0, 1.0  # v (1 - v) on [0, 1]


def _kernel(cfg, rows):
    kern = solver._Kernel([cfg] * len(rows), rows)
    dt = solver.stable_dt(cfg)
    kern._reweigh(dt, cfg.frame.drift(0.0))
    return kern, dt


def _cfg(model, chi, dx, frame, kw):
    # at the default cfl_sigma
    return solver.make_config(model, chi=chi, dx=dx, x_left=-10.0, width=20.0, frame=frame, **kw)


@pytest.mark.parametrize("model,chi,dx,frame,kw", CASES)
def test_every_weight_of_the_default_step_is_nonnegative(model, chi, dx, frame, kw):
    cfg = _cfg(model, chi, dx, frame, kw)
    assert cfg.cfl_sigma == solver.SimConfig.cfl_sigma
    kern, dt = _kernel(cfg, [solver.make_state(cfg).field])
    # the kernel's own weights: v-stencil [lam - d + m, -2 lam, lam + d - m]
    # and R-stencil [-m, dt, m]
    wv, wr = kern._weights[0]
    wr = np.array([0.0, dt, 0.0]) if wr is None else wr
    assert wv[1] == pytest.approx(-cfg.cfl_sigma, rel=1e-12)  # dt is the diffusion limit
    lo, hi = _extreme_slopes(cfg)
    for slope in (lo, hi):
        left, _, right = wv + wr * slope
        assert left >= 0.0 and right >= 0.0
    centre = 1.0 + wv[1] + wr[1] * lo
    assert centre == pytest.approx(1.0 - cfg.cfl_sigma + dt * lo, rel=1e-12)
    assert centre > 0.0


@pytest.mark.parametrize("model,chi,dx,frame,kw", CASES)
def test_one_step_keeps_ordered_rows_ordered(model, chi, dx, frame, kw):
    # random rows lo <= hi, in [0, 1] for the bounded models, so that every
    # pair of neighbouring R' occurs; P's node 0 takes the linear rule
    # 2 out[1] - out[2], so nodes 0 to 3 are the same decreasing line in both
    cfg = _cfg(model, chi, dx, frame, kw)
    n = cfg.grid.n
    rng = np.random.default_rng(7)
    bounded = cfg.model is not solver.Model.NONLOCAL_P
    top = 1.0 if bounded else 3.0
    lo = rng.uniform(0.0, top, n)
    hi = lo + rng.uniform(0.0, 1.0, n) * ((1.0 - lo) if bounded else 1.0)
    lo[:4] = hi[:4] = np.linspace(top, 0.9 * top, 4)
    lo[-1] = hi[-1] = 0.0
    kern, dt = _kernel(cfg, [hi, lo])
    assert kern.advance((0.0,), dt) == (1, None)
    out_hi, out_lo = kern.cur.reshape(2, n)
    assert float(np.min(out_hi - out_lo)) >= -1e-12


def test_backward_drift_past_the_flux_margin_is_refused():
    # each mesh-Peclet number alone is below 1, (chi Lip(A) = 10) dx/2 = 0.25
    # and 35 dx/2 = 0.875, but the right neighbour weight at R' = 1 - Lip(A)
    # would be lam (1 - 1.125) < 0
    with pytest.raises(ValueError, match="backward drift"):
        solver.make_config("local_u", chi=1.0, dx=0.05, frame=solver.Frame.moving(-35.0))
