"""Observables of a run: front location, shape defect, exponential moments,
free-boundary (Rankine-Hugoniot) residuals, and weighted-defect norms.

All functions are pure in the state; they are meant to be sampled along a
run through TraceRecorder.  On the benchmark's defect_diagnostics grid
(n = 1,626) a sample costs about 230 us at a pulled chi, half of it in
W_{-1}, and about 80 us at a pushed one, against 10 to 14 us for a
kernel step there (scripts/kernel_us.py): sampled every 0.02, or 42
steps, the samples take about a quarter of such a run.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from . import solver
from .profiles import minimal_speed
# the unchecked profile helpers, which omega calls once a sample under the
# names that bench/layers.py times as the profiles layer
from .profiles import _eta_nonlocal as eta_nonlocal, _eta_regularized as eta_regularized
from .solver import Model, SimConfig, SimState


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class TailNotResolvedWarning(UserWarning):
    """The moment integrand has not decayed below 1e-10 at the right edge."""


class MomentKind(enum.Enum):
    IU = "iu"
    IRHO = "irho"
    IP = "ip"
    IM = "im"


@dataclass(frozen=True)
class FrontTrace:
    """Lab-frame front positions sampled along a run (nan = no front)."""

    t: np.ndarray
    x_front: np.ndarray

    def __post_init__(self):
        if self.t.shape != self.x_front.shape or self.t.ndim != 1:
            raise ValueError("front trace needs matching 1-d arrays")
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("front trace times must be strictly increasing")


@dataclass
class _Derived:
    """Derived fields of one state, each computed at most once.

    Every observable below is built on these, so a trace sample that asks
    for all of them pays once for the cumulative mass, the front, the
    defect field, its exclusion mask and the moment weight.
    """

    state: SimState
    cfg: SimConfig

    @cached_property
    def probe(self) -> np.ndarray:
        # u for the local models, the cumulative mass P for the nonlocal ones
        return solver.front_field(self.state.field, self.cfg)

    @cached_property
    def front(self) -> float | None:
        return solver.front_position(self.probe, self.state.x_left, self.cfg)

    @cached_property
    def weight(self) -> np.ndarray:
        # exp(z / chi_vee): the moment weight and the defect weight
        return np.exp(moving_frame_z(self.state, self.cfg) / self.cfg.chi_params.chi_vee)

    @cached_property
    def omega(self) -> np.ndarray:
        """Node-wise defect -v_x - eta(v) of v = u (local) or P (nonlocal)."""
        cfg = self.cfg
        v = self.probe
        local = cfg.model is Model.LOCAL_U
        if not (local or cfg.model in (Model.NONLOCAL_P, Model.NONLOCAL_RHO)):
            raise ValueError("shape defect is defined for the go-or-grow models only")
        s = np.clip(v, 0.0, 1.0 if local else None)
        # clipping keeps NaN, and +inf for P; the max of s >= 0 finds both
        if not math.isfinite(float(s.max())):
            raise ValueError("shape defect needs a finite field")
        cp = minimal_speed(cfg.chi_params.chi)
        # The scheme evolves the regularized flux, so the local model's
        # preserved-sign defect is measured against the matching
        # regularized profile.
        eta = eta_regularized(cp, cfg.epsilon, s) if local else eta_nonlocal(cp, s)
        return -solver.centered_slope(v, cfg.grid.dx) - eta

    @cached_property
    def keep(self) -> tuple[int, int]:
        """The nodes [lo, hi) dropped from defect statistics, within the
        nodes [2, n - 2) that the one-sided edge stencils leave.

        Drops 3 cells around the flux-switch kink (a genuine distributional
        object).  For the regularized local model the switch is not a
        point: the interface occupies the level band u in (1 - eps, 1) and
        its discrete corner layer radiates about two more eps-widths of
        wake, so the whole band from the front level down to 1 - 4 eps is
        interface machinery and is excluded.
        """
        cfg, pad = self.cfg, 3
        front = self.front
        if front is None:
            return 2, 2
        dx = cfg.grid.dx
        x_left = self.state.x_left
        hi_x = front
        if cfg.model is Model.LOCAL_U:
            deep = solver.level_crossing(self.probe, x_left, dx, 1.0 - 4.0 * cfg.epsilon)
            if deep is not None:
                hi_x = deep
        i0 = int(round((front - x_left) / dx)) - pad
        i1 = int(round((hi_x - x_left) / dx)) + pad + 1
        last = cfg.grid.n - 2
        lo = min(max(i0, 2), last)
        return lo, max(min(i1, last), lo)

    def kept(self, values: np.ndarray) -> np.ndarray:
        """The values at the nodes kept for defect statistics, in order."""
        lo, hi = self.keep
        return np.concatenate((values[2:lo], values[hi : self.cfg.grid.n - 2]))

    def min_defect(self) -> float:
        kept = self.kept(self.omega)
        return float(kept.min()) if kept.size else math.nan

    def weighted_sup(self) -> float:
        kept = self.kept(self.omega * self.weight)
        return float(kept.max()) if kept.size else math.nan

    def moment(self, kind: MomentKind, m: float = 0.2) -> tuple[float, float]:
        """Trapezoid moment and the integrand at the right window edge."""
        cfg = self.cfg
        if kind is MomentKind.IU:
            if cfg.model not in (Model.LOCAL_U, Model.FKPP):
                raise ValueError("iu moment needs a local density field")
            integrand = self.state.field * self.weight
        elif kind is MomentKind.IP:
            integrand = solver.derived_P(self.state, cfg) * self.weight
        elif kind is MomentKind.IRHO:
            integrand = solver.derived_rho(self.state, cfg) * self.weight
        else:
            if not (0.0 < m < 1.0):
                raise ValueError("im moment needs m in (0, 1)")
            z = moving_frame_z(self.state, cfg)
            rho = solver.derived_rho(self.state, cfg)
            integrand = rho * ((np.exp(m * z) + np.exp(-m * z)) * np.exp(z))
        return float(_trapezoid(integrand, dx=cfg.grid.dx)), float(integrand[-1])

    def rh_residual(self) -> float | None:
        cfg, state = self.cfg, self.state
        dx = cfg.grid.dx
        chi = cfg.chi_params.chi
        if cfg.model is Model.LOCAL_U:
            eps = cfg.epsilon
            x_if = solver.level_crossing(state.field, state.x_left, dx, 1.0 - 2.0 * eps)
            if x_if is None:
                return None
            if x_if - dx < state.x_left or x_if + dx > state.x_left + (cfg.grid.n - 1) * dx:
                return None
            up = _interp(state.field, state.x_left, dx, x_if + dx)
            dn = _interp(state.field, state.x_left, dx, x_if - dx)
            slope = (up - dn) / (2.0 * dx)
            return abs(slope + chi)
        if cfg.model in (Model.NONLOCAL_P, Model.NONLOCAL_RHO):
            x_f = self.front  # the front level of P is 1
            if x_f is None:
                return None
            j = int(math.floor((x_f - state.x_left) / dx)) + 1  # first node right of front
            if j - 4 < 0 or j + 3 >= cfg.grid.n:
                return None
            rho = solver.derived_rho(state, cfg)
            slope_right = (rho[j + 3] - rho[j + 1]) / (2.0 * dx)
            slope_left = (rho[j - 2] - rho[j - 4]) / (2.0 * dx)
            return abs(slope_right - slope_left + chi * rho[j + 2])
        raise ValueError("Rankine-Hugoniot residual is a go-or-grow quantity")


def front_location(state: SimState, cfg: SimConfig) -> float | None:
    """Front position in window coordinates, or None when absent.

    Local model: rightmost crossing of the level 1 - theta (the discrete
    solution approaches 1 from below, so an equality test would never
    fire).  Nonlocal models: the crossing of P = 1.  FKPP reference: the
    half level.
    """
    return _Derived(state, cfg).front


def moving_frame_z(state: SimState, cfg: SimConfig) -> np.ndarray:
    """Node coordinates in the speed-c moving frame, z = x_lab - c t."""
    x = cfg.grid.nodes(state.x_left)
    return x + cfg.frame.shift(state.t) - cfg.chi_params.c_star * state.t


def shape_defect(
    state: SimState,
    cfg: SimConfig,
    weighted: bool = False,
    gamma: float | None = None,
) -> np.ndarray:
    """omega_i = -v_x(x_i) - eta(v_i), centered differences inside.

    weighted multiplies by exp(z / chi_vee) in the moving frame; gamma adds
    the localization weight exp(-gamma sqrt(1 + z^2)).
    """
    d = _Derived(state, cfg)
    omega = d.omega
    if weighted:
        omega = omega * d.weight
    if gamma is not None:
        z = moving_frame_z(state, cfg)
        omega = omega * np.exp(-gamma * np.sqrt(1.0 + z * z))
    return omega


def min_shape_defect(state: SimState, cfg: SimConfig) -> float:
    """Minimum node-wise defect away from the switch kinks and edges."""
    return _Derived(state, cfg).min_defect()


def weighted_defect_sup(state: SimState, cfg: SimConfig) -> float:
    """Sup of the weighted defect away from the switch kinks and edges."""
    return _Derived(state, cfg).weighted_sup()


def exponential_moment(
    state: SimState,
    cfg: SimConfig,
    kind: MomentKind,
    m: float = 0.2,
) -> float:
    """Trapezoid moment of the field against exp(z / chi_vee) in the
    moving frame (kinds iu / irho / ip), or of
    (exp(mz) + exp(-mz)) exp(z) rho for kind im.

    Warns TailNotResolvedWarning when the integrand at the right window
    edge is above 1e-10: the window is then too narrow for the moment.
    """
    value, tail = _Derived(state, cfg).moment(kind, m)
    if abs(tail) > 1e-10:
        warnings.warn(
            f"moment integrand {tail:.3e} at the right edge; widen the window",
            TailNotResolvedWarning,
            stacklevel=2,
        )
    return value


def default_moment_kind(cfg: SimConfig) -> MomentKind | None:
    if cfg.model is Model.LOCAL_U:
        return MomentKind.IU
    if cfg.model is Model.NONLOCAL_RHO:
        return MomentKind.IRHO
    if cfg.model is Model.NONLOCAL_P:
        return MomentKind.IP
    return None


def _interp(field: np.ndarray, x_left: float, dx: float, xq: float) -> float:
    pos = (xq - x_left) / dx
    i = int(math.floor(pos))
    i = min(max(i, 0), field.size - 2)
    w = pos - i
    return float(field[i] * (1.0 - w) + field[i + 1] * w)


def rankine_hugoniot_residual(state: SimState, cfg: SimConfig) -> float | None:
    """Residual of the free-boundary slope/jump relation at the front.

    Local model: |slope+ + chi| with the slope measured just below the
    interface, at the level u = 1 - 2 eps: the regularized layer between
    1 - theta and 1 - eps carries no slope information, and the corner
    cell at 1 - eps carries an O(chi^2 dx / eps) difference artifact.
    Nonlocal models: |(rho_x+ - rho_x-) + chi rho|, with the one-sided
    differences starting one node clear of the kink cell and rho sampled
    at the midpoint of the right stencil so the exponential tail cancels
    the sampling offset.

    Returns None when no front is present.
    """
    return _Derived(state, cfg).rh_residual()


@dataclass
class TraceRecorder:
    """Observer collecting the standard per-sample diagnostics.

    Rows: t, lab-frame front, moment (model default kind), min shape
    defect, weighted defect sup, Rankine-Hugoniot residual.
    """

    collect_defect: bool = True
    collect_rh: bool = True
    t: list = dc_field(default_factory=list)
    x_front: list = dc_field(default_factory=list)
    moment: list = dc_field(default_factory=list)
    min_defect: list = dc_field(default_factory=list)
    weighted_sup: list = dc_field(default_factory=list)
    rh_residual: list = dc_field(default_factory=list)

    def sample(self, state: SimState, cfg: SimConfig) -> tuple[float, ...]:
        """One row (t, lab-frame front, moment, min defect, weighted sup,
        RH residual); each derived field is computed once for the row."""
        d = _Derived(state, cfg)
        front = d.front
        kind = default_moment_kind(cfg)
        go_or_grow = cfg.model is not Model.FKPP
        rh = d.rh_residual() if self.collect_rh and go_or_grow else None
        defect = self.collect_defect and go_or_grow
        return (
            state.t,
            math.nan if front is None else front + cfg.frame.shift(state.t),
            math.nan if kind is None else d.moment(kind)[0],
            d.min_defect() if defect else math.nan,
            d.weighted_sup() if defect else math.nan,
            math.nan if rh is None else rh,
        )

    def __call__(self, state: SimState, cfg: SimConfig) -> None:
        columns = (self.t, self.x_front, self.moment, self.min_defect, self.weighted_sup, self.rh_residual)
        for column, value in zip(columns, self.sample(state, cfg)):
            column.append(value)

    def front_trace(self) -> FrontTrace:
        return FrontTrace(t=np.asarray(self.t), x_front=np.asarray(self.x_front))

    @property
    def moment_initial(self) -> float:
        vals = [v for v in self.moment if not math.isnan(v)]
        return vals[0] if vals else math.nan
