"""Explicit finite-difference integrator for the general flux equation.

One time step of

    v_t = v_xx + c_frame(t) v_x - chi (A(v))_x + (v - A(v))

(or the logistic reaction for the FKPP reference model) by forward Euler:
centered second difference for diffusion, centered first differences for
the frame drift and the flux divergence, pointwise reaction.  Written with
the reaction field R = v - A(v), the update is two three-point stencils,
one over v and one over R (see _Kernel); R vanishes at 0 and 1, so both
stationary states are kept exactly.  Physical
diffusion has unit coefficient, so at desk-scale resolutions the centered
advection keeps the update monotone (mesh Peclet number chi * Lip(A) * dx/2
and |c| dx/2 both below 1, enforced at config validation); monotonicity is
what the comparison and ordering tests rely on.

The sharp local flux is never differenced directly: local-model runs
substitute the piecewise-linear regularization with epsilon tied to the
grid (2 dx by default), or a fixed epsilon for comparison studies.

Runs live on a moving spatial window that recenters itself so the front
keeps configured margins to both edges.  Runs whose configs share
batch_key step side by side in one flat array (run_batch); a single run
is a batch of one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .profiles import (
    ChiParams,
    FluxKind,
    FluxSpec,
    minimal_speed,
    traveling_wave,
)


class Model(enum.Enum):
    LOCAL_U = "local_u"
    NONLOCAL_P = "nonlocal_p"
    NONLOCAL_RHO = "nonlocal_rho"
    FKPP = "fkpp"  # logistic reference: v_t = v_xx + v(1 - v), no flux


class FrameKind(enum.Enum):
    LAB = "lab"
    MOVING = "moving"
    LOG_SHIFTED = "log_shifted"


@dataclass(frozen=True)
class Grid1D:
    """Uniform window of n nodes x_i = x_left + i*dx."""

    x_left: float
    dx: float
    n: int

    def __post_init__(self):
        if not (self.dx > 0.0 and math.isfinite(self.dx)):
            raise ValueError(f"dx must be positive, got {self.dx!r}")
        if self.n < 8:
            raise ValueError(f"need at least 8 nodes, got {self.n}")
        if self.n * self.dx < 20.0:
            raise ValueError("window narrower than 20 cannot hold a front")

    @property
    def width(self) -> float:
        return (self.n - 1) * self.dx

    def nodes(self, x_left: float | None = None) -> np.ndarray:
        x0 = self.x_left if x_left is None else x_left
        return x0 + self.dx * np.arange(self.n)


@dataclass(frozen=True)
class Frame:
    """Reference frame: lab, speed-c moving, or log-shifted moving.

    The coordinate shift s(t) maps grid coordinates to lab coordinates,
    x_lab = x_grid + s(t): 0, c*t, or c*t - r*log(t + t0).
    """

    kind: FrameKind
    c: float = 0.0
    r: float = 0.5
    t0: float = 1.0

    def __post_init__(self):
        if self.kind is FrameKind.LOG_SHIFTED:
            if self.r not in (0.5, 1.5):
                raise ValueError(f"log-shift exponent r must be 1/2 or 3/2, got {self.r!r}")
            if self.t0 < 1.0:
                raise ValueError(f"log-shift t0 must be >= 1, got {self.t0!r}")

    @staticmethod
    def lab() -> "Frame":
        return Frame(FrameKind.LAB)

    @staticmethod
    def moving(c: float) -> "Frame":
        return Frame(FrameKind.MOVING, c=float(c))

    @staticmethod
    def log_shifted(c: float, r: float = 0.5, t0: float = 1.0) -> "Frame":
        return Frame(FrameKind.LOG_SHIFTED, c=float(c), r=float(r), t0=float(t0))

    def shift(self, t: float) -> float:
        if self.kind is FrameKind.LAB:
            return 0.0
        if self.kind is FrameKind.MOVING:
            return self.c * t
        return self.c * t - self.r * math.log(t + self.t0)

    def drift(self, t: float) -> float:
        if self.kind is FrameKind.LAB:
            return 0.0
        if self.kind is FrameKind.MOVING:
            return self.c
        return self.c - self.r / (t + self.t0)

    def drift_bound(self) -> float:
        if self.kind is FrameKind.LAB:
            return 0.0
        if self.kind is FrameKind.MOVING:
            return abs(self.c)
        return max(abs(self.c), abs(self.c - self.r / self.t0))


class EpsilonMode(enum.Enum):
    FIXED = "fixed"
    GRID_TIED = "grid_tied"


@dataclass(frozen=True)
class EpsilonPolicy:
    """How the local-model regularization width is chosen.

    grid_tied multiplies dx (the discrete sharp-flux limit is approached as
    the grid refines); fixed keeps epsilon constant across grids.
    """

    mode: EpsilonMode
    value: float

    def __post_init__(self):
        if self.mode is EpsilonMode.FIXED and not (0.0 < self.value < 0.5):
            raise ValueError(f"fixed epsilon must lie in (0, 1/2), got {self.value!r}")
        if self.mode is EpsilonMode.GRID_TIED and self.value < 1.0:
            raise ValueError(f"grid-tied multiple must be >= 1, got {self.value!r}")

    @staticmethod
    def fixed(epsilon: float) -> "EpsilonPolicy":
        return EpsilonPolicy(EpsilonMode.FIXED, float(epsilon))

    @staticmethod
    def grid_tied(multiple: float = 2.0) -> "EpsilonPolicy":
        return EpsilonPolicy(EpsilonMode.GRID_TIED, float(multiple))

    def effective(self, dx: float) -> float:
        eps = self.value if self.mode is EpsilonMode.FIXED else self.value * dx
        if not (0.0 < eps < 0.5):
            raise ValueError(f"effective epsilon {eps!r} outside (0, 1/2); adjust dx or policy")
        return eps


class InitKind(enum.Enum):
    HEAVISIDE = "heaviside"
    TRAVELING_WAVE = "traveling_wave"
    GAUSSIAN_BUMP = "gaussian_bump"
    FILE_TABLE = "file_table"


@dataclass(frozen=True)
class InitPreset:
    """Initial data: plateau-on-the-left invading the empty state."""

    kind: InitKind
    amplitude: float = 1.0
    center: float = 0.0
    width: float = 1.0
    table_x: np.ndarray | None = None
    table_v: np.ndarray | None = None

    @staticmethod
    def heaviside(amplitude: float = 1.0) -> "InitPreset":
        return InitPreset(InitKind.HEAVISIDE, amplitude=float(amplitude))

    @staticmethod
    def traveling_wave(amplitude: float = 1.0) -> "InitPreset":
        return InitPreset(InitKind.TRAVELING_WAVE, amplitude=float(amplitude))

    @staticmethod
    def gaussian_bump(amplitude: float = 1.0, center: float = 0.0, width: float = 1.0) -> "InitPreset":
        return InitPreset(
            InitKind.GAUSSIAN_BUMP, amplitude=float(amplitude), center=float(center), width=float(width)
        )

    @staticmethod
    def file_table(x, v) -> "InitPreset":
        return InitPreset(
            InitKind.FILE_TABLE,
            table_x=np.asarray(x, dtype=float),
            table_v=np.asarray(v, dtype=float),
        )


@dataclass(frozen=True)
class WindowPolicy:
    """Margins the front keeps to the window edges before recentring.

    Each check tests the right pad first and shifts the window right when
    it is short; only when it holds is the left pad tested, and the window
    then shifts left at most as far as keeps the right pad.  Pads that add
    up to more than the window cannot both hold, and then the right pad
    wins.
    """

    left_pad: float = 15.0
    right_pad: float = 25.0

    def __post_init__(self):
        if self.left_pad <= 0 or self.right_pad <= 0:
            raise ValueError("window pads must be positive")


@dataclass(frozen=True)
class SimConfig:
    model: Model
    chi_params: ChiParams
    flux: FluxSpec
    grid: Grid1D
    frame: Frame
    init: InitPreset
    t_end: float
    cfl_sigma: float = 0.4
    epsilon_policy: EpsilonPolicy = EpsilonPolicy.grid_tied(2.0)
    window: WindowPolicy = WindowPolicy()
    front_theta: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.cfl_sigma < 1.0):
            raise ValueError(f"cfl_sigma must lie in (0, 1), got {self.cfl_sigma!r}")
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end!r}")
        if not (0.0 < self.front_theta < 0.5):
            raise ValueError(f"front_theta must lie in (0, 1/2), got {self.front_theta!r}")
        if self.model in (Model.NONLOCAL_P, Model.NONLOCAL_RHO):
            if self.flux.kind is not FluxKind.NONLOCAL_RAMP:
                raise ValueError("nonlocal models use the ramp flux")
        if self.model is Model.LOCAL_U:
            if self.flux.kind is FluxKind.NONLOCAL_RAMP:
                raise ValueError("the local model uses a local flux kind")
        chi = self.chi_params.chi
        dx = self.grid.dx
        # Monotonicity of the centered advection needs mesh Peclet < 1.
        if chi * self.flux_lipschitz() * dx / 2.0 >= 1.0:
            raise ValueError("mesh Peclet number chi*Lip(A)*dx/2 >= 1; refine dx or widen epsilon")
        if self.frame.drift_bound() * dx / 2.0 >= 1.0:
            raise ValueError("frame drift mesh Peclet number >= 1; refine dx")

    def scheme_epsilon(self) -> float | None:
        """Regularization width actually used by the scheme (local model)."""
        if self.model is not Model.LOCAL_U:
            return None
        if self.flux.kind is FluxKind.REGULARIZED_LOCAL:
            return self.flux.epsilon
        return self.epsilon_policy.effective(self.grid.dx)

    def flux_lipschitz(self) -> float:
        """Lip(A) of the flux the scheme differences: 1/eps for the local
        model, 1 for the ramp, 0 for the FKPP reference (no flux)."""
        if self.model is Model.FKPP:
            return 0.0
        if self.model is Model.LOCAL_U:
            return 1.0 / self.scheme_epsilon()
        return 1.0


@dataclass
class SimState:
    """Time, window origin, and the primary field at the nodes."""

    t: float
    x_left: float
    field: np.ndarray
    clip_count: int = 0


def make_config(
    model: str | Model = "local_u",
    chi: float = 1.0,
    dx: float = 0.05,
    t_end: float = 50.0,
    x_left: float = -40.0,
    width: float = 80.0,
    frame: str | Frame = "lab",
    init: str | InitPreset = "heaviside",
    amplitude: float = 1.0,
    cfl_sigma: float = 0.4,
    flux: FluxSpec | None = None,
    epsilon_mode: str = "grid_tied",
    epsilon: float = 2.0,
    left_pad: float = 15.0,
    right_pad: float = 25.0,
    front_theta: float = 1e-6,
    frame_r: float = 0.5,
    frame_t0: float = 100.0,
    gaussian_center: float = 0.0,
    gaussian_width: float = 1.0,
) -> SimConfig:
    """Assemble a SimConfig from plain scalars (CLI and test convenience)."""
    model = Model(model) if not isinstance(model, Model) else model
    cp = minimal_speed(chi)
    n = int(round(width / dx)) + 1
    grid = Grid1D(x_left=float(x_left), dx=float(dx), n=n)
    if not isinstance(frame, Frame):
        fk = FrameKind(frame)
        if fk is FrameKind.LAB:
            frame = Frame.lab()
        elif fk is FrameKind.MOVING:
            frame = Frame.moving(cp.c_star)
        else:
            frame = Frame.log_shifted(cp.c_star, r=frame_r, t0=frame_t0)
    if flux is None:
        flux = (
            FluxSpec.nonlocal_ramp()
            if model in (Model.NONLOCAL_P, Model.NONLOCAL_RHO)
            else FluxSpec.local_heaviside()
        )
    if not isinstance(init, InitPreset):
        ik = InitKind(init)
        if ik is InitKind.HEAVISIDE:
            init = InitPreset.heaviside(amplitude)
        elif ik is InitKind.TRAVELING_WAVE:
            init = InitPreset.traveling_wave(amplitude)
        elif ik is InitKind.GAUSSIAN_BUMP:
            init = InitPreset.gaussian_bump(amplitude, gaussian_center, gaussian_width)
        else:
            raise ValueError("file_table presets need explicit arrays")
    policy = (
        EpsilonPolicy.fixed(epsilon)
        if EpsilonMode(epsilon_mode) is EpsilonMode.FIXED
        else EpsilonPolicy.grid_tied(epsilon)
    )
    return SimConfig(
        model=model,
        chi_params=cp,
        flux=flux,
        grid=grid,
        frame=frame,
        init=init,
        t_end=float(t_end),
        cfl_sigma=float(cfl_sigma),
        epsilon_policy=policy,
        window=WindowPolicy(left_pad=float(left_pad), right_pad=float(right_pad)),
        front_theta=float(front_theta),
    )


def cumulative_mass(rho: np.ndarray, dx: float) -> np.ndarray:
    """Mass to the right, P_i = dx * sum_{j >= i} rho_j.

    Right-to-left rectangle rule with P = 0 past the last node; exact for
    piecewise-constant densities.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.size and float(rho.min()) < -1e-12:
        raise ValueError("cumulative_mass needs rho >= 0")
    return dx * np.cumsum(rho[::-1])[::-1]


def _wave_model_key(model: Model) -> str:
    return {Model.LOCAL_U: "u", Model.NONLOCAL_P: "p", Model.NONLOCAL_RHO: "rho"}[model]


def make_state(cfg: SimConfig) -> SimState:
    """Sample the initial preset on the grid and validate field invariants."""
    x = cfg.grid.nodes()
    ik = cfg.init.kind
    amp = cfg.init.amplitude
    if ik is InitKind.HEAVISIDE:
        mask = x <= 0.0
        if cfg.model is Model.NONLOCAL_P:
            # Heaviside density plus a unit atom at the interface: the atom
            # makes the data everywhere at least as steep as the wave.
            v = amp * np.maximum(0.0, -x) + amp * mask
        else:
            v = amp * mask.astype(float)
    elif ik is InitKind.TRAVELING_WAVE:
        if cfg.model is Model.FKPP:
            raise ValueError("the FKPP reference has no tabulated wave preset")
        v = amp * traveling_wave(_wave_model_key(cfg.model), cfg.chi_params.chi, x)
    elif ik is InitKind.GAUSSIAN_BUMP:
        bump = amp * np.exp(-((x - cfg.init.center) ** 2) / (2.0 * cfg.init.width**2))
        if cfg.model is Model.NONLOCAL_P:
            v = cumulative_mass(bump, cfg.grid.dx)
        else:
            v = bump
    else:
        tx, tv = cfg.init.table_x, cfg.init.table_v
        if tx is None or tv is None or tx.shape != tv.shape or tx.ndim != 1:
            raise ValueError("file table needs matching 1-d x and value arrays")
        if not (np.all(np.isfinite(tx)) and np.all(np.isfinite(tv))):
            raise ValueError("file table contains non-finite entries")
        v = np.interp(x, tx, tv)

    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("initial field contains non-finite values")
    if cfg.model in (Model.LOCAL_U, Model.FKPP):
        if v.min() < 0.0 or v.max() > 1.0 + 1e-12:
            raise ValueError("local density must take values in [0, 1]")
    elif cfg.model is Model.NONLOCAL_P:
        if v.min() < 0.0:
            raise ValueError("cumulative mass must be nonnegative")
        if np.any(np.diff(v) > 1e-12 * cfg.grid.dx):
            raise ValueError("cumulative mass must be nonincreasing in x")
    else:
        if v.min() < -1e-12:
            raise ValueError("density must be nonnegative")
    return SimState(t=0.0, x_left=cfg.grid.x_left, field=v)


def stable_dt(cfg: SimConfig) -> float:
    """Largest safe Euler step: cfl_sigma times the tightest of the
    diffusion bound dx^2/2, the advection bound dx/(|c_frame| + chi Lip A),
    and the reaction cap 1/2."""
    dx = cfg.grid.dx
    speed = cfg.frame.drift_bound() + cfg.chi_params.chi * cfg.flux_lipschitz()
    adv = dx / speed if speed > 0.0 else math.inf
    return cfg.cfl_sigma * min(dx * dx / 2.0, adv, 0.5)


def level_crossing(field: np.ndarray, x_left: float, dx: float, level: float) -> float | None:
    """Rightmost downward crossing of the level, linearly interpolated.

    None when the level is never reached or never dropped below again
    inside the window.
    """
    above = np.nonzero(field >= level)[0]
    if above.size == 0:
        return None
    i = int(above[-1])
    if i == field.size - 1:
        return None
    drop = field[i] - field[i + 1]
    frac = 0.0 if drop <= 0.0 else (field[i] - level) / drop
    return x_left + dx * (i + min(max(frac, 0.0), 1.0))


def front_level(cfg: SimConfig) -> float:
    if cfg.model is Model.LOCAL_U:
        return 1.0 - cfg.front_theta
    if cfg.model is Model.FKPP:
        return 0.5
    return 1.0


def front_field(field: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Field whose level set defines the front (P for the density model)."""
    if cfg.model is Model.NONLOCAL_RHO:
        return cumulative_mass(field, cfg.grid.dx)
    return field


def front_position(probe: np.ndarray, x_left: float, cfg: SimConfig) -> float | None:
    """Front in window coordinates: the rightmost crossing of
    front_level(cfg) by the front field, or None when there is none."""
    return level_crossing(probe, x_left, cfg.grid.dx, front_level(cfg))


def batch_key(cfg: SimConfig) -> tuple:
    """Configs with equal keys can step together in one run_batch.

    They share model, grid, step, end time, regularization width, flux
    and frame.
    """
    return (
        cfg.model,
        cfg.grid.n,
        cfg.grid.dx,
        stable_dt(cfg),
        cfg.t_end,
        cfg.scheme_epsilon(),
        cfg.flux,
        cfg.frame,
    )


class _Kernel:
    """Cached weights and scratch for the Euler update of B rows.

    With lam = dt/dx^2, d = dt c_frame/2dx and m = dt chi/2dx, the update
    of every interior node is two three-point stencils,

        out = v + corr(v, [lam - d + m, -2 lam, lam + d - m])
                + corr(R, [-m, dt, m]),

    over v and over its reaction field R = v - A(v) (v(1 - v) with m = 0
    for the FKPP reference).  R vanishes exactly at 0 and 1, and the
    v-weights sum to well under half an ulp of 1, so both stationary
    states are kept exactly.  The rows of B configs that share batch_key
    lie end to end in one flat array of B*n nodes; each row runs its own
    pair of weights, so a row of a batch is rounded exactly as its own run.
    The weights are rebuilt only when dt or the frame drift changes.
    """

    def __init__(self, cfgs: Sequence[SimConfig]):
        cfg = cfgs[0]
        self.model = cfg.model
        self.n = n = cfg.grid.n
        self.rows = len(cfgs)
        self.dx = cfg.grid.dx
        self.chi = [0.0 if self.model is Model.FKPP else c.chi_params.chi for c in cfgs]
        eps = cfg.scheme_epsilon()
        self.plateau_rate = None if eps is None else (1.0 - eps) / eps
        self.frame = cfg.frame
        self.bounded = self.model in (Model.LOCAL_U, Model.FKPP)
        size = self.rows * n
        self._react = np.empty(size)
        self._key = None
        self._weights: list = []
        # the nodes and interior nodes of each row; rows that share chi share
        # their weights and take one stencil over the whole array, whose
        # values across a row boundary the edge rules then overwrite
        span = size if len(set(self.chi)) == 1 else n
        self._slices = [(slice(lo, lo + span), slice(lo + 1, lo + span - 1)) for lo in range(0, size, span)]
        # nodes 0, 1, 2 and n-1 of every row; plain indices for one row,
        # which cost less than strided views
        self._edges = [i if self.rows == 1 else slice(i, None, n) for i in (0, 1, 2, n - 1)]

    def _stencils(self, dt: float, drift: float) -> list:
        """(row, interior, v-weights, R-weights) of every row for this dt
        and drift."""
        if self._key != (dt, drift):
            lam = dt / (self.dx * self.dx)
            d = dt * drift / (2.0 * self.dx)
            self._weights = []
            for (row, inner), chi in zip(self._slices, self.chi):
                m = dt * chi / (2.0 * self.dx)
                wv = np.array([lam - d + m, -2.0 * lam, lam + d - m])
                # with m = 0 (FKPP, chi = 0) the R-stencil is one multiply
                self._weights.append((row, inner, wv, np.array([-m, dt, m]) if m else None))
            self._key = (dt, drift)
        return self._weights

    def _reaction(self, v: np.ndarray) -> np.ndarray:
        """R = v - A(v) of every row (v(1 - v) for FKPP), into scratch."""
        r = self._react
        if self.model is Model.LOCAL_U:
            # v below the switch, (1 - eps)/eps (1 - v) on the plateau side
            np.subtract(1.0, v, out=r)
            r *= self.plateau_rate
            np.minimum(r, v, out=r)
        elif self.model is Model.NONLOCAL_P:
            np.minimum(v, 1.0, out=r)
        elif self.model is Model.NONLOCAL_RHO:
            # [P < 1] rho with P = dx * the suffix sums of each row
            rows = r.reshape(self.rows, self.n)
            np.cumsum(v.reshape(self.rows, self.n)[:, ::-1], axis=1, out=rows[:, ::-1])
            r *= self.dx
            np.less(r, 1.0, out=r)
            r *= v
        else:
            np.subtract(1.0, v, out=r)
            r *= v
        return r

    def step_into(self, v: np.ndarray, t: float, dt: float, out: np.ndarray) -> list | None:
        """Write the update of every row of v into out.

        Returns None when no row needed a guard; otherwise one entry per
        row: the number of undershoot nodes clipped to 0, or the message
        of the guard that failed.
        """
        r = self._reaction(v)
        for row, inner, wv, wr in self._stencils(dt, self.frame.drift(t)):
            rhs = out[inner]
            np.add(v[inner], np.correlate(v[row], wv), out=rhs)
            if wr is None:
                react = r[inner]
                react *= dt
                rhs += react
            else:
                rhs += np.correlate(r[row], wr)

        first, second, third, last = self._edges
        out[last] = 0.0
        if self.model is Model.NONLOCAL_P:
            out[first] = 2.0 * out[second] - out[third]  # linear-growth left asymptote
        else:
            out[first] = v[first]  # plateau held fixed for one step

        # min and max propagate NaN, and an infinity is one of them
        mn = float(np.minimum.reduce(out))
        mx = float(np.maximum.reduce(out))
        if math.isfinite(mn) and math.isfinite(mx) and mn >= 0.0:
            if not (self.bounded and mx > 1.0 + 1e-12):
                return None
        # a guard tripped somewhere: each row in the order of a single run
        return [self._guard(row) for row in out.reshape(self.rows, self.n)]

    def _guard(self, row: np.ndarray) -> int | str:
        """The guards of one row: clips undershoots within the roundoff
        budget in place and returns their count, or the failure message."""
        mn = float(np.minimum.reduce(row))
        mx = float(np.maximum.reduce(row))
        if not (math.isfinite(mn) and math.isfinite(mx)):
            return "non-finite field value produced"
        clips = 0
        if mn < 0.0:
            if mn < -1e-12:
                return f"undershoot {mn:.3e} exceeds the roundoff budget"
            clips = int((row < 0.0).sum())
            np.maximum(row, 0.0, out=row)
        if self.bounded and mx > 1.0 + 1e-12:
            return f"overshoot {mx - 1.0:.3e} above the stable state"
        return clips


def step(state: SimState, cfg: SimConfig, dt: float) -> SimState:
    """One forward-Euler update; dt must respect stable_dt(cfg)."""
    if not (0.0 < dt <= stable_dt(cfg) * (1.0 + 1e-9)):
        raise ValueError(f"dt {dt!r} violates the stability bound {stable_dt(cfg)!r}")
    out = np.empty_like(state.field)
    guarded = _Kernel([cfg]).step_into(state.field, state.t, dt, out)
    clips = 0 if guarded is None else guarded[0]
    if isinstance(clips, str):
        raise RuntimeError(f"step at t = {state.t:.6g} failed: {clips}")
    return SimState(
        t=state.t + dt,
        x_left=state.x_left,
        field=out,
        clip_count=state.clip_count + clips,
    )


def _shift_window(field: np.ndarray, k: int, model: Model) -> None:
    """Shift window contents by k cells (positive = window moves right)."""
    n = field.size
    if k > 0:
        field[: n - k] = field[k:].copy()
        field[n - k :] = 0.0
    elif k < 0:
        k = -k
        left_value = field[0]
        slope = field[0] - field[1]
        field[k:] = field[: n - k].copy()
        if model is Model.NONLOCAL_P:
            # extend the linear growth, matching the left boundary rule
            field[:k] = field[k] + slope * np.arange(k, 0, -1)
        else:
            field[:k] = left_value


def _maybe_recenter(field: np.ndarray, x_left: float, cfg: SimConfig) -> float:
    f = front_position(front_field(field, cfg), x_left, cfg)
    if f is None:
        return x_left
    dx = cfg.grid.dx
    x_right = x_left + (cfg.grid.n - 1) * dx
    if x_right - f < cfg.window.right_pad:
        k = int(math.ceil((cfg.window.right_pad - (x_right - f)) / dx))
        _shift_window(field, k, cfg.model)
        return x_left + k * dx
    if f - x_left < cfg.window.left_pad:
        # never so far left that the right pad stops holding: it wins
        k = min(
            int(math.ceil((cfg.window.left_pad - (f - x_left)) / dx)),
            int(math.floor((x_right - f - cfg.window.right_pad) / dx)),
        )
        if k > 0:
            _shift_window(field, -k, cfg.model)
            return x_left - k * dx
    return x_left


Observer = Callable[[SimState, SimConfig], None]


class _Batch:
    """The members of a run_batch that are still running: their rows in
    one flat buffer pair, their window origins and their clip counts."""

    def __init__(self, cfgs: Sequence[SimConfig], observers: Sequence[Sequence[Observer]]):
        states = [make_state(cfg) for cfg in cfgs]
        self.cfgs = cfgs
        self.observers = observers
        self.n = cfgs[0].grid.n
        self.live = list(range(len(cfgs)))
        self.x_left = [s.x_left for s in states]
        self.clips = [0] * len(cfgs)
        self.results: list = [None] * len(cfgs)
        self.cur = np.concatenate([s.field for s in states])
        self.nxt = np.empty_like(self.cur)
        self.kern = _Kernel(cfgs)

    def row(self, j: int) -> np.ndarray:
        return self.cur[j * self.n : (j + 1) * self.n]

    def drop(self, failures: dict) -> None:
        """Record {row: error} and close the buffer over the rows left."""
        for j, err in failures.items():
            self.results[self.live[j]] = err
        keep = [j for j in range(len(self.live)) if j not in failures]
        self.live = [self.live[j] for j in keep]
        self.cur = self.cur.reshape(-1, self.n)[keep].ravel()
        self.nxt = np.empty_like(self.cur)
        if self.live:
            self.kern = _Kernel([self.cfgs[i] for i in self.live])

    def emit(self, t: float) -> None:
        failures = {}
        for j, i in enumerate(self.live):
            snap = SimState(t=t, x_left=self.x_left[i], field=self.row(j), clip_count=self.clips[i])
            try:
                for obs in self.observers[i]:
                    obs(snap, self.cfgs[i])
            except RuntimeError as err:
                failures[j] = err
        if failures:
            self.drop(failures)

    def recenter(self) -> None:
        for j, i in enumerate(self.live):
            self.x_left[i] = _maybe_recenter(self.row(j), self.x_left[i], self.cfgs[i])

    def step(self, k: int, t: float, dt: float) -> None:
        guarded = self.kern.step_into(self.cur, t, dt, self.nxt)
        self.cur, self.nxt = self.nxt, self.cur
        if guarded is None:
            return
        failures = {}
        for j, clips in enumerate(guarded):
            if isinstance(clips, str):
                failures[j] = RuntimeError(f"step {k} at t = {t:.6g} failed: {clips}")
            else:
                self.clips[self.live[j]] += clips
        if failures:
            self.drop(failures)


def run_batch(
    cfgs: Sequence[SimConfig],
    observers: Sequence[Sequence[Observer]],
    trace_every: float = 0.5,
    recenter: bool = True,
) -> list[SimState | RuntimeError]:
    """Advance configs that share batch_key side by side; see run.

    observers[i] watches cfgs[i].  Each member recentres on its own and
    ends with its final state, or with the RuntimeError that its run
    would raise (a failed step or an observer's); the others go on.  Every
    member's values, and so its observations, are those of its own run.
    """
    if trace_every <= 0.0:
        raise ValueError("trace_every must be positive")
    if not cfgs or len(observers) != len(cfgs):
        raise ValueError("run_batch needs one observer list per config")
    if len({batch_key(cfg) for cfg in cfgs}) != 1:
        raise ValueError("run_batch configs must share batch_key")
    batch = _Batch(cfgs, observers)
    batch.emit(0.0)
    t_end = cfgs[0].t_end
    if t_end > 0.0:
        dt = stable_dt(cfgs[0])
        n_steps = max(1, int(math.ceil(t_end / dt - 1e-12)))
        dt_last = t_end - dt * (n_steps - 1)
        recheck = max(1, int(round(0.25 / dt)))
        next_emit = trace_every
        for k in range(n_steps):
            if not batch.live:
                break
            batch.step(k, k * dt, dt if k < n_steps - 1 else dt_last)
            t_new = (k + 1) * dt if k < n_steps - 1 else t_end
            if recenter and (k + 1) % recheck == 0:
                batch.recenter()
            if k == n_steps - 1:
                batch.emit(t_end)
            elif t_new >= next_emit - 1e-9:
                batch.emit(t_new)
                while next_emit <= t_new + 1e-9:
                    next_emit += trace_every
    for j, i in enumerate(batch.live):
        batch.results[i] = SimState(
            t=t_end if t_end > 0.0 else 0.0,
            x_left=batch.x_left[i],
            field=batch.row(j).copy(),
            clip_count=batch.clips[i],
        )
    return batch.results


def run(
    cfg: SimConfig,
    observers: Sequence[Observer] = (),
    trace_every: float = 0.5,
    recenter: bool = True,
) -> SimState:
    """Advance from the initial preset to t_end with the stable step.

    Observers are invoked at t = 0, at every multiple of trace_every, and
    at the final time.  The window recenters so the front keeps the
    configured pads; newly exposed cells are filled with the boundary rule
    of the model.
    """
    (final,) = run_batch([cfg], [observers], trace_every, recenter)
    if isinstance(final, RuntimeError):
        raise final
    return final


def derived_P(state: SimState, cfg: SimConfig) -> np.ndarray:
    """Cumulative mass field (identity for the P model)."""
    if cfg.model not in (Model.NONLOCAL_P, Model.NONLOCAL_RHO):
        raise ValueError("cumulative mass is a nonlocal-model quantity")
    return front_field(state.field, cfg)


def derived_rho(state: SimState, cfg: SimConfig) -> np.ndarray:
    """Density field: -P_x by centered differences for the P model."""
    if cfg.model is Model.NONLOCAL_RHO:
        return state.field
    if cfg.model is Model.NONLOCAL_P:
        p = state.field
        rho = np.empty_like(p)
        rho[1:-1] = (p[:-2] - p[2:]) * (0.5 / cfg.grid.dx)
        rho[0] = (p[0] - p[1]) / cfg.grid.dx
        rho[-1] = (p[-2] - p[-1]) / cfg.grid.dx
        return rho
    raise ValueError("rho is a nonlocal-model quantity")
