"""Explicit finite-difference integrator for the general flux equation.

One time step of

    v_t = v_xx + c_frame(t) v_x - chi (A(v))_x + (v - A(v))

(or the logistic reaction for the FKPP reference model) by forward Euler:
centered second difference for diffusion, centered first differences for
the frame drift and the flux divergence, pointwise reaction; the update
itself is gogrow.kernel's.  Physical diffusion has unit coefficient, so at
desk-scale resolutions the centered advection keeps the update monotone
(mesh Peclet numbers chi Lip(A) dx/2 and |c| dx/2 below 1, and their sum
for a backward drift, checked by SimConfig); the comparison and ordering
tests rely on monotonicity.  The frame is the front law s(t) = c t -
r log(t + t0) used as a coordinate, with drift c_frame(t) = c - r/(t + t0);
the lab and moving frames are its r = 0 cases.

The sharp local flux is never differenced directly: local-model runs
substitute the piecewise-linear regularization of width SimConfig.epsilon,
which make_config ties to the grid (2 dx by default) or fixes for
comparison studies.  Every other model's flux follows from the model.

Runs live on a moving spatial window that recenters itself so the front
keeps configured margins to both edges.  Runs whose configs share
batch_key step side by side (run_batch) in one gogrow.kernel._Kernel,
which owns their rows; a single run is a batch of one, and step is one
step of a kernel of one row.  The kernel steps the rows and the batch
recentres them: observers read a row through a read-only view.

run_batch steps from event to event.  An event is a step after which
the window is checked (every 0.25 time units), the observers are due
(every trace_every), or the last step, the only one shortened so that
the run ends at t_end exactly.  The steps between two events are one
call of _Kernel.advance, which stops at a step whose guard tripped; the
per-row guards have then clipped its rows or refused them, and
run_batch drops the refused ones.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernel import Model, _Kernel
from .profiles import ChiParams, minimal_speed, traveling_wave


# The most nodes a window may have: a row of this many takes 8 MB, and
# every grid of the tests and the benchmark has at most 6,001.
MAX_NODES = 1_000_001


@dataclass(frozen=True)
class Grid1D:
    """Uniform window of n nodes x_i = x_left + i*dx, 8 <= n <= MAX_NODES."""

    x_left: float
    dx: float
    n: int

    def __post_init__(self):
        if not math.isfinite(self.x_left):
            raise ValueError(f"x_left must be finite, got {self.x_left!r}")
        if not (self.dx > 0.0 and math.isfinite(self.dx)):
            raise ValueError(f"dx must be positive, got {self.dx!r}")
        if self.n < 8:
            raise ValueError(f"need at least 8 nodes, got {self.n}")
        if self.n > MAX_NODES:
            raise ValueError(f"need at most {MAX_NODES} nodes, got {self.n}")
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
    """Reference frame moving with the front law s(t) = c t - r log(t + t0).

    s(t) maps grid coordinates to lab coordinates, x_lab = x_grid + s(t).
    The lab frame is c = r = 0, a speed-c moving frame r = 0, and the
    log-shifted frame r = 1/2 or 3/2, the paper's delays; with r = 0 the
    log term is +0 and leaves c t and c exactly as they are.
    """

    c: float = 0.0
    r: float = 0.0
    t0: float = 1.0

    def __post_init__(self):
        if self.r not in (0.0, 0.5, 1.5):
            raise ValueError(f"log-shift exponent r must be 0, 1/2 or 3/2, got {self.r!r}")
        if not self.t0 >= 1.0:
            raise ValueError(f"log-shift t0 must be >= 1, got {self.t0!r}")

    @staticmethod
    def lab() -> "Frame":
        return Frame()

    @staticmethod
    def moving(c: float) -> "Frame":
        return Frame(c=float(c))

    @staticmethod
    def log_shifted(c: float, r: float = 0.5, t0: float = 1.0) -> "Frame":
        if r not in (0.5, 1.5):
            raise ValueError(f"log-shift exponent r must be 1/2 or 3/2, got {r!r}")
        return Frame(c=float(c), r=float(r), t0=float(t0))

    def shift(self, t: float) -> float:
        return self.c * t - self.r * math.log(t + self.t0)

    def drift(self, t: float) -> float:
        return self.c - self.r / (t + self.t0)

    def drift_bound(self) -> float:
        return max(abs(self.c), abs(self.c - self.r / self.t0))


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
        for pad in (self.left_pad, self.right_pad):
            if not (pad > 0.0 and math.isfinite(pad)):
                raise ValueError(f"window pads must be positive and finite, got {pad!r}")


@dataclass(frozen=True)
class SimConfig:
    """One run: model, grid, frame, initial data and step settings.

    epsilon is the width of the regularized ramp that the scheme
    differences in place of the local model's Heaviside flux; it is set
    for local_u and None for every other model, whose flux follows from
    the model alone.
    """

    model: Model
    chi_params: ChiParams
    grid: Grid1D
    frame: Frame
    init: InitPreset
    t_end: float
    cfl_sigma: float = 0.6
    epsilon: float | None = None
    window: WindowPolicy = WindowPolicy()
    front_theta: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.cfl_sigma < 1.0):
            raise ValueError(f"cfl_sigma must lie in (0, 1), got {self.cfl_sigma!r}")
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end!r}")
        if not (0.0 < self.front_theta < 0.5):
            raise ValueError(f"front_theta must lie in (0, 1/2), got {self.front_theta!r}")
        if (self.epsilon is None) is (self.model is Model.LOCAL_U):
            raise ValueError("epsilon is set for the local model and only for it")
        if self.epsilon is not None and not (0.0 < self.epsilon < 0.5):
            raise ValueError(f"effective epsilon {self.epsilon!r} outside (0, 1/2); adjust dx or epsilon")
        lip = self.chi_params.chi * self.flux_lipschitz()
        dx = self.grid.dx
        # Monotonicity of the centered advection needs mesh Peclet < 1.
        if lip * dx / 2.0 >= 1.0:
            raise ValueError("mesh Peclet number chi*Lip(A)*dx/2 >= 1; refine dx or widen epsilon")
        if self.frame.drift_bound() * dx / 2.0 >= 1.0:
            raise ValueError("frame drift mesh Peclet number >= 1; refine dx")
        # the right neighbour's weight loses both the flux and a backward drift
        if (lip + max(0.0, self.frame.r / self.frame.t0 - self.frame.c)) * dx / 2.0 >= 1.0:
            raise ValueError("mesh Peclet number (chi*Lip(A) + backward drift)*dx/2 >= 1; refine dx")

    def flux_lipschitz(self) -> float:
        """Lip(A) of the flux the scheme differences: 1/eps for the local
        model, 1 for the ramp, 0 for the FKPP reference (no flux)."""
        if self.model is Model.FKPP:
            return 0.0
        if self.model is Model.LOCAL_U:
            return 1.0 / self.epsilon
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
    cfl_sigma: float = SimConfig.cfl_sigma,
    epsilon_mode: str = "grid_tied",
    epsilon: float = 2.0,
    left_pad: float = WindowPolicy.left_pad,
    right_pad: float = WindowPolicy.right_pad,
    front_theta: float = SimConfig.front_theta,
    frame_r: float = 0.5,
    frame_t0: float = 100.0,
    gaussian_center: float = 0.0,
    gaussian_width: float = 1.0,
) -> SimConfig:
    """Assemble a SimConfig from plain scalars (CLI and test convenience).

    epsilon is the local model's regularization width itself
    (epsilon_mode "fixed") or its multiple of dx ("grid_tied"); it is
    validated for every model and resolved for local_u only.
    """
    model = Model(model) if not isinstance(model, Model) else model
    cp = minimal_speed(chi)
    for name, value in (("width", width), ("dx", dx)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    # a ratio that overflows to inf fails this test too
    if not width / dx <= MAX_NODES - 1:
        raise ValueError(f"width {width!r} at dx {dx!r} needs more than {MAX_NODES} nodes")
    n = int(round(width / dx)) + 1
    grid = Grid1D(x_left=float(x_left), dx=float(dx), n=n)
    if frame == "lab":
        frame = Frame.lab()
    elif frame == "moving":
        frame = Frame.moving(cp.c_star)
    elif frame == "log_shifted":
        frame = Frame.log_shifted(cp.c_star, r=frame_r, t0=frame_t0)
    elif not isinstance(frame, Frame):
        raise ValueError(f"frame must be lab, moving or log_shifted, got {frame!r}")
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
    epsilon = float(epsilon)
    if epsilon_mode == "fixed":
        if not (0.0 < epsilon < 0.5):
            raise ValueError(f"fixed epsilon must lie in (0, 1/2), got {epsilon!r}")
    elif epsilon_mode == "grid_tied":
        if epsilon < 1.0:
            raise ValueError(f"grid-tied multiple must be >= 1, got {epsilon!r}")
        epsilon *= grid.dx
    else:
        raise ValueError(f"epsilon_mode must be fixed or grid_tied, got {epsilon_mode!r}")
    return SimConfig(
        model=model,
        chi_params=cp,
        grid=grid,
        frame=frame,
        init=init,
        t_end=float(t_end),
        cfl_sigma=float(cfl_sigma),
        epsilon=epsilon if model is Model.LOCAL_U else None,
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
    i = (field >= level).tobytes().rfind(1)  # the last node at or above it, -1 for none
    if i < 0 or i == field.size - 1:
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

    They share model, grid, step, end time, regularization width and
    frame; the flux follows from the model and that width.
    """
    return (
        cfg.model,
        cfg.grid.n,
        cfg.grid.dx,
        stable_dt(cfg),
        cfg.t_end,
        cfg.epsilon,
        cfg.frame,
    )


def step(state: SimState, cfg: SimConfig, dt: float) -> SimState:
    """One forward-Euler update; dt must respect stable_dt(cfg)."""
    if not (0.0 < dt <= stable_dt(cfg) * (1.0 + 1e-9)):
        raise ValueError(f"dt {dt!r} violates the stability bound {stable_dt(cfg)!r}")
    kern = _Kernel([cfg], [state.field])
    guarded = kern.advance((state.t,), dt)[1]
    clips = 0 if guarded is None else guarded[0]
    if isinstance(clips, str):
        raise RuntimeError(f"step at t = {state.t:.6g} failed: {clips}")
    return SimState(
        t=state.t + dt,
        x_left=state.x_left,
        field=kern.cur,
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
    """The members of a run_batch that are still running: the kernel
    that holds their rows, their window origins and their clip counts."""

    def __init__(self, cfgs: Sequence[SimConfig], observers: Sequence[Sequence[Observer]]):
        states = [make_state(cfg) for cfg in cfgs]
        self.cfgs = cfgs
        self.observers = observers
        self.n = cfgs[0].grid.n
        self.live = list(range(len(cfgs)))
        self.x_left = [s.x_left for s in states]
        self.clips = [0] * len(cfgs)
        self.results: list = [None] * len(cfgs)
        self.kern = _Kernel(cfgs, [s.field for s in states])

    def row(self, j: int) -> np.ndarray:
        return self.kern.cur[j * self.n : (j + 1) * self.n]

    def drop(self, failures: dict) -> None:
        """Record {row: error} and step the rows left in a new kernel."""
        for j, err in failures.items():
            self.results[self.live[j]] = err
        keep = [j for j in range(len(self.live)) if j not in failures]
        self.live = [self.live[j] for j in keep]
        if self.live:
            self.kern = _Kernel([self.cfgs[i] for i in self.live], self.kern.cur.reshape(-1, self.n)[keep])

    def emit(self, t: float) -> None:
        failures = {}
        for j, i in enumerate(self.live):
            view = self.row(j)
            view.flags.writeable = False
            snap = SimState(t=t, x_left=self.x_left[i], field=view, clip_count=self.clips[i])
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

    def advance(self, k0: int, k1: int, dt: float, h: float) -> int:
        """Take steps k0 .. k1 - 1, step k of length h from t = k dt, and
        return the last one taken: k1 - 1, or the first whose guard
        tripped, after its rows were clipped or dropped."""
        taken, guarded = self.kern.advance((k * dt for k in range(k0, k1)), h)
        k = k0 + taken - 1
        if guarded is None:
            return k
        failures = {}
        for j, clips in enumerate(guarded):
            if isinstance(clips, str):
                failures[j] = RuntimeError(f"step {k} at t = {k * dt:.6g} failed: {clips}")
            else:
                self.clips[self.live[j]] += clips
        if failures:
            self.drop(failures)
        return k


def _emit_step(k: int, last: int, dt: float, next_emit: float) -> int:
    """The first step j in k .. last after which run_batch emits, the
    first with (j + 1) dt >= next_emit - 1e-9, or last."""
    due = next_emit - 1e-9
    ratio = due / dt
    j = last if not ratio < last + 1 else max(k, math.ceil(ratio) - 1)
    # (j + 1) dt is monotone in j: step onto the first j that passes
    while j > k and j * dt >= due:
        j -= 1
    while j < last and (j + 1) * dt < due:
        j += 1
    return j


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
    Any other error of an observer, such as the ValueError of a write
    into the read-only field, leaves run_batch.
    """
    if not (trace_every > 0.0 and math.isfinite(trace_every)):
        raise ValueError(f"trace_every must be positive and finite, got {trace_every!r}")
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
        last = n_steps - 1
        k = 0
        while k < n_steps and batch.live:
            # step to the next event: a recentre, an emit or the last step,
            # which alone takes dt_last
            event = _emit_step(k, last, dt, next_emit)
            if recenter:
                event = min(event, (k // recheck + 1) * recheck - 1)
            if k < last:
                k = batch.advance(k, min(event, last - 1) + 1, dt, dt)
            else:
                k = batch.advance(k, n_steps, dt, dt_last)
            # step k is an event, or a step whose guard tripped and none is due
            if recenter and (k + 1) % recheck == 0:
                batch.recenter()
            if k == last:
                batch.emit(t_end)
            elif (k + 1) * dt >= next_emit - 1e-9:
                t_new = (k + 1) * dt
                batch.emit(t_new)
                while next_emit <= t_new + 1e-9:
                    next_emit += trace_every
            k += 1
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

    Observers are invoked at t = 0, at the first step at or past each
    multiple of trace_every (the multiple itself only where dt divides
    it), and at the final time, with a SimState whose field is a
    read-only view of the live row: they read the run and cannot change
    it, and one that raises RuntimeError ends the run with it.  The
    window recenters so the front keeps the configured pads; newly
    exposed cells are filled with the boundary rule of the model.
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
        return centered_slope(-state.field, cfg.grid.dx)
    raise ValueError("rho is a nonlocal-model quantity")


def centered_slope(v: np.ndarray, dx: float) -> np.ndarray:
    """v_x by centered differences inside, one-sided at the two ends."""
    s = np.empty_like(v)
    s[1:-1] = (v[2:] - v[:-2]) * (0.5 / dx)
    s[0] = (v[1] - v[0]) / dx
    s[-1] = (v[-1] - v[-2]) / dx
    return s
