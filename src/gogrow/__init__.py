"""Numerical laboratory for go-or-grow aerotaxis fronts.

Closed-form traveling waves and wave-profile functions, a monotone
explicit solver for the local and nonlocal models, front and shape-defect
diagnostics, and the front-delay verification layer.
"""

from .lambertw import lambert_w_minus1
from .profiles import (
    ChiParams,
    RegularizationConstants,
    eta_local,
    eta_nonlocal,
    eta_regularized,
    flux,
    minimal_speed,
    q_and_r,
    regularization_constants,
    traveling_wave,
)
from .solver import (
    Frame,
    Grid1D,
    InitPreset,
    Model,
    SimConfig,
    SimState,
    WindowPolicy,
    cumulative_mass,
    make_config,
    make_state,
    run,
    stable_dt,
    step,
)
from .diagnostics import (
    FrontTrace,
    MomentKind,
    TraceRecorder,
    exponential_moment,
    front_location,
    min_shape_defect,
    rankine_hugoniot_residual,
    shape_defect,
    weighted_defect_sup,
)
from .asymptotics import (
    DelayFit,
    SupersolutionParams,
    check_envelopes,
    fit_front_delay,
    fkpp_reference,
    supersolution_pp_local,
    supersolution_pulled,
    theoretical_delay,
)

__version__ = "0.1.0"
