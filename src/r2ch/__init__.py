"""Wave-breaking simulator and certificate checker for a rotation-modified
two-component Camassa-Holm shallow-water system on a truncated line.

Layers:

- model: parameters, grid, field state, initial-data profiles
- spectral: spectral derivative, the batched stepping kernel, the forcing field
- evolution: adaptive embedded Runge-Kutta time stepping and diagnostics
- characteristics: Lagrangian trajectories, extremum tracking, ODE residuals
- certificates: closed-form blow-up certificates and runtime monitors
- crosscheck: the oracles (second transcriptions, single-field kernel
  convolutions, quadrature oracle) and the selftest suite; import it as
  ``r2ch.crosscheck``, ``import r2ch`` does not load it
- cli: batch front end (run | certify | rate | sweep | selftest)
"""

from .model import (
    DecayViolation,
    FieldState,
    Grid,
    InitialDataSpec,
    PhysParams,
    ProfileTerm,
    boundary_leak,
    build_grid,
    synthesize,
)
from .spectral import SpectralKernel, deriv, eval_f
from .evolution import (
    BlowupEvent,
    BreakingTimeFit,
    DiagnosticRow,
    FitWindowError,
    NonFiniteState,
    RunRecord,
    RunSettings,
    Termination,
    detect_blowup,
    estimate_T,
    energy,
    refined_extremum,
    rhs,
    run,
    step,
)
from .characteristics import (
    ExtremumTrack,
    SnapshotCadenceError,
    Trajectory,
    advect,
    argmax_jump_mask,
    gamma_decay_error,
    jacobian_consistency,
    ode_residuals,
    sample_along,
    sup_transport_error,
    track_extremum,
    track_from_rows,
)
from .certificates import (
    Certificate,
    RateCheck,
    Thm41Certificate,
    Thm42Certificate,
    Violation,
    build_certificate,
    constant_C,
    k2_bound,
    lemma31_ceiling,
    monitor_bounds,
    rate_check,
    thm41_certificate,
    thm42_certificate,
    thm42_constant_N,
)

__version__ = "0.1.0"

__all__ = [
    "DecayViolation",
    "FieldState",
    "Grid",
    "InitialDataSpec",
    "PhysParams",
    "ProfileTerm",
    "boundary_leak",
    "build_grid",
    "synthesize",
    "SpectralKernel",
    "deriv",
    "eval_f",
    "BlowupEvent",
    "BreakingTimeFit",
    "DiagnosticRow",
    "FitWindowError",
    "NonFiniteState",
    "RunRecord",
    "RunSettings",
    "Termination",
    "detect_blowup",
    "estimate_T",
    "refined_extremum",
    "rhs",
    "run",
    "step",
    "ExtremumTrack",
    "SnapshotCadenceError",
    "Trajectory",
    "advect",
    "argmax_jump_mask",
    "gamma_decay_error",
    "jacobian_consistency",
    "ode_residuals",
    "sample_along",
    "sup_transport_error",
    "track_extremum",
    "track_from_rows",
    "Certificate",
    "RateCheck",
    "Thm41Certificate",
    "Thm42Certificate",
    "Violation",
    "build_certificate",
    "constant_C",
    "energy",
    "k2_bound",
    "lemma31_ceiling",
    "monitor_bounds",
    "rate_check",
    "thm41_certificate",
    "thm42_certificate",
    "thm42_constant_N",
]
