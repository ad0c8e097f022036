"""Wave breaking from a steep negative-sigma slope, with certificates.

For sigma < 0 an initial profile whose slope exceeds C / sqrt(-sigma) at some
point is certified to break: the slope maximum M(t) then grows monotonically
and reaches any detection threshold in finite time.  This script builds the
a-priori certificate, runs until detection, extrapolates the breaking time
from the reciprocal-slope fit, and checks the predicted blow-up rate
(T - t) * M(t) -> -2/sigma.

The certified lifespan bound T1 comes from comparing M(t) with a Riccati
solution and bounds the breaking time from above.  The paper's displayed
expression is printed alongside it for reference: it lies below the earliest
breaking time the forcing bound allows, so it is not a lifespan bound.

Run:  python3 demos/02_wave_breaking.py
"""

from r2ch import (
    InitialDataSpec,
    PhysParams,
    ProfileTerm,
    RunSettings,
    build_certificate,
    build_grid,
    estimate_T,
    monitor_bounds,
    rate_check,
    run,
    synthesize,
    track_from_rows,
)

params = PhysParams(A=0.5, sigma=-1.0, mu=0.0, Omega=0.1)
# the breaking front narrows like M^{-3/2}; resolving growth to M = 50
# starting from a width-0.1 bump needs this many points
grid = build_grid(half_length=5.0, n=2**14)
spec = InitialDataSpec(u_terms=(ProfileTerm("slope_bump", 9.0, 0.1, 0.0),))
state0 = synthesize(spec, grid)

cert = build_certificate(state0, params, grid)
print(f"energy E0            = {cert.E0:.6f}")
print(f"forcing constant C   = {cert.C:.6f}")
print(f"breaking threshold   = {cert.thm41.threshold:.4f}  (C / sqrt(-sigma))")
print(f"witness slope        = {cert.thm41.u0x_at_witness:.4f} "
      f"at x0 = {cert.thm41.witness_x0:+.4f}")
print(f"lifespan bound T1    = {cert.thm41.T1_bound:.4f}  (comparison argument)")
print(f"stated expression    = {cert.thm41.T1_bound_stated:.4f}  (paper's display, not a bound)")

settings = RunSettings(
    t_end=0.5, tol=1e-8, blowup_threshold=50.0, dt_max=0.01,
    snapshot_cadence=0, diag_stride=2, dense_diag_above=15.0,
)
rec = run(state0, params, grid, settings)
print(f"\ntermination: {rec.termination.event} at t = {rec.termination.t:.4f}")

fit = estimate_T(rec.rows, params, "sup", (20.0, 200.0))
print(f"extrapolated T_est   = {fit.T_est:.4f}  "
      f"(reciprocal slope {fit.slope_est:.4f}, target sigma/2 = -0.5)")

track = track_from_rows(rec, "sup")
violations = monitor_bounds(rec, cert, track, params)
print(f"monotonicity monitor: {len(violations)} violations after threshold")

rate = rate_check(track, fit.T_est, params, window=(20.0, 200.0))
print(f"rate product mean    = {rate.final_mean:.4f}  "
      f"(target {rate.target:.1f}, rel error {rate.rel_error:.1%})")
