"""Acceptance suite: one test per numbered criterion, each printing a single
pass/fail line that the terminal summary collects.

Criteria are checked at their stated tolerances against the session-scoped
reference runs from conftest.  Nothing here relaxes a bound: a criterion that
cannot hold as stated is asserted as stated and allowed to fail.
"""

import json
import math
import time

import numpy as np
import pytest

from r2ch import (
    FieldState,
    InitialDataSpec,
    PhysParams,
    ProfileTerm,
    SpectralKernel,
    advect,
    argmax_jump_mask,
    build_certificate,
    build_grid,
    constant_C,
    deriv,
    detect_blowup,
    estimate_T,
    gamma_decay_error,
    jacobian_consistency,
    k2_bound,
    lemma31_ceiling,
    monitor_bounds,
    ode_residuals,
    rate_check,
    rhs,
    sample_along,
    sup_transport_error,
    synthesize,
    thm41_certificate,
    thm42_certificate,
    thm42_constant_N,
    track_extremum,
    step,
    track_from_rows,
)
from r2ch import crosscheck
from r2ch.characteristics import ExtremumTrack
from r2ch.cli import main, read_diagnostics_csv
from r2ch.crosscheck import direct_conv_oracle, helmholtz_conv, helmholtz_conv_dx

from conftest import breaking_problem, cubic_moment_problem, smooth_problem


def _mark(ok):
    return "PASS" if ok else "FAIL"


def test_criterion_01_kernel_oracle(accept):
    t0 = time.perf_counter()
    grid = build_grid(20.0, 4096)
    worst = 0.0
    for center, width in ((0.0, 2.0), (1.5, 0.8), (-4.0, 1.2)):
        f = np.exp(-(((grid.x - center) / width) ** 2))
        a = helmholtz_conv(f, grid)
        b = direct_conv_oracle(f, grid, "p")
        worst = max(worst, float(np.max(np.abs(a - b)) / np.max(np.abs(b))))
        a = helmholtz_conv_dx(f, grid)
        b = direct_conv_oracle(f, grid, "dxp")
        worst = max(worst, float(np.max(np.abs(a - b)) / np.max(np.abs(b))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    accept(
        f"criterion 1: {_mark(ok)} kernel oracle rel err {worst:.3e} "
        f"(tol 1e-8, {elapsed:.2f} s)"
    )
    assert ok


def test_criterion_02_rest_state(accept):
    grid = build_grid(20.0, 2048)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        A = rng.uniform(-0.9, 0.9)
        Om = rng.uniform(0.0, 0.45)
        while 1.0 - 2.0 * Om * A <= 0.05:
            A, Om = rng.uniform(-0.9, 0.9), rng.uniform(0.0, 0.45)
        p = PhysParams(A=A, sigma=rng.uniform(-2, 2), mu=rng.uniform(-1, 1), Omega=Om)
        st = FieldState(0.0, np.zeros(grid.n), np.zeros(grid.n))
        td = rhs(st, p, grid)
        worst = max(
            worst, float(np.max(np.abs(td.du_dt))), float(np.max(np.abs(td.deta_dt)))
        )
    ok = worst <= 1e-12
    accept(f"criterion 2: {_mark(ok)} rest-state max |rhs| {worst:.3e} (tol 1e-12)")
    assert ok


def test_criterion_03_energy_conservation(accept, smooth_run):
    E = np.array([r.E for r in smooth_run.rows])
    drift = float(np.max(np.abs(E - E[0])) / E[0])
    ok = drift <= 1e-6 and smooth_run.termination.event == "reached_t_end"
    accept(
        f"criterion 3: {_mark(ok)} energy drift {drift:.3e} over t=5 (tol 1e-6)"
    )
    assert ok


def test_criterion_04_integrator_order(accept):
    params, grid, spec = smooth_problem()
    state0 = synthesize(spec, grid)
    kernel = SpectralKernel(params, grid)

    def final_u(dt):
        # fixed dt through the public step; the last step ends at t = 1
        state = state0
        while state.t < 1.0:
            state, _ = step(state, min(dt, 1.0 - state.t), kernel)
        return state.u

    ref = final_u(2e-3)
    errs = [float(np.max(np.abs(final_u(dt) - ref))) for dt in (0.04, 0.02, 0.01)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = min(orders) >= 3.8
    accept(
        f"criterion 4: {_mark(ok)} observed orders "
        f"{orders[0]:.2f}, {orders[1]:.2f} under dt halving (need >= 3.8)"
    )
    assert ok


def test_criterion_05_ceiling(accept, positive_sigma_matrix):
    worst_margin = math.inf
    for rec, cert, _ in positive_sigma_matrix:
        for r in rec.rows:
            worst_margin = min(worst_margin, cert.lemma31_ceiling - r.sup_ux)
    ok = worst_margin >= -1e-6
    accept(
        f"criterion 5: {_mark(ok)} slope ceiling margin >= {worst_margin:.3e} "
        f"across 12 sigma>0 runs (tol -1e-6)"
    )
    assert ok


def test_criterion_06_forcing_bound(accept, smooth_run, positive_sigma_matrix):
    params, grid, spec = smooth_problem()
    state0 = synthesize(spec, grid)
    cert_smooth = build_certificate(state0, params, grid)
    worst = -math.inf
    for rec, cert in [(smooth_run, cert_smooth)] + [
        (rec, cert) for rec, cert, _ in positive_sigma_matrix
    ]:
        bound = 0.5 * cert.C**2
        for r in rec.rows:
            worst = max(worst, r.f_sup_abs - bound)
    ok = worst <= 1e-6
    accept(
        f"criterion 6: {_mark(ok)} forcing excess over C^2/2 at most {worst:.3e} "
        f"across 13 runs (tol 1e-6)"
    )
    assert ok


def test_criterion_07_density_bound(accept, positive_sigma_matrix):
    worst = -math.inf
    for rec, cert, _ in positive_sigma_matrix:
        track = track_from_rows(rec, "sup")
        nonneg = track.M >= 0.0
        # the bound applies on the initial stretch where M stays nonnegative
        upto = int(np.argmin(nonneg)) if not nonneg.all() else nonneg.size
        if upto == 0:
            continue
        worst = max(
            worst, float(np.max(np.abs(track.gamma[:upto]))) - cert.rho0_sup
        )
    ok = worst <= 1e-6
    accept(
        f"criterion 7: {_mark(ok)} density excess over sup rho0 at most "
        f"{worst:.3e} while M >= 0 (tol 1e-6)"
    )
    assert ok


def test_criterion_08_characteristics(accept, smooth_run):
    grid = smooth_run.grid
    traj = advect(grid.x[1:].copy(), smooth_run, substeps=1)
    jc = jacobian_consistency(traj)
    te = sup_transport_error(traj, smooth_run, stride=5)
    ok = jc <= 1e-6 and te <= 1e-6
    accept(
        f"criterion 8: {_mark(ok)} jacobian consistency {jc:.3e}, "
        f"sup transport error {te:.3e} (tol 1e-6 each)"
    )
    assert ok


def test_criterion_09_extremum_ode(accept, smooth_run):
    # slope/forcing residual along the argmax track, away from jump instants
    track = track_extremum(smooth_run, "sup")
    res_M, _ = ode_residuals(track, smooth_run.params)
    keep = ~argmax_jump_mask(track, smooth_run.grid)
    keep[0] = keep[-1] = False  # one-sided difference endpoints
    res_m_max = float(np.max(np.abs(res_M[keep])))

    # density decay is exact along a flow characteristic; seed at the
    # initial argmax and sample the fields along the path
    traj = advect(np.array([track.xi[0]]), smooth_run, substeps=2)
    char = ExtremumTrack(
        branch="sup",
        t=traj.times,
        xi=traj.path[:, 0],
        M=sample_along(traj, smooth_run, "u_x")[:, 0],
        gamma=sample_along(traj, smooth_run, "rho")[:, 0],
        f_along=np.full(traj.times.size, math.nan),
    )
    _, res_gamma = ode_residuals(char, smooth_run.params)
    res_g_max = float(np.max(np.abs(res_gamma[1:-1])))
    decay = gamma_decay_error(char)
    ok = res_m_max <= 1e-3 and res_g_max <= 1e-3 and decay <= 1e-5
    accept(
        f"criterion 9: {_mark(ok)} residuals M {res_m_max:.3e}, "
        f"gamma {res_g_max:.3e} (tol 1e-3); decay mismatch {decay:.3e} (tol 1e-5)"
    )
    assert ok


def test_criterion_10_steep_slope_blowup(accept, breaking_run):
    rec, cert = breaking_run
    t41 = cert.thm41
    certified = t41 is not None and t41.u0x_at_witness >= 1.2 * t41.threshold
    detected = rec.termination.event == "blowup_detected"
    event = detect_blowup(rec.rows, rec.params.sigma, rec.settings.blowup_threshold)
    track = track_from_rows(rec, "sup")
    violations = monitor_bounds(rec, cert, track, rec.params)
    fit = estimate_T(rec.rows, rec.params, "sup", (20.0, 200.0))
    # no solution starting at sup u0x = s breaks before the Riccati comparison
    # solution of M' = (-sigma/2) M^2 + K2 does
    a, s = -rec.params.sigma / 2.0, t41.u0x_at_witness
    T_lower = math.atan(math.sqrt(cert.K2 / a) / s) / math.sqrt(a * cert.K2)
    lifespan_ok = fit.reliable and T_lower <= fit.T_est <= t41.T1_bound
    stated_refuted = t41.T1_bound_stated < T_lower
    ok = (
        certified and detected and event is not None and not violations
        and lifespan_ok and stated_refuted
    )
    accept(
        f"criterion 10: {_mark(ok)} steep-slope run: certified x1.2 {_mark(certified)}, "
        f"blow-up detected {_mark(detected)}, monotone violations {len(violations)}, "
        f"T_lower {T_lower:.4f} <= T_est {fit.T_est:.4f} <= T1 {t41.T1_bound:.4f} "
        f"{_mark(lifespan_ok)}; stated T1 {t41.T1_bound_stated:.4f} < T_lower "
        f"{_mark(stated_refuted)}"
    )
    assert certified, "initial slope must exceed 1.2x the certified threshold"
    assert detected and event is not None, "run must terminate on blow-up detection"
    assert not violations, "M must be nondecreasing after crossing the threshold"
    assert fit.reliable
    assert T_lower <= fit.T_est <= t41.T1_bound, (
        f"T_est {fit.T_est} outside [T_lower {T_lower}, T1 {t41.T1_bound}]"
    )
    assert stated_refuted, (
        f"stated T1 {t41.T1_bound_stated} not below T_lower {T_lower}"
    )


def test_criterion_11_cubic_moment_blowup(accept, cubic_moment_run):
    rec, cert = cubic_moment_run
    params, grid, _ = cubic_moment_problem()

    # amplitude scan: locate the weakest profile meeting the moment condition
    scan = {}
    for a in (-4.0, -8.0, -12.0):
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("slope_bump", a, 0.02, 0.0),),
            eta_terms=(ProfileTerm("eta_bump", -1.0, 0.1, 0.0),),
        )
        st0 = synthesize(spec, grid)
        c = build_certificate(st0, params, grid, M_assumed=1.05)
        scan[a] = c.thm42.condition_met
    located = scan[-12.0] and not scan[-4.0]

    t42 = cert.thm42
    assert t42.condition_met and t42.T_bound is not None
    observed_rho = max(r.max_rho for r in rec.rows)
    validated = observed_rho <= t42.M_assumed
    detected = rec.termination.event == "blowup_detected"
    fit = estimate_T(rec.rows, rec.params, "inf", (14.0, 24.0))
    lifespan_ok = fit.reliable and fit.T_est <= t42.T_bound

    # sampled Riccati inequality on the cubic moment
    t = np.array([r.t for r in rec.rows])
    m3 = np.array([r.m3 for r in rec.rows])
    dm3 = np.gradient(m3, t)
    rhs_bound = -(m3**2) / (2.0 * cert.E0) + t42.N
    tol = 1e-3 * (t42.N + m3**2 / (2.0 * cert.E0))
    n_bad = int(np.sum(dm3[1:-1] > (rhs_bound + tol)[1:-1]))

    ok = located and validated and detected and lifespan_ok and n_bad == 0
    accept(
        f"criterion 11: {_mark(ok)} moment condition located by scan {_mark(located)}, "
        f"rho sup {observed_rho:.4f} <= M_assumed {t42.M_assumed} {_mark(validated)}, "
        f"blow-up {_mark(detected)}, T_est {fit.T_est:.4f} <= T {t42.T_bound:.4f} "
        f"{_mark(lifespan_ok)}, Riccati violations {n_bad}"
    )
    assert ok


def test_criterion_12_breaking_rate(accept, breaking_run):
    rec, _ = breaking_run
    fit = estimate_T(rec.rows, rec.params, "sup", (20.0, 200.0))
    slope_err = abs(fit.slope_est - (-0.5)) / 0.5
    track = track_from_rows(rec, "sup")
    rate = rate_check(track, fit.T_est, rec.params, window=(20.0, 200.0))
    mean_err = rate.rel_error
    ok = fit.reliable and slope_err <= 0.15 and mean_err <= 0.10
    accept(
        f"criterion 12: {_mark(ok)} reciprocal slope {fit.slope_est:.4f} "
        f"(err {slope_err:.1%}, tol 15%); (T_est - t) M mean {rate.final_mean:.4f} "
        f"vs 2 (err {mean_err:.1%}, tol 10%)"
    )
    assert ok


def test_criterion_13_double_entry(accept):
    rng = np.random.default_rng(20240823)
    grid = build_grid(5.0, 256)
    worst = 0.0

    def note(a, b):
        nonlocal worst
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300))

    for _ in range(1000):
        A = rng.uniform(-0.9, 0.9)
        Om = rng.uniform(0.0, 0.45)
        while 1.0 - 2.0 * Om * A <= 0.05:
            A, Om = rng.uniform(-0.9, 0.9), rng.uniform(0.0, 0.45)
        sigma = rng.uniform(-3, 3)
        mu = rng.uniform(-1, 1)
        p = PhysParams(A=A, sigma=sigma, mu=mu, Omega=Om)
        E0 = rng.uniform(0.01, 5)
        rs = rng.uniform(0, 3)
        C = constant_C(E0, rs, p)
        note(C, crosscheck.constant_C_alt(E0, rs, A, sigma, mu, Om))
        note(k2_bound(C, rs, p), crosscheck.k2_alt(C, rs, A, Om))
        if sigma > 0:
            u0x = rng.uniform(0, 3)
            note(
                lemma31_ceiling(u0x, rs, C, p),
                crosscheck.lemma31_ceiling_alt(u0x, rs, C, A, sigma, Om),
            )
        if sigma < 0:
            amp = rng.uniform(1.5, 3.0) * C / math.sqrt(-sigma)
            spec = InitialDataSpec(
                u_terms=(ProfileTerm("slope_bump", amp, 0.2, 0.0),),
                decay_tol=1.0,
            )
            u0 = synthesize(spec, grid).u
            t41 = thm41_certificate(grid, C, p, u0x=deriv(u0, grid))
            if t41 is not None:
                s = t41.u0x_at_witness
                note(t41.T1_bound, crosscheck.t1_bound_alt(s, C, sigma))
                note(
                    t41.T1_bound_stated,
                    crosscheck.t1_bound_stated_alt(s, C, sigma),
                )
        pN = PhysParams(A=A, sigma=1.0, mu=0.0, Omega=Om)
        M = rng.uniform(0, 3)
        N = thm42_constant_N(E0, M, pN)
        note(N, crosscheck.thm42_N_alt(E0, M, A, Om))
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("slope_bump", -rng.uniform(2, 6), 0.2, 0.0),),
            decay_tol=1.0,
        )
        u0 = synthesize(spec, grid).u
        t42 = thm42_certificate(grid, N, E0, u0x=deriv(u0, grid))
        if t42.T_bound is not None:
            note(t42.T_bound, crosscheck.thm42_T_alt(t42.m0, E0, N))

    ok = worst <= 1e-12
    accept(
        f"criterion 13: {_mark(ok)} double-entry max rel diff {worst:.3e} "
        f"over 1000 random inputs (tol 1e-12)"
    )
    assert ok


CONFIG_SMOOTH = """\
params.A = 0.5
params.sigma = 1.0
params.mu = 0.2
params.Omega = 0.1
grid.L = 20
grid.n = 4096
init.u = gaussian_bump(a=0.3, w=2.0)
init.eta = eta_bump(b=0.1, w=2.0)
run.t_end = 5.0
run.dt_max = 0.02
run.snapshot_cadence = 0
run.diag_stride = 10
"""


def test_criterion_14_determinism(accept, tmp_path):
    cfg = tmp_path / "smooth.cfg"
    cfg.write_text(CONFIG_SMOOTH)
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        blobs.append(
            (
                (out / "diagnostics.csv").read_bytes(),
                (out / "verdict.json").read_bytes(),
            )
        )
    ok = blobs[0] == blobs[1]
    rows = read_diagnostics_csv(str(tmp_path / "a" / "diagnostics.csv"))
    verdict = json.loads(blobs[0][1])
    ok = ok and rows[-1].t == pytest.approx(5.0) and verdict["exit_code"] == 0
    accept(
        f"criterion 14: {_mark(ok)} repeated runs byte-identical "
        f"(diagnostics.csv {len(blobs[0][0])} bytes, verdict.json "
        f"{len(blobs[0][1])} bytes)"
    )
    assert ok
