"""The oracles: independent transcriptions and the checks against them.

Every closed-form certificate formula and the tendency have a second
transcription here, written term by term from the displayed formulas and
structured unlike ``certificates`` and ``evolution`` (explicit term lists,
no shared helpers, one unbatched transform per product); none uses those
modules.  The single-field convolutions ``helmholtz_conv`` and
``helmholtz_conv_dx`` check the batched ``SpectralKernel``, and
``direct_conv_oracle`` (a physical-space quadrature against the closed-form
periodized kernel, sharing only the grid) checks them.  ``profile_dx`` is
the analytic slope of an initial-data bump; ``reflection_defect`` checks the
tendency against an exact symmetry.  ``selftest_checks`` runs the checks,
looking the production functions up in their modules at call time; it and
the tests require 1e-12 relative for the formulas and 1e-13 of max |du/dt|
for the tendency and its reflection.
"""

from __future__ import annotations

import math

import numpy as np

from . import certificates as cert_mod, evolution
from .model import (
    FieldState, Grid, InitialDataSpec, PhysParams, ProfileTerm, build_grid, synthesize,
)
from .spectral import _check, deriv


def half_c_squared_terms(
    E0: float, rho_sup: float, A: float, sigma: float, mu: float, Omega: float
) -> list[float]:
    """The individual summands of C^2/2, one list entry per displayed term."""
    d = 1.0 - 2.0 * Omega * A
    return [
        3.0 * (1.0 - Omega * A) / 2.0,
        ((A - mu) ** 2) / 4.0 * E0,
        abs(3.0 - sigma) / 2.0 * E0,
        (3.0 / 4.0) * E0,
        abs(sigma) / 4.0 * E0,
        (Omega / 2.0) * E0,
        3.0 * Omega / (4.0 * d) * E0,
        (Omega**2) / 2.0 * E0,
        (Omega**2) / 2.0 * rho_sup**4,
        (Omega / (4.0 * d)) * rho_sup * E0,
        (Omega / 4.0) * rho_sup * E0,
        (math.sqrt(2.0) * Omega / (4.0 * d)) * math.sqrt(E0) * E0,
    ]


def constant_C_alt(
    E0: float, rho_sup: float, A: float, sigma: float, mu: float, Omega: float
) -> float:
    return math.sqrt(2.0 * math.fsum(half_c_squared_terms(E0, rho_sup, A, sigma, mu, Omega)))


def lemma31_ceiling_alt(
    u0x_sup: float, rho_sup: float, C: float, A: float, sigma: float, Omega: float
) -> float:
    d = 1.0 - 2.0 * Omega * A
    return u0x_sup + math.sqrt((d * rho_sup * rho_sup + C * C) / sigma)


def t1_bound_alt(u0x_at_witness: float, C: float, sigma: float) -> float:
    """Proven lifespan bound via the effective Riccati coefficient
    -sigma/2 (1 - eps^4), eps^4 = C^2 / ((-sigma) u0x^2)."""
    s = u0x_at_witness
    eps4 = C * C / ((-sigma) * s * s)
    coeff = (-sigma) / 2.0 * (1.0 - eps4)
    return 1.0 / (coeff * s)


def t1_bound_stated_alt(u0x_at_witness: float, C: float, sigma: float) -> float:
    """The paper's displayed lifespan expression via the proof's delta
    parameter rather than the final displayed denominator."""
    s = u0x_at_witness
    delta = 0.5 + 0.5 * math.sqrt(C / (s * math.sqrt(-sigma)))
    return -1.0 / (sigma * delta * s)


def thm42_N_terms(E0: float, M: float, A: float, Omega: float) -> list[float]:
    d = 1.0 - 2.0 * Omega * A
    r2 = math.sqrt(2.0)
    return [
        (3.0 * M * M * d / 2.0) * E0,
        (9.0 / 4.0) * E0,
        (3.0 * r2 * Omega * M * M / 2.0) * E0 * math.sqrt(E0),
        (3.0 * r2 * Omega / (4.0 * d)) * E0 * E0 * math.sqrt(E0),
        ((6.0 + 3.0 * A * A + 6.0 * Omega * Omega) / 4.0) * E0 * E0,
        (3.0 * r2 * Omega / (2.0 * math.sqrt(d))) * E0 * E0,
        (3.0 * Omega * (1.0 - Omega * A) * (M + 1.0) / (2.0 * d)) * E0 * E0,
    ]


def thm42_N_alt(E0: float, M: float, A: float, Omega: float) -> float:
    return math.fsum(thm42_N_terms(E0, M, A, Omega))


def thm42_T_alt(m0: float, E0: float, N: float) -> float:
    s = math.sqrt(2.0 * E0 * N)
    if m0 + s >= 0:
        return math.nan
    return 0.5 * math.sqrt(2.0 * E0 / N) * math.log((s - m0) / (-s - m0))


def k2_alt(C: float, rho_sup: float, A: float, Omega: float) -> float:
    d = 1.0 - 2.0 * Omega * A
    return (d * rho_sup * rho_sup + C * C) / 2.0


def tendency_alt(
    u: np.ndarray, eta: np.ndarray, A: float, sigma: float, mu: float, Omega: float,
    half_length: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(du/dt, deta/dt) from the six dealiased products u^2, u_x^2, eta^2,
    rho^2 u, rho^2 u_x and u eta, each transformed on its own:

        du/dt = mu u_x - sigma/2 (u^2)_x
                - dx p * [(mu-A) u + (3-sigma)/2 u^2 + sigma/2 u_x^2
                          + (1-2 Omega A)(eta + eta^2/2) - Omega rho^2 u]
                + Omega p * (rho^2 u_x)
        deta/dt = -(u eta)_x - u_x
    """
    n = u.size
    k = (math.pi / half_length) * np.arange(n // 2 + 1)
    ik = 1j * k
    ik[-1] = 0.0
    symbol = 1.0 + k * k
    kept = np.arange(k.size) <= n // 3

    def product(a, b):
        h = np.fft.rfft(a * b)
        h[~kept] = 0.0
        return h

    uh, etah = np.fft.rfft(u), np.fft.rfft(eta)
    ux = np.fft.irfft(ik * uh, n)
    rho = 1.0 + eta
    d = 1.0 - 2.0 * Omega * A
    bracket = (
        (mu - A) * uh
        + (3.0 - sigma) / 2.0 * product(u, u)
        + sigma / 2.0 * product(ux, ux)
        + d * etah
        + d / 2.0 * product(eta, eta)
        - Omega * product(rho * rho, u)
    )
    du_hat = (
        mu * ik * uh
        - sigma / 2.0 * ik * product(u, u)
        - ik * bracket / symbol
        + Omega * product(rho * rho, ux) / symbol
    )
    deta_hat = -ik * (product(u, eta) + uh)
    return np.fft.irfft(du_hat, n), np.fft.irfft(deta_hat, n)


def helmholtz_conv(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Convolution with the kernel of (1 - d^2/dx^2)^{-1}, multiplier 1/(1+k^2)."""
    _check(field, grid)
    fh = np.fft.rfft(field)
    fh /= grid.helm
    return np.fft.irfft(fh, n=grid.n)


def helmholtz_conv_dx(field: np.ndarray, grid: Grid) -> np.ndarray:
    """d/dx of the Helmholtz convolution, multiplier ik/(1+k^2)."""
    _check(field, grid)
    fh = np.fft.rfft(field)
    fh *= grid.ik_helm
    return np.fft.irfft(fh, n=grid.n)


def periodized_kernel(x: np.ndarray, grid: Grid, kind: str = "p") -> np.ndarray:
    """Closed-form 2L-periodization of p = exp(-|x|)/2 or of its derivative.

    On |x| <= L:  p_L(x) = cosh(L - |x|) / (2 sinh L),
                  p_L'(x) = -sign(x) sinh(L - |x|) / (2 sinh L).
    """
    L = grid.half_length
    ax = np.abs(x)
    if kind == "p":
        return np.cosh(L - ax) / (2.0 * np.sinh(L))
    if kind == "dxp":
        return -np.sign(x) * np.sinh(L - ax) / (2.0 * np.sinh(L))
    raise ValueError(f"unknown kernel tag {kind!r}")


def direct_conv_oracle(field: np.ndarray, grid: Grid, kernel: str = "p") -> np.ndarray:
    """Physical-space convolution oracle: trapezoid rule against the closed-form
    periodized kernel, with the Euler-Maclaurin corner correction.

    The kernel has a derivative corner (kind "p") or a jump (kind "dxp") at
    lag zero, which sits exactly on a node; the leading dx^2 quadrature error
    there is known in closed form and is subtracted, leaving O(dx^4).
    """
    _check(field, grid)
    # kernel sampled at the n distinct lags, wrapped into [-L, L)
    lags = grid.dx * np.arange(grid.n)
    lags = (lags + grid.half_length) % (2.0 * grid.half_length) - grid.half_length
    w = periodized_kernel(lags, grid, kernel)
    # circular convolution done directly (no FFT) via a doubled signal
    out = grid.dx * np.convolve(np.concatenate([field, field]), w)[grid.n : 2 * grid.n]
    if kernel == "p":
        # integrand slope jumps by -f(x) across the corner
        out -= grid.dx**2 / 12.0 * field
    else:
        # kernel value jumps by -1 across lag zero; correction needs f'
        fprime = _central_deriv4(field, grid.dx)
        out += grid.dx**2 / 12.0 * fprime
    return out


def _central_deriv4(f: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order centered first derivative on the periodic grid (no FFT)."""
    fp1, fm1 = np.roll(f, -1), np.roll(f, 1)
    fp2, fm2 = np.roll(f, -2), np.roll(f, 2)
    return (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * dx)


def profile_dx(term: ProfileTerm, x: np.ndarray) -> np.ndarray:
    """Analytic x-derivative of one closed-form bump."""
    s = (x - term.center) / term.width
    if term.kind == "slope_bump":
        return term.amp * np.exp(-(s**2)) * (1.0 - 2.0 * s**2)
    return term.amp * np.exp(-(s**2)) * (-2.0 * s / term.width)


def reflection_defect(u: np.ndarray, eta: np.ndarray, params: PhysParams, grid: Grid) -> float:
    """Max distance of the tendency of v(x) = -u(-x), zeta(x) = eta(-x) from
    the reflected tendency, relative to max |tendency|.  The reflection is a
    symmetry of the system exactly when A = Omega = mu = 0; on the grid a(-x)
    is np.roll(a[::-1], 1)."""
    def reflect(a):
        return np.roll(a[..., ::-1], 1, axis=-1)

    td = evolution.rhs(FieldState(0.0, u, eta), params, grid)
    tr = evolution.rhs(FieldState(0.0, -reflect(u), reflect(eta)), params, grid)
    want = reflect(np.stack((-td.du_dt, td.deta_dt)))
    return float(np.max(np.abs(np.stack((tr.du_dt, tr.deta_dt)) - want)) / np.max(np.abs(want)))


def selftest_checks(mutate_c: float = 0.0):
    """The oracle suite: yields (name, passed, detail)."""
    rng = np.random.default_rng(20240817)

    grid = build_grid(20.0, 2048)
    g = np.exp(-((grid.x - 1.0) / 2.0) ** 2)
    for kind, conv in (("p", helmholtz_conv), ("dxp", helmholtz_conv_dx)):
        a = conv(g, grid)
        b = direct_conv_oracle(g, grid, kind)
        err = float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
        yield f"kernel_oracle_{kind}", err <= 1e-8, f"rel err {err:.3e}"

    # every draw keeps 1 - 2 Omega A above 0: |A| <= 1 and Omega < 1/2 here,
    # and |A| < 0.9, Omega < 0.45 below give a margin above 0.19
    worst = 0.0
    for _ in range(20):
        A = rng.uniform(-1, 1)
        Om = rng.uniform(0, 0.5)
        p = PhysParams(A=A, sigma=rng.uniform(-2, 2), mu=rng.uniform(-1, 1), Omega=Om)
        st = FieldState(0.0, np.zeros(grid.n), np.zeros(grid.n))
        td = evolution.rhs(st, p, grid)
        worst = max(worst, float(np.max(np.abs(td.du_dt))), float(np.max(np.abs(td.deta_dt))))
    yield "rest_state_equilibrium", worst <= 1e-12, f"max |rhs| {worst:.3e}"

    # the stepping kernel against the six-product transcription
    rng_state = np.random.default_rng(20240819)
    grid_s = build_grid(10.0, 256)
    worst = 0.0
    for _ in range(5):
        A, Om = rng_state.uniform(-0.9, 0.9), rng_state.uniform(0.0, 0.45)
        p = PhysParams(A=A, sigma=rng_state.uniform(-3, 3), mu=rng_state.uniform(-1, 1), Omega=Om)
        bumps = np.exp(-((grid_s.x - rng_state.uniform(-2, 2, size=(2, 1))) ** 2))
        u, eta = rng_state.uniform(-1, 1, size=(2, 1)) * bumps
        td = evolution.rhs(FieldState(0.0, u, eta), p, grid_s)
        du, deta = tendency_alt(u, eta, A, p.sigma, p.mu, Om, grid_s.half_length)
        scale = float(np.max(np.abs(du)))
        worst = max(
            worst,
            float(np.max(np.abs(td.du_dt - du))) / scale,
            float(np.max(np.abs(td.deta_dt - deta))) / scale,
        )
    yield "tendency_oracle", worst <= 1e-13, f"max diff / max |du/dt| {worst:.3e}"

    # the last draw's bumps, under the reflection symmetry of sigma = +-1
    worst = max(reflection_defect(u, eta, PhysParams(0.0, s, 0.0, 0.0), grid_s) for s in (-1, 1))
    yield "reflection_symmetry", worst <= 1e-13, f"max defect / max |tendency| {worst:.3e}"

    worst_rel = 0.0
    # the initial profiles of the theorem certificates come from their own
    # generator, so the parameter draws stay those of the formula audit
    rng_u0 = np.random.default_rng(20240818)
    grid_u0 = build_grid(5.0, 256)

    def slope_profile(amp):
        spec = InitialDataSpec(u_terms=(ProfileTerm("slope_bump", amp, 0.2, 0.0),), decay_tol=1.0)
        return synthesize(spec, grid_u0).u

    for _ in range(1000):
        A = rng.uniform(-0.9, 0.9)
        Om = rng.uniform(0.0, 0.45)
        sigma = rng.uniform(-3, 3)
        mu = rng.uniform(-1, 1)
        p = PhysParams(A=A, sigma=sigma, mu=mu, Omega=Om)
        E0 = rng.uniform(0, 5)
        rs = rng.uniform(0, 3)
        C1 = cert_mod.constant_C(E0, rs, p) * (1.0 + mutate_c)
        C2 = constant_C_alt(E0, rs, A, sigma, mu, Om)
        worst_rel = max(worst_rel, abs(C1 - C2) / C2)
        K1 = cert_mod.k2_bound(C1, rs, p)
        K2a = k2_alt(C1, rs, A, Om)
        worst_rel = max(worst_rel, abs(K1 - K2a) / K2a)
        if sigma > 0:
            u0x = rng.uniform(0, 3)
            L1 = cert_mod.lemma31_ceiling(u0x, rs, C1, p)
            L2 = lemma31_ceiling_alt(u0x, rs, C1, A, sigma, Om)
            worst_rel = max(worst_rel, abs(L1 - L2) / max(abs(L2), 1e-30))
        if sigma < 0:
            u0 = slope_profile(rng_u0.uniform(1.5, 3.0) * C1 / math.sqrt(-sigma))
            t41 = cert_mod.thm41_certificate(grid_u0, C1, p, u0x=deriv(u0, grid_u0))
            if t41 is not None:
                slope = t41.u0x_at_witness
                T1 = t1_bound_alt(slope, C1, sigma)
                T1s = t1_bound_stated_alt(slope, C1, sigma)
                worst_rel = max(worst_rel, abs(t41.T1_bound - T1) / T1)
                worst_rel = max(worst_rel, abs(t41.T1_bound_stated - T1s) / T1s)
        if E0 > 0:
            M_assumed = rng_u0.uniform(0, 3)
            pN = PhysParams(A=A, sigma=1.0, mu=0.0, Omega=Om)
            N1 = cert_mod.thm42_constant_N(E0, M_assumed, pN)
            N2 = thm42_N_alt(E0, M_assumed, A, Om)
            worst_rel = max(worst_rel, abs(N1 - N2) / N2)
            u0 = slope_profile(-rng_u0.uniform(2, 6))
            t42 = cert_mod.thm42_certificate(grid_u0, N1, E0, u0x=deriv(u0, grid_u0))
            if t42.T_bound is not None:
                T2 = thm42_T_alt(t42.m0, E0, N1)
                worst_rel = max(worst_rel, abs(t42.T_bound - T2) / T2)
    yield "double_entry_formulas", worst_rel <= 1e-12, f"max rel diff {worst_rel:.3e}"

    # synthetic exact reciprocal profile: M = -2/(sigma (T - t)), sigma=-1, T=3
    p = PhysParams(A=0.0, sigma=-1.0, mu=0.0, Omega=0.0)
    T = 3.0
    ts = np.linspace(0.0, 2.95, 200)
    M = -2.0 / (p.sigma * (T - ts))
    rows = [
        evolution.DiagnosticRow(
            t=float(t), dt=0.0, E=0.0, sup_ux=float(m), inf_ux=0.0,
            x_at_sup_ux=0.0, x_at_inf_ux=0.0, sup_abs_eta=0.0, min_rho=1.0,
            m3=0.0, f_sup_abs=0.0, boundary_leak=0.0,
        )
        for t, m in zip(ts, M)
    ]
    fit = evolution.estimate_T(rows, p, "sup", (2.0, 1e3))
    ok = abs(fit.T_est - T) <= 1e-10 and abs(fit.slope_est + 0.5) <= 1e-10 and fit.reliable
    yield "synthetic_rate_profile", ok, f"T_est {fit.T_est!r} slope {fit.slope_est!r}"
