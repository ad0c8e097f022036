"""Closed-form constants and sufficient-condition certificates computed from
initial data, plus monitors comparing them against simulation output.

Certificates evaluate sufficient conditions; they do not prove blow-up
numerically.  Simulation corroborates them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .evolution import RunRecord, energy, refined_extremum
from .model import FieldState, Grid, PhysParams
from .characteristics import ExtremumTrack
from .spectral import deriv

# Grid sup norms are lower bounds on the true sup; where a sup norm enters the
# conservative side of a bound it is inflated by this relative margin.
SUP_NORM_INFLATION = 1e-6


def refined_sup_abs(field: np.ndarray, grid: Grid) -> float:
    """Sub-grid refined sup of |field| on the periodic grid."""
    _, hi = refined_extremum(field, grid.x, "max")
    _, lo = refined_extremum(field, grid.x, "min")
    return float(max(hi, -lo))


def constant_C(E0: float, rho0_sup: float, params: PhysParams) -> float:
    """The explicit forcing bound constant: C^2/2 dominates |f| uniformly."""
    if E0 < 0 or rho0_sup < 0:
        raise ValueError("E0 and rho0_sup must be nonnegative")
    A, sigma, mu, Om = params.A, params.sigma, params.mu, params.Omega
    c = params.coriolis_margin
    e0_coeff = (
        (A - mu) ** 2 / 4.0
        + abs(3.0 - sigma) / 2.0
        + 3.0 / 4.0
        + abs(sigma) / 4.0
        + Om / 2.0
        + 3.0 * Om / (4.0 * c)
        + Om**2 / 2.0
    )
    half_C2 = (
        1.5 * (1.0 - Om * A)
        + e0_coeff * E0
        + 0.5 * Om**2 * rho0_sup**4
        + (Om / (4.0 * c) + Om / 4.0) * rho0_sup * E0
        + math.sqrt(2.0) * Om / (4.0 * c) * E0**1.5
    )
    return math.sqrt(2.0 * half_C2)


def lemma31_ceiling(
    u0x_sup_norm: float, rho0_sup: float, C: float, params: PhysParams
) -> float:
    """Uniform upper bound on sup u_x for sigma > 0."""
    if params.sigma <= 0:
        raise ValueError("the gradient ceiling requires sigma > 0")
    c = params.coriolis_margin
    return u0x_sup_norm + math.sqrt((c * rho0_sup**2 + C**2) / params.sigma)


@dataclass(frozen=True)
class Thm41Certificate:
    threshold: float
    witness_x0: float
    u0x_at_witness: float
    # lifespan bound proven by the comparison argument (thm41_certificate)
    T1_bound: float
    # the paper's displayed expression; reported, never certified
    T1_bound_stated: float


def thm41_certificate(
    grid: Grid, C: float, params: PhysParams, *, u0x: np.ndarray
) -> Thm41Certificate | None:
    """Steep-positive-slope blow-up certificate for sigma < 0 from the
    initial slope ``u0x``.

    Returns None when no grid point witnesses u0'(x0) > C/sqrt(-sigma).

    Along the characteristic from the witness x0, with s = u0'(x0), the slope
    obeys M' = (-sigma/2) M^2 + (1-2 Omega A)/2 gamma^2 + f, and |f| <= C^2/2.
    Dropping the nonnegative density term, for M >= s:

        M' >= (-sigma/2) M^2 - C^2/2 >= (-sigma/2)(1 - C^2/((-sigma) s^2)) M^2.

    The coefficient is positive exactly when s > C/sqrt(-sigma), so M never
    falls below s and, by comparison with the Riccati solution, reaches
    infinity no later than

        T1_bound = -2 / (sigma s + C^2/s).

    T1_bound_stated = -2 / (sigma s - sqrt(C (-sigma)^(3/2) s)) is the paper's
    displayed expression.  It lies below 2/((-sigma) s), the lifespan of the
    unforced Riccati equation, so it is not a lifespan bound: it claims
    breaking sooner than the Riccati term alone produces.  The opposite
    comparison refutes it on concrete data.  While |(1-2 Omega A)/2 gamma^2 +
    f| <= K2 (k2_bound) on the sup track, which monitor_bounds checks through
    the forcing and density bounds, M' <= (-sigma/2) M^2 + K2, so no solution
    starting at sup u0' = s breaks before

        T_lower = arctan(sqrt(2 K2/(-sigma))/s) / sqrt((-sigma) K2/2).

    For A = 0.5, sigma = -1, mu = 0, Omega = 0.1 and a slope bump of slope 9
    and width 0.1, T_lower = 0.1858 while the stated expression gives 0.1167.
    """
    if params.sigma >= 0:
        raise ValueError("this certificate requires sigma < 0")
    sigma = params.sigma
    x0, slope = refined_extremum(u0x, grid.x, "max")
    threshold = C / math.sqrt(-sigma)
    if not slope > threshold:
        return None
    T1 = -2.0 / (sigma * slope + C**2 / slope)
    T1_stated = -2.0 / (sigma * slope - math.sqrt(C * (-sigma) ** 1.5 * slope))
    return Thm41Certificate(
        threshold=threshold,
        witness_x0=float(x0),
        u0x_at_witness=float(slope),
        T1_bound=float(T1),
        T1_bound_stated=float(T1_stated),
    )


def riccati_floor(s: float, C: float, sigma: float):
    """The lower envelope t -> M_low(t) of sup u_x(t) from sup u0_x = s, or
    None unless sigma < 0 and s lies above the thm41 threshold c = C/sqrt(-sigma).
    Along the steepest slope M' >= a M^2 - b, a = -sigma/2 and b = C^2/2, so
    sup u_x never falls below M_low(t) = c coth(sqrt(a b) (T - t)), which is
    infinite from T = ln((s + c)/(s - c)) / (2 sqrt(a b)) on."""
    if not (sigma < 0 and s > C / math.sqrt(-sigma)):
        return None
    a, b = -0.5 * sigma, 0.5 * C * C
    c, k = math.sqrt(b / a), math.sqrt(a * b)
    T = math.log((s + c) / (s - c)) / (2.0 * k)
    return lambda t: c / math.tanh(k * (T - t)) if t < T else math.inf


def thm42_constant_N(E0: float, M_assumed: float, params: PhysParams) -> float:
    """Riccati slack constant for the cubic-moment blow-up condition
    (sigma = 1, mu = 0, density assumed bounded by M_assumed)."""
    if params.sigma != 1.0 or params.mu != 0.0:
        raise ValueError("this constant is defined for sigma = 1, mu = 0")
    if M_assumed < 0 or E0 < 0:
        raise ValueError("M_assumed and E0 must be nonnegative")
    A, Om = params.A, params.Omega
    c = params.coriolis_margin
    M = M_assumed
    s2 = math.sqrt(2.0)
    return (
        (1.5 * M**2 * c + 2.25) * E0
        + 1.5 * s2 * Om * M**2 * E0**1.5
        + 0.75 * s2 * Om / c * E0**2.5
        + (
            (6.0 + 3.0 * A**2 + 6.0 * Om**2) / 4.0
            + 1.5 * s2 * Om / math.sqrt(c)
            + 1.5 * Om * (1.0 - Om * A) * (M + 1.0) / c
        )
        * E0**2
    )


@dataclass(frozen=True)
class Thm42Certificate:
    M_assumed: float
    N: float
    m0: float
    condition_met: bool
    T_bound: float | None


def thm42_certificate(
    grid: Grid, N: float, E0: float, M_assumed: float = math.nan, *, u0x: np.ndarray
) -> Thm42Certificate:
    """Cubic-moment blow-up condition on the initial slope ``u0x``: m0 =
    integral of u0_x^3 must lie at or below -sqrt(2 E0 N); the lifespan bound
    needs strict inequality."""
    if not E0 > 0:
        raise ValueError("E0 must be positive")
    if N < 0:
        raise ValueError("N must be nonnegative")
    m0 = float(grid.dx * np.sum(u0x * u0x * u0x))
    s = math.sqrt(2.0 * E0 * N)
    condition = m0 <= -s
    T_bound = None
    if condition and m0 < -s:
        T_bound = math.sqrt(E0 / (2.0 * N)) * math.log((m0 - s) / (m0 + s))
    return Thm42Certificate(
        M_assumed=M_assumed, N=N, m0=m0, condition_met=condition, T_bound=T_bound
    )


def k2_bound(C: float, rho0_sup: float, params: PhysParams) -> float:
    """Uniform bound on the non-Riccati terms of the extremum ODE."""
    if C < 0 or rho0_sup < 0:
        raise ValueError("inputs must be nonnegative")
    return 0.5 * params.coriolis_margin * rho0_sup**2 + 0.5 * C**2


@dataclass(frozen=True)
class Certificate:
    E0: float
    rho0_sup: float
    u0x_sup_norm: float
    C: float
    lemma31_ceiling: float | None
    thm41: Thm41Certificate | None
    thm42: Thm42Certificate | None
    K2: float
    rate_target: float | None
    # riccati_floor from the grid max of u0_x; not written to certificate.json
    slope_floor: Callable[[float], float] | None = field(default=None, repr=False, compare=False)


def _finite(name: str, compute) -> float:
    """The constant compute() returns; a ValueError naming it when it is not
    finite, as initial data too large for the closed forms make it."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(
            f"certificate constant {name} is not finite ({value}): initial data too large"
        )
    return value


def build_certificate(
    state0: FieldState,
    params: PhysParams,
    grid: Grid,
    M_assumed: float | None = None,
) -> Certificate:
    """All closed-form constants and theorem applicability verdicts for one
    configuration, computed from the initial data: one slope, one rfft and
    one irfft."""
    u0x = deriv(state0.u, grid)
    E0 = _finite("E0", lambda: energy(state0, params, grid, u0x))
    inflate = 1.0 + SUP_NORM_INFLATION
    rho0_sup = _finite("rho0_sup", lambda: refined_sup_abs(state0.rho, grid) * inflate)
    u0x_sup = _finite("u0x_sup_norm", lambda: refined_sup_abs(u0x, grid) * inflate)
    C = _finite("C", lambda: constant_C(E0, rho0_sup, params))
    K2 = _finite("K2", lambda: k2_bound(C, rho0_sup, params))
    ceiling = (
        _finite("lemma31_ceiling", lambda: lemma31_ceiling(u0x_sup, rho0_sup, C, params))
        if params.sigma > 0
        else None
    )
    thm41 = thm41_certificate(grid, C, params, u0x=u0x) if params.sigma < 0 else None
    thm42 = None
    if params.sigma == 1.0 and params.mu == 0.0 and M_assumed is not None and E0 > 0:
        N = _finite("N", lambda: thm42_constant_N(E0, M_assumed, params))
        thm42 = thm42_certificate(grid, N, E0, M_assumed, u0x=u0x)
    return Certificate(
        E0=E0,
        rho0_sup=rho0_sup,
        u0x_sup_norm=u0x_sup,
        C=C,
        lemma31_ceiling=ceiling,
        thm41=thm41,
        thm42=thm42,
        K2=K2,
        rate_target=(-2.0 / params.sigma) if params.sigma != 0 else None,
        slope_floor=riccati_floor(float(u0x.max()), C, params.sigma),
    )


@dataclass(frozen=True)
class Violation:
    check: str
    t: float
    value: float
    bound: float


def monitor_bounds(
    run: RunRecord,
    cert: Certificate,
    track: ExtremumTrack | None,
    params: PhysParams,
) -> list[Violation]:
    """Check every recorded sample against the applicable closed-form bounds.
    Violations are data, not errors."""
    out: list[Violation] = []
    half_C2 = 0.5 * cert.C**2
    tol_f = 1e-6 * max(1.0, half_C2)
    for row in run.rows:
        if params.sigma > 0 and cert.lemma31_ceiling is not None:
            tol = 1e-6 * max(1.0, abs(cert.lemma31_ceiling))
            if row.sup_ux > cert.lemma31_ceiling + tol:
                out.append(
                    Violation("lemma31_ceiling", row.t, row.sup_ux, cert.lemma31_ceiling)
                )
        if row.f_sup_abs > half_C2 + tol_f:
            out.append(Violation("forcing_bound", row.t, row.f_sup_abs, half_C2))
    if track is not None and track.branch == "sup":
        tol_g = 1e-6 * max(1.0, cert.rho0_sup)
        m_nonneg_so_far = np.logical_and.accumulate(track.M >= -1e-9)
        above = np.abs(track.gamma) > cert.rho0_sup + tol_g
        for i in np.flatnonzero(m_nonneg_so_far & above):
            gamma = float(abs(track.gamma[i]))
            out.append(Violation("density_bound", float(track.t[i]), gamma, cert.rho0_sup))
        if params.sigma < 0:
            thr = cert.C / math.sqrt(-params.sigma)
            prev = None  # the running max of M once M has crossed the threshold
            for t, M in zip(track.t.tolist(), track.M.tolist()):
                if prev is not None:
                    if M < prev - 1e-6 * max(1.0, abs(prev)):
                        out.append(Violation("monotone_after_threshold", t, M, prev))
                    prev = max(prev, M)
                elif M > thr:
                    prev = M
    return out


@dataclass(frozen=True)
class RateCheck:
    final_mean: float
    target: float
    rel_error: float
    validated: bool


def rate_check(
    track: ExtremumTrack, T_est: float, params: PhysParams, window: tuple[float, float]
) -> RateCheck:
    """The product (T_est - t) * M(t) against its limit -2/sigma, as its mean
    over the last quarter of the window's time span.

    Proven only for sigma < 0 on the sup branch, where it comes back
    validated; any other product is exploratory and comes back unvalidated.
    """
    if not T_est > track.t[-1]:
        raise ValueError("T_est must exceed the last sample time")
    lo, hi = window
    mask = (np.abs(track.M) >= lo) & (np.abs(track.M) <= hi)
    if not np.any(mask):
        raise ValueError("no samples inside the rate window")
    tw = track.t[mask]
    t_cut = tw[-1] - 0.25 * (tw[-1] - tw[0])
    final = mask & (track.t >= t_cut)
    final_mean = float(np.mean((T_est - track.t[final]) * track.M[final]))
    target = -2.0 / params.sigma
    return RateCheck(
        final_mean=final_mean,
        target=target,
        rel_error=abs(final_mean - target) / abs(target),
        validated=params.sigma < 0 and track.branch == "sup",
    )
