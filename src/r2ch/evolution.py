"""Time evolution of the nonlocal system: right-hand side, adaptive embedded
Runge-Kutta stepping, diagnostics recording and breaking-time extrapolation.

The propagated solution is the 4th-order member of the Cash-Karp 5(4) pair,
stepped in Fourier space with ``numpy.fft``'s batched real transforms (11
calls per step, see ``step``); the difference to the 5th-order member gives
the per-step error estimate.  That member is unstable on the imaginary axis
(|R(iy)| is 1.023 at y = 2), so ``run`` caps each step (see ``Z_STAR``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import FieldState, Grid, PhysParams, boundary_leak
from .spectral import SpectralKernel, StateSpectra, eval_f
from .spectral import deriv  # noqa: F401  (the benchmark wraps evolution.deriv)

# Cash-Karp embedded pair: 6 stages, 5th and 4th order weights.
_CK_A = [
    np.array(row)
    for row in [
        [],
        [1 / 5],
        [3 / 40, 9 / 40],
        [3 / 10, -9 / 10, 6 / 5],
        [-11 / 54, 5 / 2, -70 / 27, 35 / 27],
        [1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096],
    ]
]
_CK_B5 = np.array([37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771])
_CK_B4 = np.array(
    [2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4]
)
# weights of the error spectrum, 5th minus 4th order
_CK_E = _CK_B5 - _CK_B4

ERR_ABS_FLOOR = 1e-10
Z_STAR = 4.0  # cap on k_cut dt s: above it, rounding noise in top modes picks steps


@dataclass(frozen=True)
class Tendency:
    du_dt: np.ndarray
    deta_dt: np.ndarray


class NonFiniteState(RuntimeError):
    """A non-finite value appeared inside the integrator."""


def _rhs_arrays(spectra: StateSpectra, out: np.ndarray) -> np.ndarray:
    """Tendency spectrum ``[du_hat, deta_hat]`` of the state whose transforms
    are ``spectra``, summed into the ``(2, n/2+1)`` array ``out`` from the
    weight rows of their kernel (no FFT):

    du/dt = -(sigma u - mu) u_x
            - dx p * [ (mu-A) u + (3-sigma)/2 u^2 + sigma/2 u_x^2
                       + (1-2 Omega A)(eta + eta^2/2) - Omega rho^2 u ]
            + Omega p * (rho^2 u_x)
    deta/dt = -(u eta)_x - u_x

    with sigma u u_x written as sigma/2 d/dx(u^2).  All products pass the
    two-thirds mask.
    """
    uh, etah = spectra.spectrum
    u2h, r2uxh, uetah, bh = spectra.products
    du, deta = out
    kernel = spectra.kernel
    term, grid = kernel.scratch, kernel.grid
    np.multiply(kernel.w_uh, uh, out=du)
    for w, h in ((kernel.w_etah, etah), (kernel.w_u2, u2h), (kernel.w_r2ux, r2uxh)):
        np.multiply(w, h, out=term)
        du += term
    np.multiply(grid.ik_helm, bh, out=term)
    du -= term
    np.add(uetah, uh, out=deta)
    np.multiply(grid.ik, deta, out=deta)
    np.negative(deta, out=deta)
    if not np.all(np.isfinite(out)):
        raise NonFiniteState("non-finite tendency")
    return out


def rhs(state: FieldState, params: PhysParams, grid: Grid) -> Tendency:
    """The tendency in physical space: 4 FFT calls, 3 for the state's
    transforms and one irfft, from a kernel built for this one call."""
    kernel = SpectralKernel(params, grid)
    spectra = kernel.forward(state.u, state.eta)
    # the tendency spectrum is formed in the kernel's stage rows
    du, deta = np.fft.irfft(_rhs_arrays(spectra, out=kernel.rows[:2]), n=grid.n)
    return Tendency(du_dt=du, deta_dt=deta)


def step(
    state: FieldState, dt: float, kernel: SpectralKernel, k1: np.ndarray | None = None
) -> tuple[FieldState, float]:
    """One Cash-Karp step in Fourier space.  Returns the advanced (4th order)
    state and the error estimate: the 5th/4th order difference in a max norm
    weighted by the joint (u, eta) magnitude with absolute floor 1e-10.

    The state and the stage tendencies are ``(2, n/2+1)`` spectra of
    (u, eta).  Each stage makes one irfft of ``[uh, etah, ik uh]`` and one
    rfft of the four products; one irfft of ``[u4h, eta4h, ik u4h,
    (u5-u4)h, (eta5-eta4)h]`` ends the step: 11 FFT calls.  The new state
    holds its spectrum and slope for the next step, so its samples are
    read-only; ``dataclasses.replace`` makes a state that holds none.

    ``k1`` is the state's tendency spectrum when the caller already holds
    it (else the step forms it in the kernel's first stage row); it does not
    depend on dt, so a retried step reuses it and makes 5 new RHS
    evaluations.  ``kernel`` carries the params and grid; it serves no other
    computation meanwhile.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if state._transforms is None:
        held = kernel.forward(state.u, state.eta)
        spectrum = held.spectrum
    else:
        spectrum, ux = state._transforms
        if k1 is None:
            held = kernel.transform(spectrum, state.u, state.eta, ux)
    if k1 is None:
        k1 = _rhs_arrays(held, out=kernel.stages[0])

    stages, rows, grid = kernel.stages, kernel.rows, kernel.grid
    flat = stages.reshape(6, -1).view(np.float64)

    def combine(weights, out):
        np.dot(dt * weights, flat[: weights.size], out=out.reshape(-1).view(np.float64))

    stages[0] = k1
    for i in range(1, 6):
        combine(_CK_A[i], rows[:2])
        rows[:2] += spectrum
        _rhs_arrays(kernel.inverse(rows), out=stages[i])
    end = np.empty((5, spectrum.shape[1]), dtype=complex)
    combine(_CK_B4, end[:2])
    end[:2] += spectrum
    new_spectrum = end[:2].copy()
    np.multiply(grid.ik, end[0], out=end[2])
    combine(_CK_E, end[3:])
    out = np.fft.irfft(end, n=grid.n)
    del end

    diff = max(np.max(np.abs(out[3])), np.max(np.abs(out[4])))
    fields = out[:2].copy()
    fields.flags.writeable = False
    scale = ERR_ABS_FLOOR + np.max(np.abs(fields))
    new = FieldState(t=state.t + dt, u=fields[0], eta=fields[1])
    return _hold(new, (new_spectrum, out[2].copy())), float(diff / scale)


@dataclass(frozen=True)
class RunSettings:
    t_end: float
    tol: float = 1e-8
    blowup_threshold: float = 1e3
    dt_floor: float = 1e-12
    dt_max: float = 0.05
    dt_init: float = 1e-3
    snapshot_cadence: int = 1
    diag_stride: int = 10
    dense_diag_above: float = 20.0

    def __post_init__(self):
        for name in ("t_end", "tol", "dt_floor", "dt_max", "dt_init"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not self.blowup_threshold > 0:
            raise ValueError("blowup threshold must be positive")
        if not self.dt_floor < self.dt_max:
            raise ValueError(
                f"dt_floor must be below dt_max, got {self.dt_floor} >= {self.dt_max}"
            )
        if self.diag_stride < 1:
            raise ValueError(f"diag_stride must be at least 1, got {self.diag_stride}")
        if self.snapshot_cadence < 0:
            raise ValueError(
                f"snapshot_cadence must be nonnegative, got {self.snapshot_cadence}"
            )


@dataclass(frozen=True)
class DiagnosticRow:
    """One state's diagnostics, from its transforms alone; diagnostics.csv
    adds the energy drift and the certificate's Lemma 3.1 ceiling."""

    t: float
    dt: float
    E: float
    sup_ux: float
    inf_ux: float
    x_at_sup_ux: float
    x_at_inf_ux: float
    sup_abs_eta: float
    min_rho: float
    m3: float
    f_sup_abs: float
    boundary_leak: float
    # extremum-track extras (not part of the CSV schema)
    max_rho: float = math.nan
    gamma_sup: float = math.nan
    gamma_inf: float = math.nan
    f_at_sup: float = math.nan
    f_at_inf: float = math.nan


@dataclass(frozen=True)
class Termination:
    # reached_t_end | blowup_detected | under_resolved | step_floor | invariant_violation
    event: str
    t: float
    detail: str = ""


@dataclass
class RunRecord:
    params: PhysParams
    grid: Grid
    settings: RunSettings
    rows: list[DiagnosticRow] = field(default_factory=list)
    snapshots: list[FieldState] = field(default_factory=list)
    termination: Termination | None = None
    final_state: FieldState | None = None
    # step counters; the accepted dt range is NaN until a step is accepted
    steps_accepted: int = 0
    steps_rejected: int = 0
    rhs_evals: int = 0
    steps_capped: int = 0  # accepted steps whose dt the stability cap set
    accepted_dt_min: float = math.nan
    accepted_dt_max: float = math.nan


def _check_branch(branch: str) -> None:
    if branch not in ("sup", "inf"):
        raise ValueError(f"branch must be 'sup' or 'inf', got {branch!r}")


def _refine_parabolic(xm, x0, xp, ym, y0, yp):
    """Vertex of the parabola through three points (uniform or not)."""
    denom = (xm - x0) * (xm - xp) * (x0 - xp)
    if denom == 0:
        return x0, y0
    a = (xp * (y0 - ym) + x0 * (ym - yp) + xm * (yp - y0)) / denom
    b = (xp**2 * (ym - y0) + x0**2 * (yp - ym) + xm**2 * (y0 - yp)) / denom
    if a == 0:
        return x0, y0
    xv = -b / (2 * a)
    if not min(xm, xp) <= xv <= max(xm, xp):
        return x0, y0
    c = y0 - a * x0**2 - b * x0
    return xv, a * xv**2 + b * xv + c


def refined_extremum(y: np.ndarray, x: np.ndarray, mode: str):
    """Grid arg-extremum with quadratic sub-grid refinement; ties break at the
    smallest x.  Returns (location, value)."""
    i = int(np.argmax(y)) if mode == "max" else int(np.argmin(y))
    n = y.size
    im, ip = (i - 1) % n, (i + 1) % n
    dx = x[1] - x[0]
    return _refine_parabolic(
        x[i] - dx, x[i], x[i] + dx, y[im], y[i], y[ip]
    )


def _interp_at(y: np.ndarray, x: np.ndarray, xq: float) -> float:
    """Quadratic interpolation of grid samples at one query point."""
    dx = x[1] - x[0]
    n = y.size
    i = int(round((xq - x[0]) / dx)) % n
    im, ip = (i - 1) % n, (i + 1) % n
    x0 = x[0] + i * dx
    s = (xq - x0) / dx
    return float(y[i] + 0.5 * s * (y[ip] - y[im]) + 0.5 * s * s * (y[ip] - 2 * y[i] + y[im]))


def energy(state: FieldState, params: PhysParams, grid: Grid, ux: np.ndarray) -> float:
    """Conserved energy of the state whose slope is ``ux``: integral of
    u^2 + u_x^2 + (1-2 Omega A)(rho-1)^2."""
    u, eta = state.u, state.eta
    return float(grid.dx * np.sum(u * u + ux * ux + params.coriolis_margin * (eta * eta)))


def make_diagnostic_row(state: FieldState, dt: float, spectra: StateSpectra) -> DiagnosticRow:
    """The state's diagnostics from its transforms ``spectra``, whose kernel
    gives the params and grid: two FFT calls, for the forcing.  The moments
    are products of the slope, so no power runs per grid point."""
    params, grid = spectra.kernel.params, spectra.kernel.grid
    ux = spectra.ux
    x_sup, sup_ux = refined_extremum(ux, grid.x, "max")
    x_inf, inf_ux = refined_extremum(ux, grid.x, "min")
    fvals = eval_f(spectra)
    rho = state.rho
    return DiagnosticRow(
        t=state.t,
        dt=dt,
        E=energy(state, params, grid, ux),
        sup_ux=float(sup_ux),
        inf_ux=float(inf_ux),
        x_at_sup_ux=float(x_sup),
        x_at_inf_ux=float(x_inf),
        sup_abs_eta=float(np.max(np.abs(state.eta))),
        min_rho=float(np.min(rho)),
        m3=float(grid.dx * np.sum(ux * ux * ux)),
        f_sup_abs=float(np.max(np.abs(fvals))),
        boundary_leak=boundary_leak(state, grid),
        max_rho=float(np.max(rho)),
        gamma_sup=_interp_at(rho, grid.x, x_sup),
        gamma_inf=_interp_at(rho, grid.x, x_inf),
        f_at_sup=_interp_at(fvals, grid.x, x_sup),
        f_at_inf=_interp_at(fvals, grid.x, x_inf),
    )


def _hold(state: FieldState, transforms: tuple | None = None) -> FieldState:
    """``state`` holding the stepper's ``(spectrum, u_x)`` of its samples, or
    none: a state no longer stepped from keeps only its samples."""
    object.__setattr__(state, "_transforms", transforms)
    return state


@np.errstate(over="ignore", invalid="ignore")
def run(
    initial: FieldState,
    params: PhysParams,
    grid: Grid,
    settings: RunSettings,
    slope_floor=None,
) -> RunRecord:
    """Integrate until t_end, blow-up detection (max |u_x| >= threshold),
    the dt floor, or an invariant violation (a tendency that overflows, so
    numpy's overflow warnings are off).  Every termination is an event.
    ``slope_floor`` (t -> a lower bound on sup u_x, or None), the run's one
    certificate input, ends it on under_resolved at a state whose grid max of
    u_x, and then its refined peak, lie more than 1e-6 max(1, floor) below.

    The run builds its own ``SpectralKernel``.  Each accepted state, the
    initial one included, carries its spectrum and slope through one sequence:
    snapshot at cadence, one rfft of its products (its row and the k1 of every
    step tried from it), blow-up test on its slope, row at stride.  A gap to
    t_end at or below dt_floor joins the step before it.  Each step is at most
    Z_STAR / (k_cut s), k_cut the top retained wavenumber and s the larger of
    max|sigma u - mu| and max|u| (from ``u.max()``, ``u.min()``), and at least
    1.5 dt_floor, so a state too large to step ends on invariant_violation.
    Z_STAR is the largest of {1.7, 2.5, 3.2, 4, 5} at which criterion 10's steps
    and T_est are the same under u0 (1 +- 1e-15), u0 (1 + 2e-15), 1 and 137-cell rolls.
    """
    rec = RunRecord(params=params, grid=grid, settings=settings)
    kernel = SpectralKernel(params, grid)
    spectra = kernel.forward(initial.u, initial.eta)
    state = _hold(replace(initial), (spectra.spectrum, spectra.ux))
    dt = used_dt = min(settings.dt_init, settings.dt_max, settings.t_end)
    k_cut, sigma, mu = grid.k[grid.dealias_cut - 1], params.sigma, params.mu

    def record():
        rec.rows.append(make_diagnostic_row(state, used_dt, spectra))

    def finish(event: str, detail: str = "") -> RunRecord:
        # a run that ends at t_end, at blow-up or under-resolved ends with its
        # last state's row and, when it keeps snapshots, that state's snapshot
        if event in ("blowup_detected", "reached_t_end", "under_resolved"):
            if not rec.rows or rec.rows[-1].t < state.t:
                record()
            if rec.snapshots and rec.snapshots[-1].t < state.t:
                rec.snapshots.append(state)
        rec.termination = Termination(event, state.t, detail)
        rec.final_state = _hold(state)
        return rec

    def floor_detail(what: str, err: float) -> str:
        return (
            f"{what} step of dt {used_dt!r} at t {state.t!r} (error estimate {err!r}, "
            f"tol {settings.tol!r}) leaves next dt {dt!r} at or below dt_floor "
            f"{settings.dt_floor!r}"
        )

    while True:
        if settings.snapshot_cadence > 0 and rec.steps_accepted % settings.snapshot_cadence == 0:
            rec.snapshots.append(state)
        if rec.steps_accepted and state.t < settings.t_end and dt < settings.dt_floor:
            return finish("step_floor", floor_detail("accepted", err))
        if spectra is None:
            spectrum, ux = state._transforms
            spectra = kernel.transform(spectrum, state.u, state.eta, ux)
        sup_ux = float(spectra.ux.max())
        max_abs_ux = max(sup_ux, -float(spectra.ux.min()))
        if max_abs_ux >= settings.blowup_threshold:
            return finish("blowup_detected")
        floor = slope_floor(state.t) if slope_floor else -math.inf
        bound = min(floor - 1e-6, floor * (1 - 1e-6))  # an infinite floor stays inf
        # the grid max misses a peak between nodes, so the refined peak decides
        sup = float(refined_extremum(spectra.ux, grid.x, "max")[1]) if sup_ux < bound else sup_ux
        if sup < bound:
            detail = f"sup u_x {sup!r} at t {float(state.t)!r} below its floor {floor!r}"
            return finish("under_resolved", detail)
        if state.t >= settings.t_end:
            return finish("reached_t_end")
        if max_abs_ux > settings.dense_diag_above or rec.steps_accepted % settings.diag_stride == 0:
            record()

        # k1 fills the kernel's first stage row, which a retried step keeps;
        # the state's products are not needed past it
        try:
            k1 = _rhs_arrays(spectra, out=kernel.stages[0])
        except NonFiniteState as exc:
            return finish("invariant_violation", str(exc))
        spectra = None
        rec.rhs_evals += 1
        u_max, u_min = float(state.u.max()), float(state.u.min())
        speed = max(abs(sigma * u_max - mu), abs(sigma * u_min - mu), u_max, -u_min)
        cap = max(Z_STAR / (k_cut * speed), 1.5 * settings.dt_floor) if speed else math.inf
        dt = min(dt, cap)
        while True:
            gap = settings.t_end - state.t
            dt = gap if gap - dt <= settings.dt_floor else dt
            try:
                new_state, err = step(state, dt, kernel, k1=k1)
            except NonFiniteState as exc:
                return finish("invariant_violation", str(exc))
            rec.rhs_evals += 5
            used_dt = dt
            factor = (settings.tol / max(err, 1e-300)) ** 0.2
            if not err > settings.tol:
                break
            rec.steps_rejected += 1
            dt = max(settings.dt_floor, 0.9 * dt * factor)
            if dt <= settings.dt_floor:
                return finish("step_floor", floor_detail("rejected", err))
        _hold(state)
        state = new_state
        rec.steps_accepted += 1
        rec.steps_capped += used_dt == cap
        rec.accepted_dt_min = min(used_dt, rec.accepted_dt_min)
        rec.accepted_dt_max = max(used_dt, rec.accepted_dt_max)
        dt = min(settings.dt_max, dt * min(5.0, max(0.2, 0.9 * factor)))


@dataclass(frozen=True)
class BlowupEvent:
    index: int
    t: float
    criterion: str  # inf_ux | sup_ux | sup_abs_ux


def detect_blowup(
    samples: list[DiagnosticRow], sigma: float, threshold: float
) -> BlowupEvent | None:
    """First diagnostic row at which the gradient extremum of sigma's regime
    crosses the threshold: inf u_x for sigma>0, sup u_x for sigma<0, and the
    two-sided sup |u_x| criterion for sigma=0."""
    if not samples:
        raise ValueError("empty diagnostic series")
    if sigma > 0:
        criterion, hit = "inf_ux", lambda r: r.inf_ux <= -threshold
    elif sigma < 0:
        criterion, hit = "sup_ux", lambda r: r.sup_ux >= threshold
    else:
        criterion, hit = "sup_abs_ux", lambda r: max(abs(r.sup_ux), abs(r.inf_ux)) >= threshold
    return next((BlowupEvent(i, r.t, criterion) for i, r in enumerate(samples) if hit(r)), None)


class FitWindowError(ValueError):
    """Not enough samples inside the reciprocal-fit window."""


@dataclass(frozen=True)
class BreakingTimeFit:
    T_est: float
    slope_est: float
    reliable: bool
    n_samples: int
    window: tuple[float, float]


def estimate_T(
    samples: list[DiagnosticRow], params: PhysParams, branch: str, window: tuple[float, float]
) -> BreakingTimeFit:
    """Least-squares line through 1/M(t) over the window M in [lo, hi];
    the breaking time estimate is the root of the fitted line.

    Near breaking 1/M is asymptotically linear with slope sigma/2; a fitted
    slope of the wrong sign marks the fit unreliable.
    """
    _check_branch(branch)
    lo, hi = window
    t = np.array([r.t for r in samples])
    M = np.array([r.sup_ux if branch == "sup" else r.inf_ux for r in samples])
    mask = (np.abs(M) >= lo) & (np.abs(M) <= hi)
    tw, y = t[mask], 1.0 / M[mask]
    if tw.size < 8:
        raise FitWindowError(f"only {tw.size} samples with |M| in [{lo}, {hi}]")
    # times below 1e150 that spread over more than 1e-150 keep the sums finite and nonzero
    if not (np.all(np.abs(tw) < 1e150) and np.ptp(tw) > 1e-150):
        raise FitWindowError(f"the times of the {tw.size} samples fit no line")
    # the line through the centred samples, every sum exactly rounded (fsum),
    # so that no BLAS or LAPACK kernel picks its bits
    t_mean, y_mean = math.fsum(tw) / tw.size, math.fsum(y) / tw.size
    dt = tw - t_mean
    slope = math.fsum(dt * (y - y_mean)) / math.fsum(dt * dt)
    T_est = t_mean - y_mean / slope if slope != 0 else math.inf
    reliable = bool(slope * params.sigma > 0 and math.isfinite(slope) and T_est > tw[-1])
    return BreakingTimeFit(T_est, slope, reliable, tw.size, (lo, hi))
