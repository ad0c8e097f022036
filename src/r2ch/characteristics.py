"""Lagrangian diagnostics: flow-map integration with its variational
(Jacobian) equation, extremum tracking, and the ODE residuals governing the
tracked gradient extremum and the density along it.

The layer is purely diagnostic: it reads the snapshots stored by the Eulerian
solver and, as their extremum track points, the run's own rows.  Fields are
evaluated off the grid as their band-limited Fourier series: one not-a-knot
cubic spline in time of the rfft coefficients.  Each call sums its time slice
by its own number of query points: directly at up to ``_DIRECT_MAX`` = 24
(exact to rounding, about 1e-13 of the field's max) and beyond by a type-2
nonuniform FFT with Gaussian gridding (Dutt & Rokhlin 1993; Greengard & Lee
2004; about 1e-12 relative).  Calls at one instant by one sum share its slice,
so an RK4 substep evaluates the spline twice.  The spline is the layer's own
numpy ``_Spline``; its knot integrals are the checks' quadratures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import (
    DiagnosticRow,
    RunRecord,
    _check_branch,
    _refine_parabolic,
    make_diagnostic_row,
)
from .model import Grid, PhysParams
from .spectral import SpectralKernel, eval_f  # noqa: F401  (the benchmark wraps eval_f)

# Gaussian gridding on a twice-oversampled grid with 12 points either side of
# each query point; truncation and aliasing errors are about 1e-12 relative.
_OVERSAMPLE = 2
_HALF_WIDTH = 12
# A call with at most this many query points sums the series directly; one
# with more grids (README.md gives the timings of whole `advect` calls).
_DIRECT_MAX = 24


class SnapshotCadenceError(ValueError):
    """Stored snapshots are too sparse for trajectory reconstruction."""


class _Spline:
    """Not-a-knot cubic spline (de Boor 1978, ch. IV) along axis 0 of real
    ``y`` at 4+ increasing knots ``x``: slopes by two in-place sweeps of the
    tridiagonal system scipy's ``CubicSpline`` solves, power-form ``coeffs``
    and integrals from x[0] to knots.  Every division by a knot spacing or a
    pivot is a product with its reciprocal, as numpy divides complex by real,
    so the float view of complex data keeps the bits of their complex spline."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x = x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size < 4:
            raise ValueError(f"a not-a-knot spline needs at least 4 knots, got {x.size}")
        h = np.diff(x)
        if not np.all(h > 0):
            raise ValueError("spline knots must be strictly increasing")
        self.y = y = np.asarray(y).astype(float, casting="safe", copy=False)  # complex: TypeError
        self.hc = hc = h.reshape((-1,) + (1,) * (y.ndim - 1))
        inv = np.broadcast_to(1.0 / hc, y[1:].shape)  # equal shapes let numpy reuse temporaries
        d = np.diff(y, axis=0) * inv
        diag = np.concatenate([[h[1]], 2.0 * (h[:-1] + h[1:]), [h[-2]]])
        upper, lower = np.append(x[2] - x[0], h[:-1]), np.append(h[1:], x[-1] - x[-3])
        self.s = s = np.empty_like(y)
        s[0] = ((h[0] + 2.0 * upper[0]) * h[1] * d[0] + h[0] ** 2 * d[1]) * (1.0 / upper[0])
        s[1:-1] = 3.0 * (hc[1:] * d[:-1] + hc[:-1] * d[1:])
        s[-1] = (h[-1] ** 2 * d[-2] + (2.0 * lower[-1] + h[-1]) * h[-2] * d[-1]) * (1.0 / lower[-1])
        for i in range(1, x.size):  # forward sweep
            r = lower[i - 1] / diag[i - 1]
            diag[i] -= r * upper[i - 1]
            s[i] -= r * s[i - 1]
        s[-1] *= 1.0 / diag[-1]
        for i in range(x.size - 2, -1, -1):  # back substitution
            s[i] -= upper[i] * s[i + 1]
            s[i] *= 1.0 / diag[i]
        t = (s[:-1] + s[1:] - 2.0 * d) * inv
        self.coeffs = (t, (d - s[:-1]) * inv - t, s[:-1], y[:-1])
        t *= inv  # the cubic coefficient, once the quadratic one has used t

    def integrals(self) -> np.ndarray:
        y, s, hc = self.y, self.s, self.hc
        steps = hc * (y[:-1] + y[1:]) / 2.0 + hc * hc * (s[:-1] - s[1:]) / 12.0
        return np.concatenate([np.zeros_like(steps[:1]), np.cumsum(steps, axis=0)])

    def __call__(self, t: float) -> np.ndarray:
        i = min(max(int(np.searchsorted(self.x, t, side="right")) - 1, 0), self.x.size - 2)
        c3, c2, c1, c0 = (c[i] for c in self.coeffs)
        dt = t - self.x[i]
        return ((c3 * dt + c2) * dt + c1) * dt + c0


class _BandLimitedField:
    """Space-time interpolant of a snapshot series on the periodic box.

    In the angle theta = pi (x + L) / L the field is sum_m c_m exp(i m theta),
    and one time spline holds the float view of the snapshots' rfft
    coefficients c_m.  A call returns the field and its x-derivative as the
    rows of one (2, P) array, summed by the way it picks from its number P of
    query points, with that sum's weights applied to the time slice:

    - up to ``_DIRECT_MAX``, the series weighted 2/n (1/n at m = 0 and at the
      Nyquist mode, shared by +-n/2), with exp(i m theta) = exp(i K a theta)
      exp(i b theta) for m = K a + b: K + n/(2K) exp per point, not n/2;
    - beyond, Gaussian gridding.  g(theta) = exp(-theta^2 / (4 tau)) has
      Fourier transform sqrt(4 pi tau) exp(-m^2 tau), so dividing c_m by it
      gives a series whose values on the oversampled grid, convolved with g,
      return the field at any point.  The weight of the fine node at distance
      d0 - h j is E1 E2^j E3_j = exp(-d0^2/4tau) exp(d0 h/2tau)^j
      exp(-h^2 j^2/4tau): two exp per point and a constant column.  One take
      gathers nodes node + j, j = 1 - W .. W, indexed from the weights' memory.

    A call at the instant and by the sum of the call before reuses its slice.
    """

    def __init__(self, times: np.ndarray, fields: np.ndarray, grid: Grid):
        n, self.half_length, self.ik = grid.n, grid.half_length, grid.ik
        self.spline_t = _Spline(times, np.fft.rfft(fields, axis=1).view(float))
        m = np.arange(n // 2 + 1)
        K = math.isqrt(n)
        self.low, self.high = np.arange(K, dtype=float), np.arange(0.0, m.size, K)
        self.padded = None  # the direct sum's (field, slope) rows, made on its first call
        self.n_fine = _OVERSAMPLE * n
        self.h = h = 2.0 * math.pi / self.n_fine
        self.tau = tau = math.pi * _HALF_WIDTH / (n * n * _OVERSAMPLE * (_OVERSAMPLE - 0.5))
        j = np.arange(1 - _HALF_WIDTH, _HALF_WIDTH + 1)[:, None]
        self.e3 = np.exp((h * j) ** 2 * (-0.25 / tau))
        # 1/n of the rfft and the fine-grid quadrature weight folded in
        self.grid_weight = np.exp(m * m * tau) * math.sqrt(math.pi / tau) / n
        self.grid_weight[-1] *= 0.5  # the Nyquist coefficient is shared by the modes +-n/2
        self._key = None

    def _slice(self, t: float, direct: bool) -> np.ndarray:
        """Coefficients of (field, x-derivative) at t: for the direct sum the
        padded buffer as (2, a, b); for gridding, the fine-grid values padded
        periodically by W columns either side, fine node i at column i + W."""
        if (t, direct) != self._key:
            ch = self.spline_t(t).view(complex)
            if direct:
                if self.padded is None:  # zero-padded to a multiple of K
                    self.padded = np.zeros((2, self.high.size * self.low.size), dtype=complex)
                rows = self.padded[:, : ch.size]
                np.multiply(ch, 1.0 / (ch.size - 1), out=rows[0])  # 2/n, as ch.size = n/2 + 1
                rows[0, [0, -1]] *= 0.5  # 1/n at m = 0 and at the Nyquist mode
                np.multiply(rows[0], self.ik, out=rows[1])
                rows = self.padded.reshape(2, -1, self.low.size)
            else:
                W = _HALF_WIDTH
                ch *= self.grid_weight
                fine = np.fft.irfft(np.stack([ch, self.ik * ch]), n=self.n_fine)
                rows = np.concatenate([fine[:, -W:], fine, fine[:, :W]], axis=1)
            self._key, self._rows = (t, direct), rows
        return self._rows

    def __call__(self, t: float, q: np.ndarray) -> np.ndarray:
        direct = q.size <= _DIRECT_MAX
        rows = self._slice(t, direct)
        L = self.half_length
        theta = ((q + L) % (2.0 * L)) * (math.pi / L)
        if direct:
            low = np.exp(1j * np.multiply.outer(self.low, theta))
            high = np.exp(1j * np.multiply.outer(self.high, theta))
            return np.einsum("fap,ap->fp", rows @ low, high).real
        W, h, tau = _HALF_WIDTH, self.h, self.tau
        # fine node at or below theta (theta may round up to 2 pi)
        node = np.minimum(np.floor(theta / h), self.n_fine - 1)
        # gather columns node + j + W first, indexing from the weights' memory: a
        # separate index block made the heap trim and fault back in every call
        w = np.empty((2 * W, q.size))
        ix = np.add(node.astype(int), np.arange(1, 2 * W + 1)[:, None], out=w.view(int))
        stencil = np.take(rows, ix, axis=1)
        d0 = theta - node * h
        # w[W - 1 + j] = E1 E2^j E3_j for j = 1 - W .. W
        e2 = np.exp(d0 * (0.5 * h / tau))
        w[W - 1] = np.exp(d0 * d0 * (-0.25 / tau))
        for j in range(W, 2 * W):
            np.multiply(w[j - 1], e2, out=w[j])
        np.reciprocal(e2, out=e2)
        for j in range(W - 2, -1, -1):
            np.multiply(w[j + 1], e2, out=w[j])
        w *= self.e3
        return np.einsum("fjp,jp->fp", stencil, w)


@dataclass
class Trajectory:
    seeds: np.ndarray
    times: np.ndarray
    path: np.ndarray  # (n_times, n_seeds)
    jac_ode: np.ndarray  # variational-equation Jacobian, same shape
    u_x_along: np.ndarray  # u_x(t, q(t, x)), same shape


def _series(run: RunRecord, quantity: str) -> _BandLimitedField:
    """The interpolant of one stored quantity (u | rho | eta) of a run."""
    ts = np.array([s.t for s in run.snapshots])
    if ts.size < 4 or np.any(np.diff(ts) <= 0):
        raise SnapshotCadenceError("need at least 4 snapshots at strictly increasing times")
    return _BandLimitedField(ts, np.stack([getattr(s, quantity) for s in run.snapshots]), run.grid)


def advect(seeds: np.ndarray, run: RunRecord, substeps: int = 1) -> Trajectory:
    """Integrate dq/dt = u(t, q) from every seed, together with the
    variational equation dJ/dt = u_x(t, q) J, with classical RK4 over the
    snapshot instants."""
    if substeps < 1:
        raise ValueError(f"substeps must be at least 1, got {substeps}")
    seeds = np.atleast_1d(np.asarray(seeds, dtype=float))
    L = run.grid.half_length
    if not np.all((seeds >= -L) & (seeds < L)):  # NaN fails both
        raise ValueError("seeds must lie inside [-L, L)")
    field = _series(run, "u")
    ts = field.spline_t.x

    q, J = seeds.copy(), np.ones_like(seeds)
    u, ux = field(ts[0], q)  # (u, u_x) at the current (t, q): the next k1
    path, jac, uxa = [q], [J], [ux]
    for i in range(len(ts) - 1):
        h = (ts[i + 1] - ts[i]) / substeps
        for s in range(substeps):
            ta = ts[i] + s * h
            tb = ts[i + 1] if s == substeps - 1 else ta + h  # k4's instant is the next k1's
            k1q, k1J = u, ux * J
            u, ux = field(ta + h / 2, q + h / 2 * k1q)
            k2q, k2J = u, ux * (J + h / 2 * k1J)
            u, ux = field(ta + h / 2, q + h / 2 * k2q)
            k3q, k3J = u, ux * (J + h / 2 * k2J)
            u, ux = field(tb, q + h * k3q)
            k4q, k4J = u, ux * (J + h * k3J)
            q = q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
            J = J + h / 6 * (k1J + 2 * k2J + 2 * k3J + k4J)
            u, ux = field(tb, q)
        path.append(q)
        jac.append(J)
        uxa.append(ux)

    return Trajectory(
        seeds=seeds,
        times=ts,
        path=np.stack(path),
        jac_ode=np.stack(jac),
        u_x_along=np.stack(uxa),
    )


def sample_along(traj: Trajectory, run: RunRecord, which: str = "rho") -> np.ndarray:
    """Sample a snapshot-derived field (rho | u | eta | u_x) along the
    trajectory, with the same space-time interpolation used for advection.
    The slope u_x is the one ``advect`` recorded there."""
    if which == "u_x":
        return traj.u_x_along.copy()
    if which not in ("rho", "u", "eta"):
        raise ValueError(f"unknown field {which!r}")
    field = _series(run, which)
    return np.stack([field(t, traj.path[i])[0] for i, t in enumerate(traj.times)])


def jacobian_consistency(traj: Trajectory) -> float:
    """Max relative discrepancy between the variational Jacobian and
    exp(integral of u_x along the path), the integral taken by cubic-spline
    quadrature of the recorded slope samples (at least 4)."""
    jac_quad = np.exp(_Spline(traj.times, traj.u_x_along).integrals())
    return float(np.max(np.abs(traj.jac_ode - jac_quad) / np.abs(jac_quad)))


def sup_transport_error(traj: Trajectory, run: RunRecord, stride: int = 1) -> float:
    """Max over recorded times of |sup over seeds of u_x(t, q) - sup u_x in the
    snapshot's row|, both refined by local quadratic interpolation.  With seeds
    covering the grid this verifies that the flow map transports the supremum."""
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    worst = 0.0
    rows = _snapshot_rows(run, stride)
    for vals, qs, row in zip(traj.u_x_along[::stride], traj.path[::stride], rows):
        j = int(np.argmax(vals))
        seed_sup = vals[j]
        if 0 < j < vals.size - 1:
            _, seed_sup = _refine_parabolic(
                qs[j - 1], qs[j], qs[j + 1], vals[j - 1], vals[j], vals[j + 1]
            )
        worst = max(worst, abs(float(seed_sup) - row.sup_ux))
    return worst


@dataclass
class ExtremumTrack:
    branch: str  # sup | inf
    t: np.ndarray
    xi: np.ndarray
    M: np.ndarray
    gamma: np.ndarray
    f_along: np.ndarray


def _snapshot_rows(run: RunRecord, stride: int = 1) -> list[DiagnosticRow]:
    """The diagnostic row of every stride-th snapshot: the run's own at that
    instant, else one made from the snapshot's samples (one kernel for all)."""
    rows = {row.t: row for row in run.rows}
    if missing := [snap for snap in run.snapshots[::stride] if snap.t not in rows]:
        kernel = SpectralKernel(run.params, run.grid)
        for snap in missing:
            rows[snap.t] = make_diagnostic_row(snap, math.nan, kernel.forward(snap.u, snap.eta))
    return [rows[snap.t] for snap in run.snapshots[::stride]]


def track_extremum(run: RunRecord, branch: str = "sup") -> ExtremumTrack:
    """Per-snapshot location and value of the tracked u_x extremum, with the
    density and forcing sampled at the (sub-grid refined) extremizer: each
    snapshot's diagnostic row, the run's own where it recorded one."""
    _check_branch(branch)
    return _track(_snapshot_rows(run), branch)


def track_from_rows(run: RunRecord, branch: str = "sup") -> ExtremumTrack:
    """Extremum track assembled from the diagnostic rows (denser than
    snapshots near breaking, at no memory cost)."""
    _check_branch(branch)
    return _track(run.rows, branch)


def _track(rows: list[DiagnosticRow], side: str) -> ExtremumTrack:
    def column(name):
        return np.array([getattr(r, name) for r in rows])

    return ExtremumTrack(
        branch=side,
        t=column("t"),
        xi=column(f"x_at_{side}_ux"),
        M=column(f"{side}_ux"),
        gamma=column(f"gamma_{side}"),
        f_along=column(f"f_at_{side}"),
    )


def argmax_jump_mask(track: ExtremumTrack, grid: Grid) -> np.ndarray:
    """True where the extremizer location moves by more than 10 dx between
    consecutive samples (argmax switching between distant local extrema); the
    tracked value stays continuous there but its time derivative has a kink."""
    jump = np.zeros(track.t.size, dtype=bool)
    big = np.abs(np.diff(track.xi)) > 10.0 * grid.dx
    jump[:-1] |= big
    jump[1:] |= big
    return jump


def ode_residuals(
    track: ExtremumTrack, params: PhysParams
) -> tuple[np.ndarray, np.ndarray]:
    """Centered-difference residuals of the extremum ODEs:

        res_M     = dM/dt + sigma/2 M^2 - (1-2 Omega A)/2 gamma^2 - f(t, xi)
        res_gamma = dgamma/dt + M gamma
    """
    if track.t.size < 3:
        raise ValueError("need at least 3 samples for centered differencing")
    dM = np.gradient(track.M, track.t)
    dg = np.gradient(track.gamma, track.t)
    res_M = (
        dM
        + 0.5 * params.sigma * track.M**2
        - 0.5 * params.coriolis_margin * track.gamma**2
        - track.f_along
    )
    res_gamma = dg + track.M * track.gamma
    return res_M, res_gamma


def gamma_decay_error(track: ExtremumTrack) -> float:
    """Max relative mismatch between the tracked density and the closed-form
    decay gamma(0) * exp(-integral of M), by spline quadrature (4+ samples)."""
    predicted = track.gamma[0] * np.exp(-_Spline(track.t, track.M).integrals())
    scale = np.maximum(np.abs(predicted), 1e-300)
    return float(np.max(np.abs(track.gamma - predicted) / scale))
