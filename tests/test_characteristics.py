"""Flow-map advection, extremum tracking and the Lagrangian ODE residuals."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.interpolate import CubicSpline

from r2ch import (
    ExtremumTrack,
    FieldState,
    PhysParams,
    RunSettings,
    SnapshotCadenceError,
    SpectralKernel,
    advect,
    argmax_jump_mask,
    build_grid,
    deriv,
    gamma_decay_error,
    jacobian_consistency,
    ode_residuals,
    refined_extremum,
    run,
    sample_along,
    sup_transport_error,
    synthesize,
    track_extremum,
    track_from_rows,
)
from r2ch.characteristics import _DIRECT_MAX, _HALF_WIDTH, _BandLimitedField, _series, _Spline
from r2ch.evolution import RunRecord, _refine_parabolic, make_diagnostic_row

from conftest import smooth_problem


def synthetic_run(u_of_tx, grid, times, params=None):
    """A RunRecord whose snapshots are manufactured, bypassing the solver."""
    params = params or PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
    rec = RunRecord(params=params, grid=grid, settings=RunSettings(t_end=times[-1] or 1.0))
    for t in times:
        u = u_of_tx(t, grid.x)
        rec.snapshots.append(FieldState(float(t), u, np.zeros(grid.n)))
    return rec


def transcribed_spline(x, y, div):
    """The spline's power-form coefficients and knot integrals as first
    written, in complex arithmetic for complex y, with every scale by a knot
    spacing or a pivot spelled ``div``; the integrals are those of the float
    view of y."""
    h = np.diff(x)
    hc = h.reshape((-1,) + (1,) * (y.ndim - 1))
    d = div(np.diff(y, axis=0), hc)
    diag = np.concatenate([[h[1]], 2.0 * (h[:-1] + h[1:]), [h[-2]]])
    upper, lower = np.append(x[2] - x[0], h[:-1]), np.append(h[1:], x[-1] - x[-3])
    s = np.empty_like(d, shape=y.shape)
    s[0] = div((h[0] + 2.0 * upper[0]) * h[1] * d[0] + h[0] ** 2 * d[1], upper[0])
    s[1:-1] = 3.0 * (hc[1:] * d[:-1] + hc[:-1] * d[1:])
    s[-1] = div(h[-1] ** 2 * d[-2] + (2.0 * lower[-1] + h[-1]) * h[-2] * d[-1], lower[-1])
    for i in range(1, x.size):
        r = lower[i - 1] / diag[i - 1]
        diag[i], s[i] = diag[i] - r * upper[i - 1], s[i] - r * s[i - 1]
    s[-1] = div(s[-1], diag[-1])
    for i in range(x.size - 2, -1, -1):
        s[i] = div(s[i] - upper[i] * s[i + 1], diag[i])
    t = div(s[:-1] + s[1:] - 2.0 * d, hc)
    coeffs = (div(t, hc), div(d - s[:-1], hc) - t, s[:-1], y[:-1])
    y, s = y.view(float), s.view(float)
    steps = hc * (y[:-1] + y[1:]) / 2.0 + hc * hc * (s[:-1] - s[1:]) / 12.0
    return coeffs, np.concatenate([np.zeros_like(steps[:1]), np.cumsum(steps, axis=0)])


def reciprocal(a, b):
    return a * (1.0 / b)


class TestSpline:
    """The layer's not-a-knot spline against scipy's CubicSpline and against
    its first, division form."""

    @pytest.mark.parametrize("m", [4, 5, 17, 300])
    @pytest.mark.parametrize("kind", ["real_1d", "real_2d", "complex_2d"])
    def test_same_bits_as_division(self, m, kind):
        # the float view of complex data keeps the bits of their complex
        # spline with true divisions, which numpy does part by part as a
        # product with the reciprocal of the real divisor; real data are
        # scaled by the reciprocal too
        rng = np.random.default_rng(m)
        x = np.cumsum(rng.uniform(0.05, 1.0, m)) - 3.0
        shape = (m,) if kind == "real_1d" else (m, 6)
        y = rng.normal(size=shape)
        if kind == "complex_2d":
            y = y + 1j * rng.normal(size=shape)
            ours = _Spline(x, y.view(float))
            coeffs, integrals = transcribed_spline(x, y, np.divide)
            coeffs = [c.view(float) for c in coeffs]
        else:
            ours = _Spline(x, y)
            coeffs, integrals = transcribed_spline(x, y, reciprocal)
        for got, want in zip(ours.coeffs, coeffs, strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(ours.integrals(), integrals)

    @pytest.mark.parametrize("m", [4, 5, 17, 300])
    @pytest.mark.parametrize("complex_2d", [False, True])
    def test_matches_cubic_spline(self, m, complex_2d):
        # complex data through their float view, as the layer splines them
        rng = np.random.default_rng(m)
        x = np.cumsum(rng.uniform(0.05, 1.0, m)) - 3.0
        if complex_2d:
            y = rng.normal(size=(m, 6)) + 1j * rng.normal(size=(m, 6))
            ours = _Spline(x, y.view(float))
        else:
            y = rng.normal(size=m)
            ours = _Spline(x, y)
        ref = CubicSpline(x, y, axis=0)
        tq = np.linspace(x[0], x[-1], 101)
        got = np.stack([ours(t).view(y.dtype) for t in tq])
        want = ref(tq)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        anti = ref.antiderivative()
        want_int = anti(x) - anti(x[0])
        got_int = ours.integrals().view(y.dtype)
        assert np.max(np.abs(got_int - want_int)) <= 1e-12 * np.max(np.abs(want_int))

    def test_refuses_complex(self):
        # a cast to float would drop the imaginary part with only a warning
        y = np.ones((4, 3)) + 1j
        with pytest.raises(TypeError):
            _Spline(np.arange(4.0), y)

    @pytest.mark.parametrize("m", [2, 3])
    def test_needs_four_knots(self, m):
        with pytest.raises(ValueError, match="at least 4 knots"):
            _Spline(np.arange(float(m)), np.ones(m))

    @pytest.mark.parametrize("x", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]])
    def test_knots_must_increase(self, x):
        with pytest.raises(ValueError, match="strictly increasing"):
            _Spline(np.array(x), np.ones(4))


@pytest.mark.parametrize("module", ["r2ch", "r2ch.cli"])
def test_import_loads_no_scipy(module):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        f"import sys, {module}; "
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestAdvect:
    def test_uniform_translation(self):
        # u = c everywhere: straight-line paths, Jacobian identically 1
        g = build_grid(10.0, 256)
        times = np.linspace(0.0, 2.0, 21)
        rec = synthetic_run(lambda t, x: np.full_like(x, 0.3), g, times)
        traj = advect(np.array([-1.0, 0.5]), rec)
        np.testing.assert_allclose(
            traj.path[-1], np.array([-1.0, 0.5]) + 0.3 * 2.0, atol=1e-10
        )
        np.testing.assert_allclose(traj.jac_ode, 1.0, atol=1e-12)

    def test_stationary_sine_field_vs_ivp_oracle(self):
        # frozen velocity u(x) = a sin(pi x / L): compare against scipy's
        # adaptive integrator applied to the same closed-form field
        g = build_grid(10.0, 1024)
        a, kk = 0.25, math.pi / 10.0
        times = np.linspace(0.0, 3.0, 61)
        rec = synthetic_run(lambda t, x: a * np.sin(kk * x), g, times)
        seeds = np.array([-4.0, -0.5, 2.2])
        traj = advect(seeds, rec, substeps=2)
        sol = solve_ivp(
            lambda t, q: a * np.sin(kk * q),
            (0.0, 3.0),
            seeds,
            rtol=1e-11,
            atol=1e-12,
            t_eval=times,
        )
        np.testing.assert_allclose(traj.path, sol.y.T, atol=1e-7)

    def test_jacobian_matches_spatial_difference(self):
        # d q / d x0 estimated from neighboring seeds
        g = build_grid(10.0, 1024)
        a, kk = 0.25, math.pi / 10.0
        times = np.linspace(0.0, 2.0, 41)
        rec = synthetic_run(lambda t, x: a * np.sin(kk * x), g, times)
        h = 1e-4
        traj = advect(np.array([1.0 - h, 1.0, 1.0 + h]), rec, substeps=2)
        fd = (traj.path[-1, 2] - traj.path[-1, 0]) / (2 * h)
        assert traj.jac_ode[-1, 1] == pytest.approx(fd, rel=1e-6)

    def test_jacobian_consistency_synthetic(self):
        g = build_grid(10.0, 1024)
        times = np.linspace(0.0, 2.0, 41)
        rec = synthetic_run(
            lambda t, x: 0.2 * np.sin(math.pi * x / 10.0), g, times
        )
        traj = advect(g.x[::64].copy(), rec, substeps=2)
        assert jacobian_consistency(traj) <= 1e-8

    def test_needs_enough_snapshots(self):
        g = build_grid(10.0, 256)
        rec = synthetic_run(lambda t, x: np.zeros_like(x), g, np.array([0.0, 0.5]))
        with pytest.raises(SnapshotCadenceError, match="at least 4 snapshots"):
            advect(np.array([0.0]), rec)
        # every series of a run is checked, not only the one advect reads
        traj = advect(np.array([0.0]), synthetic_run(lambda t, x: 0 * x, g, np.arange(4.0)))
        rec = synthetic_run(lambda t, x: np.zeros_like(x), g, np.arange(3.0))
        with pytest.raises(SnapshotCadenceError, match="at least 4 snapshots"):
            sample_along(traj, rec, "rho")

    @pytest.mark.parametrize("times", [[0.0, 0.2, 0.1, 0.3, 0.4], [0.0, 0.1, 0.1, 0.2, 0.3]])
    def test_snapshot_times_must_increase(self, times):
        # a record assembled by hand, out of order or with a repeated instant
        g = build_grid(10.0, 256)
        rec = synthetic_run(lambda t, x: np.sin(math.pi * x / 10.0), g, np.array(times))
        still = synthetic_run(lambda t, x: 0 * x, g, np.linspace(0.0, 0.4, 5))
        traj = advect(np.array([0.0]), still)
        with pytest.raises(SnapshotCadenceError, match="strictly increasing"):
            advect(np.array([0.0]), rec)
        with pytest.raises(SnapshotCadenceError, match="strictly increasing"):
            sample_along(traj, rec, "u")

    @pytest.mark.parametrize("substeps", [0, -1])
    def test_substeps_must_be_positive(self, substeps):
        g = build_grid(10.0, 256)
        rec = synthetic_run(lambda t, x: np.sin(math.pi * x / 10.0), g, np.linspace(0.0, 1.0, 11))
        with pytest.raises(ValueError, match="substeps"):
            advect(np.array([0.0]), rec, substeps=substeps)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_sup_transport_error_stride_must_be_positive(self, stride):
        g = build_grid(10.0, 256)
        rec = synthetic_run(lambda t, x: np.sin(math.pi * x / 10.0), g, np.linspace(0.0, 1.0, 11))
        traj = advect(g.x[1:].copy(), rec)
        with pytest.raises(ValueError, match="stride"):
            sup_transport_error(traj, rec, stride=stride)

    def test_sup_transport_error_argmax_at_seed_edge(self):
        # frozen u = a sin(k x) with seeds right of the slope's peak at x = 0:
        # the largest seed slope is the first seed's, taken as it is, against
        # the grid sup a k at the node x = 0
        g = build_grid(10.0, 256)
        a, kk = 0.2, math.pi / 10.0
        rec = synthetic_run(lambda t, x: a * np.sin(kk * x), g, np.linspace(0.0, 1.0, 11))
        traj = advect(np.linspace(2.0, 5.0, 7), rec)
        assert np.all(np.argmax(traj.u_x_along, axis=1) == 0)
        expect = np.max(a * kk - traj.u_x_along[:, 0])
        assert sup_transport_error(traj, rec) == pytest.approx(expect, rel=1e-12)

    def test_seed_bounds(self):
        g = build_grid(10.0, 256)
        times = np.linspace(0.0, 1.0, 11)
        rec = synthetic_run(lambda t, x: np.zeros_like(x), g, times)
        with pytest.raises(ValueError):
            advect(np.array([10.0]), rec)

    @pytest.mark.parametrize(
        "seeds",
        [[math.nan], [math.inf], [-math.inf], [math.nan] * 30,
         np.append(np.linspace(-9.0, 9.0, 40), math.nan)],
        ids=["nan", "inf", "-inf", "30nan", "one_nan_of_41"],
    )
    def test_non_finite_seeds(self, seeds):
        # a seed that is not finite is out of [-L, L) too: refused before any
        # evaluation, by the direct sum (one point) or by gridding (30, 41)
        g = build_grid(10.0, 256)
        times = np.linspace(0.0, 1.0, 11)
        rec = synthetic_run(lambda t, x: np.zeros_like(x), g, times)
        with pytest.raises(ValueError, match=r"seeds must lie inside \[-L, L\)"):
            advect(np.array(seeds), rec)

    def test_sample_along_recovers_field(self):
        # frozen u = sin(k x) at mode n/3 with eta zero: u, u_x and rho = 1
        # sampled along the paths match the closed forms at those off-grid
        # points, for a single query point and for many, with seeds at both
        # ends of the box: at q = -L and 0.15 dx below +L.  At L = 10 no seed
        # below +L makes theta round to 2 pi, so the node clamp is not reached
        # here (TestBandLimitedField reaches it at L = 12.5)
        g = build_grid(10.0, 512)
        kk = math.pi * (g.n // 3) / g.half_length
        times = np.linspace(0.0, 1.0, 11)
        rec = synthetic_run(lambda t, x: np.sin(kk * x), g, times)
        rng = np.random.default_rng(5)
        seam = np.array([-10.0, 10.0 - 0.3 * g.dx / 2])
        for n_seeds in (1, 300):
            seeds = np.concatenate([rng.uniform(-10.0, 10.0, n_seeds), seam])
            traj = advect(seeds, rec)
            q = traj.path
            for which, exact in (("u", np.sin(kk * q)), ("u_x", kk * np.cos(kk * q))):
                err = np.max(np.abs(sample_along(traj, rec, which) - exact))
                assert err <= 1e-10, (which, n_seeds, err)
            assert np.max(np.abs(traj.u_x_along - kk * np.cos(kk * q))) <= 1e-10
            np.testing.assert_allclose(sample_along(traj, rec, "rho"), 1.0, atol=1e-10)
        with pytest.raises(ValueError):
            sample_along(traj, rec, "vorticity")

    @pytest.mark.parametrize("n_seeds", [1, 30])
    def test_slope_along_is_the_trajectorys(self, n_seeds, monkeypatch):
        # sample_along reads u_x from the trajectory and builds no series:
        # one advect, then u_x and rho, build 1 + 0 + 1 fields; the slope is
        # the u series' own, bit for bit, by the direct sum and by gridding
        g = build_grid(10.0, 256)
        times = np.linspace(0.0, 1.0, 11)
        rec = synthetic_run(lambda t, x: 0.2 * np.sin(math.pi * (x - 0.3 * t) / 10.0), g, times)
        seeds = np.random.default_rng(n_seeds).uniform(-10.0, 10.0, n_seeds)
        builds = []
        init = _BandLimitedField.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_BandLimitedField, "__init__", counting_init)
        traj = advect(seeds, rec)
        assert len(builds) == 1
        ux = sample_along(traj, rec, "u_x")
        assert len(builds) == 1
        sample_along(traj, rec, "rho")
        assert len(builds) == 2
        monkeypatch.undo()
        field = _series(rec, "u")
        expect = np.stack([field(t, traj.path[i])[1] for i, t in enumerate(traj.times)])
        assert np.array_equal(ux, expect)
        assert ux is not traj.u_x_along

    @pytest.mark.parametrize("substeps", [1, 2])
    def test_one_fine_grid_transform_per_instant(self, substeps, monkeypatch):
        # an RK4 substep evaluates at two distinct instants (k2 and k3 share
        # the midpoint, k4 and the next k1 the end), and a few seeds sum the
        # series directly, with no fine-grid transform at all
        g = build_grid(10.0, 256)
        m = 11
        times = np.linspace(0.0, 1.0, m)
        rec = synthetic_run(lambda t, x: 0.2 * np.sin(math.pi * x / 10.0), g, times)
        calls = []
        irfft = np.fft.irfft

        def counting_irfft(a, n=None, *args, **kwargs):
            calls.append(n)
            return irfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counting_irfft)
        many, one = g.x[1:].copy(), np.array([0.5])
        for seeds, expected in ((many, 2 * substeps * (m - 1) + 1), (one, 0)):
            calls.clear()
            advect(seeds, rec, substeps=substeps)
            assert calls.count(2 * g.n) == expected, (seeds.size, calls.count(2 * g.n))


class TestBandLimitedField:
    @pytest.mark.parametrize("L", [20.0, 12.5])
    def test_direct_sum_matches_gridding(self, L):
        # one field evaluates the same points by gridding in one call and by
        # the direct sum in calls of at most _DIRECT_MAX, the seam included:
        # the sums agree to 1e-12 of the field's max, value and slope.  At
        # L = 12.5 the theta of L - 2 ulp rounds to 2 pi, so gridding reaches
        # the node clamp; at L = 20 it does not
        g = build_grid(L, 1024)
        times = np.linspace(0.0, 1.0, 9)
        x = g.x
        F = np.stack(
            [np.exp(-((x - 3 * t) ** 2)) * np.sin(x + t) + 0.3 * np.exp(-(((x + 5) / 0.3) ** 2))
             for t in times]
        )
        field = _BandLimitedField(times, F, g)
        rng = np.random.default_rng(3)
        edges = [-L, L - 2 * np.spacing(L), L - 1e-13, L - g.dx / 3]
        assert (((edges[1] + L) % (2.0 * L)) * (math.pi / L) == 2.0 * math.pi) == (L == 12.5)
        q = np.concatenate([edges, rng.uniform(-L, L, 60)])
        for t in (0.0, 0.37, 1.0):
            gridded = field(t, q)
            assert field._key == (t, False)
            chunks = [field(t, q[i : i + _DIRECT_MAX]) for i in range(0, q.size, _DIRECT_MAX)]
            assert field._key == (t, True)
            scale = field(t, g.x)
            for i in (0, 1):
                direct = np.concatenate([c[i] for c in chunks])
                bound = 1e-12 * np.max(np.abs(scale[i]))
                assert np.max(np.abs(direct - gridded[i])) <= bound, (t, i)

    def test_gridding_matches_window_transcription(self):
        # gridding gives the bits of its first form: each point's 2W fine
        # values read as one window of a copy of the fine grid padded by W
        # columns either side, contracted as (f, p, j) against (j, p); the
        # seam is covered (at L = 12.5 the theta of L - 2 ulp rounds to 2 pi,
        # which the node clamp takes back to the last fine node), and so are
        # points advected out of the box and slices reused across calls
        g = build_grid(12.5, 1024)
        times = np.linspace(0.0, 1.0, 9)
        x = g.x
        F = np.stack([np.exp(-((x - 3 * t) ** 2)) * np.sin(x + t) for t in times])
        field = _BandLimitedField(times, F, g)
        L, W, h, tau = g.half_length, _HALF_WIDTH, field.h, field.tau

        def window_gridding(t, q):
            ch = field.spline_t(t).view(complex) * field.grid_weight
            fine = np.fft.irfft(np.stack([ch, field.ik * ch]), n=field.n_fine)
            fine = np.concatenate([fine[:, -W:], fine, fine[:, :W]], axis=1)
            windows = np.lib.stride_tricks.sliding_window_view(fine, 2 * W, axis=1)
            theta = ((q + L) % (2.0 * L)) * (math.pi / L)
            node = np.minimum(np.floor(theta / h), field.n_fine - 1)
            d0 = theta - node * h
            e2 = np.exp(d0 * (0.5 * h / tau))
            w = np.empty((2 * W, q.size))
            w[W - 1] = np.exp(d0 * d0 * (-0.25 / tau))
            for j in range(W, 2 * W):
                np.multiply(w[j - 1], e2, out=w[j])
            np.reciprocal(e2, out=e2)
            for j in range(W - 2, -1, -1):
                np.multiply(w[j + 1], e2, out=w[j])
            w *= field.e3
            return np.einsum("fpj,jp->fp", windows[:, node.astype(int) + 1], w)

        rng = np.random.default_rng(11)
        edges = np.array([-L, L - 2 * np.spacing(L), L - 1e-13, 1.5 * L, -1.5 * L])
        assert ((edges[1] + L) % (2.0 * L)) * (math.pi / L) == 2.0 * math.pi
        for t in (0.37, 0.37, 1.0):
            for size in (_DIRECT_MAX + 1, 4095):
                q = np.concatenate([edges, rng.uniform(-L, L, size - edges.size)])
                f, fx = field(t, q)
                assert field._key == (t, False)
                expect = window_gridding(t, q)
                assert np.array_equal(f, expect[0]) and np.array_equal(fx, expect[1]), (t, size)


class TestExtremumTrack:
    def test_track_on_frozen_field(self):
        # u_x of a sin has max a*k at x = 0
        g = build_grid(10.0, 1024)
        a, kk = 0.25, math.pi / 10.0
        times = np.linspace(0.0, 1.0, 11)
        rec = synthetic_run(lambda t, x: a * np.sin(kk * x), g, times)
        track = track_extremum(rec, "sup")
        np.testing.assert_allclose(track.M, a * kk, atol=1e-10)
        np.testing.assert_allclose(track.xi, 0.0, atol=1e-8)
        np.testing.assert_allclose(track.gamma, 1.0, atol=1e-10)

    def test_branches(self):
        g = build_grid(10.0, 512)
        times = np.linspace(0.0, 1.0, 11)
        rec = synthetic_run(
            lambda t, x: 0.1 * np.sin(math.pi * x / 10.0), g, times
        )
        sup = track_extremum(rec, "sup")
        inf = track_extremum(rec, "inf")
        assert np.all(sup.M > 0) and np.all(inf.M < 0)
        with pytest.raises(ValueError):
            track_extremum(rec, "median")

    @pytest.mark.parametrize("branch", ["max", "min", "Sup", ""])
    def test_track_from_rows_unknown_branch(self, branch):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        rec = RunRecord(params=p, grid=build_grid(10.0, 64), settings=RunSettings(t_end=1.0))
        with pytest.raises(ValueError, match="branch"):
            track_from_rows(rec, branch)

    def test_argmax_jump_mask(self):
        g = build_grid(10.0, 512)
        t = np.linspace(0, 1, 5)
        xi = np.array([0.0, 0.01, 5.0, 5.01, 5.02])
        track = ExtremumTrack("sup", t, xi, np.ones(5), np.ones(5), np.zeros(5))
        mask = argmax_jump_mask(track, g)
        assert mask.tolist() == [False, True, True, False, False]


class TestSnapshotRows:
    """A snapshot's track point is the run's own row at that instant; only a
    snapshot the run recorded no row at costs a row's transforms."""

    @staticmethod
    def small_run(diag_stride):
        # the smooth reference problem at n = 256
        params, _, spec = smooth_problem()
        grid = build_grid(20.0, 256)
        settings = RunSettings(
            t_end=0.3, tol=1e-8, dt_max=0.02, snapshot_cadence=1, diag_stride=diag_stride
        )
        return run(synthesize(spec, grid), params, grid, settings)

    @pytest.fixture
    def fft_calls(self, monkeypatch):
        calls = []
        for attr in ("rfft", "irfft"):
            fn = getattr(np.fft, attr)

            def counting(*args, _fn=fn, **kwargs):
                calls.append(1)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, attr, counting)
        return calls

    def test_recorded_rows_cost_no_transform(self, fft_calls):
        rec = self.small_run(diag_stride=1)
        assert [r.t for r in rec.rows] == [s.t for s in rec.snapshots]
        fft_calls.clear()
        for branch in ("sup", "inf"):
            track, want = track_extremum(rec, branch), track_from_rows(rec, branch)
            for name in ("t", "xi", "M", "gamma", "f_along"):
                assert np.array_equal(getattr(track, name), getattr(want, name)), name
        assert len(fft_calls) == 0

    def test_unrecorded_snapshot_costs_one_row(self, fft_calls):
        rec = self.small_run(diag_stride=3)
        recorded = {r.t: r for r in rec.rows}
        missing = [s for s in rec.snapshots if s.t not in recorded]
        assert 0 < len(missing) < len(rec.snapshots)
        fft_calls.clear()
        track = track_extremum(rec, "sup")
        assert len(fft_calls) == 5 * len(missing)
        kernel = SpectralKernel(rec.params, rec.grid)
        for i, snap in enumerate(rec.snapshots):
            row = recorded.get(snap.t) or make_diagnostic_row(
                snap, math.nan, kernel.forward(snap.u, snap.eta)
            )
            assert (track.t[i], track.xi[i], track.M[i], track.gamma[i], track.f_along[i]) == (
                row.t, row.x_at_sup_ux, row.sup_ux, row.gamma_sup, row.f_at_sup
            )

    def test_sup_transport_error_matches_grid_slope(self, smooth_run):
        # the grid sup from each snapshot's samples, refined on the grid
        grid, stride = smooth_run.grid, 5
        traj = advect(grid.x[1:].copy(), smooth_run)
        worst = 0.0
        for it in range(0, traj.times.size, stride):
            ux = deriv(smooth_run.snapshots[it].u, grid)
            _, grid_sup = refined_extremum(ux, grid.x, "max")
            vals, qs = traj.u_x_along[it], traj.path[it]
            j = int(np.argmax(vals))
            assert 0 < j < vals.size - 1
            _, seed_sup = _refine_parabolic(*qs[j - 1 : j + 2], *vals[j - 1 : j + 2])
            worst = max(worst, abs(float(seed_sup) - float(grid_sup)))
        assert abs(sup_transport_error(traj, smooth_run, stride) - worst) <= 1e-12


class TestOdeResiduals:
    def test_exact_riccati_track(self):
        # manufactured M, gamma solving the extremum system exactly with a
        # prescribed forcing
        p = PhysParams(A=0.0, sigma=-1.0, mu=0.0, Omega=0.0)
        T = 3.0
        t = np.linspace(0.0, 2.0, 400)
        M = -2.0 / (p.sigma * (T - t))  # solves M' + sigma/2 M^2 = 0
        gamma = np.exp(-cumulative_trapezoid(M, t, initial=0.0))
        f_along = -0.5 * p.coriolis_margin * gamma**2  # balances the gamma^2 term
        track = ExtremumTrack("sup", t, np.zeros_like(t), M, gamma, f_along)
        res_M, res_gamma = ode_residuals(track, p)
        # endpoints use one-sided differences; judge the interior
        assert np.max(np.abs(res_M[1:-1])) <= 1e-3
        assert np.max(np.abs(res_gamma[1:-1])) <= 1e-3

    def test_gamma_decay_consistency(self):
        t = np.linspace(0.0, 2.0, 200)
        M = 0.5 + 0.1 * np.sin(t)
        gamma = 1.3 * np.exp(-cumulative_trapezoid(M, t, initial=0.0))
        track = ExtremumTrack("sup", t, np.zeros_like(t), M, gamma, np.zeros_like(t))
        # quadrature mismatch between the trapezoid construction and the
        # spline evaluation is O(dt^2)
        assert gamma_decay_error(track) <= 1e-5

    def test_needs_three_samples(self):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        track = ExtremumTrack(
            "sup", np.array([0.0, 1.0]), np.zeros(2), np.zeros(2), np.ones(2), np.zeros(2)
        )
        with pytest.raises(ValueError):
            ode_residuals(track, p)


class TestTrackFromRows:
    def test_matches_snapshots_on_smooth_run(self, smooth_run):
        rows_track = track_from_rows(smooth_run, "sup")
        # without the run's rows every snapshot's row is made from its samples
        snap_track = track_extremum(dataclasses.replace(smooth_run, rows=[]), "sup")
        # snapshots and rows are both per accepted step on this run
        assert rows_track.t.size == snap_track.t.size
        np.testing.assert_allclose(rows_track.M, snap_track.M, atol=1e-9)
        np.testing.assert_allclose(rows_track.gamma, snap_track.gamma, atol=1e-9)
