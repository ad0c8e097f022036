"""Time stepping, diagnostics and breaking-time extrapolation."""

import math
import sys
import threading
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
import scipy.fft

import r2ch.evolution as evolution
from r2ch import crosscheck
from r2ch import (
    BlowupEvent,
    FieldState,
    FitWindowError,
    InitialDataSpec,
    PhysParams,
    ProfileTerm,
    RunSettings,
    SpectralKernel,
    boundary_leak,
    build_certificate,
    build_grid,
    detect_blowup,
    deriv,
    estimate_T,
    eval_f,
    refined_extremum,
    rhs,
    run,
    step,
    synthesize,
    thm42_certificate,
)
from r2ch.certificates import riccati_floor
from r2ch.crosscheck import direct_conv_oracle
from r2ch.evolution import (
    DiagnosticRow,
    NonFiniteState,
    _interp_at,
    _refine_parabolic,
    _rhs_arrays,
    energy,
    make_diagnostic_row,
)

from conftest import breaking_problem, cubic_moment_problem, forcing, smooth_problem


def make_row(t, sup_ux=0.0, inf_ux=0.0, m3=0.0):
    return DiagnosticRow(
        t=t, dt=0.0, E=1.0, sup_ux=sup_ux, inf_ux=inf_ux,
        x_at_sup_ux=0.0, x_at_inf_ux=0.0, sup_abs_eta=0.0, min_rho=1.0,
        m3=m3, f_sup_abs=0.0, boundary_leak=0.0,
    )


class TestRhsOracle:
    """The full right-hand side against a quadrature assembly that uses the
    physical-space kernel oracle and analytic profile derivatives."""

    @pytest.mark.parametrize(
        "params",
        [
            PhysParams(A=0.5, sigma=1.0, mu=0.2, Omega=0.1),
            PhysParams(A=-0.4, sigma=-1.5, mu=0.1, Omega=0.2),
            PhysParams(A=0.0, sigma=2.0, mu=0.0, Omega=0.0),
        ],
    )
    def test_quadrature_assembly(self, params):
        g = build_grid(20.0, 2048)
        uspec = InitialDataSpec(
            u_terms=(
                ProfileTerm("gaussian_bump", 0.3, 2.0, -1.0),
                ProfileTerm("slope_bump", 0.2, 1.5, 2.0),
            ),
            eta_terms=(ProfileTerm("eta_bump", 0.15, 2.0, 0.5),),
        )
        st = synthesize(uspec, g)
        u, eta = st.u, st.eta
        ux = sum(crosscheck.profile_dx(t, g.x) for t in uspec.u_terms)
        etax = sum(crosscheck.profile_dx(t, g.x) for t in uspec.eta_terms)
        rho = 1.0 + eta
        A, sigma, mu, Om = params.A, params.sigma, params.mu, params.Omega
        c = params.coriolis_margin

        bracket = (
            (mu - A) * u
            + 0.5 * (3.0 - sigma) * u**2
            + 0.5 * sigma * ux**2
            + c * (eta + 0.5 * eta**2)
            - Om * rho**2 * u
        )
        du_expect = (
            -(sigma * u - mu) * ux
            - direct_conv_oracle(bracket, g, "dxp")
            + Om * direct_conv_oracle(rho**2 * ux, g, "p")
        )
        deta_expect = -(ux * rho + u * etax)

        td = rhs(st, params, g)
        scale = np.max(np.abs(du_expect)) + 1.0
        np.testing.assert_allclose(td.du_dt / scale, du_expect / scale, atol=1e-9)
        np.testing.assert_allclose(td.deta_dt, deta_expect, atol=1e-9)

    def test_rest_state_exact_zero(self):
        g = build_grid(20.0, 1024)
        p = PhysParams(A=0.7, sigma=-2.0, mu=0.3, Omega=0.2)
        td = rhs(FieldState(0.0, np.zeros(g.n), np.zeros(g.n)), p, g)
        assert np.max(np.abs(td.du_dt)) == 0.0
        assert np.max(np.abs(td.deta_dt)) == 0.0

    def test_vanishing_density_mode_invariant(self):
        # eta = -1 (rho = 0) reduces to the single velocity equation;
        # deta/dt must vanish identically
        g = build_grid(10.0, 512)
        p = PhysParams(A=0.3, sigma=1.0, mu=0.1, Omega=0.2)
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("gaussian_bump", 0.2, 1.0, 0.0),), eta_zero=True
        )
        st = synthesize(spec, g)
        td = rhs(st, p, g)
        assert np.max(np.abs(td.deta_dt)) <= 1e-13

    def test_nonfinite_raises(self):
        g = build_grid(10.0, 256)
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        u = np.full(g.n, 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState):
                rhs(FieldState(0.0, u, np.zeros(g.n)), p, g)

    @pytest.mark.parametrize(
        "A, sigma, mu, Omega, symmetric",
        [
            (0.0, 1.0, 0.0, 0.0, True),
            (0.0, -1.0, 0.0, 0.0, True),
            (0.5, 1.0, 0.0, 0.1, False),  # the odd terms (mu - A) u and -Omega rho^2 u
            (0.0, 1.0, 0.2, 0.0, False),  # the transport speed sigma u - mu
        ],
    )
    def test_reflection_symmetry(self, A, sigma, mu, Omega, symmetric):
        # with A = Omega = mu = 0, v(x) = -u(-x) and zeta(x) = eta(-x) solve
        # the system when u and eta do, so the tendency of the reflected state
        # is the reflected tendency (crosscheck.reflection_defect).  The other
        # two cases show that the check can fail.
        g = build_grid(10.0, 256)
        x = g.x
        u = 0.3 * np.exp(-(((x - 1.0) / 1.5) ** 2)) - 0.2 * np.exp(-(((x + 2.5) / 0.8) ** 2))
        eta = 0.1 * np.exp(-(((x + 1.0) / 1.2) ** 2)) + 0.05 * np.exp(-(((x - 3.0) / 0.7) ** 2))
        p = PhysParams(A=A, sigma=sigma, mu=mu, Omega=Omega)
        defect = crosscheck.reflection_defect(u, eta, p, g)
        if symmetric:
            assert defect <= 1e-13, defect
        else:
            assert defect >= 1e-2, defect


def _tendency_unbatched(uh, etah, u, eta, ux, params, grid):
    """Tendency spectra from the four products u^2, rho^2 u_x, u eta and the
    bracket B, one transform per field, each floating-point expression in the
    order of the batched kernel."""
    A, sigma, mu, Om = params.A, params.sigma, params.mu, params.Omega
    c = params.coriolis_margin
    k = grid.k
    ik = 1j * k
    ik[-1] = 0.0
    helm = 1.0 + k**2
    ik_helm = ik / helm
    mask = np.arange(k.size) <= grid.n // 3
    rho2 = (1.0 + eta) ** 2
    u2 = u * u
    bracket = (
        0.5 * (3.0 - sigma) * u2
        + 0.5 * sigma * (ux * ux)
        + 0.5 * c * (eta * eta)
        - Om * (rho2 * u)
    )
    u2h = scipy.fft.rfft(u2)
    r2uxh = scipy.fft.rfft(rho2 * ux)
    uetah = scipy.fft.rfft(u * eta)
    bh = scipy.fft.rfft(bracket)
    for h in (u2h, r2uxh, uetah, bh):
        h[~mask] = 0.0
    w_uh = mu * ik - (mu - A) * ik_helm
    duh = (
        w_uh * uh + (-c * ik_helm) * etah + (-0.5 * sigma * ik) * u2h + (Om / helm) * r2uxh
    ) - ik_helm * bh
    detah = -(ik * (uetah + uh))
    return duh, detah


def _rhs_unbatched(u, eta, params, grid):
    """The physical tendency with one transform per field; returns
    (du, deta, u_x)."""
    n = grid.n
    uh = scipy.fft.rfft(u)
    etah = scipy.fft.rfft(eta)
    ik = 1j * grid.k
    ik[-1] = 0.0
    ux = scipy.fft.irfft(uh * ik, n=n)
    duh, detah = _tendency_unbatched(uh, etah, u, eta, ux, params, grid)
    return scipy.fft.irfft(duh, n=n), scipy.fft.irfft(detah, n=n), ux


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    g = build_grid(10.0, n)
    bump = np.exp(-(g.x**2))
    u = rng.uniform(0.1, 1.0) * bump + 0.01 * rng.standard_normal(n)
    eta = rng.uniform(-0.3, 0.3) * bump + 0.01 * rng.standard_normal(n)
    return g, u, eta


class TestBatchedRhs:
    """The batched evaluation is the unbatched one, bit for bit."""

    @pytest.mark.parametrize("n", [256, 4096])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_unbatched_oracle(self, n, seed):
        g, u, eta = _random_state(n, seed)
        p = PhysParams(A=0.4, sigma=-1.3, mu=0.2, Omega=0.15)
        du, deta, ux = _rhs_unbatched(u, eta, p, g)
        td = rhs(FieldState(0.0, u, eta), p, g)
        np.testing.assert_array_equal(td.du_dt, du)
        np.testing.assert_array_equal(td.deta_dt, deta)
        kernel = SpectralKernel(p, g)
        sp = kernel.forward(u, eta)
        np.testing.assert_array_equal(sp.ux, ux)
        # the held transforms give the same tendency, also after another
        # state was transformed by the same kernel (its scratch rows reused)
        kernel.forward(2.0 * u, eta)
        held = scipy.fft.irfft(_rhs_arrays(sp, np.empty((2, g.k.size), complex)), n=n)
        np.testing.assert_array_equal(held[0], du)
        np.testing.assert_array_equal(held[1], deta)

    @pytest.mark.parametrize("n", [256, 4096])
    def test_stage_equals_unbatched_oracle(self, n):
        # a stage starts from a spectrum: one irfft gives u, eta and u_x
        g, u, eta = _random_state(n, 2)
        p = PhysParams(A=0.4, sigma=-1.3, mu=0.2, Omega=0.15)
        uh, etah = scipy.fft.rfft(u), scipy.fft.rfft(eta)
        ik = 1j * g.k
        ik[-1] = 0.0
        u_s, eta_s, ux_s = (scipy.fft.irfft(h, n=n) for h in (uh, etah, ik * uh))
        duh, detah = _tendency_unbatched(uh, etah, u_s, eta_s, ux_s, p, g)
        kernel = SpectralKernel(p, g)
        rows = np.empty((3, g.k.size), dtype=complex)
        rows[0], rows[1] = uh, etah
        sp = kernel.inverse(rows)
        np.testing.assert_array_equal(sp.ux, ux_s)
        got = _rhs_arrays(sp, np.empty((2, g.k.size), complex))
        np.testing.assert_array_equal(got[0], duh)
        np.testing.assert_array_equal(got[1], detah)


def _steep_state(n):
    # the steep slope of the breaking runs, with a density bump
    g = build_grid(5.0, n)
    u = 9.0 * g.x * np.exp(-((g.x / 0.1) ** 2))
    eta = 0.2 * np.exp(-((g.x / 0.5) ** 2))
    return g, u, eta


class TestTendencyOracle:
    """The four-product kernel against the six-product transcription
    ``crosscheck.tendency_alt`` on the same samples.  (A stage's samples come
    from an irfft of its spectrum; the stage path is checked bitwise in
    ``TestBatchedRhs``.)"""

    @pytest.mark.parametrize("n", [256, 4096, 2**14])
    def test_matches_six_products(self, n):
        if n == 256:
            g, u, eta = _random_state(n, 3)
        else:
            g, u, eta = _steep_state(n)
        p = PhysParams(A=0.5, sigma=-1.0, mu=0.3, Omega=0.1)
        du, deta = crosscheck.tendency_alt(u, eta, p.A, p.sigma, p.mu, p.Omega, g.half_length)
        scale = np.max(np.abs(du))
        td = rhs(FieldState(0.0, u, eta), p, g)
        assert np.max(np.abs(td.du_dt - du)) <= 1e-14 * scale
        assert np.max(np.abs(td.deta_dt - deta)) <= 1e-14 * scale


class TestFourierStep:
    """The Fourier-space step against a physical-space Cash-Karp step on the
    six-product tendency ``crosscheck.tendency_alt``."""

    @staticmethod
    def physical_step(u, eta, dt, p, g):
        ku, keta = [], []
        for i in range(6):
            ui, ei = u.copy(), eta.copy()
            for j, a in enumerate(evolution._CK_A[i]):
                ui += dt * a * ku[j]
                ei += dt * a * keta[j]
            du, deta = crosscheck.tendency_alt(ui, ei, p.A, p.sigma, p.mu, p.Omega, g.half_length)
            ku.append(du)
            keta.append(deta)
        u5 = u + dt * sum(b * kj for b, kj in zip(evolution._CK_B5, ku))
        e5 = eta + dt * sum(b * kj for b, kj in zip(evolution._CK_B5, keta))
        u4 = u + dt * sum(b * kj for b, kj in zip(evolution._CK_B4, ku))
        e4 = eta + dt * sum(b * kj for b, kj in zip(evolution._CK_B4, keta))
        diff = max(np.max(np.abs(u5 - u4)), np.max(np.abs(e5 - e4)))
        scale = evolution.ERR_ABS_FLOOR + max(np.max(np.abs(u4)), np.max(np.abs(e4)))
        return u4, e4, diff / scale

    # steps whose error estimate (3e-8, 5e-6) stands well above the rounding
    # of the transcription's u5 - u4
    @pytest.mark.parametrize("dt", [0.2, 0.5])
    def test_matches_physical_transcription(self, dt):
        p, g, st = TestTransformCounts.problem()
        u4, e4, err = self.physical_step(st.u, st.eta, dt, p, g)
        new, got_err = step(st, dt, SpectralKernel(p, g))
        assert new.t == st.t + dt
        assert np.max(np.abs(new.u - u4)) <= 1e-13
        assert np.max(np.abs(new.eta - e4)) <= 1e-13
        assert got_err == pytest.approx(err, rel=1e-6)


class TestTransformCounts:
    """FFT calls per stage evaluation, step end, attempted step and
    diagnostic row, counted at the numpy.fft entry points."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"fft": 0, "rhs": 0, "step": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for attr in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, attr, counting("fft", getattr(np.fft, attr)))
        monkeypatch.setattr(evolution, "_rhs_arrays", counting("rhs", evolution._rhs_arrays))
        monkeypatch.setattr(evolution, "step", counting("step", evolution.step))
        return counts

    @staticmethod
    def problem():
        p = PhysParams(A=0.5, sigma=1.0, mu=0.2, Omega=0.1)
        g = build_grid(20.0, 256)
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("gaussian_bump", 0.3, 2.0, 0.0),),
            eta_terms=(ProfileTerm("eta_bump", 0.1, 2.0, 0.0),),
        )
        return p, g, synthesize(spec, g)

    def test_per_evaluation_and_row(self, counts):
        p, g, st = self.problem()
        rhs(st, p, g)
        assert counts["fft"] == 4
        kernel = SpectralKernel(p, g)
        sp = kernel.forward(st.u, st.eta)
        assert counts["fft"] == 6
        # the row's forcing (2 calls) forms the state's products (1 call)
        make_diagnostic_row(st, 0.01, sp)
        assert counts["fft"] == 9
        evolution._rhs_arrays(sp, np.empty((2, g.k.size), complex))
        assert counts["fft"] == 9
        rows = np.empty((3, g.k.size), dtype=complex)
        rows[:2] = sp.spectrum
        evolution._rhs_arrays(kernel.inverse(rows), np.empty((2, g.k.size), complex))
        assert counts["fft"] == 11
        # a step from a state the stepper made: its products, 5 stages and
        # the step end
        new, _ = step(st, 0.01, kernel)
        counts["fft"] = 0
        step(new, 0.01, kernel)
        assert counts["fft"] == 12

    def test_run_with_rejected_step(self, counts):
        p, g, st = self.problem()
        # a first step of 0.3 at tol 1e-10 is rejected
        settings = RunSettings(
            t_end=0.3, tol=1e-10, dt_init=0.3, dt_max=0.3, diag_stride=1,
            snapshot_cadence=0,
        )
        rec = evolution.run(st, p, g, settings)
        assert rec.termination.event == "reached_t_end"
        rows = len(rec.rows)
        accepted = rows - 1  # a row at t=0 and at every accepted step
        rejected = counts["step"] - accepted
        assert rejected >= 1
        # k1 and 5 stages per attempted step, a retried one included
        assert counts["rhs"] == 6 * counts["step"]
        # the initial state's transforms (3 calls), 11 per attempted step,
        # the products of each accepted state and 2 per row
        assert counts["fft"] == 3 + 11 * counts["step"] + accepted + 2 * rows
        assert rec.steps_accepted == accepted
        assert rec.steps_rejected == rejected
        assert rec.rhs_evals == counts["rhs"]
        used = [row.dt for row in rec.rows[1:]]
        assert rec.accepted_dt_min == min(used)
        assert rec.accepted_dt_max == max(used)

    def test_products_formed_once(self, counts):
        # a stepped state's first reader forms its products, and a row and a
        # step from it share that one rfft; the step leaves its own new
        # state's products unformed
        new, kernel = TestStep.stepped()
        held = new._transforms
        counts["fft"] = 0
        make_diagnostic_row(new, 0.01, held)
        assert counts["fft"] == 1 + 2
        later, _ = step(new, 0.01, kernel)
        assert held.products is held.products
        assert counts["fft"] == 3 + 11
        assert later._transforms.products is later._transforms.products
        assert counts["fft"] == 3 + 11 + 1

    def test_one_kernel_per_run(self, monkeypatch):
        p, g, st = self.problem()
        built = []
        init = SpectralKernel.__init__

        def counting(kernel, params, grid):
            built.append(params)
            init(kernel, params, grid)

        monkeypatch.setattr(SpectralKernel, "__init__", counting)
        settings = RunSettings(
            t_end=0.3, tol=1e-10, dt_init=0.3, dt_max=0.3, diag_stride=1,
            snapshot_cadence=0,
        )
        rec = evolution.run(st, p, g, settings)
        assert rec.steps_rejected >= 1 and rec.steps_accepted >= 1
        assert built == [p]

    def test_held_spectra_reuse_one_kernel(self, monkeypatch):
        # rows, forcings and steps from one caller's kernel build no other
        p, g, st = self.problem()
        want_f = forcing(st, p, g)
        want_row = make_diagnostic_row(st, 0.01, SpectralKernel(p, g).forward(st.u, st.eta))
        want_step = step(st, 0.01, SpectralKernel(p, g))
        kernel = SpectralKernel(p, g)
        built = []
        init = SpectralKernel.__init__

        def counting(kernel, params, grid):
            built.append(params)
            init(kernel, params, grid)

        monkeypatch.setattr(SpectralKernel, "__init__", counting)
        for _ in range(5):
            sp = kernel.forward(st.u, st.eta)
            assert np.array_equal(eval_f(sp), want_f)
            row = make_diagnostic_row(st, 0.01, sp)
            assert row == want_row
            new, err = step(st, 0.01, kernel)
            assert err == want_step[1]
            assert np.array_equal(new.u, want_step[0].u)
            assert np.array_equal(new.eta, want_step[0].eta)
        assert built == []


class TestScipyFftBits:
    """r2ch computes every transform with numpy.fft; scipy.fft runs the same
    C++ pocketfft.  Swapping numpy.fft's rfft and irfft for scipy.fft's leaves
    a run's rows and final state, the certificate and the forcing the same
    bits, so an upgrade of either library that moves the artifacts fails
    here."""

    @staticmethod
    def outputs(p, g, st, settings):
        rec = run(st, p, g, settings)
        return (
            repr(rec.rows),
            repr(rec.termination),
            rec.final_state.u.tobytes(),
            rec.final_state.eta.tobytes(),
            repr(build_certificate(st, p, g)),
            forcing(st, p, g).tobytes(),
        )

    @pytest.mark.parametrize("problem", ["n256", "criterion10_n4096"])
    def test_run_certificate_and_forcing(self, monkeypatch, problem):
        if problem == "n256":
            p, g, st = TestTransformCounts.problem()
            settings = RunSettings(t_end=0.3, tol=1e-10, dt_init=0.3, dt_max=0.3, diag_stride=1)
        else:
            p = PhysParams(A=0.5, sigma=-1.0, mu=0.0, Omega=0.1)
            g = build_grid(5.0, 4096)
            spec = InitialDataSpec(u_terms=(ProfileTerm("slope_bump", 9.0, 0.1, 0.0),))
            st = synthesize(spec, g)
            settings = RunSettings(t_end=0.01, dt_max=0.01, diag_stride=1)
        shipped = self.outputs(p, g, st, settings)
        for attr in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, attr, getattr(scipy.fft, attr))
        assert self.outputs(p, g, st, settings) == shipped


class TestSharedGrid:
    """Runs on one grid share only its read-only multipliers: each run's
    kernel owns its scratch space."""

    def test_threaded_runs_match_sequential(self):
        p = PhysParams(A=0.5, sigma=1.0, mu=0.2, Omega=0.1)
        g = build_grid(20.0, 512)
        settings = RunSettings(t_end=0.25, dt_max=0.02, snapshot_cadence=0)
        states = [
            synthesize(
                InitialDataSpec(
                    u_terms=(ProfileTerm("gaussian_bump", amp, 2.0, 0.0),),
                    eta_terms=(ProfileTerm("eta_bump", 0.1, 2.0, 0.0),),
                ),
                g,
            )
            for amp in (0.3, 0.25)
        ]
        expect = [run(st, p, g, settings) for st in states]
        got = [None, None]

        def work(i):
            got[i] = run(states[i], p, g, settings)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for rec, ref in zip(got, expect):
            np.testing.assert_array_equal(rec.final_state.u, ref.final_state.u)
            np.testing.assert_array_equal(rec.final_state.eta, ref.final_state.eta)
            assert [row.E for row in rec.rows] == [row.E for row in ref.rows]


class TestRiccatiIdentity:
    def test_differentiated_equation_at_extremum(self):
        """At the slope maximizer the differentiated equation collapses to
        dM/dt = -sigma/2 M^2 + (1-2 Omega A)/2 gamma^2 + f; verify the
        discrete operators reproduce it on a well-resolved state."""
        p = PhysParams(A=0.5, sigma=-1.0, mu=0.0, Omega=0.1)
        g = build_grid(5.0, 8192)
        spec = InitialDataSpec(u_terms=(ProfileTerm("slope_bump", 9.0, 0.1, 0.0),))
        st = synthesize(spec, g)
        ux = deriv(st.u, g)
        i = int(np.argmax(ux))
        td = rhs(st, p, g)
        lhs = deriv(td.du_dt, g)[i] + (p.sigma * st.u[i] - p.mu) * deriv(ux, g)[i]
        f = forcing(st, p, g)[i]
        gam = st.rho[i]
        pred = -0.5 * p.sigma * ux[i] ** 2 + 0.5 * p.coriolis_margin * gam**2 + f
        assert lhs == pytest.approx(pred, rel=1e-9)


class TestStep:
    def test_error_estimate_order(self):
        # the embedded difference estimates the 5th order local error: under
        # dt halving it should shrink by about 2^5
        p = PhysParams(A=0.5, sigma=1.0, mu=0.2, Omega=0.1)
        g = build_grid(20.0, 1024)
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("gaussian_bump", 0.3, 2.0, 0.0),),
            eta_terms=(ProfileTerm("eta_bump", 0.1, 2.0, 0.0),),
        )
        st = synthesize(spec, g)
        kernel = SpectralKernel(p, g)
        _, e1 = step(st, 0.02, kernel)
        _, e2 = step(st, 0.01, kernel)
        assert 20.0 <= e1 / e2 <= 45.0

    def test_rejects_nonpositive_dt(self):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        g = build_grid(10.0, 256)
        st = FieldState(0.0, np.zeros(g.n), np.zeros(g.n))
        with pytest.raises(ValueError):
            step(st, 0.0, SpectralKernel(p, g))

    def test_time_advances(self):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        g = build_grid(10.0, 256)
        st = FieldState(1.5, np.zeros(g.n), np.zeros(g.n))
        new, err = step(st, 0.25, SpectralKernel(p, g))
        assert new.t == pytest.approx(1.75)
        assert err == 0.0

    @staticmethod
    def stepped():
        # a state the stepper made, which holds its spectrum and slope
        p = PhysParams(A=0.3, sigma=1.0, mu=0.1, Omega=0.1)
        g = build_grid(20.0, 1024)
        spec = InitialDataSpec(u_terms=(ProfileTerm("gaussian_bump", 0.4, 2.0, 0.1),))
        kernel = SpectralKernel(p, g)
        return step(synthesize(spec, g), 0.01, kernel)[0], kernel

    def test_replaced_state_steps_from_its_samples(self):
        # replace() keeps none of the transforms of the samples it replaced
        new, kernel = self.stepped()
        got, _ = step(replace(new, u=2.0 * new.u), 0.01, kernel)
        want, _ = step(FieldState(new.t, 2.0 * new.u, new.eta.copy()), 0.01, kernel)
        np.testing.assert_array_equal(got.u, want.u)
        np.testing.assert_array_equal(got.eta, want.eta)

    def test_stepped_samples_read_only(self):
        # an in-place edit would leave the held transforms stale
        new, _ = self.stepped()
        for a in (new.u, new.eta):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_held_transforms_own_their_memory(self):
        # a retried step reads them after every kernel buffer is rewritten;
        # the products are the ones the first step from the state cached
        new, kernel = self.stepped()
        held = new._transforms
        assert held.kernel is kernel
        step(new, 0.01, kernel)
        assert "products" in vars(held)
        buffers = (kernel.rows, kernel.stages, kernel.product_rows, kernel.scratch)
        for a in (held.spectrum, held.u, held.eta, held.ux, held.products):
            assert not any(np.shares_memory(a, b) for b in buffers)

    def test_read_order_bit_equal(self):
        # products and forcing read in either order, with another state's
        # transforms and step between the reads, give the bits of a kernel of
        # their own
        new, kernel = self.stepped()
        other = FieldState(new.t, 2.0 * new.u, new.eta.copy())

        def between():
            eval_f(kernel.forward(other.u, other.eta))
            step(other, 0.01, kernel)

        a, b = (kernel.forward(new.u, new.eta) for _ in range(2))
        a_products = a.products
        between()
        a_f = eval_f(a)
        b_f = eval_f(b)
        between()
        ref = SpectralKernel(kernel.params, kernel.grid).forward(new.u, new.eta)
        for products in (a_products, b.products):
            np.testing.assert_array_equal(products, ref.products)
        for f in (a_f, b_f):
            np.testing.assert_array_equal(f, eval_f(ref))

    @staticmethod
    def assert_same_step(got, want):
        (a, err_a), (b, err_b) = got, want
        assert err_a == err_b and a.t == b.t
        for x, y in ((a.u, b.u), (a.eta, b.eta), (a._transforms.products, b._transforms.products)):
            np.testing.assert_array_equal(x, y)

    def test_retried_step_bit_equal(self):
        # every attempt forms k1 afresh, so an attempt at another dt between
        # two at one dt changes nothing
        new, kernel = self.stepped()
        first = step(new, 0.02, kernel)
        step(new, 0.05, kernel)
        self.assert_same_step(step(new, 0.02, kernel), first)

    def test_other_kernel_transforms_from_samples(self):
        # held transforms serve only their own kernel; another one, here on
        # a grid of other length, steps as from a state that holds none
        new, kernel = self.stepped()
        g = build_grid(2.0 * kernel.grid.half_length, kernel.grid.n)
        q = SpectralKernel(PhysParams(A=0.5, sigma=-1.0, mu=0.2, Omega=0.2), g)
        got = step(new, 0.02, q)
        assert got[0]._transforms.kernel is q
        self.assert_same_step(got, step(replace(new), 0.02, q))

    def test_no_k1_option(self):
        new, kernel = self.stepped()
        with pytest.raises(TypeError):
            step(new, 0.01, kernel, k1=np.zeros((2, kernel.grid.k.size), complex))


class TestEnergy:
    def test_analytic_initial_energy(self):
        # closed-form integrals of the Gaussian profiles
        p = PhysParams(A=0.3, sigma=1.0, mu=0.0, Omega=0.1)
        g = build_grid(20.0, 4096)
        a, w, b, we = 0.3, 2.0, 0.1, 1.5
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("gaussian_bump", a, w, 0.0),),
            eta_terms=(ProfileTerm("eta_bump", b, we, 0.0),),
        )
        st = synthesize(spec, g)
        expect = math.sqrt(math.pi / 2.0) * (
            a**2 * w + a**2 / w + p.coriolis_margin * b**2 * we
        )
        assert energy(st, p, g, deriv(st.u, g)) == pytest.approx(expect, rel=1e-10)

    def test_short_run_conserves(self):
        p = PhysParams(A=0.5, sigma=1.0, mu=0.2, Omega=0.1)
        g = build_grid(20.0, 2048)
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("gaussian_bump", 0.3, 2.0, 0.0),),
            eta_terms=(ProfileTerm("eta_bump", 0.1, 2.0, 0.0),),
        )
        st = synthesize(spec, g)
        rec = run(st, p, g, RunSettings(t_end=1.0, tol=1e-8, diag_stride=1))
        E = np.array([r.E for r in rec.rows])
        assert np.max(np.abs(E - E[0])) / E[0] <= 1e-8


class TestExtremumRefinement:
    def test_parabola_recovered_exactly(self):
        x = np.linspace(-10, 10, 401)
        y = 2.0 - 3.0 * (x - 1.234) ** 2
        loc, val = refined_extremum(y, x, "max")
        assert loc == pytest.approx(1.234, abs=1e-12)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_min_mode(self):
        x = np.linspace(0, 1, 101)
        y = (x - 0.4071) ** 2
        loc, val = refined_extremum(y, x, "min")
        assert loc == pytest.approx(0.4071, abs=1e-12)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_tie_breaks_smallest_x(self):
        x = np.linspace(0, 1, 11)
        y = np.zeros(11)
        loc, _ = refined_extremum(y, x, "max")
        assert loc == x[0]
        # a degenerate triple keeps its middle point: flat, with coincident
        # abscissae, or with its vertex outside the bracket
        for xs, ys in (((0.0, 1.0, 2.0), (3.0, 3.0, 3.0)), ((1.0, 1.0, 2.0), (0.0, 1.0, 0.0)),
                       ((-1.0, 0.0, 1.0), (1.0, 2.0, 4.0))):
            assert _refine_parabolic(*xs, *ys) == (xs[1], ys[1])

    def test_interp_quadratic_exact(self):
        x = np.linspace(-5, 5, 101)
        y = 1.0 + 2.0 * x + 0.5 * x**2
        for xq in (0.03, -1.27, 3.99):
            assert _interp_at(y, x, xq) == pytest.approx(
                1.0 + 2.0 * xq + 0.5 * xq**2, abs=1e-10
            )


class TestRunTermination:
    def test_reached_t_end(self):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        g = build_grid(10.0, 256)
        st = FieldState(0.0, np.zeros(g.n), np.zeros(g.n))
        rec = run(st, p, g, RunSettings(t_end=0.1))
        assert rec.termination.event == "reached_t_end"
        assert rec.final_state.t == pytest.approx(0.1)
        assert rec.rows[-1].t == pytest.approx(0.1)

    def test_step_floor(self):
        p = PhysParams(A=0.5, sigma=1.0, mu=0.2, Omega=0.1)
        g = build_grid(20.0, 512)
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("gaussian_bump", 0.3, 2.0, 0.0),)
        )
        st = synthesize(spec, g)
        # an unreachable tolerance drives dt to the floor
        settings = RunSettings(t_end=1.0, tol=1e-300, dt_floor=1e-6, dt_init=1e-3)
        rec = run(st, p, g, settings)
        assert rec.termination.event == "step_floor"
        assert "dt_floor" in rec.termination.detail

    def test_step_floor_after_accepted_step(self):
        # a tolerance equal to the error estimate of the first step accepts
        # it with a step-size factor of 0.9, which leaves the next dt of
        # 9.45e-7 below a floor of 1e-6: the run ends there, not on a rejection
        p, g, st = TestTransformCounts.problem()
        _, err = step(st, 1.05e-6, SpectralKernel(p, g))
        settings = RunSettings(t_end=1.0, tol=err, dt_floor=1e-6, dt_init=1.05e-6)
        rec = run(st, p, g, settings)
        assert rec.termination.event == "step_floor"
        assert rec.steps_accepted == 1 and rec.steps_rejected == 0
        assert rec.termination.t == 1.05e-6
        detail = rec.termination.detail
        assert detail.startswith("accepted step of dt 1.05e-06 at t 1.05e-06")
        assert "next dt 9.45e-07" in detail

    @pytest.mark.parametrize("amplitude", [1e150, 1e160])
    def test_invariant_violation(self, amplitude):
        # u0 = a exp(-x^2) under a blow-up threshold it never reaches: with
        # a = 1e150 a stage of the first step squares past the float range,
        # with a = 1e160 the initial state's own tendency does; either way the
        # run ends on the state it holds, at t = 0, without a numpy warning.
        # The stability cap (3e-151 at a = 1e150) is held at 1.5 dt_floor, so
        # the first step is tried rather than ending on step_floor
        p = PhysParams(A=0.5, sigma=1.0, mu=0.2, Omega=0.1)
        g = build_grid(20.0, 256)
        st = FieldState(0.0, amplitude * np.exp(-(g.x**2)), np.zeros(g.n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = run(st, p, g, RunSettings(t_end=0.1, blowup_threshold=1e300))
        assert rec.termination.event == "invariant_violation"
        assert rec.termination.t == 0.0
        assert rec.termination.detail == "non-finite tendency"
        assert rec.steps_accepted == 0 and rec.final_state is not None

    def test_lands_on_t_end(self):
        # ten steps of 0.02 sum to 0.19999999999999998; the 2.8e-17 left over
        # joins the tenth step rather than becoming an eleventh step after
        # which the controller leaves dt below dt_floor
        p, g, spec = smooth_problem()
        settings = RunSettings(t_end=0.2, dt_init=0.02, dt_max=0.02)
        rec = run(synthesize(spec, g), p, g, settings)
        assert rec.termination.event == "reached_t_end"
        assert rec.steps_accepted == 10
        assert rec.rows[-1].t == 0.2
        assert rec.accepted_dt_min > settings.dt_floor

    def test_closing_snapshot_off_cadence(self):
        # ten steps of 0.02 at cadence 3 store steps 0, 3, 6 and 9; the run
        # that reaches t_end adds its last state as the closing snapshot
        p, g, spec = smooth_problem()
        settings = RunSettings(t_end=0.2, dt_init=0.02, dt_max=0.02, snapshot_cadence=3)
        rec = run(synthesize(spec, g), p, g, settings)
        assert rec.termination.event == "reached_t_end" and rec.steps_accepted == 10
        assert [s.t for s in rec.snapshots] == pytest.approx([0.0, 0.06, 0.12, 0.18, 0.2])
        assert rec.snapshots[-1] is rec.final_state

    def test_snapshot_cadence_zero_disables(self):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        g = build_grid(10.0, 256)
        st = FieldState(0.0, np.zeros(g.n), np.zeros(g.n))
        rec = run(st, p, g, RunSettings(t_end=0.05, snapshot_cadence=0))
        assert rec.snapshots == []

    def test_stored_states_own_their_samples(self):
        # snapshots and the final state hold their own (2, n) block, not the
        # step's end-of-step rows, and none keeps the stepper's transforms
        p, g, st = TestTransformCounts.problem()
        rec = run(st, p, g, RunSettings(t_end=0.3, snapshot_cadence=1))
        assert len(rec.snapshots) > 2
        for s in rec.snapshots[1:] + [rec.final_state]:
            for a in (s.u, s.eta):
                assert a.shape == (g.n,) and a.base is not None
                assert a.base.shape == (2, g.n) and a.base.base is None
            assert s._transforms is None

    def test_record_owns_the_initial_samples(self):
        # the run steps from its own read-only copy, so an edit of the
        # caller's arrays after the run leaves the record as it was
        p, g, st = TestTransformCounts.problem()
        u0, eta0 = st.u.copy(), st.eta.copy()
        stepped = run(st, p, g, RunSettings(t_end=0.05, snapshot_cadence=1))
        unstepped = run(st, p, g, RunSettings(t_end=0.05, blowup_threshold=1e-3))
        assert stepped.steps_accepted >= 1 and unstepped.steps_accepted == 0
        st.u[:] = 0.0
        st.eta[:] = 0.0
        for s in (stepped.snapshots[0], unstepped.final_state):
            np.testing.assert_array_equal(s.u, u0)
            np.testing.assert_array_equal(s.eta, eta0)
            assert not (s.u.flags.writeable or s.eta.flags.writeable)

    def test_final_snapshot_present(self):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        g = build_grid(10.0, 256)
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("gaussian_bump", 0.05, 1.0, 0.0),)
        )
        st = synthesize(spec, g)
        rec = run(st, p, g, RunSettings(t_end=0.3, snapshot_cadence=1))
        assert rec.snapshots[-1].t == pytest.approx(rec.final_state.t)


class TestDetectBlowup:
    def test_positive_sigma_fires_on_inf(self):
        rows = [make_row(0.0), make_row(1.0, inf_ux=-60.0)]
        ev = detect_blowup(rows, 1.0, 50.0)
        assert ev == BlowupEvent(1, 1.0, "inf_ux")

    def test_positive_sigma_ignores_sup(self):
        rows = [make_row(0.0, sup_ux=100.0)]
        assert detect_blowup(rows, 1.0, 50.0) is None

    def test_negative_sigma_fires_on_sup(self):
        rows = [make_row(0.0, sup_ux=49.0), make_row(0.5, sup_ux=51.0)]
        ev = detect_blowup(rows, -1.0, 50.0)
        assert ev.criterion == "sup_ux" and ev.index == 1

    def test_two_sided(self):
        rows = [make_row(0.0, inf_ux=-70.0)]
        ev = detect_blowup(rows, 0.0, 50.0)
        assert ev.criterion == "sup_abs_ux"

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            detect_blowup([], 1.0, 50.0)


class TestEstimateT:
    def synthetic(self, sigma, T, branch):
        ts = np.linspace(0.0, T - 0.02, 300)
        M = -2.0 / (sigma * (T - ts))
        return [
            make_row(float(t), sup_ux=float(m) if branch == "sup" else 0.0,
                     inf_ux=float(m) if branch == "inf" else 0.0)
            for t, m in zip(ts, M)
        ]

    def test_exact_reciprocal_sup(self):
        p = PhysParams(A=0.0, sigma=-1.0, mu=0.0, Omega=0.0)
        fit = estimate_T(self.synthetic(-1.0, 3.0, "sup"), p, "sup", (2.0, 1e4))
        assert fit.T_est == pytest.approx(3.0, abs=1e-9)
        assert fit.slope_est == pytest.approx(-0.5, abs=1e-9)
        assert fit.reliable

    def test_exact_reciprocal_inf(self):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        fit = estimate_T(self.synthetic(1.0, 2.0, "inf"), p, "inf", (2.0, 1e4))
        assert fit.T_est == pytest.approx(2.0, abs=1e-9)
        assert fit.slope_est == pytest.approx(0.5, abs=1e-9)
        assert fit.reliable

    def test_wrong_sign_slope_unreliable(self):
        # decaying gradient: 1/M slope has the wrong sign for sigma < 0
        p = PhysParams(A=0.0, sigma=-1.0, mu=0.0, Omega=0.0)
        ts = np.linspace(0.0, 1.0, 100)
        rows = [make_row(float(t), sup_ux=float(30.0 - 10.0 * t)) for t in ts]
        fit = estimate_T(rows, p, "sup", (5.0, 1e4))
        assert not fit.reliable

    def test_too_few_samples_raises(self):
        p = PhysParams(A=0.0, sigma=-1.0, mu=0.0, Omega=0.0)
        rows = [make_row(0.0, sup_ux=1.0), make_row(1.0, sup_ux=2.0)]
        with pytest.raises(FitWindowError):
            estimate_T(rows, p, "sup", (20.0, 100.0))

    def test_matches_polyfit(self, breaking_run):
        # the closed-form line against LAPACK least squares on criterion 10's rows
        rec, _ = breaking_run
        params = breaking_problem()[0]
        fit = estimate_T(rec.rows, params, "sup", (20.0, 200.0))
        t = np.array([r.t for r in rec.rows])
        M = np.array([r.sup_ux for r in rec.rows])
        inside = (M >= 20.0) & (M <= 200.0)
        slope, intercept = np.polyfit(t[inside], 1.0 / M[inside], 1)
        assert fit.n_samples == np.count_nonzero(inside) >= 8
        assert fit.slope_est == pytest.approx(slope, rel=1e-12)
        assert fit.T_est == pytest.approx(-intercept / slope, rel=1e-12)

    @pytest.mark.parametrize("bad", [None, 1e-170, math.nan, math.inf, 1e308])
    def test_times_that_fit_no_line_raise(self, bad):
        # one time for every sample, times whose squared spread underflows,
        # or a time that is not finite or too large for the sums: a
        # diagnostics.csv read back can hold any of them
        p = PhysParams(A=0.0, sigma=-1.0, mu=0.0, Omega=0.0)
        if bad is None:
            times = [0.5] * 10
        elif bad < 1:
            times = [bad * i for i in range(10)]
        else:
            times = [0.1 * i for i in range(9)] + [bad]
        rows = [make_row(t, sup_ux=30.0 + i) for i, t in enumerate(times)]
        with pytest.raises(FitWindowError, match="the times of the 10 samples fit no line"):
            estimate_T(rows, p, "sup", (20.0, 200.0))

    @pytest.mark.parametrize("branch", ["max", "min", "Sup", ""])
    def test_unknown_branch_raises(self, branch):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        with pytest.raises(ValueError, match="branch"):
            estimate_T(self.synthetic(1.0, 2.0, "inf"), p, branch, (2.0, 1e4))


class TestDiagnosticRow:
    def test_row_fields(self):
        p = PhysParams(A=0.3, sigma=1.0, mu=0.1, Omega=0.1)
        g = build_grid(20.0, 1024)
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("gaussian_bump", 0.3, 2.0, 0.0),),
            eta_terms=(ProfileTerm("eta_bump", 0.1, 2.0, 0.0),),
        )
        st = synthesize(spec, g)
        row = make_diagnostic_row(st, 0.01, SpectralKernel(p, g).forward(st.u, st.eta))
        assert row.t == 0.0 and row.dt == 0.01
        assert row.sup_ux > 0 > row.inf_ux
        assert row.min_rho == pytest.approx(1.0, abs=1e-12)
        assert row.max_rho == pytest.approx(1.1, rel=1e-6)
        # m3 of the even bump's odd-symmetric cube integrates to zero
        assert abs(row.m3) <= 1e-12


class TestRowMoments:
    """The row's moments are products of the slope: m3 and the thm42 m0
    against a cube taken by np.power, E bit for bit against energy(), and
    the boundary leak bit for bit against the fancy-indexed edges."""

    @pytest.fixture(params=["smooth", "steep"])
    def state(self, request):
        p, g, spec = smooth_problem() if request.param == "smooth" else breaking_problem()
        st = synthesize(spec, g)
        return p, g, st, SpectralKernel(p, g).forward(st.u, st.eta)

    def test_cubic_moments(self, state):
        p, g, st, sp = state
        row = make_diagnostic_row(st, 0.01, sp)
        m0 = thm42_certificate(g, 1.0, 1.0, u0x=sp.ux).m0
        want = g.dx * np.sum(np.power(sp.ux, 3))
        scale = g.dx * np.sum(np.abs(sp.ux) ** 3)
        assert abs(row.m3 - want) <= 1e-13 * scale
        assert abs(m0 - want) <= 1e-13 * scale

    def test_energy_bitwise(self, state):
        p, g, st, sp = state
        row = make_diagnostic_row(st, 0.01, sp)
        assert row.E == energy(st, p, g, sp.ux)

    @pytest.mark.parametrize("where", [None, 0, 1, 2, 3])
    def test_boundary_leak_bitwise(self, state, where):
        # None: the state itself; else the largest edge value in one of the
        # four edge segments (u left, u right, eta left, eta right)
        p, g, st, _ = state
        edge = max(1, int(round(0.05 * g.n / 2)))
        if where is not None:
            fields = np.random.default_rng(where).uniform(-1e-3, 1e-3, size=(2, g.n))
            fields[where // 2, (edge // 2) - (where % 2) * edge] = -2e-3
            st = FieldState(0.0, *fields)
        sl = np.r_[0:edge, g.n - edge : g.n]
        want = float(max(np.max(np.abs(st.u[sl])), np.max(np.abs(st.eta[sl]))))
        assert boundary_leak(st, g) == want
        if where is not None:
            assert want == 2e-3


class TestReflectedRun:
    """With A = Omega = mu = 0 the run from v(x) = -u(-x), zeta(x) = eta(-x)
    mirrors the run from (u, eta): criterion 11's problem, centred on x = 0,
    where the reflection leaves the samples bit for bit as they are, and the
    same bumps off centre, where it does not."""

    @pytest.mark.parametrize("centre", [0.0, 0.1234])
    def test_same_steps_and_breaking_time(self, centre):
        params, grid, spec = cubic_moment_problem()
        spec = InitialDataSpec(
            u_terms=tuple(replace(t, center=centre) for t in spec.u_terms),
            eta_terms=tuple(replace(t, center=centre) for t in spec.eta_terms),
        )
        st = synthesize(spec, grid)
        reflected = FieldState(0.0, -np.roll(st.u[::-1], 1), np.roll(st.eta[::-1], 1))
        assert np.array_equal(reflected.u, st.u) == (centre == 0.0)
        # the settings of the cubic_moment_run fixture
        settings = RunSettings(
            t_end=0.6, tol=1e-8, blowup_threshold=25.0, dt_max=0.004,
            snapshot_cadence=0, diag_stride=2, dense_diag_above=13.0,
        )
        recs = [run(s, params, grid, settings) for s in (st, reflected)]
        fits = [estimate_T(r.rows, params, "inf", (14.0, 24.0)) for r in recs]
        counts = [(r.termination.event, r.steps_accepted, r.steps_rejected) for r in recs]
        assert counts[0] == counts[1]
        assert fits[0].T_est == pytest.approx(fits[1].T_est, rel=1e-6)
        if centre == 0.0:  # criterion 11's run
            assert counts[0] == ("blowup_detected", 23, 0)
            assert round(fits[0].T_est, 6) == 0.165396
        x_inf = [rec.rows[-1].x_at_inf_ux for rec in recs]
        assert x_inf[1] == pytest.approx(-x_inf[0], abs=1e-9)


class TestTranslatedRun:
    """Rolling the initial data by k cells rolls the run: the criterion-3
    problem to t = 1 takes the same steps at the same instants, ends with the
    rolled fields and moves each row's argmax by k dx.  A shift by a multiple
    of n/4 is exact in the FFT and would prove nothing."""

    @pytest.mark.parametrize("k", [1, 137])
    def test_rolled_data_roll_the_run(self, k):
        params, grid, spec = smooth_problem()
        st = synthesize(spec, grid)
        rolled = FieldState(0.0, np.roll(st.u, k), np.roll(st.eta, k))
        settings = RunSettings(
            t_end=1.0, tol=1e-8, dt_max=0.02, snapshot_cadence=0, diag_stride=1
        )
        base, moved = (run(s, params, grid, settings) for s in (st, rolled))
        assert moved.termination.event == base.termination.event == "reached_t_end"
        steps = [(r.steps_accepted, r.steps_rejected, r.rhs_evals) for r in (base, moved)]
        assert steps[0] == steps[1]
        assert np.array_equal([r.t for r in moved.rows], [r.t for r in base.rows])
        for name in ("u", "eta"):
            want = np.roll(getattr(base.final_state, name), k)
            err = np.max(np.abs(getattr(moved.final_state, name) - want))
            assert err <= 1e-13 * np.max(np.abs(want)), name
        L = grid.half_length
        shift = np.array([r.x_at_sup_ux for r in moved.rows]) - [r.x_at_sup_ux for r in base.rows]
        assert np.max(np.abs((shift - k * grid.dx + L) % (2 * L) - L)) <= 1e-9


class TestStabilityCap:
    """Each step is at most Z_STAR / (k_cut s), below the imaginary-axis
    instability of the propagated Cash-Karp member.  The steep breaking run
    (criteria 10 and 12) then takes steps that rounding noise does not pick,
    and its top retained modes stay near rounding level while it is smooth."""

    @staticmethod
    def settings(snapshot_cadence=0):
        # the settings of the breaking_run fixture
        return RunSettings(
            t_end=0.5, tol=1e-8, blowup_threshold=50.0, dt_max=0.01,
            snapshot_cadence=snapshot_cadence, diag_stride=2, dense_diag_above=15.0,
        )

    def test_smooth_run_never_capped(self, smooth_run):
        # no step of the smooth run is set by the cap, so its solve is the
        # one the controller alone makes, bit for bit
        assert smooth_run.steps_capped == 0

    def test_breaking_run_counts(self, breaking_run):
        rec, _ = breaking_run
        assert rec.steps_capped > 0
        assert rec.rhs_evals <= 300 and rec.steps_rejected <= 1

    @pytest.mark.parametrize(
        "kind, value",
        [("scale", 1 + 1e-15), ("scale", 1 - 1e-15), ("scale", 1 + 2e-15),
         ("roll", 1), ("roll", 137)],
    )
    def test_perturbed_data_take_the_same_steps(self, breaking_run, kind, value):
        base, _ = breaking_run
        params, grid, spec = breaking_problem()
        st = synthesize(spec, grid)
        if kind == "scale":
            moved = FieldState(0.0, st.u * value, st.eta)
        else:
            moved = FieldState(0.0, np.roll(st.u, value), np.roll(st.eta, value))
        assert not np.array_equal(moved.u, st.u)
        rec = run(moved, params, grid, self.settings())
        steps = [(r.termination.event, r.steps_accepted, r.steps_rejected) for r in (base, rec)]
        assert steps[0] == steps[1]
        fits = [estimate_T(r.rows, params, "sup", (20.0, 200.0)) for r in (base, rec)]
        assert fits[1].T_est == pytest.approx(fits[0].T_est, rel=1e-5)

    def test_top_modes_stay_at_rounding_level(self, breaking_run):
        # tail ratio: the largest |u_hat_m| over the 40 highest retained modes
        # over the largest |u_hat_m|; it is 1e-9 when noise there grows
        base, _ = breaking_run
        params, grid, spec = breaking_problem()
        rec = run(synthesize(spec, grid), params, grid, self.settings(snapshot_cadence=1))
        # storing every state leaves the run as it is
        table = [np.array([astuple(r) for r in x.rows]) for x in (base, rec)]
        assert np.array_equal(table[0], table[1], equal_nan=True)
        cut = grid.dealias_cut
        tails = []
        for snap in rec.snapshots:
            if snap.t <= 0.1:
                uh = np.abs(np.fft.rfft(snap.u))
                tails.append(uh[cut - 40 : cut].max() / uh.max())
        assert len(tails) > 10
        # 1e-12 is the floor of a fit of the spectrum's decay rate; a cap
        # tighter than Z_STAR = 4 keeps the tail near 1e-16 at more RHS cost
        assert max(tails) <= 1e-12


class TestRunSettings:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"blowup_threshold": 0.0}, "blowup threshold must be positive"),
            ({"dt_floor": 0.05}, "dt_floor must be below dt_max"),
            ({"diag_stride": 0}, "diag_stride must be at least 1"),
            ({"snapshot_cadence": -1}, "snapshot_cadence must be nonnegative"),
        ],
    )
    def test_rejected(self, changes, message):
        with pytest.raises(ValueError, match=message):
            RunSettings(t_end=1.0, **changes)


class TestSlopeFloor:
    """A run given a lower envelope of sup u_x (``slope_floor``) ends
    under_resolved at the first state more than 1e-6 max(1, floor) below it;
    a run that stays above it is not moved."""

    @staticmethod
    def steep(n, x_c=0.0):
        params = PhysParams(A=0.5, sigma=-1.0, mu=0.0, Omega=0.1)
        grid = build_grid(5.0, n)
        spec = InitialDataSpec(u_terms=(ProfileTerm("slope_bump", 9.0, 0.1, x_c),))
        st = synthesize(spec, grid)
        return params, grid, st, build_certificate(st, params, grid)

    def test_criterion_10_run_unmoved(self, breaking_run):
        base, cert = breaking_run
        params, grid, spec = breaking_problem()
        floor, st = cert.slope_floor, synthesize(spec, grid)
        rec = run(st, params, grid, TestStabilityCap.settings(), slope_floor=floor)
        ends = [(r.termination.event, r.steps_accepted, r.steps_rejected) for r in (base, rec)]
        assert ends[0] == ends[1] == ("blowup_detected", 47, 1)
        table = [np.array([astuple(r) for r in x.rows]) for x in (base, rec)]
        assert np.array_equal(table[0], table[1], equal_nan=True)
        fits = [estimate_T(r.rows, params, "sup", (20.0, 200.0)) for r in (base, rec)]
        assert fits[0] == fits[1]
        assert all(r.sup_ux >= floor(r.t) for r in rec.rows)

    def test_off_node_peak_not_flagged(self):
        # the peak of u0_x half a cell off the nodes, its grid max 4.5e-4
        # relative below the refined witness: the certificate's envelope
        # starts at the grid max, and neither it nor one from the witness
        # flags the first steps, since a grid max below the floor is
        # confirmed at the refined peak (the witness at t = 0)
        params, grid, st, cert = self.steep(4096, x_c=build_grid(5.0, 4096).dx / 2)
        s, witness = float(deriv(st.u, grid).max()), cert.thm41.u0x_at_witness
        assert witness > s * (1 + 4e-4) and cert.slope_floor(0.0) == s
        settings = RunSettings(t_end=0.05, snapshot_cadence=0)
        for floor in (cert.slope_floor, riccati_floor(witness, cert.C, -1.0)):
            rec = run(st, params, grid, settings, slope_floor=floor)
            ends = (rec.termination.event, rec.termination.t, rec.steps_accepted)
            assert ends == ("reached_t_end", 0.05, 9)

    def test_peak_crossing_a_cell_not_flagged(self):
        # mu = 2 carries the peak of u_x left across more than a cell while
        # sup u_x rises from 1 (sigma < 0); the grid max dips below 1 as the
        # peak passes between nodes, and the refined peak stays above it
        p, g = PhysParams(A=0.0, sigma=-1.0, mu=2.0, Omega=0.0), build_grid(10.0, 256)
        st = synthesize(InitialDataSpec(u_terms=(ProfileTerm("slope_bump", 1.0, 0.5, 0.0),)), g)
        settings = RunSettings(t_end=0.05, snapshot_cadence=1)
        rec = run(st, p, g, settings, slope_floor=lambda t: 1.0)
        assert rec.termination.event == "reached_t_end"
        grid_max = [float(deriv(state.u, g).max()) for state in rec.snapshots]
        assert grid_max[0] == 1.0 and min(grid_max) < 1.0 - 1e-3
        assert all(r.sup_ux > 1.0 for r in rec.rows[1:])  # rows hold the refined peak
        assert rec.rows[-1].x_at_sup_ux < -g.dx

    @pytest.mark.parametrize(
        "floor, flagged",
        [(0.5e-6, False), (2e-6, True), (math.inf, True), (9.0 * (1 + 0.5e-6), False),
         (9.0 * (1 + 2e-6), True)],
    )
    def test_tolerance(self, floor, flagged):
        # a zero state (sup u_x = 0, tolerance 1e-6) and steep data whose sup
        # u_x starts at 9 and rises (tolerance 9e-6), under constant floors
        if floor < 1:
            p, g = PhysParams(A=0.0, sigma=-1.0, mu=0.0, Omega=0.0), build_grid(10.0, 256)
            st = FieldState(0.0, np.zeros(g.n), np.zeros(g.n))
        else:
            p, g, st, _ = self.steep(1024)
        sup0 = float(refined_extremum(deriv(st.u, g), g.x, "max")[1])
        settings = RunSettings(t_end=0.005, snapshot_cadence=0)
        rec = run(st, p, g, settings, slope_floor=lambda t: floor)
        assert rec.termination.event == ("under_resolved" if flagged else "reached_t_end")
        if flagged:
            assert rec.termination.t == 0.0 and len(rec.rows) == 1
            assert rec.termination.detail == f"sup u_x {sup0!r} at t 0.0 below its floor {floor!r}"
