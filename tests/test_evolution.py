"""Time stepping, diagnostics and breaking-time extrapolation."""

import math
import sys
import threading
import warnings
from dataclasses import replace

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
from r2ch.crosscheck import direct_conv_oracle
from r2ch.evolution import (
    DiagnosticRow,
    NonFiniteState,
    _interp_at,
    _rhs_arrays,
    energy,
    make_diagnostic_row,
)

from conftest import breaking_problem, cubic_moment_problem, smooth_problem


def make_row(t, sup_ux=0.0, inf_ux=0.0, m3=0.0):
    return DiagnosticRow(
        t=t, dt=0.0, E=1.0, sup_ux=sup_ux, inf_ux=inf_ux,
        x_at_sup_ux=0.0, x_at_inf_ux=0.0, sup_abs_eta=0.0, min_rho=1.0,
        m3=m3, f_sup_abs=0.0, lemma31_ceiling=math.nan, boundary_leak=0.0,
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
        held = scipy.fft.irfft(_rhs_arrays(sp, kernel), n=n)
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
        got = _rhs_arrays(sp, kernel)
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
        new, got_err = step(st, dt, p, g)
        assert new.t == st.t + dt
        assert np.max(np.abs(new.u - u4)) <= 1e-13
        assert np.max(np.abs(new.eta - e4)) <= 1e-13
        assert got_err == pytest.approx(err, rel=1e-6)


class TestTransformCounts:
    """FFT calls per stage evaluation, step end, accepted state and
    diagnostic row, and the reuse of k1 across a retried step, counted at
    the numpy.fft entry points."""

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
        assert counts["fft"] == 7
        make_diagnostic_row(st, 0.01, p, g, spectra=sp)
        assert counts["fft"] == 9
        k1 = evolution._rhs_arrays(sp, kernel)
        assert counts["fft"] == 9
        rows = np.empty((3, g.k.size), dtype=complex)
        rows[:2] = sp.spectrum
        evolution._rhs_arrays(kernel.inverse(rows), kernel)
        assert counts["fft"] == 11
        # a step from a state the stepper made: 5 stages and the step end
        new, _ = step(st, 0.01, p, g, k1=k1, kernel=kernel)
        counts["fft"] = 0
        step(new, 0.01, p, g, k1=k1, kernel=kernel)
        assert counts["fft"] == 11

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
        # k1 once per state stepped from; a retried step makes 5 new evaluations
        assert counts["rhs"] == 5 * counts["step"] + accepted
        # the initial state's transforms (3 calls), 11 per attempted step,
        # 1 per accepted state (its products) and 2 per row
        assert counts["fft"] == 3 + 11 * counts["step"] + accepted + 2 * rows
        assert rec.steps_accepted == accepted
        assert rec.steps_rejected == rejected
        assert rec.rhs_evals == counts["rhs"]
        used = [row.dt for row in rec.rows[1:]]
        assert rec.accepted_dt_min == min(used)
        assert rec.accepted_dt_max == max(used)

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
        p, g, st = self.problem()
        want_f = eval_f(st, p, g)
        want_row = make_diagnostic_row(st, 0.01, p, g, lemma31_ceiling=1.0)
        kernel = SpectralKernel(p, g)
        built = []
        init = SpectralKernel.__init__

        def counting(kernel, params, grid):
            built.append(params)
            init(kernel, params, grid)

        monkeypatch.setattr(SpectralKernel, "__init__", counting)
        for _ in range(5):
            sp = kernel.forward(st.u, st.eta)
            assert np.array_equal(eval_f(st, p, g, sp), want_f)
            row = make_diagnostic_row(st, 0.01, p, g, lemma31_ceiling=1.0, spectra=sp)
            assert row == want_row
        assert built == []

    def test_held_spectra_of_another_kernel_rejected(self):
        p, g, st = self.problem()
        other_p = PhysParams(A=0.5, sigma=2.0, mu=0.2, Omega=0.1)
        other_g = build_grid(20.0, 256)
        for kernel in (SpectralKernel(other_p, g), SpectralKernel(p, other_g)):
            sp = kernel.forward(st.u, st.eta)
            with pytest.raises(ValueError, match="other params or another grid"):
                eval_f(st, p, g, sp)
            with pytest.raises(ValueError, match="other params or another grid"):
                make_diagnostic_row(st, 0.01, p, g, spectra=sp)


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
            eval_f(st, p, g).tobytes(),
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
        f = eval_f(st, p, g)[i]
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
        _, e1 = step(st, 0.02, p, g)
        _, e2 = step(st, 0.01, p, g)
        assert 20.0 <= e1 / e2 <= 45.0

    def test_rejects_nonpositive_dt(self):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        g = build_grid(10.0, 256)
        st = FieldState(0.0, np.zeros(g.n), np.zeros(g.n))
        with pytest.raises(ValueError):
            step(st, 0.0, p, g)

    def test_time_advances(self):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        g = build_grid(10.0, 256)
        st = FieldState(1.5, np.zeros(g.n), np.zeros(g.n))
        new, err = step(st, 0.25, p, g)
        assert new.t == pytest.approx(1.75)
        assert err == 0.0


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
        assert energy(st, p, g) == pytest.approx(expect, rel=1e-10)

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
        _, err = step(st, 1.05e-6, p, g)
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
        # run ends on the state it holds, at t = 0, without a numpy warning
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
        row = make_diagnostic_row(st, 0.01, p, g, lemma31_ceiling=7.0)
        assert row.t == 0.0 and row.dt == 0.01
        assert row.sup_ux > 0 > row.inf_ux
        assert row.min_rho == pytest.approx(1.0, abs=1e-12)
        assert row.max_rho == pytest.approx(1.1, rel=1e-6)
        assert row.lemma31_ceiling == 7.0
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
        row = make_diagnostic_row(st, 0.01, p, g, spectra=sp)
        m0 = thm42_certificate(st.u, g, 1.0, 1.0, u0x=sp.ux).m0
        want = g.dx * np.sum(np.power(sp.ux, 3))
        scale = g.dx * np.sum(np.abs(sp.ux) ** 3)
        assert abs(row.m3 - want) <= 1e-13 * scale
        assert abs(m0 - want) <= 1e-13 * scale

    def test_energy_bitwise(self, state):
        p, g, st, sp = state
        row = make_diagnostic_row(st, 0.01, p, g, spectra=sp)
        assert row.E == energy(st, p, g, sp.ux) == energy(st, p, g)

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
