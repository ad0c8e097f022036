"""Closed-form constants, certificates, monitors and the rate check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from r2ch import (
    Certificate,
    ExtremumTrack,
    InitialDataSpec,
    PhysParams,
    ProfileTerm,
    RunSettings,
    build_certificate,
    build_grid,
    constant_C,
    deriv,
    energy,
    k2_bound,
    lemma31_ceiling,
    monitor_bounds,
    rate_check,
    synthesize,
    thm41_certificate,
    thm42_certificate,
    thm42_constant_N,
)
from r2ch import crosscheck
from r2ch.certificates import SUP_NORM_INFLATION, refined_sup_abs, riccati_floor
from r2ch.evolution import DiagnosticRow, RunRecord

from conftest import breaking_problem


def params_strategy():
    return st.builds(
        PhysParams,
        A=st.floats(-0.9, 0.9),
        sigma=st.floats(-3, 3),
        mu=st.floats(-1, 1),
        Omega=st.floats(0, 0.45),
    ).filter(lambda p: p.coriolis_margin > 0.05)


class TestConstantC:
    def test_zero_energy_still_water(self):
        # E0 = 0, rho_sup = 1, Omega = 0 leaves only the constant term
        p = PhysParams(A=0.2, sigma=1.0, mu=0.1, Omega=0.0)
        assert constant_C(0.0, 1.0, p) == pytest.approx(math.sqrt(3.0))

    def test_monotone_in_energy(self):
        p = PhysParams(A=0.5, sigma=-1.0, mu=0.0, Omega=0.1)
        assert constant_C(2.0, 1.0, p) > constant_C(1.0, 1.0, p)

    def test_rejects_negative_inputs(self):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        with pytest.raises(ValueError):
            constant_C(-1.0, 1.0, p)

    @settings(max_examples=200)
    @given(
        p=params_strategy(),
        E0=st.floats(0, 5),
        rho_sup=st.floats(0, 3),
    )
    def test_double_entry(self, p, E0, rho_sup):
        a = constant_C(E0, rho_sup, p)
        b = crosscheck.constant_C_alt(E0, rho_sup, p.A, p.sigma, p.mu, p.Omega)
        assert a == pytest.approx(b, rel=1e-12)


class TestCeiling:
    def test_formula(self):
        p = PhysParams(A=0.0, sigma=2.0, mu=0.0, Omega=0.0)
        # u0x_sup + sqrt((rho^2 + C^2)/sigma)
        assert lemma31_ceiling(1.0, 1.0, 3.0, p) == pytest.approx(
            1.0 + math.sqrt(10.0 / 2.0)
        )

    def test_requires_positive_sigma(self):
        p = PhysParams(A=0.0, sigma=-1.0, mu=0.0, Omega=0.0)
        with pytest.raises(ValueError):
            lemma31_ceiling(1.0, 1.0, 3.0, p)

    @settings(max_examples=100)
    @given(
        p=params_strategy().filter(lambda p: p.sigma > 0.01),
        u0x=st.floats(0, 3),
        rho_sup=st.floats(0, 2),
        C=st.floats(0.1, 10),
    )
    def test_double_entry(self, p, u0x, rho_sup, C):
        a = lemma31_ceiling(u0x, rho_sup, C, p)
        b = crosscheck.lemma31_ceiling_alt(u0x, rho_sup, C, p.A, p.sigma, p.Omega)
        assert a == pytest.approx(b, rel=1e-12)


class TestThm41:
    def make(self, a):
        p = PhysParams(A=0.5, sigma=-1.0, mu=0.0, Omega=0.1)
        g = build_grid(5.0, 4096)
        spec = InitialDataSpec(u_terms=(ProfileTerm("slope_bump", a, 0.1, 0.0),))
        st0 = synthesize(spec, g)
        C = constant_C(1.0, 1.0, p)
        return st0, g, C, p

    def test_below_threshold_returns_none(self):
        st0, g, C, p = self.make(0.5)
        assert thm41_certificate(g, C, p, u0x=deriv(st0.u, g)) is None

    def test_above_threshold_certifies(self):
        st0, g, C, p = self.make(9.0)
        cert = thm41_certificate(g, C, p, u0x=deriv(st0.u, g))
        assert cert is not None
        assert cert.u0x_at_witness == pytest.approx(9.0, rel=1e-6)
        assert cert.witness_x0 == pytest.approx(0.0, abs=1e-6)
        assert cert.threshold == pytest.approx(C / math.sqrt(1.0))
        assert 0 < cert.T1_bound_stated < cert.T1_bound

    def test_bounds_match_alt_transcription(self):
        st0, g, C, p = self.make(9.0)
        cert = thm41_certificate(g, C, p, u0x=deriv(st0.u, g))
        s = cert.u0x_at_witness
        assert cert.T1_bound == pytest.approx(
            crosscheck.t1_bound_alt(s, C, p.sigma), rel=1e-12
        )
        assert cert.T1_bound_stated == pytest.approx(
            crosscheck.t1_bound_stated_alt(s, C, p.sigma), rel=1e-12
        )

    def test_old_positional_form_rejected(self):
        # the slope is keyword-only: samples passed where the old signature
        # took them are refused, not certified as if they were the slope
        st0, g, C, p = self.make(9.0)
        with pytest.raises(TypeError):
            thm41_certificate(st0.u, g, C, p)

    def test_requires_negative_sigma(self):
        st0, g, C, _ = self.make(9.0)
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        with pytest.raises(ValueError):
            thm41_certificate(g, C, p, u0x=deriv(st0.u, g))


class TestRiccatiFloor:
    """The lower envelope of sup u_x on the criterion-10 data, started at the
    grid max of u0_x."""

    @pytest.fixture(scope="class")
    def data(self):
        params, grid, spec = breaking_problem()
        st0 = synthesize(spec, grid)
        cert = build_certificate(st0, params, grid)
        s = float(deriv(st0.u, grid).max())
        return s, cert, params.sigma, riccati_floor(s, cert.C, params.sigma)

    def test_starts_at_s_and_solves_riccati(self, data):
        s, cert, sigma, floor = data
        assert floor(0.0) == pytest.approx(s, rel=1e-14)
        # M' = a M^2 - b, by central differences
        a, b, h = -sigma / 2, cert.C**2 / 2, 1e-6
        for t in (0.0, 0.1, 0.2, 0.3):
            M = floor(t)
            assert (floor(t + h) - floor(t - h)) / (2 * h) == pytest.approx(
                a * M * M - b, rel=1e-6
            )

    def test_blows_up_at_T_within_T1_bound(self, data):
        s, cert, sigma, floor = data
        c = cert.C / math.sqrt(-sigma)
        T = math.log((s + c) / (s - c)) / (cert.C * math.sqrt(-sigma))
        assert round(T, 4) == 0.3127
        assert floor(T * (1 - 1e-12)) > 1e10
        assert floor(T * (1 + 1e-12)) == math.inf and floor(1.0) == math.inf
        assert T <= cert.thm41.T1_bound

    @pytest.mark.parametrize("s, sigma", [(1.0, -1.0), (0.5, -1.0), (3.0, 0.0), (3.0, 1.0)])
    def test_none_unless_above_threshold(self, s, sigma):
        # with C = 1 the threshold is 1 for sigma = -1; sigma >= 0 has none
        assert riccati_floor(s, 1.0, sigma) is None


class TestThm42:
    def test_constant_example(self):
        # Omega = 0, A = 0, M = 0, E0 = 1 collapses N to 9/4 + 3/2
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        assert thm42_constant_N(1.0, 0.0, p) == pytest.approx(15.0 / 4.0)

    def test_requires_sigma_one_mu_zero(self):
        p = PhysParams(A=0.0, sigma=2.0, mu=0.0, Omega=0.0)
        with pytest.raises(ValueError):
            thm42_constant_N(1.0, 1.0, p)

    @pytest.mark.parametrize("E0, M", [(-1.0, 1.0), (1.0, -1.0)])
    def test_constant_rejects_negative_inputs(self, E0, M):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            thm42_constant_N(E0, M, p)

    @pytest.mark.parametrize(
        "E0, N, message", [(0.0, 1.0, "E0 must be positive"), (1.0, -1.0, "N must be nonnegative")]
    )
    def test_certificate_rejects_bad_constants(self, E0, N, message):
        g = build_grid(5.0, 256)
        with pytest.raises(ValueError, match=message):
            thm42_certificate(g, N, E0, u0x=np.zeros(g.n))

    @settings(max_examples=100)
    @given(
        E0=st.floats(0, 5),
        M=st.floats(0, 3),
        A=st.floats(-0.9, 0.9),
        Omega=st.floats(0, 0.45),
    )
    def test_double_entry(self, E0, M, A, Omega):
        if 1.0 - 2.0 * Omega * A <= 0.05:
            return
        p = PhysParams(A=A, sigma=1.0, mu=0.0, Omega=Omega)
        a = thm42_constant_N(E0, M, p)
        b = crosscheck.thm42_N_alt(E0, M, A, Omega)
        assert a == pytest.approx(b, rel=1e-12)

    def test_condition_and_bound(self):
        g = build_grid(5.0, 8192)
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("slope_bump", -12.0, 0.02, 0.0),)
        )
        st0 = synthesize(spec, g)
        E0, N = 2.8, 23.0
        cert = thm42_certificate(g, N, E0, u0x=deriv(st0.u, g))
        assert cert.condition_met
        assert cert.T_bound is not None and cert.T_bound > 0
        assert cert.T_bound == pytest.approx(
            crosscheck.thm42_T_alt(cert.m0, E0, N), rel=1e-12
        )

    def test_condition_not_met(self):
        g = build_grid(5.0, 1024)
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("slope_bump", -0.5, 0.02, 0.0),)
        )
        st0 = synthesize(spec, g)
        cert = thm42_certificate(g, 10.0, 1.0, u0x=deriv(st0.u, g))
        assert not cert.condition_met
        assert cert.T_bound is None
        assert math.isnan(crosscheck.thm42_T_alt(cert.m0, 1.0, 10.0))

    def test_old_positional_form_rejected(self):
        # as for thm41: the samples in the old first place are refused
        g = build_grid(5.0, 1024)
        spec = InitialDataSpec(u_terms=(ProfileTerm("slope_bump", -12.0, 0.02, 0.0),))
        with pytest.raises(TypeError):
            thm42_certificate(synthesize(spec, g).u, g, 23.0, 2.8)


class TestK2:
    def test_formula(self):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        assert k2_bound(2.0, 1.5, p) == pytest.approx(0.5 * 2.25 + 2.0)

    @pytest.mark.parametrize("C, rho", [(-1.0, 1.0), (1.0, -1.0)])
    def test_rejects_negative_inputs(self, C, rho):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            k2_bound(C, rho, p)

    @settings(max_examples=100)
    @given(p=params_strategy(), C=st.floats(0, 10), rho=st.floats(0, 3))
    def test_double_entry(self, p, C, rho):
        assert k2_bound(C, rho, p) == pytest.approx(
            crosscheck.k2_alt(C, rho, p.A, p.Omega), rel=1e-12
        )


class TestBuildCertificate:
    def test_positive_sigma_fields(self):
        p = PhysParams(A=0.3, sigma=1.0, mu=0.0, Omega=0.1)
        g = build_grid(20.0, 1024)
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("gaussian_bump", 0.3, 2.0, 0.0),),
            eta_terms=(ProfileTerm("eta_bump", 0.1, 2.0, 0.0),),
        )
        st0 = synthesize(spec, g)
        cert = build_certificate(st0, p, g, M_assumed=1.5)
        assert cert.E0 > 0
        assert cert.rho0_sup == pytest.approx(1.1, rel=1e-5)
        assert cert.lemma31_ceiling is not None
        assert cert.thm41 is None
        assert cert.thm42 is not None
        assert cert.rate_target == -2.0

    def test_negative_sigma_fields(self):
        p = PhysParams(A=0.5, sigma=-1.0, mu=0.0, Omega=0.1)
        g = build_grid(5.0, 4096)
        spec = InitialDataSpec(u_terms=(ProfileTerm("slope_bump", 9.0, 0.1, 0.0),))
        st0 = synthesize(spec, g)
        cert = build_certificate(st0, p, g)
        assert cert.lemma31_ceiling is None
        assert cert.thm41 is not None
        assert cert.thm42 is None
        assert cert.rate_target == 2.0

    @pytest.mark.parametrize(
        "sigma, mu, M_assumed",
        [(2.0, 0.1, None), (-1.0, 0.1, None), (1.0, 0.0, 1.5)],
        ids=["sigma2", "sigma-1", "sigma1-M_assumed"],
    )
    def test_initial_slope_computed_once(self, monkeypatch, sigma, mu, M_assumed):
        # E0, the slope's sup norm and the theorem certificates (thm41 for
        # sigma < 0, thm42 for sigma = 1, mu = 0 with M_assumed) share one
        # u_x: one rfft and one irfft, counted at the numpy.fft entry points
        p = PhysParams(A=0.5, sigma=sigma, mu=mu, Omega=0.1)
        # a slope steep enough that thm41 certifies for sigma = -1
        g = build_grid(5.0, 256)
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("slope_bump", 9.0, 0.1, 0.0),),
            eta_terms=(ProfileTerm("eta_bump", 0.1, 0.5, 0.0),),
        )
        st0 = synthesize(spec, g)
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        for attr in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, attr, counting(getattr(np.fft, attr)))
        cert = build_certificate(st0, p, g, M_assumed)
        assert calls == ["rfft", "irfft"]
        # the same bits as each quantity computed on its own
        assert cert.E0 == energy(st0, p, g, deriv(st0.u, g))
        assert cert.u0x_sup_norm == refined_sup_abs(deriv(st0.u, g), g) * (
            1.0 + SUP_NORM_INFLATION
        )
        assert (cert.thm41 is not None) == (sigma < 0)
        if sigma < 0:
            assert repr(cert.thm41) == repr(thm41_certificate(g, cert.C, p, u0x=deriv(st0.u, g)))
        assert (cert.thm42 is not None) == (M_assumed is not None)
        if M_assumed is not None:
            N = thm42_constant_N(cert.E0, M_assumed, p)
            want = thm42_certificate(g, N, cert.E0, M_assumed, u0x=deriv(st0.u, g))
            assert repr(cert.thm42) == repr(want)


def fabricated_run(params, rows):
    g = build_grid(10.0, 256)
    rec = RunRecord(params=params, grid=g, settings=RunSettings(t_end=1.0))
    rec.rows = rows
    return rec


def plain_row(t, sup_ux=0.0, f_sup_abs=0.0):
    return DiagnosticRow(
        t=t, dt=0.01, E=1.0, sup_ux=sup_ux, inf_ux=-0.1,
        x_at_sup_ux=0.0, x_at_inf_ux=0.0, sup_abs_eta=0.0, min_rho=1.0,
        m3=0.0, f_sup_abs=f_sup_abs, boundary_leak=0.0,
    )


def plain_cert(C=2.0, ceiling=5.0, rho0_sup=1.1):
    return Certificate(
        E0=1.0, rho0_sup=rho0_sup, u0x_sup_norm=1.0, C=C,
        lemma31_ceiling=ceiling, thm41=None, thm42=None,
        K2=k2_bound(C, rho0_sup, PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)),
        rate_target=-2.0,
    )


class TestMonitorBounds:
    def test_clean_run_no_violations(self):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        rec = fabricated_run(p, [plain_row(0.0, 1.0, 0.5), plain_row(0.1, 1.2, 0.5)])
        assert monitor_bounds(rec, plain_cert(), None, p) == []

    def test_ceiling_violation(self):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        rec = fabricated_run(p, [plain_row(0.0, 1.0), plain_row(0.2, 6.0)])
        out = monitor_bounds(rec, plain_cert(ceiling=5.0), None, p)
        assert [v.check for v in out] == ["lemma31_ceiling"]
        assert out[0].t == 0.2 and out[0].value == 6.0

    def test_forcing_violation(self):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        rec = fabricated_run(p, [plain_row(0.0, 1.0, f_sup_abs=99.0)])
        out = monitor_bounds(rec, plain_cert(C=2.0), None, p)
        assert [v.check for v in out] == ["forcing_bound"]

    def test_density_bound_checked_while_m_nonnegative(self):
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        rec = fabricated_run(p, [plain_row(0.0, 1.0)])
        t = np.array([0.0, 0.1, 0.2])
        # M goes negative at the second sample; the large gamma afterwards
        # must not be flagged
        track = ExtremumTrack(
            "sup", t, np.zeros(3), np.array([1.0, -0.5, 1.0]),
            np.array([1.0, 1.05, 9.0]), np.zeros(3),
        )
        out = monitor_bounds(rec, plain_cert(rho0_sup=1.1), track, p)
        assert out == []
        track2 = ExtremumTrack(
            "sup", t, np.zeros(3), np.array([1.0, 1.0, 1.0]),
            np.array([1.0, 2.0, 1.0]), np.zeros(3),
        )
        out2 = monitor_bounds(rec, plain_cert(rho0_sup=1.1), track2, p)
        assert [v.check for v in out2] == ["density_bound"]

    def test_monotone_after_threshold(self):
        p = PhysParams(A=0.0, sigma=-1.0, mu=0.0, Omega=0.0)
        rec = fabricated_run(p, [plain_row(0.0, 1.0)])
        t = np.linspace(0, 0.3, 4)
        # crosses threshold C=2 then dips
        track = ExtremumTrack(
            "sup", t, np.zeros(4), np.array([1.0, 3.0, 2.5, 4.0]),
            np.ones(4), np.zeros(4),
        )
        out = monitor_bounds(rec, plain_cert(C=2.0, ceiling=None), track, p)
        assert [v.check for v in out] == ["monotone_after_threshold"]
        assert out[0].value == 2.5


class TestRateCheck:
    def synthetic_track(self, sigma=-1.0, T=1.0, n=400):
        t = np.linspace(0.0, T - 1e-3, n)
        M = -2.0 / (sigma * (T - t))
        return ExtremumTrack(
            "sup", t, np.zeros(n), M, np.ones(n), np.zeros(n)
        )

    def test_exact_profile(self):
        p = PhysParams(A=0.0, sigma=-1.0, mu=0.0, Omega=0.0)
        track = self.synthetic_track()
        rc = rate_check(track, 1.0, p, window=(10.0, 1e4))
        assert rc.final_mean == pytest.approx(2.0, rel=1e-12)
        assert rc.rel_error <= 1e-12
        assert rc.validated

    def test_sigma_positive_unvalidated(self):
        # the rate is proven for sigma < 0 only: sigma > 0 gives the same
        # product, flagged as exploratory
        p = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
        track = self.synthetic_track(sigma=1.0)
        rc = rate_check(track, 1.0, p, window=(10.0, 1e4))
        assert rc.validated is False
        assert rc.final_mean == pytest.approx(-2.0, rel=1e-12) and rc.target == -2.0

    def test_t_est_must_exceed_samples(self):
        p = PhysParams(A=0.0, sigma=-1.0, mu=0.0, Omega=0.0)
        track = self.synthetic_track()
        with pytest.raises(ValueError):
            rate_check(track, 0.5, p, window=(10.0, 1e4))

    def test_empty_window(self):
        p = PhysParams(A=0.0, sigma=-1.0, mu=0.0, Omega=0.0)
        track = self.synthetic_track()
        with pytest.raises(ValueError):
            rate_check(track, 1.0, p, window=(1e5, 1e6))
