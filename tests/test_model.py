"""Parameters, grid, profiles and initial-data synthesis."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from r2ch import (
    DecayViolation,
    FieldState,
    InitialDataSpec,
    PhysParams,
    ProfileTerm,
    boundary_leak,
    build_grid,
    synthesize,
)
from r2ch.crosscheck import profile_dx


def finite_floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


class TestPhysParams:
    def test_valid(self):
        p = PhysParams(A=0.5, sigma=-1.0, mu=0.2, Omega=0.1)
        assert p.coriolis_margin == pytest.approx(0.9)

    def test_rejects_negative_omega(self):
        with pytest.raises(ValueError):
            PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=-0.1)

    def test_rejects_nonpositive_margin(self):
        with pytest.raises(ValueError):
            PhysParams(A=5.0, sigma=1.0, mu=0.0, Omega=0.2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PhysParams(A=math.nan, sigma=1.0, mu=0.0, Omega=0.0)

    @given(
        A=finite_floats(-3, 3),
        sigma=finite_floats(-3, 3),
        mu=finite_floats(-1, 1),
        Omega=finite_floats(0, 1),
    )
    def test_margin_invariant(self, A, sigma, mu, Omega):
        try:
            p = PhysParams(A=A, sigma=sigma, mu=mu, Omega=Omega)
        except ValueError:
            assert 1.0 - 2.0 * Omega * A <= 0
        else:
            assert p.coriolis_margin > 0


class TestGrid:
    def test_layout(self):
        g = build_grid(20.0, 4096)
        assert g.dx == pytest.approx(40.0 / 4096)
        assert g.x[0] == -20.0
        assert g.x[-1] == pytest.approx(20.0 - g.dx)
        assert g.k[0] == 0.0
        assert g.k[1] == pytest.approx(math.pi / 20.0)
        assert g.k.size == 2049

    def test_cached_multipliers(self):
        g = build_grid(10.0, 64)
        assert "ik" not in vars(g)  # built on first use, not by build_grid
        assert g.ik is g.ik and g.dealias_cut == 64 // 3 + 1
        np.testing.assert_array_equal(g.ik[:-1], 1j * g.k[:-1])
        assert g.ik[-1] == 0.0
        np.testing.assert_array_equal(g.helm, 1.0 + g.k**2)
        np.testing.assert_array_equal(g.ik_helm, g.ik / g.helm)
        for name in ("ik", "helm", "ik_helm"):
            with pytest.raises(ValueError):
                getattr(g, name)[0] = 1.0

    @pytest.mark.parametrize("n", [8, 100, 0, 4097])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            build_grid(10.0, n)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            build_grid(-1.0, 64)


class TestProfiles:
    def test_gaussian_value(self):
        t = ProfileTerm("gaussian_bump", 2.0, 1.5, 0.5)
        x = np.array([0.5, 2.0])
        np.testing.assert_allclose(
            t.evaluate(x), 2.0 * np.exp(-(((x - 0.5) / 1.5) ** 2))
        )

    def test_slope_bump_slope_at_center(self):
        t = ProfileTerm("slope_bump", 3.0, 0.5, 0.0)
        assert profile_dx(t, np.array([0.0]))[0] == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "kind", ["gaussian_bump", "slope_bump", "eta_bump"]
    )
    def test_analytic_derivative_matches_differences(self, kind):
        t = ProfileTerm(kind, 1.7, 0.8, -0.3)
        x = np.linspace(-3, 3, 41)
        h = 1e-6
        fd = (t.evaluate(x + h) - t.evaluate(x - h)) / (2 * h)
        np.testing.assert_allclose(profile_dx(t, x), fd, atol=1e-7)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ProfileTerm("square_well", 1.0, 1.0, 0.0)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            ProfileTerm("gaussian_bump", 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("amp, center", [(math.nan, 0.0), (1.0, math.inf)])
    def test_rejects_nonfinite_amp_or_center(self, amp, center):
        with pytest.raises(ValueError, match="finite"):
            ProfileTerm("gaussian_bump", amp, 1.0, center)


class TestSynthesize:
    def test_smooth_data(self):
        g = build_grid(20.0, 1024)
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("gaussian_bump", 0.3, 2.0, 0.0),),
            eta_terms=(ProfileTerm("eta_bump", 0.1, 2.0, 1.0),),
        )
        st0 = synthesize(spec, g)
        assert st0.t == 0.0
        np.testing.assert_allclose(st0.u, spec.u0(g.x))
        np.testing.assert_allclose(st0.rho, 1.0 + spec.eta0(g.x))

    def test_decay_violation(self):
        g = build_grid(5.0, 256)
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("gaussian_bump", 1.0, 4.0, 0.0),)
        )
        with pytest.raises(DecayViolation):
            synthesize(spec, g)

    def test_eta_zero_mode(self):
        g = build_grid(10.0, 256)
        spec = InitialDataSpec(
            u_terms=(ProfileTerm("gaussian_bump", 0.1, 1.0, 0.0),),
            eta_zero=True,
        )
        st0 = synthesize(spec, g)
        np.testing.assert_array_equal(st0.rho, 0.0)

    def test_eta_zero_excludes_bumps(self):
        with pytest.raises(ValueError):
            InitialDataSpec(
                eta_terms=(ProfileTerm("eta_bump", 0.1, 1.0, 0.0),),
                eta_zero=True,
            )

    def test_profile_role_mismatch(self):
        with pytest.raises(ValueError):
            InitialDataSpec(u_terms=(ProfileTerm("eta_bump", 0.1, 1.0, 0.0),))
        with pytest.raises(ValueError):
            InitialDataSpec(eta_terms=(ProfileTerm("gaussian_bump", 0.1, 1.0, 0.0),))

    def test_boundary_leak_monitor(self):
        g = build_grid(10.0, 512)
        u = np.full(g.n, 1e-3)
        st0 = FieldState(0.0, u, np.zeros(g.n))
        assert boundary_leak(st0, g) == pytest.approx(1e-3)


class TestFieldState:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            FieldState(0.0, np.array([1.0, np.inf]), np.zeros(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            FieldState(0.0, np.zeros(4), np.zeros(5))
