"""Spectral operators against closed forms and the quadrature oracle."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import r2ch
import r2ch.cli
import r2ch.crosscheck
from r2ch import FieldState, PhysParams, build_grid, deriv, eval_f
from r2ch.crosscheck import (
    direct_conv_oracle,
    helmholtz_conv,
    helmholtz_conv_dx,
    periodized_kernel,
)
from r2ch.spectral import SpectralKernel

from conftest import forcing


@pytest.fixture(scope="module")
def grid():
    return build_grid(20.0, 4096)


class TestDeriv:
    def test_trig_mode_exact(self, grid):
        # cos(kx) -> -k sin(kx), exact for any resolved wavenumber
        k = grid.k[17]
        f = np.cos(k * grid.x)
        np.testing.assert_allclose(deriv(f, grid), -k * np.sin(k * grid.x), atol=1e-12)

    def test_gaussian_analytic(self, grid):
        f = np.exp(-((grid.x / 2.0) ** 2))
        expect = -2.0 * grid.x / 4.0 * f
        np.testing.assert_allclose(deriv(f, grid), expect, atol=1e-12)

    def test_constant_derivative_zero(self, grid):
        np.testing.assert_allclose(deriv(np.full(grid.n, 3.7), grid), 0.0, atol=1e-12)

    def test_shape_mismatch(self, grid):
        with pytest.raises(ValueError):
            deriv(np.zeros(10), grid)


class TestHelmholtzConv:
    def test_eigenfunction(self, grid):
        # cos(kx) is an eigenfunction with eigenvalue 1/(1+k^2)
        k = grid.k[33]
        f = np.cos(k * grid.x)
        np.testing.assert_allclose(
            helmholtz_conv(f, grid), f / (1.0 + k**2), atol=1e-12
        )

    def test_constant(self, grid):
        # the kernel integrates to one on the period
        out = helmholtz_conv(np.full(grid.n, 2.5), grid)
        np.testing.assert_allclose(out, 2.5, atol=1e-12)

    def test_dx_of_constant_vanishes(self, grid):
        np.testing.assert_allclose(
            helmholtz_conv_dx(np.ones(grid.n), grid), 0.0, atol=1e-13
        )

    def test_dx_matches_deriv_of_conv(self, grid):
        f = np.exp(-((grid.x - 1.0) / 2.0) ** 2)
        np.testing.assert_allclose(
            helmholtz_conv_dx(f, grid), deriv(helmholtz_conv(f, grid), grid), atol=1e-12
        )

    def test_helmholtz_inverse_identity(self, grid):
        # (1 - d^2/dx^2) applied to p * f recovers f
        f = np.exp(-((grid.x + 2.0) / 1.5) ** 2)
        g = helmholtz_conv(f, grid)
        gxx = deriv(deriv(g, grid), grid)
        np.testing.assert_allclose(g - gxx, f, atol=1e-9)


def test_oracles_live_in_crosscheck():
    # the production modules and the package bind no oracle, and importing
    # the package does not load the oracles' module
    oracles = ("helmholtz_conv", "helmholtz_conv_dx", "periodized_kernel", "direct_conv_oracle")
    moved = oracles + ("_central_deriv4", "selftest_checks", "profile_dx")
    for module in (r2ch.spectral, r2ch.cli):
        assert [name for name in moved + ("dealias",) if hasattr(module, name)] == []
    assert not hasattr(r2ch.crosscheck, "dealias")
    assert not hasattr(r2ch.ProfileTerm, "evaluate_dx") and not hasattr(r2ch.InitialDataSpec, "u0_dx")
    assert all(hasattr(r2ch.crosscheck, name) for name in moved)
    for name in r2ch.__all__:
        assert hasattr(r2ch, name), name
    assert [name for name in oracles if name in r2ch.__all__ or hasattr(r2ch, name)] == []
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, r2ch; print('r2ch.crosscheck' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


class TestPeriodizedKernel:
    def test_symmetry_and_positivity(self, grid):
        w = periodized_kernel(grid.x, grid)
        assert np.all(w > 0)
        np.testing.assert_allclose(w, periodized_kernel(-grid.x, grid))

    def test_unit_mass(self, grid):
        w = periodized_kernel(grid.x, grid)
        # trapezoid integral; the corner at x=0 costs O(dx^2)
        assert grid.dx * w.sum() == pytest.approx(1.0, abs=1e-5)

    def test_matches_line_kernel_in_interior(self, grid):
        # for L = 20 the periodization correction is O(e^{-2L})
        x = np.array([0.0, 0.5, -1.3])
        np.testing.assert_allclose(
            periodized_kernel(x, grid), 0.5 * np.exp(-np.abs(x)), atol=1e-15
        )

    def test_dxp_is_odd(self, grid):
        w = periodized_kernel(grid.x, grid, "dxp")
        np.testing.assert_allclose(w[1:], -w[1:][::-1])

    def test_unknown_tag(self, grid):
        with pytest.raises(ValueError):
            periodized_kernel(grid.x, grid, "d2p")


class TestConvOracle:
    """The two convolution paths share only the grid; their agreement
    validates both."""

    def test_oracle_agrees_p(self, grid):
        f = np.exp(-((grid.x - 1.0) / 2.0) ** 2)
        a, b = helmholtz_conv(f, grid), direct_conv_oracle(f, grid, "p")
        assert np.max(np.abs(a - b)) / np.max(np.abs(b)) <= 1e-8

    def test_oracle_agrees_dxp(self, grid):
        f = np.exp(-((grid.x + 3.0) / 1.2) ** 2)
        a, b = helmholtz_conv_dx(f, grid), direct_conv_oracle(f, grid, "dxp")
        assert np.max(np.abs(a - b)) / np.max(np.abs(b)) <= 1e-8

    def test_oracle_on_sum_of_bumps(self, grid):
        f = np.exp(-(grid.x**2)) + 0.5 * np.exp(-(((grid.x - 4) / 0.7) ** 2))
        a, b = helmholtz_conv(f, grid), direct_conv_oracle(f, grid, "p")
        assert np.max(np.abs(a - b)) / np.max(np.abs(b)) <= 1e-8


class TestForcing:
    def test_rest_state_constant(self, grid):
        # u = 0, rho = 1: every nonlocal term collapses and
        # f = -(1 - 2 Omega A)/2 everywhere
        for p in (
            PhysParams(A=0.5, sigma=1.0, mu=0.2, Omega=0.1),
            PhysParams(A=-1.0, sigma=-2.0, mu=0.0, Omega=0.3),
        ):
            st = FieldState(0.0, np.zeros(grid.n), np.zeros(grid.n))
            f = forcing(st, p, grid)
            np.testing.assert_allclose(f, -0.5 * p.coriolis_margin, atol=1e-12)

    def test_forcing_chain_inequalities(self, grid):
        """The chain bounding |f| through C^2/2 proceeds term by term; each
        intermediate estimate must hold for a concrete smooth state."""
        from r2ch import constant_C
        from r2ch.evolution import energy

        p = PhysParams(A=0.5, sigma=1.0, mu=0.2, Omega=0.1)
        u = 0.3 * np.exp(-((grid.x / 2.0) ** 2))
        eta = 0.1 * np.exp(-(((grid.x - 1) / 2.0) ** 2))
        st = FieldState(0.0, u, eta)
        E0 = energy(st, p, grid, deriv(u, grid))
        rho_sup = float(np.max(st.rho))
        c = p.coriolis_margin

        ux = deriv(u, grid)
        # embedding: sup|u|^2 <= E0/2 and, for the convolution of a
        # nonnegative integrand, sup p*(g) <= integral(g)/2
        assert np.max(u**2) <= 0.5 * E0 + 1e-12
        conv = helmholtz_conv(u**2 + ux**2, grid)
        assert np.max(np.abs(conv)) <= 0.5 * grid.dx * np.sum(u**2 + ux**2) + 1e-9
        # |dx p * g| <= p*|g| pointwise bound via kernel domination
        g = u * ux
        assert np.max(np.abs(helmholtz_conv_dx(g, grid))) <= np.max(
            helmholtz_conv(np.abs(g), grid)
        ) + 1e-9
        # the assembled bound
        C = constant_C(E0, rho_sup, p)
        f = forcing(st, p, grid)
        assert np.max(np.abs(f)) <= 0.5 * C**2

    def test_forcing_even_symmetry(self, grid):
        # even u and rho give even f
        p = PhysParams(A=0.2, sigma=2.0, mu=0.1, Omega=0.05)
        u = 0.2 * np.exp(-(grid.x**2))
        eta = 0.05 * np.exp(-((grid.x / 1.5) ** 2))
        f = forcing(FieldState(0.0, u, eta), p, grid)
        # grid point j and n-j are mirror images (x=0 at index n//2)
        mirrored = np.roll(f[::-1], 1)
        np.testing.assert_allclose(f, mirrored, atol=1e-10)


def _dealias(field, grid):
    """Two-thirds rule: zero the top third of modes of a pointwise product."""
    fh = scipy.fft.rfft(field)
    fh[grid.dealias_cut :] = 0.0
    return scipy.fft.irfft(fh, n=grid.n)


def _f_composed(state, params, grid):
    """The forcing composed in physical space from the single-field kernels,
    term by term as in the eval_f docstring (about 20 transforms)."""
    u, rho = state.u, state.rho
    ux = deriv(u, grid)
    u2 = _dealias(u * u, grid)
    ux2 = _dealias(ux * ux, grid)
    rho2 = _dealias(rho * rho, grid)
    rho2u = _dealias(rho * rho * u, grid)
    rho2ux = _dealias(rho * rho * ux, grid)
    A, sigma, mu, Om = params.A, params.sigma, params.mu, params.Omega
    c = params.coriolis_margin
    inner = 0.5 * (3.0 - sigma) * u2 + 0.5 * sigma * ux2 + 0.5 * c * rho2 - Om * rho2u
    return (
        -(mu - A) * helmholtz_conv_dx(ux, grid)
        + 0.5 * (3.0 - sigma) * u2
        - Om * rho2u
        - helmholtz_conv(inner, grid)
        + Om * helmholtz_conv_dx(rho2ux, grid)
    )


class TestSpectralForcing:
    """eval_f sums the forcing in spectral space with one irfft."""

    @staticmethod
    def state(case):
        if case == "smooth":
            g = build_grid(20.0, 4096)
            u = 0.3 * np.exp(-((g.x / 2.0) ** 2))
            eta = 0.1 * np.exp(-(((g.x - 1) / 2.0) ** 2))
            return PhysParams(A=0.5, sigma=1.0, mu=0.2, Omega=0.1), g, FieldState(0.0, u, eta)
        # the steep slope of the breaking runs, with a density bump
        g = build_grid(5.0, 8192)
        s = g.x / 0.1
        u = 9.0 * g.x * np.exp(-(s**2))
        eta = 0.2 * np.exp(-((g.x / 0.5) ** 2))
        return PhysParams(A=0.5, sigma=-1.0, mu=0.3, Omega=0.1), g, FieldState(0.0, u, eta)

    @pytest.mark.parametrize("case", ["smooth", "steep"])
    def test_matches_physical_composition(self, case):
        p, g, st = self.state(case)
        expect = _f_composed(st, p, g)
        got = forcing(st, p, g)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_held_spectra_same_bits(self):
        # held transforms give the same forcing after their kernel has
        # transformed another state and summed its forcing (its rows reused)
        p, g, st = self.state("steep")
        kernel = SpectralKernel(p, g)
        sp = kernel.forward(st.u, st.eta)
        want = eval_f(sp)
        eval_f(kernel.forward(2.0 * st.u, 0.5 * st.eta))
        np.testing.assert_array_equal(eval_f(sp), want)
