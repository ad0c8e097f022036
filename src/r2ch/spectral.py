"""Spectral differentiation, Helmholtz Green-kernel convolutions, a state's
batched transforms and the forcing field of the differentiated velocity
equation.

The canonical path applies Fourier multipliers (ik for the derivative,
1/(1+k^2) for the kernel p(x) = exp(-|x|)/2).  An independent physical-space
quadrature against the closed-form periodized kernel serves as the test
oracle; the two derivations share nothing but the grid.  The single-field
kernels ``helmholtz_conv``, ``helmholtz_conv_dx`` and ``dealias`` are kept as
oracles for the batched path of ``state_spectra``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .model import FieldState, Grid, PhysParams


def _check(field: np.ndarray, grid: Grid) -> None:
    if field.shape != (grid.n,):
        raise ValueError(f"field length {field.shape} does not match grid n={grid.n}")


def deriv(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral d/dx; exact for resolved trigonometric modes."""
    _check(field, grid)
    fh = sfft.rfft(field)
    fh *= grid.ik
    return sfft.irfft(fh, n=grid.n)


def helmholtz_conv(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Convolution with the kernel of (1 - d^2/dx^2)^{-1}, multiplier 1/(1+k^2)."""
    _check(field, grid)
    fh = sfft.rfft(field)
    fh /= grid.helm
    return sfft.irfft(fh, n=grid.n)


def helmholtz_conv_dx(field: np.ndarray, grid: Grid) -> np.ndarray:
    """d/dx of the Helmholtz convolution, multiplier ik/(1+k^2)."""
    _check(field, grid)
    fh = sfft.rfft(field)
    fh *= grid.ik_helm
    return sfft.irfft(fh, n=grid.n)


def dealias(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Two-thirds rule: zero the top third of modes of a pointwise product."""
    _check(field, grid)
    fh = sfft.rfft(field)
    fh[grid.dealias_cut :] = 0.0
    return sfft.irfft(fh, n=grid.n)


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


@dataclass(frozen=True)
class StateSpectra:
    """One state's transforms, from three batched FFT calls: the rffts of u
    and eta, the slope u_x, and the dealiased rffts of the six products
    u^2, u_x^2, eta^2, rho^2 u, rho^2 u_x and u eta (rows of ``products``)."""

    uh: np.ndarray
    etah: np.ndarray
    ux: np.ndarray
    products: np.ndarray


def state_spectra(u: np.ndarray, eta: np.ndarray, grid: Grid) -> StateSpectra:
    """The transforms the tendency and the forcing of a state are built from.

    Each batched transform runs along the last axis and gives, row by row,
    the same bits as one call per field.  The products are formed in the
    grid's scratch rows ``grid.product_rows``.
    """
    uh, etah = sfft.rfft(np.stack([u, eta]))
    ux = sfft.irfft(uh * grid.ik, n=grid.n)
    rho2 = (1.0 + eta) ** 2
    prods = grid.product_rows
    factors = ((u, u), (ux, ux), (eta, eta), (rho2, u), (rho2, ux), (u, eta))
    for row, (a, b) in zip(prods, factors):
        np.multiply(a, b, out=row)
    products = sfft.rfft(prods)
    products[:, grid.dealias_cut :] = 0.0
    return StateSpectra(uh=uh, etah=etah, ux=ux, products=products)


def eval_f(
    state: FieldState,
    params: PhysParams,
    grid: Grid,
    spectra: StateSpectra | None = None,
) -> np.ndarray:
    """Forcing of the differentiated velocity equation,

        f = -(mu - A) dx(p * du/dx) + (3-sigma)/2 u^2 - Omega rho^2 u
            - p * ((3-sigma)/2 u^2 + sigma/2 u_x^2 + (1-2 Omega A)/2 rho^2
                   - Omega rho^2 u)
            + Omega dx(p * (rho^2 u_x)),

    with the second derivative of the kernel rewritten as dx p * dx u.
    Quadratic and cubic products are dealiased.  The sum is taken in
    spectral space from the state's transforms (``spectra``, when the caller
    already holds them) and costs one irfft; rho^2 = 1 + 2 eta + eta^2 adds
    n at k = 0 to the transform of its non-constant part.
    """
    if spectra is None:
        spectra = state_spectra(state.u, state.eta, grid)
    A, sigma, mu, Om = params.A, params.sigma, params.mu, params.Omega
    c = params.coriolis_margin
    u2h, ux2h, eta2h, r2uh, r2uxh, _ = spectra.products
    rho2h = 2.0 * spectra.etah + eta2h
    rho2h[grid.dealias_cut :] = 0.0
    rho2h[0] += grid.n
    local = 0.5 * (3.0 - sigma) * u2h - Om * r2uh
    inner = local + 0.5 * sigma * ux2h + 0.5 * c * rho2h
    fh = local - inner / grid.helm + grid.ik_helm * (
        Om * r2uxh - (mu - A) * (grid.ik * spectra.uh)
    )
    return sfft.irfft(fh, n=grid.n)
