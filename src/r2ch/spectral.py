"""Spectral differentiation, the stepping kernel with a state's batched
transforms, and the forcing field of the differentiated velocity equation.

Derivatives and the kernel p(x) = exp(-|x|)/2 of (1 - d^2/dx^2)^{-1} act as
Fourier multipliers (ik and 1/(1+k^2)), read-only on the grid.  Every
transform is a ``numpy.fft`` rfft or irfft along the last axis, batched over
a state's fields; numpy >= 2.0 runs them in its C++ pocketfft.  A
``SpectralKernel``, or the transforms it made, is the one carrier of
(params, grid) on this path.  The single-field convolutions and the
physical-space quadrature they are checked against live in ``crosscheck``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Grid, PhysParams


def _check(field: np.ndarray, grid: Grid) -> None:
    if field.shape != (grid.n,):
        raise ValueError(f"field length {field.shape} does not match grid n={grid.n}")


def deriv(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral d/dx; exact for resolved trigonometric modes."""
    _check(field, grid)
    fh = np.fft.rfft(field)
    fh *= grid.ik
    return np.fft.irfft(fh, n=grid.n)


@dataclass(frozen=True)
class StateSpectra:
    """One state's transforms, made by ``kernel``: ``spectrum`` holds the
    rffts of u and eta, ``u``, ``eta`` and ``ux`` its samples and slope, and
    ``products`` the dealiased rffts of u^2, rho^2 u_x, u eta and the bracket
    B of ``SpectralKernel``."""

    kernel: SpectralKernel
    spectrum: np.ndarray
    u: np.ndarray
    eta: np.ndarray
    ux: np.ndarray
    products: np.ndarray


class SpectralKernel:
    """The stepping kernel of one (params, grid), built by its caller and
    passed on: ``step`` takes it, and ``eval_f`` and ``make_diagnostic_row``
    take the transforms it made.  Only the public ``rhs`` builds its own.

    A state's four products are formed in physical space, the bracket

        B = (3-sigma)/2 u^2 + sigma/2 u_x^2 + (1-2 Omega A)/2 eta^2 - Omega rho^2 u

    summed there (exact, as the rfft and the two-thirds mask are linear), and
    transformed in one batched rfft.  The tendency spectrum is a sum of weight
    rows times the state's spectrum and product spectra:

        du_hat   = w_uh uh + w_etah etah + w_u2 (u^2)^ + w_r2ux (rho^2 u_x)^
                   - ik/(1+k^2) B^
        deta_hat = -ik ((u eta)^ + uh)

        w_uh = mu ik - (mu-A) ik/(1+k^2),   w_etah = -(1-2 Omega A) ik/(1+k^2),
        w_u2 = -sigma/2 ik,                 w_r2ux = Omega/(1+k^2).

    The constant (1-2 Omega A)/2 of the bracket is dropped: its image under
    dx p * is exactly zero.

    The kernel owns the buffers its transforms and its stepper write into, so
    it serves one computation at a time; kernels on one grid share nothing
    else.  One set per kernel, not per call: fresh buffers per call make the
    C allocator trim and regrow the heap, about 480 page faults per call at
    n = 2^14.
    """

    def __init__(self, params: PhysParams, grid: Grid):
        A, sigma, mu, Om = params.A, params.sigma, params.mu, params.Omega
        c = params.coriolis_margin
        ik, ik_helm = grid.ik, grid.ik_helm
        self.params, self.grid = params, grid
        self.b_u2 = 0.5 * (3.0 - sigma)
        self.b_ux2 = 0.5 * sigma
        self.b_eta2 = 0.5 * c
        self.omega = Om
        self.w_uh = mu * ik - (mu - A) * ik_helm
        self.w_etah = -c * ik_helm
        self.w_u2 = -0.5 * sigma * ik
        self.w_r2ux = Om / grid.helm
        # a state's four products (rows 0-3) and two rows of terms; a spectral
        # row of the tendency sum; the six Cash-Karp stage tendencies of a
        # step; the rows [uh, etah, ik uh] of a stage's irfft
        self.product_rows = np.empty((6, grid.n))
        self.scratch = np.empty(ik.size, dtype=complex)
        self.stages = np.empty((6, 2, ik.size), dtype=complex)
        self.rows = np.empty((3, ik.size), dtype=complex)

    def transform(self, spectrum, u, eta, ux) -> StateSpectra:
        """The state's transforms from its spectrum, samples and slope: one
        rfft, of the four products formed in ``product_rows``."""
        rows = self.product_rows
        u2, r2ux, ueta, bracket, rho2, term = rows
        np.add(eta, 1.0, out=rho2)
        np.multiply(rho2, rho2, out=rho2)
        np.multiply(u, u, out=u2)
        np.multiply(rho2, ux, out=r2ux)
        np.multiply(u, eta, out=ueta)
        np.multiply(u2, self.b_u2, out=bracket)
        for a, b, coeff, op in (
            (ux, ux, self.b_ux2, np.add),
            (eta, eta, self.b_eta2, np.add),
            (rho2, u, self.omega, np.subtract),
        ):
            np.multiply(a, b, out=term)
            term *= coeff
            op(bracket, term, out=bracket)
        products = np.fft.rfft(rows[:4])
        products[:, self.grid.dealias_cut :] = 0.0
        return StateSpectra(self, spectrum, u, eta, ux, products)

    def inverse(self, rows: np.ndarray) -> StateSpectra:
        """The transforms of the state whose spectrum fills rows 0-1 of the
        ``(3, n/2+1)`` array ``rows``: row 2 becomes ``ik uh``, one irfft gives
        u, eta and u_x, and ``transform`` adds the products.  2 FFT calls."""
        np.multiply(self.grid.ik, rows[0], out=rows[2])
        u, eta, ux = np.fft.irfft(rows, n=self.grid.n)
        return self.transform(rows[:2], u, eta, ux)

    def forward(self, u: np.ndarray, eta: np.ndarray) -> StateSpectra:
        """The transforms of the state (u, eta): 3 FFT calls, an rfft of
        ``[u, eta]``, an irfft for u_x and the rfft of the four products.

        Each batched transform runs along the last axis and gives, row by
        row, the same bits as one call per field.
        """
        fields = self.product_rows[4:]
        fields[0], fields[1] = u, eta
        spectrum = np.fft.rfft(fields)
        ux = np.fft.irfft(np.multiply(spectrum[0], self.grid.ik, out=self.scratch), n=self.grid.n)
        return self.transform(spectrum, u, eta, ux)


def eval_f(spectra: StateSpectra) -> np.ndarray:
    """Forcing of the differentiated velocity equation,

        f = -(mu - A) dx(p * du/dx) + (3-sigma)/2 u^2 - Omega rho^2 u
            - p * ((3-sigma)/2 u^2 + sigma/2 u_x^2 + (1-2 Omega A)/2 rho^2
                   - Omega rho^2 u)
            + Omega dx(p * (rho^2 u_x)),

    with the second derivative of the kernel rewritten as dx p * dx u.
    Quadratic and cubic products are dealiased.  The sum is taken in
    spectral space from the state's transforms ``spectra``, whose kernel
    gives the params and grid, with one rfft of the local part
    L = (3-sigma)/2 u^2 - Omega rho^2 u and one irfft.  The inner bracket is
    B + (1-2 Omega A) eta + (1-2 Omega A)/2, and the constant adds n/2 times
    (1-2 Omega A) at k = 0.
    """
    params, grid = spectra.kernel.params, spectra.kernel.grid
    A, sigma, mu, Om = params.A, params.sigma, params.mu, params.Omega
    c = params.coriolis_margin
    u, eta, cut = spectra.u, spectra.eta, grid.dealias_cut
    uh, etah = spectra.spectrum
    _, r2uxh, _, bh = spectra.products
    local, rho2u = spectra.kernel.product_rows[4:]
    np.add(eta, 1.0, out=rho2u)
    np.multiply(rho2u, rho2u, out=rho2u)
    rho2u *= u
    np.multiply(u, u, out=local)
    local *= 0.5 * (3.0 - sigma)
    rho2u *= Om
    local -= rho2u
    fh = np.fft.rfft(local)
    fh[cut:] = 0.0
    inner = bh + c * etah
    inner[cut:] = 0.0
    inner[0] += 0.5 * c * grid.n
    fh -= inner / grid.helm
    fh += grid.ik_helm * (Om * r2uxh - (mu - A) * (grid.ik * uh))
    return np.fft.irfft(fh, n=grid.n)
