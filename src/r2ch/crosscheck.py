"""Independent second transcriptions of every closed-form certificate
formula and of the tendency, used for double-entry bookkeeping against
transcription error.

Each function here was written term by term from the displayed formulas,
deliberately structured differently from the primary implementations in
``certificates`` and ``evolution`` (explicit term lists, no shared helpers,
numpy's FFT).  The selftest and the test suite compare the two on random
inputs; agreement to 1e-12 relative is required for the formulas and to
1e-13 of max |du/dt| for the tendency.
"""

from __future__ import annotations

import math

import numpy as np


def half_c_squared_terms(
    E0: float, rho_sup: float, A: float, sigma: float, mu: float, Omega: float
) -> list[float]:
    """The individual summands of C^2/2, one list entry per displayed term."""
    d = 1.0 - 2.0 * Omega * A
    return [
        3.0 * (1.0 - Omega * A) / 2.0,
        ((A - mu) ** 2) / 4.0 * E0,
        abs(3.0 - sigma) / 2.0 * E0,
        (3.0 / 4.0) * E0,
        abs(sigma) / 4.0 * E0,
        (Omega / 2.0) * E0,
        3.0 * Omega / (4.0 * d) * E0,
        (Omega**2) / 2.0 * E0,
        (Omega**2) / 2.0 * rho_sup**4,
        (Omega / (4.0 * d)) * rho_sup * E0,
        (Omega / 4.0) * rho_sup * E0,
        (math.sqrt(2.0) * Omega / (4.0 * d)) * math.sqrt(E0) * E0,
    ]


def constant_C_alt(
    E0: float, rho_sup: float, A: float, sigma: float, mu: float, Omega: float
) -> float:
    return math.sqrt(2.0 * math.fsum(half_c_squared_terms(E0, rho_sup, A, sigma, mu, Omega)))


def lemma31_ceiling_alt(
    u0x_sup: float, rho_sup: float, C: float, A: float, sigma: float, Omega: float
) -> float:
    d = 1.0 - 2.0 * Omega * A
    return u0x_sup + math.sqrt((d * rho_sup * rho_sup + C * C) / sigma)


def t1_bound_alt(u0x_at_witness: float, C: float, sigma: float) -> float:
    """Proven lifespan bound via the effective Riccati coefficient
    -sigma/2 (1 - eps^4), eps^4 = C^2 / ((-sigma) u0x^2)."""
    s = u0x_at_witness
    eps4 = C * C / ((-sigma) * s * s)
    coeff = (-sigma) / 2.0 * (1.0 - eps4)
    return 1.0 / (coeff * s)


def t1_bound_stated_alt(u0x_at_witness: float, C: float, sigma: float) -> float:
    """The paper's displayed lifespan expression via the proof's delta
    parameter rather than the final displayed denominator."""
    s = u0x_at_witness
    delta = 0.5 + 0.5 * math.sqrt(C / (s * math.sqrt(-sigma)))
    return -1.0 / (sigma * delta * s)


def thm42_N_terms(E0: float, M: float, A: float, Omega: float) -> list[float]:
    d = 1.0 - 2.0 * Omega * A
    r2 = math.sqrt(2.0)
    return [
        (3.0 * M * M * d / 2.0) * E0,
        (9.0 / 4.0) * E0,
        (3.0 * r2 * Omega * M * M / 2.0) * E0 * math.sqrt(E0),
        (3.0 * r2 * Omega / (4.0 * d)) * E0 * E0 * math.sqrt(E0),
        ((6.0 + 3.0 * A * A + 6.0 * Omega * Omega) / 4.0) * E0 * E0,
        (3.0 * r2 * Omega / (2.0 * math.sqrt(d))) * E0 * E0,
        (3.0 * Omega * (1.0 - Omega * A) * (M + 1.0) / (2.0 * d)) * E0 * E0,
    ]


def thm42_N_alt(E0: float, M: float, A: float, Omega: float) -> float:
    return math.fsum(thm42_N_terms(E0, M, A, Omega))


def thm42_T_alt(m0: float, E0: float, N: float) -> float:
    s = math.sqrt(2.0 * E0 * N)
    if m0 + s >= 0:
        return math.nan
    return 0.5 * math.sqrt(2.0 * E0 / N) * math.log((s - m0) / (-s - m0))


def k2_alt(C: float, rho_sup: float, A: float, Omega: float) -> float:
    d = 1.0 - 2.0 * Omega * A
    return (d * rho_sup * rho_sup + C * C) / 2.0


def tendency_alt(
    u: np.ndarray, eta: np.ndarray, A: float, sigma: float, mu: float, Omega: float,
    half_length: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(du/dt, deta/dt) from the six dealiased products u^2, u_x^2, eta^2,
    rho^2 u, rho^2 u_x and u eta, each transformed on its own:

        du/dt = mu u_x - sigma/2 (u^2)_x
                - dx p * [(mu-A) u + (3-sigma)/2 u^2 + sigma/2 u_x^2
                          + (1-2 Omega A)(eta + eta^2/2) - Omega rho^2 u]
                + Omega p * (rho^2 u_x)
        deta/dt = -(u eta)_x - u_x
    """
    n = u.size
    k = (math.pi / half_length) * np.arange(n // 2 + 1)
    ik = 1j * k
    ik[-1] = 0.0
    symbol = 1.0 + k * k
    kept = np.arange(k.size) <= n // 3

    def product(a, b):
        h = np.fft.rfft(a * b)
        h[~kept] = 0.0
        return h

    uh, etah = np.fft.rfft(u), np.fft.rfft(eta)
    ux = np.fft.irfft(ik * uh, n)
    rho = 1.0 + eta
    d = 1.0 - 2.0 * Omega * A
    bracket = (
        (mu - A) * uh
        + (3.0 - sigma) / 2.0 * product(u, u)
        + sigma / 2.0 * product(ux, ux)
        + d * etah
        + d / 2.0 * product(eta, eta)
        - Omega * product(rho * rho, u)
    )
    du_hat = (
        mu * ik * uh
        - sigma / 2.0 * ik * product(u, u)
        - ik * bracket / symbol
        + Omega * product(rho * rho, ux) / symbol
    )
    deta_hat = -ik * (product(u, eta) + uh)
    return np.fft.irfft(du_hat, n), np.fft.irfft(deta_hat, n)
