"""Parameters, grid, field state and the initial-data profile library.

The real line is truncated to a periodic box [-L, L); all stored fields decay
towards the box edges, which is enforced at t=0 through a boundary-decay
tolerance and monitored afterwards.  The density is stored as the deviation
eta = rho - 1 so that every stored field decays.

A grid holds its mesh and read-only Fourier multipliers, shared by callers in
any thread; the stepper's buffers belong to ``spectral.SpectralKernel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class DecayViolation(ValueError):
    """Initial data does not decay at the truncated boundary."""


@dataclass(frozen=True)
class PhysParams:
    """Model parameters: shear A, balance index sigma, dispersion mu, rotation Omega."""

    A: float
    sigma: float
    mu: float
    Omega: float

    def __post_init__(self):
        for name in ("A", "sigma", "mu", "Omega"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.Omega < 0:
            raise ValueError(f"Omega must be nonnegative, got {self.Omega}")
        if self.coriolis_margin <= 0:
            raise ValueError(
                f"1 - 2*Omega*A must be positive, got {self.coriolis_margin}"
            )

    @property
    def coriolis_margin(self) -> float:
        """The combination 1 - 2*Omega*A, positive for every admissible run."""
        return 1.0 - 2.0 * self.Omega * self.A


@dataclass(frozen=True)
class Grid:
    """Uniform periodic mesh on [-L, L) with rfft wavenumbers k_m = pi*m/L."""

    half_length: float
    n: int
    dx: float
    x: np.ndarray = field(repr=False)
    k: np.ndarray = field(repr=False)

    # Fourier multipliers, built on first use and read-only (shared by callers)

    @cached_property
    def dealias_cut(self) -> int:
        """First rfft index the two-thirds rule zeroes: modes |m| <= n/3 stay."""
        return self.n // 3 + 1

    @cached_property
    def ik(self) -> np.ndarray:
        """Multiplier of d/dx; the Nyquist mode has no well-defined odd derivative."""
        ik = 1j * self.k
        ik[-1] = 0.0
        return _read_only(ik)

    @cached_property
    def helm(self) -> np.ndarray:
        """Symbol 1 + k^2 of 1 - d^2/dx^2; the kernel p has multiplier 1/helm."""
        return _read_only(1.0 + self.k**2)

    @cached_property
    def ik_helm(self) -> np.ndarray:
        """Multiplier ik/(1+k^2) of dx p *, Nyquist mode zeroed."""
        return _read_only(self.ik / self.helm)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def build_grid(half_length: float, n: int) -> Grid:
    if not (half_length > 0 and math.isfinite(half_length)):
        raise ValueError(f"half_length must be positive and finite, got {half_length}")
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two >= 16, got {n}")
    dx = 2.0 * half_length / n
    x = -half_length + dx * np.arange(n)
    k = (math.pi / half_length) * np.arange(n // 2 + 1)
    return Grid(half_length=float(half_length), n=int(n), dx=dx, x=x, k=k)


@dataclass(frozen=True)
class FieldState:
    """Sampled solution at one instant: velocity u and surface deviation eta = rho - 1."""

    t: float
    u: np.ndarray
    eta: np.ndarray
    # (spectrum, u_x) of a state made by ``evolution.step``: the stepper's
    # own transforms, handed to the next step and never copied by replace
    _transforms: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if self.u.shape != self.eta.shape or self.u.ndim != 1:
            raise ValueError("u and eta must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.eta))):
            raise ValueError("non-finite samples in FieldState")

    @property
    def rho(self) -> np.ndarray:
        return 1.0 + self.eta


@dataclass(frozen=True)
class ProfileTerm:
    """One closed-form bump: kind in {gaussian_bump, slope_bump, eta_bump}."""

    kind: str
    amp: float
    width: float
    center: float

    def __post_init__(self):
        if self.kind not in ("gaussian_bump", "slope_bump", "eta_bump"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not (self.width > 0 and math.isfinite(self.width)):
            raise ValueError(f"profile width must be positive, got {self.width}")
        if not (math.isfinite(self.amp) and math.isfinite(self.center)):
            raise ValueError("profile amplitude and center must be finite")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        s = (x - self.center) / self.width
        if self.kind == "slope_bump":
            return self.amp * (x - self.center) * np.exp(-(s**2))
        return self.amp * np.exp(-(s**2))


@dataclass(frozen=True)
class InitialDataSpec:
    """Composite initial data: sums of bumps for u and eta, or the test-only
    eta_zero mode (rho identically zero, isolating the velocity equation)."""

    u_terms: tuple[ProfileTerm, ...] = ()
    eta_terms: tuple[ProfileTerm, ...] = ()
    eta_zero: bool = False
    decay_tol: float = 1e-10

    def __post_init__(self):
        if self.eta_zero and self.eta_terms:
            raise ValueError("eta_zero mode excludes eta bump terms")
        for term in self.u_terms:
            if term.kind == "eta_bump":
                raise ValueError("eta_bump is not a velocity profile")
        for term in self.eta_terms:
            if term.kind != "eta_bump":
                raise ValueError(f"{term.kind} is not a density profile")

    def u0(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        for term in self.u_terms:
            out += term.evaluate(x)
        return out

    def eta0(self, x: np.ndarray) -> np.ndarray:
        if self.eta_zero:
            return np.full_like(x, -1.0)
        out = np.zeros_like(x)
        for term in self.eta_terms:
            out += term.evaluate(x)
        return out


def synthesize(spec: InitialDataSpec, grid: Grid) -> FieldState:
    """Sample the closed-form profiles on the grid at t=0.

    The decay proxy (max field magnitude over the outer 5% of the box below
    spec.decay_tol) is enforced unless eta_zero mode is set.
    """
    state = FieldState(t=0.0, u=spec.u0(grid.x), eta=spec.eta0(grid.x))
    if not spec.eta_zero:
        leak = boundary_leak(state, grid)
        if leak > spec.decay_tol:
            raise DecayViolation(
                f"initial data does not decay at the boundary: "
                f"magnitude {leak:.3e} exceeds tolerance {spec.decay_tol:.3e}"
            )
    return state


def boundary_leak(state: FieldState, grid: Grid) -> float:
    """Max field magnitude over the outer 5% of the box (decay monitor)."""
    edge = max(1, int(round(0.05 * grid.n / 2)))
    u, eta = state.u, state.eta
    return float(max(np.abs(a).max() for a in (u[:edge], u[-edge:], eta[:edge], eta[-edge:])))
