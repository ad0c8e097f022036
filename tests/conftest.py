"""Shared fixtures: the reference runs reused across the test modules.

The expensive simulations are session-scoped so the acceptance suite and the
unit tests share them.
"""

import numpy as np
import pytest

from r2ch import (
    InitialDataSpec,
    PhysParams,
    ProfileTerm,
    RunSettings,
    SpectralKernel,
    build_certificate,
    build_grid,
    eval_f,
    run,
    synthesize,
)

_ACCEPTANCE_LINES = []


@pytest.fixture
def accept():
    """Record one acceptance pass/fail line for the terminal summary."""

    def _record(line):
        _ACCEPTANCE_LINES.append(line)
        print(line)

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES, key=_criterion_key):
            terminalreporter.write_line(line)


def _criterion_key(line):
    try:
        return int(line.split()[1].rstrip(":"))
    except (IndexError, ValueError):
        return 99


def forcing(state, params, grid):
    """eval_f of a state, from the transforms of a kernel built for it."""
    return eval_f(SpectralKernel(params, grid).forward(state.u, state.eta))


# ----------------------------------------------------------------------------
# reference problem: smooth two-bump data, all effects active


def smooth_problem():
    params = PhysParams(A=0.5, sigma=1.0, mu=0.2, Omega=0.1)
    grid = build_grid(20.0, 4096)
    spec = InitialDataSpec(
        u_terms=(ProfileTerm("gaussian_bump", 0.3, 2.0, 0.0),),
        eta_terms=(ProfileTerm("eta_bump", 0.1, 2.0, 0.0),),
    )
    return params, grid, spec


@pytest.fixture(scope="session")
def smooth_run():
    """The reference smooth run to t=5, with dense rows and snapshots."""
    params, grid, spec = smooth_problem()
    state0 = synthesize(spec, grid)
    settings = RunSettings(
        t_end=5.0, tol=1e-8, dt_max=0.02, snapshot_cadence=1, diag_stride=1
    )
    rec = run(state0, params, grid, settings)
    assert rec.termination.event == "reached_t_end"
    return rec


# ----------------------------------------------------------------------------
# steep-slope breaking run (sigma < 0)


def breaking_problem():
    params = PhysParams(A=0.5, sigma=-1.0, mu=0.0, Omega=0.1)
    grid = build_grid(5.0, 2**14)
    spec = InitialDataSpec(u_terms=(ProfileTerm("slope_bump", 9.0, 0.1, 0.0),))
    return params, grid, spec


@pytest.fixture(scope="session")
def breaking_run():
    """Blow-up run: slope above the certified threshold, detection at 50."""
    params, grid, spec = breaking_problem()
    state0 = synthesize(spec, grid)
    cert = build_certificate(state0, params, grid)
    settings = RunSettings(
        t_end=0.5,
        tol=1e-8,
        blowup_threshold=50.0,
        dt_max=0.01,
        snapshot_cadence=0,
        diag_stride=2,
        dense_diag_above=15.0,
    )
    rec = run(state0, params, grid, settings)
    return rec, cert


# ----------------------------------------------------------------------------
# sigma > 0 matrix (ceiling / forcing / density bounds)


@pytest.fixture(scope="session")
def positive_sigma_matrix():
    """12 runs: sigma in {0.5, 1, 2} crossed with 4 velocity amplitudes."""
    out = []
    for sigma in (0.5, 1.0, 2.0):
        for a in (0.1, 0.2, 0.4, 0.6):
            params = PhysParams(A=0.3, sigma=sigma, mu=0.1, Omega=0.1)
            grid = build_grid(20.0, 2048)
            spec = InitialDataSpec(
                u_terms=(ProfileTerm("gaussian_bump", a, 2.0, 0.0),),
                eta_terms=(ProfileTerm("eta_bump", 0.1, 2.0, 0.0),),
            )
            state0 = synthesize(spec, grid)
            cert = build_certificate(state0, params, grid)
            settings = RunSettings(
                t_end=2.0, tol=1e-8, snapshot_cadence=0, diag_stride=1
            )
            rec = run(state0, params, grid, settings)
            out.append((rec, cert, state0))
    return out


# ----------------------------------------------------------------------------
# cubic-moment breaking run (sigma = 1, mu = 0)


def cubic_moment_problem():
    params = PhysParams(A=0.0, sigma=1.0, mu=0.0, Omega=0.0)
    grid = build_grid(5.0, 2**14)
    spec = InitialDataSpec(
        u_terms=(ProfileTerm("slope_bump", -12.0, 0.02, 0.0),),
        eta_terms=(ProfileTerm("eta_bump", -1.0, 0.1, 0.0),),
    )
    return params, grid, spec


@pytest.fixture(scope="session")
def cubic_moment_run():
    params, grid, spec = cubic_moment_problem()
    state0 = synthesize(spec, grid)
    cert = build_certificate(state0, params, grid, M_assumed=1.05)
    settings = RunSettings(
        t_end=0.6,
        tol=1e-8,
        blowup_threshold=25.0,
        dt_max=0.004,
        snapshot_cadence=0,
        diag_stride=2,
        dense_diag_above=13.0,
    )
    rec = run(state0, params, grid, settings)
    return rec, cert
