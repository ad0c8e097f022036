"""The benchmark's contract with the code it measures.

The traced benchmark run wraps module-level names of the r2ch layers
(perfbench/spans.py).  A name that is no longer bound silently drops every
per-layer metric resting on it, so each one must still resolve.  And the
output checks of every workload (perfbench/workloads.py) must hold on one
round, so that a change to the code they time fails here first."""

import importlib.util
from pathlib import Path

import pytest
import scipy.fft

import r2ch
import r2ch.cli  # noqa: F401  (install wraps names in r2ch.cli)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """A perfbench module, read from its file and not put on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_bound():
    spans = load("spans")
    originals = (scipy.fft.rfft, r2ch.evolution._rhs_arrays, r2ch.characteristics.eval_f)
    tracer = spans.Tracer()
    spans.install(tracer, r2ch, scipy.fft)
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
    assert (scipy.fft.rfft, r2ch.evolution._rhs_arrays, r2ch.characteristics.eval_f) == originals


def test_traced_counts_match_the_run_record():
    # the tracer counts an accepted step when run hands the state a step
    # returned to the next step (or returns it as the final state), and an
    # RHS evaluation at each _rhs_arrays call; the run counts both itself
    spans = load("spans")
    p = r2ch.PhysParams(A=0.5, sigma=1.0, mu=0.2, Omega=0.1)
    g = r2ch.build_grid(20.0, 256)
    spec = r2ch.InitialDataSpec(
        u_terms=(r2ch.ProfileTerm("gaussian_bump", 0.3, 2.0, 0.0),),
        eta_terms=(r2ch.ProfileTerm("eta_bump", 0.1, 2.0, 0.0),),
    )
    settings = r2ch.RunSettings(
        t_end=0.3, tol=1e-10, dt_init=0.3, dt_max=0.3, diag_stride=1, snapshot_cadence=0
    )
    tracer = spans.Tracer()
    spans.install(tracer, r2ch, scipy.fft)
    try:
        rec = r2ch.evolution.run(r2ch.synthesize(spec, g), p, g, settings)
    finally:
        tracer.uninstall()
    calls = tracer.summary()
    assert rec.steps_rejected >= 1
    assert calls["evolution.step"]["calls"] == rec.steps_accepted + rec.steps_rejected
    assert tracer.counts["steps_accepted"] == rec.steps_accepted
    assert calls["evolution.rhs_eval"]["calls"] == rec.rhs_evals


@pytest.mark.parametrize("workload", sorted(load("workloads").WORKLOADS))
def test_workload_checks_hold(workload, tmp_path):
    # one round: the bracket T_lower <= T_est <= T1 and the rate of the
    # breaking run; seed order along the paths, the variational J against exp
    # of the integrated slope and the seed sup against the grid sup (dense);
    # the extremum ODE residuals and the density decay (single); and the
    # sweep's exit codes, ceiling and forcing bounds, snapshot files and
    # rate.json bracket, written under tmp_path (sweep_cli)
    workloads = load("workloads")
    wl = workloads.WORKLOADS[workload](3, str(tmp_path))
    wl.prepare(workloads.build(wl.problems()))
    wl.round(workloads.Clock())
    assert wl.check() == ([], 0)
