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
