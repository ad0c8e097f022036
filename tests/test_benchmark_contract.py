"""The traced benchmark run wraps module-level names of the r2ch layers
(perfbench/spans.py).  A name that is no longer bound silently drops every
per-layer metric resting on it, so each one must still resolve."""

import importlib.util
from pathlib import Path

import scipy.fft

import r2ch
import r2ch.cli  # noqa: F401  (install wraps names in r2ch.cli)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_name_is_bound():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = (scipy.fft.rfft, r2ch.evolution._rhs_arrays, r2ch.characteristics.eval_f)
    tracer = spans.Tracer()
    spans.install(tracer, r2ch, scipy.fft)
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
    assert (scipy.fft.rfft, r2ch.evolution._rhs_arrays, r2ch.characteristics.eval_f) == originals
