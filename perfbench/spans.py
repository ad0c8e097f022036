"""Span recorder for the traced benchmark run.

The recorder wraps module-level names through which the r2ch layers call one
another (for example ``r2ch.evolution.step`` or ``eval_f`` as bound in
``r2ch.characteristics``) and the ``scipy.fft`` entry points.  Each wrapped call
records one span (name, start, end, parent) in memory and bumps the counters
kept at that boundary.  Nothing under ``src/`` changes: the wrappers are set on
the imported modules and removed again by ``uninstall``.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one [name_id, start, end, parent_index] per call, parent -1 for roots
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        # span names whose module attribute no longer exists
        self.missing: set[str] = set()
        self._patched: list[tuple] = []
        self._last_step_out = None

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter(), math.nan, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, hook=None) -> None:
        """Replace module.attr by a recording wrapper.  hook(args, kwargs,
        result, span) runs after each call."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.add(name)
            return

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(args, kwargs, out, self.spans[idx])
            return out

        functools.update_wrapper(wrapper, orig)
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def summary(self) -> dict[str, dict]:
        """Calls, total time and self time (total minus child spans) per name."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        for nid, start, end, parent in self.spans:
            calls[nid] += 1
            total[nid] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        return {
            self.names[nid]: {
                "calls": calls[nid],
                "total_s": total[nid],
                "self_s": total[nid] - child[nid],
            }
            for nid in calls
        }

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "names": self.names,
            "span_columns": ["name_id", "start_s", "end_s", "parent_index"],
            "spans": self.spans,
            "summary": self.summary(),
            "counts": dict(self.counts),
            "missing": sorted(self.missing),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)

    # counting hooks

    def _fft(self, args, kwargs, out, span, inverse):
        x = args[0]
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        shape = getattr(x, "shape", (len(x),))
        if n is None:
            n = 2 * (shape[-1] - 1) if inverse else shape[-1]
        batch = math.prod(shape[:-1])
        self.counts["fft.points"] += batch * n
        self.counts["fft.flops"] += batch * 5.0 * n * math.log2(n)

    def _step(self, args, kwargs, out, span):
        # run() hands the state a step returned to the next step only when it
        # accepted that step
        if args[0] is self._last_step_out:
            self.counts["steps_accepted"] += 1
        self._last_step_out = out[0]

    def _run(self, args, kwargs, out, span):
        if out.final_state is not None and out.final_state is self._last_step_out:
            self.counts["steps_accepted"] += 1
        self._last_step_out = None

    def _advect(self, args, kwargs, out, span):
        seeds = out.seeds.size
        substeps = kwargs.get("substeps", args[2] if len(args) > 2 else 1)
        kind = "dense" if seeds > 1 else "single"
        self.counts[f"seed_steps.{kind}"] += seeds * (out.times.size - 1) * substeps
        self.counts[f"advect_s.{kind}"] += span[2] - span[1]

    def _written(self, args, kwargs, out, span):
        self.counts["bytes_written"] += os.path.getsize(args[0])


def install(tracer: Tracer, r2ch, sfft) -> None:
    """Wrap the call boundaries between the r2ch layers."""
    ev, ch, ce, cli, mo = (
        r2ch.evolution,
        r2ch.characteristics,
        r2ch.certificates,
        r2ch.cli,
        r2ch.model,
    )
    t = tracer
    t.wrap(sfft, "rfft", "spectral.fft", lambda *a: t._fft(*a, inverse=False))
    t.wrap(sfft, "irfft", "spectral.fft", lambda *a: t._fft(*a, inverse=True))
    t.wrap(ev, "run", "evolution.run", t._run)
    t.wrap(cli, "run_sim", "evolution.run", t._run)
    t.wrap(ev, "step", "evolution.step", t._step)
    # the Cash-Karp stage evaluation has no public name; wrapping it keeps
    # rhs_evals a measurement rather than 6 x steps
    t.wrap(ev, "_rhs_arrays", "evolution.rhs_eval")
    t.wrap(ev, "make_diagnostic_row", "evolution.diag_row")
    t.wrap(ev, "deriv", "evolution.deriv")
    t.wrap(ev, "eval_f", "spectral.eval_f")
    t.wrap(ch, "eval_f", "spectral.eval_f")
    t.wrap(ev, "estimate_T", "evolution.estimate_T")
    t.wrap(cli, "estimate_T", "evolution.estimate_T")
    t.wrap(ch, "advect", "characteristics.advect", t._advect)
    t.wrap(ch, "sample_along", "characteristics.sample_along")
    t.wrap(ch, "track_extremum", "characteristics.track_extremum")
    t.wrap(ch, "track_from_rows", "characteristics.track_from_rows")
    t.wrap(cli, "track_from_rows", "characteristics.track_from_rows")
    t.wrap(ch, "jacobian_consistency", "characteristics.checks")
    t.wrap(ch, "sup_transport_error", "characteristics.checks")
    for attr in ("build_certificate", "monitor_bounds", "rate_check"):
        t.wrap(ce, attr, f"certificates.{attr}")
    t.wrap(cli, "parse_config", "cli.parse_config")
    t.wrap(cli, "execute_run", "cli.execute_run")
    for attr in ("write_diagnostics_csv", "write_snapshot", "write_json"):
        t.wrap(cli, attr, f"cli.{attr}", t._written)
    t.wrap(cli, "read_diagnostics_csv", "cli.read_diagnostics_csv")
    t.wrap(mo, "synthesize", "model.synthesize")
    t.wrap(cli, "synthesize", "model.synthesize")


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced rounds: counts and ``_s`` times per
    round, ``_ms`` times per call (0 for a name the workload never calls).
    A metric that rests on a missing wrapped name is left out."""
    s = tracer.summary()
    c = tracer.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0) / rounds

    def secs(name):
        return s.get(name, {}).get("total_s", 0.0) / rounds

    def ms(name):
        n = s.get(name, {}).get("calls", 0)
        return 1e3 * s[name]["total_s"] / n if n else 0.0

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    steps = calls("evolution.step")
    accepted = c["steps_accepted"] / rounds
    stepping = ("evolution.step", "evolution.run")
    writers = ("cli.write_diagnostics_csv", "cli.write_snapshot", "cli.write_json")
    # metric: (value, unit, span names it rests on)
    table = {
        "evolution.step.calls": (steps, "count", stepping[:1]),
        "evolution.steps_accepted": (accepted, "count", stepping),
        "evolution.steps_rejected": (steps - accepted, "count", stepping),
        "evolution.rhs_evals": (calls("evolution.rhs_eval"), "count", ("evolution.rhs_eval",)),
        "evolution.accept_ratio": (accepted / steps if steps else 0.0, "ratio", stepping),
        "evolution.step_s": (secs("evolution.step"), "s", stepping[:1]),
        "evolution.diag_rows": (calls("evolution.diag_row"), "count", ("evolution.diag_row",)),
        "evolution.diag_row_s": (secs("evolution.diag_row"), "s", ("evolution.diag_row",)),
        "evolution.deriv.calls": (calls("evolution.deriv"), "count", ("evolution.deriv",)),
        "spectral.eval_f.calls": (calls("spectral.eval_f"), "count", ("spectral.eval_f",)),
        "spectral.eval_f_s": (secs("spectral.eval_f"), "s", ("spectral.eval_f",)),
        "spectral.fft.calls": (calls("spectral.fft"), "count", ("spectral.fft",)),
        "spectral.fft.points": (c["fft.points"] / rounds, "count", ("spectral.fft",)),
        "spectral.fft_flops_computed": (c["fft.flops"] / rounds, "flop", ("spectral.fft",)),
        "spectral.fft_s": (secs("spectral.fft"), "s", ("spectral.fft",)),
        "characteristics.advect_dense_s": (
            c["advect_s.dense"] / rounds, "s", ("characteristics.advect",)),
        "characteristics.advect_single_s": (
            c["advect_s.single"] / rounds, "s", ("characteristics.advect",)),
        "characteristics.seed_steps_per_s.dense": (
            rate(c["seed_steps.dense"], c["advect_s.dense"]), "1/s", ("characteristics.advect",)),
        "characteristics.seed_steps_per_s.single": (
            rate(c["seed_steps.single"], c["advect_s.single"]), "1/s", ("characteristics.advect",)),
        "characteristics.sample_along_s": (
            secs("characteristics.sample_along"), "s", ("characteristics.sample_along",)),
        "characteristics.track_extremum_s": (
            secs("characteristics.track_extremum"), "s", ("characteristics.track_extremum",)),
        "characteristics.checks_s": (
            secs("characteristics.checks"), "s", ("characteristics.checks",)),
        "certificates.build_certificate.calls": (
            calls("certificates.build_certificate"), "count", ("certificates.build_certificate",)),
        "certificates.build_certificate_ms": (
            ms("certificates.build_certificate"), "ms", ("certificates.build_certificate",)),
        "certificates.monitor_bounds_ms": (
            ms("certificates.monitor_bounds"), "ms", ("certificates.monitor_bounds",)),
        "certificates.rate_check_ms": (
            ms("certificates.rate_check"), "ms", ("certificates.rate_check",)),
        "cli.parse_config_ms": (ms("cli.parse_config"), "ms", ("cli.parse_config",)),
        "cli.execute_run_s": (secs("cli.execute_run"), "s", ("cli.execute_run",)),
        "cli.write_diagnostics_csv_s": (secs(writers[0]), "s", writers[:1]),
        "cli.write_snapshot.calls": (calls(writers[1]), "count", writers[1:2]),
        "cli.write_snapshot_s": (secs(writers[1]), "s", writers[1:2]),
        "cli.write_json_s": (secs(writers[2]), "s", writers[2:]),
        "cli.read_diagnostics_csv_s": (
            secs("cli.read_diagnostics_csv"), "s", ("cli.read_diagnostics_csv",)),
        "cli.bytes_written": (c["bytes_written"] / rounds, "bytes", writers),
    }
    return {
        name: (value, unit)
        for name, (value, unit, rests_on) in table.items()
        if not tracer.missing.intersection(rests_on)
    }
