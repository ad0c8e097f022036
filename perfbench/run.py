"""Run one workload of the r2ch benchmark and print its metrics.

    python3 perfbench/run.py --workload breaking_n16k --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; r2ch is imported from ./src.  The
workload repeats whole rounds of the same operations until --seconds have
passed (at least two rounds) and checks every round's outputs.  It prints a
table, then as its last line one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"
TRACES = ROOT / ".perfbench-traces"
SETUP_REPEATS = 3
MIN_ROUNDS = 2
# one compute thread: the machine has two cores and other processes share it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def probe_setup(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def micro_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "r2ch" / "__init__.py").is_file():
        print(f"error: no r2ch package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import r2ch
    from scipy import fft as sfft

    import spans
    import workloads

    if not Path(r2ch.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: r2ch imported from {r2ch.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(out_dir))
    wl.prepare(workloads.build(wl.problems()))

    tracer = spans.Tracer() if args.trace else None
    steps: dict[str, list[float]] = {}  # seconds of each step, one per round
    solve_steps: set[str] = set()
    totals, untraced, problems = [], [], []
    rounds = failed = 0
    # --seconds of timed rounds; stop before a round that would overrun, so a
    # run lasts about as long whatever the round length
    measured = 0.0
    while rounds < MIN_ROUNDS or measured + statistics.median(totals) <= args.seconds:
        # the traced run alternates untraced and traced rounds, for
        # trace.overhead_s
        traced = tracer is not None and rounds % 2 == 1
        clock = workloads.Clock(tracer if traced else None)
        if traced:
            spans.install(tracer, r2ch, sfft)
            root = tracer.open("round")
        try:
            wl.round(clock)
        finally:
            if traced:
                tracer.close(root)
                tracer.uninstall()
        bad, n_failed = wl.check()
        problems += [f"round {rounds}: {b}" for b in bad]
        failed += n_failed
        rounds += 1
        round_s = sum(sec for _, sec, _ in clock.steps)
        measured += round_s
        if tracer is not None and not traced:
            untraced.append(round_s)
            continue
        totals.append(round_s)
        for name, sec, solve in clock.steps:
            steps.setdefault(name, []).append(sec)
            if solve:
                solve_steps.add(name)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(out_dir, ignore_errors=True)
    # a round's time on an undisturbed machine: the fastest run of each step
    fastest = {name: min(secs) for name, secs in steps.items()}

    if tracer is None:
        metrics = {
            "round_s": (sum(fastest.values()), "s", len(totals)),
            "solve_s": (sum(fastest[n] for n in solve_steps), "s", len(totals)),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s", len(setups)),
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
        }
    else:
        traced_rounds = len(totals)
        metrics = {
            name: (value, unit, traced_rounds)
            for name, (value, unit) in spans.layer_metrics(tracer, traced_rounds).items()
        }
        smooth = workloads.build(workloads.LagrangianDense(args.seed, None).problems())[0]
        steep = workloads.build(workloads.BreakingN16k(args.seed, None).problems())[0]
        for label, (params, grid, state0, _) in (("n4096", smooth), ("n16384", steep)):
            metrics[f"evolution.rhs_ms.{label}"] = (
                micro_ms(lambda: r2ch.evolution.rhs(state0, params, grid), 21), "ms", 21)
        specs = wl.problems()
        grids = [r2ch.model.build_grid(L, n) for _, L, n, _ in specs]
        metrics["model.synthesize_ms"] = (
            micro_ms(lambda: [r2ch.model.synthesize(s[3], g) for s, g in zip(specs, grids)], 5)
            / len(specs), "ms", 5)
        metrics["setup.import_s"] = (
            statistics.median(s["import_s"] for s in setups), "s", len(setups))
        metrics["trace.overhead_s"] = (
            statistics.median(totals) - statistics.median(untraced), "s", traced_rounds)
        trace_path = TRACES / f"{args.workload}-seed{args.seed}.json.gz"
        tracer.write(str(trace_path))
        if tracer.missing:
            print("missing wrapped names, their metrics are not reported: "
                  + ", ".join(sorted(tracer.missing)), file=sys.stderr)
        print(f"spans written to {trace_path.relative_to(ROOT)}")

    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = rounds * wl.OPS_PER_ROUND
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"attempted {attempted}  failed {failed}  correct {not problems}")
    for name, secs in steps.items():
        print(f"  step {name:20s} fastest {min(secs):9.4f} s  median "
              f"{statistics.median(secs):9.4f} s  samples {len(secs)}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:42s} {value:16.6g} {unit:6s} samples {samples}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
