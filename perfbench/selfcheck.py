"""Quick check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload for the shortest run (two rounds) with tracing off and
on, and checks that each run exits 0, passes its output checks and reports
exactly the metrics and units that BENCHMARK.json names.  Runs the traced
breaking workload twice and checks that its counts repeat exactly.  Finally
checks that the benchmark refuses to run in a directory without the program.
Takes a few minutes; exits 1 on the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNTS = ("evolution.step.calls", "evolution.steps_accepted", "evolution.rhs_evals",
          "evolution.diag_rows", "spectral.fft.calls", "spectral.fft.points",
          "certificates.build_certificate.calls", "cli.bytes_written")


def run(workload, trace, seed=7, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def fail(msg):
    print(f"FAIL {msg}")
    sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    traced_counts = []
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = run(w, trace)
            if proc.returncode != 0:
                fail(f"{w} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w} trace {trace}: result keys {sorted(result)}")
            if not result["correct"]:
                fail(f"{w} trace {trace}: output checks failed\n{proc.stderr}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                fail(f"{w} trace {trace}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(got) ^ set(expected[trace]))}")
            if trace == 0 and any(v["value"] <= 0 for v in result["metrics"].values()):
                fail(f"{w}: an end-to-end metric is not positive")
            print(f"ok   {w} trace {trace}: attempted {result['attempted']} "
                  f"failed {result['failed']}")
            if trace and w == "breaking_n16k":
                traced_counts.append({k: result["metrics"][k]["value"] for k in COUNTS})
    again = json.loads(run("breaking_n16k", 1).stdout.strip().splitlines()[-1])
    if {k: again["metrics"][k]["value"] for k in COUNTS} != traced_counts[0]:
        fail("traced counts differ between two runs of breaking_n16k")
    print("ok   traced counts repeat")

    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("breaking_n16k", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("benchmark ran without the program's sources")
    print("ok   refuses to run without src/")


if __name__ == "__main__":
    main()
