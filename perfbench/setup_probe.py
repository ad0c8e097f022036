"""Time one workload's set-up in a fresh interpreter: the import of r2ch, then
grid, initial data and certificate of every problem the workload runs.

    python3 perfbench/setup_probe.py ROOT WORKLOAD SEED

Prints one JSON line with ``import_s`` and ``setup_s`` (import included).
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path[:0] = [os.path.join(root, "src"), os.path.dirname(os.path.abspath(__file__))]
    t0 = time.perf_counter()
    import r2ch  # noqa: F401

    import_s = time.perf_counter() - t0
    import workloads  # the benchmark's own imports are not timed

    wl = workloads.WORKLOADS[workload](seed, None)
    problems = wl.problems()
    t1 = time.perf_counter()
    workloads.build(problems)
    setup_s = import_s + time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
