"""Self-check of the benchmark harness at minimal size.

Runs every workload with ``--tiny``, untraced and traced, on two seeds, and
fails unless each run exits 0, prints its result in the fixed form, passes
all of its output checks, fails no more operations than the known
deep-nesting inputs, and reports exactly the metrics BENCHMARK.json names.
It checks that the harness works, not its timings.

Usage, from the root of a checkout:  python3 bench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEEDS = (1, 7)

# At most the deep-nesting inputs may fail: two of the four operations of a
# tiny corpus round.  A run reports any other failure, or a deep input that
# fails with anything but RecursionError, as a failed check.
MAX_FAILED_SHARE = {"corpus": 2 / 4}


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    import run

    problems = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            names = list(run.metric_units("per_layer" if trace else "end_to_end"))
            for seed in SEEDS:
                cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                where = f"{workload} seed {seed} trace {trace}"
                if proc.returncode != 0:
                    problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{where}: result keys {sorted(result)}")
                    continue
                if result["correct"] is not True:
                    problems.append(f"{where}: output checks failed: {proc.stderr[-800:]}")
                share = result["failed"] / result["attempted"]
                if result["attempted"] < 1 or share > MAX_FAILED_SHARE.get(workload, 0):
                    problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
                if list(result["metrics"]) != names:
                    problems.append(f"{where}: metrics {sorted(set(result['metrics']) ^ set(names))}")
                for name, m in result["metrics"].items():
                    v = m["value"]
                    if not isinstance(v, (int, float)) or not math.isfinite(v):
                        problems.append(f"{where}: {name} = {v!r}")
                    elif not trace and v <= 0:
                        problems.append(f"{where}: end-to-end {name} = {v}")
                print(f"ok  {where}: {result['attempted']} attempted, {result['failed']} failed",
                      flush=True)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
