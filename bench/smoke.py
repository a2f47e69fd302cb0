"""Smoke test of the benchmark itself: every workload at small size, traced and not.

    python3 bench/smoke.py

Takes well under a minute.  It is not part of the repository's test suite
(pytest collects `tests/` only).  Exits non-zero if a run fails, reports an
incorrect output, misses a metric of BENCHMARK.json, or fails operations
other than the malformed trades of chain_busy_market.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
# The malformed TRADE transactions of chain_busy_market are the only
# operations allowed to fail; a program that records them as rejections
# turns them into successes.
MAY_FAIL = {"chain_busy_market"}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            wanted = spec["per_layer" if trace else "end_to_end"]
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--scale", "smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{label}: incorrect output: {proc.stderr[-400:]}")
            missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
            if missing:
                problems.append(f"{label}: metrics missing: {missing}")
            if workload not in MAY_FAIL and result["failed"]:
                problems.append(f"{label}: {result['failed']} operations failed")
            print(f"{label}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"{len(result['metrics'])} metrics")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
