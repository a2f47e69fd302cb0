"""Benchmark entry point: one workload, one seed, one line of JSON results.

    python3 bench/run.py --workload chain_large_state --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  The workload runs in a child process of its own, so that its peak
memory is its own.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json under `--trace 0` and the
per-layer metrics under `--trace 1`.  `--scale smoke` runs a small version
of every workload in a few seconds (see bench/smoke.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("chain_large_state", "chain_busy_market", "cli_scenarios")
CHILD_TIMEOUT_S = 170


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def metric_names(trace: int) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def child(args) -> int:
    # One core for the workload and the processes it starts, so that the
    # speed meter samples the core that runs the fresh CLI processes too.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "cli_scenarios":
        import clibench as workload
    else:
        import chain as workload
    result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace),
                          ROOT, OUT, args.scale)
    metrics = dict(result["metrics"])
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss / 1024, "MB")
    if args.trace:
        # A workload does not reach every layer: the chain workloads run no
        # CLI scenario, and cli_scenarios holds no large chain state.  Each
        # layer it misses is taken from a short traced probe with a tracer of
        # its own: the chain probe first, then the CLI probe.  The probes'
        # checks count toward `correct`.
        import chain
        import clibench

        metrics = dict(result["layers"])
        for label, (layers, failures) in (
            ("chain probe", chain.probe(args.seed, OUT)),
            ("CLI probe", clibench.probe(args.seed, ROOT, OUT)),
        ):
            taken = sorted(name for name in layers if name not in metrics)
            metrics.update((name, layers[name]) for name in taken)
            result["failures"] += [f"{label}: {failure}" for failure in failures]
            print(f"from the {label}: {' '.join(taken) or 'nothing'}", file=sys.stderr)
        result["correct"] = result["correct"] and not result["failures"]
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    if not args.trace:
        measured = {name: round(value, 6) for name, (value, _) in result["measured"].items()}
        print(f"measured before speed scaling: {json.dumps(measured)}", file=sys.stderr)
    names = metric_names(args.trace)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names if name in metrics},
    }))
    return 0


def main(argv=None) -> int:
    args = parse(argv)
    if args.child:
        return child(args)
    if not os.path.isfile(os.path.join(ROOT, "src", "scholarchain", "__init__.py")):
        print("error: run from a source checkout; src/scholarchain is missing",
              file=sys.stderr)
        return 2
    cmd = [sys.executable, os.path.abspath(__file__), *(argv or sys.argv[1:]), "--child"]
    # A process group of its own, so that a timeout stops the workload's children too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("error: workload did not finish in time", file=sys.stderr)
        return 3
    sys.stdout.write(stdout)
    return proc.returncode


if __name__ == "__main__":
    raise SystemExit(main())
