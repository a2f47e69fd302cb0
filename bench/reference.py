"""Reference figures recorded in bench/README.md.

    python3 bench/reference.py

Prints one JSON object (and writes .bench_out/reference.json) with:

* machine information;
* `produce_block` cost per transaction at 100, 1000 and 5000 users, with
  the least-squares slope against canonical state size;
* cold wall time of the three protocol scenarios in one `scholarchain
  protocol` invocation, with and without `--parallel`.

Takes well under a minute.  Timings are measured, not speed-scaled; the median
reference-task time of bench/speed.py is printed beside them.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from scholarchain import netchain  # noqa: E402
from scholarchain.lifecycle import ProtocolConfig, ProtocolState  # noqa: E402
from scholarchain.netchain import Chain, PeerSet, Transaction, TxKind, TxPool  # noqa: E402

import clibench  # noqa: E402
import speed  # noqa: E402

clock = time.perf_counter
PEERS = PeerSet(("p1", "p2", "p3", "p4"))
USER_COUNTS = (100, 1000, 5000)
BLOCKS, BLOCK_TXS = 10, 20


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
    }


def commit(chain: Chain, txs: list) -> float:
    pool = TxPool()
    for tx in txs:
        netchain.submit_tx(pool, tx, chain)
    t0 = clock()
    result = netchain.produce_block(chain, pool, PEERS)
    elapsed = clock() - t0
    if not result.committed:
        raise RuntimeError("reference block missed quorum")
    return elapsed


def block_cost(users: int) -> dict:
    """Per-transaction produce_block time for SUBMIT_ARTICLE blocks."""
    chain = Chain(ProtocolState(ProtocolConfig(initial_reserve=10**6, peers=PEERS.peers)))
    tx_id = 1
    names = [f"u{i:05d}" for i in range(users)]
    for start in range(0, users, 500):
        txs = []
        for user in names[start:start + 500]:
            txs.append(Transaction(tx_id, TxKind.CREDIT, {"user": user, "amount": 100},
                                   "platform"))
            tx_id += 1
        commit(chain, txs)
    seconds = 0.0
    for b in range(BLOCKS):
        txs = []
        for i in range(BLOCK_TXS):
            user = names[(b * BLOCK_TXS + i) % users]
            payload = {"title": f"scaling paper {b}-{i}", "abstract": "",
                       "authors": [["A", user]]}
            txs.append(Transaction(tx_id, TxKind.SUBMIT_ARTICLE, payload, user))
            tx_id += 1
        seconds += commit(chain, txs)
    canonical = json.dumps(chain.tip.to_canonical(), sort_keys=True, separators=(",", ":"))
    return {"users": users, "state_kb": round(len(canonical) / 1024, 1),
            "ms_per_tx": round(seconds / (BLOCKS * BLOCK_TXS) * 1e3, 3)}


def slope(xs, ys) -> float:
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def protocol_cold(parallel: bool) -> float:
    out = os.path.join(ROOT, ".bench_out", "reference_parallel" if parallel else "reference")
    argv = ["--out-dir", out, *(["--parallel"] if parallel else []),
            "protocol", "protocol_publish.json", "protocol_revise.json", "protocol_retract.json"]
    seconds, code, _ = clibench.cold_run(ROOT, argv)
    if code != 0:
        raise RuntimeError(f"scholarchain protocol exited {code}")
    return seconds


def main() -> int:
    reference_ms = statistics.median(speed.reference_task() for _ in range(50)) * 1e3
    points = [block_cost(n) for n in USER_COUNTS]
    sequential, parallel = [], []
    for i in range(10):  # alternate which side runs first
        for flag in ((False, True) if i % 2 == 0 else (True, False)):
            (parallel if flag else sequential).append(protocol_cold(flag))
    report = {
        "machine": machine(),
        "reference_task_ms": round(reference_ms, 2),
        "produce_block": points,
        "produce_block_slope_us_per_tx_per_kb": round(
            slope([p["state_kb"] for p in points], [p["ms_per_tx"] for p in points]) * 1e3, 3),
        "produce_block_slope_ms_per_tx_per_1000_users": round(
            slope(USER_COUNTS, [p["ms_per_tx"] for p in points]) * 1e3, 3),
        "protocol_cold_ms_p50": {
            "sequential": round(statistics.median(sequential) * 1e3, 1),
            "parallel": round(statistics.median(parallel) * 1e3, 1),
        },
    }
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
