"""Chain workloads: bulk load, lifecycle or market blocks, export and verify.

One client in a closed loop: the next block is proposed only after the
previous `produce_block` returns.  Every round starts from the same
post-set-up chain and commits the same generated blocks, so each round is
the same work and a run attempts whole rounds only.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import json
import os
import random
import statistics
import time
from dataclasses import dataclass, field

from scholarchain import netchain
from scholarchain.lifecycle import ProtocolConfig, ProtocolState
from scholarchain.netchain import Chain, PeerSet, Transaction, TxKind, TxPool

import model as model_mod
import oracles
from clibench import cold_run
from model import APPLIED, Op
from oracles import Checks
from speed import Meter

clock = time.perf_counter
PEERS = ("p1", "p2", "p3", "p4")
RESERVE = 10**8
# Each round verifies its export this many times, and runs `scholarchain
# verify` on it in a fresh process COLD_REPEATS times: one replay is too
# short to time steadily.
VERIFY_REPEATS = 3
COLD_REPEATS = 3

# The workload calls the program through `netchain.<function>` so that a
# tracer's wrappers see the calls; the checks use these untraced references,
# taken before any tracer wraps the module attributes.
_state_hash = netchain.state_hash
_verify_export = netchain.verify_export

SIZES = {
    "chain_large_state": {
        "full": dict(users=2000, per_state=60, bulk=400, blocks=8, block_txs=30),
        "smoke": dict(users=60, per_state=8, bulk=100, blocks=4, block_txs=10),
    },
    "chain_busy_market": {
        "full": dict(users=40, articles=5, preload=1000, bulk=250, blocks=16, block_txs=40),
        "smoke": dict(users=12, articles=3, preload=40, bulk=20, blocks=4, block_txs=10),
    },
}


@dataclass
class PlannedBlock:
    txs: list  # Transaction objects
    expect: list  # predicted status per transaction
    faulty: tuple = ()
    failing_faulty: tuple = ()  # proposed first with these two faulty peers


@dataclass
class Plan:
    config: ProtocolConfig
    setup: list  # PlannedBlock list for the bulk load
    rounds: list  # PlannedBlock list committed each round
    model_after_setup: model_mod.Model
    model_after_round: model_mod.Model


def _chunks(ops: list[Op], size: int) -> list[list[Op]]:
    return [ops[start:start + size] for start in range(0, len(ops), size)]


def _to_blocks(chunks: list[list[Op]], first_id: int) -> tuple[list, int]:
    """Number the transactions of each chunk in order; one block per chunk."""
    blocks, tx_id = [], first_id
    for chunk in chunks:
        txs = [Transaction(tx_id + i, TxKind(op.kind), op.payload, op.submitter)
               for i, op in enumerate(chunk)]
        tx_id += len(chunk)
        blocks.append(PlannedBlock(txs, [op.expect for op in chunk]))
    return blocks, tx_id


def _config() -> ProtocolConfig:
    return ProtocolConfig(initial_reserve=RESERVE, market_liquidity=100.0, peers=PEERS)


def plan_large_state(seed: int, size: dict) -> Plan:
    """Thousands of accounts; articles in all four states; full lifecycle mix."""
    rng = random.Random(seed)
    users = [f"u{i:05d}" for i in range(size["users"])]
    m = model_mod.Model(users, PEERS)
    k = size["per_state"]
    steps: list[list[Op]] = [[m.credit(u, rng.randint(500, 1500)) for u in users]]
    hashes = []
    ops = []
    for i in range(4 * k):
        op, h = m.submit(users[i], f"bulk paper {i} {rng.getrandbits(32):08x}", "bulk")
        ops.append(op)
        hashes.append(h)
    steps.append(ops)
    active, review, published, retracted = (hashes[j * k:(j + 1) * k] for j in range(4))
    revised = active[: k // 2]  # one review round that ended in REVISE
    steps.append([m.comment(users[-1 - i], h, f"bulk{i:06d}") for i, h in enumerate(active)])
    panels = {h: rng.sample(users, 3) for h in hashes}
    steps.append([m.start_review(m.articles[h].owners[0], h, rng.randint(6, 20), panels[h])
                  for h in revised + review + published + retracted])
    trades = []
    for h in revised + review + published + retracted:
        for _ in range(2):
            shares = rng.randint(1, 8)
            trades.append(m.trade(model_mod._buyer(rng, m, h, shares), h,
                                  rng.choice(oracles.OUTCOMES), shares))
    steps.append(trades)
    steps.append(
        [m.conclude(h, {p: oracles.REVISE for p in panels[h]}) for h in revised]
        + [m.conclude(h, {p: oracles.PUBLISH for p in panels[h]})
           for h in published + retracted]
    )
    disputed = retracted + published[: k // 3]
    steps.append([m.object(users[-1 - i], h, rng.randint(1, 10))
                  for i, h in enumerate(disputed)])
    steps.append([m.resolve(f"{h[:16]}:d1", {p: model_mod.RETRACT for p in PEERS})
                  for h in retracted])
    steps.append([m.claim(users[i], f"external-claim-{seed}-{i}", f"10.1/{i}")
                  for i in range(k)])

    setup, tx_id = _to_blocks([c for step in steps for c in _chunks(step, size["bulk"])], 1)
    after_setup = m.copy()

    ops = [model_mod.lifecycle_op(rng, m, serial)
           for serial in range(size["blocks"] * size["block_txs"])]
    rounds, _ = _to_blocks(_chunks(ops, size["block_txs"]), tx_id)
    # Every third block runs with one faulty peer; two proposals per round
    # (one at smoke size) have two faulty peers, fail quorum and are re-proposed.
    failing = {len(rounds) // 4, (3 * len(rounds)) // 4}
    for i, block in enumerate(rounds):
        if i % 3 == 1:
            block.faulty = (rng.choice(PEERS),)
        if i in failing:
            block.failing_faulty = tuple(rng.sample(PEERS, 2))
    return Plan(_config(), setup, rounds, after_setup, m)


def plan_busy_market(seed: int, size: dict) -> Plan:
    """A few dozen users trading on a handful of open reviews."""
    rng = random.Random(seed)
    users = [f"u{i:05d}" for i in range(size["users"])]
    m = model_mod.Model(users, PEERS)
    steps = [[m.credit(u, 10**6 + rng.randint(0, 1000)) for u in users]]
    # Titles and authors do not depend on the seed, so the malformed trades
    # below are the same transactions on every seed.
    ops, hashes = [], []
    for i in range(size["articles"]):
        op, h = m.submit(users[i], f"busy market article {i}", "under review")
        ops.append(op)
        hashes.append(h)
    steps.append(ops)
    panels = {h: rng.sample(users, 3) for h in hashes}
    steps.append([m.start_review(users[i], h, 10, panels[h]) for i, h in enumerate(hashes)])
    steps.append([model_mod.market_op(rng, m, hashes) for _ in range(size["preload"])])

    setup, tx_id = _to_blocks([c for step in steps for c in _chunks(step, size["bulk"])], 1)
    after_setup = m.copy()

    ops = [model_mod.market_op(rng, m, hashes)
           for _ in range(size["blocks"] * size["block_txs"])]
    for _ in range(size["blocks"] // 8 or 1):
        ops.append(m.credit(rng.choice(users), 1000))
    chunks = _chunks(ops, size["block_txs"])
    chunks.append([m.conclude(hashes[0], {p: oracles.REVISE for p in panels[hashes[0]]})])
    chunks.append([m.start_review(users[0], hashes[0], 12, panels[hashes[0]])])
    # A TRADE whose shares are not a number, alone in its block; the model
    # expects a recorded rejection.  Two per round, at fixed places.
    bad = Op("TRADE", {"article": hashes[0], "outcome": "PUBLISH", "shares": "abc"},
             users[size["articles"]], model_mod.REJECTED)
    for place in (len(chunks) // 3, (2 * len(chunks)) // 3):
        chunks.insert(place, [bad])
    rounds, _ = _to_blocks(chunks, tx_id)
    return Plan(_config(), setup, rounds, after_setup, m)


PLANNERS = {"chain_large_state": plan_large_state, "chain_busy_market": plan_busy_market}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

@dataclass
class BlockLog:
    committed: int = 0  # records in committed blocks
    applied: int = 0
    approvals: list = field(default_factory=list)
    failed: int = 0  # transactions that never reached a committed block


def _untraced(tracer):
    return tracer.pause() if tracer else contextlib.nullcontext()


def commit_blocks(chain, blocks, peer_set, checks, log, meter, tracer=None) -> float:
    """Submit and produce each planned block; returns the seconds spent in the program."""
    spent = 0.0
    for block in blocks:
        meter.tick()
        pool = TxPool()
        t0 = clock()
        for tx in block.txs:
            netchain.submit_tx(pool, tx, chain)
        spent += clock() - t0
        if block.failing_faulty:
            with _untraced(tracer):
                tip_before = _state_hash(chain.tip)
            height = chain.height
            t0 = clock()
            result = netchain.produce_block(chain, pool, peer_set, block.failing_faulty)
            spent += clock() - t0
            checks.expect(not result.committed and chain.height == height,
                          "proposal with two faulty peers committed")
            with _untraced(tracer):
                checks.expect(_state_hash(chain.tip) == tip_before,
                              "failed quorum changed the tip digest")
            checks.expect([t.tx_id for t in pool.pending] == [t.tx_id for t in block.txs],
                          "failed quorum changed the pending pool")
        t0 = clock()
        try:
            result = netchain.produce_block(chain, pool, peer_set, block.faulty)
        except Exception:  # noqa: BLE001 - a block the program cannot produce
            spent += clock() - t0
            log.failed += len(pool.pending)
            continue
        spent += clock() - t0
        checks.expect(result.committed, f"block at height {chain.height} missed quorum")
        if not result.committed:
            log.failed += len(block.txs)
            continue
        records = result.block.txs
        log.committed += len(records)
        log.applied += sum(1 for r in records if r.status == APPLIED)
        log.approvals.append(len(result.approvals))
        checks.expect(len(result.approvals) == len(PEERS) - len(block.faulty),
                      "approvals do not match the honest peers")
        for record, expect in zip(records, block.expect):
            checks.expect(record.status == expect,
                          f"tx {record.tx.tx_id} {record.tx.kind.value} was "
                          f"{record.status} ({record.error}), model expects {expect}")
        checks.expect(chain.tip.ledger.platform_reserve >= 0, "reserve went negative")
    return spent


def copy_chain(chain: Chain) -> Chain:
    """Deep copy of the chain that shares the immutable committed blocks."""
    memo = {id(b): b for b in chain.blocks}
    memo[id(chain.genesis)] = chain.genesis
    return copy.deepcopy(chain, memo)


def check_state(state: ProtocolState, m: model_mod.Model, checks: Checks) -> None:
    """Compare the tip with the model and with properties of the method."""
    ledger = state.ledger.to_canonical()
    checks.expect(oracles.conservation_gap(ledger) == 0, "token conservation broken")
    checks.expect(ledger["platform_reserve"] >= 0, "reserve negative")
    checks.expect(ledger["minted_total"] == m.minted,
                  f"minted {ledger['minted_total']} but the model minted {m.minted}")
    checks.expect(set(state.articles) == set(m.articles), "article registry differs from model")
    for h, art in m.articles.items():
        real = state.articles.get(h)
        if real is None:
            continue
        checks.expect(real.state.value == art.state and list(real.owners) == art.owners
                      and real.author_deposit == art.deposit,
                      f"article {h[:12]} differs from the model")
    open_real = {d for d, v in state.disputes.items() if v.resolution is None}
    open_model = {d for d, v in m.disputes.items() if v["open"]}
    checks.expect(open_real == open_model, "open disputes differ from the model")
    for market_id, mm in m.markets.items():
        mkt = state.markets.get(market_id)
        if mkt is None:
            checks.expect(False, f"market {market_id} missing")
            continue
        checks.expect(all(mkt.outstanding[o] == mm.q[o] for o in oracles.OUTCOMES)
                      and mkt.resolved == mm.resolved,
                      f"market {market_id} differs from the model")
        trades = [e for e in mkt.events if "cost" in e]
        paid = sum(e["cost"] for e in trades)
        floor = oracles.lmsr_cost_dec(mm.q, mkt.b) - oracles.lmsr_cost_dec(
            {o: 0 for o in oracles.OUTCOMES}, mkt.b)
        # House-favourable rounding: every trade rounds up by less than one token.
        checks.expect(floor <= paid <= floor + len(trades),
                      f"market {market_id}: net paid {paid} vs C(q)-C(0) {floor:.6f}")


@dataclass
class Round:
    """One round's measured seconds and the speed scale of each window."""

    traced: bool
    write_s: float
    write_scale: float
    log: BlockLog
    export_s: float
    verify_s: float
    read_scale: float
    chain_txs: int
    export_bytes: int
    state: dict = field(default_factory=dict)  # state-size figures, traced rounds only
    cold: list = field(default_factory=list)  # (measured seconds, speed scale)


def set_up(plan: Plan, peer_set: PeerSet, checks: Checks, meter) -> tuple[Chain, float, float]:
    """Bulk-load the starting state through the chain.

    Returns the chain, the seconds spent in the program and the speed scale.
    """
    log = BlockLog()
    genesis = ProtocolState(plan.config)
    gc.collect()
    window = meter.mark()
    t0 = clock()
    chain = Chain(genesis)
    elapsed = clock() - t0
    elapsed += commit_blocks(chain, plan.setup, peer_set, checks, log, meter)
    scale = meter.scale(window)
    checks.expect(log.failed == 0, "bulk-load transactions failed")
    return chain, elapsed, scale


def state_layers(state: ProtocolState) -> dict:
    """Per-layer sizes of a state, in the units of BENCHMARK.json."""
    canonical = json.dumps(state.to_canonical(), sort_keys=True, separators=(",", ":"))
    return {
        "netchain.state_hash.state_kb": (len(canonical) / 1024, "KiB"),
        "lifecycle.articles": (len(state.articles), "count"),
        "ledger.accounts": (len(state.ledger.accounts), "count"),
        "market.events_held": (sum(len(m.events) for m in state.markets.values()), "count"),
    }


def play_round(start: Chain, plan: Plan, peer_set: PeerSet, checks: Checks, meter,
               chain_path: str, tracer=None, flip_rng=None) -> Round:
    """Commit the round's blocks on a copy of `start`, export and verify it.

    The export is written to `chain_path`.  Nothing of the round's chain is
    kept, so that memory does not grow with the number of rounds.
    """
    import tracer as tracer_mod

    work = copy_chain(start)
    log = BlockLog()
    if tracer:
        tracer_mod.install_program_spans(tracer)
    try:
        gc.collect()
        window = meter.mark()
        write_s = commit_blocks(work, plan.rounds, peer_set, checks, log, meter, tracer)
        write_scale = meter.scale(window)
        gc.collect()
        window = meter.mark()
        t0 = clock()
        text = netchain.export_chain(work.blocks)
        export_s = clock() - t0
        verify_s = 0.0
        for _ in range(VERIFY_REPEATS):
            meter.tick()
            genesis = ProtocolState(plan.config)
            t0 = clock()
            result = netchain.verify_export(text, genesis, peer_set)
            verify_s += clock() - t0
            checks.expect(result.ok, f"exported chain fails verification: {result.reason}")
        read_scale = meter.scale(window)
    finally:
        if tracer:
            tracer.uninstall()
    if flip_rng is not None:
        position = flip_rng.randrange(len(text))
        tampered = text[:position] + chr(ord(text[position]) ^ 1) + text[position + 1:]
        checks.expect(not _verify_export(tampered, ProtocolState(plan.config), peer_set).ok,
                      f"byte flip at {position} still verifies")
    check_state(work.tip, plan.model_after_round, checks)
    with open(chain_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return Round(bool(tracer), write_s, write_scale, log, export_s, verify_s, read_scale,
                 sum(len(b.txs) for b in work.blocks), len(text),
                 state_layers(work.tip) if tracer else {})


def round_layers(rounds: list[Round]) -> dict:
    """Per-layer counts the chain workloads take from their own traced rounds."""
    committed = sum(r.log.committed for r in rounds)
    approvals = [a for r in rounds for a in r.log.approvals]
    return {
        **rounds[-1].state,
        "netchain.produce_block.applied_ratio": (
            sum(r.log.applied for r in rounds) / committed, "ratio"),
        "netchain.produce_block.approvals_per_block": (sum(approvals) / len(approvals), "count"),
        "netchain.export_chain.bytes_per_tx": (rounds[-1].export_bytes / rounds[-1].chain_txs, "B"),
    }


def run(workload, seed, seconds, trace, root, out_dir, scale="full"):
    """Run one chain workload; returns the result dict printed by run.py."""
    import tracer as tracer_mod

    plan = PLANNERS[workload](seed, SIZES[workload][scale])
    peer_set = PeerSet(PEERS)
    checks = Checks()
    meter = Meter()
    setups = []  # (measured seconds, speed scale)
    for _ in range(3):
        chain, elapsed, speed = set_up(plan, peer_set, checks, meter)
        setups.append((elapsed, speed))
    check_state(chain.tip, plan.model_after_setup, checks)

    genesis_path = os.path.join(out_dir, f"{workload}_genesis.json")
    chain_path = os.path.join(out_dir, f"{workload}_chain.jsonl")
    with open(genesis_path, "w", encoding="utf-8") as handle:
        json.dump({"config": plan.config.to_canonical()}, handle)

    tracer = tracer_mod.Tracer() if trace else None
    flip_rng = random.Random(seed * 7919 + 1)
    rounds: list[Round] = []
    attempted = failed = 0
    started = clock()
    while not rounds or clock() - started < seconds or (trace and len(rounds) < 2):
        # A traced run alternates untraced and traced rounds.
        traced = tracer if trace and len(rounds) % 2 == 1 else None
        played = play_round(chain, plan, peer_set, checks, meter, chain_path, traced, flip_rng)
        attempted += sum(len(b.txs) for b in plan.rounds)
        failed += played.log.failed
        window = meter.mark()
        cold = []
        for _ in range(COLD_REPEATS):
            meter.tick()
            cold_s, code, stdout = cold_run(root, ["verify", chain_path, "--genesis", genesis_path])
            cold.append(cold_s)
            checks.expect(code == 0 and stdout.startswith("OK:"),
                          "scholarchain verify of the exported chain did not print OK")
        speed = meter.scale(window)
        played.cold = [(cold_s, speed) for cold_s in cold]
        rounds.append(played)

    untraced = [r for r in rounds if not r.traced]

    def figures(scaled: bool) -> dict:
        def s(seconds, speed):
            return seconds * speed if scaled else seconds

        med = statistics.median
        return {
            "setup_s": (med(s(t, k) for t, k in setups), "s"),
            "commit_tx_per_s": (
                med(r.log.committed / s(r.write_s, r.write_scale) for r in untraced), "1/s"),
            "verify_tx_per_s": (med(
                VERIFY_REPEATS * r.chain_txs / s(r.verify_s, r.read_scale) for r in untraced),
                "1/s"),
            "cli_cold_ms_p50": (
                med(s(t, k) for r in untraced for t, k in r.cold) * 1e3, "ms"),
            "scenario_runs_per_s": (med(
                1 / (s(r.write_s, r.write_scale)
                     + s(r.export_s + r.verify_s / VERIFY_REPEATS, r.read_scale))
                for r in untraced), "1/s"),
        }

    layers = {}
    if tracer:
        traced_rounds = [r for r in rounds if r.traced]
        layers = {**tracer_mod.layer_metrics(tracer), **round_layers(traced_rounds)}

        def rate(rs):
            return statistics.median(r.log.committed / (r.write_s * r.write_scale) for r in rs)

        layers["trace.overhead_ratio"] = (rate(untraced) / rate(traced_rounds), "ratio")
        tracer.write(os.path.join(out_dir, f"{workload}-seed{seed}.spans.jsonl"))
    return {
        "correct": not checks.failures,
        "failures": checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": figures(scaled=True),
        "measured": figures(scaled=False),
        "layers": layers,
    }


def probe(seed: int, out_dir: str) -> tuple[dict, list]:
    """One traced smoke-size lifecycle round, for layers a workload does not reach.

    Returns its per-layer metrics and its failed checks.
    """
    import tracer as tracer_mod

    plan = plan_large_state(seed, SIZES["chain_large_state"]["smoke"])
    peer_set = PeerSet(PEERS)
    checks = Checks()
    meter = Meter()
    tracer = tracer_mod.Tracer()
    chain, _, _ = set_up(plan, peer_set, checks, meter)
    check_state(chain.tip, plan.model_after_setup, checks)
    played = play_round(chain, plan, peer_set, checks, meter,
                        os.path.join(out_dir, "probe_chain.jsonl"), tracer)
    return {**tracer_mod.layer_metrics(tracer), **round_layers([played])}, checks.failures
