"""CLI workload: the eight bundled scenarios and `verify` of three chains.

Each round runs every command once in a fresh `python -m scholarchain`
process, one process at a time, then repeatedly in-process through
`cli.main`.  Outputs are checked against computations made apart from the
program, and the warm outputs must equal the cold ones byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import oracles
from oracles import Checks
from speed import Meter

clock = time.perf_counter

SCENARIOS = (
    ("analyze", "table3"),
    ("analyze", "table4"),
    ("sweep", "delta_sweep"),
    ("sweep", "population"),
    ("protocol", "protocol_publish"),
    ("protocol", "protocol_revise"),
    ("protocol", "protocol_retract"),
    ("market", "market_demo"),
)
PROTOCOLS = ("protocol_publish", "protocol_revise", "protocol_retract")
WARM_REPEATS = {"full": 40, "smoke": 2}
# A fresh-process import is short and varies with the file system: take the median of many.
IMPORT_SAMPLES = 21


def commands(seed: int, out: str) -> list[tuple[str, list[str]]]:
    cmds = [(name, ["--seed", str(seed), "--out-dir", out, verb, f"{name}.json"])
            for verb, name in SCENARIOS]
    cmds += [(f"verify:{name}", ["verify", os.path.join(out, f"{name}_chain.jsonl")])
             for name in PROTOCOLS]
    return cmds


def child_env(root: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def cold_run(root: str, argv: list[str]) -> tuple[float, int, str]:
    """`python -m scholarchain <argv>` in a fresh process: (seconds, exit code, stdout)."""
    t0 = clock()
    proc = subprocess.run([sys.executable, "-m", "scholarchain", *argv], cwd=root,
                          env=child_env(root), capture_output=True, text=True, timeout=120)
    return clock() - t0, proc.returncode, proc.stdout


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import scholarchain.cli; "
    "print(time.perf_counter() - t)"
)


def import_seconds(root: str) -> float:
    """In-process import time of scholarchain.cli, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                          env=child_env(root), capture_output=True, text=True,
                          timeout=60, check=True)
    return float(proc.stdout.strip())


def interpreter_seconds(root: str) -> float:
    t0 = clock()
    subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=child_env(root),
                   timeout=60, check=True)
    return clock() - t0


def start_up_layers(root: str, import_s: list[float]) -> dict:
    """The start-up floors: a bare interpreter, and the import of scholarchain.cli."""
    med = statistics.median
    return {
        "cli.interpreter_ms": (med(interpreter_seconds(root) for _ in range(5)) * 1e3, "ms"),
        "cli.import_ms": (med(import_s) * 1e3, "ms"),
    }


# ---------------------------------------------------------------------------
# Checks of each scenario's outputs
# ---------------------------------------------------------------------------

def _spec(root: str, name: str) -> dict:
    path = os.path.join(root, "src", "scholarchain", "scenarios", f"{name}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _read(out: str, filename: str) -> str:
    with open(os.path.join(out, filename), encoding="utf-8") as handle:
        return handle.read()


def _rows(out: str, filename: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(_read(out, filename))))


def check_analysis(spec, out, expect):
    rows = _rows(out, f"{spec['output']}_analysis.csv")
    cells = oracles.publication_cells(spec["game"])
    got = {(r["row_action"], r["col_action"]): (Fraction(r["row_value"]), Fraction(r["col_value"]))
           for r in rows if r["record"] == "payoff"}
    expect(got == cells, f"{spec['output']}: payoff cells differ from P*R - e*[hype]")
    pure = sorted((r["row_action"], r["col_action"]) for r in rows
                  if r["record"] == "pure_equilibrium")
    expect(pure == sorted(oracles.pure_equilibria(cells)),
           f"{spec['output']}: pure equilibria differ from best-response enumeration")


def check_sweep(spec, out, expect):
    rows = _rows(out, f"{spec['output']}_sweep.csv")
    benefit, effort = Fraction(spec["game"]["B"]), Fraction(spec["game"]["e"])
    grid = spec["delta_grid"]
    start, stop, step = (Fraction(grid[k]) for k in ("start", "stop", "step"))
    inside = [start + i * step for i in range(int((stop - start) / step) + 1)]
    inside = [d for d in inside if 0 < d < 1]
    expect(len(rows) == len(inside), f"sweep has {len(rows)} rows, grid has {len(inside)}")
    for row, delta in zip(rows, inside):
        d = float(row["delta"])
        expect(d == float(delta), f"sweep delta {d} off the grid")
        expect(abs(float(row["cooperate_payoff"]) - float(benefit - effort)) <= 1e-12,
               f"sweep cooperate payoff at {d}")
        expect(abs(float(row["defect_payoff"]) - float(benefit) * (1 - d)) <= 1e-12,
               f"sweep defect payoff at {d}")
        expect((row["sustained"] == "true") == (delta >= effort / benefit),
               f"sweep sustained flag at {d}")


def check_population(spec, out, expect, seed):
    rows = _rows(out, f"{spec['output']}_population.csv")
    players = spec["size"] - spec["size"] % 2
    expect(len(rows) == players * spec["horizon"], "population row count")
    summary = json.loads(_read(out, f"{spec['output']}_summary.json"))
    expect(summary["seed"] == seed, "population summary does not carry the scenario seed")


def check_protocol(spec, out, expect):
    prefix = spec["output"]
    panel_votes = spec["votes"]
    if oracles.majority(panel_votes, "PUBLISH", len(spec["panel"])):
        state = "PUBLISHED"
        objection = spec.get("objection")
        if objection and oracles.majority(objection["peer_votes"], "retract", len(spec["peers"])):
            state = "RETRACTED"
    elif oracles.majority(panel_votes, "REVISE", len(spec["panel"])):
        state = "ACTIVE"
    else:
        state = "UNDER_REVIEW"
    summary = json.loads(_read(out, f"{prefix}_summary.json"))
    expect(summary["final_article_state"] == state,
           f"{prefix}: final state {summary['final_article_state']}, votes give {state}")
    registry = json.loads(_read(out, f"{prefix}_registry.json"))
    expect([a["state"] for a in registry] == [state], f"{prefix}: registry state")
    ledger = json.loads(_read(out, f"{prefix}_ledger.json"))
    expect(oracles.conservation_gap(ledger) == 0, f"{prefix}: ledger does not conserve tokens")


def check_market(spec, out, expect):
    prefix = spec["output"]
    b = spec["b"]
    summary = json.loads(_read(out, f"{prefix}_summary.json"))
    q = {o: 0 for o in oracles.OUTCOMES}
    holdings = {}
    balances = dict(spec["traders"])
    costs = summary["token_costs"]
    expect(len(costs) == len(spec["trades"]), f"{prefix}: trade count")
    for trade, row in zip(spec["trades"], costs):
        before = oracles.lmsr_cost_dec(q, b)
        q[trade["outcome"]] += trade["shares"]
        cost = oracles.ceil_int(oracles.lmsr_cost_dec(q, b) - before)
        expect(row["cost"] == cost, f"{prefix}: trade cost {row['cost']}, LMSR gives {cost}")
        key = (trade["user"], trade["outcome"])
        holdings[key] = holdings.get(key, 0) + trade["shares"]
        balances[trade["user"]] -= cost
    payouts = {r["user"]: int(r["tokens"]) for r in _rows(out, f"{prefix}_payouts.csv")}
    want = {u: oracles.floor_int(s) for (u, o), s in holdings.items()
            if o == spec["resolve"] and oracles.floor_int(s) > 0}
    expect(payouts == want, f"{prefix}: payouts {payouts}, floor(shares) gives {want}")
    for user, amount in want.items():
        balances[user] += amount
    expect(summary["final_balances"] == balances, f"{prefix}: final balances")


def check_outputs(root: str, out: str, seed: int, expect) -> None:
    for verb, name in SCENARIOS:
        spec = _spec(root, name)
        if verb == "analyze":
            check_analysis(spec, out, expect)
        elif name == "delta_sweep":
            check_sweep(spec, out, expect)
        elif verb == "sweep":
            check_population(spec, out, expect, seed)
        elif verb == "protocol":
            check_protocol(spec, out, expect)
        else:
            check_market(spec, out, expect)


def same_files(a: str, b: str) -> bool:
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def chain_txs(out: str, name: str) -> int:
    text = _read(out, f"{name}_chain.jsonl")
    return sum(len(json.loads(line)["txs"]) for line in text.splitlines() if line)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def warm_pass(cli, cmds, repeats, tracer, expect, meter):
    """Run every command `repeats` times in-process; returns times and exit codes."""
    warm = protocol = verify = 0.0
    codes = []
    for _ in range(repeats):
        for name, argv in cmds:
            meter.tick()
            sink = io.StringIO()
            is_verify = name.startswith("verify:")
            with contextlib.redirect_stdout(sink):
                t0 = clock()
                if tracer and is_verify:
                    with tracer.span("cli.verify"):
                        code = cli.main(argv)
                else:
                    code = cli.main(argv)
                elapsed = clock() - t0
            codes.append(code)
            warm += elapsed
            if name in PROTOCOLS:
                protocol += elapsed
            elif is_verify:
                verify += elapsed
                expect(sink.getvalue().startswith("OK:"), f"warm {name} did not print OK")
    return warm, protocol, verify, codes


def _fresh_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    for name in os.listdir(path):
        os.remove(os.path.join(path, name))
    return path


def probe(seed: int, root: str, out_dir: str) -> tuple[dict, list]:
    """One traced in-process pass over every command, plus the start-up floors.

    For layers a workload does not reach; returns its per-layer metrics and
    its failed checks.
    """
    import tracer as tracer_mod
    from scholarchain import cli

    checks = Checks()
    tracer = tracer_mod.Tracer()
    probe_dir = _fresh_dir(os.path.join(out_dir, "probe"))
    cmds = commands(seed, probe_dir)
    tracer_mod.install_program_spans(tracer)
    try:
        _, _, _, codes = warm_pass(cli, cmds, 1, tracer, checks.expect, Meter())
    finally:
        tracer.uninstall()
    checks.expect(not any(codes), "a probe command exited nonzero")
    check_outputs(root, probe_dir, seed, checks.expect)
    layers = {**tracer_mod.layer_metrics(tracer),
              **start_up_layers(root, [import_seconds(root) for _ in range(5)])}
    return layers, checks.failures


def run(workload, seed, seconds, trace, root, out_dir, scale="full"):
    from scholarchain import cli

    checks = Checks()
    expect = checks.expect
    meter = Meter()

    def scaled(measures):
        """Run each measurement in one speed window; returns (result, scale) pairs."""
        window = meter.mark()
        results = []
        for measure in measures:
            meter.tick()
            results.append(measure())
        speed = meter.scale(window)
        return [(result, speed) for result in results]

    setups = scaled([functools.partial(import_seconds, root)] * IMPORT_SAMPLES)

    cold_dir = _fresh_dir(os.path.join(out_dir, "cli_cold"))
    warm_dir = _fresh_dir(os.path.join(out_dir, "cli_warm"))
    cold_cmds = commands(seed, cold_dir)
    warm_cmds = commands(seed, warm_dir)
    repeats = WARM_REPEATS[scale]

    tracer = None
    if trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()

    cold_samples = []  # (measured seconds, speed scale)
    rounds = []  # (traced, warm_s, protocol_s, verify_s, protocol_txs, speed scale)
    attempted = failed = 0
    started = clock()
    while not rounds or clock() - started < seconds or (trace and len(rounds) < 2):
        traced = bool(tracer) and len(rounds) % 2 == 1
        cold = scaled([functools.partial(cold_run, root, argv) for _, argv in cold_cmds])
        for (name, _), ((elapsed, code, stdout), speed) in zip(cold_cmds, cold):
            attempted += 1
            failed += code != 0
            cold_samples.append((elapsed, speed))
            if name.startswith("verify:"):
                expect(stdout.startswith("OK:"), f"cold {name} did not print OK")
        check_outputs(root, cold_dir, seed, expect)
        txs = sum(chain_txs(cold_dir, name) for name in PROTOCOLS)

        if traced:
            tracer_mod.install_program_spans(tracer)
        try:
            gc.collect()
            window = meter.mark()
            warm, protocol, verify, codes = warm_pass(
                cli, warm_cmds, repeats, tracer if traced else None, expect, meter)
            speed = meter.scale(window)
        finally:
            if traced:
                tracer.uninstall()
        attempted += len(codes)
        failed += sum(code != 0 for code in codes)
        expect(same_files(cold_dir, warm_dir), "warm outputs differ from cold outputs")
        rounds.append((traced, warm, protocol, verify, txs, speed))

    untraced = [r for r in rounds if not r[0]]
    per_round = repeats * len(warm_cmds)

    def figures(scaled: bool) -> dict:
        def k(speed):
            return speed if scaled else 1.0

        med = statistics.median
        return {
            "setup_s": (med(t * k(speed) for t, speed in setups), "s"),
            "commit_tx_per_s": (med(r[4] * repeats / (r[2] * k(r[5])) for r in untraced), "1/s"),
            "verify_tx_per_s": (med(r[4] * repeats / (r[3] * k(r[5])) for r in untraced), "1/s"),
            "cli_cold_ms_p50": (med(t * k(speed) for t, speed in cold_samples) * 1e3, "ms"),
            "scenario_runs_per_s": (med(per_round / (r[1] * k(r[5])) for r in untraced), "1/s"),
        }

    layers = {}
    if tracer:
        traced_rounds = [r for r in rounds if r[0]]
        layers = {**tracer_mod.layer_metrics(tracer),
                  **start_up_layers(root, [t for t, _ in setups])}

        def rate(rs):
            return statistics.median(per_round / (r[1] * r[5]) for r in rs)

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
