"""Scenario runner: reproduce the analyses and drive protocol lifecycles.

Verbs:

    analyze  <scenario.json>   one-shot game: matrix, equilibria, dominance
    sweep    <scenario.json>   discount-factor sweep or population run
    protocol <scenario.json>   full article lifecycle on the chain
    market   <scenario.json>   standalone review-market session
    verify   <chain.jsonl>     replay an exported chain and check integrity

Scenario files are JSON with a `kind` discriminator and a mandatory `seed`;
rationals are written as "p/q" strings.  A scenario plus its seed fully
determines every output byte: all results are computed first and written
only when the whole run has succeeded, so failures leave no partial files.
Outputs are plain CSV/JSON for external plotting.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Mapping, Optional

# Only the renderers that use it import the game-theory layer.
from . import market as market_mod
from . import netchain
from .errors import LedgerError, LifecycleError, ProtocolError
from .ledger import TokenLedger
from .lifecycle import ProtocolConfig, ProtocolState
from .netchain import (
    PLATFORM,
    Chain,
    PeerSet,
    Transaction,
    TxKind,
    TxPool,
    produce_block,
    state_hash,
    submit_tx,
    verify_export,
)

class ScenarioError(Exception):
    """Scenario file failed to parse or validate; message names the field."""


def _require(scenario: Mapping, field: str, kind=""):
    if field not in scenario:
        where = f" in {kind} scenario" if kind else ""
        raise ScenarioError(f"field {field!r}: required{where}")
    return scenario[field]


def load_scenario(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    try:
        scenario = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(scenario, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    kind = _require(scenario, "kind")
    if kind not in KINDS:
        raise ScenarioError(f"field 'kind': unknown scenario kind {kind!r}")
    seed = _require(scenario, "seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioError("field 'seed': must be an integer")
    return scenario


def resolve_scenario_path(name: str) -> Path:
    """Use the file if it exists, else fall back to a bundled scenario."""
    path = Path(name)
    if path.exists():
        return path
    bundled = Path(__file__).parent / "scenarios" / path.name
    if bundled.is_file():
        return bundled
    raise ScenarioError(f"{name}: no such scenario file (and no bundled one)")


# ---------------------------------------------------------------------------
# game-analysis
# ---------------------------------------------------------------------------

def _analysis_outputs(scenario: dict, seed: int) -> dict[str, str]:
    from .games import ACTIONS, dominant_action, equilibrium_set, game_from_json
    game = game_from_json(_require(scenario, "game", "game-analysis"))
    es = equilibrium_set(game)
    lines = ["record,row_action,col_action,row_value,col_value"]
    for a in ACTIONS:
        for b in ACTIONS:
            r, c = game.payoff(a, b)
            lines.append(f"payoff,{a.value},{b.value},{r},{c}")
    for a, b in es.pure:
        lines.append(f"pure_equilibrium,{a.value},{b.value},,")
    if es.mixed is not None:
        p_row, p_col = es.mixed
        lines.append(f"mixed_equilibrium,D,D,{p_row},{p_col}")
    row_dom = dominant_action(game, "row")
    col_dom = dominant_action(game, "col")
    lines.append(
        "dominant_action,"
        f"{row_dom.value if row_dom else ''},{col_dom.value if col_dom else ''},,"
    )
    prefix = scenario.get("output", "analysis")
    return {f"{prefix}_analysis.csv": "\n".join(lines) + "\n"}


# ---------------------------------------------------------------------------
# repeated-game-sweep
# ---------------------------------------------------------------------------

def _sweep_outputs(scenario: dict, seed: int) -> dict[str, str]:
    from . import strategies
    from .games import as_rational, game_from_json
    game = game_from_json(_require(scenario, "game", "repeated-game-sweep"))
    grid = _require(scenario, "delta_grid", "repeated-game-sweep")
    start = as_rational(_require(grid, "start"))
    stop = as_rational(_require(grid, "stop"))
    step = as_rational(_require(grid, "step"))
    if step <= 0 or stop < start:
        raise ScenarioError("field 'delta_grid': needs step > 0 and stop >= start")
    grim = strategies.grim()
    alld = strategies.all_d()
    lines = ["delta,cooperate_payoff,defect_payoff,sustained"]
    delta = start
    while delta <= stop:
        # The discount factor lives strictly inside (0, 1); grid endpoints
        # outside that interval are skipped rather than failing the sweep.
        if 0 < delta < 1:
            d = float(delta)
            coop = strategies.closed_form_payoff(grim, grim, game, d)
            defect = strategies.closed_form_payoff(alld, grim, game, d)
            sustained = strategies.cooperation_sustained(game, d)
            lines.append(f"{d!r},{coop!r},{defect!r},{str(sustained).lower()}")
        delta += step
    prefix = scenario.get("output", "sweep")
    return {f"{prefix}_sweep.csv": "\n".join(lines) + "\n"}


# ---------------------------------------------------------------------------
# population-run
# ---------------------------------------------------------------------------

def _population_outputs(scenario: dict, seed: int) -> dict[str, str]:
    from . import strategies
    from .games import game_from_json
    game = game_from_json(_require(scenario, "game", "population-run"))
    size = _require(scenario, "size", "population-run")
    chosen = _require(scenario, "strategies", "population-run")
    default = chosen.get("default", "grim")
    assignment = {
        p: strategies.automaton_by_name(default) for p in range(size)
    }
    for player, name in chosen.get("overrides", {}).items():
        assignment[int(player)] = strategies.automaton_by_name(name)
    config = strategies.PopulationConfig(
        size=size,
        strategies=assignment,
        delta=float(_require(scenario, "delta", "population-run")),
        reputation_visible=bool(scenario.get("reputation_visible", False)),
        rng_seed=seed,
        horizon=int(_require(scenario, "horizon", "population-run")),
    )
    report = strategies.run_population(config, game)
    prefix = scenario.get("output", "population")
    return {
        f"{prefix}_population.csv": report.to_csv(),
        f"{prefix}_summary.json": report.summary_json(),
    }


# ---------------------------------------------------------------------------
# protocol-run
# ---------------------------------------------------------------------------

def run_protocol_demo(scenario: dict, seed: int) -> dict[str, str]:
    """Drive submit -> comments -> review -> trades -> decision -> dispute.

    Protocol-level rejections are committed to the chain as rejected
    transactions and listed in the summary; the demo always runs to the end.
    """
    users = _require(scenario, "users", "protocol-run")
    peers = tuple(_require(scenario, "peers", "protocol-run"))
    try:
        config = ProtocolConfig.from_canonical(
            {**scenario.get("config", {}), "peers": peers})
    except (TypeError, LifecycleError) as exc:
        raise ScenarioError(f"field 'config': {exc}") from exc
    article_spec = _require(scenario, "article", "protocol-run")
    author = _require(scenario, "author", "protocol-run")
    deposit = _require(scenario, "deposit", "protocol-run")
    panel = _require(scenario, "panel", "protocol-run")
    votes = _require(scenario, "votes", "protocol-run")

    genesis = ProtocolState(config)
    chain = Chain(genesis)
    peer_set = PeerSet(peers)
    pool = TxPool()
    next_id = 1

    def push(kind: TxKind, payload: dict, submitter: str):
        nonlocal next_id
        submit_tx(pool, Transaction(next_id, kind, payload, submitter), chain)
        next_id += 1

    def commit():
        if pool.pending:
            produce_block(chain, pool, peer_set)

    for user, balance in users.items():
        push(TxKind.CREDIT, {"user": user, "amount": balance}, PLATFORM)
    commit()

    push(TxKind.SUBMIT_ARTICLE, dict(article_spec), author)
    commit()
    article_hash = next(iter(chain.tip.articles), "")

    for comment in scenario.get("comments", ()):
        push(
            TxKind.COMMENT,
            {"article": article_hash, "text_hash": _text_hash(comment["text"])},
            comment["user"],
        )
    push(
        TxKind.START_REVIEW,
        {"article": article_hash, "deposit": deposit, "panel": list(panel)},
        author,
    )
    for trade in scenario.get("trades", ()):
        push(
            TxKind.TRADE,
            {
                "article": article_hash,
                "outcome": trade["outcome"],
                "shares": trade["shares"],
            },
            trade["user"],
        )
    commit()

    push(TxKind.CONCLUDE_REVIEW, {"article": article_hash, "votes": votes}, PLATFORM)
    commit()

    objection = scenario.get("objection")
    if objection:
        push(
            TxKind.RAISE_OBJECTION,
            {"article": article_hash, "stake": objection["stake"]},
            objection["challenger"],
        )
        commit()
        open_disputes = [
            d.dispute_id
            for d in chain.tip.disputes.values()
            if d.resolution is None
        ]
        if open_disputes:
            push(
                TxKind.RESOLVE_DISPUTE,
                {"dispute": open_disputes[0], "votes": objection["peer_votes"]},
                PLATFORM,
            )
            commit()

    final = chain.tip
    article = final.articles.get(article_hash)
    rejected = [
        {"tx_id": r.tx.tx_id, "kind": r.tx.kind.value, "error": r.error}
        for b in chain.blocks
        for r in b.txs
        if r.status == netchain.REJECTED
    ]
    resolved_market = next(
        (m for m in final.markets.values() if m.resolved is not None), None
    )
    payouts = (
        market_mod.payouts(resolved_market, resolved_market.resolved)
        if resolved_market is not None else {}
    )
    summary = {
        "article_hash": article_hash,
        "final_article_state": article.state.value if article else None,
        "final_state_hash": state_hash(final),
        "chain_height": chain.height,
        "rejected_txs": rejected,
        "balances": {u: final.ledger.balance(u) for u in sorted(users)},
        "platform_reserve": final.ledger.platform_reserve,
        "seed": seed,
    }
    prefix = scenario.get("output", "protocol")
    return {
        f"{prefix}_chain.jsonl": netchain.export_chain(chain.blocks),
        f"{prefix}_genesis.json": json.dumps(
            {"config": config.to_canonical()}, indent=2, sort_keys=True
        ) + "\n",
        f"{prefix}_ledger.json": final.ledger.to_json(),
        f"{prefix}_registry.json": final.registry_export_json(),
        f"{prefix}_market_payouts.csv": market_mod.payout_table_csv(payouts),
        f"{prefix}_summary.json": json.dumps(summary, indent=2, sort_keys=True) + "\n",
    }


def _text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# market-demo
# ---------------------------------------------------------------------------

def _market_outputs(scenario: dict, seed: int) -> dict[str, str]:
    from .games import as_rational
    b = float(as_rational(str(_require(scenario, "b", "market-demo"))))
    traders = _require(scenario, "traders", "market-demo")
    trades = _require(scenario, "trades", "market-demo")
    outcome = _require(scenario, "resolve", "market-demo")
    try:
        ledger = TokenLedger(initial_reserve=scenario.get("initial_reserve", 200),
                             balances=dict(traders))
    except LedgerError as exc:
        raise ScenarioError(f"field 'initial_reserve' or 'traders': {exc}") from exc
    market = market_mod.open_market(b, market_id=scenario.get("output", "market"))
    executed = []
    for t in trades:
        trade = market_mod.trade(market, ledger, t["user"], t["outcome"], t["shares"])
        executed.append(trade)
    prices = {o: market_mod.price(market, o) for o in market_mod.OUTCOMES}
    payouts = market_mod.resolve(market, ledger, outcome)
    summary = {
        "b": b,
        "seed": seed,
        "pre_resolution_prices": prices,
        "resolved": outcome,
        "token_costs": [
            {"user": t.user_id, "outcome": t.outcome, "shares": t.share_delta,
             "cost": t.token_cost}
            for t in executed
        ],
        "final_balances": {u: ledger.balance(u) for u in sorted(traders)},
        "platform_reserve": ledger.platform_reserve,
    }
    prefix = scenario.get("output", "market")
    return {
        f"{prefix}_events.jsonl": market_mod.event_log_lines(market),
        f"{prefix}_payouts.csv": market_mod.payout_table_csv(payouts),
        f"{prefix}_summary.json": json.dumps(summary, indent=2, sort_keys=True) + "\n",
    }


# ---------------------------------------------------------------------------
# dispatch and entry point
# ---------------------------------------------------------------------------

#: kind -> (verb that runs it, renderer).  A renderer takes (scenario, seed)
#: and returns {file name: content}.
KINDS: dict[str, tuple[str, Callable[[dict, int], dict[str, str]]]] = {
    "game-analysis": ("analyze", _analysis_outputs),
    "repeated-game-sweep": ("sweep", _sweep_outputs),
    "population-run": ("sweep", _population_outputs),
    "protocol-run": ("protocol", run_protocol_demo),
    "market-demo": ("market", _market_outputs),
}

VERB_KINDS = {
    verb: tuple(k for k, (v, _) in KINDS.items() if v == verb)
    for verb, _ in KINDS.values()
}


def run_scenario(
    name: str, out_dir: str = "out", seed_override: Optional[int] = None
) -> list[str]:
    """Run one scenario file; returns the paths of its outputs.

    All outputs are rendered in memory first: a failing scenario writes
    nothing at all.  A file that already holds the same bytes is left
    untouched, since truncating it can cost more than the whole run.
    """
    path = resolve_scenario_path(name)
    scenario = load_scenario(path)
    seed = seed_override if seed_override is not None else scenario["seed"]
    _, render = KINDS[scenario["kind"]]
    outputs = render(scenario, seed)
    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)
    paths = []
    for filename, content in outputs.items():
        file_path = target / filename
        data = content.encode("utf-8")
        try:
            unchanged = file_path.read_bytes() == data
        except OSError:
            unchanged = False
        if not unchanged:
            file_path.write_bytes(data)
        paths.append(str(file_path))
    return paths


def _cmd_run(verb: str, args) -> int:
    for name in args.scenarios:
        scenario = load_scenario(resolve_scenario_path(name))
        if scenario["kind"] not in VERB_KINDS[verb]:
            raise ScenarioError(
                f"field 'kind': {scenario['kind']!r} cannot run under "
                f"'{verb}' (expects one of {', '.join(VERB_KINDS[verb])})"
            )
    if args.parallel and len(args.scenarios) > 1:
        # Imported here: the import alone costs every other command start-up time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor() as pool:
            futures = [
                pool.submit(run_scenario, name, args.out_dir, args.seed)
                for name in args.scenarios
            ]
            for future in futures:
                for written in future.result():
                    print(written)
    else:
        for name in args.scenarios:
            for written in run_scenario(name, args.out_dir, args.seed):
                print(written)
    return 0


def _cmd_verify(args) -> int:
    chain_path = Path(args.chain)
    try:
        text = chain_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        print(f"FAILED at parse: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.genesis:
        genesis_path = Path(args.genesis)
    elif chain_path.name.endswith("_chain.jsonl"):
        stem = chain_path.name.removesuffix("_chain.jsonl")
        genesis_path = chain_path.with_name(f"{stem}_genesis.json")
    else:
        print(f"error: {chain_path} is not named *_chain.jsonl; "
              "name its genesis descriptor with --genesis", file=sys.stderr)
        return 2
    if not genesis_path.is_file():
        print(f"error: genesis descriptor {genesis_path} is missing", file=sys.stderr)
        return 2
    try:
        descriptor = json.loads(genesis_path.read_text(encoding="utf-8"))
        config = ProtocolConfig.from_canonical(descriptor["config"])
        peer_set = PeerSet(config.peers) if config.peers else None
    except (OSError, ValueError, LookupError, TypeError, RecursionError,
            ProtocolError) as exc:
        print(f"error: genesis descriptor {genesis_path}: {exc}", file=sys.stderr)
        return 2
    if peer_set is None:
        print("error: genesis config names no peers", file=sys.stderr)
        return 2
    result = verify_export(text, ProtocolState(config), peer_set)
    if result.ok:
        print(f"OK: {args.chain} replays cleanly")
        return 0
    where = f"height {result.first_bad_height}" if result.first_bad_height is not None else "parse"
    print(f"FAILED at {where}: {result.reason}", file=sys.stderr)
    return 1


def _add_common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags are valid before or after the verb; the subparser copies
    # use SUPPRESS so an omitted flag never clobbers the top-level value.
    default = (lambda v: argparse.SUPPRESS if suppress else v)
    parser.add_argument("--seed", type=int, default=default(None),
                        help="override the scenario seed")
    parser.add_argument("--out-dir", default=default("out"),
                        help="directory for output files (default: ./out)")
    parser.add_argument("--parallel", action="store_true",
                        default=default(False),
                        help="run multiple scenario files concurrently")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scholarchain",
        description="Scholarly-protocol simulator: games, populations, "
        "article lifecycles, review markets.",
    )
    _add_common_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, kinds in VERB_KINDS.items():
        p = sub.add_parser(verb, help=f"run {' / '.join(kinds)} scenarios")
        p.add_argument("scenarios", nargs="+", metavar="scenario.json")
        _add_common_flags(p, suppress=True)
    v = sub.add_parser("verify", help="replay and verify an exported chain")
    v.add_argument("chain", metavar="chain.jsonl")
    v.add_argument("--genesis", default=None,
                   help="genesis descriptor (default: sibling _genesis.json)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "verify":
            return _cmd_verify(args)
        return _cmd_run(args.verb, args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
