"""Scenario runner: reproduce the analyses and drive protocol lifecycles.

Verbs:

    analyze  <scenario.json>   one-shot game: matrix, equilibria, dominance
    sweep    <scenario.json>   discount-factor sweep or population run
    protocol <scenario.json>   full article lifecycle on the chain
    market   <scenario.json>   standalone review-market session
    verify   <chain.jsonl>     replay an exported chain and check integrity

Scenario files are JSON with a `kind` discriminator and a mandatory `seed`;
rationals are written as "p/q" strings.  A scenario plus its seed fully
determines every output byte: all results are computed, and every output
path read, before the first write, so only a write fault leaves partial files.
Outputs are plain CSV/JSON for external plotting.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Mapping, Optional

# Each renderer imports the layer it runs, so a fresh command loads only that
# one: `games` (and `strategies` for sweep) for analyze and sweep, `market`
# and `ledger` for market, and the chain layer for protocol and verify.
from .errors import ProtocolError
from .fields import OPTIONAL, Field, FieldError, as_rational, check_fields

class ScenarioError(Exception):
    """Scenario file failed to parse or validate; message names the field."""


def _checked(scenario: Mapping, fields: tuple[Field, ...], kind: str = "") -> dict:
    """The declared fields of a scenario, as `check_fields` returns them."""
    try:
        return check_fields(scenario, fields)
    except FieldError as exc:
        if not exc.missing:
            raise ScenarioError(f"field {exc.path!r}: must be {exc.expected}") from None
        where = f" in {kind} scenario" if kind and "." not in exc.path else ""
        raise ScenarioError(f"field {exc.path!r}: required{where}") from None


@contextmanager
def _judged(*names: str):
    """A value refused inside the block exits as `field 'NAME': reason`,
    naming every field the block reads."""
    try:
        yield
    except (ProtocolError, ValueError, TypeError, LookupError, ArithmeticError) as exc:
        raise ScenarioError(f"field {' or '.join(map(repr, names))}: {exc}") from exc


_COMMON = (Field("kind", "a string"), Field("seed", "an integer"))


def load_scenario(path: Path) -> dict:
    """The scenario's fields as its kind declares them (`KINDS`), defaults
    included; a renderer reads only what this returns."""
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
    common = _checked(scenario, _COMMON)
    kind = common["kind"]
    if kind not in KINDS:
        raise ScenarioError(f"field 'kind': unknown scenario kind {kind!r}")
    return {**common, **_checked(scenario, KINDS[kind][1], kind)}


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

def _game(scenario: dict):
    from .games import game_from_json
    with _judged("game"):
        return game_from_json(scenario["game"])


def _analysis_outputs(scenario: dict, seed: int) -> dict[str, str]:
    from .games import ACTIONS, dominant_action, equilibrium_set
    game = _game(scenario)
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
    return {f"{scenario['output']}_analysis.csv": "\n".join(lines) + "\n"}


# ---------------------------------------------------------------------------
# repeated-game-sweep
# ---------------------------------------------------------------------------

def _sweep_outputs(scenario: dict, seed: int) -> dict[str, str]:
    from . import strategies
    game = _game(scenario)
    grid = scenario["delta_grid"]
    with _judged("delta_grid"):
        start, stop, step = (as_rational(grid[key]) for key in ("start", "stop", "step"))
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
    return {f"{scenario['output']}_sweep.csv": "\n".join(lines) + "\n"}


# ---------------------------------------------------------------------------
# population-run
# ---------------------------------------------------------------------------

def _population_outputs(scenario: dict, seed: int) -> dict[str, str]:
    from . import strategies
    game = _game(scenario)
    size, chosen = scenario["size"], scenario["strategies"]
    with _judged("strategies"):
        # Automata are immutable, so the players of one name share one.
        named = {chosen["default"]: strategies.automaton_by_name(chosen["default"])}
        assignment = dict.fromkeys(range(size), named[chosen["default"]])
        for key, name in chosen["overrides"].items():
            player = int(key)
            if player not in assignment:
                raise ValueError(f"no player {key} in a population of {size}")
            if name not in named:
                named[name] = strategies.automaton_by_name(name)
            assignment[player] = named[name]
    with _judged("size", "delta", "horizon"):
        config = strategies.PopulationConfig(
            size=size,
            strategies=assignment,
            delta=float(scenario["delta"]),
            reputation_visible=scenario["reputation_visible"],
            rng_seed=seed,
            horizon=scenario["horizon"],
        )
    report = strategies.run_population(config, game)
    prefix = scenario["output"]
    return {
        f"{prefix}_population.csv": report.to_csv(),
        f"{prefix}_summary.json": report.summary_json(),
    }


# ---------------------------------------------------------------------------
# protocol-run
# ---------------------------------------------------------------------------

def run_protocol_demo(scenario: dict, seed: int) -> dict[str, str]:
    """Drive submit -> comments -> review -> trades -> decision -> dispute.

    `scenario` holds the fields `load_scenario` returns.  Protocol-level
    rejections are committed to the chain as rejected transactions and listed
    in the summary; the demo always runs to the end.
    """
    from . import market as market_mod
    from .lifecycle import PeerSet, ProtocolConfig, ProtocolState
    from .netchain import (PLATFORM, REJECTED, Chain, Transaction, TxKind, TxPool,
                           export_chain, produce_block, state_hash, submit_tx)
    users, author = scenario["users"], scenario["author"]
    with _judged("peers"):
        peer_set = PeerSet(scenario["peers"])
    with _judged("config"):
        if "peers" in scenario["config"]:
            raise ValueError("peers are set by the scenario's 'peers' field")
        config = ProtocolConfig.from_canonical({**scenario["config"], "peers": peer_set.peers})
    objection = scenario.get("objection")

    genesis = ProtocolState(config)
    chain = Chain(genesis)
    pool = TxPool()
    next_id = 1

    def push(field: str, kind: TxKind, payload: dict, submitter: str):
        """Submit a transaction built from scenario `field`, named if refused."""
        nonlocal next_id
        with _judged(field):
            submit_tx(pool, Transaction(next_id, kind, payload, submitter), chain)
        next_id += 1

    def commit():
        if pool.pending:
            produce_block(chain, pool, peer_set)

    for user, balance in users.items():
        push("users", TxKind.CREDIT, {"user": user, "amount": balance}, PLATFORM)
    commit()

    push("article", TxKind.SUBMIT_ARTICLE, dict(scenario["article"]), author)
    commit()
    article_hash = next(iter(chain.tip.articles), "")

    for i, comment in enumerate(scenario["comments"]):
        push(
            f"comments[{i}]", TxKind.COMMENT,
            {"article": article_hash, "text_hash": _text_hash(comment["text"])},
            comment["user"],
        )
    push(
        "deposit", TxKind.START_REVIEW,
        {"article": article_hash, "deposit": scenario["deposit"],
         "panel": list(scenario["panel"])},
        author,
    )
    for i, trade in enumerate(scenario["trades"]):
        push(
            f"trades[{i}]", TxKind.TRADE,
            {
                "article": article_hash,
                "outcome": trade["outcome"],
                "shares": trade["shares"],
            },
            trade["user"],
        )
    commit()

    push("votes", TxKind.CONCLUDE_REVIEW,
         {"article": article_hash, "votes": scenario["votes"]}, PLATFORM)
    commit()

    if objection:
        push(
            "objection", TxKind.RAISE_OBJECTION,
            {"article": article_hash, "stake": objection["stake"]},
            objection["challenger"],
        )
        commit()
        dispute = chain.tip.open_dispute(article_hash)
        if dispute is not None:
            push("objection", TxKind.RESOLVE_DISPUTE,
                 {"dispute": dispute.dispute_id, "votes": objection["peer_votes"]}, PLATFORM)
            commit()

    final = chain.tip
    article = final.articles.get(article_hash)
    rejected = [
        {"tx_id": r.tx.tx_id, "kind": r.tx.kind.value, "error": r.error}
        for b in chain.blocks
        for r in b.txs
        if r.status == REJECTED
    ]
    market = final.markets.get(article.market_id) if article else None
    payouts = (market_mod.payouts(market, market.resolved)
               if market is not None and market.resolved is not None else {})
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
    prefix = scenario["output"]
    return {
        f"{prefix}_chain.jsonl": export_chain(chain.blocks),
        f"{prefix}_genesis.json": json.dumps(
            {"config": config.to_canonical()}, indent=2, sort_keys=True
        ) + "\n",
        f"{prefix}_ledger.json": final.ledger.to_json(),
        f"{prefix}_registry.json": final.registry_export_json(),
        f"{prefix}_market_payouts.csv": market_mod.payout_table_csv(payouts),
        f"{prefix}_summary.json": json.dumps(summary, indent=2, sort_keys=True) + "\n",
    }


def _text_hash(text: str) -> str:
    import hashlib
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# market-demo
# ---------------------------------------------------------------------------

def _market_outputs(scenario: dict, seed: int) -> dict[str, str]:
    from . import market as market_mod
    from .ledger import TokenLedger
    traders, outcome, prefix = scenario["traders"], scenario["resolve"], scenario["output"]
    with _judged("b"):
        b = float(as_rational(str(scenario["b"])))
        market = market_mod.open_market(b, market_id=prefix)
    with _judged("initial_reserve", "traders"):
        ledger = TokenLedger(initial_reserve=scenario["initial_reserve"],
                             balances=dict(traders))
    executed = []
    for i, t in enumerate(scenario["trades"]):
        with _judged(f"trades[{i}]"):
            executed.append(
                market_mod.trade(market, ledger, t["user"], t["outcome"], t["shares"]))
    prices = {o: market_mod.price(market, o) for o in market_mod.OUTCOMES}
    with _judged("resolve"):
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
    return {
        f"{prefix}_events.jsonl": market_mod.event_log_lines(market),
        f"{prefix}_payouts.csv": market_mod.payout_table_csv(payouts),
        f"{prefix}_summary.json": json.dumps(summary, indent=2, sort_keys=True) + "\n",
    }


# ---------------------------------------------------------------------------
# dispatch and entry point
# ---------------------------------------------------------------------------

_GAME, _USER = Field("game", "an object"), Field("user", "a string")

#: kind -> (verb that runs it, its fields, renderer).  Besides `kind` and
#: `seed`, a scenario holds the fields its kind declares; a value the chain
#: judges (an amount, a share count, a vote) may be any value.  A renderer
#: takes (fields as `load_scenario` returns them, seed) and returns
#: {file name: content}.
KINDS: dict[str, tuple[str, tuple[Field, ...], Callable[[dict, int], dict[str, str]]]] = {
    "game-analysis": ("analyze", (_GAME, Field("output", "a string", "analysis")),
                      _analysis_outputs),
    "repeated-game-sweep": ("sweep", (
        _GAME, Field("delta_grid", "an object", record=(
            Field("start", None), Field("stop", None), Field("step", None))),
        Field("output", "a string", "sweep")), _sweep_outputs),
    "population-run": ("sweep", (
        _GAME, Field("size", "an integer"), Field("strategies", "an object", record=(
            Field("default", "a string", "grim"), Field("overrides", "an object", {}))),
        Field("delta", "a number"), Field("reputation_visible", "a boolean", False),
        Field("horizon", "an integer"), Field("output", "a string", "population")),
        _population_outputs),
    "protocol-run": ("protocol", (
        Field("users", "an object"), Field("peers", "a list of strings"),
        Field("config", "an object", {}), Field("article", "an object"),
        Field("author", "a string"), Field("deposit", None),
        Field("panel", "a list of strings"), Field("votes", None),
        Field("comments", "a list", (), (_USER, Field("text", "a string"))),
        Field("trades", "a list", (), (_USER, Field("outcome", None), Field("shares", None))),
        Field("objection", "an object", OPTIONAL, (
            Field("challenger", "a string"), Field("stake", None), Field("peer_votes", None))),
        Field("output", "a string", "protocol")), run_protocol_demo),
    "market-demo": ("market", (
        Field("b", None), Field("traders", "an object"), Field("trades", "a list", record=(
            _USER, Field("outcome", "a string"), Field("shares", "a number"))),
        Field("resolve", "a string"), Field("initial_reserve", None, 200),
        Field("output", "a string", "market")), _market_outputs),
}

VERB_KINDS = {
    verb: tuple(k for k, (v, *_) in KINDS.items() if v == verb)
    for verb, *_ in KINDS.values()
}


def run_scenario(name: str, out_dir: str = "out", seed_override: Optional[int] = None,
                 scenario: Optional[dict] = None) -> list[str]:
    """Run one scenario file, or its fields `scenario` as `load_scenario`
    returned them; returns the paths of its outputs.

    All outputs are rendered in memory, and every output path read, before
    the first write: a failing scenario or an unreadable output path writes
    nothing at all.  A file that already holds the same bytes is left
    untouched, since truncating it can cost more than the whole run.  A write
    that fails midway (a full disk, say) leaves the files written before it,
    and may cut short the one it was writing.  An `OSError` raises
    ScenarioError with its text.
    """
    if scenario is None:
        scenario = load_scenario(resolve_scenario_path(name))
    seed = seed_override if seed_override is not None else scenario["seed"]
    render = KINDS[scenario["kind"]][2]
    outputs = render(scenario, seed)
    target = Path(out_dir)
    files = {target / filename: text.encode("utf-8") for filename, text in outputs.items()}
    try:
        target.mkdir(parents=True, exist_ok=True)
        changed = [p for p, data in files.items() if not p.exists() or p.read_bytes() != data]
        for path in changed:
            path.write_bytes(files[path])
    except OSError as exc:
        raise ScenarioError(str(exc)) from None
    return list(map(str, files))


def _cmd_run(verb: str, args) -> int:
    loaded = []
    for name in args.scenarios:
        scenario = load_scenario(resolve_scenario_path(name))
        if scenario["kind"] not in VERB_KINDS[verb]:
            raise ScenarioError(
                f"field 'kind': {scenario['kind']!r} cannot run under "
                f"'{verb}' (expects one of {', '.join(VERB_KINDS[verb])})"
            )
        loaded.append((name, scenario))
    if args.parallel and len(args.scenarios) > 1:
        # Imported here: the import alone costs every other command start-up time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor() as pool:
            futures = [
                pool.submit(run_scenario, name, args.out_dir, args.seed, scenario)
                for name, scenario in loaded
            ]
            for future in futures:
                for written in future.result():
                    print(written)
    else:
        for name, scenario in loaded:
            for written in run_scenario(name, args.out_dir, args.seed, scenario):
                print(written)
    return 0


def _cmd_verify(args) -> int:
    from .lifecycle import PeerSet, ProtocolConfig, ProtocolState
    from .netchain import verify_export
    chain_path = Path(args.chain)
    try:
        text = chain_path.read_bytes().decode("utf-8")  # byte-exact: no newline translation
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
    except (OSError, ValueError, LookupError, TypeError, RecursionError,
            ProtocolError) as exc:
        print(f"error: genesis descriptor {genesis_path}: {exc}", file=sys.stderr)
        return 2
    if not config.peers:
        print("error: genesis config names no peers", file=sys.stderr)
        return 2
    result = verify_export(text, ProtocolState(config), PeerSet(config.peers))
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


#: Built by the first `main` call, not at import, and reused by later calls:
#: parsing keeps no state, and the subparsers' copies of the flags default to
#: SUPPRESS, so no call's flags reach the next.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
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
