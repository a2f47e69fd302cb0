"""Committed chains that every supported Python must replay and rebuild.

`tests/data/rejections_chain.jsonl` holds one rejection per payload-schema
failure (a missing field, a wrong type, a bool for a number), several
domain rejections, and a payload with an undeclared key that is applied.
Each reason is sealed in its block, and `verify` compares it with the
reason replay gives, so a change of wording fails here.

`tests/data/trades_chain.jsonl` is trade-heavy: three review markets, buys
from the one-token floor of 1e-300 shares to 20 000 shares, partial sells
and sells to zero, an unaffordable buy, a buy priced at 2**256 tokens and a
conclusion that resolves one market.  Every token cost is sealed in its
block's state hash, so a change to the cost function's float operations or
to the ledger moves of a trade fails here.

After a deliberate change of wording or wire format, re-pin the files with

    PYTHONPATH=src python tests/test_golden_chain.py

and update `REASONS` and `TRADE_REASONS`.
"""

import json
import math
import random
from pathlib import Path

from scholarchain.cli import main
from scholarchain.lifecycle import (
    ContentMetadata,
    ProtocolConfig,
    ProtocolState,
    content_hash,
)
from scholarchain.netchain import (
    PLATFORM,
    REJECTED,
    Chain,
    PeerSet,
    Transaction,
    TxKind,
    TxPool,
    export_chain,
    import_chain,
    produce_block,
    submit_tx,
    verify_export,
)

DATA = Path(__file__).parent / "data"
CHAIN = DATA / "rejections_chain.jsonl"
GENESIS = DATA / "rejections_genesis.json"
CONFIG = ProtocolConfig(initial_reserve=200, market_liquidity=20.0,
                        peers=("p1", "p2", "p3", "p4"))
ARTICLE = content_hash(ContentMetadata("Golden rejections", "x", (("Ada L", "ada"),)))
PANEL = ["r1", "r2", "r3"]

#: One list of (kind, payload, submitter) per block.
BLOCKS = [
    [
        (TxKind.CREDIT, {"user": "ada", "amount": 100}, PLATFORM),
        (TxKind.CREDIT, {"user": "bo", "amount": 100}, PLATFORM),
        (TxKind.SUBMIT_ARTICLE,
         {"title": "Golden rejections", "abstract": "x", "authors": [["Ada L", "ada"]]},
         "ada"),
    ],
    [
        (TxKind.COMMENT, {"article": ARTICLE}, "bo"),
        (TxKind.START_REVIEW, {"article": ARTICLE, "deposit": "10", "panel": PANEL}, "ada"),
        (TxKind.START_REVIEW,
         {"article": ARTICLE, "deposit": 10, "panel": [["r1"], "r2", "r3"]}, "ada"),
        (TxKind.START_REVIEW, {"article": ARTICLE, "deposit": 10, "panel": PANEL}, "ada"),
        (TxKind.TRADE, {"article": ARTICLE, "outcome": "PUBLISH", "shares": True}, "bo"),
        (TxKind.TRADE, {"article": ARTICLE, "outcome": "PUBLISH", "shares": 2}, "ada"),
        (TxKind.TRADE, {"article": ARTICLE, "outcome": "PUBLISH", "shares": 3}, "bo"),
        (TxKind.COMMENT, {"article": ARTICLE, "text_hash": "h"}, "bo"),
        (TxKind.CREDIT, {"user": "bo", "amount": 5}, "bo"),
        (TxKind.TRADE,
         {"article": ARTICLE, "outcome": "PUBLISH", "shares": 1, "user": "cy"}, "bo"),
        (TxKind.CONCLUDE_REVIEW, {"article": ARTICLE, "votes": ["abc"]}, PLATFORM),
        (TxKind.CONCLUDE_REVIEW, {"article": ARTICLE, "votes": {"r1": "PUBLISH"}},
         PLATFORM),
    ],
    [
        (TxKind.CONCLUDE_REVIEW,
         {"article": ARTICLE, "votes": {"r1": "PUBLISH", "r2": "PUBLISH", "r3": "REVISE"}},
         PLATFORM),
        (TxKind.RAISE_OBJECTION, {"article": ARTICLE, "stake": 0}, "bo"),
        (TxKind.CLAIM_ARTICLE, {"article": ARTICLE, "doi": 5}, "bo"),
        (TxKind.START_REVIEW, {"article": "missing", "deposit": 10, "panel": PANEL}, "bo"),
        (TxKind.CREDIT, {"user": "cy", "amount": 0}, PLATFORM),
        (TxKind.SUBMIT_ARTICLE,
         {"title": "Second", "authors": [["Bo K", "bo"]], "note": "undeclared"}, "bo"),
    ],
]

#: tx id -> recorded reason, for every rejected transaction.
REASONS = {
    4: "bad payload for COMMENT: field 'text_hash' must be a string",
    5: "bad payload for START_REVIEW: field 'deposit' must be an integer",
    6: "review panel must be a list of strings",
    8: "bad payload for TRADE: field 'shares' must be a number",
    9: "authors are barred from their own review market",
    11: f"article is under review; comment via market {ARTICLE[:16]}:r1",
    12: "'bo' cannot submit platform operation CREDIT",
    13: "'bo' cannot act for 'cy' in TRADE",
    14: "bad payload for CONCLUDE_REVIEW: field 'votes' must be an object",
    15: "no quorum: no choice has a majority of the review panel",
    17: "objection stake must be a positive token amount",
    18: "bad payload for CLAIM_ARTICLE: field 'doi' must be a string",
    19: "no article with hash 'missing'",
    20: "amount must be a positive integer, got 0",
}


TRADES_CHAIN = DATA / "trades_chain.jsonl"
TRADES_GENESIS = DATA / "trades_genesis.json"
# At b = 3 the largest double below 2**256 shares, bought into a book of
# (0, 2), costs exactly 2**256 tokens.
TRADES_CONFIG = ProtocolConfig(initial_reserve=1000, market_liquidity=3.0,
                               peers=("p1", "p2", "p3", "p4"))
AUTHORS = ("ada", "bo", "cy")
TRADERS = tuple(f"t{i}" for i in range(8))
MARKETS = tuple(content_hash(ContentMetadata(f"Market {a}", "x", ((a.upper(), a),)))
                for a in AUTHORS)


def trade_tx(article: str, outcome: str, shares: float, user: str) -> tuple:
    return TxKind.TRADE, {"article": article, "outcome": outcome, "shares": shares}, user


def trade_blocks() -> list:
    """The trades chain's blocks: set-up, 240 trades drawn from a seeded
    `random.random` (whose sequence every Python keeps) and the edge cases."""
    setup = [(TxKind.CREDIT, {"user": a, "amount": 100}, PLATFORM) for a in AUTHORS]
    setup += [(TxKind.CREDIT, {"user": t, "amount": 10**6}, PLATFORM) for t in TRADERS]
    setup += [(TxKind.CREDIT, {"user": "poor", "amount": 3}, PLATFORM)]
    setup += [(TxKind.CREDIT, {"user": "whale", "amount": 2**256 - 1}, PLATFORM)] * 2
    setup += [(TxKind.SUBMIT_ARTICLE, {"title": f"Market {a}", "abstract": "x",
                                       "authors": [[a.upper(), a]]}, a) for a in AUTHORS]
    blocks = [setup, [
        (TxKind.START_REVIEW, {"article": m, "deposit": 10, "panel": PANEL}, a)
        for a, m in zip(AUTHORS, MARKETS)]]
    blocks.append([
        trade_tx(MARKETS[2], "REVISE", 2.0, "t0"),
        trade_tx(MARKETS[2], "PUBLISH", math.nextafter(2.0**256, 0), "whale"),
        trade_tx(MARKETS[2], "PUBLISH", 500.0, "poor"),
        trade_tx(MARKETS[2], "PUBLISH", 1e-300, "poor"),
    ])
    rng, held = random.Random(2018), {}

    def pick(options):
        return options[int(rng.random() * len(options))]

    for _ in range(8):
        block = []
        for _ in range(30):
            position = pick(TRADERS), pick(MARKETS), pick(("PUBLISH", "REVISE"))
            shares = held.get(position, 0.0)
            draw = rng.random()
            if shares and draw < 0.2:
                delta = -shares  # sold to zero: the holding leaves its section
            elif shares and draw < 0.45:
                delta = -shares * (0.1 + 0.8 * rng.random())
            elif draw < 0.55:
                delta = 1e-300
            elif draw < 0.6:
                delta = 5000.0 + 15000.0 * rng.random()
            else:
                delta = 0.5 + 50.0 * rng.random()
            held[position] = shares + delta
            block.append(trade_tx(position[1], position[2], delta, position[0]))
        blocks.append(block)
    blocks.append([(TxKind.CONCLUDE_REVIEW, {"article": MARKETS[0], "votes": {
        "r1": "PUBLISH", "r2": "PUBLISH", "r3": "REVISE"}}, PLATFORM)])
    return blocks


#: tx id -> recorded reason, for every rejected transaction of the trades chain.
TRADE_REASONS = {
    22: "amount must be below 2**256",
    23: "'poor' balance 3 cannot cover trade cost 497",
}


def build_chain(config: ProtocolConfig = CONFIG, blocks: list = BLOCKS) -> Chain:
    chain = Chain(ProtocolState(config))
    peer_set = PeerSet(config.peers)
    tx_id = 0
    for block in blocks:
        pool = TxPool()
        for kind, payload, submitter in block:
            tx_id += 1
            submit_tx(pool, Transaction(tx_id, kind, payload, submitter), chain)
        assert produce_block(chain, pool, peer_set).committed
    return chain


def genesis_text(config: ProtocolConfig = CONFIG) -> str:
    return json.dumps({"config": config.to_canonical()}, indent=2, sort_keys=True) + "\n"


def rejected_reasons(text: str) -> dict:
    records = [r for b in import_chain(text) for r in b.txs]
    return {r.tx.tx_id: r.error for r in records if r.status == REJECTED}


def test_committed_chain_verifies_with_its_reasons():
    text = CHAIN.read_text(encoding="utf-8")
    config = ProtocolConfig.from_canonical(
        json.loads(GENESIS.read_text(encoding="utf-8"))["config"])
    assert verify_export(text, ProtocolState(config), PeerSet(config.peers)).ok
    assert rejected_reasons(text) == REASONS


def test_committed_files_match_a_fresh_build():
    assert CHAIN.read_text(encoding="utf-8") == export_chain(build_chain().blocks)
    assert GENESIS.read_text(encoding="utf-8") == genesis_text()


def test_trades_chain_is_rebuilt_byte_for_byte_and_verifies(capsys):
    chain = build_chain(TRADES_CONFIG, trade_blocks())
    text = TRADES_CHAIN.read_text(encoding="utf-8")
    assert text == export_chain(chain.blocks)
    assert TRADES_GENESIS.read_text(encoding="utf-8") == genesis_text(TRADES_CONFIG)
    assert rejected_reasons(text) == TRADE_REASONS
    # The chain covers what it is kept for.
    trades = [r.tx for b in chain.blocks for r in b.txs
              if r.tx.kind is TxKind.TRADE and r.status != REJECTED]
    assert len(trades) >= 200 and len({t.payload["article"] for t in trades}) == 3
    shares = [t.payload["shares"] for t in trades]
    assert 1e-300 in shares and max(shares) > 1e4 and min(shares) < 0
    assert chain.tip.market_of(chain.tip.article(MARKETS[0])).resolved == "PUBLISH"
    assert main(["verify", str(TRADES_CHAIN), "--genesis", str(TRADES_GENESIS)]) == 0
    assert capsys.readouterr().out == f"OK: {TRADES_CHAIN} replays cleanly\n"


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    CHAIN.write_text(export_chain(build_chain().blocks), encoding="utf-8")
    GENESIS.write_text(genesis_text(), encoding="utf-8")
    TRADES_CHAIN.write_text(export_chain(build_chain(TRADES_CONFIG, trade_blocks()).blocks),
                            encoding="utf-8")
    TRADES_GENESIS.write_text(genesis_text(TRADES_CONFIG), encoding="utf-8")
