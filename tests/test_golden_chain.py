"""A committed chain whose rejection reasons every supported Python must replay.

`tests/data/rejections_chain.jsonl` holds one rejection per payload-schema
failure (a missing field, a wrong type, a bool for a number), several
domain rejections, and a payload with an undeclared key that is applied.
Each reason is sealed in its block, and `verify` compares it with the
reason replay gives, so a change of wording fails here.  After a deliberate
change of wording or wire format, re-pin the files with

    PYTHONPATH=src python tests/test_golden_chain.py

and update `REASONS`.
"""

import json
from pathlib import Path

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


def build_chain() -> Chain:
    chain = Chain(ProtocolState(CONFIG))
    peer_set = PeerSet(CONFIG.peers)
    tx_id = 0
    for block in BLOCKS:
        pool = TxPool()
        for kind, payload, submitter in block:
            tx_id += 1
            submit_tx(pool, Transaction(tx_id, kind, payload, submitter), chain)
        assert produce_block(chain, pool, peer_set).committed
    return chain


def genesis_text() -> str:
    return json.dumps({"config": CONFIG.to_canonical()}, indent=2, sort_keys=True) + "\n"


def test_committed_chain_verifies_with_its_reasons():
    text = CHAIN.read_text(encoding="utf-8")
    config = ProtocolConfig.from_canonical(
        json.loads(GENESIS.read_text(encoding="utf-8"))["config"])
    assert verify_export(text, ProtocolState(config), PeerSet(config.peers)).ok
    records = [r for b in import_chain(text) for r in b.txs]
    rejected = {r.tx.tx_id: r.error for r in records if r.status == REJECTED}
    assert rejected == REASONS


def test_committed_files_match_a_fresh_build():
    assert CHAIN.read_text(encoding="utf-8") == export_chain(build_chain().blocks)
    assert GENESIS.read_text(encoding="utf-8") == genesis_text()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    CHAIN.write_text(export_chain(build_chain().blocks), encoding="utf-8")
    GENESIS.write_text(genesis_text(), encoding="utf-8")
