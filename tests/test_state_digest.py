"""The cached state digest against its oracle, the whole state encoded again.

`state_hash` re-encodes only the entities written since the last digest.
Every test here first digests a state, so that each entity holds a cached
fragment, then writes to existing entities and compares the digest with
`full_state_hash`.  A write path that does not drop its entity's fragment
leaves that fragment stale, and the two digests part.
"""

import pytest

from scholarchain import netchain
from scholarchain.lifecycle import ContentMetadata, ProtocolConfig, ProtocolState, content_hash
from scholarchain.netchain import (
    APPLIED,
    PLATFORM,
    Chain,
    PeerSet,
    Transaction,
    TxKind,
    TxPool,
    produce_block,
    state_hash,
    submit_tx,
    verify_chain,
)
from protocol_fuzz import full_state_hash

PEERS = PeerSet(("p1", "p2", "p3", "p4"))
PANEL = ["r1", "r2", "r3"]
REVIEWED = content_hash(ContentMetadata("under review", "", (("A", "ada"),)))
ACTIVE = content_hash(ContentMetadata("active", "", (("A", "ada"),)))
DISPUTED, CLAIMED = "disputed-elsewhere", "claimed-elsewhere"

#: One committed block: funded users, an article under review with a traded
#: market, an active article, and two claimed articles, one with an open dispute.
OPENING = [
    *((TxKind.CREDIT, {"user": u, "amount": 100}, PLATFORM) for u in ("ada", "bo", "cy")),
    (TxKind.SUBMIT_ARTICLE, {"title": "under review", "authors": [["A", "ada"]]}, "ada"),
    (TxKind.START_REVIEW, {"article": REVIEWED, "deposit": 10, "panel": PANEL}, "ada"),
    (TxKind.TRADE, {"article": REVIEWED, "outcome": "PUBLISH", "shares": 2}, "bo"),
    (TxKind.SUBMIT_ARTICLE, {"title": "active", "authors": [["A", "ada"]]}, "ada"),
    (TxKind.CLAIM_ARTICLE, {"article": DISPUTED}, "cy"),
    (TxKind.RAISE_OBJECTION, {"article": DISPUTED, "stake": 5}, "bo"),
    (TxKind.CLAIM_ARTICLE, {"article": CLAIMED}, "cy"),
]

#: Per kind, one write to entities that already hold a fragment, applied.
#: Together they pass every place that drops a fragment with nothing else
#: dropping the same one: the ledger's credit, escrow (START_REVIEW) and
#: escrow resolution (a revise decision, an upheld dispute), an article
#: lookup (COMMENT), a market lookup (TRADE), a dispute lookup and a claim.
WRITES = {
    TxKind.CREDIT: ({"user": "bo", "amount": 5}, PLATFORM),
    TxKind.SUBMIT_ARTICLE: ({"title": "new", "authors": [["C", "cy"]]}, "cy"),
    TxKind.COMMENT: ({"article": ACTIVE, "text_hash": "h"}, "bo"),
    TxKind.START_REVIEW: ({"article": ACTIVE, "deposit": 10, "panel": PANEL}, "ada"),
    TxKind.TRADE: ({"article": REVIEWED, "outcome": "PUBLISH", "shares": 3}, "cy"),
    TxKind.CONCLUDE_REVIEW: (
        {"article": REVIEWED, "votes": {"r1": "REVISE", "r2": "REVISE"}}, PLATFORM),
    TxKind.RAISE_OBJECTION: ({"article": CLAIMED, "stake": 3}, "ada"),
    TxKind.RESOLVE_DISPUTE: (
        {"dispute": f"{DISPUTED[:16]}:d1",
         "votes": {"p1": "uphold", "p2": "uphold", "p3": "uphold"}}, PLATFORM),
    TxKind.CLAIM_ARTICLE: ({"article": DISPUTED}, "ada"),
}


def genesis() -> ProtocolState:
    return ProtocolState(
        ProtocolConfig(initial_reserve=200, peers=PEERS.peers, market_liquidity=20.0)
    )


def commit(chain: Chain, txs) -> netchain.Block:
    pool = TxPool()
    for kind, payload, submitter in txs:
        submit_tx(pool, Transaction(chain.last_tx_id + 1 + len(pool), kind, payload,
                                    submitter), chain)
    result = produce_block(chain, pool, PEERS)
    assert result.committed
    return result.block


def warm_chain() -> Chain:
    chain = Chain(genesis())
    block = commit(chain, OPENING)
    assert all(r.status == APPLIED for r in block.txs)
    return chain


def writes(kinds):
    return [(kind, *WRITES[kind]) for kind in kinds]


def commit_each(chain: Chain, txs) -> None:
    """One block per transaction, each applied and digested like the oracle."""
    for tx in txs:
        block = commit(chain, [tx])
        assert block.txs[0].status == APPLIED, block.txs[0].error
        assert block.state_hash == full_state_hash(chain.tip)


@pytest.mark.parametrize("kind", list(netchain._RULES), ids=lambda kind: kind.value)
def test_each_kind_writes_a_matching_digest(kind):
    commit_each(warm_chain(), writes([kind]))


def test_clones_digest_their_own_writes():
    warm = warm_chain().tip
    before = state_hash(warm)
    first, second = warm.clone(), warm.clone()
    # A copy shares the cached fragments instead of encoding them again.
    assert first.ledger.accounts["bo"]._json is warm.ledger.accounts["bo"]._json
    for state, kinds in ((first, list(WRITES)), (second, reversed(WRITES))):
        for kind, payload, submitter in writes(kinds):
            netchain._execute(state, [Transaction(0, kind, payload, submitter)])
            assert state_hash(state) == full_state_hash(state)
    assert state_hash(first) != state_hash(second)
    assert state_hash(warm) == before == full_state_hash(warm)


def test_tip_rebuilt_after_a_fault_digests_later_writes(monkeypatch):
    chain = warm_chain()
    platform_only, fields, credit = netchain._RULES[TxKind.CREDIT]

    def faulty_credit(state, checked, submitter):
        if checked["user"] == "dee":
            raise ZeroDivisionError("fault")
        return credit(state, checked, submitter)

    monkeypatch.setitem(
        netchain._RULES, TxKind.CREDIT, (platform_only, fields, faulty_credit))
    with pytest.raises(ZeroDivisionError):
        commit(chain, writes(WRITES) + [(TxKind.CREDIT, {"user": "dee", "amount": 1},
                                         PLATFORM)])
    monkeypatch.undo()
    assert chain.height == 1
    assert state_hash(chain.tip) == full_state_hash(chain.tip) == chain.blocks[0].state_hash
    commit_each(chain, writes(WRITES))
    assert verify_chain(chain.blocks, genesis(), PEERS).ok
