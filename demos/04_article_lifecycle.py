"""One article's life on the chain: submit, review, publish, retract.

Every step below is a transaction in a block that the proposer executes
once and four deterministic peers approve; replaying the exported chain is
the independent check.  The script
prints the ledger effects of each transition and finishes by verifying the
exported chain, tampering with one byte, and watching verification fail.
"""

from scholarchain import (
    Chain,
    ContentMetadata,
    PeerSet,
    ProtocolConfig,
    ProtocolState,
    Transaction,
    TxKind,
    TxPool,
    produce_block,
    submit_tx,
)
from scholarchain.netchain import export_chain, verify_export

PEERS = ("p1", "p2", "p3", "p4")
config = ProtocolConfig(initial_reserve=200, peers=PEERS, market_liquidity=20.0)
genesis = ProtocolState(config)
chain = Chain(genesis)
peer_set = PeerSet(PEERS)
pool = TxPool()
next_id = 0


def push(kind, payload, submitter):
    global next_id
    next_id += 1
    submit_tx(pool, Transaction(next_id, kind, payload, submitter), chain)


def commit(note):
    result = produce_block(chain, pool, peer_set)
    block = result.block
    flags = ", ".join(f"tx{r.tx.tx_id}:{r.status}" for r in block.txs)
    print(f"\nblock {block.height} ({note})  [{flags}]")
    print(f"  approvals: {len(block.approvals)}/{len(PEERS)}   "
          f"state: {block.state_hash[:16]}...")
    ledger = chain.tip.ledger
    print(f"  ada={ledger.balance('ada')} bo={ledger.balance('bo')} "
          f"cy={ledger.balance('cy')}  reserve={ledger.platform_reserve}")


# Fund three community members.
for user in ("ada", "bo", "cy"):
    push(TxKind.CREDIT, {"user": user, "amount": 100}, "platform")
commit("funding")

# Ada announces the paper; the content hash secures authorship on chain.
meta = {
    "title": "Modifiable papers under continuous review",
    "abstract": "The paper as a living contract.",
    "authors": [["Ada L", "ada"]],
    "institutions": ["Inst One"],
}
push(TxKind.SUBMIT_ARTICLE, meta, "ada")
commit("submission (ACTIVE)")
article_hash = next(iter(chain.tip.articles))
print(f"  article hash {article_hash[:24]}...")

# Review: deposit above the minimum, three reviewers, and a prediction
# market where commenting means buying PUBLISH or REVISE shares.
push(TxKind.START_REVIEW,
     {"article": article_hash, "deposit": 10, "panel": ["r1", "r2", "r3"]},
     "ada")
push(TxKind.TRADE,
     {"article": article_hash, "outcome": "PUBLISH", "shares": 6}, "bo")
push(TxKind.TRADE,
     {"article": article_hash, "outcome": "REVISE", "shares": 3}, "cy")
push(TxKind.TRADE,  # authors are barred from their own market
     {"article": article_hash, "outcome": "PUBLISH", "shares": 5}, "ada")
commit("review opens (UNDER_REVIEW); note ada's rejected trade")

# Two of three reviewers say publish: deposit back, reward minted,
# PUBLISH shares pay one token each.
push(TxKind.CONCLUDE_REVIEW,
     {"article": article_hash,
      "votes": {"r1": "PUBLISH", "r2": "PUBLISH", "r3": "REVISE"}},
     "platform")
commit("decision: publish (PUBLISHED)")

# The community can still challenge: cy stakes tokens on an objection and
# the trusted peers vote to retract.
push(TxKind.RAISE_OBJECTION, {"article": article_hash, "stake": 5}, "cy")
commit("objection staked (still PUBLISHED)")
dispute_id = next(iter(chain.tip.disputes))
push(TxKind.RESOLVE_DISPUTE,
     {"dispute": dispute_id,
      "votes": {"p1": "retract", "p2": "retract", "p3": "retract"}},
     "platform")
commit("peers retract (RETRACTED, terminal)")

article = chain.tip.articles[article_hash]
print(f"\nfinal article state: {article.state.value}")
print(f"ledger conservation gap: {chain.tip.ledger.conservation_gap()}")

# Replay the exported chain from genesis, then corrupt a single byte.
text = export_chain(chain.blocks)
print(f"\nexported {chain.height} blocks, {len(text)} bytes")
print(f"verify untampered: {verify_export(text, genesis, peer_set).ok}")
tampered = bytearray(text.encode())
tampered[len(tampered) // 2] ^= 0x01
result = verify_export(tampered.decode(errors="surrogateescape"), genesis, peer_set)
print(f"verify after flipping one byte: {result.ok} ({result.reason})")
