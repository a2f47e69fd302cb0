"""Chain-level fuzz: arbitrary JSON payloads for every kind and submitter.

Each example commits a fixed opening block (funded users, an article under
review, an active one, and a published one with an open dispute), then
blocks of arbitrary transactions, then three fixed closing acts, through `submit_tx` -> `produce_block` ->
`export_chain` -> `verify_export`.  After every block nothing has raised,
the block's cached state digest equals the whole state encoded again, the
exported chain verifies (rejection reasons included), tokens are
conserved, and every article moved only along legal transitions, checked
one transaction at a time on a replayed copy, where each transaction
replays to its recorded status and reason and each rejected one leaves the
state digest as it was, cached and encoded again alike.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from scholarchain.errors import ProtocolError
from scholarchain.lifecycle import (
    ArticleState,
    ContentMetadata,
    ProtocolConfig,
    ProtocolState,
    content_hash,
)
from scholarchain.netchain import (
    APPLIED,
    PLATFORM,
    REJECTED,
    Chain,
    PeerSet,
    Transaction,
    TxKind,
    TxPool,
    apply_tx,
    export_chain,
    produce_block,
    state_hash,
    submit_tx,
    verify_export,
)
from protocol_fuzz import LEGAL_TRANSITIONS, full_state_hash

PEERS = PeerSet(("p1", "p2", "p3", "p4"))
USERS = ("ada", "bo", "cy", PLATFORM)
PANEL = ("r1", "r2", "r3")
REVIEWED = content_hash(ContentMetadata("fuzzed", "x", (("A", "ada"),)))
FRESH = content_hash(ContentMetadata("t1", "", (("A", "ada"),)))
CLAIMED = "published-elsewhere"
DISPUTE = f"{CLAIMED[:16]}:d1"

OPENING = [
    *((TxKind.CREDIT, {"user": u, "amount": 100}, PLATFORM) for u in USERS[:3]),
    (TxKind.SUBMIT_ARTICLE,
     {"title": "fuzzed", "abstract": "x", "authors": [["A", "ada"]]}, "ada"),
    (TxKind.START_REVIEW,
     {"article": REVIEWED, "deposit": 10, "panel": list(PANEL)}, "ada"),
    (TxKind.SUBMIT_ARTICLE, {"title": "t1", "authors": [["A", "ada"]]}, "ada"),
    (TxKind.CLAIM_ARTICLE, {"article": CLAIMED}, "cy"),
    (TxKind.RAISE_OBJECTION, {"article": CLAIMED, "stake": 5}, "bo"),
]

# Fuzzed decisions rarely carry a winning vote and fuzzed reviews rarely
# start, so each example ends with three acts, each alone in its block: the
# dispute upheld, the review sent back and the active article put under
# review.  Each applies if the fuzzed blocks left its article as it was.
CLOSING = [
    [(TxKind.RESOLVE_DISPUTE,
      {"dispute": DISPUTE, "votes": dict.fromkeys(PEERS.peers, "uphold")}, PLATFORM)],
    [(TxKind.CONCLUDE_REVIEW,
      {"article": REVIEWED, "votes": dict.fromkeys(PANEL, "REVISE")}, PLATFORM)],
    [(TxKind.START_REVIEW, {"article": FRESH, "deposit": 6, "panel": list(PANEL)}, "ada")],
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


# Values that some state lets an operation accept, per payload field;
# unusable ones come from the arbitrary JSON mixed in below.
USABLE = {
    "amount": st.sampled_from((1, 50)),
    "source": st.sampled_from(("mint", "reserve")),
    "title": st.sampled_from(("t2", "t3")),
    "abstract": st.just("y"),
    "authors": st.sampled_from(([["A", "bo"]], [["B", "cy"], ["C", "bo"]])),
    "institutions": st.just(["I"]),
    "article": st.sampled_from((REVIEWED, FRESH, CLAIMED)),
    "text_hash": st.just("h"),
    "deposit": st.sampled_from((6, 20)),
    "panel": st.just(list(PANEL)),
    "outcome": st.sampled_from(("PUBLISH", "REVISE")),
    "shares": st.sampled_from((1e-300, 0.5, 3, 40, -0.5)),
    "votes": st.dictionaries(
        st.sampled_from(PANEL), st.sampled_from(("PUBLISH", "REVISE")), min_size=2
    ) | st.dictionaries(
        st.sampled_from(PEERS.peers), st.sampled_from(("retract", "uphold")), min_size=3
    ),
    "stake": st.sampled_from((1, 7)),
    "dispute": st.sampled_from((DISPUTE, f"{FRESH[:16]}:d1")),
    "doi": st.just("10.1/x"),
}
USABLE_OR_ANY = {f: v | json_values for f, v in USABLE.items()}
# The fields each kind reads without a default.
REQUIRED = {
    TxKind.CREDIT: ("user", "amount"),
    TxKind.SUBMIT_ARTICLE: ("title", "authors"),
    TxKind.COMMENT: ("article", "text_hash"),
    TxKind.START_REVIEW: ("article", "deposit", "panel"),
    TxKind.TRADE: ("article", "outcome", "shares"),
    TxKind.CONCLUDE_REVIEW: ("article", "votes"),
    TxKind.RAISE_OBJECTION: ("article", "stake"),
    TxKind.RESOLVE_DISPUTE: ("dispute", "votes"),
    TxKind.CLAIM_ARTICLE: ("article",),
}


def payloads(kind: TxKind, submitter: str):
    """The kind's fields holding usable values, or usable values and any JSON,
    or any JSON object at all.

    Usable values let operations get past their checks often enough to move
    the state; any other known field may be present too.  A usable "user" is
    the submitter.
    """
    def shaped(values):
        return st.fixed_dictionaries(
            {f: values[f] for f in REQUIRED[kind]},
            optional={f: v for f, v in values.items() if f not in REQUIRED[kind]},
        )

    user = st.just(submitter)
    return st.one_of(
        shaped({**USABLE, "user": user}),
        shaped({**USABLE_OR_ANY, "user": user | st.sampled_from(USERS) | json_values}),
        st.dictionaries(st.text(max_size=4), json_values, max_size=4),
    )


submitters = st.one_of(
    st.just(PLATFORM), st.sampled_from(USERS[:3]), st.text(min_size=1, max_size=4)
)
transactions = st.tuples(st.sampled_from(list(TxKind)), submitters).flatmap(
    lambda ks: st.tuples(st.just(ks[0]), payloads(*ks), st.just(ks[1]))
)
blocks = st.lists(st.lists(transactions, min_size=1, max_size=4), min_size=1, max_size=4)


def genesis() -> ProtocolState:
    return ProtocolState(
        ProtocolConfig(initial_reserve=200, peers=PEERS.peers, market_liquidity=20.0)
    )


@given(blocks)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_arbitrary_transactions_keep_the_chain_sound(fuzzed_blocks):
    chain = Chain(genesis())
    replay = genesis()
    tx_id = 0
    for block in [OPENING] + fuzzed_blocks + CLOSING:
        pool = TxPool()
        for kind, payload, submitter in block:
            tx_id += 1
            submit_tx(pool, Transaction(tx_id, kind, payload, submitter), chain)
        result = produce_block(chain, pool, PEERS)
        assert result.committed
        assert result.block.state_hash == full_state_hash(chain.tip)
        if block is OPENING:
            assert all(r.status == APPLIED for r in result.block.txs)

        for record in result.block.txs:
            before = {h: a.state for h, a in replay.articles.items()}
            digest = state_hash(replay) if record.status == REJECTED else None
            try:
                apply_tx(replay, record.tx)
                status, error = APPLIED, ""
            except ProtocolError as exc:
                status, error = REJECTED, str(exc)
            assert (status, error) == (record.status, record.error)
            if status == REJECTED:
                # Blocks execute in place on the tip: a rejection must change nothing.
                assert state_hash(replay) == digest == full_state_hash(replay)
            for h, article in replay.articles.items():
                if h in before:
                    assert (before[h], article.state) in LEGAL_TRANSITIONS
                else:
                    assert article.state in (ArticleState.ACTIVE, ArticleState.PUBLISHED)
        assert chain.tip.ledger.conservation_gap() == 0
        assert verify_export(export_chain(chain.blocks), genesis(), PEERS).ok
