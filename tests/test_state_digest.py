"""The kept state digest against its oracle, the whole state encoded again.

`state_hash` re-encodes only the keys written since the last digest.  Every
test here first digests a state, so that each section keeps its fragments,
then writes to entities, new or existing, and compares the digest with
`full_state_hash`.  A write path that does not record its key leaves that
key's fragment stale or missing, and the two digests part.  Each entity
writes its own fragment (`to_canonical_json`), checked here against
`json.dumps` of `to_canonical()`, with the canonical arguments, on generated
values.  The one `Section` class that keeps the state's sorted fragments and
each market's holdings is checked the same way, alone and in a market.
"""

import collections

import pytest
from hypothesis import given, strategies as st

from scholarchain import market, netchain
from scholarchain.errors import LifecycleError
from scholarchain.ledger import Account, TokenLedger
from scholarchain.lifecycle import (
    Article,
    ArticleState,
    ContentMetadata,
    Dispute,
    ProtocolConfig,
    ProtocolState,
    content_hash,
)
from scholarchain.market import OUTCOMES, Market, Section
from scholarchain.netchain import (
    APPLIED,
    PLATFORM,
    REJECTED,
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
from protocol_fuzz import FLOATS, TEXT, canonical_dumps, full_state_hash

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
#: Together they pass every key an operation records when it ticks, and the
#: ledger's credit, escrow (START_REVIEW) and escrow resolution (a revise
#: decision, an upheld dispute), each with nothing else recording the same.
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

#: The one write of an article by a dispute: a retraction.
RETRACTION = (TxKind.RESOLVE_DISPUTE, {
    "dispute": f"{DISPUTED[:16]}:d1",
    "votes": {"p1": "retract", "p2": "retract", "p3": "retract"}}, PLATFORM)


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


@pytest.mark.parametrize(
    "tx", [*writes(netchain._RULES), RETRACTION],
    ids=[*(kind.value for kind in netchain._RULES), "RESOLVE_DISPUTE-retract"])
def test_each_kind_writes_a_matching_digest(tx):
    commit_each(warm_chain(), [tx])


def test_clones_digest_their_own_writes():
    warm = warm_chain().tip
    before = state_hash(warm)
    first, second = warm.clone(), warm.clone()
    # A copy shares the kept fragment strings instead of encoding them again.
    for section, copied in zip(warm._sections, first._sections):
        assert copied.fragments == section.fragments
        assert all(a is b for a, b in zip(copied.fragments, section.fragments))
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


def early_title(before: str) -> str:
    """A title whose article hash sorts before `before`."""
    return next(title for title in (f"early {i}" for i in range(10_000))
                if content_hash(ContentMetadata(title, "", (("A", "ada"),))) < before)


def test_new_keys_sorting_first_are_inserted_in_order():
    chain = warm_chain()
    tip = chain.tip
    title = early_title(min(tip.articles))
    early = content_hash(ContentMetadata(title, "", (("A", "ada"),)))
    commit_each(chain, [
        (TxKind.CREDIT, {"user": "aaa", "amount": 20}, PLATFORM),
        (TxKind.CLAIM_ARTICLE, {"article": "0-first"}, "aaa"),
        (TxKind.RAISE_OBJECTION, {"article": "0-first", "stake": 2}, "bo"),
        (TxKind.SUBMIT_ARTICLE, {"title": title, "authors": [["A", "ada"]]}, "ada"),
        (TxKind.START_REVIEW, {"article": early, "deposit": 10, "panel": PANEL}, "ada"),
    ])
    assert min(tip.ledger.accounts) == "aaa"
    assert min(tip.articles) == "0-first"
    assert min(tip.disputes) == "0-first:d1"
    assert min(tip.markets) == f"{early[:16]}:r1"


def test_dispute_replaced_at_a_taken_id():
    # Both claimed hashes share their first 16 characters, so both disputes
    # get the id 'same-sixteen-chr:d1' and the second replaces the first.
    chain = warm_chain()
    commit_each(chain, [
        (TxKind.CLAIM_ARTICLE, {"article": "same-sixteen-chrsA"}, "cy"),
        (TxKind.CLAIM_ARTICLE, {"article": "same-sixteen-chrsB"}, "cy"),
        (TxKind.RAISE_OBJECTION, {"article": "same-sixteen-chrsA", "stake": 5}, "bo"),
        (TxKind.RAISE_OBJECTION, {"article": "same-sixteen-chrsB", "stake": 7}, "ada"),
    ])
    assert chain.tip.disputes["same-sixteen-chr:d1"].stake == 7


def count_encodes(monkeypatch) -> collections.Counter:
    """Count each entity's `to_canonical_json` calls, by class name, from now on."""
    calls = collections.Counter()
    for cls in (Account, Article, Dispute, Market):
        def counted(self, encode=cls.to_canonical_json, name=cls.__name__):
            calls[name] += 1
            return encode(self)
        monkeypatch.setattr(cls, "to_canonical_json", counted)
    return calls


def test_rejected_transactions_encode_no_entity(monkeypatch):
    # Each looks up an existing entity, then is refused, so it wrote nothing.
    chain = warm_chain()
    calls = count_encodes(monkeypatch)
    block = commit(chain, [
        (TxKind.START_REVIEW, {"article": ACTIVE, "deposit": 1, "panel": PANEL}, "ada"),
        (TxKind.TRADE, {"article": REVIEWED, "outcome": "PUBLISH", "shares": 10**6}, "cy"),
        (TxKind.CONCLUDE_REVIEW, {"article": REVIEWED, "votes": {"r1": "REVISE"}}, PLATFORM),
        (TxKind.RESOLVE_DISPUTE, {"dispute": f"{DISPUTED[:16]}:d1",
                                  "votes": {"p1": "uphold"}}, PLATFORM),
        (TxKind.CLAIM_ARTICLE, {"article": CLAIMED}, "cy"),
    ])
    assert [r.status for r in block.txs] == [REJECTED] * 5
    assert calls == {}
    monkeypatch.undo()
    assert block.state_hash == full_state_hash(chain.tip)
    commit_each(chain, writes(WRITES))


def test_clone_writes_leave_the_original_digest():
    chain = warm_chain()
    warm = chain.tip
    before = state_hash(warm)
    copy = warm.clone()
    new_keys = [
        (TxKind.CREDIT, {"user": "aaa", "amount": 20}, PLATFORM),
        (TxKind.CLAIM_ARTICLE, {"article": "0-first"}, "aaa"),
        (TxKind.RAISE_OBJECTION, {"article": "0-first", "stake": 2}, "bo"),
    ]
    for kind, payload, submitter in new_keys + writes(WRITES):
        netchain._execute(copy, [Transaction(0, kind, payload, submitter)])
        assert state_hash(copy) == full_state_hash(copy)
    assert state_hash(warm) == before == full_state_hash(warm)
    commit_each(chain, writes(WRITES))


@pytest.mark.parametrize("tx, encoded", [
    ((TxKind.CREDIT, {"user": "u01000", "amount": 1}, PLATFORM), {"Account": 1}),
    ((TxKind.CREDIT, {"user": "u99999", "amount": 1}, PLATFORM), {"Account": 1}),
    (*writes([TxKind.TRADE]), {"Account": 1, "Market": 1}),
], ids=["existing", "new", "trade"])
def test_one_credit_encodes_one_account(monkeypatch, tx, encoded):
    # O(writes), not O(state): after a digest of 2000 accounts, a block with
    # one transaction encodes only the entities it wrote: a CREDIT its one
    # account, a TRADE its buyer and its market but not the article it names.
    chain = warm_chain()
    commit(chain, [(TxKind.CREDIT, {"user": f"u{i:05d}", "amount": 1}, PLATFORM)
                   for i in range(2000)])
    calls = count_encodes(monkeypatch)
    block = commit(chain, [tx])
    assert block.txs[0].status == APPLIED
    assert calls == encoded
    monkeypatch.undo()
    assert block.state_hash == full_state_hash(chain.tip)


def buy(user: str, shares: float, outcome: str = "PUBLISH"):
    return (TxKind.TRADE, {"article": REVIEWED, "outcome": outcome, "shares": shares}, user)


def credit(user: str):
    return (TxKind.CREDIT, {"user": user, "amount": 50}, PLATFORM)


@pytest.mark.parametrize("block, txs", [
    # "ab0:PUBLISH" sorts before "ab:PUBLISH": both are first written in one
    # block, then each is written again.
    ([credit("ab"), credit("ab0"), buy("ab", 1), buy("ab0", 1)],
     [buy("ab", 2, "REVISE"), buy("ab0", -1), buy("ab0", 1, "REVISE"), buy("ab", 1)]),
    # bo holds 2 PUBLISH shares from the opening block.
    ([buy("cy", 1)], [buy("bo", -2), buy("bo", 1)]),
    ([buy("cy", 1)], [
        (TxKind.CONCLUDE_REVIEW, {
            "article": REVIEWED, "votes": {"r1": "REVISE", "r2": "REVISE"}}, PLATFORM),
        (TxKind.START_REVIEW, {"article": REVIEWED, "deposit": 10, "panel": PANEL}, "ada"),
        buy("bo", 1), buy("cy", 2), buy("bo", -1)]),
], ids=["string-order", "sold-to-zero", "resolved"])
def test_market_holdings_splice_matches_the_oracle(block, txs):
    # The block is the market's first write since the chain's first digest,
    # so the market encodes every holding it has; each later one splices.
    chain = warm_chain()
    assert commit(chain, block).state_hash == full_state_hash(chain.tip)
    commit_each(chain, txs)


@pytest.mark.parametrize("holders", [10, 2000])
def test_one_trade_encodes_one_holding(monkeypatch, holders):
    # O(writes), not O(holdings): once a market keeps its holdings'
    # fragments, a TRADE encodes again only the one holding it wrote.
    chain = warm_chain()
    users = [f"t{i:04d}" for i in range(holders)]
    commit(chain, [credit(user) for user in users])
    block = commit(chain, [buy(user, 1) for user in users])
    assert all(r.status == APPLIED for r in block.txs)
    calls = collections.Counter()

    def counted(section, key, body, fragment=Section._fragment):
        calls[key] += 1
        return fragment(section, key, body)

    monkeypatch.setattr(Section, "_fragment", counted)
    block = commit(chain, writes([TxKind.TRADE]))
    assert block.txs[0].status == APPLIED
    # The buyer's account, the market, and one holding of the market's.
    assert calls == {"cy": 1, f"{REVIEWED[:16]}:r1": 1, "cy:PUBLISH": 1}
    monkeypatch.undo()
    assert block.state_hash == full_state_hash(chain.tip)
    assert len(chain.tip.markets[f"{REVIEWED[:16]}:r1"].holdings) == holders + 2


@pytest.mark.parametrize("operation", [
    lambda state: state.submit_article(ContentMetadata("new", "", (("C", "cy"),)), 7),
    lambda state: state.comment(ACTIVE, 7, "h"),
    lambda state: state.comment(ACTIVE, "bo", None),
    lambda state: state.claim_published_article("claimed-anew", None, "cy"),
    lambda state: state.claim_published_article(CLAIMED, "", ["ada"]),
], ids=["submitter", "commenter", "text-hash", "doi", "claimant"])
def test_operations_refuse_ids_the_writers_cannot_encode(operation):
    # The writers encode ids, hashes and DOIs as JSON strings only; the
    # chain's payload schema already refuses anything else, and so does the
    # operation called directly, leaving the state and its digest unchanged.
    state = warm_chain().tip
    before = state_hash(state)
    with pytest.raises(LifecycleError, match="must be a string|must be strings"):
        operation(state)
    assert state_hash(state) == before == full_state_hash(state)


# Integers up to the ledger's bound; strings and floats as `protocol_fuzz`.
OPTIONAL_TEXT = st.none() | TEXT
INTS = st.integers(0, 2**256 - 1)
HOLDERS = TEXT | st.sampled_from(["ab", "ab0", "ab:", ""])

ACCOUNTS = st.builds(Account, INTS, INTS)
ARTICLES = st.builds(
    Article, TEXT, st.sampled_from(ArticleState), st.lists(TEXT), OPTIONAL_TEXT, INTS,
    OPTIONAL_TEXT, st.lists(TEXT).map(tuple), OPTIONAL_TEXT,
    st.lists(st.tuples(TEXT, INTS, TEXT)), INTS, INTS)
DISPUTES = st.builds(Dispute, TEXT, TEXT, TEXT, INTS, OPTIONAL_TEXT)
HOLDINGS = st.builds("{}:{}".format, HOLDERS, st.sampled_from(OUTCOMES))
MARKETS = st.builds(
    Market, TEXT, FLOATS, st.fixed_dictionaries({o: FLOATS for o in OUTCOMES}),
    st.dictionaries(HOLDINGS, FLOATS), st.none() | st.sampled_from(OUTCOMES), INTS)


@given(ACCOUNTS | ARTICLES | DISPUTES | MARKETS)
def test_each_writer_matches_the_oracle(entity):
    assert entity.to_canonical_json() == canonical_dumps(entity.to_canonical())


@given(TEXT, ACCOUNTS)
def test_an_account_fragment_is_keyed_by_its_quoted_id(uid, account):
    state = ProtocolState()
    state.ledger.credit("someone", 1)
    state.to_canonical_json()  # the first digest builds the sections
    state.ledger.accounts[uid] = account
    state.ledger.written[uid] = None
    assert state.to_canonical_json() == canonical_dumps(state.to_canonical())


@given(MARKETS, st.lists(st.tuples(HOLDINGS, st.just(0.0) | FLOATS)))
def test_a_market_splices_its_written_holdings(mkt, updates):
    mkt.to_canonical_json()  # keeps every holding's fragment
    for key, shares in updates:
        if shares == 0.0:  # as `market.trade` does
            mkt.holdings.pop(key, None)
        else:
            mkt.holdings[key] = shares
        mkt.written[key] = None
    assert mkt.to_canonical_json() == canonical_dumps(mkt.to_canonical())


def section_json(section: Section) -> str:
    text = section.text()
    return f"{{{text}}}" if section.keyed else f"[{text}]"


def section_oracle(entities: dict, keyed: bool) -> str:
    """`json.dumps` of the collection: an object, or its values in key order."""
    return canonical_dumps(entities if keyed else [entities[k] for k in sorted(entities)])


@pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "array"])
@pytest.mark.parametrize("built", ["from-bodies", "from-written"])
@pytest.mark.parametrize("key", ["a", "m", "z"], ids=["first", "middle", "last"])
def test_a_section_inserts_and_removes_keys_in_order(keyed, built, key):
    # A state's section is built from its entities' encodings, a market's
    # empty with every entity recorded as written.
    entities = {"c": 1.5, "k": 2.0, "x": 3.0}
    if built == "from-bodies":
        written, bodies = {}, {k: repr(entities[k]) for k in sorted(entities)}
    else:
        written, bodies = dict.fromkeys(entities), None
    section = Section(entities, written, repr, keyed, bodies)
    assert section_json(section) == section_oracle(entities, keyed)
    entities[key], written[key] = 4.0, None
    assert section_json(section) == section_oracle(entities, keyed)
    assert section.keys == sorted(entities)
    for gone in (key, "k", "never-held"):  # a written key whose value is gone
        entities.pop(gone, None)
        written[gone] = None
        assert section_json(section) == section_oracle(entities, keyed)
    assert section.keys == sorted(entities) == ["c", "x"]


def test_a_holding_sold_to_zero_loses_its_slot_until_bought_again():
    mkt, ledger = market.open_market(100.0), TokenLedger(10**6, {"bo": 1000, "cy": 1000})
    for uid, shares in (("bo", 2.0), ("cy", 1.0), ("bo", -2.0), ("bo", 3.0)):
        market.trade(mkt, ledger, uid, "PUBLISH", shares)
        assert mkt.to_canonical_json() == canonical_dumps(mkt.to_canonical())
        if uid == "bo" and shares < 0:
            assert "bo:PUBLISH" not in mkt.holdings
    assert mkt.holdings == {"bo:PUBLISH": 3.0, "cy:PUBLISH": 1.0}


def test_uids_that_share_a_prefix_keep_text_order_and_payouts():
    # "ab0:..." sorts before "ab:...", which sorts before "ab::...".
    uids = ["ab", "ab0", "ab:"]
    mkt, ledger = market.open_market(100.0), TokenLedger(10**6, dict.fromkeys(uids, 1000))
    for shares, outcome in ((2.0, "PUBLISH"), (1.0, "REVISE")):
        for uid in uids:
            market.trade(mkt, ledger, uid, outcome, shares)
            assert mkt.to_canonical_json() == canonical_dumps(mkt.to_canonical())
    assert mkt._holdings.keys == sorted(mkt.holdings) == [
        "ab0:PUBLISH", "ab0:REVISE", "ab::PUBLISH", "ab::REVISE", "ab:PUBLISH", "ab:REVISE"]
    assert list(market.payouts(mkt, "PUBLISH").items()) == [("ab", 2), ("ab0", 2), ("ab:", 2)]


def test_a_market_built_with_holdings_encodes_them():
    mkt = Market("m", 100.0, {"PUBLISH": 3.0, "REVISE": 2.0},
                 {"zed:PUBLISH": 3.0, "amy:REVISE": 2.0})
    assert mkt.to_canonical_json() == canonical_dumps(mkt.to_canonical())
    ledger = TokenLedger(10**6, {"bo": 1000})
    market.trade(mkt, ledger, "bo", "REVISE", 1.0)
    market.trade(mkt, ledger, "zed", "PUBLISH", -3.0)
    assert mkt.to_canonical_json() == canonical_dumps(mkt.to_canonical())
    assert list(mkt.holdings) == ["amy:REVISE", "bo:REVISE"]
