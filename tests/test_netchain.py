"""Tests for block production, quorum approval, replay and tampering."""

import hashlib
import json
import re

import pytest
from hypothesis import given, strategies as st

from scholarchain import netchain
from scholarchain.errors import ChainError, ProtocolError
from scholarchain.lifecycle import ProtocolConfig, ProtocolState, canonical_json
from scholarchain.netchain import (
    APPLIED,
    REJECTED,
    Block,
    Chain,
    PeerSet,
    Transaction,
    TxKind,
    TxPool,
    TxRecord,
    export_chain,
    import_chain,
    produce_block,
    state_hash,
    submit_tx,
    verify_chain,
    verify_export,
)
from protocol_fuzz import FLOATS, TEXT, canonical_dumps, int_digit_limit

PEERS = PeerSet(("p1", "p2", "p3", "p4"))


def genesis() -> ProtocolState:
    return ProtocolState(
        ProtocolConfig(initial_reserve=200, peers=PEERS.peers, market_liquidity=20.0)
    )


def credit_tx(tx_id, user, amount=50):
    return Transaction(tx_id, TxKind.CREDIT, {"user": user, "amount": amount}, "platform")


def submit_article_tx(tx_id, user="ada", title="on reviewing"):
    payload = {"title": title, "abstract": "x", "authors": [["A", user]]}
    return Transaction(tx_id, TxKind.SUBMIT_ARTICLE, payload, user)


def pool_with(chain, *txs):
    pool = TxPool()
    for tx in txs:
        submit_tx(pool, tx, chain)
    return pool


def nested_list(depth):
    value = 0
    for _ in range(depth):
        value = [value]
    return value


class TestPeerSet:
    def test_quorum_formula(self):
        assert PeerSet(("a",)).quorum == 1
        assert PeerSet(("a", "b", "c")).quorum == 3
        assert PeerSet(("a", "b", "c", "d")).quorum == 3
        assert PeerSet(tuple(f"p{i}" for i in range(7))).quorum == 5

    def test_empty_rejected(self):
        with pytest.raises(ChainError):
            PeerSet(())

    @pytest.mark.parametrize("peers", [(1, 2, 3, 4), ("p1", ""), ("p1", None)],
                             ids=["int-ids", "empty-id", "none-id"])
    def test_peer_ids_must_be_nonempty_strings(self, peers):
        # An export writes approvals as peer ids, and import reads back strings only.
        with pytest.raises(ChainError, match="peer ids must be non-empty strings"):
            PeerSet(peers)


class TestSubmitTx:
    def test_fifo_order(self):
        chain = Chain(genesis())
        pool = pool_with(chain, credit_tx(1, "ada"), credit_tx(2, "bo"), credit_tx(3, "cy"))
        assert [t.tx_id for t in pool.pending] == [1, 2, 3]

    def test_malformed_payload_rejected(self):
        with pytest.raises(ChainError):
            submit_tx(TxPool(), Transaction(1, TxKind.CREDIT, "not-a-dict", "x"),
                      Chain(genesis()))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ChainError):
            submit_tx(TxPool(), Transaction(1, "MAGIC", {}, "x"), Chain(genesis()))

    def test_duplicate_tx_id_rejected(self):
        chain = Chain(genesis())
        pool = pool_with(chain, credit_tx(1, "ada"))
        with pytest.raises(ChainError):
            submit_tx(pool, credit_tx(1, "bo"), chain)

    def test_the_chain_is_required(self):
        # Without its chain, a pool admitted a committed id, and every later
        # block then refused the pool, even after id 2 was added.
        chain = Chain(genesis())
        produce_block(chain, pool_with(chain, credit_tx(1, "ada")), PEERS)
        pool = TxPool()
        with pytest.raises(TypeError):
            submit_tx(pool, credit_tx(1, "bo"))
        assert len(pool) == 0
        submit_tx(pool, credit_tx(2, "bo"), chain)
        assert produce_block(chain, pool, PEERS).committed
        assert chain.tip.ledger.balance("bo") == 50

    def test_ids_strictly_increase_across_blocks(self):
        chain = Chain(genesis())
        pool = pool_with(chain, credit_tx(1, "ada"))
        produce_block(chain, pool, PEERS)
        with pytest.raises(ChainError):
            submit_tx(pool, credit_tx(1, "bo"), chain)
        submit_tx(pool, credit_tx(2, "bo"), chain)

    @pytest.mark.parametrize("payload", [
        {"user": "a", "amount": 5, "source": {1}},
        {"user": "a", 1: 5},
        {"user": float},
        {"user": "a", "amount": float("nan")},
        {"user": "a", "amount": float("-inf")},
    ], ids=["set-value", "mixed-key-types", "class-value", "nan-value", "infinite-value"])
    def test_payload_json_cannot_encode_rejected(self, payload):
        chain = Chain(genesis())
        pool = TxPool()
        with pytest.raises(ChainError, match="not encodable as JSON"):
            submit_tx(pool, Transaction(1, TxKind.CREDIT, payload, "platform"), chain)
        assert len(pool) == 0
        submit_tx(pool, credit_tx(2, "ada"), chain)
        assert produce_block(chain, pool, PEERS).committed

    @pytest.mark.parametrize("payload", [
        {"article": "a", "votes": {1: "PUBLISH", 2: "PUBLISH"}},
        {"article": "a", "votes": [{"r1": {3: "x"}}]},
        {"article": "a", "votes": {10**4300: "PUBLISH"}},
    ], ids=["int-keys", "nested-int-key", "4301-digit-key"])
    def test_non_string_payload_key_rejected(self, payload):
        # Export would turn the key into a string, so the honest chain's
        # replay would diverge from what was executed.
        pool = TxPool()
        with pytest.raises(ChainError, match="is not a string"):
            submit_tx(pool, Transaction(1, TxKind.CONCLUDE_REVIEW, payload, "platform"),
                      Chain(genesis()))
        assert len(pool) == 0

    @pytest.mark.parametrize("digits_limit", [640, 4300, 0],
                             ids=["lowest-limit", "default-limit", "no-limit"])
    def test_integers_past_640_digits_rejected(self, digits_limit):
        # The bound is fixed, so admission does not depend on the interpreter's
        # limit, and what is admitted is written and read back under any limit.
        chain = Chain(genesis())
        pool = TxPool()
        with int_digit_limit(digits_limit):
            with pytest.raises(ChainError, match="tx id must be a non-negative integer"):
                submit_tx(pool, credit_tx(10**640, "ada"), chain)
            for tx_id, note in enumerate((10**640, -10**640), start=1):
                payload = {"user": "ada", "amount": 5, "note": note}
                with pytest.raises(ChainError, match="integer over 640 digits"):
                    submit_tx(pool, Transaction(tx_id, TxKind.CREDIT, payload, "platform"),
                              chain)
            assert len(pool) == 0
            longest = {"user": "ada", "amount": 5, "note": 1 - 10**640}
            submit_tx(pool, Transaction(10**640 - 1, TxKind.CREDIT, longest, "platform"),
                      chain)
            assert produce_block(chain, pool, PEERS).committed
            assert verify_export(export_chain(chain.blocks), genesis(), PEERS).ok

    def test_stake_admitted_is_sealed_under_the_lowest_limit(self):
        # A 1000-digit stake was admitted, and under a 640-digit limit the seal
        # raised on every try, so the pool was never cleared.
        def objection(tx_id, stake):
            payload = {"article": "elsewhere", "stake": stake}
            return Transaction(tx_id, TxKind.RAISE_OBJECTION, payload, "bo")

        chain = Chain(genesis())
        claim = Transaction(1, TxKind.CLAIM_ARTICLE, {"article": "elsewhere"}, "ada")
        produce_block(chain, pool_with(chain, claim), PEERS)
        pool = TxPool()
        with int_digit_limit(640):
            with pytest.raises(ChainError, match="integer over 640 digits"):
                submit_tx(pool, objection(2, 10**999), chain)
            submit_tx(pool, objection(3, 10**640 - 1), chain)
            result = produce_block(chain, pool, PEERS)
            assert result.committed and not pool.pending
            [record] = result.block.txs
            assert (record.tx.tx_id, record.status) == (3, REJECTED)
            assert record.error.startswith("'bo' cannot cover the stake of 999")
            assert verify_export(export_chain(chain.blocks), genesis(), PEERS).ok

    def test_payload_nesting_is_bounded(self):
        # The payload object is the first of the containers counted.
        deep, deepest = {"note": nested_list(16)}, {"note": nested_list(15)}
        chain, pool = Chain(genesis()), TxPool()
        with pytest.raises(ChainError, match="nests more than 16 containers"):
            submit_tx(pool, Transaction(1, TxKind.CREDIT, deep, "platform"), chain)
        submit_tx(pool, Transaction(2, TxKind.CREDIT, deepest, "platform"), chain)
        assert produce_block(chain, pool, PEERS).committed
        assert verify_export(export_chain(chain.blocks), genesis(), PEERS).ok

    def test_last_tx_id_tracks_committed_blocks_only(self):
        chain = Chain(genesis())
        assert chain.last_tx_id == -1
        produce_block(chain, pool_with(chain, credit_tx(1, "ada"), credit_tx(4, "bo")), PEERS)
        assert chain.last_tx_id == 4
        produce_block(
            chain, pool_with(chain, credit_tx(7, "cy")), PEERS, faulty_peers={"p1", "p2"}
        )
        assert chain.last_tx_id == 4


class TestProduceBlock:
    def test_honest_unanimity_commits(self):
        chain = Chain(genesis())
        result = produce_block(chain, pool_with(chain, credit_tx(1, "ada")), PEERS)
        assert result.committed
        assert len(result.block.approvals) == 4
        assert chain.tip.ledger.balance("ada") == 50

    def test_two_faulty_peers_block_commit(self):
        chain = Chain(genesis())
        pool = pool_with(chain, credit_tx(1, "ada"))
        result = produce_block(chain, pool, PEERS, faulty_peers={"p1", "p2"})
        assert not result.committed
        assert chain.blocks == []
        assert len(pool.pending) == 1  # pool retained for a retry
        assert chain.tip.ledger.balance("ada") == 0

    def test_one_faulty_peer_still_commits(self):
        chain = Chain(genesis())
        result = produce_block(
            chain, pool_with(chain, credit_tx(1, "ada")), PEERS, faulty_peers={"p4"}
        )
        assert result.committed
        assert result.block.approvals == ("p1", "p2", "p3")

    def test_invalid_tx_recorded_as_rejected_and_state_neutral(self):
        chain = Chain(genesis())
        bad = Transaction(
            2, TxKind.RAISE_OBJECTION, {"article": "x", "stake": 10}, "pauper"
        )
        result = produce_block(chain, pool_with(chain, credit_tx(1, "ada"), bad), PEERS)
        assert result.committed
        statuses = [r.status for r in result.block.txs]
        assert statuses == [APPLIED, REJECTED]
        assert "no article with hash" in result.block.txs[1].error
        assert chain.tip.ledger.escrowed("pauper") == 0
        assert chain.tip.disputes == {}

    def test_rejected_txs_do_not_affect_state_hash(self):
        chain_a = Chain(genesis())
        produce_block(
            chain_a,
            pool_with(chain_a, credit_tx(1, "ada"),
                      Transaction(2, TxKind.CREDIT, {"user": "ada", "amount": 999},
                                  "ada")),
            PEERS,
        )
        chain_b = Chain(genesis())
        produce_block(chain_b, pool_with(chain_b, credit_tx(1, "ada")), PEERS)
        assert chain_a.blocks[0].state_hash == chain_b.blocks[0].state_hash

    def test_reused_committed_id_refused_and_pool_kept(self):
        # Filled past the gate, the pool holds an id the chain committed.
        chain = Chain(genesis())
        produce_block(chain, pool_with(chain, credit_tx(0, "ada")), PEERS)
        pool = TxPool()
        pool.pending.append(credit_tx(0, "bo"))
        with pytest.raises(ChainError, match="tx id 0 is not strictly increasing"):
            produce_block(chain, pool, PEERS)
        assert [t.tx_id for t in pool.pending] == [0]
        assert chain.height == 1
        assert chain.tip.ledger.balance("bo") == 0
        assert verify_export(export_chain(chain.blocks), genesis(), PEERS).ok

    def test_empty_pool_rejected(self):
        with pytest.raises(ChainError):
            produce_block(Chain(genesis()), TxPool(), PEERS)

    def test_unauthorized_submitter_rejected(self):
        chain = Chain(genesis())
        impersonation = Transaction(
            2, TxKind.CREDIT, {"user": "mallory", "amount": 10}, "platform"
        )
        forged = Transaction(
            3, TxKind.TRADE,
            {"article": "x", "outcome": "PUBLISH", "shares": 1, "user": "victim"},
            "mallory",
        )
        self_mint = Transaction(
            4, TxKind.CREDIT, {"user": "mallory", "amount": 10**9}, "mallory"
        )
        result = produce_block(
            chain,
            pool_with(chain, credit_tx(1, "ada"), impersonation, forged, self_mint),
            PEERS,
        )
        assert result.block.txs[1].status == APPLIED  # platform op, unrestricted
        assert result.block.txs[2].status == REJECTED
        assert "cannot act for" in result.block.txs[2].error
        assert result.block.txs[3].status == REJECTED
        assert "platform operation" in result.block.txs[3].error
        assert chain.tip.ledger.balance("mallory") == 10
        assert chain.tip.ledger.minted_total == 60

    def test_malformed_payload_values_recorded_as_rejected(self):
        bad_trade = Transaction(
            2, TxKind.TRADE,
            {"article": "x", "outcome": "PUBLISH", "shares": "abc"}, "ada",
        )
        bad_votes = Transaction(
            3, TxKind.CONCLUDE_REVIEW, {"article": "x", "votes": ["abc"]}, "platform"
        )
        huge_trade = Transaction(
            4, TxKind.TRADE,
            {"article": "x", "outcome": "PUBLISH", "shares": 10**400}, "ada",
        )
        chain = Chain(genesis())
        result = produce_block(
            chain, pool_with(chain, credit_tx(1, "ada"), bad_trade, bad_votes, huge_trade),
            PEERS,
        )
        assert result.committed
        assert [r.status for r in result.block.txs] == [APPLIED] + [REJECTED] * 3
        assert [r.error for r in result.block.txs[1:]] == [
            "bad payload for TRADE: field 'shares' must be a number",
            "bad payload for CONCLUDE_REVIEW: field 'votes' must be an object",
            "bad payload for TRADE: field 'shares' must be a number",
        ]
        clean = Chain(genesis())
        produce_block(clean, pool_with(clean, credit_tx(1, "ada")), PEERS)
        assert state_hash(chain.tip) == state_hash(clean.tip)
        assert verify_chain(chain.blocks, genesis(), PEERS).ok

    @pytest.mark.parametrize("kind, payload, reason", [
        (TxKind.SUBMIT_ARTICLE, {"title": "t", "authors": ["xy"]},
         "authors must be (display name, user id) string pairs"),
        (TxKind.SUBMIT_ARTICLE,
         {"title": "t", "authors": [["A", "ada"]], "institutions": "MIT"},
         "bad payload for SUBMIT_ARTICLE: field 'institutions' must be a list"),
        (TxKind.TRADE, {"outcome": "PUBLISH", "shares": True},
         "bad payload for TRADE: field 'shares' must be a number"),
        (TxKind.COMMENT, {"text_hash": {"x": [1]}},
         "bad payload for COMMENT: field 'text_hash' must be a string"),
        (TxKind.CLAIM_ARTICLE, {"article": "elsewhere", "doi": [5]},
         "bad payload for CLAIM_ARTICLE: field 'doi' must be a string"),
    ], ids=["author-string", "institutions-string", "shares-bool", "comment-hash-object",
            "doi-list"])
    def test_wrong_shape_payload_recorded_as_rejected(self, kind, payload, reason):
        chain = Chain(genesis())
        produce_block(chain, pool_with(
            chain, credit_tx(1, "ada"), credit_tx(2, "bo"), submit_article_tx(3)), PEERS)
        article = next(iter(chain.tip.articles))
        produce_block(chain, pool_with(chain, Transaction(
            4, TxKind.START_REVIEW,
            {"article": article, "deposit": 10, "panel": ["r1", "r2", "r3"]}, "ada",
        )), PEERS)
        before = state_hash(chain.tip)
        submitter = "ada" if kind is TxKind.SUBMIT_ARTICLE else "bo"
        tx = Transaction(5, kind, {"article": article, **payload}, submitter)
        result = produce_block(chain, pool_with(chain, tx), PEERS)
        assert [(r.status, r.error) for r in result.block.txs] == [(REJECTED, reason)]
        assert state_hash(chain.tip) == before
        assert verify_chain(chain.blocks, genesis(), PEERS).ok

    def test_buy_below_float_precision_costs_one_token(self):
        chain = Chain(genesis())
        produce_block(chain, pool_with(
            chain, credit_tx(1, "ada"), credit_tx(2, "bo"), submit_article_tx(3)), PEERS)
        article = next(iter(chain.tip.articles))
        start = Transaction(
            4, TxKind.START_REVIEW,
            {"article": article, "deposit": 10, "panel": ["r1", "r2", "r3"]}, "ada",
        )
        tiny = Transaction(
            5, TxKind.TRADE,
            {"article": article, "outcome": "PUBLISH", "shares": 1e-300}, "bo",
        )
        reserve = chain.tip.ledger.platform_reserve
        result = produce_block(chain, pool_with(chain, start, tiny), PEERS)
        assert [r.status for r in result.block.txs] == [APPLIED, APPLIED]
        assert chain.tip.ledger.balance("bo") == 49
        assert chain.tip.ledger.platform_reserve == reserve + 1
        assert chain.tip.ledger.conservation_gap() == 0
        assert verify_chain(chain.blocks, genesis(), PEERS).ok

    def test_executes_once_per_committed_block(self, monkeypatch):
        chain = Chain(genesis())
        calls = {"clone": 0, "digest": 0}
        clone, digest = ProtocolState.clone, netchain.state_hash

        def counting_clone(state):
            calls["clone"] += 1
            return clone(state)

        def counting_digest(state):
            calls["digest"] += 1
            return digest(state)

        monkeypatch.setattr(ProtocolState, "clone", counting_clone)
        monkeypatch.setattr(netchain, "state_hash", counting_digest)
        pool = pool_with(chain, credit_tx(1, "ada"), submit_article_tx(2))
        result = produce_block(chain, pool, PEERS, faulty_peers={"p1", "p2"})
        assert not result.committed
        assert calls == {"clone": 0, "digest": 0}
        result = produce_block(chain, pool, PEERS, faulty_peers={"p4"})
        assert result.committed
        assert calls == {"clone": 0, "digest": 1}
        produce_block(chain, pool_with(chain, credit_tx(3, "bo")), PEERS)
        assert calls == {"clone": 0, "digest": 2}

    def test_program_fault_mid_block_rebuilds_tip(self, monkeypatch):
        chain = Chain(genesis())
        produce_block(
            chain, pool_with(chain, credit_tx(1, "ada"), submit_article_tx(2)), PEERS)
        platform_only, fields, credit = netchain._RULES[TxKind.CREDIT]

        def faulty_credit(state, checked, submitter):
            if checked["user"] == "cy":
                raise ZeroDivisionError("fault")
            return credit(state, checked, submitter)

        monkeypatch.setitem(
            netchain._RULES, TxKind.CREDIT, (platform_only, fields, faulty_credit))
        pool = pool_with(chain, credit_tx(3, "bo"), credit_tx(4, "cy"), credit_tx(5, "dee"))
        with pytest.raises(ZeroDivisionError):
            produce_block(chain, pool, PEERS)
        assert state_hash(chain.tip) == chain.blocks[-1].state_hash
        assert chain.tip.ledger.balance("bo") == 0
        assert chain.height == 1
        assert [t.tx_id for t in pool.pending] == [3, 4, 5]

        monkeypatch.undo()
        result = produce_block(chain, pool, PEERS)
        assert [r.status for r in result.block.txs] == [APPLIED] * 3
        assert chain.tip.ledger.balance("cy") == 50
        assert verify_chain(chain.blocks, genesis(), PEERS).ok

    @pytest.mark.parametrize("name", ["state_hash", "_seal"])
    def test_program_fault_after_execution_rebuilds_tip(self, monkeypatch, name):
        chain = Chain(genesis())
        produce_block(chain, pool_with(chain, credit_tx(1, "ada")), PEERS)
        real = getattr(netchain, name)
        faults = [ZeroDivisionError("fault")]

        def fails_once(arg):
            if faults:
                raise faults.pop()
            return real(arg)

        monkeypatch.setattr(netchain, name, fails_once)
        pool = pool_with(chain, credit_tx(2, "bo"))
        with pytest.raises(ZeroDivisionError):
            produce_block(chain, pool, PEERS)
        assert state_hash(chain.tip) == chain.blocks[-1].state_hash
        assert chain.tip.ledger.balance("bo") == 0
        assert chain.height == 1
        assert [t.tx_id for t in pool.pending] == [2]

        result = produce_block(chain, pool, PEERS)
        assert result.committed
        assert chain.tip.ledger.balance("bo") == 50
        assert verify_chain(chain.blocks, genesis(), PEERS).ok

    def test_fault_on_empty_chain_rebuilds_genesis(self, monkeypatch):
        chain = Chain(genesis())
        monkeypatch.setattr(netchain, "_seal", lambda block: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            produce_block(chain, pool_with(chain, credit_tx(1, "ada")), PEERS)
        assert state_hash(chain.tip) == state_hash(genesis())
        assert chain.height == 0

    def test_unreplayable_chain_is_not_rebuilt(self, monkeypatch):
        chain = Chain(genesis())
        produce_block(chain, pool_with(chain, credit_tx(1, "ada")), PEERS)
        # A committed payload changed by its caller no longer replays to the digest.
        chain.blocks[0].txs[0].tx.payload["amount"] = 70
        tip = chain.tip
        monkeypatch.setattr(netchain, "_seal", lambda block: 1 / 0)
        with pytest.raises(ChainError, match="cannot rebuild the tip") as caught:
            produce_block(chain, pool_with(chain, credit_tx(2, "bo")), PEERS)
        assert isinstance(caught.value.__context__, ZeroDivisionError)
        assert chain.tip is tip
        assert chain.height == 1


class TestTxRules:
    def test_every_kind_has_exactly_one_rule(self):
        assert len(TxKind) == 9
        assert set(netchain._RULES) == set(TxKind)

    def test_raw_escrow_kinds_are_gone(self):
        for name in ("ESCROW", "RESOLVE_ESCROW"):
            with pytest.raises(ValueError):
                TxKind(name)

    def test_platform_only_kinds_reject_other_submitters(self):
        platform_only = [kind for kind, (only, _, _) in netchain._RULES.items() if only]
        assert platform_only == [
            TxKind.CREDIT, TxKind.CONCLUDE_REVIEW, TxKind.RESOLVE_DISPUTE,
        ]
        chain = Chain(genesis())
        txs = [
            Transaction(i, kind, {}, "mallory") for i, kind in enumerate(platform_only)
        ]
        result = produce_block(chain, pool_with(chain, *txs), PEERS)
        assert [r.error for r in result.block.txs] == [
            f"'mallory' cannot submit platform operation {kind.value}"
            for kind in platform_only
        ]

    def test_user_acts_reject_acting_for_another(self):
        user_acts = [kind for kind, (only, _, _) in netchain._RULES.items() if not only]
        chain = Chain(genesis())
        txs = [
            Transaction(i, kind, {"user": "victim"}, "mallory")
            for i, kind in enumerate(user_acts)
        ]
        result = produce_block(chain, pool_with(chain, *txs), PEERS)
        assert [r.error for r in result.block.txs] == [
            f"'mallory' cannot act for 'victim' in {kind.value}" for kind in user_acts
        ]

    def test_credit_amount_is_below_2_256(self):
        chain = Chain(genesis())
        pool = pool_with(chain, credit_tx(1, "ada", 2**256 - 1), credit_tx(2, "bo", 2**256))
        result = produce_block(chain, pool, PEERS)
        assert [(r.status, r.error) for r in result.block.txs] == [
            (APPLIED, ""), (REJECTED, "amount must be below 2**256")]
        assert chain.tip.ledger.balance("ada") == 2**256 - 1
        assert verify_export(export_chain(chain.blocks), genesis(), PEERS).ok

    def test_credits_summing_past_640_digits_are_rejected(self):
        # Both are admitted, and applied they would sum to a balance that,
        # under the lowest limit, neither the digest nor an export could write.
        chain = Chain(genesis())
        longest = 10**640 - 1
        with int_digit_limit(640):
            pool = pool_with(chain, credit_tx(1, "bo", longest), credit_tx(2, "bo", longest))
            result = produce_block(chain, pool, PEERS)
            assert result.committed
            assert [(r.status, r.error) for r in result.block.txs] == [
                (REJECTED, "amount must be below 2**256")] * 2
            assert verify_export(export_chain(chain.blocks), genesis(), PEERS).ok


#: A value of each declared JSON type, to fill every field of a payload.
TYPE_EXAMPLES = {"a string": "s", "an integer": 1, "a number": 1.5, "a list": [],
                 "an object": {}}
SCHEMA_CASES = [
    (kind, field, missing)
    for kind, (_, fields, _) in netchain._RULES.items()
    for field in fields
    for missing in ((True, False) if field.default is None else (False,))
]


@pytest.mark.parametrize("kind, field, missing", SCHEMA_CASES, ids=[
    f"{kind.value}-{field.name}-{'missing' if missing else 'true'}"
    for kind, field, missing in SCHEMA_CASES
])
def test_declared_field_missing_or_true_is_rejected(kind, field, missing):
    platform_only, fields, _ = netchain._RULES[kind]
    payload = {f.name: TYPE_EXAMPLES[f.type] for f in fields}
    if missing:
        del payload[field.name]
    else:
        payload[field.name] = True
    chain = Chain(genesis())
    produce_block(chain, pool_with(chain, credit_tx(1, "bo")), PEERS)
    before = state_hash(chain.tip)
    submitter = netchain.PLATFORM if platform_only else "bo"
    result = produce_block(
        chain, pool_with(chain, Transaction(2, kind, payload, submitter)), PEERS)
    reason = f"bad payload for {kind.value}: field {field.name!r} must be {field.type}"
    assert [(r.status, r.error) for r in result.block.txs] == [(REJECTED, reason)]
    assert state_hash(chain.tip) == before
    assert verify_chain(chain.blocks, genesis(), PEERS).ok


def demo_chain():
    """Three committed blocks exercising article flow and a rejection."""
    state = genesis()
    chain = Chain(state)
    produce_block(
        chain,
        pool_with(chain, credit_tx(1, "ada", 100), credit_tx(2, "bo", 100)),
        PEERS,
    )
    produce_block(
        chain,
        pool_with(
            chain, submit_article_tx(3),
            # Rejected: only the platform may credit.
            Transaction(4, TxKind.CREDIT, {"user": "bo", "amount": 9999}, "bo"),
        ),
        PEERS,
    )
    article_hash = next(iter(chain.tip.articles))
    produce_block(
        chain,
        pool_with(
            chain, Transaction(
                5, TxKind.START_REVIEW,
                {"article": article_hash, "deposit": 10, "panel": ["r1", "r2", "r3"]},
                "ada",
            ),
            Transaction(
                6, TxKind.TRADE,
                {"article": article_hash, "outcome": "PUBLISH", "shares": 4},
                "bo",
            ),
            Transaction(
                7, TxKind.CONCLUDE_REVIEW,
                {"article": article_hash,
                 "votes": {"r1": "PUBLISH", "r2": "PUBLISH", "r3": "REVISE"}},
                "platform",
            ),
        ),
        PEERS,
    )
    return chain


class TestVerifyChain:
    def test_untampered_chain_verifies(self):
        chain = demo_chain()
        result = verify_chain(chain.blocks, genesis(), PEERS)
        assert result.ok
        assert result.first_bad_height is None

    def test_empty_chain_verifies(self):
        assert verify_chain([], genesis(), PEERS).ok

    def test_replay_reproduces_tip_hash(self):
        chain = demo_chain()
        replayed = genesis()
        for block in chain.blocks:
            for record in block.txs:
                try:
                    netchain.apply_tx(replayed, record.tx)
                    status = APPLIED
                except ProtocolError:
                    status = REJECTED
                assert status == record.status
        assert state_hash(replayed) == state_hash(chain.tip)
        assert state_hash(replayed) == chain.blocks[-1].state_hash

    def test_flipped_payload_byte_detected(self):
        chain = demo_chain()
        text = export_chain(chain.blocks)
        # Flip one character inside the second block's payload region.
        lines = text.splitlines()
        idx = lines[1].find('"amount":')
        corrupted = lines[1][: idx + 10] + "7" + lines[1][idx + 11:]
        tampered = "\n".join([lines[0], corrupted] + lines[2:]) + "\n"
        result = verify_export(tampered, genesis(), PEERS)
        assert not result.ok
        assert result.first_bad_height == 1  # reported at the flipped block

    def test_truncated_chain_still_verifies_as_prefix(self):
        chain = demo_chain()
        assert verify_chain(chain.blocks[:2], genesis(), PEERS).ok

    def test_reordered_blocks_detected(self):
        chain = demo_chain()
        swapped = [chain.blocks[1], chain.blocks[0], chain.blocks[2]]
        assert not verify_chain(swapped, genesis(), PEERS)

    def test_wrong_genesis_detected(self):
        chain = demo_chain()
        other = ProtocolState(
            ProtocolConfig(initial_reserve=999, peers=PEERS.peers)
        )
        assert not verify_chain(chain.blocks, other, PEERS)


class TestStateHash:
    def test_deterministic(self):
        assert state_hash(genesis()) == state_hash(genesis())

    def test_single_balance_changes_digest(self):
        a, b = genesis(), genesis()
        b.ledger.credit("ada", 1)
        assert state_hash(a) != state_hash(b)

    def test_insertion_order_is_canonicalized(self):
        a, b = genesis(), genesis()
        a.ledger.credit("ada", 5)
        a.ledger.credit("zoe", 7)
        b.ledger.credit("zoe", 7)
        b.ledger.credit("ada", 5)
        assert state_hash(a) == state_hash(b)

    def test_clone_preserves_digest(self):
        state = genesis()
        state.ledger.credit("ada", 10)
        assert state_hash(state.clone()) == state_hash(state)


def resealed_export(height: int, edit) -> str:
    """Export the demo chain with `edit` applied to one block.

    That block and every later one are re-linked and re-sealed, so only the
    edit itself can make the chain fail.  An edit may return an (old, new)
    pair to respell in the text, for a number `json` cannot write.
    """
    objs = [json.loads(line) for line in export_chain(demo_chain().blocks).splitlines()]
    respell = edit(objs[height])
    for i in range(height, len(objs)):
        if i:
            objs[i]["prevHash"] = objs[i - 1]["blockHash"]
        content = {k: v for k, v in objs[i].items() if k != "blockHash"}
        objs[i]["blockHash"] = hashlib.sha256(
            json.dumps(content, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()
    text = "".join(json.dumps(obj, separators=(",", ":")) + "\n" for obj in objs)
    return text.replace(*respell) if respell else text


def payload_note(value, respell=None):
    """An edit that adds `value` to block 1's first payload as an undeclared key."""
    def edit(obj):
        obj["txs"][0]["payload"]["note"] = value
        return respell
    return edit


class TestWireFormat:
    def test_round_trip(self):
        chain = demo_chain()
        text = export_chain(chain.blocks)
        blocks = import_chain(text)
        assert blocks == list(chain.blocks)
        assert verify_chain(blocks, genesis(), PEERS).ok

    def test_field_order_fixed(self):
        chain = demo_chain()
        first = json.loads(export_chain(chain.blocks).splitlines()[0])
        assert list(first) == [
            "height", "prevHash", "txs", "stateHash", "approvals", "blockHash",
        ]

    def test_tx_record_writes_the_wire_keys_in_order(self):
        # Import requires exactly these keys in this order.
        block = Block(0, "", (TxRecord(credit_tx(1, "ada"), APPLIED),), "", (), "")
        [record] = json.loads(export_chain([block]))["txs"]
        assert list(record) == netchain._TX_WIRE_KEYS

    def test_malformed_line_raises(self):
        with pytest.raises(ChainError):
            import_chain('{"height": 0')

    def test_deeply_nested_line_raises_chain_error(self):
        with pytest.raises(ChainError):
            import_chain("[" * 100_000)

    def test_every_single_byte_flip_breaks_verification(self):
        chain = demo_chain()
        data = export_chain(chain.blocks).encode("utf-8")
        assert verify_export(data.decode(), genesis(), PEERS).ok
        # Sparse sweep here; the acceptance suite covers every position.
        for pos in range(0, len(data), 97):
            tampered = bytearray(data)
            tampered[pos] ^= 0x01
            try:
                text = tampered.decode("utf-8")
            except UnicodeDecodeError:
                continue  # unreadable exports are trivially rejected upstream
            assert not verify_export(text, genesis(), PEERS), f"byte {pos}"

    @pytest.mark.parametrize("height, edit, bad_height, reason", [
        # Block 1 opens with the SUBMIT_ARTICLE record.
        (1, lambda obj: obj["txs"][0].update(payload=[]), None,
         "payload must be a mapping"),
        (0, lambda obj: obj.update(approvals=[["p1"], ["p2"], ["p3"]]), None,
         "approvals must be a list of peer ids"),
        (0, lambda obj: obj.update(approvals=["p1", "p1", "p1"]), 0, "below quorum"),
        (1, lambda obj: obj["txs"][1].update(kind="ESCROW"), None,
         "'ESCROW' is not a valid TxKind"),
        # Each of these equals a valid value under ==, or was never type-checked.
        (0, lambda obj: obj.update(height=0.0), None, "block height must be an integer"),
        (1, lambda obj: obj.update(height=True), None, "block height must be an integer"),
        (1, lambda obj: obj["txs"][0].update(error={"x": 1}), None,
         "tx error must be a string"),
        (1, lambda obj: obj["txs"][0].update(signature=[1]), None,
         "tx signature must be empty"),
        (1, lambda obj: obj["txs"][0].update(signature="x"), None,
         "tx signature must be empty"),
        (1, lambda obj: obj["txs"][0].update(tx_id=True), None,
         "tx id must be a non-negative integer"),
        # Block 0 holds tx ids 1 and 2.
        (1, lambda obj: obj["txs"][0].update(tx_id=1), 1,
         "tx id 1 is not strictly increasing"),
        # `json.dumps` writes bare NaN and Infinity tokens, which are not JSON,
        # and a number beyond a double's range decodes to an infinity.
        (1, payload_note(float("nan")), None, "nan is not finite"),
        (1, payload_note(float("inf")), None, "inf is not finite"),
        (1, payload_note(float("inf"), ("Infinity", "1e400")), None, "inf is not finite"),
        (1, payload_note(float("-inf"), ("-Infinity", "-1e999")), None,
         "-inf is not finite"),
        # About as deep as `json.dumps` can encode under the test runner; a few
        # tens of levels deeper, sealing the block raised RecursionError.
        (1, payload_note(nested_list(900)), None, "nests more than 16 containers"),
        # Readable here only because the test lifts the interpreter's limit.
        (1, payload_note(10**4300), None, "integer over 640 digits"),
        (1, payload_note(10**640), None, "integer over 640 digits"),
        # Block 1's second record is the rejected CREDIT by "bo".
        (1, lambda obj: obj["txs"][1].update(error="insufficient balance"), 1,
         "tx 4 reason diverges on replay"),
    ], ids=["list-payload", "list-approvals", "duplicate-approvals", "raw-escrow-kind",
            "float-height", "bool-height", "object-error", "list-signature",
            "string-signature",
            "bool-tx-id", "duplicate-tx-id", "nan-payload", "infinity-payload",
            "1e400-payload", "-1e999-payload", "deep-payload", "4301-digit-payload",
            "641-digit-payload", "rewritten-reason"])
    def test_resealed_malformed_block_fails(self, height, edit, bad_height, reason):
        with int_digit_limit(0):
            result = verify_export(resealed_export(height, edit), genesis(), PEERS)
        assert not result.ok
        assert result.first_bad_height == bad_height
        assert reason in result.reason


def wire_dict(block: Block) -> dict:
    """The block as one object, fields in wire order."""
    return {
        "height": block.height,
        "prevHash": block.prev_hash,
        "txs": [{"tx_id": tx.tx_id, "kind": tx.kind.value, "payload": tx.payload,
                 "submitter": tx.submitter, "signature": "",
                 "status": status, "error": error}
                for tx, status, error in block.txs],
        "stateHash": block.state_hash,
        "approvals": list(block.approvals),
        "blockHash": block.block_hash,
    }


def sealed_by_the_oracle(block: Block) -> str:
    """The seal as first defined: SHA-256 of the block's canonical JSON
    without its own hash."""
    content = wire_dict(block)
    del content["blockHash"]
    return hashlib.sha256(canonical_dumps(content).encode("utf-8")).hexdigest()


# Integers up to the gate's 640 digits; strings and floats as `protocol_fuzz`.
INTS = st.sampled_from([10**640 - 1, -(10**640) + 1]) | st.integers(-(10**640) + 1, 10**640 - 1)


def json_values(depth: int):
    """JSON values of at most `depth` nested containers."""
    leaves = st.none() | st.booleans() | INTS | FLOATS | TEXT
    if depth == 0:
        return leaves
    inner = json_values(depth - 1)
    return leaves | st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3)


def nested(value, depth: int) -> dict:
    """A payload of exactly `depth` containers, lists and objects by turns."""
    for level in range(depth - 1):
        value = [value] if level % 2 else {"": value}
    return {"nested": value}


PAYLOADS = (st.dictionaries(TEXT, json_values(3), max_size=4)
            | st.builds(nested, json_values(0), st.integers(1, netchain._MAX_DEPTH)))
RECORDS = st.builds(
    TxRecord,
    st.builds(Transaction, st.integers(0, 10**640 - 1), st.sampled_from(TxKind), PAYLOADS,
              TEXT.filter(bool)),
    st.sampled_from([APPLIED, REJECTED]), TEXT)
BLOCKS = st.builds(
    Block, st.integers(0, 10**6), TEXT, st.lists(RECORDS, max_size=4).map(tuple), TEXT,
    st.lists(TEXT, max_size=4).map(tuple), st.just(""))


@given(BLOCKS)
def test_the_seal_is_written_as_canonical_json_encodes_it(block):
    for record in block.txs:
        netchain._check_tx_form(record.tx)  # the gate admits what was generated
    assert netchain._seal(block) == sealed_by_the_oracle(block)


@given(BLOCKS)
def test_a_block_is_exported_as_json_dumps_writes_it(block):
    text = export_chain([block])
    assert text == json.dumps(wire_dict(block), separators=(",", ":")) + "\n"
    assert import_chain(text) == [block]


ENCODABLE = (json_values(3)
             | st.lists(json_values(2) | st.sampled_from(TxKind), max_size=3).map(tuple)
             | st.sampled_from(TxKind) | st.sampled_from([-0.0, 5e-324, 1e16]))


@given(ENCODABLE)
def test_canonical_json_writes_what_json_dumps_writes(value):
    assert canonical_json(value) == canonical_dumps(value)


@pytest.mark.parametrize("value, error", [
    (float("nan"), ValueError), (float("inf"), ValueError), (float("-inf"), ValueError),
    ({1}, TypeError), (b"x", TypeError), ([0, {"k": b"x"}], TypeError), (10**640, ValueError),
], ids=["nan", "inf", "-inf", "set", "bytes", "nested-bytes", "641-digit-int"])
def test_canonical_json_raises_what_json_dumps_raises(value, error):
    with int_digit_limit(640):
        with pytest.raises(error) as expected:
            canonical_dumps(value)
        with pytest.raises(error, match=re.escape(str(expected.value))):
            canonical_json(value)


def test_a_failed_encode_leaves_nothing_behind():
    # An encoder that kept a circular-reference dict across calls would still
    # hold `value` from the encode that raised, and refuse it as circular.
    value = [1, {2}]
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        canonical_json(value)
    value.pop()
    assert canonical_json(value) == "[1]"
