"""Tests for token accounting, escrow and conservation."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from scholarchain.errors import LedgerError
from scholarchain.ledger import FORFEIT, MINT, REFUND, RESERVE, Account, TokenLedger


def canonical_text(ledger: TokenLedger) -> str:
    """The ledger's form as text, where, unlike in a dict comparison, 1 and
    True differ."""
    return json.dumps(ledger.to_canonical(), sort_keys=True)


class TestCredit:
    def test_mint_to_fresh_account(self):
        ledger = TokenLedger()
        ledger.credit("u1", 10, MINT)
        assert ledger.balance("u1") == 10
        assert ledger.minted_total == 10
        assert ledger.conservation_gap() == 0

    def test_reserve_credit_requires_funds(self):
        ledger = TokenLedger(initial_reserve=3)
        with pytest.raises(LedgerError):
            ledger.credit("u1", 5, RESERVE)
        assert ledger.balance("u1") == 0
        assert ledger.platform_reserve == 3

    def test_credits_accumulate(self):
        ledger = TokenLedger()
        ledger.credit("u1", 10)
        ledger.credit("u1", 5)
        assert ledger.balance("u1") == 15
        # Recompute the identity by hand: 15 held, nothing escrowed, no reserve.
        assert 15 + 0 + 0 == ledger.initial_supply + ledger.minted_total
        assert ledger.conservation_gap() == 0

    def test_amount_must_be_positive_integer(self):
        ledger = TokenLedger()
        for bad in (0, -3, True, 2.5):
            with pytest.raises(LedgerError):
                ledger.credit("u1", bad)

    def test_amount_must_be_below_2_256(self):
        # An amount is bounded, a balance is not: here it reaches 2**257 - 2.
        ledger = TokenLedger(balances={"u1": 2**256 - 1})
        ledger.credit("u1", 2**256 - 1)
        for operation in (ledger.credit, ledger.escrow):
            with pytest.raises(LedgerError, match=r"amount must be below 2\*\*256"):
                operation("u1", 2**256)
        assert ledger.balance("u1") == 2**257 - 2
        assert ledger.escrowed("u1") == 0

    @pytest.mark.parametrize("reserve, balance", [
        (-1, 0), (2**256, 0), (True, 0), (200.9, 0), ("7e2", 0),
        (0, -1), (0, 2**256), (0, True), (0, 10.5),
    ], ids=["negative-reserve", "2**256-reserve", "bool-reserve", "fractional-reserve",
            "string-reserve", "negative-balance", "2**256-balance", "bool-balance",
            "fractional-balance"])
    def test_opening_amounts_are_token_amounts(self, reserve, balance):
        with pytest.raises(LedgerError, match=r"must be an integer in \[0, 2\*\*256\)"):
            TokenLedger(initial_reserve=reserve, balances={"u1": balance})
        TokenLedger(initial_reserve=2**256 - 1, balances={"u1": 2**256 - 1})

    def test_user_id_must_be_a_string(self):
        ledger = TokenLedger()
        ledger.credit("u1", 5)
        for bad in (5, None, ("u1",)):
            with pytest.raises(LedgerError, match="user id must be a string"):
                ledger.credit(bad, 5)
        assert list(ledger.accounts) == ["u1"]
        ledger.to_canonical()  # account ids still sort


class TestEscrow:
    def test_escrow_moves_balance(self):
        ledger = TokenLedger(balances={"u1": 10})
        ledger.escrow("u1", 4)
        assert ledger.balance("u1") == 6
        assert ledger.escrowed("u1") == 4

    def test_insufficient_balance_leaves_state_unchanged(self):
        ledger = TokenLedger(balances={"u1": 3})
        with pytest.raises(LedgerError):
            ledger.escrow("u1", 4)
        assert ledger.balance("u1") == 3
        assert ledger.escrowed("u1") == 0

    def test_escrow_refund_round_trip(self):
        ledger = TokenLedger(balances={"u1": 10})
        ledger.escrow("u1", 4)
        ledger.resolve_escrow("u1", 4, REFUND)
        assert ledger.balance("u1") == 10
        assert ledger.escrowed("u1") == 0


class TestResolveEscrow:
    def setup_method(self):
        self.ledger = TokenLedger(balances={"u1": 10})
        self.ledger.escrow("u1", 4)

    def test_forfeit_feeds_the_reserve(self):
        self.ledger.resolve_escrow("u1", 4, FORFEIT)
        assert self.ledger.escrowed("u1") == 0
        assert self.ledger.platform_reserve == 4
        assert self.ledger.conservation_gap() == 0

    def test_refund_restores_balance(self):
        self.ledger.resolve_escrow("u1", 4, REFUND)
        assert self.ledger.balance("u1") == 10

    def test_over_resolution_rejected(self):
        self.ledger.resolve_escrow("u1", 2, REFUND)
        with pytest.raises(LedgerError):
            self.ledger.resolve_escrow("u1", 4, FORFEIT)
        assert self.ledger.escrowed("u1") == 2

    def test_unknown_outcome_rejected(self):
        with pytest.raises(LedgerError):
            self.ledger.resolve_escrow("u1", 4, "split")


class TestDebit:
    def test_debit_feeds_the_reserve(self):
        ledger = TokenLedger(initial_reserve=5, balances={"u1": 10})
        ledger.debit("u1", 4)
        assert ledger.balance("u1") == 6
        assert ledger.escrowed("u1") == 0
        assert ledger.platform_reserve == 9
        assert ledger.written == {"u1": None}
        assert ledger.conservation_gap() == 0

    @pytest.mark.parametrize("user, amount, refusal", [
        ("u1", 0, "amount must be a positive integer, got 0"),
        ("u1", -3, "amount must be a positive integer, got -3"),
        ("u1", True, "amount must be a positive integer, got True"),
        ("u1", 2**256, r"amount must be below 2\*\*256"),
        ("nobody", 1, "'nobody' has 0, cannot pay 1"),
        ("u1", 11, "'u1' has 10, cannot pay 11"),
    ], ids=["zero", "negative", "bool", "2**256", "unknown-account", "short"])
    def test_refusal_leaves_the_ledger(self, user, amount, refusal):
        ledger = TokenLedger(initial_reserve=5, balances={"u1": 10, "u2": 3})
        ledger.credit("u2", 1)
        before = canonical_text(ledger)
        with pytest.raises(LedgerError, match=refusal):
            ledger.debit(user, amount)
        assert canonical_text(ledger) == before
        assert ledger.written == {"u2": None}  # the credit's mark alone


class TestApiSurface:
    def test_no_peer_to_peer_transfer_exists(self):
        # The only flows are user<->platform; a transfer op would break that.
        public = {name for name in dir(TokenLedger) if not name.startswith("_")}
        assert public == {
            "balance",
            "escrowed",
            "conservation_gap",
            "credit",
            "debit",
            "escrow",
            "resolve_escrow",
            "to_canonical",
        }

    def test_canonical_form_sorted_and_stable(self):
        ledger = TokenLedger(balances={"zeta": 1, "alpha": 2})
        keys = list(ledger.to_canonical()["accounts"])
        assert keys == ["alpha", "zeta"]
        assert canonical_text(ledger) == canonical_text(
            TokenLedger(balances={"alpha": 2, "zeta": 1}))

    def test_account_holds_only_its_tokens(self):
        # The user id is the account's key in `accounts`, not a field.
        assert vars(Account()) == {"balance": 0, "escrowed": 0}


ops = st.lists(
    st.one_of(
        st.tuples(st.just("credit"), st.sampled_from("abc"), st.integers(1, 50),
                  st.sampled_from([MINT, RESERVE])),
        st.tuples(st.just("escrow"), st.sampled_from("abc"), st.integers(1, 50)),
        st.tuples(st.just("debit"), st.sampled_from("abc"), st.integers(1, 50)),
        st.tuples(st.just("resolve"), st.sampled_from("abc"), st.integers(1, 50),
                  st.sampled_from([FORFEIT, REFUND])),
    ),
    max_size=60,
)


class TestConservationProperty:
    @given(ops, st.integers(0, 100))
    @settings(max_examples=200)
    def test_identity_holds_after_every_step(self, sequence, reserve):
        ledger = TokenLedger(initial_reserve=reserve)
        for op in sequence:
            before = canonical_text(ledger)
            try:
                if op[0] == "credit":
                    ledger.credit(op[1], op[2], op[3])
                elif op[0] == "escrow":
                    ledger.escrow(op[1], op[2])
                elif op[0] == "debit":
                    ledger.debit(op[1], op[2])
                else:
                    ledger.resolve_escrow(op[1], op[2], op[3])
            except LedgerError:
                # Atomicity: a rejected operation must not move anything.
                assert canonical_text(ledger) == before
            assert ledger.conservation_gap() == 0
            assert all(
                a.balance >= 0 and a.escrowed >= 0 for a in ledger.accounts.values()
            )
            assert ledger.platform_reserve >= 0
