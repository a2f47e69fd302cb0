"""Token accounts, escrow and the platform reserve.

Tokens are integers, and users exchange them only with the platform: the
supported flows are minting, grants from the reserve, debits from a user's
balance into the reserve, escrow of a user's own balance, and escrow
resolution back to the user or into the reserve.  There is deliberately no
peer-to-peer transfer.

The conservation identity

    sum(balances) + sum(escrowed) + reserve == initial supply + minted

holds after every operation; operations validate first and mutate after,
so a rejected call leaves the ledger untouched.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .errors import LedgerError

MINT = "mint"
RESERVE = "reserve"
FORFEIT = "forfeit"
REFUND = "refund"
#: Every amount is below 2**256, as token amounts are in the Ethereum Yellow
#: Paper, so no sum of them on a chain comes near 640 digits.
AMOUNT_BOUND = 2**256


class Account:
    def __init__(self, balance: int = 0):
        self.balance = balance
        self.escrowed = 0

    def to_canonical(self) -> dict:
        return {"balance": self.balance, "escrowed": self.escrowed}

    def to_canonical_json(self) -> str:
        """`canonical_json(self.to_canonical())`, written directly."""
        return f'{{"balance":{self.balance!r},"escrowed":{self.escrowed!r}}}'


def _check_opening_amount(amount, what: str) -> None:
    if type(amount) is not int or not 0 <= amount < AMOUNT_BOUND:
        raise LedgerError(f"{what} must be an integer in [0, 2**256), got {amount!r}")


def _positive_amount(amount) -> int:
    if isinstance(amount, bool) or not isinstance(amount, int) or amount <= 0:
        raise LedgerError(f"amount must be a positive integer, got {amount!r}")
    if amount >= AMOUNT_BOUND:
        raise LedgerError("amount must be below 2**256")
    return amount


class TokenLedger:
    """Single-writer token ledger; reads on snapshots may be concurrent."""

    def __init__(
        self,
        initial_reserve: int = 0,
        balances: Optional[Mapping[str, int]] = None,
    ):
        _check_opening_amount(initial_reserve, "initial reserve")
        self.accounts: dict[str, Account] = {}
        # Ids of the accounts written since the state's last digest, which
        # encodes each again with `Account.to_canonical_json` into its sorted
        # slot, so this record's order never reaches the bytes.  Each mutator
        # records its account before it changes it.  A dict used as a set,
        # because `copy.deepcopy` copies a set through its pickle protocol,
        # several times slower, and `ProtocolState.clone` copies this.
        self.written: dict[str, None] = {}
        self.platform_reserve = initial_reserve
        self.minted_total = 0
        for user_id, amount in (balances or {}).items():
            _check_opening_amount(amount, f"opening balance of {user_id!r}")
            self.accounts[user_id] = Account(balance=amount)
        self.initial_supply = initial_reserve + sum(
            a.balance for a in self.accounts.values()
        )

    # -- queries ------------------------------------------------------------

    def balance(self, user_id: str) -> int:
        acct = self.accounts.get(user_id)
        return acct.balance if acct else 0

    def escrowed(self, user_id: str) -> int:
        acct = self.accounts.get(user_id)
        return acct.escrowed if acct else 0

    def conservation_gap(self) -> int:
        """Zero when the conservation identity holds."""
        held = sum(a.balance + a.escrowed for a in self.accounts.values())
        return held + self.platform_reserve - self.initial_supply - self.minted_total

    # -- mutations (validate first, then apply) ------------------------------

    def credit(self, user_id: str, amount: int, source: str = MINT) -> None:
        """Grant tokens to a user, newly minted or out of the reserve."""
        amount = _positive_amount(amount)
        if not isinstance(user_id, str):
            raise LedgerError(f"user id must be a string, got {user_id!r}")
        if source not in (MINT, RESERVE):
            raise LedgerError(f"unknown credit source {source!r}")
        if source == RESERVE and self.platform_reserve < amount:
            raise LedgerError(
                f"reserve {self.platform_reserve} cannot cover credit of {amount}"
            )
        acct = self.accounts.setdefault(user_id, Account())
        self.written[user_id] = None
        if source == MINT:
            self.minted_total += amount
        else:
            self.platform_reserve -= amount
        acct.balance += amount

    def escrow(self, user_id: str, amount: int) -> None:
        """Lock part of a user's balance pending an outcome."""
        amount = _positive_amount(amount)
        acct = self.accounts.get(user_id)
        if acct is None or acct.balance < amount:
            have = acct.balance if acct else 0
            raise LedgerError(f"{user_id!r} has {have}, cannot escrow {amount}")
        self.written[user_id] = None
        acct.balance -= amount
        acct.escrowed += amount

    def debit(self, user_id: str, amount: int) -> None:
        """Move tokens from a user's balance into the reserve."""
        amount = _positive_amount(amount)
        acct = self.accounts.get(user_id)
        if acct is None or acct.balance < amount:
            have = acct.balance if acct else 0
            raise LedgerError(f"{user_id!r} has {have}, cannot pay {amount}")
        self.written[user_id] = None
        acct.balance -= amount
        self.platform_reserve += amount

    def resolve_escrow(self, user_id: str, amount: int, outcome: str) -> None:
        """Release escrowed tokens back to the user or forfeit them."""
        amount = _positive_amount(amount)
        if outcome not in (FORFEIT, REFUND):
            raise LedgerError(f"unknown escrow outcome {outcome!r}")
        acct = self.accounts.get(user_id)
        if acct is None or acct.escrowed < amount:
            have = acct.escrowed if acct else 0
            raise LedgerError(
                f"{user_id!r} has {have} in escrow, cannot resolve {amount}"
            )
        self.written[user_id] = None
        acct.escrowed -= amount
        if outcome == FORFEIT:
            self.platform_reserve += amount
        else:
            acct.balance += amount

    # -- snapshots ------------------------------------------------------------

    def to_canonical(self) -> dict:
        """Deterministic dict form; account keys sorted for stable hashing."""
        return {
            "accounts": {
                uid: a.to_canonical() for uid, a in sorted(self.accounts.items())
            },
            "platform_reserve": self.platform_reserve,
            "minted_total": self.minted_total,
            "burned_total": 0,  # no operation burns; the key keeps the form's bytes
            "initial_supply": self.initial_supply,
        }
