"""Review-outcome prediction market (logarithmic market scoring rule).

Each article under review gets a binary market over PUBLISH and REVISE.
The automated market maker quotes prices from the cost function

    C(q) = b * ln(exp(q_PUBLISH / b) + exp(q_REVISE / b))

so a trade moving the book from q to q' costs C(q') - C(q) regardless of
how the book got to q, and the maker's worst-case loss at resolution is
bounded by b * ln 2.  Because C depends on the book alone, a market keeps
C(q) of its book, with the b and a copy of the book it was computed for: a
trade evaluates only C(q') and keeps it.  The kept value is what
`lmsr_cost` returned, never a closed form, so costs are bit-identical to
evaluating both sides afresh on every interpreter.

The ledger deals in integer tokens, so real-valued costs are rounded in the
house's favor: buys round up, sale proceeds and resolution payouts round
down.  Buy costs move user -> reserve (through escrow-and-forfeit, the only
sanctioned user-to-platform flow); sales and payouts are reserve grants.
"""

from __future__ import annotations

import bisect
import json
import math
from math import exp, log
from json.encoder import encode_basestring_ascii as quote
from typing import Callable, Mapping, NamedTuple, Optional

from .errors import LedgerError, MarketError
from .ledger import AMOUNT_BOUND, FORFEIT, RESERVE, TokenLedger

PUBLISH = "PUBLISH"
REVISE = "REVISE"
OUTCOMES = (PUBLISH, REVISE)


def quote_or_null(text: Optional[str]) -> str:
    """The canonical JSON of a string, or `null` for None."""
    return "null" if text is None else quote(text)


class Section:
    """One collection's part of a canonical JSON text: its keys in sorted
    order, each key's fragment, and the fragments comma-joined.

    `written` holds the keys written since the last `text()`; each is encoded
    again from its value in `entities` with `encode`.  A keyed fragment is an
    object member (`"key":...`), else an array item.
    """

    def __init__(self, entities: dict, written: dict, encode: Callable[..., str],
                 keyed: bool = False, bodies: Optional[dict[str, str]] = None):
        """`bodies` maps keys, in sorted order, to their values' encodings."""
        self.entities, self.written, self.encode = entities, written, encode
        self.keyed = keyed
        bodies = bodies or {}
        self.keys = list(bodies)
        self.fragments = [self._fragment(key, body) for key, body in bodies.items()]
        self.joined = ",".join(self.fragments)

    def _fragment(self, key: str, body: str) -> str:
        return f"{quote(key)}:{body}" if self.keyed else body

    def text(self) -> str:
        """The joined fragments, after each written key's fragment is encoded
        again into its slot: a new key takes a new slot, and a key whose
        value is gone loses its own."""
        if self.written:
            keys, fragments, entities = self.keys, self.fragments, self.entities
            for key in self.written:
                i = bisect.bisect_left(keys, key)
                kept = i < len(keys) and keys[i] == key
                if key in entities:
                    fragment = self._fragment(key, self.encode(entities[key]))
                    if kept:
                        fragments[i] = fragment
                    else:
                        keys.insert(i, key)
                        fragments.insert(i, fragment)
                elif kept:
                    del keys[i], fragments[i]
            self.written.clear()
            self.joined = ",".join(fragments)
        return self.joined


def lmsr_cost(quantities: Mapping[str, float], b: float) -> float:
    """Cost-function value at a book position, max-shifted for stability.

    This is the one definition of C.  Its float operations and their order
    fix every token cost, so they must not change: each share count divided
    by b, the maximum m, then b * (m + ln of the left-to-right `sum` of
    exp(x - m)).  The sum is over a list, not a generator, only because that
    is faster; the additions are the same.
    """
    scaled = [q / b for q in quantities.values()]
    m = max(scaled)
    return b * (m + log(sum([exp(x - m) for x in scaled])))


class Market:
    """One open-or-resolved review market."""

    def __init__(self, market_id: str, b: float):
        self.market_id = market_id
        self.b = b
        self.outstanding = {PUBLISH: 0.0, REVISE: 0.0}
        # Shares held, keyed "uid:outcome" as the canonical form writes them.
        self.holdings: dict[str, float] = {}
        self.resolved: Optional[str] = None
        self.trade_count = 0
        self.events: list[dict] = []
        # The holdings traded since the last `to_canonical_json`, a dict used
        # as a set like `TokenLedger.written`, and the holdings' kept
        # fragments: a market starts with no holdings, so both start empty.
        self.written: dict[str, None] = {}
        self._holdings = Section(self.holdings, self.written, repr, keyed=True)
        # `lmsr_cost` of the book, kept with the b and a copy of the book it
        # was computed for, so that a direct write to `b` or `outstanding`
        # finds the kept cost stale instead of using it (`trade`).
        self._cost = (self.b, {}, 0.0)

    def holding(self, user_id: str, outcome: str) -> float:
        return self.holdings.get(f"{user_id}:{outcome}", 0.0)

    def to_canonical(self) -> dict:
        # The event log is an audit trail, not consensus state; the trade
        # counter is included because future event numbering depends on it.
        # Left unsorted: every encoding of this form sorts its keys.
        return {
            "market_id": self.market_id,
            "b": self.b,
            "outstanding": dict(self.outstanding),
            "holdings": dict(self.holdings),
            "resolved": self.resolved,
            "trade_count": self.trade_count,
        }

    def to_canonical_json(self) -> str:
        """`canonical_json(self.to_canonical())`, encoding again only the
        holdings written since the last call."""
        outstanding = ",".join(
            f"{quote(o)}:{q!r}" for o, q in sorted(self.outstanding.items()))
        return (f'{{"b":{self.b!r},"holdings":{{{self._holdings.text()}}},'
                f'"market_id":{quote(self.market_id)},"outstanding":{{{outstanding}}},'
                f'"resolved":{quote_or_null(self.resolved)},'
                f'"trade_count":{self.trade_count!r}}}')


class Trade(NamedTuple):
    """Executed trade: positive share_delta buys, negative sells.

    `token_cost` is signed the same way: positive means the user paid.
    """

    user_id: str
    outcome: str
    share_delta: float
    token_cost: int


def open_market(b: float, market_id: str = "market") -> Market:
    """Fresh market: no outstanding shares, both outcomes priced at 0.5."""
    if not b > 0:
        raise MarketError(f"liquidity must be positive, got {b}")
    return Market(market_id=market_id, b=float(b))


def _require_open(market: Market) -> None:
    if market.resolved is not None:
        raise MarketError(f"market {market.market_id} already resolved")


def _require_outcome(outcome: str) -> None:
    if outcome not in OUTCOMES:
        raise MarketError(f"unknown outcome {outcome!r}")


def price(market: Market, outcome: str) -> float:
    """Current probability quote for an outcome; quotes sum to one."""
    _require_open(market)
    _require_outcome(outcome)
    scaled = {o: q / market.b for o, q in market.outstanding.items()}
    m = max(scaled.values())
    exp = {o: math.exp(x - m) for o, x in scaled.items()}
    return exp[outcome] / sum(exp.values())


def trade_cost(market: Market, outcome: str, share_delta: float) -> float:
    """Pre-rounding cost of a prospective trade; pure query."""
    _require_outcome(outcome)
    before = market.outstanding
    after = dict(before)
    after[outcome] += share_delta
    return lmsr_cost(after, market.b) - lmsr_cost(before, market.b)


def trade(
    market: Market,
    ledger: TokenLedger,
    user_id: str,
    outcome: str,
    share_delta: float,
) -> Trade:
    """Buy (positive delta) or sell (negative delta) outcome shares.

    Token cost is ceil(real cost): rounding up what buyers pay and, for the
    negative costs of sales, rounding the payout down.  A buy costs at least
    one token.  The trade writes its shares into the book in place, prices
    the new book with one `lmsr_cost` call and keeps that cost.  The cost
    before it is the kept one, evaluated again only if `b` or the book was
    written directly since.  A refused trade puts the book back as it was.
    """
    if market.resolved is not None or outcome not in OUTCOMES:
        _require_open(market)
        _require_outcome(outcome)
    if not math.isfinite(share_delta) or share_delta == 0:
        raise MarketError("share delta must be a nonzero finite number")
    key = f"{user_id}:{outcome}"
    held = market.holdings.get(key, 0.0)
    if share_delta < 0 and held < -share_delta:
        raise MarketError(
            f"{user_id!r} holds {held} {outcome} shares, cannot sell {-share_delta}"
        )
    new_holding = held + share_delta
    if new_holding >= AMOUNT_BOUND:  # so that every payout is an amount
        raise MarketError("a holding must stay below 2**256 shares")
    book, b = market.outstanding, market.b
    costed_b, costed, cost_before = market._cost
    kept = costed_b == b and costed == book
    before = book[outcome]
    book[outcome] = before + share_delta
    try:
        cost_after = lmsr_cost(book, b)
        if not kept:
            cost_before = lmsr_cost({**book, outcome: before}, b)
        token_cost = math.ceil(cost_after - cost_before)
        if token_cost < 1 and share_delta > 0:
            token_cost = 1  # a cost below float precision is still a buy
        if token_cost > 0:
            balance = ledger.balance(user_id)
            if balance < token_cost:
                raise LedgerError(
                    f"{user_id!r} balance {balance} cannot cover trade cost {token_cost}")
            ledger.escrow(user_id, token_cost)
            ledger.resolve_escrow(user_id, token_cost, FORFEIT)
        elif token_cost < 0:
            ledger.credit(user_id, -token_cost, RESERVE)
    except BaseException:
        book[outcome] = before
        raise
    if kept:
        costed[outcome] = book[outcome]
    else:
        costed = dict(book)
    market._cost = b, costed, cost_after
    market.written[key] = None
    if new_holding == 0.0:
        market.holdings.pop(key, None)
    else:
        market.holdings[key] = new_holding
    market.trade_count += 1
    market.events.append(
        {
            "tx": market.trade_count,
            "user": user_id,
            "outcome": outcome,
            "shares": share_delta,
            "cost": token_cost,
        }
    )
    # `tuple.__new__` skips the Python frame of the named tuple's own `__new__`.
    return tuple.__new__(Trade, (user_id, outcome, share_delta, token_cost))


def resolve(market: Market, ledger: TokenLedger, outcome: str) -> dict[str, int]:
    """Pay one token per winning share (rounded down) and close the market.

    Payouts come from the platform reserve, which must cover them all; the
    maker's subsidy requirement is bounded by b * ln 2.
    """
    _require_open(market)
    _require_outcome(outcome)
    owed = payouts(market, outcome)
    total = sum(owed.values())
    if total > ledger.platform_reserve:
        raise LedgerError(
            f"reserve {ledger.platform_reserve} cannot cover payouts of {total}"
        )
    for uid, amount in owed.items():
        ledger.credit(uid, amount, RESERVE)
    market.resolved = outcome
    market.events.append({"tx": market.trade_count + 1, "resolved": outcome,
                          "payouts": owed})
    return owed


def payouts(market: Market, outcome: str) -> dict[str, int]:
    """One token per winning share, rounded down, to each holder owed any,
    in user-id order.  A key's uid runs to its last colon: no outcome has one."""
    owed = {}
    for key, shares in market.holdings.items():
        uid, held_outcome = key.rsplit(":", 1)
        if held_outcome == outcome and math.floor(shares) > 0:
            owed[uid] = math.floor(shares)
    return dict(sorted(owed.items()))


def event_log_lines(market: Market) -> str:
    """Market audit trail as JSON lines, one event per line."""
    return "".join(json.dumps(e) + "\n" for e in market.events)


def payout_table_csv(payouts: Mapping[str, int]) -> str:
    lines = ["user,tokens"]
    for uid in sorted(payouts):
        lines.append(f"{uid},{payouts[uid]}")
    return "\n".join(lines) + "\n"
