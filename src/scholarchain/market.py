"""Review-outcome prediction market (logarithmic market scoring rule).

Each article under review gets a binary market over PUBLISH and REVISE.
The automated market maker quotes prices from the cost function

    C(q) = b * ln(exp(q_PUBLISH / b) + exp(q_REVISE / b))

so a trade moving the book from q to q' costs C(q') - C(q) regardless of
how the book got to q, and the maker's worst-case loss at resolution is
bounded by b * ln 2.  Because C depends on the book alone, a market keeps
C(q) of its book, keyed by the position it was computed for: a trade
evaluates only C(q') and keeps it.  The kept value is what `lmsr_cost`
returned, never a closed form, so costs are bit-identical to evaluating
both sides afresh on every interpreter.

The ledger deals in integer tokens, so real-valued costs are rounded in the
house's favor: buys round up, sale proceeds and resolution payouts round
down.  Buy costs move user -> reserve (through escrow-and-forfeit, the only
sanctioned user-to-platform flow); sales and payouts are reserve grants.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as quote
from typing import Mapping, NamedTuple, Optional

from .errors import LedgerError, MarketError
from .ledger import AMOUNT_BOUND, FORFEIT, RESERVE, TokenLedger

PUBLISH = "PUBLISH"
REVISE = "REVISE"
OUTCOMES = (PUBLISH, REVISE)


def quote_or_null(text: Optional[str]) -> str:
    """The canonical JSON of a string, or `null` for None."""
    return "null" if text is None else quote(text)


def splice(keys: list, fragments: list, key, fragment: Optional[str]) -> None:
    """Put `fragment` in `key`'s slot of the sorted `keys` and the parallel
    `fragments`, inserting a new key in order; None removes the key."""
    i = bisect.bisect_left(keys, key)
    if i < len(keys) and keys[i] == key:
        if fragment is None:
            del keys[i], fragments[i]
        else:
            fragments[i] = fragment
    elif fragment is not None:
        keys.insert(i, key)
        fragments.insert(i, fragment)


def _holding_fragment(key: str, shares: float) -> str:
    return f"{quote(key)}:{shares!r}"


def lmsr_cost(quantities: Mapping[str, float], b: float) -> float:
    """Cost-function value at a book position, max-shifted for stability."""
    scaled = [q / b for q in quantities.values()]
    m = max(scaled)
    return b * (m + math.log(sum(math.exp(x - m) for x in scaled)))


@dataclass
class Market:
    """One open-or-resolved review market."""

    market_id: str
    b: float
    outstanding: dict[str, float] = field(
        default_factory=lambda: {PUBLISH: 0.0, REVISE: 0.0}
    )
    holdings: dict[tuple[str, str], float] = field(default_factory=dict)
    resolved: Optional[str] = None
    trade_count: int = 0
    events: list[dict] = field(default_factory=list)
    # The holdings traded since the last `to_canonical_json`, a dict used as
    # a set like `TokenLedger.written`, and, once that has run, every holding's
    # fragment kept sorted by its "uid:outcome" string, which is not the
    # order of the (uid, outcome) tuples.
    written: dict[tuple[str, str], None] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _holding_keys: Optional[list[str]] = field(
        default=None, init=False, repr=False, compare=False)
    _holding_fragments: Optional[list[str]] = field(
        default=None, init=False, repr=False, compare=False)
    # `lmsr_cost` of the book with the position it was computed for, b and
    # the outstanding values, so that a direct write to `outstanding` finds
    # the kept cost stale instead of using it (`_book_cost`).
    _cost: tuple[tuple, float] = field(
        default=((), 0.0), init=False, repr=False, compare=False)

    def holding(self, user_id: str, outcome: str) -> float:
        return self.holdings.get((user_id, outcome), 0.0)

    def to_canonical(self) -> dict:
        # The event log is an audit trail, not consensus state; the trade
        # counter is included because future event numbering depends on it.
        # Left unsorted: every encoding of this form sorts its keys.
        return {
            "market_id": self.market_id,
            "b": self.b,
            "outstanding": dict(self.outstanding),
            "holdings": {
                f"{uid}:{outcome}": shares
                for (uid, outcome), shares in self.holdings.items()
            },
            "resolved": self.resolved,
            "trade_count": self.trade_count,
        }

    def to_canonical_json(self) -> str:
        """`canonical_json(self.to_canonical())`, encoding again only the
        holdings written since the last call."""
        keys, fragments = self._holding_keys, self._holding_fragments
        if keys is None:  # the first call encodes every holding
            held = sorted((f"{uid}:{outcome}", shares)
                          for (uid, outcome), shares in self.holdings.items())
            self._holding_keys = keys = [key for key, _ in held]
            self._holding_fragments = fragments = [
                _holding_fragment(key, shares) for key, shares in held]
        else:
            for uid, outcome in self.written:
                shares = self.holdings.get((uid, outcome))
                key = f"{uid}:{outcome}"
                splice(keys, fragments, key,
                       None if shares is None else _holding_fragment(key, shares))
        self.written.clear()
        outstanding = ",".join(
            f"{quote(o)}:{q!r}" for o, q in sorted(self.outstanding.items()))
        return (f'{{"b":{self.b!r},"holdings":{{{",".join(fragments)}}},'
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


def _position(market: Market) -> tuple:
    return (market.b, *market.outstanding.values())


def _book_cost(market: Market) -> float:
    """`lmsr_cost` of the market's book, evaluated again only if the book moved
    since it was kept."""
    position, cost = market._cost
    if position != _position(market):
        cost = lmsr_cost(market.outstanding, market.b)
        market._cost = _position(market), cost
    return cost


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
    one token.  The cost of the book before the trade is the kept one, and
    the market keeps the cost after it.
    """
    _require_open(market)
    _require_outcome(outcome)
    if not math.isfinite(share_delta) or share_delta == 0:
        raise MarketError("share delta must be a nonzero finite number")
    held = market.holding(user_id, outcome)
    if share_delta < 0 and held < -share_delta:
        raise MarketError(
            f"{user_id!r} holds {held} {outcome} shares, cannot sell {-share_delta}"
        )
    if held + share_delta >= AMOUNT_BOUND:  # so that every payout is an amount
        raise MarketError("a holding must stay below 2**256 shares")
    after = dict(market.outstanding)
    after[outcome] += share_delta
    cost_after = lmsr_cost(after, market.b)
    token_cost = math.ceil(cost_after - _book_cost(market))
    if share_delta > 0:
        token_cost = max(token_cost, 1)  # a cost below float precision is still a buy
    if token_cost > 0:
        if ledger.balance(user_id) < token_cost:
            raise LedgerError(
                f"{user_id!r} balance {ledger.balance(user_id)} cannot cover "
                f"trade cost {token_cost}"
            )
        ledger.escrow(user_id, token_cost)
        ledger.resolve_escrow(user_id, token_cost, FORFEIT)
    elif token_cost < 0:
        ledger.credit(user_id, -token_cost, RESERVE)
    market.outstanding[outcome] += share_delta
    market._cost = _position(market), cost_after
    market.written[(user_id, outcome)] = None
    new_holding = held + share_delta
    if new_holding == 0.0:
        market.holdings.pop((user_id, outcome), None)
    else:
        market.holdings[(user_id, outcome)] = new_holding
    market.trade_count += 1
    executed = Trade(user_id, outcome, share_delta, token_cost)
    market.events.append(
        {
            "tx": market.trade_count,
            "user": user_id,
            "outcome": outcome,
            "shares": share_delta,
            "cost": token_cost,
        }
    )
    return executed


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
    """One token per winning share, rounded down, to each holder owed any."""
    return {
        uid: math.floor(shares)
        for (uid, held_outcome), shares in sorted(market.holdings.items())
        if held_outcome == outcome and math.floor(shares) > 0
    }


def event_log_lines(market: Market) -> str:
    """Market audit trail as JSON lines, one event per line."""
    return "".join(json.dumps(e) + "\n" for e in market.events)


def payout_table_csv(payouts: Mapping[str, int]) -> str:
    lines = ["user,tokens"]
    for uid in sorted(payouts):
        lines.append(f"{uid},{payouts[uid]}")
    return "\n".join(lines) + "\n"
