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
    # Shares held, keyed "uid:outcome" as the canonical form writes them.
    holdings: dict[str, float] = field(default_factory=dict)
    resolved: Optional[str] = None
    trade_count: int = 0
    events: list[dict] = field(default_factory=list)
    # The holdings traded since the last `to_canonical_json`, a dict used as
    # a set like `TokenLedger.written`, and the holdings' kept fragments.
    written: dict[str, None] = field(init=False, repr=False, compare=False)
    _holdings: Section = field(init=False, repr=False, compare=False)
    # `lmsr_cost` of the book with the position it was computed for, b and
    # the outstanding values, so that a direct write to `outstanding` finds
    # the kept cost stale instead of using it (`_book_cost`).
    _cost: tuple[tuple, float] = field(
        default=((), 0.0), init=False, repr=False, compare=False)

    def __post_init__(self):
        # The section starts empty, with the holdings built in as written.
        self.written = dict.fromkeys(self.holdings)
        self._holdings = Section(self.holdings, self.written, repr, keyed=True)

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
    key = f"{user_id}:{outcome}"
    held = market.holdings.get(key, 0.0)
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
    market.written[key] = None
    new_holding = held + share_delta
    if new_holding == 0.0:
        market.holdings.pop(key, None)
    else:
        market.holdings[key] = new_holding
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
