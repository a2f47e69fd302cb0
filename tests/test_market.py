"""Tests for the review-outcome market against a high-precision oracle."""

import math
import random
from decimal import Decimal, getcontext

import pytest
from hypothesis import given, settings, strategies as st

from scholarchain import market as market_mod
from scholarchain.errors import LedgerError, MarketError
from scholarchain.ledger import TokenLedger
from scholarchain.market import (
    OUTCOMES,
    PUBLISH,
    REVISE,
    event_log_lines,
    open_market,
    payout_table_csv,
    payouts,
    price,
    resolve,
    trade,
    trade_cost,
)

getcontext().prec = 50

# Frozen oracle values, computed with 50-digit decimal arithmetic:
#   price(PUBLISH) at q=(10, 0), b=100
#   cost of buying 10 PUBLISH into an empty b=100 book
ORACLE_PRICE_10_0 = float(
    Decimal("0.52497918747893998609919318260414215982139989689050")
)
ORACLE_COST_BUY10 = float(
    Decimal("5.124947951362558541286698685748147383004888888466")
)


def oracle_cost(quantities, b) -> Decimal:
    """Independent LMSR cost function in 50-digit decimal arithmetic."""
    b = Decimal(b)
    return b * sum((Decimal(q) / b).exp() for q in quantities.values()).ln()


def funded_ledger(**balances) -> TokenLedger:
    return TokenLedger(initial_reserve=1000, balances=balances or {"u1": 1000})


class TestOpenAndPrice:
    def test_empty_book_is_symmetric(self):
        m = open_market(100)
        assert price(m, PUBLISH) == pytest.approx(0.5, abs=1e-15)
        assert price(m, REVISE) == pytest.approx(0.5, abs=1e-15)

    def test_nonpositive_liquidity_rejected(self):
        for b in (0, -5):
            with pytest.raises(MarketError):
                open_market(b)

    def test_independent_books(self):
        m1, m2 = open_market(10, "m1"), open_market(100, "m2")
        trade(m1, funded_ledger(), "u1", PUBLISH, 5)
        assert price(m1, PUBLISH) > price(m2, PUBLISH)

    def test_price_matches_oracle(self):
        m = open_market(100)
        m.outstanding[PUBLISH] = 10.0
        assert price(m, PUBLISH) == pytest.approx(ORACLE_PRICE_10_0, abs=1e-12)

    def test_equal_books_price_at_half(self):
        m = open_market(100)
        for x in (3.0, 250.0):
            m.outstanding = {PUBLISH: x, REVISE: x}
            assert price(m, PUBLISH) == pytest.approx(0.5, abs=1e-12)

    def test_prices_sum_to_one_after_trades(self):
        m = open_market(50)
        ledger = funded_ledger()
        rng = random.Random(4)
        for _ in range(40):
            trade(m, ledger, "u1", rng.choice(OUTCOMES), rng.uniform(0.5, 20))
            assert price(m, PUBLISH) + price(m, REVISE) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_resolved_market_refuses_quotes(self):
        m = open_market(100)
        resolve(m, funded_ledger(), PUBLISH)
        with pytest.raises(MarketError):
            price(m, PUBLISH)


class TestTrade:
    def test_buy_cost_rounds_up(self):
        m = open_market(100)
        ledger = funded_ledger()
        executed = trade(m, ledger, "u1", PUBLISH, 10)
        assert trade_cost(open_market(100), PUBLISH, 10) == pytest.approx(
            ORACLE_COST_BUY10, abs=1e-9
        )
        assert executed.token_cost == 6
        assert ledger.balance("u1") == 994
        assert ledger.platform_reserve == 1006

    def test_buy_below_float_precision_still_costs_one_token(self):
        m = open_market(100)
        ledger = funded_ledger()
        assert trade_cost(m, PUBLISH, 1e-300) == 0.0
        assert trade(m, ledger, "u1", PUBLISH, 1e-300).token_cost == 1
        assert ledger.balance("u1") == 999
        assert ledger.platform_reserve == 1001

    def test_buying_raises_the_price(self):
        m = open_market(100)
        before = price(m, PUBLISH)
        trade(m, funded_ledger(), "u1", PUBLISH, 10)
        assert price(m, PUBLISH) > before

    def test_round_trip_never_profits(self):
        m = open_market(100)
        ledger = funded_ledger()
        start = ledger.balance("u1")
        trade(m, ledger, "u1", PUBLISH, 10)
        trade(m, ledger, "u1", PUBLISH, -10)
        assert ledger.balance("u1") <= start
        assert m.holding("u1", PUBLISH) == 0.0

    def test_selling_without_holdings_rejected(self):
        m = open_market(100)
        with pytest.raises(MarketError):
            trade(m, funded_ledger(), "u1", PUBLISH, -5)

    def test_insufficient_balance_rejected_atomically(self):
        m = open_market(100)
        ledger = TokenLedger(balances={"poor": 1})
        with pytest.raises(LedgerError):
            trade(m, ledger, "poor", PUBLISH, 500)
        assert ledger.balance("poor") == 1
        assert m.outstanding[PUBLISH] == 0.0

    def test_holding_stays_below_2_256_shares(self):
        # A winning share pays one token, and a payout is a ledger amount.
        m = open_market(100)
        ledger = TokenLedger(balances={"whale": 2**256 - 1})
        trade(m, ledger, "whale", PUBLISH, 2.0**255)
        with pytest.raises(MarketError, match=r"holding must stay below 2\*\*256 shares"):
            trade(m, ledger, "whale", PUBLISH, 2.0**255)
        assert m.holding("whale", PUBLISH) == 2.0**255
        assert ledger.balance("whale") == 2**256 - 1 - 2**255

    def test_resolved_market_rejects_trades(self):
        m = open_market(100)
        ledger = funded_ledger()
        resolve(m, ledger, REVISE)
        with pytest.raises(MarketError):
            trade(m, ledger, "u1", PUBLISH, 1)

    def test_zero_delta_rejected(self):
        with pytest.raises(MarketError):
            trade(open_market(100), funded_ledger(), "u1", PUBLISH, 0)


class TestPathIndependence:
    @pytest.mark.parametrize("seed", range(5))
    def test_real_cost_depends_only_on_endpoints(self, seed):
        rng = random.Random(seed)
        b = rng.choice([10, 50, 100])
        m = open_market(b)
        ledger = funded_ledger(u1=10**6)
        start_cost = oracle_cost(m.outstanding, b)
        total_real = Decimal(0)
        for _ in range(30):
            outcome = rng.choice(OUTCOMES)
            held = m.holding("u1", outcome)
            delta = rng.uniform(-held, 15) if held else rng.uniform(0.1, 15)
            if delta == 0:
                continue
            total_real += Decimal(trade_cost(m, outcome, delta))
            trade(m, ledger, "u1", outcome, delta)
        end_cost = oracle_cost(m.outstanding, b)
        assert float(total_real) == pytest.approx(
            float(end_cost - start_cost), abs=1e-9
        )
        # Holdings ledger stays in sync with the book: per-outcome sums match.
        for outcome in OUTCOMES:
            held = sum(
                shares for key, shares in m.holdings.items() if key.endswith(f":{outcome}")
            )
            assert held == pytest.approx(m.outstanding[outcome], abs=1e-9)


class TestResolve:
    def test_winning_shares_pay_one_token_each(self):
        m = open_market(100)
        ledger = funded_ledger()
        trade(m, ledger, "u1", PUBLISH, 10)
        after_trading = ledger.balance("u1")
        payouts = resolve(m, ledger, PUBLISH)
        assert payouts == {"u1": 10}
        assert ledger.balance("u1") == after_trading + 10

    def test_losing_shares_pay_nothing(self):
        m = open_market(100)
        ledger = funded_ledger()
        trade(m, ledger, "u1", REVISE, 10)
        payouts = resolve(m, ledger, PUBLISH)
        assert payouts == {}

    def test_double_resolution_rejected(self):
        m = open_market(100)
        ledger = funded_ledger()
        resolve(m, ledger, PUBLISH)
        with pytest.raises(MarketError):
            resolve(m, ledger, PUBLISH)

    def test_fractional_shares_round_down(self):
        m = open_market(100)
        ledger = funded_ledger()
        trade(m, ledger, "u1", PUBLISH, 7.9)
        assert resolve(m, ledger, PUBLISH) == {"u1": 7}

    def test_payouts_query_is_what_resolve_pays(self):
        m = open_market(100)
        ledger = funded_ledger(u1=1000, u2=1000)
        trade(m, ledger, "u1", PUBLISH, 7.9)
        trade(m, ledger, "u2", PUBLISH, 0.5)
        trade(m, ledger, "u2", REVISE, 3)
        before = ledger.to_canonical()
        owed = payouts(m, PUBLISH)
        assert owed == {"u1": 7}
        assert payouts(m, REVISE) == {"u2": 3}
        assert m.resolved is None and ledger.to_canonical() == before
        assert resolve(m, ledger, PUBLISH) == owed

    @pytest.mark.parametrize("seed", range(8))
    def test_maker_loss_bounded_pre_rounding(self, seed):
        rng = random.Random(1000 + seed)
        b = 100
        m = open_market(b)
        ledger = funded_ledger(**{f"u{i}": 10**6 for i in range(4)})
        real_income = 0.0
        for _ in range(25):
            uid = f"u{rng.randrange(4)}"
            outcome = rng.choice(OUTCOMES)
            held = m.holding(uid, outcome)
            delta = rng.uniform(-held, 25) if held else rng.uniform(0.5, 25)
            if delta == 0:
                continue
            real_income += trade_cost(m, outcome, delta)
            trade(m, ledger, uid, outcome, delta)
        winner = rng.choice(OUTCOMES)
        liability = sum(
            shares for key, shares in m.holdings.items() if key.endswith(f":{winner}")
        )
        assert liability - real_income <= b * math.log(2) + 1e-9


class TestExports:
    def test_event_log_lines(self):
        m = open_market(100)
        ledger = funded_ledger()
        trade(m, ledger, "u1", PUBLISH, 10)
        resolve(m, ledger, PUBLISH)
        lines = event_log_lines(m).splitlines()
        assert '"tx": 1' in lines[0] and '"user": "u1"' in lines[0]
        assert '"resolved": "PUBLISH"' in lines[1]

    def test_payout_csv_sorted(self):
        csv = payout_table_csv({"zed": 3, "amy": 5})
        assert csv == "user,tokens\namy,5\nzed,3\n"


class TestKeptCost:
    """A market keeps C(q) of its book; every trade must cost what evaluating
    both sides afresh costs, bit for bit."""

    @staticmethod
    def reference(book, b, outcome, delta):
        """The book after a trade and its token cost, both sides from scratch."""
        after = dict(book)
        after[outcome] += delta
        cost = math.ceil(market_mod.lmsr_cost(after, b) - market_mod.lmsr_cost(book, b))
        return after, max(cost, 1) if delta > 0 else cost

    STEPS = st.lists(st.one_of(
        st.tuples(st.just("buy"), st.sampled_from(("u1", "u2")), st.sampled_from(OUTCOMES),
                  st.sampled_from((1e-300, 0.5, 1e4)) | st.floats(1e-6, 1e4)),
        st.tuples(st.just("sell"), st.sampled_from(("u1", "u2")), st.sampled_from(OUTCOMES),
                  st.sampled_from((1.0, 0.5)) | st.floats(0, 1)),  # 1.0: all held, to 0.0
        st.tuples(st.just("write"), st.sampled_from(OUTCOMES), st.floats(-1e4, 1e4)),
        st.tuples(st.just("resolve"), st.sampled_from(OUTCOMES)),
    ), max_size=30)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from((0.5, 20.0, 100.0, 1e6)), STEPS)
    def test_trades_cost_what_a_fresh_evaluation_costs(self, b, steps):
        ledger = TokenLedger(initial_reserve=10**30, balances={"u1": 10**30, "u2": 10**30})
        m, book = open_market(b), {PUBLISH: 0.0, REVISE: 0.0}
        for step in steps:
            if step[0] == "write":  # a direct write the kept cost must notice
                m.outstanding[step[1]] = book[step[1]] = step[2]
                continue
            if step[0] == "resolve":
                resolve(m, ledger, step[1])
                with pytest.raises(MarketError):
                    trade(m, ledger, "u1", step[1], 1.0)
                m, book = open_market(b, "successor"), {PUBLISH: 0.0, REVISE: 0.0}
                continue
            kind, uid, outcome, amount = step
            held = m.holding(uid, outcome)
            delta = amount if kind == "buy" else -held * amount
            if delta == 0:
                continue
            book, cost = self.reference(book, b, outcome, delta)
            executed = trade(m, ledger, uid, outcome, delta)
            assert executed.token_cost == cost
            assert m.outstanding == book
            if kind == "sell" and amount == 1.0:
                assert m.holding(uid, outcome) == 0.0
                assert f"{uid}:{outcome}" not in m.holdings

    @pytest.mark.parametrize("before, evaluations", [
        (lambda m: None, 2),
        (lambda m: trade(m, funded_ledger(u2=100), "u2", REVISE, 3), 1),
        (lambda m: (trade(m, funded_ledger(u2=100), "u2", REVISE, 3),
                    m.outstanding.update({REVISE: 2.0})), 2),
    ], ids=["fresh", "warm", "written-directly"])
    def test_a_warm_trade_evaluates_the_cost_function_once(
            self, monkeypatch, before, evaluations):
        m, ledger = open_market(100), funded_ledger()
        before(m)
        calls = []

        def counted(quantities, b, evaluate=market_mod.lmsr_cost):
            calls.append(dict(quantities))
            return evaluate(quantities, b)

        monkeypatch.setattr(market_mod, "lmsr_cost", counted)
        trade(m, ledger, "u1", PUBLISH, 10)
        assert len(calls) == evaluations
        assert calls[0] == m.outstanding  # the book after the trade
