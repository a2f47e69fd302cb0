"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with output visible:

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import random
import time
from contextlib import contextmanager
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from scipy.stats import binomtest

from scholarchain.cli import load_scenario, resolve_scenario_path, run_protocol_demo
from scholarchain.errors import LedgerError, LifecycleError, MarketError
from scholarchain.games import (
    Action,
    PublicationParams,
    build_publication_game,
    mixed_equilibrium,
    pure_equilibria,
    two_player_commons_game,
)
from scholarchain.ledger import FORFEIT, MINT, REFUND, RESERVE, TokenLedger
from scholarchain.lifecycle import ProtocolConfig, ProtocolState
from scholarchain.market import (
    OUTCOMES,
    PUBLISH,
    open_market,
    price,
    resolve,
    trade,
    trade_cost,
)
from scholarchain.netchain import PeerSet, verify_export
from scholarchain.strategies import (
    PopulationConfig,
    all_d,
    automaton_by_name,
    closed_form_payoff,
    cooperation_sustained,
    cooperation_threshold_population,
    discounted_average_payoff,
    grim,
    play_match,
    reputation_grim,
    run_population,
)
from protocol_fuzz import LEGAL_TRANSITIONS, random_walk

getcontext().prec = 50

C, D = Action.C, Action.D

DILEMMA = two_player_commons_game(2, 1)
TENTHS = [i / 10 for i in range(1, 10)]


@contextmanager
def criterion(num: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget:.0f}s budget"
            )
        ok = True
        print(f"\nACCEPTANCE {num} [{label}]: PASS ({elapsed:.2f}s)")
    finally:
        if not ok:
            print(f"\nACCEPTANCE {num} [{label}]: FAIL")


def test_criterion_1_table_reproduction():
    with criterion(1, "table reproduction, exact", budget=1.0):
        biased = build_publication_game(
            PublicationParams(4, 1, {"e0": 1, "0e": 0,
                                     "ee": Fraction(1, 2), "00": Fraction(1, 2)})
        )
        debiased = build_publication_game(
            PublicationParams(4, 1, {"e0": Fraction(1, 2), "0e": 0,
                                     "ee": Fraction(1, 2), "00": Fraction(1, 2)})
        )
        assert biased.payoff(C, C) == (2, 2)
        assert biased.payoff(C, D) == (0, 3)
        assert biased.payoff(D, C) == (3, 0)
        assert biased.payoff(D, D) == (1, 1)
        assert debiased.payoff(C, C) == (2, 2)
        assert debiased.payoff(C, D) == (0, 1)
        assert debiased.payoff(D, C) == (1, 0)
        assert debiased.payoff(D, D) == (1, 1)
        assert pure_equilibria(biased) == [(D, D)]
        assert pure_equilibria(debiased) == [(C, C), (D, D)]
        assert mixed_equilibrium(debiased) == (Fraction(1, 2), Fraction(1, 2))


def test_criterion_2_repeated_game_analytics():
    with criterion(2, "repeated-game analytics, exact/1e-10"):
        for delta in TENTHS:
            assert closed_form_payoff(grim(), grim(), DILEMMA, delta) == 1.0
            assert closed_form_payoff(all_d(), grim(), DILEMMA, delta) == (
                pytest.approx(2 * (1 - delta), abs=1e-12)
            )
            for a, b in ((grim(), grim()), (all_d(), grim())):
                sim = discounted_average_payoff(
                    play_match(a, b, DILEMMA, 500), delta
                )
                assert abs(sim.value - closed_form_payoff(a, b, DILEMMA, delta)) < 1e-10
        assert cooperation_sustained(DILEMMA, 0.5) is True
        assert cooperation_sustained(DILEMMA, 0.4999) is False
        assert cooperation_sustained(DILEMMA, 0.5001) is True


def test_criterion_3_population_threshold_formula():
    with criterion(3, "population patience threshold"):
        assert cooperation_threshold_population(1, False) == 0.5
        for n in (1, 2, 4, 10, 100):
            assert cooperation_threshold_population(n, False) == 1 - 1 / (2 * n)
            assert cooperation_threshold_population(n, True) == 0.5


def _defector_vs_cooperators(seed: int, delta: float) -> tuple[float, float]:
    strategies = {p: reputation_grim() for p in range(10)}
    strategies[0] = automaton_by_name("alld")
    report = run_population(
        PopulationConfig(
            size=10, strategies=strategies, delta=delta,
            reputation_visible=True, rng_seed=seed, horizon=100,
        ),
        DILEMMA,
    )
    defector = report.discounted_payoffs[0]
    cooperators = [report.discounted_payoffs[p] for p in range(1, 10)]
    return defector, sum(cooperators) / len(cooperators)


def test_criterion_4_population_monte_carlo():
    with criterion(4, "defection pays iff impatient (1000 seeds/side)", budget=60.0):
        runs = 1000
        patient = [_defector_vs_cooperators(seed, 0.9) for seed in range(runs)]
        impatient = [_defector_vs_cooperators(seed, 0.1) for seed in range(runs)]
        patient_below = sum(1 for d, c in patient if d < c)
        impatient_above = sum(1 for d, c in impatient if d > c)
        # Two-sided sign test: the direction must dominate at p < 0.01.
        assert patient_below > runs // 2
        assert binomtest(patient_below, runs, 0.5).pvalue < 0.01
        assert impatient_above > runs // 2
        assert binomtest(impatient_above, runs, 0.5).pvalue < 0.01


def test_criterion_5_lifecycle_fsm_fuzz():
    with criterion(5, "article FSM: 10,000 random walks", budget=30.0):
        transitions = set()
        for seed in range(10_000):
            result = random_walk(seed, steps=10)
            transitions |= result.transitions
            assert result.atomicity_violations == 0
            assert result.retraction_violations == 0
            assert result.digest_violations == 0
        assert transitions <= LEGAL_TRANSITIONS

        # The three claim branches, including the exact contract error.
        state = ProtocolState(ProtocolConfig(initial_reserve=10, peers=("p1",)))
        created = state.claim_published_article("a" * 64, "10.1/x", "u1")
        assert created.state.value == "PUBLISHED" and created.owners == ["u1"]
        updated = state.claim_published_article("a" * 64, "10.1/x", "u2")
        assert updated.owners == ["u1", "u2"]
        with pytest.raises(
            LifecycleError, match="^Owner has already claimed that article$"
        ):
            state.claim_published_article("a" * 64, "10.1/x", "u1")


def test_criterion_6_ledger_conservation_fuzz():
    with criterion(6, "conservation over 10,000 op sequences"):
        for seed in range(10_000):
            rng = random.Random(seed)
            ledger = TokenLedger(
                initial_reserve=rng.randrange(50, 200),
                balances={"a": 40, "b": 40, "c": 40},
            )
            market = open_market(30.0, "fuzz")
            for _ in range(8):
                op = rng.randrange(5)
                user = rng.choice("abc")
                try:
                    if op == 0:
                        ledger.credit(user, rng.randrange(1, 30),
                                      rng.choice([MINT, RESERVE]))
                    elif op == 1:
                        ledger.escrow(user, rng.randrange(1, 30))
                    elif op == 2:
                        ledger.resolve_escrow(user, rng.randrange(1, 30),
                                              rng.choice([FORFEIT, REFUND]))
                    elif op == 3:
                        held = market.holding(user, "PUBLISH")
                        delta = rng.choice([4.0, 9.5, -held if held else 2.0])
                        trade(market, ledger, user, "PUBLISH", delta)
                    else:
                        resolve(market, ledger, rng.choice(OUTCOMES))
                        market = open_market(30.0, "fuzz")  # fresh book
                except (LedgerError, MarketError):
                    pass
                assert ledger.conservation_gap() == 0


ORACLE_COST_BUY10 = Decimal("5.124947951362558541286698685748147383004888888466")


def _oracle_cost(quantities, b) -> Decimal:
    b = Decimal(b)
    return b * sum((Decimal(q) / b).exp() for q in quantities.values()).ln()


def test_criterion_7_market_suite():
    with criterion(7, "market pricing, rounding and bounded loss"):
        # Normalization and monotonicity along random paths, plus
        # pre-rounding path independence against the decimal oracle.
        for seed in range(1000):
            rng = random.Random(seed)
            b = rng.choice([10.0, 50.0, 100.0])
            market = open_market(b)
            ledger = TokenLedger(initial_reserve=10**6,
                                 balances={"t": 10**6})
            start = _oracle_cost(market.outstanding, b)
            total_real = 0.0
            income = 0.0
            for _ in range(8):
                outcome = rng.choice(OUTCOMES)
                held = market.holding("t", outcome)
                delta = rng.uniform(-held, 12) if held else rng.uniform(0.1, 12)
                if delta == 0:
                    continue
                before = price(market, outcome)
                real = trade_cost(market, outcome, delta)
                trade(market, ledger, "t", outcome, delta)
                total_real += real
                income += real
                if delta > 0:
                    assert price(market, outcome) > before
                assert abs(price(market, PUBLISH) + price(market, "REVISE") - 1) < 1e-12
            end = _oracle_cost(market.outstanding, b)
            assert abs(total_real - float(end - start)) < 1e-9
            winner = rng.choice(OUTCOMES)
            liability = sum(
                shares for key, shares in market.holdings.items()
                if key.endswith(f":{winner}")
            )
            assert liability - income <= b * math.log(2) + 1e-9

        # The liquidity-100 worked example: ~5.1249 raw, 6 tokens rounded.
        market = open_market(100.0)
        ledger = TokenLedger(balances={"u1": 100})
        raw = trade_cost(market, PUBLISH, 10)
        assert abs(raw - float(ORACLE_COST_BUY10)) < 1e-9
        executed = trade(market, ledger, "u1", PUBLISH, 10)
        assert executed.token_cost == 6


def test_criterion_8_chain_replay_and_tampering():
    with criterion(8, "replay determinism and tamper detection", budget=10.0):
        scenario = load_scenario(resolve_scenario_path("protocol_publish.json"))
        first = run_protocol_demo(scenario, 7)
        second = run_protocol_demo(scenario, 7)
        summary1 = json.loads(first["protocol_publish_summary.json"])
        summary2 = json.loads(second["protocol_publish_summary.json"])
        assert summary1["final_state_hash"] == summary2["final_state_hash"]
        assert first["protocol_publish_chain.jsonl"] == second["protocol_publish_chain.jsonl"]

        config = ProtocolConfig.from_canonical(
            json.loads(first["protocol_publish_genesis.json"])["config"]
        )
        peers = PeerSet(config.peers)
        chain_text = first["protocol_publish_chain.jsonl"]
        assert verify_export(chain_text, ProtocolState(config), peers).ok

        data = chain_text.encode("utf-8")
        genesis = ProtocolState(config)
        for pos in range(len(data)):
            tampered = bytearray(data)
            tampered[pos] ^= 0x01
            text = tampered.decode("utf-8", errors="surrogateescape")
            assert not verify_export(text, genesis, peers).ok, f"byte {pos}"
