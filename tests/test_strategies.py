"""Tests for repeated-game analytics and population play."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from scholarchain.games import Action, PayoffMatrix2x2, two_player_commons_game
from scholarchain.strategies import (
    AUTOMATON_FACTORIES,
    BAD,
    GOOD,
    DiscountedPayoff,
    MatchTranscript,
    PopulationConfig,
    PopulationReport,
    RoundRecord,
    StrategyAutomaton,
    _closed_form_exact,
    all_c,
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

C, D = Action.C, Action.D

DILEMMA = two_player_commons_game(2, 1)


class TestAutomata:
    def test_grim_transition_structure(self):
        g = grim()
        assert g.action(g.initial) is C
        # Cooperative state absorbs under opponent cooperation.
        assert g.step("cooperating", C) == "cooperating"
        assert g.step("cooperating", D) == "punishing"
        # Punishment state absorbs under every input.
        assert g.step("punishing", C) == "punishing"
        assert g.step("punishing", D) == "punishing"

    @given(st.lists(st.sampled_from([C, D]), min_size=1, max_size=50))
    def test_grim_defects_forever_after_first_defection(self, opponent_actions):
        g = grim()
        state = g.initial
        betrayed = False
        for opp in opponent_actions:
            action = g.action(state)
            if betrayed:
                assert action is D
            betrayed = betrayed or opp is D
            state = g.step(state, opp)

    def test_reputation_grim_flag(self):
        assert reputation_grim().reputation_rule
        assert not grim().reputation_rule

    def test_replace_checks_the_new_fields(self):
        with pytest.raises(ValueError, match="'nowhere'"):
            grim()._replace(initial="nowhere")
        with pytest.raises(ValueError):
            StrategyAutomaton._make([*grim()[:3], {}, False])
        assert grim()._replace(reputation_rule=True) == reputation_grim()._replace(name="grim")

    def test_lookup_by_name(self):
        assert automaton_by_name("alld").name == "alld"
        with pytest.raises(ValueError):
            automaton_by_name("tit-for-tat")

    def test_incomplete_transitions_rejected(self):
        with pytest.raises(ValueError):
            StrategyAutomaton(
                name="broken",
                initial="s",
                actions={"s": C},
                transitions={("s", C): "s"},
            )

    def test_unknown_transition_target_rejected(self):
        with pytest.raises(ValueError, match="^transition target 'b' unknown$"):
            StrategyAutomaton(name="broken", initial="s", actions={"s": C},
                              transitions={("s", C): "s", ("s", D): "b"})


class TestPlayMatch:
    def test_transcript_payoffs_match_stage_game(self):
        t = play_match(all_d(), grim(), DILEMMA, 4)
        assert [r[:2] for r in t.rounds] == [(D, C), (D, D), (D, D), (D, D)]
        for aa, ab, ua, ub in t.rounds:
            assert (ua, ub) == DILEMMA.payoff(aa, ab)

    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError):
            play_match(grim(), grim(), DILEMMA, 0)


class TestDiscountedAverage:
    def test_mutual_grim_cooperation(self):
        t = play_match(grim(), grim(), DILEMMA, 500)
        result = discounted_average_payoff(t, 0.9)
        assert result.value == pytest.approx(1.0, abs=1e-10)

    def test_defector_against_grim(self):
        t = play_match(all_d(), grim(), DILEMMA, 500)
        result = discounted_average_payoff(t, 0.6)
        assert result.value == pytest.approx(2 * (1 - 0.6), abs=1e-10)

    def test_single_zero_round(self):
        t = MatchTranscript(((D, D, DILEMMA.row_payoff(D, D), DILEMMA.col_payoff(D, D)),))
        assert discounted_average_payoff(t, 0.3).value == 0.0

    def test_bound_is_delta_pow_k_times_max(self):
        t = play_match(all_d(), all_c(), DILEMMA, 10)
        result = discounted_average_payoff(t, 0.5)
        assert result.truncation_bound == pytest.approx(0.5**10 * 2)

    def test_player_b_view(self):
        t = play_match(all_d(), all_c(), DILEMMA, 50)
        assert discounted_average_payoff(t, 0.5, player="b").value == pytest.approx(
            -1, abs=1e-10
        )

    def test_empty_transcript_rejected(self):
        with pytest.raises(ValueError):
            discounted_average_payoff(MatchTranscript(()), 0.5)

    def test_unknown_player_rejected(self):
        t = play_match(grim(), grim(), DILEMMA, 3)
        with pytest.raises(ValueError, match="'c'"):
            discounted_average_payoff(t, 0.5, player="c")

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_matches_a_plain_fraction_sum(self, data):
        # A match of two automata, or any 500 plays, so that a transcript
        # takes each of the game's four payoffs in any order.
        game = data.draw(asymmetric_games())
        if data.draw(st.booleans()):
            names = st.sampled_from(sorted(AUTOMATON_FACTORIES))
            a, b = automaton_by_name(data.draw(names)), automaton_by_name(data.draw(names))
            transcript = play_match(a, b, game, 500)
        else:
            plays = data.draw(st.lists(st.tuples(st.sampled_from([C, D]), st.sampled_from([C, D])),
                                       min_size=500, max_size=500))
            transcript = MatchTranscript((a, b, *game.payoff(a, b)) for a, b in plays)
        delta, player = data.draw(FLOAT_DISCOUNTS), data.draw(st.sampled_from("ab"))
        payoffs = [row[2 if player == "a" else 3] for row in transcript]
        d = Fraction(delta)
        result = discounted_average_payoff(transcript, delta, player)
        assert result.value == float((1 - d) * fraction_discounted_sum(payoffs, d))
        assert result.truncation_bound == float(d**500 * max(abs(u) for u in payoffs))

    def test_delta_domain(self):
        t = play_match(grim(), grim(), DILEMMA, 3)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                discounted_average_payoff(t, bad)


class TestClosedForm:
    @pytest.mark.parametrize("delta", [i / 10 for i in range(1, 10)])
    def test_mutual_grim_is_exactly_one(self, delta):
        assert closed_form_payoff(grim(), grim(), DILEMMA, delta) == 1.0

    @pytest.mark.parametrize("delta", [i / 10 for i in range(1, 10)])
    def test_defect_against_grim(self, delta):
        assert closed_form_payoff(all_d(), grim(), DILEMMA, delta) == pytest.approx(
            2 * (1 - delta), abs=1e-15
        )

    def test_sucker_payoff_constant(self):
        for delta in (0.1, 0.5, 0.9):
            assert closed_form_payoff(all_c(), all_d(), DILEMMA, delta) == -1.0

    @pytest.mark.parametrize(
        "pair", list(itertools.product(["grim", "allc", "alld"], repeat=2))
    )
    @pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
    def test_agrees_with_truncated_simulation(self, pair, delta):
        a, b = automaton_by_name(pair[0]), automaton_by_name(pair[1])
        exact = closed_form_payoff(a, b, DILEMMA, delta)
        sim = discounted_average_payoff(play_match(a, b, DILEMMA, 500), delta)
        assert abs(exact - sim.value) <= sim.truncation_bound + 1e-12

    @given(st.data())
    def test_exact_on_every_pair_of_named_automata(self, data):
        game = data.draw(asymmetric_games())
        d = data.draw(DISCOUNTS)
        for name_a, name_b in itertools.product(AUTOMATON_FACTORIES, repeat=2):
            a, b = automaton_by_name(name_a), automaton_by_name(name_b)
            assert _closed_form_exact(a, b, game, d) == exact_discounted_average(a, b, game, d)

    @settings(deadline=None)
    @given(st.data())
    def test_exact_on_the_discounts_of_floats(self, data):
        game = data.draw(asymmetric_games())
        delta = data.draw(FLOAT_DISCOUNTS)
        d = Fraction(delta)
        for name_a, name_b in itertools.product(AUTOMATON_FACTORIES, repeat=2):
            a, b = automaton_by_name(name_a), automaton_by_name(name_b)
            exact = exact_discounted_average(a, b, game, d)
            assert _closed_form_exact(a, b, game, d) == exact
            assert closed_form_payoff(a, b, game, delta) == float(exact)


def exact_discounted_average(a, b, game, d):
    """Independent exact oracle for two automata of at most two states each.

    Their joint automaton has at most four states, so player A's payoffs are
    periodic from round 4 on, with a period of at most 4 that divides 12:
    the average is (1 - d) * (sum of rounds 0-3 + d^4 * (sum of rounds 4-15
    weighted from 1) / (1 - d^12)).
    """
    assert len(a.actions) <= 2 and len(b.actions) <= 2
    payoffs = [ua for _, _, ua, _ in play_match(a, b, game, 16)]
    head = sum(d**t * u for t, u in enumerate(payoffs[:4]))
    period = sum(d**t * u for t, u in enumerate(payoffs[4:]))
    return (1 - d) * (head + d**4 * period / (1 - d**12))


def fraction_discounted_sum(payoffs, d):
    """Sum of d^k * u_k in Fractions, nested as u_0 + d * (u_1 + d * (...)),
    which keeps the denominators of a 500-round sum affordable."""
    total = Fraction(0)
    for u in reversed(payoffs):
        total = u + d * total
    return total


DISCOUNTS = st.fractions(0, 1, max_denominator=50).filter(lambda d: 0 < d < 1)

#: The discounts the program passes: `Fraction(float)`, whose denominator is
#: a power of two up to 2**1074.
FLOAT_DISCOUNTS = st.floats(0, 1, exclude_min=True, exclude_max=True) | st.sampled_from(
    [math.nextafter(1.0, 0.0), 5e-324])


def asymmetric_games():
    """Games with eight independently drawn payoffs."""
    return st.tuples(*[st.tuples(PAYOFFS, PAYOFFS) for _ in range(4)]).map(PayoffMatrix2x2)


class TestCooperationSustained:
    def test_boundary_patience_sustains(self):
        assert cooperation_sustained(DILEMMA, 0.5) is True

    def test_just_below_boundary_fails(self):
        assert cooperation_sustained(DILEMMA, 0.49) is False

    def test_patient_limit(self):
        assert cooperation_sustained(DILEMMA, 0.99) is True

    def test_non_dilemma_rejected(self):
        from scholarchain.games import PayoffMatrix2x2

        harmony = PayoffMatrix2x2.from_cells(
            {(C, C): (3, 3), (C, D): (1, 1), (D, C): (1, 1), (D, D): (0, 0)}
        )
        with pytest.raises(ValueError):
            cooperation_sustained(harmony, 0.9)


    @pytest.mark.parametrize("game, threshold", [
        (DILEMMA, 0.5),  # B = 2, e = 1: (T - R) / (T - P) = 1 / 2
        (PayoffMatrix2x2.from_cells(
            {(C, C): (5, 5), (C, D): (-1, 8), (D, C): (8, -1), (D, D): (0, 0)}), 0.375),
    ], ids=["commons2", "three-eighths"])
    def test_the_exact_threshold_sustains(self, game, threshold):
        below = math.nextafter(threshold, 0)
        assert cooperation_sustained(game, threshold) is True
        assert cooperation_sustained(game, below) is False
        assert reference_sustained(game, threshold) and not reference_sustained(game, below)

    @given(st.data())
    def test_matches_the_closed_form_comparison(self, data):
        game = data.draw(dilemmas())
        (reward, _), _, (temptation, _), (punishment, _) = game.cells
        nearest = float((temptation - reward) / (temptation - punishment))
        deltas = [math.nextafter(nearest, 0), nearest, math.nextafter(nearest, 1),
                  data.draw(st.floats(0, 1, exclude_min=True, exclude_max=True))]
        for delta in deltas:
            if 0 < delta < 1:
                assert cooperation_sustained(game, delta) is reference_sustained(game, delta)


def reference_sustained(game, delta):
    """Grim on grim against the unconditional defector on grim, by the exact
    closed forms."""
    d = Fraction(delta)
    return _closed_form_exact(grim(), grim(), game, d) >= _closed_form_exact(
        all_d(), grim(), game, d)


PAYOFFS = st.fractions(-50, 50, max_denominator=60)
GAPS = st.fractions(Fraction(1, 60), 50, max_denominator=60)


@st.composite
def dilemmas(draw):
    """Games with row payoffs T > R > P and a sucker payoff S of either sign;
    the column payoffs mirror the rows or are drawn freely."""
    punishment = draw(PAYOFFS)
    reward = punishment + draw(GAPS)
    temptation = reward + draw(GAPS)
    sucker = draw(PAYOFFS)
    if draw(st.booleans()):
        cols = (reward, temptation, sucker, punishment)
    else:
        cols = tuple(draw(PAYOFFS) for _ in range(4))
    return PayoffMatrix2x2.from_cells({
        (C, C): (reward, cols[0]), (C, D): (sucker, cols[1]),
        (D, C): (temptation, cols[2]), (D, D): (punishment, cols[3])})


class TestPopulationThreshold:
    def test_two_player_case(self):
        assert cooperation_threshold_population(1, False) == 0.5

    def test_grows_with_population(self):
        assert cooperation_threshold_population(4, False) == 0.875

    def test_shared_reputation_restores_two_player_bar(self):
        assert cooperation_threshold_population(100, True) == 0.5
        assert cooperation_threshold_population(7, True) == 0.5

    def test_domain(self):
        with pytest.raises(ValueError):
            cooperation_threshold_population(0, False)


def population(size, overrides=None, *, delta=0.9, visible=True, seed=7, horizon=60):
    strategies = {p: reputation_grim() for p in range(size)}
    for p, name in (overrides or {}).items():
        strategies[p] = automaton_by_name(name)
    return PopulationConfig(
        size=size,
        strategies=strategies,
        delta=delta,
        reputation_visible=visible,
        rng_seed=seed,
        horizon=horizon,
    )


class TestRunPopulation:
    def test_all_grim_population_cooperates_forever(self):
        config = population(8, {p: "grim" for p in range(8)}, visible=False, seed=3)
        report = run_population(config, DILEMMA)
        assert all(rate == 1.0 for rate in report.cooperation_rates)

    def test_same_seed_reproduces_bytes(self):
        config = population(9, {0: "alld"}, seed=11)
        r1 = run_population(config, DILEMMA)
        r2 = run_population(config, DILEMMA)
        assert r1.to_csv() == r2.to_csv()
        assert r1.summary_json() == r2.summary_json()

    def test_different_seed_changes_matching(self):
        a = run_population(population(9, {0: "alld"}, seed=1), DILEMMA)
        b = run_population(population(9, {0: "alld"}, seed=2), DILEMMA)
        assert a.to_csv() != b.to_csv()

    def test_odd_population_sits_one_out(self):
        report = run_population(population(5, seed=13), DILEMMA)
        per_round = {}
        for row in report.rows:
            per_round.setdefault(row.round, []).append(row.player)
        assert all(len(players) == 4 for players in per_round.values())

    def test_reputation_flags_never_recover(self):
        config = population(10, {0: "alld", 1: "alld"}, seed=5)
        report = run_population(config, DILEMMA)
        seen_bad = set()
        for row in report.rows:
            if row.player in seen_bad:
                assert row.reputation == "bad"
            elif row.reputation == "bad":
                seen_bad.add(row.player)

    def test_defector_loses_under_patience(self):
        config = population(10, {0: "alld"}, delta=0.9, seed=21, horizon=120)
        report = run_population(config, DILEMMA)
        defector = report.discounted_payoffs[0]
        cooperators = [report.discounted_payoffs[p] for p in range(1, 10)]
        assert defector < sum(cooperators) / len(cooperators)

    def test_defector_wins_under_impatience(self):
        config = population(10, {0: "alld"}, delta=0.1, seed=21, horizon=120)
        report = run_population(config, DILEMMA)
        defector = report.discounted_payoffs[0]
        cooperators = [report.discounted_payoffs[p] for p in range(1, 10)]
        assert defector > sum(cooperators) / len(cooperators)

    @pytest.mark.parametrize("visible", [True, False])
    def test_shared_automata_play_as_separate_copies(self, visible):
        separate = population(9, {0: "alld", 4: "grim", 5: "allc"}, visible=visible, seed=17)
        shared = {name: automaton_by_name(name) for name in AUTOMATON_FACTORIES}
        config = separate._replace(
            strategies={p: shared[aut.name] for p, aut in separate.strategies.items()})
        a, b = run_population(separate, DILEMMA), run_population(config, DILEMMA)
        assert (a.to_csv(), a.summary_json()) == (b.to_csv(), b.summary_json())

    def test_asymmetric_game_rejected(self):
        from scholarchain.games import PayoffMatrix2x2

        lopsided = PayoffMatrix2x2.from_cells(
            {(C, C): (1, 5), (C, D): (0, 0), (D, C): (0, 0), (D, D): (1, 1)}
        )
        with pytest.raises(ValueError):
            run_population(population(4, seed=1), lopsided)

    def test_csv_shape(self):
        report = run_population(population(4, seed=2, horizon=3), DILEMMA)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "round,player,action,stage_payoff,reputation"
        assert len(lines) == 1 + 3 * 4

    def test_replace_checks_the_new_fields(self):
        config = population(4, seed=2)
        for bad in ({"delta": 1.5}, {"horizon": 0}, {"size": 5}):
            with pytest.raises(ValueError):
                config._replace(**bad)
        with pytest.raises(ValueError):
            PopulationConfig._make([*config[:-1], 0])
        assert config._replace(delta=0.5) == population(4, seed=2, delta=0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            population(1)
        with pytest.raises(ValueError):
            PopulationConfig(
                size=2,
                strategies={0: grim()},
                delta=0.5,
                reputation_visible=False,
                rng_seed=0,
                horizon=5,
            )


def reference_population(config, game):
    """The population round on `Action`s and `Fraction`s, as it was played
    before it ran on action indices: (rows, discounted payoffs, cooperation
    rates, CSV text)."""
    rng = random.Random(config.rng_seed)
    automata = {p: config.strategies[p] for p in range(config.size)}
    states = {p: automata[p].initial for p in automata}
    good = {p: True for p in automata}
    stage_payoffs = {p: [] for p in automata}
    rows, coop_rates = [], []

    def choose(p, opponent):
        aut = automata[p]
        if config.reputation_visible and aut.reputation_rule:
            return C if good[opponent] else D
        return aut.action(states[p])

    for k in range(config.horizon):
        order = list(range(config.size))
        rng.shuffle(order)
        if config.size % 2:
            order = order[:-1]
        played, flag_drops = [], []
        for i in range(0, len(order), 2):
            p, q = order[i], order[i + 1]
            ap, aq = choose(p, q), choose(q, p)
            up, uq = game.row_payoff(ap, aq), game.row_payoff(aq, ap)
            played.append((p, ap, up))
            played.append((q, aq, uq))
            if ap is D and good[q]:
                flag_drops.append(p)
            if aq is D and good[p]:
                flag_drops.append(q)
            states[p] = automata[p].step(states[p], aq)
            states[q] = automata[q].step(states[q], ap)
        for p in flag_drops:
            good[p] = False
        for p, action, payoff in sorted(played):
            stage_payoffs[p].append((k, payoff))
            rows.append(RoundRecord(k, p, action, payoff, GOOD if good[p] else BAD))
        coop_rates.append(sum(1 for _, a, _ in played if a is C) / len(played))

    delta = config.delta
    discounted = {}
    for p, per_round in stage_payoffs.items():
        total = 0.0
        for k, u in per_round:
            total += float(u) * delta**k
        discounted[p] = (1 - delta) * total
    csv = "\n".join(["round,player,action,stage_payoff,reputation"] + [
        f"{r.round},{r.player},{r.action.value},{r.stage_payoff},{r.reputation}"
        for r in rows]) + "\n"
    return rows, discounted, tuple(coop_rates), csv


#: The commons2 game and a second symmetric dilemma with payoffs that are
#: not integers.
POPULATION_GAMES = (
    DILEMMA,
    PayoffMatrix2x2.from_cells({
        (C, C): (Fraction(3, 2), Fraction(3, 2)), (C, D): (Fraction(-1, 3), Fraction(7, 3)),
        (D, C): (Fraction(7, 3), Fraction(-1, 3)), (D, D): (Fraction(1, 10), Fraction(1, 10)),
    }),
)


@st.composite
def population_runs(draw):
    size = draw(st.integers(2, 12))
    names = st.sampled_from(sorted(AUTOMATON_FACTORIES))
    config = PopulationConfig(
        size=size,
        strategies={p: automaton_by_name(draw(names)) for p in range(size)},
        delta=draw(st.floats(0.001, 0.999)),
        reputation_visible=draw(st.booleans()),
        rng_seed=draw(st.integers(0, 2**32)),
        horizon=draw(st.integers(1, 40)),
    )
    return config, draw(st.sampled_from(POPULATION_GAMES))


@given(population_runs())
def test_population_matches_the_reference_round(run):
    config, game = run
    report = run_population(config, game)
    rows, discounted, coop_rates, csv = reference_population(config, game)
    assert list(report.rows) == rows
    assert list(report.discounted_payoffs) == list(discounted)
    assert [v.hex() for v in report.discounted_payoffs.values()] == [
        v.hex() for v in discounted.values()]
    assert report.cooperation_rates == coop_rates
    assert report.to_csv() == csv
    assert report.summary_json() == PopulationReport(
        config.rng_seed, config.delta, config.horizon, tuple(rows), discounted,
        coop_rates).summary_json()
