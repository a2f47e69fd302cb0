"""Tests for the one-shot game builders and equilibrium analysis."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from scholarchain.games import (
    ACTIONS,
    Action,
    CommonsParams,
    EquilibriumSet,
    PayoffMatrix2x2,
    PublicationParams,
    as_rational,
    build_commons_payoff,
    build_publication_game,
    dominant_action,
    equilibrium_set,
    game_from_json,
    mixed_equilibrium,
    pure_equilibria,
    two_player_commons_game,
)

C, D = Action.C, Action.D


def biased_publication_game() -> PayoffMatrix2x2:
    """Reward 4, hype effort 1, review process that always favors hype."""
    return build_publication_game(
        PublicationParams(
            reward=4,
            effort=1,
            publish_prob={"e0": 1, "0e": 0, "ee": Fraction(1, 2), "00": Fraction(1, 2)},
        )
    )


def debiased_publication_game() -> PayoffMatrix2x2:
    """Same race after halving the edge hype has over honest work."""
    return build_publication_game(
        PublicationParams(
            reward=4,
            effort=1,
            publish_prob={
                "e0": Fraction(1, 2),
                "0e": 0,
                "ee": Fraction(1, 2),
                "00": Fraction(1, 2),
            },
        )
    )


def review_dilemma() -> PayoffMatrix2x2:
    """The two-player review commons with benefit 2, effort 1."""
    return two_player_commons_game(2, 1)


def zeros() -> PayoffMatrix2x2:
    return PayoffMatrix2x2.from_cells({(a, b): (0, 0) for a in ACTIONS for b in ACTIONS})


def brute_force_equilibria(game: PayoffMatrix2x2) -> set:
    """Independent check: a profile is Nash iff no unilateral deviation
    strictly improves the deviating player."""
    found = set()
    for a in ACTIONS:
        for b in ACTIONS:
            improvable = False
            for alt in ACTIONS:
                if game.row_payoff(alt, b) > game.row_payoff(a, b):
                    improvable = True
                if game.col_payoff(a, alt) > game.col_payoff(a, b):
                    improvable = True
            if not improvable:
                found.add((a, b))
    return found


small_rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def random_game_strategy():
    return st.tuples(
        *[st.tuples(small_rationals, small_rationals) for _ in range(4)]
    ).map(PayoffMatrix2x2)


@st.composite
def maybe_symmetric_games(draw):
    """A random game, or one whose column payoffs mirror its row payoffs."""
    game = draw(random_game_strategy())
    if draw(st.booleans()):
        return game
    return PayoffMatrix2x2.from_cells(
        {(a, b): (game.row_payoff(a, b), game.row_payoff(b, a))
         for a in ACTIONS for b in ACTIONS})


def brute_force_dominant(game: PayoffMatrix2x2, player: str):
    """Independent check: the action whose own payoff is strictly higher
    than the other action's against every opponent action."""
    def own(mine, theirs):
        cell = (mine, theirs) if player == "row" else (theirs, mine)
        return game.payoff(*cell)[0 if player == "row" else 1]

    for action, other in ((C, D), (D, C)):
        if all(own(action, theirs) > own(other, theirs) for theirs in ACTIONS):
            return action
    return None


def has_interior_mix(game: PayoffMatrix2x2) -> bool:
    """Independent check: a player's payoff gap u(C) - u(D) is linear in the
    opponent's mix, so it has a root strictly inside (0, 1) exactly when its
    values against the opponent's two pure actions have opposite signs."""
    row_gaps = [game.payoff(C, b)[0] - game.payoff(D, b)[0] for b in ACTIONS]
    col_gaps = [game.payoff(a, C)[1] - game.payoff(a, D)[1] for a in ACTIONS]
    return row_gaps[0] * row_gaps[1] < 0 and col_gaps[0] * col_gaps[1] < 0


class TestRationals:
    def test_parse_forms(self):
        assert as_rational("1/2") == Fraction(1, 2)
        assert as_rational("-3") == Fraction(-3)
        assert as_rational(7) == Fraction(7)

    def test_replace_checks_the_new_cells(self):
        game = review_dilemma()
        with pytest.raises(ValueError):
            game._replace(cells=((1, 2),))
        with pytest.raises(TypeError):
            game._replace(cells=tuple((0.5, 0) for _ in range(4)))
        assert game._replace(cells=game.shifted(1).cells) == biased_publication_game()
        assert PayoffMatrix2x2._make([(("1/2", 0),) * 4]).cells[0] == (Fraction(1, 2), 0)

    def test_missing_cells_are_named(self):
        with pytest.raises(ValueError, match=r"^cells missing for profiles \[\(<Action\.C"):
            PayoffMatrix2x2.from_cells({})

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            as_rational(0.5)
        with pytest.raises(TypeError):
            PayoffMatrix2x2.from_cells(
                {(a, b): (0.1, 0) for a in ACTIONS for b in ACTIONS}
            )


class TestCommonsPayoff:
    def setup_method(self):
        self.params = CommonsParams(benefit=2, effort=1, threshold=3, size=10)

    def test_cooperator_with_enough_cooperators(self):
        assert build_commons_payoff(self.params, 5, C) == 1

    def test_defector_without_cooperators(self):
        assert build_commons_payoff(self.params, 0, D) == 0

    def test_lone_cooperator_pays_the_effort(self):
        assert build_commons_payoff(self.params, 0, C) == -1

    def test_boundary_counts_as_enough(self):
        assert build_commons_payoff(self.params, 3, C) == 1
        assert build_commons_payoff(self.params, 3, D) == 2

    def test_coop_count_range_checked(self):
        with pytest.raises(ValueError):
            build_commons_payoff(self.params, 11, C)
        with pytest.raises(ValueError):
            build_commons_payoff(self.params, -1, D)

    def test_param_ordering_enforced(self):
        with pytest.raises(ValueError):
            CommonsParams(benefit=1, effort=1, threshold=1, size=2)
        with pytest.raises(ValueError):
            CommonsParams(benefit=2, effort=0, threshold=1, size=2)

    def test_replace_checks_the_new_fields(self):
        for bad in ({"effort": 0}, {"benefit": 1}, {"threshold": 0}, {"size": 2}):
            with pytest.raises(ValueError):
                self.params._replace(**bad)
        assert self.params._replace(benefit="5/2").benefit == Fraction(5, 2)

    @pytest.mark.parametrize("coop_count", range(0, 11))
    def test_defection_dominates_cell_wise(self, coop_count):
        # Within each column of the commons table D strictly beats C.
        assert build_commons_payoff(self.params, coop_count, D) > build_commons_payoff(
            self.params, coop_count, C
        )


class TestPublicationGame:
    def test_biased_matrix(self):
        g = biased_publication_game()
        assert g.payoff(C, C) == (2, 2)
        assert g.payoff(C, D) == (0, 3)
        assert g.payoff(D, C) == (3, 0)
        assert g.payoff(D, D) == (1, 1)

    def test_debiased_matrix(self):
        g = debiased_publication_game()
        assert g.payoff(C, C) == (2, 2)
        assert g.payoff(C, D) == (0, 1)
        assert g.payoff(D, C) == (1, 0)
        assert g.payoff(D, D) == (1, 1)

    def test_zero_reward_leaves_only_effort_costs(self):
        g = build_publication_game(
            PublicationParams(
                reward=0,
                effort=1,
                publish_prob={"e0": 1, "0e": 0, "ee": Fraction(1, 2), "00": 1},
            )
        )
        # With nothing to win, hype just burns effort.
        assert g.payoff(D, D) == (-1, -1)
        assert g.payoff(C, D) == (0, -1)
        assert g.payoff(D, C) == (-1, 0)
        assert g.payoff(C, C) == (0, 0)

    def test_biased_game_is_review_dilemma_shifted_by_one(self):
        g = biased_publication_game()
        pd = review_dilemma()
        assert g == pd.shifted(1)
        assert pure_equilibria(g) == pure_equilibria(pd)

    def test_prob_keys_required(self):
        with pytest.raises(ValueError):
            PublicationParams(reward=4, effort=1, publish_prob={"e0": 1})

    def test_unknown_prob_key_rejected(self):
        # The four keys of PROB_KEYS, and a fifth.
        probs = dict.fromkeys(("00", "0e", "e0", "ee", "e1"), Fraction(1, 2))
        with pytest.raises(ValueError, match="^unknown publish_prob key 'e1'$"):
            PublicationParams(reward=4, effort=1, publish_prob=probs)

    def test_replace_checks_the_new_fields(self):
        params = PublicationParams(reward=4, effort=1, publish_prob=dict.fromkeys(
            ("00", "0e", "e0", "ee"), Fraction(1, 2)))
        for bad in ({"effort": 0}, {"reward": -1}, {"publish_prob": {"e0": 1}}):
            with pytest.raises(ValueError):
                params._replace(**bad)
        assert params._replace(reward="4") == params

    def test_prob_range_checked(self):
        with pytest.raises(ValueError):
            PublicationParams(
                reward=4, effort=1,
                publish_prob={"e0": 2, "0e": 0, "ee": 0, "00": 0},
            )


class TestPureEquilibria:
    def test_biased_game_has_single_defection_equilibrium(self):
        assert pure_equilibria(biased_publication_game()) == [(D, D)]

    def test_debiased_game_is_a_coordination_game(self):
        assert pure_equilibria(debiased_publication_game()) == [(C, C), (D, D)]

    def test_all_zeros_every_profile_qualifies(self):
        assert len(pure_equilibria(zeros())) == 4

    @given(random_game_strategy())
    def test_matches_brute_force(self, game):
        assert set(pure_equilibria(game)) == brute_force_equilibria(game)


class TestMixedEquilibrium:
    def test_debiased_game_splits_evenly(self):
        assert mixed_equilibrium(debiased_publication_game()) == (
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_biased_game_has_no_interior_mix(self):
        # Row indifference 2q = 3q + (1-q) collapses to 0 = 1: no solution.
        assert mixed_equilibrium(biased_publication_game()) is None

    def test_matching_pennies(self):
        g = PayoffMatrix2x2.from_cells(
            {
                (C, C): (1, -1),
                (C, D): (-1, 1),
                (D, C): (-1, 1),
                (D, D): (1, -1),
            }
        )
        assert mixed_equilibrium(g) == (Fraction(1, 2), Fraction(1, 2))

    @given(random_game_strategy())
    def test_exists_exactly_when_both_gaps_change_sign(self, game):
        assert (mixed_equilibrium(game) is not None) is has_interior_mix(game)

    @given(random_game_strategy())
    def test_interior_mix_makes_both_players_indifferent(self, game):
        mix = mixed_equilibrium(game)
        if mix is None:
            return
        p_row_d, p_col_d = mix
        q_c = 1 - p_col_d
        row_c = game.row_payoff(C, C) * q_c + game.row_payoff(C, D) * p_col_d
        row_d = game.row_payoff(D, C) * q_c + game.row_payoff(D, D) * p_col_d
        assert row_c == row_d
        p_c = 1 - p_row_d
        col_c = game.col_payoff(C, C) * p_c + game.col_payoff(D, C) * p_row_d
        col_d = game.col_payoff(C, D) * p_c + game.col_payoff(D, D) * p_row_d
        assert col_c == col_d


class TestDominance:
    def test_review_dilemma_defection_dominates(self):
        assert dominant_action(review_dilemma(), "row") is D
        assert dominant_action(review_dilemma(), "col") is D

    def test_debiased_game_has_no_dominant_action(self):
        # 2 > 1 against C but 0 < 1 against D.
        assert dominant_action(debiased_publication_game(), "row") is None

    def test_all_zeros_nothing_dominates(self):
        assert dominant_action(zeros(), "row") is None

    def test_unknown_player_rejected(self):
        with pytest.raises(ValueError):
            dominant_action(zeros(), "diagonal")

    @given(random_game_strategy())
    def test_matches_brute_force_for_both_players(self, game):
        for player in ("row", "col"):
            assert dominant_action(game, player) is brute_force_dominant(game, player)


class TestSymmetry:
    @given(maybe_symmetric_games())
    def test_matches_the_cell_by_cell_definition(self, game):
        expected = all(game.payoff(a, b)[0] == game.payoff(b, a)[1]
                       for a in ACTIONS for b in ACTIONS)
        assert game.is_symmetric() is expected


class TestEquilibriumSet:
    def test_bundles_pure_and_mixed(self):
        es = equilibrium_set(debiased_publication_game())
        assert es.pure == ((C, C), (D, D))
        assert es.mixed == (Fraction(1, 2), Fraction(1, 2))

    def test_replace_checks_the_new_mix(self):
        es = equilibrium_set(debiased_publication_game())
        with pytest.raises(ValueError):
            es._replace(mixed=(Fraction(3, 2), 0))
        with pytest.raises(ValueError):
            EquilibriumSet._make([(), (0, -1)])
        assert es._replace(mixed=None) == EquilibriumSet(es.pure, None)


class TestJsonInterface:
    def test_publication_scenario_round_trip(self):
        obj = {
            "type": "publication",
            "R": "4",
            "e": "1",
            "P": {"e0": "1", "0e": "0", "ee": "1/2", "00": "1/2"},
        }
        assert game_from_json(obj) == biased_publication_game()

    def test_commons_scenario(self):
        assert game_from_json({"type": "commons2", "B": "2", "e": "1"}) == review_dilemma()

    def test_matrix_round_trip(self):
        obj = {
            "type": "matrix",
            "cells": {"CC": ["1", "1"], "CD": ["-1", "2"],
                      "DC": ["2", "-1"], "DD": ["0", "0"]},
        }
        assert game_from_json(obj) == review_dilemma()

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            game_from_json({"type": "auction"})
