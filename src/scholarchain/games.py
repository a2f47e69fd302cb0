"""One-shot 2x2 games of scholarly publishing and their equilibria.

The module builds the stage games that motivate the platform's incentive
design -- the review commons, its two-player prisoner's-dilemma form, and
the publication game in biased and debiased variants -- and analyzes them:
pure equilibria by exhaustive best-response checks, the indifference mixed
equilibrium, and dominance.

All payoffs are exact `fractions.Fraction` values.  Equilibrium membership
is a discrete property; float ties would corrupt it, so float payoffs are
rejected at construction.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional, Union

from .fields import _checked_make, as_rational

RationalLike = Union[int, str, Fraction]

#: Publication-probability keys: first char is the player's own effort level
#: ("0" = honest, "e" = hyped), second char the opponent's.
PROB_KEYS = ("00", "0e", "e0", "ee")


class Action(Enum):
    """The two stage-game actions: cooperate or defect."""

    C = "C"
    D = "D"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


ACTIONS = (Action.C, Action.D)

_CELL_ORDER = (
    (Action.C, Action.C),
    (Action.C, Action.D),
    (Action.D, Action.C),
    (Action.D, Action.D),
)

#: Scenario names of the cells, row action first, in `_CELL_ORDER` order.
_CELL_NAMES = ("CC", "CD", "DC", "DD")


class PayoffMatrix2x2(namedtuple("PayoffMatrix2x2", "cells")):
    """Bimatrix game over actions {C, D} with exact rational payoffs.

    Cells are stored in (C,C), (C,D), (D,C), (D,D) order; each cell is the
    (row-player, column-player) payoff pair.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, cells: tuple[tuple[RationalLike, RationalLike], ...]):
        if len(cells) != 4:
            raise ValueError("a 2x2 game has exactly four cells")
        coerced = tuple(
            (as_rational(r), as_rational(c)) for r, c in cells
        )
        return super().__new__(cls, coerced)

    @classmethod
    def from_cells(
        cls,
        cells: Mapping[tuple[Action, Action], tuple[RationalLike, RationalLike]],
    ) -> "PayoffMatrix2x2":
        missing = [p for p in _CELL_ORDER if p not in cells]
        if missing:
            raise ValueError(f"cells missing for profiles {missing}")
        return cls(tuple(tuple(cells[p]) for p in _CELL_ORDER))

    def payoff(self, row: Action, col: Action) -> tuple[Fraction, Fraction]:
        return self.cells[_CELL_ORDER.index((row, col))]

    def row_payoff(self, row: Action, col: Action) -> Fraction:
        return self.payoff(row, col)[0]

    def col_payoff(self, row: Action, col: Action) -> Fraction:
        return self.payoff(row, col)[1]

    def is_symmetric(self) -> bool:
        """True when both players face the same game (u_row(a,b) == u_col(b,a))."""
        return self == _transposed(self)

    def shifted(self, offset: RationalLike) -> "PayoffMatrix2x2":
        """Add a constant to every payoff; equilibria are invariant under this."""
        d = as_rational(offset)
        return PayoffMatrix2x2(tuple((r + d, c + d) for r, c in self.cells))


def _transposed(game: PayoffMatrix2x2) -> PayoffMatrix2x2:
    """The column player's game as a row player sees it: its row payoff at
    (a, b) is `game`'s column payoff at (b, a).  The cells are already
    Fractions, so they are not coerced again."""
    cc, cd, dc, dd = ((c, r) for r, c in game.cells)
    return tuple.__new__(PayoffMatrix2x2, ((cc, dc, cd, dd),))


class CommonsParams(namedtuple("CommonsParams", "benefit effort threshold size")):
    """Review-commons game parameters.

    `benefit` is the value of drawing a review from the commons, `effort`
    the cost of contributing one; `threshold` is how many other cooperators
    are needed for the commons to function, within a population of `size`.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, benefit: RationalLike, effort: RationalLike, threshold: int, size: int):
        benefit, effort = as_rational(benefit), as_rational(effort)
        if not effort > 0:
            raise ValueError("effort must be positive")
        if not benefit - effort > 0:
            raise ValueError("benefit must exceed effort")
        if threshold < 1:
            raise ValueError("cooperator threshold must be >= 1")
        if size < threshold:
            raise ValueError("population must be at least the threshold")
        return super().__new__(cls, benefit, effort, threshold, size)


def build_commons_payoff(
    params: CommonsParams, coop_count: int, own_action: Action
) -> Fraction:
    """Stage payoff in the review commons.

    `coop_count` counts cooperators among the *other* players.  The
    boundary case `coop_count == threshold` counts as "enough cooperators".
    """
    if not 0 <= coop_count <= params.size:
        raise ValueError(
            f"coop_count {coop_count} outside [0, {params.size}]"
        )
    enough = coop_count >= params.threshold
    if own_action is Action.C:
        return params.benefit - params.effort if enough else -params.effort
    return params.benefit if enough else Fraction(0)


def two_player_commons_game(
    benefit: RationalLike, effort: RationalLike
) -> PayoffMatrix2x2:
    """Two-player form of the review commons: a prisoner's dilemma.

    Mutual cooperation pays benefit-effort each; a lone defector free-rides
    for the full benefit while the cooperator eats the effort cost; mutual
    defection pays nothing.
    """
    b, e = as_rational(benefit), as_rational(effort)
    return PayoffMatrix2x2.from_cells(
        {
            (Action.C, Action.C): (b - e, b - e),
            (Action.C, Action.D): (-e, b),
            (Action.D, Action.C): (b, -e),
            (Action.D, Action.D): (Fraction(0), Fraction(0)),
        }
    )


class PublicationParams(namedtuple("PublicationParams", "reward effort publish_prob")):
    """Publication-race game parameters.

    Cooperating means reporting honestly (zero extra effort); defecting
    means spending `effort` to hype the paper.  `publish_prob` maps the
    joint effort profile to the probability the player's paper gets
    published; keys are two-character strings, own effort first ("0" or
    "e").  The probabilities need not sum to one across players -- a biased
    review process can favor hype outright.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, reward: RationalLike, effort: RationalLike,
                publish_prob: Mapping[str, RationalLike]):
        reward, effort = as_rational(reward), as_rational(effort)
        if reward < 0:
            raise ValueError("reward must be non-negative")
        if effort <= 0:
            raise ValueError("effort must be positive")
        probs = {k: as_rational(v) for k, v in dict(publish_prob).items()}
        missing = [k for k in PROB_KEYS if k not in probs]
        if missing:
            raise ValueError(f"publish_prob missing keys {missing}")
        for key, p in probs.items():
            if key not in PROB_KEYS:
                raise ValueError(f"unknown publish_prob key {key!r}")
            if not 0 <= p <= 1:
                raise ValueError(f"publish_prob[{key!r}]={p} outside [0,1]")
        return super().__new__(cls, reward, effort, probs)


def _effort_char(action: Action) -> str:
    # C = honest reporting at zero extra effort, D = hyping at cost `effort`.
    return "0" if action is Action.C else "e"


def build_publication_game(params: PublicationParams) -> PayoffMatrix2x2:
    """Expected-payoff matrix of the publication race.

    A player's cell value is publish_prob(own, other) * reward minus the
    player's *own* effort spend.
    """

    def u(own: Action, other: Action) -> Fraction:
        p = params.publish_prob[_effort_char(own) + _effort_char(other)]
        spent = params.effort if own is Action.D else Fraction(0)
        return p * params.reward - spent

    return PayoffMatrix2x2.from_cells(
        {
            (a, b): (u(a, b), u(b, a))
            for a in ACTIONS
            for b in ACTIONS
        }
    )


class EquilibriumSet(namedtuple("EquilibriumSet", "pure mixed")):
    """Pure equilibria plus the interior mixed equilibrium when one exists.

    Mixed probabilities are the chance each player plays D.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, pure: tuple[tuple[Action, Action], ...],
                mixed: Optional[tuple[Fraction, Fraction]]):
        if mixed is not None:
            p_row, p_col = mixed
            if not (0 <= p_row <= 1 and 0 <= p_col <= 1):
                raise ValueError("mixed probabilities must lie in [0,1]")
        return super().__new__(cls, pure, mixed)


def pure_equilibria(game: PayoffMatrix2x2) -> list[tuple[Action, Action]]:
    """All pure Nash profiles, by exhaustive best-response check.

    A profile is an equilibrium when no unilateral deviation strictly
    improves either player; ties count as best responses.  The column
    player's replies are the row player's in the transposed game.
    """
    col_game = _transposed(game)
    return [(a, b) for a, b in _CELL_ORDER
            if _is_best_reply(game, a, b) and _is_best_reply(col_game, b, a)]


def _is_best_reply(game: PayoffMatrix2x2, a: Action, b: Action) -> bool:
    """Whether the row action `a` is a best reply to the column action `b`."""
    other = Action.D if a is Action.C else Action.C
    return game.row_payoff(a, b) >= game.row_payoff(other, b)


def mixed_equilibrium(
    game: PayoffMatrix2x2,
) -> Optional[tuple[Fraction, Fraction]]:
    """Interior mixed equilibrium (probability of D for row and column).

    Each player's mix solves the opponent's indifference equation, exactly
    in rationals.  Returns None unless both solutions exist and lie
    strictly inside (0, 1); degenerate games (an indifference equation with
    zero coefficient) also return None.
    """
    q_c, p_c = _indifference_mix(game), _indifference_mix(_transposed(game))
    if q_c is None or p_c is None:
        return None
    return (1 - p_c, 1 - q_c)


def _indifference_mix(game: PayoffMatrix2x2) -> Optional[Fraction]:
    """The column's C-probability that makes the row player indifferent,
    when it exists and lies strictly inside (0, 1)."""
    a, b, c, d = (r for r, _ in game.cells)
    denom = a - b - c + d
    if denom == 0 or not 0 < (q_c := (d - b) / denom) < 1:
        return None
    return q_c


def dominant_action(game: PayoffMatrix2x2, player: str) -> Optional[Action]:
    """The strictly dominant action for "row" or "col", if any; the column
    player's is the row player's in the transposed game."""
    if player == "col":
        game = _transposed(game)
    elif player != "row":
        raise ValueError(f"player must be 'row' or 'col', got {player!r}")
    better = [game.row_payoff(Action.C, b) - game.row_payoff(Action.D, b) for b in ACTIONS]
    if all(gap > 0 for gap in better):
        return Action.C
    if all(gap < 0 for gap in better):
        return Action.D
    return None


def equilibrium_set(game: PayoffMatrix2x2) -> EquilibriumSet:
    """Pure and mixed equilibria bundled together."""
    return EquilibriumSet(
        pure=tuple(pure_equilibria(game)), mixed=mixed_equilibrium(game)
    )


# ---------------------------------------------------------------------------
# JSON scenario interface
# ---------------------------------------------------------------------------

def game_from_json(obj: Mapping) -> PayoffMatrix2x2:
    """Build a game from a scenario dict; rationals are "p/q" strings.

    Supported shapes::

        {"type": "publication", "R": "4", "e": "1",
         "P": {"e0": "1", "0e": "0", "ee": "1/2", "00": "1/2"}}
        {"type": "commons2", "B": "2", "e": "1"}
        {"type": "matrix", "cells": {<each of _CELL_NAMES>: ["1", "-1"], ...}}
    """
    kind = obj.get("type")
    if kind == "publication":
        # The parameters coerce their own rationals.
        params = PublicationParams(reward=obj["R"], effort=obj["e"], publish_prob=obj["P"])
        return build_publication_game(params)
    if kind == "commons2":
        return two_player_commons_game(obj["B"], obj["e"])
    if kind == "matrix":
        return PayoffMatrix2x2(tuple(obj["cells"][name] for name in _CELL_NAMES))
    raise ValueError(f"unknown game type {kind!r}")
