"""Repeated-game machinery: strategy automata, discounting, populations.

Discounted average payoffs come in two forms that must agree: an exact
closed form that detects the cycle of the joint automaton and sums the
geometric series, and a truncated simulation reporting its error bound
delta^K * max|u|.  Both are integer polynomials in the discount's numerator
and denominator over the payoffs' common denominator, one Fraction per result.

Population play matches players uniformly at random each round under a
seeded RNG; with visible reputations, reputation-conditioned players defect
against anyone flagged bad, and a flag turns bad permanently the first time
its owner defects against a good-flagged opponent.
"""

from __future__ import annotations

import json
import math
import random
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .fields import _checked_make
from .games import ACTIONS, Action, PayoffMatrix2x2

GOOD, BAD = "good", "bad"


class StrategyAutomaton(
        namedtuple("StrategyAutomaton", "name initial actions transitions reputation_rule")):
    """Deterministic finite-state strategy for the repeated stage game.

    `actions` maps each state to the action played there; `transitions`
    maps (state, opponent's last action) to the next state.  When
    `reputation_rule` is set and public reputations are visible, the player
    ignores its internal state and cooperates exactly with good-flagged
    opponents.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, name: str, initial: str, actions: Mapping[str, Action],
                transitions: Mapping[tuple[str, Action], str], reputation_rule: bool = False):
        states = set(actions)
        if initial not in states:
            raise ValueError(f"initial state {initial!r} unknown")
        for s in states:
            for a in (Action.C, Action.D):
                nxt = transitions.get((s, a))
                if nxt is None:
                    raise ValueError(f"transition missing for ({s!r}, {a})")
                if nxt not in states:
                    raise ValueError(f"transition target {nxt!r} unknown")
        return super().__new__(cls, name, initial, actions, transitions, reputation_rule)

    def action(self, state: str) -> Action:
        return self.actions[state]

    def step(self, state: str, opponent_action: Action) -> str:
        return self.transitions[(state, opponent_action)]


def grim() -> StrategyAutomaton:
    """Cooperate until the opponent's first defection, then defect forever.

    The cooperative state is absorbing under opponent cooperation; the
    punishment state is absorbing under all inputs.
    """
    return StrategyAutomaton(
        name="grim",
        initial="cooperating",
        actions={"cooperating": Action.C, "punishing": Action.D},
        transitions={
            ("cooperating", Action.C): "cooperating",
            ("cooperating", Action.D): "punishing",
            ("punishing", Action.C): "punishing",
            ("punishing", Action.D): "punishing",
        },
    )


def all_c() -> StrategyAutomaton:
    """Unconditional cooperator."""
    return StrategyAutomaton(
        name="allc",
        initial="c",
        actions={"c": Action.C},
        transitions={("c", Action.C): "c", ("c", Action.D): "c"},
    )


def all_d() -> StrategyAutomaton:
    """Unconditional defector."""
    return StrategyAutomaton(
        name="alld",
        initial="d",
        actions={"d": Action.D},
        transitions={("d", Action.C): "d", ("d", Action.D): "d"},
    )


def reputation_grim() -> StrategyAutomaton:
    """Grim trigger keyed to public reputation when reputations are visible."""
    base = grim()
    return StrategyAutomaton(
        name="reputation-grim",
        initial=base.initial,
        actions=base.actions,
        transitions=base.transitions,
        reputation_rule=True,
    )


AUTOMATON_FACTORIES = {
    "grim": grim,
    "allc": all_c,
    "alld": all_d,
    "reputation-grim": reputation_grim,
}


def automaton_by_name(name: str) -> StrategyAutomaton:
    try:
        return AUTOMATON_FACTORIES[name]()
    except KeyError:
        raise ValueError(f"unknown strategy {name!r}") from None


def _check_delta(delta: float) -> Fraction:
    if not 0 < delta < 1:
        raise ValueError(f"discount factor must lie in (0, 1), got {delta}")
    return Fraction(delta)


# ---------------------------------------------------------------------------
# Transcripts and discounting
# ---------------------------------------------------------------------------

class MatchTranscript(tuple):
    """Per-round record of a two-player match: the tuple of its rounds.

    Each round is (action_a, action_b, payoff_a, payoff_b) with payoffs
    equal to the stage game evaluated at the recorded actions.
    """

    __slots__ = ()

    def __new__(cls, rounds: Iterable[tuple[Action, Action, Fraction, Fraction]]):
        return super().__new__(cls, rounds)

    @property
    def rounds(self) -> tuple[tuple[Action, Action, Fraction, Fraction], ...]:
        return tuple(self)


def play_match(
    strategy_a: StrategyAutomaton,
    strategy_b: StrategyAutomaton,
    game: PayoffMatrix2x2,
    rounds: int,
) -> MatchTranscript:
    """Run the two automata against each other for a fixed number of rounds."""
    if rounds < 1:
        raise ValueError("a match needs at least one round")
    sa, sb = strategy_a.initial, strategy_b.initial
    log = []
    for _ in range(rounds):
        aa, ab = strategy_a.action(sa), strategy_b.action(sb)
        ua, ub = game.payoff(aa, ab)
        log.append((aa, ab, ua, ub))
        sa = strategy_a.step(sa, ab)
        sb = strategy_b.step(sb, aa)
    return MatchTranscript(log)


class DiscountedPayoff(NamedTuple):
    """Truncated discounted average plus its truncation error bound."""

    value: float
    truncation_bound: float


def discounted_average_payoff(
    transcript: MatchTranscript, delta: float, player: str = "a"
) -> DiscountedPayoff:
    """(1 - d) * sum d^k u_k over the recorded rounds, for player "a" or "b".

    Truncating the infinite sum at K rounds leaves at most
    d^K * max|u| unaccounted for; that bound is returned with the value.
    """
    if not transcript:
        raise ValueError("transcript is empty")
    d = _check_delta(delta)
    if player not in ("a", "b"):
        raise ValueError(f"player must be 'a' or 'b', got {player!r}")
    payoffs = [row[2 if player == "a" else 3] for row in transcript]
    distinct = set(payoffs)  # at most four: each is a cell of the one stage game
    # Zeros after round K make it the truncated sum; int / int rounds correctly.
    numerator, denominator = _discounted_sum([*payoffs, 0], len(payoffs), d, distinct)
    bound = d ** len(payoffs) * max(map(abs, distinct))
    return DiscountedPayoff(numerator / denominator, float(bound))


def _discounted_sum(payoffs: list[Fraction], start: int, d: Fraction,
                    values: Iterable[Fraction]) -> tuple[int, int]:
    """(1 - d) * sum of d^k * u_k over rounds k >= 0, payoffs[start:] repeating
    forever, as an integer numerator and denominator.  With d = p/q, u_k = n_k/m
    over m, the common denominator of the `values` the payoffs take, and Horner's
    rule in `int` summing the s tail rounds to T = sum n_k p^k q^(s-1-k) and the
    c cycle rounds to Y alike, it is (q - p) (T (q^c - p^c) + p^s Y) / (m q^s (q^c - p^c))."""
    p, q = d.numerator, d.denominator
    m = math.lcm(*(u.denominator for u in values))
    sums = []
    for part in (payoffs[:start], payoffs[start:]):
        total, power = 0, 1  # power is p^k
        for u in part:
            total = total * q + u.numerator * (m // u.denominator) * power
            power *= p
        sums.append((total, power))
    (tail, p_s), (cycle, p_c) = sums
    gap = q ** (len(payoffs) - start) - p_c
    return (q - p) * (tail * gap + p_s * cycle), m * q**start * gap


def _closed_form_exact(
    strategy_a: StrategyAutomaton,
    strategy_b: StrategyAutomaton,
    game: PayoffMatrix2x2,
    d: Fraction,
) -> Fraction:
    # A's stage payoffs until the joint state repeats; that state's first round starts the cycle.
    seen: dict[tuple[str, str], int] = {}
    payoffs: list[Fraction] = []
    sa, sb = strategy_a.initial, strategy_b.initial
    while (sa, sb) not in seen:
        seen[(sa, sb)] = len(payoffs)
        aa, ab = strategy_a.action(sa), strategy_b.action(sb)
        payoffs.append(game.row_payoff(aa, ab))
        sa, sb = strategy_a.step(sa, ab), strategy_b.step(sb, aa)
    return Fraction(*_discounted_sum(payoffs, seen[(sa, sb)], d, payoffs))


def closed_form_payoff(
    strategy_a: StrategyAutomaton,
    strategy_b: StrategyAutomaton,
    game: PayoffMatrix2x2,
    delta: float,
) -> float:
    """Exact infinite-horizon discounted average payoff for player A.

    The joint automaton is deterministic, hence eventually periodic; the
    tail is summed directly and the cycle by geometric series, exactly, with
    no truncation.
    """
    return float(_closed_form_exact(strategy_a, strategy_b, game, _check_delta(delta)))


def cooperation_sustained(game: PayoffMatrix2x2, delta: float) -> bool:
    """Whether grim-on-grim cooperation beats the best one-shot deviation,
    exactly: d * (T - P) >= T - R on the row payoffs R = u(C,C), T = u(D,C)
    and P = u(D,D), the boundary sustained.  This is grim trigger against
    one deviation (J. Friedman, 1971): grim on grim earns R every round, and
    the unconditional defector against grim earns (1 - d) * T + d * P.
    """
    (reward, _), _, (temptation, _), (punishment, _) = game.cells
    if not (reward > punishment and temptation > reward):
        raise ValueError("game is not a social dilemma of the required shape")
    return _check_delta(delta) * (temptation - punishment) >= temptation - reward


def cooperation_threshold_population(n: int, reputation_shared: bool) -> float:
    """Minimum patience that sustains cooperation among n + 1 players.

    With reputations known only privately the bar rises with population
    size, 1 - 1/(2n); a shared reputation brings it back to the two-player
    value 1/2.
    """
    if n < 1:
        raise ValueError("population parameter must be >= 1")
    if reputation_shared:
        return 0.5
    return 1 - 1 / (2 * n)


# ---------------------------------------------------------------------------
# Population play with random matching
# ---------------------------------------------------------------------------

class PopulationConfig(namedtuple(
        "PopulationConfig", "size strategies delta reputation_visible rng_seed horizon")):
    """Configuration of one seeded population run.

    `strategies` assigns an automaton to every player index 0..size-1.
    `delta` weights round payoffs in the discounted aggregate (runs stay
    fixed-length for reproducibility).  With an odd population one player
    sits out each round, chosen by the RNG.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, size: int, strategies: Mapping[int, StrategyAutomaton], delta: float,
                reputation_visible: bool, rng_seed: int, horizon: int):
        if size < 2:
            raise ValueError("population needs at least two players")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        _check_delta(delta)
        missing = [p for p in range(size) if p not in strategies]
        if missing:
            raise ValueError(f"players without a strategy: {missing}")
        return super().__new__(cls, size, strategies, delta, reputation_visible, rng_seed,
                               horizon)


class RoundRecord(NamedTuple):
    round: int
    player: int
    action: Action
    stage_payoff: Fraction
    reputation: str


class PopulationReport(NamedTuple):
    """Deterministic outcome of a population run."""

    seed: int
    delta: float
    horizon: int
    rows: tuple[RoundRecord, ...]
    discounted_payoffs: Mapping[int, float]
    cooperation_rates: tuple[float, ...]

    def to_csv(self) -> str:
        lines = ["round,player,action,stage_payoff,reputation"]
        # The rows of a run share its four cells' action and payoff objects,
        # so each cell's text is written once, found by the objects' identity.
        cells: dict[tuple[int, int], str] = {}
        for k, p, action, payoff, reputation in self.rows:
            key = (id(action), id(payoff))
            cell = cells.get(key)
            if cell is None:
                cell = cells[key] = f"{action.value},{payoff}"
            lines.append(f"{k},{p},{cell},{reputation}")
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        payload = {
            "seed": self.seed,
            "delta": self.delta,
            "horizon": self.horizon,
            "discounted_payoffs": {
                str(p): self.discounted_payoffs[p]
                for p in sorted(self.discounted_payoffs)
            },
            "cooperation_rates": list(self.cooperation_rates),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _table(automaton: StrategyAutomaton) -> list[tuple[int, int, int]]:
    """The automaton on indices, C and D as 0 and 1 and its initial state
    as 0: per state, (action, next state after C, next state after D)."""
    order = [automaton.initial, *(s for s in automaton.actions if s != automaton.initial)]
    index = {s: i for i, s in enumerate(order)}
    return [
        (ACTIONS.index(automaton.actions[s]),
         *(index[automaton.transitions[(s, a)]] for a in ACTIONS))
        for s in order
    ]


def run_population(
    config: PopulationConfig, game: PayoffMatrix2x2
) -> PopulationReport:
    """Play the stage game under uniform random matching for `horizon` rounds.

    Every participant is scored with the row-player payoff function, so the
    stage game must be symmetric.  Automata step on the observed opponent
    action; reputation flags are monotone good-to-bad and recorded per row
    as of the end of the round.

    The rounds run on action indices, C as 0 and D as 1.  The game's four
    cells (own action, opponent's action) with their payoffs and the
    payoffs' floats, and each distinct automaton's table of states, are made
    once per run, so no `Action` or `Fraction` is hashed or converted per row.
    """
    if not game.is_symmetric():
        raise ValueError("population play needs a symmetric stage game")
    rng = random.Random(config.rng_seed)
    size, delta = config.size, config.delta
    # Cell 2 * own action + opponent's action: (own action, own payoff).
    cells = [(a, game.row_payoff(a, b)) for a in ACTIONS for b in ACTIONS]
    floats = [float(u) for _, u in cells]
    players = [config.strategies[p] for p in range(size)]
    # Players of one strategy name share an automaton, which is tabled once.
    table_by_id = {id(aut): _table(aut) for aut in {id(aut): aut for aut in players}.values()}
    tables = [table_by_id[id(aut)] for aut in players]
    by_reputation = [config.reputation_visible and aut.reputation_rule for aut in players]
    states = [0] * size
    good = [True] * size
    totals = [0.0] * size
    cell = [0] * size
    new_row = tuple.__new__  # a RoundRecord without its generated __new__'s frame
    rows: list[RoundRecord] = []
    coop_rates: list[float] = []

    for k in range(config.horizon):
        order = list(range(size))
        rng.shuffle(order)
        if size % 2:
            order.pop()  # the shuffled-out last player sits this round out
        flag_drops: list[int] = []
        for p, q in zip(order[::2], order[1::2]):
            ap = (0 if good[q] else 1) if by_reputation[p] else tables[p][states[p]][0]
            aq = (0 if good[p] else 1) if by_reputation[q] else tables[q][states[q]][0]
            cell[p], cell[q] = 2 * ap + aq, 2 * aq + ap
            if ap and good[q]:
                flag_drops.append(p)
            if aq and good[p]:
                flag_drops.append(q)
            states[p] = tables[p][states[p]][1 + aq]
            states[q] = tables[q][states[q]][1 + ap]
        for p in flag_drops:
            good[p] = False
        # Each player's discounted payoff is added left to right: `sum` of
        # floats compensates its rounding from Python 3.12 on, which changes
        # the last digit of some payoffs.
        weight = delta**k
        for p in sorted(order):
            c = cell[p]
            totals[p] += floats[c] * weight
            rows.append(new_row(RoundRecord, (k, p, *cells[c], GOOD if good[p] else BAD)))
        coop_rates.append(sum(cell[p] < 2 for p in order) / len(order))

    return PopulationReport(
        seed=config.rng_seed,
        delta=config.delta,
        horizon=config.horizon,
        rows=tuple(rows),
        discounted_payoffs={p: (1 - delta) * totals[p] for p in range(size)},
        cooperation_rates=tuple(coop_rates),
    )
