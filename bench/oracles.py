"""Reference computations made apart from the program under test.

Each function here recomputes a quantity from the method's definition
(the LMSR cost function, the publication-game payoff formula, the content
hash canonicalization, the conservation identity) so that the benchmark can
check the program's outputs without comparing against saved copies of them.
"""

from __future__ import annotations

import hashlib
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

PUBLISH = "PUBLISH"
REVISE = "REVISE"
OUTCOMES = (PUBLISH, REVISE)


def lmsr_cost_dec(q: dict, b) -> Decimal:
    """C(q) = b ln(sum exp(q_i / b)) in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        bd = Decimal(str(b))
        total = sum((Decimal(str(q[o])) / bd).exp() for o in OUTCOMES)
        return bd * total.ln()


def ceil_int(x: Decimal) -> int:
    return int(x.to_integral_value(rounding=ROUND_CEILING))


def floor_int(x) -> int:
    return int(Decimal(str(x)).to_integral_value(rounding=ROUND_FLOOR))


def content_hash(title: str, abstract: str, author_names, institutions) -> str:
    """Article hash: SHA-256 over title, abstract, sorted names, sorted institutions."""
    parts = [title, abstract, *sorted(author_names), *sorted(institutions)]
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


def conservation_gap(ledger_canonical: dict) -> int:
    """Zero when balances + escrow + reserve equal supply + minted - burned."""
    held = sum(
        a["balance"] + a["escrowed"] for a in ledger_canonical["accounts"].values()
    )
    return (
        held
        + ledger_canonical["platform_reserve"]
        - ledger_canonical["initial_supply"]
        - ledger_canonical["minted_total"]
        + ledger_canonical["burned_total"]
    )


def publication_cells(game_spec: dict) -> dict:
    """Payoff cells u(own, other) = P(own, other) R - e [own hypes], exact.

    Returns {(row_action, col_action): (row_payoff, col_payoff)} with "C"
    honest and "D" hyped.
    """
    reward = Fraction(game_spec["R"])
    effort = Fraction(game_spec["e"])
    prob = {k: Fraction(v) for k, v in game_spec["P"].items()}
    level = {"C": "0", "D": "e"}

    def u(own: str, other: str) -> Fraction:
        return prob[level[own] + level[other]] * reward - (effort if own == "D" else 0)

    return {(a, b): (u(a, b), u(b, a)) for a in "CD" for b in "CD"}


def pure_equilibria(cells: dict) -> list:
    """Profiles where each action is a best response to the other's."""
    other = {"C": "D", "D": "C"}
    found = []
    for a in "CD":
        for b in "CD":
            row_best = cells[(a, b)][0] >= cells[(other[a], b)][0]
            col_best = cells[(a, b)][1] >= cells[(a, other[b])][1]
            if row_best and col_best:
                found.append((a, b))
    return found


def majority(votes: dict, choice: str, electorate: int) -> bool:
    """Strict majority of the full electorate; abstentions count against."""
    return sum(1 for v in votes.values() if v == choice) > electorate // 2


class Checks:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok and len(self.failures) < 20:
            self.failures.append(message)
