"""Seeded random-walk driver over the full protocol operation set.

Shared by the lifecycle tests and the acceptance suite: it hammers a fresh
`ProtocolState` with a random operation sequence, collecting every observed
article state transition, and checks after each step that

* a rejected operation left the canonical state identical,
* the ledger conservation identity still holds exactly, and
* the cached state digest equals `full_state_hash`, the whole state
  encoded again.

It also holds the string and float strategies that the encoder
properties share.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

from hypothesis import strategies as st

from scholarchain.errors import ProtocolError
from scholarchain.ledger import FORFEIT, MINT, REFUND, RESERVE
from scholarchain.lifecycle import (
    ArticleState,
    ContentMetadata,
    ProtocolConfig,
    ProtocolState,
)
from scholarchain.netchain import state_hash

# Values that the hand-written encoders (each entity's `to_canonical_json`,
# the block seal) must write as `json` does: every code point (surrogates
# too), quotes, backslashes and control characters in strings, and floats
# at the edges of `repr`.
TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028é\U0001f600\ud800'),
                         st.characters(exclude_categories=())))
FLOATS = st.sampled_from([-0.0, 1e16, 5e-324, 0.1 + 0.2]) | st.floats(
    allow_nan=False, allow_infinity=False)

USERS = ["ada", "bo", "cy", "dee"]
PEERS = ["p1", "p2", "p3"]

LEGAL_TRANSITIONS = {
    (ArticleState.ACTIVE, ArticleState.ACTIVE),
    (ArticleState.ACTIVE, ArticleState.UNDER_REVIEW),
    (ArticleState.UNDER_REVIEW, ArticleState.UNDER_REVIEW),
    (ArticleState.UNDER_REVIEW, ArticleState.ACTIVE),
    (ArticleState.UNDER_REVIEW, ArticleState.PUBLISHED),
    (ArticleState.PUBLISHED, ArticleState.PUBLISHED),
    (ArticleState.PUBLISHED, ArticleState.RETRACTED),
    (ArticleState.RETRACTED, ArticleState.RETRACTED),
}


@dataclass
class WalkResult:
    transitions: set = field(default_factory=set)
    atomicity_violations: int = 0
    conservation_violations: int = 0
    retraction_violations: int = 0
    digest_violations: int = 0
    ops_applied: int = 0
    ops_rejected: int = 0


def canonical_dumps(value) -> str:
    """The canonical byte form as `json.dumps` writes it: the oracle for
    `canonical_json` and for every encoder written by hand."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def full_state_hash(state: ProtocolState) -> str:
    """The digest oracle: SHA-256 of the whole state encoded again, no cache."""
    encoded = canonical_dumps(state.to_canonical()).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


@contextmanager
def int_digit_limit(digits: int):
    """Run with the interpreter's int<->str limit set to `digits`; 0 lifts it."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def fresh_state() -> ProtocolState:
    return ProtocolState(
        ProtocolConfig(initial_reserve=500, peers=tuple(PEERS), market_liquidity=20.0)
    )


def _random_meta(rng: random.Random) -> ContentMetadata:
    return ContentMetadata(
        title=f"study {rng.randrange(10**6)}",
        abstract="findings",
        authors=(("someone", rng.choice(USERS)),),
    )


def random_walk(seed: int, steps: int = 12) -> WalkResult:
    """One seeded operation sequence against a fresh protocol state."""
    rng = random.Random(seed)
    state = fresh_state()
    result = WalkResult()
    for user in USERS:
        state.ledger.credit(user, 100, MINT)
    retracted: set[str] = set()

    def any_hash() -> str:
        known = list(state.articles)
        if known and rng.random() < 0.8:
            return rng.choice(known)
        return f"{rng.randrange(16**8):08x}" * 8

    ALL_OPS = [
        "submit", "comment", "start_review", "trade", "conclude",
        "objection", "resolve_dispute", "claim", "credit", "escrow",
        "resolve_escrow",
    ]
    # Ops that can advance an article from each state; mixing these in keeps
    # the walk visiting the deep corners of the machine, while the uniform
    # draws keep plenty of deliberately-invalid operations in play.
    PLAUSIBLE = {
        ArticleState.ACTIVE: ["comment", "start_review", "claim"],
        ArticleState.UNDER_REVIEW: ["trade", "conclude", "comment"],
        ArticleState.PUBLISHED: ["comment", "objection", "resolve_dispute", "claim"],
        ArticleState.RETRACTED: ["comment", "claim"],
    }

    def pick_op(target: str) -> str:
        article = state.articles.get(target)
        if article is not None and rng.random() < 0.6:
            return rng.choice(PLAUSIBLE[article.state])
        return rng.choice(ALL_OPS)

    for _ in range(steps):
        target = any_hash()
        op = pick_op(target)
        states_before = {h: a.state for h, a in state.articles.items()}
        canonical_before = state.to_canonical()
        try:
            if op == "submit":
                art = state.submit_article(_random_meta(rng), rng.choice(USERS))
                target = art.article_hash
            elif op == "comment":
                state.comment(target, rng.choice(USERS), "c" * 64)
            elif op == "start_review":
                state.start_review(
                    target,
                    rng.choice(USERS),
                    rng.choice([4, 6, 10]),
                    ("r1", "r2", "r3"),
                )
            elif op == "trade":
                state.trade_review_shares(
                    target,
                    rng.choice(USERS),
                    rng.choice(["PUBLISH", "REVISE"]),
                    rng.choice([-3.0, 2.0, 5.0]),
                )
            elif op == "conclude":
                lean = rng.choice(["PUBLISH", "REVISE"])
                votes = {
                    r: lean if rng.random() < 0.8 else
                    rng.choice(["PUBLISH", "REVISE"])
                    for r in rng.sample(["r1", "r2", "r3"], rng.randrange(4))
                }
                state.conclude_review(target, votes)
            elif op == "objection":
                state.raise_objection(target, rng.choice(USERS), rng.choice([0, 5]))
            elif op == "resolve_dispute":
                open_disputes = [
                    d for d in state.disputes.values() if d.resolution is None
                ]
                dispute_id = (
                    rng.choice(open_disputes).dispute_id if open_disputes else "none"
                )
                lean = rng.choice(["retract", "uphold"])
                votes = {
                    p: lean if rng.random() < 0.8 else
                    rng.choice(["retract", "uphold"])
                    for p in rng.sample(PEERS, rng.randrange(4))
                }
                state.resolve_dispute(dispute_id, votes)
            elif op == "claim":
                art = state.claim_published_article(
                    target, "10.1/demo", rng.choice(USERS)
                )
                target = art.article_hash
            elif op == "credit":
                state.ledger.credit(
                    rng.choice(USERS), rng.randrange(1, 20),
                    rng.choice([MINT, RESERVE]),
                )
            elif op == "escrow":
                state.ledger.escrow(rng.choice(USERS), rng.randrange(1, 20))
            elif op == "resolve_escrow":
                state.ledger.resolve_escrow(
                    rng.choice(USERS), rng.randrange(1, 20),
                    rng.choice([FORFEIT, REFUND]),
                )
            result.ops_applied += 1
        except ProtocolError:
            result.ops_rejected += 1
            if state.to_canonical() != canonical_before:
                result.atomicity_violations += 1
        if state.ledger.conservation_gap() != 0:
            result.conservation_violations += 1
        if state_hash(state) != full_state_hash(state):
            result.digest_violations += 1
        for h, article in state.articles.items():
            before = states_before.get(h)
            if before is not None:
                result.transitions.add((before, article.state))
            if h in retracted and article.state is not ArticleState.RETRACTED:
                result.retraction_violations += 1
            if article.state is ArticleState.RETRACTED:
                retracted.add(h)
    return result
