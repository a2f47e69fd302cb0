"""Transaction generator with its own model of the protocol state.

The model follows every article's state, owners, deposit and open disputes,
every review market's book and holdings, and a lower bound on every user's
spendable balance.  For each transaction it generates, it predicts whether
the chain will record it `applied` or `rejected`, from the protocol rules
as the paper states them, without calling the program.  It only generates
transactions whose outcome it can decide: a buy is issued only when the
balance bound covers the share count, which bounds the LMSR cost.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field

from oracles import OUTCOMES, PUBLISH, REVISE, content_hash, majority

PLATFORM = "platform"
APPLIED = "applied"
REJECTED = "rejected"
MIN_DEPOSIT = 5
REWARD_MULTIPLE = 2
RETRACT, UPHOLD = "retract", "uphold"


@dataclass
class ArticleModel:
    state: str
    owners: list
    deposit: int = 0
    depositor: str | None = None
    panel: tuple = ()
    market: str | None = None
    review_round: int = 0
    dispute_seq: int = 0


@dataclass
class MarketModel:
    q: dict = field(default_factory=lambda: {PUBLISH: 0, REVISE: 0})
    holdings: dict = field(default_factory=dict)
    resolved: str | None = None


@dataclass
class Op:
    kind: str
    payload: dict
    submitter: str
    expect: str


class Model:
    def __init__(self, users, peers):
        self.users = list(users)
        self.peers = tuple(peers)
        self.balance = {}  # lower bound on each user's spendable balance
        self.minted = 0
        self.articles: dict[str, ArticleModel] = {}
        self.markets: dict[str, MarketModel] = {}
        self.disputes: dict[str, dict] = {}

    def copy(self) -> "Model":
        return copy.deepcopy(self)

    def in_state(self, state):
        return [h for h, a in self.articles.items() if a.state == state]

    # -- one method per transaction kind: predict, then apply the effect ----

    def credit(self, user, amount) -> Op:
        self.balance[user] = self.balance.get(user, 0) + amount
        self.minted += amount
        return Op("CREDIT", {"user": user, "amount": amount}, PLATFORM, APPLIED)

    def submit(self, user, title, abstract="") -> tuple[Op, str]:
        name = f"Author {user}"
        digest = content_hash(title, abstract, [name], [])
        payload = {"title": title, "abstract": abstract, "authors": [[name, user]]}
        if digest in self.articles:
            return Op("SUBMIT_ARTICLE", payload, user, REJECTED), digest
        self.articles[digest] = ArticleModel("ACTIVE", [user])
        return Op("SUBMIT_ARTICLE", payload, user, APPLIED), digest

    def comment(self, user, h, text_hash) -> Op:
        art = self.articles.get(h)
        ok = art is not None and art.state != "UNDER_REVIEW"
        payload = {"article": h, "text_hash": text_hash}
        return Op("COMMENT", payload, user, APPLIED if ok else REJECTED)

    def start_review(self, author, h, deposit, panel) -> Op:
        art = self.articles.get(h)
        payload = {"article": h, "deposit": deposit, "panel": list(panel)}
        ok = (
            art is not None and art.state == "ACTIVE" and author in art.owners
            and deposit > MIN_DEPOSIT and len(set(panel)) == len(panel) >= 3
        )
        if ok:
            if self.balance.get(author, 0) < deposit:
                raise ValueError("generator issued a deposit the model cannot decide")
            self.balance[author] -= deposit
            art.review_round += 1
            art.market = f"{h[:16]}:r{art.review_round}"
            self.markets[art.market] = MarketModel()
            art.state, art.deposit, art.depositor = "UNDER_REVIEW", deposit, author
            art.panel = tuple(panel)
        return Op("START_REVIEW", payload, author, APPLIED if ok else REJECTED)

    def trade(self, user, h, outcome, shares) -> Op:
        art = self.articles.get(h)
        payload = {"article": h, "outcome": outcome, "shares": shares}
        ok = (art is not None and art.state == "UNDER_REVIEW"
              and user not in art.owners and outcome in OUTCOMES and shares != 0)
        if ok:
            mkt = self.markets[art.market]
            held = mkt.holdings.get((user, outcome), 0)
            if shares < 0 and held < -shares:
                ok = False
            elif shares > 0:
                # A buy of s shares costs ceil(C(q + s) - C(q)) <= s tokens.
                if self.balance.get(user, 0) < shares:
                    raise ValueError("generator issued a buy the model cannot decide")
                self.balance[user] -= shares
        if ok:
            mkt.q[outcome] += shares
            new = held + shares
            if new:
                mkt.holdings[(user, outcome)] = new
            else:
                mkt.holdings.pop((user, outcome), None)
        return Op("TRADE", payload, user, APPLIED if ok else REJECTED)

    def conclude(self, h, votes) -> Op:
        art = self.articles.get(h)
        payload = {"article": h, "votes": dict(votes)}
        decision = None
        if art is not None and art.state == "UNDER_REVIEW" and set(votes) <= set(art.panel):
            if majority(votes, PUBLISH, len(art.panel)):
                decision = PUBLISH
            elif majority(votes, REVISE, len(art.panel)):
                decision = REVISE
        if decision is None:
            return Op("CONCLUDE_REVIEW", payload, PLATFORM, REJECTED)
        if decision == PUBLISH:
            self.balance[art.depositor] += art.deposit
            reward = REWARD_MULTIPLE * art.deposit
            share, rest = divmod(reward, len(art.owners))
            for i, owner in enumerate(art.owners):
                amount = share + (rest if i == 0 else 0)
                if amount:
                    self.balance[owner] = self.balance.get(owner, 0) + amount
                    self.minted += amount
            art.state = "PUBLISHED"
        else:
            art.state = "ACTIVE"
        mkt = self.markets[art.market]
        for (user, outcome), shares in mkt.holdings.items():
            if outcome == decision and shares > 0:
                self.balance[user] = self.balance.get(user, 0) + shares
        mkt.resolved = decision
        art.deposit, art.depositor, art.panel = 0, None, ()
        return Op("CONCLUDE_REVIEW", payload, PLATFORM, APPLIED)

    def open_dispute(self, h):
        return next((d for d, v in self.disputes.items()
                     if v["article"] == h and v["open"]), None)

    def object(self, user, h, stake) -> Op:
        art = self.articles.get(h)
        payload = {"article": h, "stake": stake}
        ok = (art is not None and art.state == "PUBLISHED" and stake > 0
              and self.open_dispute(h) is None)
        if ok:
            if self.balance.get(user, 0) < stake:
                raise ValueError("generator issued a stake the model cannot decide")
            self.balance[user] -= stake
            art.dispute_seq += 1
            dispute = f"{h[:16]}:d{art.dispute_seq}"
            self.disputes[dispute] = {"article": h, "challenger": user,
                                      "stake": stake, "open": True}
        return Op("RAISE_OBJECTION", payload, user, APPLIED if ok else REJECTED)

    def resolve(self, dispute, votes) -> Op:
        d = self.disputes.get(dispute)
        payload = {"dispute": dispute, "votes": dict(votes)}
        outcome = None
        if d is not None and d["open"] and set(votes) <= set(self.peers):
            if majority(votes, RETRACT, len(self.peers)):
                outcome = RETRACT
            elif majority(votes, UPHOLD, len(self.peers)):
                outcome = UPHOLD
        if outcome is None:
            return Op("RESOLVE_DISPUTE", payload, PLATFORM, REJECTED)
        if outcome == RETRACT:
            self.balance[d["challenger"]] += 2 * d["stake"]
            self.articles[d["article"]].state = "RETRACTED"
        d["open"] = False
        return Op("RESOLVE_DISPUTE", payload, PLATFORM, APPLIED)

    def claim(self, user, h, doi) -> Op:
        payload = {"article": h, "doi": doi}
        art = self.articles.get(h)
        if art is None:
            self.articles[h] = ArticleModel("PUBLISHED", [user])
        elif user in art.owners:
            return Op("CLAIM_ARTICLE", payload, user, REJECTED)
        else:
            art.owners.append(user)
        return Op("CLAIM_ARTICLE", payload, user, APPLIED)


# ---------------------------------------------------------------------------
# Mixes
# ---------------------------------------------------------------------------

def _panel(rng, model):
    return rng.sample(model.users, 3)


def _votes(rng, panel, winner, loser):
    # Two of three for the winner, the third vote either way or abstaining.
    votes = {panel[0]: winner, panel[1]: winner}
    third = rng.choice((winner, loser, None))
    if third:
        votes[panel[2]] = third
    return votes


def _peer_votes(rng, peers, winner, loser):
    votes = {p: winner for p in peers}
    votes[rng.choice(peers)] = rng.choice((winner, loser))
    return votes


def _buyer(rng, model, h, shares):
    owners = model.articles[h].owners
    while True:
        user = rng.choice(model.users)
        if user not in owners and model.balance.get(user, 0) >= shares:
            return user


def lifecycle_op(rng: random.Random, model: Model, serial: int) -> Op:
    """One transaction of the full lifecycle mix, about one in eight rejected."""
    active = model.in_state("ACTIVE")
    review = model.in_state("UNDER_REVIEW")
    published = model.in_state("PUBLISHED")
    if not (active and review and published):
        return model.credit(rng.choice(model.users), 10)
    roll = rng.random()
    if roll < 0.08:
        return model.credit(rng.choice(model.users), rng.randint(10, 200))
    if roll < 0.17:
        user = rng.choice(model.users)
        return model.submit(user, f"round paper {serial} by {user}", "fresh work")[0]
    if roll < 0.27:
        h = rng.choice(active + published)
        return model.comment(rng.choice(model.users), h, f"c{serial:08x}")
    if roll < 0.30:  # rejected: plain comments are not taken under review
        return model.comment(rng.choice(model.users), rng.choice(review), f"c{serial:08x}")
    if roll < 0.37:
        h = rng.choice(active)
        art = model.articles[h]
        if model.balance.get(art.owners[0], 0) < 20:
            return model.credit(art.owners[0], 100)
        return model.start_review(art.owners[0], h, rng.randint(6, 20), _panel(rng, model))
    if roll < 0.38:  # rejected: deposit at the minimum
        h = rng.choice(active)
        return model.start_review(model.articles[h].owners[0], h, MIN_DEPOSIT,
                                  _panel(rng, model))
    if roll < 0.60:
        h = rng.choice(review)
        shares = rng.randint(1, 8)
        return model.trade(_buyer(rng, model, h, shares), h, rng.choice(OUTCOMES), shares)
    if roll < 0.63:  # rejected: authors are barred from their own market
        h = rng.choice(review)
        return model.trade(model.articles[h].owners[0], h, PUBLISH, 1)
    if roll < 0.70:
        h = rng.choice(review)
        winner, loser = rng.choice(((PUBLISH, REVISE), (REVISE, PUBLISH)))
        return model.conclude(h, _votes(rng, model.articles[h].panel, winner, loser))
    if roll < 0.71:  # rejected: one vote each way, no strict majority
        h = rng.choice(review)
        panel = model.articles[h].panel
        return model.conclude(h, {panel[0]: PUBLISH, panel[1]: REVISE})
    if roll < 0.79:
        h = rng.choice(published)
        if model.open_dispute(h) is None:
            challenger = rng.choice(model.users)
            if model.balance.get(challenger, 0) < 10:
                return model.credit(challenger, 50)
            return model.object(challenger, h, rng.randint(1, 10))
        return model.object(rng.choice(model.users), h, 1)  # rejected: one open dispute
    if roll < 0.88:
        disputes = [d for d, v in model.disputes.items() if v["open"]]
        if not disputes:
            return model.credit(rng.choice(model.users), 10)
        winner, loser = rng.choice(((RETRACT, UPHOLD), (UPHOLD, RETRACT)))
        return model.resolve(rng.choice(disputes), _peer_votes(rng, model.peers, winner, loser))
    if roll < 0.96:
        h = rng.choice(published)
        user = rng.choice(model.users)
        if rng.random() < 0.5:
            return model.claim(user, f"external-{serial:08d}", f"10.9999/x{serial}")
        return model.claim(user, h, "")  # applied unless already an owner
    h = rng.choice(published)  # rejected: an owner claims again
    return model.claim(model.articles[h].owners[0], h, "")


def market_op(rng: random.Random, model: Model, articles: list) -> Op:
    """One transaction of the busy-market mix: trades, some sells and misfits."""
    h = rng.choice(articles)
    mkt = model.markets[model.articles[h].market]
    roll = rng.random()
    if roll < 0.25:
        held = [(u, o, s) for (u, o), s in mkt.holdings.items() if s > 0]
        if held:
            user, outcome, have = rng.choice(held)
            if rng.random() < 0.1:  # rejected: sells more than it holds
                return model.trade(user, h, outcome, -(have + 1))
            return model.trade(user, h, outcome, -rng.randint(1, have))
    if roll < 0.28:  # rejected: the author trades on the own review
        return model.trade(model.articles[h].owners[0], h, rng.choice(OUTCOMES), 2)
    shares = rng.randint(1, 12)
    return model.trade(_buyer(rng, model, h, shares), h, rng.choice(OUTCOMES), shares)
