"""Article lifecycle: the research paper as a four-state machine.

An article moves through ACTIVE, UNDER_REVIEW, PUBLISHED and RETRACTED.
The legal transitions are exactly

    A->A (comments)            U->U (review-market trades)
    A->U (author deposit)      U->A (revise: deposit forfeited)
    P->P (comments, disputes)  U->P (publish: deposit back + reward)
    P->R (upheld retraction)   R->R (comments; R is terminal)

`ProtocolState` aggregates the article registry, the token ledger and the
attached review markets, and exposes every protocol operation.  Operations
validate completely before mutating anything, so a rejected call leaves the
whole state unchanged.  An operation that applies ticks the clock once, at
its end, and names there, by section, the keys it wrote; that is how the
state digest learns what to encode again.  The ledger records the accounts
it writes in its own mutators.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from collections import namedtuple
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from . import market as market_mod
from .errors import ChainError, CommentRedirectsToMarket, LifecycleError
from .fields import Field, FieldError, _checked_make, _json_carries, _strings, check_fields
from .ledger import AMOUNT_BOUND, FORFEIT, MINT, REFUND, RESERVE, TokenLedger
from .market import Market, Section, Trade, quote, quote_or_null

PUBLISH = market_mod.PUBLISH
REVISE = market_mod.REVISE
RETRACT = "retract"
UPHOLD = "uphold"

_FIELD_SEP = "\x1f"


def compact_encoder(sort_keys: bool, allow_nan: bool):
    """`json.dumps` with compact separators and these two settings, from one
    C encoder built here; `json.dumps` and `JSONEncoder.encode` build a new
    one, and a circular-reference dict, on every call.

    The encoder keeps no such dict: one reused across calls would keep the
    entries of an encode that raised, and report a later encode of the same
    list as circular.  Nothing the program encodes can be cyclic: the gate
    bounds a payload at 16 containers, and every state form is built fresh.
    A value `json` cannot encode raises `json`'s own TypeError.
    """
    encode = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, quote, None, ":", ",",
        sort_keys, False, allow_nan)
    return lambda value: "".join(encode(value, 0))


# The one canonical byte form: sorted keys, no spaces, and no NaN or
# infinity (RFC 8259).
canonical_json = compact_encoder(sort_keys=True, allow_nan=False)


class ArticleState(str, Enum):
    ACTIVE = "ACTIVE"
    UNDER_REVIEW = "UNDER_REVIEW"
    PUBLISHED = "PUBLISHED"
    RETRACTED = "RETRACTED"


class ContentMetadata(namedtuple("ContentMetadata", "title abstract authors institutions")):
    """The hashed subset of an article's content data."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, title: str, abstract: str,
                authors: Sequence[tuple[str, str]],  # (display name, user id)
                institutions: Sequence[str] = ()):
        if not isinstance(title, str) or not title:
            raise LifecycleError("article title must be a nonempty string")
        if not isinstance(abstract, str):
            raise LifecycleError("article abstract must be a string")
        if not isinstance(authors, (list, tuple)) or not all(
            _strings(a) and len(a) == 2 for a in authors
        ):
            raise LifecycleError("authors must be (display name, user id) string pairs")
        if not _strings(institutions):
            raise LifecycleError("institutions must be a list of strings")
        if not authors:
            raise LifecycleError("article needs at least one author")
        return super().__new__(cls, title, abstract, tuple(tuple(a) for a in authors),
                               tuple(institutions))


def content_hash(meta: ContentMetadata) -> str:
    """SHA-256 of the canonical metadata serialization.

    Fields are joined with 0x1F in the order title, abstract, author names
    (sorted), institutions (sorted), so listing order never changes the
    digest.
    """
    parts = [meta.title, meta.abstract]
    parts.extend(sorted(name for name, _ in meta.authors))
    parts.extend(sorted(meta.institutions))
    return hashlib.sha256(_FIELD_SEP.join(parts).encode("utf-8")).hexdigest()


class Article:
    """One paper-as-contract registry entry."""

    def __init__(self, article_hash: str, state: ArticleState, owners: list[str],
                 doi: Optional[str] = None):
        self.article_hash = article_hash
        self.state = state
        self.owners = owners
        self.doi = doi
        self.author_deposit = 0
        self.depositor: Optional[str] = None
        self.review_panel: tuple[str, ...] = ()
        self.market_id: Optional[str] = None
        self.comments: list[tuple[str, int, str]] = []
        self.review_round = 0
        self.dispute_seq = 0

    def to_canonical(self) -> dict:
        return {
            "article_hash": self.article_hash,
            "state": self.state.value,
            "owners": list(self.owners),
            "doi": self.doi,
            "author_deposit": self.author_deposit,
            "depositor": self.depositor,
            "review_panel": list(self.review_panel),
            "market_id": self.market_id,
            "comments": [list(c) for c in self.comments],
            "review_round": self.review_round,
            "dispute_seq": self.dispute_seq,
        }

    def to_canonical_json(self) -> str:
        """`canonical_json(self.to_canonical())`, written directly."""
        comments = ",".join(f"[{quote(user)},{tick!r},{quote(text)}]"
                            for user, tick, text in self.comments)
        return (f'{{"article_hash":{quote(self.article_hash)},'
                f'"author_deposit":{self.author_deposit!r},'
                f'"comments":[{comments}],'
                f'"depositor":{quote_or_null(self.depositor)},'
                f'"dispute_seq":{self.dispute_seq!r},'
                f'"doi":{quote_or_null(self.doi)},'
                f'"market_id":{quote_or_null(self.market_id)},'
                f'"owners":[{",".join(map(quote, self.owners))}],'
                f'"review_panel":[{",".join(map(quote, self.review_panel))}],'
                f'"review_round":{self.review_round!r},'
                f'"state":{quote(self.state.value)}}}')


class Dispute:
    """A staked retraction challenge against a published article."""

    def __init__(self, dispute_id: str, article_hash: str, challenger: str, stake: int):
        self.dispute_id = dispute_id
        self.article_hash = article_hash
        self.challenger = challenger
        self.stake = stake
        self.resolution: Optional[str] = None  # "retract" | "uphold" once decided

    def to_canonical(self) -> dict:
        return {
            "dispute_id": self.dispute_id,
            "article_hash": self.article_hash,
            "challenger": self.challenger,
            "stake": self.stake,
            "resolution": self.resolution,
        }

    def to_canonical_json(self) -> str:
        """`canonical_json(self.to_canonical())`, written directly."""
        return (f'{{"article_hash":{quote(self.article_hash)},'
                f'"challenger":{quote(self.challenger)},'
                f'"dispute_id":{quote(self.dispute_id)},'
                f'"resolution":{quote_or_null(self.resolution)},'
                f'"stake":{self.stake!r}}}')


#: The paper's incentive rules, fixed on every chain: a review deposit must
#: exceed 5 tokens, publication mints 2 times the deposit, a panel has 3 or
#: more members, and authors never trade on their own review.
FIXED_RULES = {"min_review_deposit": 5, "reward_multiple": 2, "min_panel": 3,
               "authors_may_trade": False}


class PeerSet(namedtuple("PeerSet", "peers")):
    """Trusted peers; quorum is the BFT-style floor(2n/3) + 1."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, peers: Iterable[str]):
        peers = tuple(peers)
        if not peers:
            raise ChainError("peer set cannot be empty")
        if not all(isinstance(p, str) and p and _json_carries(p) for p in peers):
            raise ChainError("peer ids must be non-empty strings that JSON reads back")
        if len(set(peers)) != len(peers):
            raise ChainError("duplicate peer ids")
        return super().__new__(cls, peers)

    @property
    def quorum(self) -> int:
        return (2 * len(self.peers)) // 3 + 1


_CONFIG_FIELDS = (Field("initial_reserve", "an integer"),
                  Field("market_liquidity", "a number"), Field("peers", "a list of strings"))


class ProtocolConfig(namedtuple("ProtocolConfig", "market_liquidity initial_reserve peers")):
    """The settable platform constants of one chain.

    A successful challenger's bounty equals the stake.  `peers` are the
    trusted members whose majorities decide disputes (the same set approves
    blocks), under `PeerSet`'s rule; a config may have none.  A config never
    changes once made, because a state keeps its config's canonical fragment
    from its construction on.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, market_liquidity: float = 100.0, initial_reserve: int = 0,
                peers: Sequence[str] = ()):
        try:
            check_fields({"market_liquidity": market_liquidity,
                          "initial_reserve": initial_reserve, "peers": peers}, _CONFIG_FIELDS)
        except FieldError as exc:
            if exc.expected == "a number" and type(market_liquidity) is int:
                raise LifecycleError("market liquidity is too large for a double") from None
            raise LifecycleError(f"{exc.path} must be {exc.expected}") from None
        if not 0 <= initial_reserve < AMOUNT_BOUND:
            raise LifecycleError("initial_reserve must be below 2**256 and not negative")
        if not 0 < market_liquidity < math.inf:
            raise LifecycleError(f"market liquidity must be positive, got {market_liquidity}")
        return super().__new__(cls, market_liquidity, initial_reserve,
                               PeerSet(peers).peers if peers else ())

    def __deepcopy__(self, memo):
        return self  # a config never changes, so a cloned state shares it

    @classmethod
    def from_canonical(cls, form) -> "ProtocolConfig":
        """Read a genesis `config`: a fixed rule's key may be left out, or hold
        the rule's value and JSON type.  An unknown key raises TypeError."""
        if not isinstance(form, dict):
            raise LifecycleError("config must be an object")
        for key, fixed in FIXED_RULES.items():
            value = form.get(key, fixed)
            if type(value) is not type(fixed) or value != fixed:
                raise LifecycleError(f"{key} is fixed at {canonical_json(fixed)}")
        return cls(**{k: v for k, v in form.items() if k not in FIXED_RULES})

    def to_canonical(self) -> dict:
        return {**FIXED_RULES, "market_liquidity": self.market_liquidity,
                "initial_reserve": self.initial_reserve, "peers": list(self.peers)}


def _decide(
    votes: Mapping[str, str],
    electorate: Sequence[str],
    choices: tuple[str, str],
    body: str,
) -> str:
    # Strict majority of the FULL electorate; abstentions count against.
    outsiders = [v for v in votes if v not in electorate]
    if outsiders:
        raise LifecycleError(f"votes from outside the {body}: {outsiders}")
    unknown = [v for v in votes.values() if v not in choices]
    if unknown:
        raise LifecycleError(f"unknown vote values for the {body}: {unknown}")
    for choice in choices:
        if sum(1 for v in votes.values() if v == choice) > len(electorate) // 2:
            return choice
    raise LifecycleError(f"no quorum: no choice has a majority of the {body}")


class ProtocolState:
    """Ledger, article registry and review markets under one logical writer."""

    def __init__(self, config: Optional[ProtocolConfig] = None):
        self.config = config or ProtocolConfig()
        self.ledger = TokenLedger(initial_reserve=self.config.initial_reserve)
        self.articles: dict[str, Article] = {}
        self.disputes: dict[str, Dispute] = {}
        self.markets: dict[str, Market] = {}
        self.clock = 0  # logical time; ticks once per applied operation
        # Keys written since the last digest, per section, each a dict used
        # as a set like `TokenLedger.written`, which keeps the accounts'.  Only
        # `_tick` adds to them.  The sections are made, empty, by the first
        # digest, so that cloning a fresh state copies none of them.
        self._written = {"articles": {}, "disputes": {}, "markets": {}}
        self._sections: Optional[tuple[Section, ...]] = None
        self._config_json = canonical_json(self.config.to_canonical())

    # -- helpers --------------------------------------------------------------

    def article(self, article_hash: str) -> Article:
        art = self.articles.get(article_hash)
        if art is None:
            raise LifecycleError(f"no article with hash {article_hash!r}")
        return art

    def open_dispute(self, article_hash: str) -> Optional[Dispute]:
        """The article's unresolved dispute, if any.  Only its latest id can
        hold one, since an objection is refused while an earlier one is open."""
        article = self.articles.get(article_hash)
        if article is None:
            return None
        dispute = self.disputes.get(f"{article_hash[:16]}:d{article.dispute_seq}")
        if dispute is None or dispute.article_hash != article_hash:
            return None
        return dispute if dispute.resolution is None else None

    def market_of(self, article: Article) -> Market:
        if article.market_id is None or article.market_id not in self.markets:
            raise LifecycleError(f"article {article.article_hash!r} has no market")
        return self.markets[article.market_id]

    def _tick(self, articles: Optional[str] = None, disputes: Optional[str] = None,
              markets: Optional[str] = None) -> int:
        """Advance the clock for an applied operation, recording the key it
        wrote in each named section."""
        written = self._written
        if articles is not None:
            written["articles"][articles] = None
        if disputes is not None:
            written["disputes"][disputes] = None
        if markets is not None:
            written["markets"][markets] = None
        self.clock += 1
        return self.clock

    # -- operations -----------------------------------------------------------

    def submit_article(self, meta: ContentMetadata, submitter: str) -> Article:
        """Announce intent to publish; the content hash secures authorship."""
        if not isinstance(submitter, str):
            raise LifecycleError("submitter must be a string")
        digest = content_hash(meta)
        if digest in self.articles:
            raise LifecycleError(f"article {digest!r} already registered")
        article = Article(
            article_hash=digest, state=ArticleState.ACTIVE, owners=[submitter]
        )
        self.articles[digest] = article
        self._tick(articles=digest)
        return article

    def comment(self, article_hash: str, user_id: str, text_hash: str) -> Article:
        """Append a comment; free in every state except under review."""
        if not _strings((user_id, text_hash)):
            raise LifecycleError("commenter and text hash must be strings")
        article = self.article(article_hash)
        if article.state is ArticleState.UNDER_REVIEW:
            # Commenting during review means trading on the outcome market.
            raise CommentRedirectsToMarket(article.market_id or "")
        article.comments.append((user_id, self._tick(articles=article_hash), text_hash))
        return article

    def start_review(
        self,
        article_hash: str,
        author: str,
        deposit: int,
        panel: Sequence[str],
    ) -> Article:
        """Author deposit opens the review and its prediction market."""
        article = self.article(article_hash)
        if article.state is not ArticleState.ACTIVE:
            raise LifecycleError(
                f"review starts from ACTIVE, article is {article.state.value}"
            )
        if author not in article.owners:
            raise LifecycleError(f"{author!r} does not own {article_hash!r}")
        if not isinstance(deposit, int) or deposit <= FIXED_RULES["min_review_deposit"]:
            raise LifecycleError(
                f"deposit must exceed {FIXED_RULES['min_review_deposit']} tokens"
            )
        if not _strings(panel):
            raise LifecycleError("review panel must be a list of strings")
        panel = tuple(panel)
        if len(set(panel)) != len(panel):
            raise LifecycleError("review panel has duplicate members")
        if len(panel) < FIXED_RULES["min_panel"]:
            raise LifecycleError(
                f"panel of {len(panel)} is below the minimum {FIXED_RULES['min_panel']}"
            )
        if self.ledger.balance(author) < deposit:
            raise LifecycleError(
                f"{author!r} cannot cover the review deposit of {deposit}"
            )
        if FIXED_RULES["reward_multiple"] * deposit >= AMOUNT_BOUND:  # minted on publication
            raise LifecycleError("the deposit's reward must be below 2**256")
        self.ledger.escrow(author, deposit)
        article.review_round += 1
        market_id = f"{article.article_hash[:16]}:r{article.review_round}"
        self.markets[market_id] = market_mod.open_market(
            self.config.market_liquidity, market_id
        )
        article.state = ArticleState.UNDER_REVIEW
        article.author_deposit = deposit
        article.depositor = author
        article.review_panel = panel
        article.market_id = market_id
        self._tick(articles=article_hash, markets=market_id)
        return article

    def trade_review_shares(
        self, article_hash: str, user_id: str, outcome: str, share_delta: float
    ) -> Trade:
        """Comment-by-trading while the article is under review."""
        article = self.article(article_hash)
        if article.state is not ArticleState.UNDER_REVIEW:
            raise LifecycleError("review-outcome trading needs an open review")
        if user_id in article.owners:
            raise LifecycleError("authors are barred from their own review market")
        executed = market_mod.trade(
            self.market_of(article), self.ledger, user_id, outcome, share_delta
        )
        self._tick(markets=article.market_id)
        return executed

    def conclude_review(
        self, article_hash: str, reviewer_votes: Mapping[str, str]
    ) -> Article:
        """Apply the panel's decision: strict majority of the full panel.

        Publication refunds the deposit and mints the reward (split evenly
        over the owners, remainder to the first); a revise decision forfeits
        the deposit to the platform reserve.  Either way the outcome market
        resolves and winning shares pay out of the reserve.
        """
        article = self.article(article_hash)
        if article.state is not ArticleState.UNDER_REVIEW:
            raise LifecycleError("no review in progress")
        decision = _decide(
            reviewer_votes, article.review_panel, (PUBLISH, REVISE), "review panel"
        )

        mkt = self.market_of(article)
        payout_total = sum(market_mod.payouts(mkt, decision).values())
        deposit = article.author_deposit
        reserve_after_deposit = self.ledger.platform_reserve + (
            deposit if decision == REVISE else 0
        )
        if reserve_after_deposit < payout_total:
            raise LifecycleError(
                f"reserve {reserve_after_deposit} cannot cover market payouts "
                f"of {payout_total}"
            )

        if decision == PUBLISH:
            self.ledger.resolve_escrow(article.depositor, deposit, REFUND)
            reward = FIXED_RULES["reward_multiple"] * deposit
            share, remainder = divmod(reward, len(article.owners))
            for i, owner in enumerate(article.owners):
                amount = share + (remainder if i == 0 else 0)
                if amount > 0:
                    self.ledger.credit(owner, amount, MINT)
            article.state = ArticleState.PUBLISHED
        else:
            self.ledger.resolve_escrow(article.depositor, deposit, FORFEIT)
            article.state = ArticleState.ACTIVE
        market_mod.resolve(mkt, self.ledger, decision)
        article.author_deposit = 0
        article.depositor = None
        article.review_panel = ()
        self._tick(articles=article_hash, markets=article.market_id)
        return article

    def raise_objection(
        self, article_hash: str, challenger: str, stake: int
    ) -> Dispute:
        """Stake tokens to challenge a published article."""
        article = self.article(article_hash)
        if article.state is not ArticleState.PUBLISHED:
            raise LifecycleError("objections target published articles only")
        if not isinstance(stake, int) or stake <= 0:
            raise LifecycleError("objection stake must be a positive token amount")
        if self.ledger.balance(challenger) < stake:
            raise LifecycleError(f"{challenger!r} cannot cover the stake of {stake}")
        if self.open_dispute(article_hash) is not None:
            raise LifecycleError("article already has an open dispute")
        self.ledger.escrow(challenger, stake)
        article.dispute_seq += 1
        dispute = Dispute(
            dispute_id=f"{article.article_hash[:16]}:d{article.dispute_seq}",
            article_hash=article_hash,
            challenger=challenger,
            stake=stake,
        )
        self.disputes[dispute.dispute_id] = dispute
        self._tick(articles=article_hash, disputes=dispute.dispute_id)
        return dispute

    def resolve_dispute(
        self, dispute_id: str, peer_votes: Mapping[str, str]
    ) -> Article:
        """Peers decide by strict majority of the full peer set.

        Retraction refunds the challenger's stake and pays an equal bounty
        from the reserve; upholding forfeits the stake to the reserve.
        """
        dispute = self.disputes.get(dispute_id)
        if dispute is None:
            raise LifecycleError(f"no dispute {dispute_id!r}")
        if dispute.resolution is not None:
            raise LifecycleError(f"dispute {dispute_id!r} already resolved")
        if not self.config.peers:
            raise LifecycleError("no peers configured to decide disputes")
        outcome = _decide(peer_votes, self.config.peers, (RETRACT, UPHOLD), "peer set")
        article = self.article(dispute.article_hash)
        if outcome == RETRACT:
            bounty = dispute.stake
            if self.ledger.platform_reserve < bounty:
                raise LifecycleError(
                    f"reserve {self.ledger.platform_reserve} cannot pay the "
                    f"bounty of {bounty}"
                )
            self.ledger.resolve_escrow(dispute.challenger, dispute.stake, REFUND)
            self.ledger.credit(dispute.challenger, bounty, RESERVE)
            article.state = ArticleState.RETRACTED
        else:
            self.ledger.resolve_escrow(dispute.challenger, dispute.stake, FORFEIT)
        dispute.resolution = outcome
        self._tick(articles=dispute.article_hash, disputes=dispute_id)
        return article

    def claim_published_article(
        self, article_hash: str, doi: str, caller: str
    ) -> Article:
        """Claim (co-)ownership of work already published elsewhere."""
        if not isinstance(article_hash, str) or not article_hash:
            raise LifecycleError("article hash must be a nonempty string")
        if not _strings((doi, caller)):
            raise LifecycleError("DOI and claimant must be strings")
        existing = self.articles.get(article_hash)
        if existing is None:
            article = Article(
                article_hash=article_hash,
                state=ArticleState.PUBLISHED,
                owners=[caller],
                doi=doi,
            )
            self.articles[article_hash] = article
            self._tick(articles=article_hash)
            return article
        if caller in existing.owners:
            raise LifecycleError("Owner has already claimed that article")
        existing.owners.append(caller)
        self._tick(articles=article_hash)
        return existing

    # -- snapshots --------------------------------------------------------------

    def clone(self) -> "ProtocolState":
        return copy.deepcopy(self)

    def to_canonical(self) -> dict:
        return {
            "config": self.config.to_canonical(),
            "ledger": self.ledger.to_canonical(),
            "articles": [
                self.articles[h].to_canonical() for h in sorted(self.articles)
            ],
            "disputes": [
                self.disputes[d].to_canonical() for d in sorted(self.disputes)
            ],
            "markets": [
                self.markets[m].to_canonical() for m in sorted(self.markets)
            ],
            "clock": self.clock,
        }

    def canonical_pieces(self) -> tuple[str, ...]:
        """`canonical_json(self.to_canonical())` in pieces that concatenate to
        it: the fixed text, with the scalars and the config's fragment, between
        the four sections' kept texts, keys in the order `sort_keys` writes
        them.  `netchain.state_hash` feeds them to SHA-256 one by one, so the
        state's text is never joined into one string.

        The articles, disputes, accounts and markets each keep their keys in
        sorted order, each key's fragment and the fragments' joined text.  A
        call encodes again only the keys written since the last one, each
        with its entity's own `to_canonical_json`, and joins again only the
        sections that have some.  A market in turn encodes again only the
        holdings traded since.  A state's first call makes the sections
        empty, and they fill from every key written since the state was made.
        """
        led = self.ledger
        if self._sections is None:
            w = self._written
            self._sections = (Section(self.articles, w["articles"], _encode),
                              Section(self.disputes, w["disputes"], _encode),
                              Section(led.accounts, led.written, _encode, keyed=True),
                              Section(self.markets, w["markets"], _encode))
        articles, disputes, accounts, markets = self._sections
        return (
            '{"articles":[', articles.text(),
            f'],"clock":{self.clock!r},"config":{self._config_json},"disputes":[',
            disputes.text(),
            '],"ledger":{"accounts":{', accounts.text(),
            f'}},"burned_total":0,"initial_supply":{led.initial_supply!r},'
            f'"minted_total":{led.minted_total!r},'
            f'"platform_reserve":{led.platform_reserve!r}}},"markets":[',
            markets.text(), ']}',
        )


def _encode(entity) -> str:
    """An entity's fragment in a state section; a function, so that a copy of
    the state shares it."""
    return entity.to_canonical_json()
