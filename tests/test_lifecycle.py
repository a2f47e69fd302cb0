"""Tests for the article state machine and protocol operations."""

import copy
import hashlib

import pytest

from scholarchain.errors import (
    ChainError,
    CommentRedirectsToMarket,
    LedgerError,
    LifecycleError,
)
from scholarchain.ledger import MINT
from scholarchain.lifecycle import (
    Article,
    ArticleState,
    ContentMetadata,
    ProtocolConfig,
    ProtocolState,
    content_hash,
)
from protocol_fuzz import LEGAL_TRANSITIONS, random_walk

A = ArticleState.ACTIVE
U = ArticleState.UNDER_REVIEW
P = ArticleState.PUBLISHED
R = ArticleState.RETRACTED


def meta(title="on reviewing", abstract="we review reviews"):
    return ContentMetadata(
        title=title,
        abstract=abstract,
        authors=(("Ada L", "ada"), ("Bo K", "bo")),
        institutions=("Inst One", "Inst Two"),
    )


def state_with_author(balance=100, **config_kwargs) -> ProtocolState:
    config_kwargs.setdefault("initial_reserve", 500)
    config_kwargs.setdefault("peers", ("p1", "p2", "p3", "p4", "p5"))
    state = ProtocolState(ProtocolConfig(**config_kwargs))
    for user in ("ada", "bo", "cy", "dee"):
        state.ledger.credit(user, balance, MINT)
    return state


def reviewed_article(state, deposit=10, panel=("r1", "r2", "r3")):
    article = state.submit_article(meta(), "ada")
    state.start_review(article.article_hash, "ada", deposit, panel)
    return article


class TestContentHash:
    def test_deterministic(self):
        assert content_hash(meta()) == content_hash(meta())

    def test_author_order_is_canonicalized(self):
        m1 = ContentMetadata("t", "a", (("X", "u1"), ("Y", "u2")))
        m2 = ContentMetadata("t", "a", (("Y", "u2"), ("X", "u1")))
        assert content_hash(m1) == content_hash(m2)

    def test_single_character_difference_changes_digest(self):
        assert content_hash(meta(abstract="we review reviewsX")) != content_hash(meta())

    def test_matches_reference_serialization(self):
        m = meta()
        reference = hashlib.sha256(
            "\x1f".join(
                ["on reviewing", "we review reviews", "Ada L", "Bo K",
                 "Inst One", "Inst Two"]
            ).encode("utf-8")
        ).hexdigest()
        assert content_hash(m) == reference

    def test_empty_title_rejected(self):
        with pytest.raises(LifecycleError):
            ContentMetadata("", "a", (("X", "u1"),))

    def test_authorless_rejected(self):
        with pytest.raises(LifecycleError):
            ContentMetadata("t", "a", ())

    def test_abstract_must_be_a_string(self):
        with pytest.raises(LifecycleError, match="^article abstract must be a string$"):
            ContentMetadata("t", 5, (("X", "u1"),))

    @pytest.mark.parametrize("authors, institutions", [
        (["xy"], ()),
        ((("X", "u1", "extra"),), ()),
        ((("X", 1),), ()),
        ((("X", "u1"),), "MIT"),
        ((("X", "u1"),), ("MIT", 5)),
    ], ids=["author-string", "author-triple", "author-int-id",
            "institutions-string", "institution-int"])
    def test_wrong_shape_rejected(self, authors, institutions):
        with pytest.raises(LifecycleError):
            ContentMetadata("t", "a", authors, institutions)


class TestSubmit:
    def test_fresh_submission_is_active_with_one_owner(self):
        state = state_with_author()
        article = state.submit_article(meta(), "ada")
        assert article.state is A
        assert article.owners == ["ada"]
        assert state.articles[article.article_hash] is article

    def test_duplicate_content_rejected(self):
        state = state_with_author()
        state.submit_article(meta(), "ada")
        with pytest.raises(LifecycleError):
            state.submit_article(meta(), "bo")


class TestComment:
    def test_active_comment_preserves_state(self):
        state = state_with_author()
        article = state.submit_article(meta(), "ada")
        state.comment(article.article_hash, "cy", "h" * 64)
        assert article.state is A
        assert len(article.comments) == 1

    def test_retracted_articles_still_take_comments(self):
        state = state_with_author()
        article = retracted_article(state)
        state.comment(article.article_hash, "cy", "h" * 64)
        assert article.state is R

    def test_under_review_redirects_to_market(self):
        state = state_with_author()
        article = reviewed_article(state)
        with pytest.raises(CommentRedirectsToMarket) as err:
            state.comment(article.article_hash, "cy", "h" * 64)
        assert err.value.market_id == article.market_id
        assert article.comments == []


class TestStartReview:
    def test_deposit_escrowed_and_market_opened(self):
        state = state_with_author()
        article = reviewed_article(state, deposit=10)
        assert article.state is U
        assert state.ledger.escrowed("ada") == 10
        assert state.ledger.balance("ada") == 90
        market = state.markets[article.market_id]
        assert market.resolved is None

    @pytest.mark.parametrize("liquidity", [0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_liquidity_rejected_at_genesis(self, liquidity):
        with pytest.raises(LifecycleError, match="market liquidity must be positive"):
            ProtocolConfig(market_liquidity=liquidity)

    def test_liquidity_beyond_a_double_rejected_at_genesis(self):
        # `open_market` takes the liquidity as a double, so a larger integer
        # would make every START_REVIEW on the chain a rejection.
        ProtocolConfig(market_liquidity=2**1023)
        with pytest.raises(LifecycleError, match="market liquidity is too large for a double"):
            ProtocolConfig(market_liquidity=10**400)

    @pytest.mark.parametrize("field, value, reason", [
        ("min_review_deposit", 5.5, "min_review_deposit is fixed at 5"),
        ("reward_multiple", True, "reward_multiple is fixed at 2"),
        ("min_panel", "3", "min_panel is fixed at 3"),
        ("initial_reserve", 1.5, "initial_reserve must be an integer"),
        ("authors_may_trade", 1, "authors_may_trade is fixed at false"),
        ("market_liquidity", True, "market_liquidity must be a number"),
        ("market_liquidity", "20", "market_liquidity must be a number"),
        ("peers", "p1", "peers must be a list of strings"),
        ("peers", ["p1", 2], "peers must be a list of strings"),
    ], ids=["float-deposit", "bool-multiple", "string-panel", "float-reserve",
            "int-trade-flag", "bool-liquidity", "string-liquidity", "string-peers",
            "int-peer"])
    def test_wrong_type_config_rejected_at_genesis(self, field, value, reason):
        with pytest.raises(LifecycleError, match=reason):
            ProtocolConfig.from_canonical({field: value})

    def test_duplicate_peers_rejected_at_genesis(self):
        with pytest.raises(ChainError, match="^duplicate peer ids$"):
            ProtocolConfig(peers=("p1", "p1"))

    @pytest.mark.parametrize("peers", [("", "p2"), (chr(0xD83D) + chr(0xDE00), "p2", "p3")],
                             ids=["empty-id", "surrogate-pair"])
    def test_the_config_refuses_the_peer_ids_a_peer_set_refuses(self, peers):
        # JSON reads a surrogate pair back as one character, so the genesis
        # descriptor would name a different config.
        with pytest.raises(ChainError, match="^peer ids must be non-empty strings "
                                             "that JSON reads back$"):
            ProtocolConfig(peers=peers)

    def test_a_clone_shares_its_config(self):
        state = state_with_author()
        assert copy.deepcopy(state.config) is state.config
        assert state.clone().config is state.config

    @pytest.mark.parametrize("field", ["initial_reserve"])
    def test_config_integers_are_below_2_256(self, field):
        ProtocolConfig(**{field: 2**256 - 1})
        with pytest.raises(LifecycleError, match=rf"{field} must be below 2\*\*256"):
            ProtocolConfig(**{field: 2**256})

    @pytest.mark.parametrize("field, value", [
        ("min_review_deposit", 6), ("reward_multiple", 3), ("min_panel", 2),
        ("authors_may_trade", True),
    ])
    def test_a_fixed_rule_is_read_only_at_its_value(self, field, value):
        full = ProtocolConfig(peers=("p1",)).to_canonical()
        with pytest.raises(LifecycleError, match=f"{field} is fixed at"):
            ProtocolConfig.from_canonical({**full, field: value})

    @pytest.mark.parametrize("form", [[], "config", None])
    def test_a_config_that_is_not_an_object_is_refused(self, form):
        with pytest.raises(LifecycleError, match="config must be an object"):
            ProtocolConfig.from_canonical(form)

    def test_an_unknown_config_key_is_named_by_the_constructor(self):
        # The CLI prints this text for a scenario's or a descriptor's config.
        with pytest.raises(TypeError, match=r"^ProtocolConfig\.__new__\(\) got an "
                                            r"unexpected keyword argument 'fee'$"):
            ProtocolConfig.from_canonical({"fee": 1})

    def test_reward_must_be_below_2_256(self):
        # Publication mints reward_multiple (here 2) times the deposit, so a
        # review that could not pay its reward does not start.
        state = state_with_author(balance=2**256 - 1)
        article = state.submit_article(meta(), "ada")
        before = state.to_canonical()
        with pytest.raises(LifecycleError, match=r"reward must be below 2\*\*256"):
            state.start_review(article.article_hash, "ada", 2**255, ("r1", "r2", "r3"))
        assert state.to_canonical() == before
        state.start_review(article.article_hash, "ada", 2**255 - 1, ("r1", "r2", "r3"))
        state.conclude_review(article.article_hash, dict.fromkeys(("r1", "r2"), "PUBLISH"))
        assert article.state is P
        assert state.ledger.minted_total == 4 * (2**256 - 1) + 2**256 - 2
        assert state.ledger.conservation_gap() == 0

    def test_deposit_must_strictly_exceed_minimum(self):
        state = state_with_author()
        article = state.submit_article(meta(), "ada")
        with pytest.raises(LifecycleError):
            state.start_review(article.article_hash, "ada", 5, ("r1", "r2", "r3"))
        assert article.state is A

    def test_non_owner_cannot_start(self):
        state = state_with_author()
        article = state.submit_article(meta(), "ada")
        with pytest.raises(LifecycleError):
            state.start_review(article.article_hash, "cy", 10, ("r1", "r2", "r3"))

    def test_wrong_state_rejected(self):
        state = state_with_author()
        article = reviewed_article(state)
        with pytest.raises(LifecycleError):
            state.start_review(article.article_hash, "ada", 10, ("r1", "r2", "r3"))

    @pytest.mark.parametrize("size", [1, 2])
    def test_small_panel_rejected(self, size):
        state = state_with_author()
        article = state.submit_article(meta(), "ada")
        panel = tuple(f"r{i}" for i in range(1, size + 1))
        refused = rf"^panel of {size} is below the minimum 3$"
        with pytest.raises(LifecycleError, match=refused):
            state.start_review(article.article_hash, "ada", 10, panel)

    def test_insufficient_balance_rejected(self):
        state = state_with_author(balance=8)
        article = state.submit_article(meta(), "ada")
        with pytest.raises(LifecycleError):
            state.start_review(article.article_hash, "ada", 20, ("r1", "r2", "r3"))
        assert state.ledger.escrowed("ada") == 0


class TestConcludeReview:
    def test_publish_refunds_and_rewards(self):
        state = state_with_author()
        article = state.submit_article(meta(), "ada")
        state.claim_published_article(article.article_hash, "", "bo")  # co-owner
        state.start_review(article.article_hash, "ada", 10, ("r1", "r2", "r3"))
        state.conclude_review(
            article.article_hash, {"r1": "PUBLISH", "r2": "PUBLISH", "r3": "REVISE"}
        )
        assert article.state is P
        # Owners split the minted reward of 2 * 10; ada also gets her deposit back.
        assert state.ledger.balance("ada") == 100 - 10 + 10 + 10
        assert state.ledger.balance("bo") == 100 + 10
        assert state.ledger.escrowed("ada") == 0
        assert state.ledger.conservation_gap() == 0

    def test_revise_forfeits_deposit(self):
        state = state_with_author()
        article = reviewed_article(state, deposit=10)
        reserve_before = state.ledger.platform_reserve
        state.conclude_review(
            article.article_hash, {"r1": "REVISE", "r2": "REVISE", "r3": "PUBLISH"}
        )
        assert article.state is A
        assert state.ledger.platform_reserve == reserve_before + 10
        assert state.ledger.balance("ada") == 90

    def test_minority_vote_is_no_quorum(self):
        state = state_with_author()
        article = reviewed_article(state)
        with pytest.raises(LifecycleError):
            state.conclude_review(article.article_hash, {"r1": "PUBLISH"})
        assert article.state is U

    def test_outside_voter_rejected(self):
        state = state_with_author()
        article = reviewed_article(state)
        with pytest.raises(LifecycleError):
            state.conclude_review(
                article.article_hash,
                {"r1": "PUBLISH", "r2": "PUBLISH", "intruder": "PUBLISH"},
            )

    def test_reward_split_remainder_to_first_owner(self):
        state = state_with_author()
        article = state.submit_article(meta(), "ada")
        state.claim_published_article(article.article_hash, "", "bo")
        state.claim_published_article(article.article_hash, "", "cy")
        state.start_review(article.article_hash, "ada", 7, ("r1", "r2", "r3"))
        state.conclude_review(
            article.article_hash, {"r1": "PUBLISH", "r2": "PUBLISH", "r3": "PUBLISH"}
        )
        # Reward 14 over three owners: 4 each, remainder 2 to the first.
        assert state.ledger.balance("ada") == 100 + 6
        assert state.ledger.balance("bo") == 100 + 4
        assert state.ledger.balance("cy") == 100 + 4

    def test_market_resolves_with_the_decision(self):
        state = state_with_author()
        article = reviewed_article(state)
        state.trade_review_shares(article.article_hash, "cy", "PUBLISH", 10)
        balance_before = state.ledger.balance("cy")
        state.conclude_review(
            article.article_hash, {"r1": "PUBLISH", "r2": "PUBLISH", "r3": "REVISE"}
        )
        assert state.markets[article.market_id].resolved == "PUBLISH"
        assert state.ledger.balance("cy") == balance_before + 10

    def test_rereview_after_revision_allowed(self):
        state = state_with_author()
        article = reviewed_article(state)
        state.conclude_review(
            article.article_hash, {"r1": "REVISE", "r2": "REVISE", "r3": "REVISE"}
        )
        state.start_review(article.article_hash, "ada", 9, ("r4", "r5", "r6"))
        assert article.state is U
        assert article.review_round == 2


class TestReviewMarketAccess:
    def test_authors_barred_by_default(self):
        state = state_with_author()
        article = reviewed_article(state)
        with pytest.raises(LifecycleError):
            state.trade_review_shares(article.article_hash, "ada", "PUBLISH", 5)

    def test_no_trading_outside_review(self):
        state = state_with_author()
        article = state.submit_article(meta(), "ada")
        with pytest.raises(LifecycleError):
            state.trade_review_shares(article.article_hash, "cy", "PUBLISH", 5)


def published_article(state, deposit=10):
    article = reviewed_article(state, deposit=deposit)
    state.conclude_review(
        article.article_hash, {"r1": "PUBLISH", "r2": "PUBLISH", "r3": "PUBLISH"}
    )
    return article


def retracted_article(state):
    article = published_article(state)
    dispute = state.raise_objection(article.article_hash, "cy", 5)
    state.resolve_dispute(
        dispute.dispute_id, {"p1": "retract", "p2": "retract", "p3": "retract"}
    )
    return article


UPHOLD_VOTES = {"p1": "uphold", "p2": "uphold", "p3": "uphold"}


class TestDisputes:
    def test_objection_opens_dispute_and_escrows_stake(self):
        state = state_with_author()
        article = published_article(state)
        dispute = state.raise_objection(article.article_hash, "cy", 5)
        assert state.ledger.escrowed("cy") == 5
        assert dispute.resolution is None
        assert article.state is P

    def test_objection_needs_published_state(self):
        state = state_with_author()
        article = state.submit_article(meta(), "ada")
        with pytest.raises(LifecycleError):
            state.raise_objection(article.article_hash, "cy", 5)

    def test_zero_stake_rejected(self):
        state = state_with_author()
        article = published_article(state)
        with pytest.raises(LifecycleError):
            state.raise_objection(article.article_hash, "cy", 0)

    def test_retraction_majority_pays_bounty(self):
        state = state_with_author()
        article = published_article(state)
        dispute = state.raise_objection(article.article_hash, "cy", 5)
        state.resolve_dispute(
            dispute.dispute_id,
            {"p1": "retract", "p2": "retract", "p3": "retract", "p4": "uphold"},
        )
        assert article.state is R
        # Stake back plus an equal bounty.
        assert state.ledger.balance("cy") == 100 + 5
        assert state.ledger.conservation_gap() == 0

    def test_uphold_majority_forfeits_stake(self):
        state = state_with_author()
        article = published_article(state)
        reserve_before = state.ledger.platform_reserve
        dispute = state.raise_objection(article.article_hash, "cy", 5)
        state.resolve_dispute(
            dispute.dispute_id, {"p1": "uphold", "p2": "uphold", "p3": "uphold"}
        )
        assert article.state is P
        assert state.ledger.balance("cy") == 95
        assert state.ledger.platform_reserve == reserve_before + 5

    def test_non_peer_vote_rejected(self):
        state = state_with_author()
        article = published_article(state)
        dispute = state.raise_objection(article.article_hash, "cy", 5)
        with pytest.raises(LifecycleError):
            state.resolve_dispute(dispute.dispute_id, {"cy": "retract"})

    def test_split_vote_is_no_quorum(self):
        state = state_with_author()
        article = published_article(state)
        dispute = state.raise_objection(article.article_hash, "cy", 5)
        with pytest.raises(LifecycleError):
            state.resolve_dispute(
                dispute.dispute_id, {"p1": "retract", "p2": "uphold"}
            )
        assert dispute.resolution is None

    def test_a_config_without_peers_decides_no_dispute(self):
        state = state_with_author(peers=())
        article = published_article(state)
        dispute = state.raise_objection(article.article_hash, "cy", 5)
        with pytest.raises(LifecycleError, match="^no peers configured to decide disputes$"):
            state.resolve_dispute(dispute.dispute_id, {"p1": "retract"})
        assert dispute.resolution is None

    def test_a_second_objection_waits_for_the_open_one(self):
        state = state_with_author()
        article = published_article(state)
        first = state.raise_objection(article.article_hash, "cy", 5)
        before = state.to_canonical()
        with pytest.raises(LifecycleError, match="^article already has an open dispute$"):
            state.raise_objection(article.article_hash, "dee", 7)
        assert state.to_canonical() == before
        assert (state.ledger.balance("dee"), state.ledger.escrowed("dee")) == (100, 0)
        assert (state.ledger.balance("cy"), state.ledger.escrowed("cy")) == (95, 5)
        assert state.disputes == {first.dispute_id: first}

    def test_an_objection_after_a_resolved_one_takes_the_next_id(self):
        state = state_with_author()
        article = published_article(state)
        first = state.raise_objection(article.article_hash, "cy", 5)
        state.resolve_dispute(first.dispute_id, UPHOLD_VOTES)
        second = state.raise_objection(article.article_hash, "dee", 7)
        assert second.dispute_id == f"{article.article_hash[:16]}:d2"
        assert state.ledger.escrowed("dee") == 7

    def test_open_dispute_is_the_unresolved_one(self):
        state = state_with_author()
        article = published_article(state)
        assert state.open_dispute(article.article_hash) is None
        dispute = state.raise_objection(article.article_hash, "cy", 5)
        assert state.open_dispute(article.article_hash) is dispute
        state.resolve_dispute(dispute.dispute_id, UPHOLD_VOTES)
        assert state.open_dispute(article.article_hash) is None
        assert state.open_dispute("no-such-article") is None

    def test_double_resolution_rejected(self):
        state = state_with_author()
        article = retracted_article(state)
        dispute = next(iter(state.disputes.values()))
        with pytest.raises(LifecycleError):
            state.resolve_dispute(dispute.dispute_id, {"p1": "uphold"})
        assert article.state is R


def open_review(state):
    article = reviewed_article(state)  # panel r1, r2, r3
    return lambda votes: state.conclude_review(article.article_hash, votes)


def open_dispute(state):
    dispute = state.raise_objection(published_article(state).article_hash, "cy", 5)
    return lambda votes: state.resolve_dispute(dispute.dispute_id, votes)  # peers p1-p5


class TestVoteRule:
    """Reviews and disputes share one rule: a strict majority of the full electorate."""

    @pytest.mark.parametrize("open_vote, votes, named", [
        # Without the unknown vote, the rest would still be a majority.
        (open_review, {"r1": "MAYBE", "r2": "PUBLISH", "r3": "PUBLISH"},
         ["review panel", "MAYBE"]),
        (open_dispute, {"p1": "MAYBE", "p2": "retract", "p3": "retract", "p4": "retract"},
         ["peer set", "MAYBE"]),
        # Unanimous among the voters, but 2 of 5 peers is no majority.
        (open_dispute, {"p1": "retract", "p2": "retract"}, ["no quorum", "peer set"]),
    ], ids=["review-unknown-value", "dispute-unknown-value", "dispute-abstentions"])
    def test_refused_vote_changes_nothing(self, open_vote, votes, named):
        state = state_with_author()
        vote = open_vote(state)
        before = state.to_canonical()
        with pytest.raises(LifecycleError) as refused:
            vote(votes)
        assert all(part in str(refused.value) for part in named)
        assert state.to_canonical() == before


class TestClaimPublishedArticle:
    def test_unknown_hash_creates_published_article(self):
        state = state_with_author()
        article = state.claim_published_article("f" * 64, "10.1/x", "ada")
        assert article.state is P
        assert article.owners == ["ada"]
        assert article.doi == "10.1/x"

    def test_new_claimant_appended(self):
        state = state_with_author()
        state.claim_published_article("f" * 64, "10.1/x", "ada")
        article = state.claim_published_article("f" * 64, "10.1/x", "bo")
        assert article.owners == ["ada", "bo"]

    def test_repeat_claim_by_owner_rejected(self):
        state = state_with_author()
        state.claim_published_article("f" * 64, "10.1/x", "ada")
        with pytest.raises(LifecycleError, match="Owner has already claimed that article"):
            state.claim_published_article("f" * 64, "10.1/x", "ada")

    @pytest.mark.parametrize("article_hash", ["", 7, None, ["f"]])
    def test_hash_must_be_a_nonempty_string(self, article_hash):
        state = state_with_author()
        state.claim_published_article("f" * 64, "10.1/x", "ada")
        with pytest.raises(LifecycleError, match="nonempty string"):
            state.claim_published_article(article_hash, "10.1/x", "bo")
        assert list(state.articles) == ["f" * 64]

    def test_owner_lists_stay_duplicate_free(self):
        state = state_with_author()
        for caller in ("ada", "bo", "cy", "ada", "bo", "dee"):
            try:
                state.claim_published_article("f" * 64, "10.1/x", caller)
            except LifecycleError:
                pass
        owners = state.articles["f" * 64].owners
        assert len(owners) == len(set(owners))


class TestTransitionLegality:
    def test_random_walks_stay_on_the_eight_legal_edges(self):
        for seed in range(300):
            result = random_walk(seed)
            assert result.transitions <= LEGAL_TRANSITIONS
            assert result.atomicity_violations == 0
            assert result.conservation_violations == 0
            assert result.retraction_violations == 0
            assert result.digest_violations == 0

    def test_registry_export_sorted(self):
        state = state_with_author()
        state.claim_published_article("f" * 64, "10.1/x", "ada")
        state.claim_published_article("0" * 64, "10.1/y", "bo")
        export = state.registry_export_json()
        assert export.index('"0' * 1) < export.index('"f')
