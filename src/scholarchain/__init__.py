"""scholarchain: a deterministic simulator of token-incentivized publishing.

The package models a scholarly-communication protocol in which a research
paper is a finite-state contract on a permissioned chain -- submitted,
reviewed under an author deposit, published for a minted reward or sent
back with the deposit forfeited, and retractable by peer consensus --
alongside the game-theoretic machinery (one-shot dilemmas, repeated games
with grim strategies, reputation-conditioned populations) that explains why
those incentives favor cooperation over publish-or-perish defection.

Module map:

    games       exact-rational 2x2 games and equilibria
    strategies  strategy automata, discounting, population runs
    ledger      integer token accounts, escrow, platform reserve
    market      review-outcome prediction market (log scoring rule)
    lifecycle   the article state machine and protocol operations
    netchain    execute-once quorum chain, replay and tamper checks
    cli         scenario runner (`scholarchain` command)
"""

from .games import (
    Action,
    CommonsParams,
    EquilibriumSet,
    PayoffMatrix2x2,
    PublicationParams,
    build_commons_payoff,
    build_publication_game,
    dominant_action,
    equilibrium_set,
    game_from_json,
    mixed_equilibrium,
    pure_equilibria,
    two_player_commons_game,
)
from .ledger import TokenLedger
from .lifecycle import (
    Article,
    ArticleState,
    ContentMetadata,
    ProtocolConfig,
    ProtocolState,
    content_hash,
)
from .market import Market, open_market, price, resolve, trade
from .netchain import (
    Block,
    Chain,
    PeerSet,
    Transaction,
    TxKind,
    TxPool,
    produce_block,
    state_hash,
    submit_tx,
    verify_chain,
)
from .strategies import (
    PopulationConfig,
    StrategyAutomaton,
    all_c,
    all_d,
    closed_form_payoff,
    cooperation_sustained,
    cooperation_threshold_population,
    discounted_average_payoff,
    grim,
    play_match,
    reputation_grim,
    run_population,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "Article",
    "ArticleState",
    "Block",
    "Chain",
    "CommonsParams",
    "ContentMetadata",
    "EquilibriumSet",
    "Market",
    "PayoffMatrix2x2",
    "PeerSet",
    "PopulationConfig",
    "ProtocolConfig",
    "ProtocolState",
    "PublicationParams",
    "StrategyAutomaton",
    "TokenLedger",
    "Transaction",
    "TxKind",
    "TxPool",
    "all_c",
    "all_d",
    "build_commons_payoff",
    "build_publication_game",
    "closed_form_payoff",
    "content_hash",
    "cooperation_sustained",
    "cooperation_threshold_population",
    "discounted_average_payoff",
    "dominant_action",
    "equilibrium_set",
    "game_from_json",
    "grim",
    "mixed_equilibrium",
    "open_market",
    "play_match",
    "price",
    "produce_block",
    "pure_equilibria",
    "reputation_grim",
    "resolve",
    "run_population",
    "state_hash",
    "submit_tx",
    "trade",
    "two_player_commons_game",
    "verify_chain",
]
