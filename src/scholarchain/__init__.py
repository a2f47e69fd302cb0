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
    fields      the declared field vocabulary that reads every JSON input
    lifecycle   the article state machine and protocol operations
    netchain    execute-once quorum chain, replay and tamper checks
    cli         scenario runner (`scholarchain` command)
"""

from importlib import import_module

__version__ = "0.1.0"

#: module -> the public names it defines.  A module is imported when one of
#: its names is first read, so the chain verbs never load the game-theory layer.
_EXPORTS = {
    "games": (
        "Action",
        "CommonsParams",
        "EquilibriumSet",
        "PayoffMatrix2x2",
        "PublicationParams",
        "build_commons_payoff",
        "build_publication_game",
        "dominant_action",
        "equilibrium_set",
        "game_from_json",
        "mixed_equilibrium",
        "pure_equilibria",
        "two_player_commons_game",
    ),
    "ledger": ("TokenLedger",),
    "lifecycle": (
        "Article",
        "ArticleState",
        "ContentMetadata",
        "PeerSet",
        "ProtocolConfig",
        "ProtocolState",
        "content_hash",
    ),
    "market": (
        "Market",
        "open_market",
        "price",
        "resolve",
        "trade",
    ),
    "netchain": (
        "Block",
        "Chain",
        "Transaction",
        "TxKind",
        "TxPool",
        "produce_block",
        "state_hash",
        "submit_tx",
        "verify_chain",
    ),
    "strategies": (
        "PopulationConfig",
        "StrategyAutomaton",
        "all_c",
        "all_d",
        "closed_form_payoff",
        "cooperation_sustained",
        "cooperation_threshold_population",
        "discounted_average_payoff",
        "grim",
        "play_match",
        "reputation_grim",
        "run_population",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
