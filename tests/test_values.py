"""The immutable value classes: each is built by position or by keyword,
refuses attribute writes, and deep-copies to an equal value."""

import copy
import re
from fractions import Fraction

import pytest

from scholarchain.games import (Action, CommonsParams, EquilibriumSet, PayoffMatrix2x2,
                                PublicationParams)
from scholarchain.lifecycle import ContentMetadata, ProtocolConfig
from scholarchain.netchain import Block, PeerSet, Transaction, TxKind, TxRecord
from scholarchain.strategies import (DiscountedPayoff, MatchTranscript, PopulationConfig,
                                     PopulationReport, RoundRecord, StrategyAutomaton,
                                     all_c, all_d)

C, D = Action.C, Action.D
HALF = Fraction(1, 2)

#: Each class with its fields in constructor order, each value as the
#: attribute reads it back.
VALUES = [
    (Block, {"height": 1, "prev_hash": "0" * 64,
             "txs": (TxRecord(Transaction(1, TxKind.CREDIT, {"user": "u", "amount": 5},
                                          "platform"), "applied"),),
             "state_hash": "a" * 64, "approvals": ("p1", "p2"), "block_hash": "b" * 64}),
    (PeerSet, {"peers": ("p1", "p2")}),
    (ContentMetadata, {"title": "t", "abstract": "a", "authors": (("Ada L", "ada"),),
                       "institutions": ("inst",)}),
    (ProtocolConfig, {"market_liquidity": 20.0, "initial_reserve": 10, "peers": ("p1",)}),
    (PayoffMatrix2x2, {"cells": ((HALF, HALF), (Fraction(-1), Fraction(2)),
                                 (Fraction(2), Fraction(-1)), (Fraction(0), Fraction(0)))}),
    (CommonsParams, {"benefit": Fraction(2), "effort": Fraction(1), "threshold": 3,
                     "size": 10}),
    (PublicationParams, {"reward": Fraction(4), "effort": Fraction(1),
                         "publish_prob": {"00": HALF, "0e": Fraction(0), "e0": Fraction(1),
                                          "ee": HALF}}),
    (EquilibriumSet, {"pure": ((D, D),), "mixed": (HALF, HALF)}),
    (StrategyAutomaton, {"name": "grim", "initial": "c", "actions": {"c": C, "p": D},
                         "transitions": {("c", C): "c", ("c", D): "p", ("p", C): "p",
                                         ("p", D): "p"},
                         "reputation_rule": True}),
    (MatchTranscript, {"rounds": ((C, D, Fraction(-1), Fraction(2)),
                                  (D, D, Fraction(0), Fraction(0)))}),
    (DiscountedPayoff, {"value": 0.5, "truncation_bound": 0.01}),
    (PopulationConfig, {"size": 2, "strategies": {0: all_c(), 1: all_d()}, "delta": 0.9,
                        "reputation_visible": False, "rng_seed": 7, "horizon": 3}),
    (PopulationReport, {"seed": 7, "delta": 0.9, "horizon": 1,
                        "rows": (RoundRecord(0, 0, C, HALF, "good"),),
                        "discounted_payoffs": {0: 0.05}, "cooperation_rates": (1.0,)}),
]


@pytest.mark.parametrize("cls, fields", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
class TestValueClass:
    def test_position_and_keyword_build_the_same_value(self, cls, fields):
        by_position, by_keyword = cls(*fields.values()), cls(**fields)
        assert by_position == by_keyword
        for name, value in fields.items():
            assert getattr(by_position, name) == value, name

    def test_an_attribute_cannot_be_set(self, cls, fields):
        value = cls(**fields)
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)

    def test_a_deep_copy_is_equal(self, cls, fields):
        value = cls(**fields)
        assert copy.deepcopy(value) == value


#: Each validated named tuple, a field value its constructor refuses, and the
#: constructor's message for it.
REFUSED = [
    (PayoffMatrix2x2, {"cells": ((1, 2),)}, "a 2x2 game has exactly four cells"),
    (CommonsParams, {"effort": Fraction(2)}, "benefit must exceed effort"),
    (PublicationParams, {"reward": -1}, "reward must be non-negative"),
    (EquilibriumSet, {"mixed": (Fraction(3, 2), 0)}, "mixed probabilities must lie in [0,1]"),
    (StrategyAutomaton, {"initial": "nowhere"}, "initial state 'nowhere' unknown"),
    (PopulationConfig, {"horizon": 0}, "horizon must be >= 1"),
    (ContentMetadata, {"authors": ()}, "article needs at least one author"),
    (PeerSet, {"peers": ()}, "peer set cannot be empty"),
    (ProtocolConfig, {"initial_reserve": -1},
     "initial_reserve must be below 2**256 and not negative"),
]


@pytest.mark.parametrize("cls, bad, message", REFUSED,
                         ids=[cls.__name__ for cls, *_ in REFUSED])
def test_make_and_replace_refuse_what_the_constructor_refuses(cls, bad, message):
    fields = {**dict(VALUES)[cls], **bad}
    with pytest.raises(Exception) as built:
        cls(**fields)
    assert str(built.value) == message
    value = cls(**dict(VALUES)[cls])
    for rebuild in (lambda: cls._make(fields.values()), lambda: value._replace(**bad)):
        with pytest.raises(type(built.value), match=f"^{re.escape(message)}$"):
            rebuild()


def test_a_transcript_counts_its_rounds():
    assert len(MatchTranscript(((C, C, HALF, HALF),) * 3)) == 3
