"""Chain-level fuzz: arbitrary payloads for every kind and submitter.

Each example commits a fixed opening block (funded users, an article under
review, an active one, and a published one with an open dispute), then
blocks of arbitrary transactions, then three fixed closing acts, through
`submit_tx` -> `produce_block` -> `export_chain` -> `verify_export`, all
under the lowest int<->str limit CPython allows, 640 digits.  Payload leaves
include integers of around 640 digits and values that are not JSON.
Submission refuses exactly the transactions with a payload nested more than
16 containers deep, or a payload that `json.dumps` cannot encode canonically
under that limit.  After every block nothing has raised, the block's cached
state digest equals the whole state encoded again, the exported chain
verifies (rejection reasons included), tokens are
conserved, and every article moved only along legal transitions, checked
one transaction at a time on a replayed copy, where each transaction
replays to its recorded status and reason and each rejected one leaves the
state digest as it was, cached and encoded again alike.  At the end every
admitted transaction is in the blocks exactly once.

A second property mutates one line of an exported chain and checks that
`verify_export` returns a result rather than raising.
"""

import json
import re

from hypothesis import HealthCheck, given, settings, strategies as st

from scholarchain.errors import ChainError, ProtocolError
from scholarchain.lifecycle import (
    ArticleState,
    ContentMetadata,
    ProtocolConfig,
    ProtocolState,
    content_hash,
)
from scholarchain.netchain import (
    APPLIED,
    PLATFORM,
    REJECTED,
    Chain,
    PeerSet,
    Transaction,
    TxKind,
    TxPool,
    VerifyResult,
    apply_tx,
    export_chain,
    produce_block,
    state_hash,
    submit_tx,
    verify_export,
)
from protocol_fuzz import LEGAL_TRANSITIONS, canonical_dumps, full_state_hash, int_digit_limit

PEERS = PeerSet(("p1", "p2", "p3", "p4"))
USERS = ("ada", "bo", "cy", PLATFORM)
PANEL = ("r1", "r2", "r3")
REVIEWED = content_hash(ContentMetadata("fuzzed", "x", (("A", "ada"),)))
FRESH = content_hash(ContentMetadata("t1", "", (("A", "ada"),)))
CLAIMED = "published-elsewhere"
DISPUTE = f"{CLAIMED[:16]}:d1"

OPENING = [
    *((TxKind.CREDIT, {"user": u, "amount": 100}, PLATFORM) for u in USERS[:3]),
    (TxKind.SUBMIT_ARTICLE,
     {"title": "fuzzed", "abstract": "x", "authors": [["A", "ada"]]}, "ada"),
    (TxKind.START_REVIEW,
     {"article": REVIEWED, "deposit": 10, "panel": list(PANEL)}, "ada"),
    (TxKind.SUBMIT_ARTICLE, {"title": "t1", "authors": [["A", "ada"]]}, "ada"),
    (TxKind.CLAIM_ARTICLE, {"article": CLAIMED}, "cy"),
    (TxKind.RAISE_OBJECTION, {"article": CLAIMED, "stake": 5}, "bo"),
]

# Fuzzed decisions rarely carry a winning vote and fuzzed reviews rarely
# start, so each example ends with three acts, each alone in its block: the
# dispute upheld, the review sent back and the active article put under
# review.  Each applies if the fuzzed blocks left its article as it was.
CLOSING = [
    [(TxKind.RESOLVE_DISPUTE,
      {"dispute": DISPUTE, "votes": dict.fromkeys(PEERS.peers, "uphold")}, PLATFORM)],
    [(TxKind.CONCLUDE_REVIEW,
      {"article": REVIEWED, "votes": dict.fromkeys(PANEL, "REVISE")}, PLATFORM)],
    [(TxKind.START_REVIEW, {"article": FRESH, "deposit": 6, "panel": list(PANEL)}, "ada")],
]

json_leaves = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6))
# Integers of 640 digits are the longest admitted; one more digit is refused.
long_integers = st.builds(lambda sign, d: sign * (10**640 + d),
                          st.sampled_from((1, -1)), st.integers(-2, 1))
not_json = st.sampled_from((b"x", {1}, 1j, float, object()))


def values_of(leaves):
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=6), children, max_size=3),
        max_leaves=6,
    )


json_values = values_of(json_leaves)
any_values = values_of(json_leaves | long_integers | not_json)


# Values that some state lets an operation accept, per payload field;
# unusable ones come from the arbitrary values mixed in below.
USABLE = {
    "amount": st.sampled_from((1, 50, 2**256 - 1, 2**256, 10**640 - 1)),
    "source": st.sampled_from(("mint", "reserve")),
    "title": st.sampled_from(("t2", "t3")),
    "abstract": st.just("y"),
    "authors": st.sampled_from(([["A", "bo"]], [["B", "cy"], ["C", "bo"]])),
    "institutions": st.just(["I"]),
    "article": st.sampled_from((REVIEWED, FRESH, CLAIMED)),
    "text_hash": st.just("h"),
    "deposit": st.sampled_from((6, 20)),
    "panel": st.just(list(PANEL)),
    "outcome": st.sampled_from(("PUBLISH", "REVISE")),
    "shares": st.sampled_from((1e-300, 0.5, 3, 40, -0.5)),
    "votes": st.dictionaries(
        st.sampled_from(PANEL), st.sampled_from(("PUBLISH", "REVISE")), min_size=2
    ) | st.dictionaries(
        st.sampled_from(PEERS.peers), st.sampled_from(("retract", "uphold")), min_size=3
    ),
    "stake": st.sampled_from((1, 7)),
    "dispute": st.sampled_from((DISPUTE, f"{FRESH[:16]}:d1")),
    "doi": st.just("10.1/x"),
}
USABLE_OR_ANY = {f: v | any_values for f, v in USABLE.items()}
# The fields each kind reads without a default.
REQUIRED = {
    TxKind.CREDIT: ("user", "amount"),
    TxKind.SUBMIT_ARTICLE: ("title", "authors"),
    TxKind.COMMENT: ("article", "text_hash"),
    TxKind.START_REVIEW: ("article", "deposit", "panel"),
    TxKind.TRADE: ("article", "outcome", "shares"),
    TxKind.CONCLUDE_REVIEW: ("article", "votes"),
    TxKind.RAISE_OBJECTION: ("article", "stake"),
    TxKind.RESOLVE_DISPUTE: ("dispute", "votes"),
    TxKind.CLAIM_ARTICLE: ("article",),
}


def payloads(kind: TxKind, submitter: str):
    """The kind's fields holding usable values, or usable values and any value,
    or any mapping of string keys at all.

    Usable values let operations get past their checks often enough to move
    the state; any other known field may be present too.  A usable "user" is
    the submitter.
    """
    def shaped(values):
        return st.fixed_dictionaries(
            {f: values[f] for f in REQUIRED[kind]},
            optional={f: v for f, v in values.items() if f not in REQUIRED[kind]},
        )

    user = st.just(submitter)
    return st.one_of(
        shaped({**USABLE, "user": user}),
        shaped({**USABLE_OR_ANY, "user": user | st.sampled_from(USERS) | any_values}),
        st.dictionaries(st.text(max_size=4), any_values, max_size=4),
    )


def nested(value, depth: int):
    for _ in range(depth):
        value = [value]
    return value


def depth(value) -> int:
    """How many containers nest in `value`, itself included."""
    if isinstance(value, dict):
        value = list(value.values())
    elif not isinstance(value, list):
        return 0
    return 1 + max(map(depth, value), default=0)


def writable(payload) -> bool:
    """The oracle: `json.dumps`, with the canonical arguments, encodes the
    payload under the lowest limit."""
    with int_digit_limit(640):
        try:
            canonical_dumps(payload)
        except (TypeError, ValueError):
            return False
    return True


submitters = st.one_of(
    st.just(PLATFORM), st.sampled_from(USERS[:3]), st.text(min_size=1, max_size=4)
)
# Mostly unnested; past the bound of 16 containers it must be refused too.
deep_notes = st.just(None) | st.builds(nested, json_values, st.integers(10, 18))


def with_note(payload: dict, note):
    return payload if note is None else {**payload, "note": note}


transactions = st.tuples(st.sampled_from(list(TxKind)), submitters).flatmap(
    lambda ks: st.tuples(
        st.just(ks[0]), st.builds(with_note, payloads(*ks), deep_notes),
        st.just(ks[1]))
)
blocks = st.lists(st.lists(transactions, min_size=1, max_size=4), min_size=1, max_size=4)


def genesis() -> ProtocolState:
    return ProtocolState(
        ProtocolConfig(initial_reserve=200, peers=PEERS.peers, market_liquidity=20.0)
    )


@given(blocks)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_arbitrary_transactions_keep_the_chain_sound(fuzzed_blocks):
    with int_digit_limit(640):
        chain = Chain(genesis())
        replay = genesis()
        tx_id = 0
        admitted = []
        for block in [OPENING] + fuzzed_blocks + CLOSING:
            pool = TxPool()
            for kind, payload, submitter in block:
                tx_id += 1
                tx = Transaction(tx_id, kind, payload, submitter)
                inadmissible = depth(payload) > 16 or not writable(payload)
                try:
                    submit_tx(pool, tx, chain)
                except ChainError:
                    assert inadmissible
                    continue
                assert not inadmissible
                admitted.append(tx)
            if not pool.pending:
                continue
            result = produce_block(chain, pool, PEERS)
            assert result.committed
            assert result.block.state_hash == full_state_hash(chain.tip)
            if block is OPENING:
                assert all(r.status == APPLIED for r in result.block.txs)

            for record in result.block.txs:
                before = {h: a.state for h, a in replay.articles.items()}
                digest = state_hash(replay) if record.status == REJECTED else None
                try:
                    apply_tx(replay, record.tx)
                    status, error = APPLIED, ""
                except ProtocolError as exc:
                    status, error = REJECTED, str(exc)
                assert (status, error) == (record.status, record.error)
                if status == REJECTED:
                    # Blocks execute in place on the tip: a rejection must change nothing.
                    assert state_hash(replay) == digest == full_state_hash(replay)
                for h, article in replay.articles.items():
                    if h in before:
                        assert (before[h], article.state) in LEGAL_TRANSITIONS
                    else:
                        assert article.state in (ArticleState.ACTIVE,
                                                 ArticleState.PUBLISHED)
            assert chain.tip.ledger.conservation_gap() == 0
            assert verify_export(export_chain(chain.blocks), genesis(), PEERS).ok
        # Every admitted transaction is committed exactly once, in order.
        assert [r.tx for b in chain.blocks for r in b.txs] == admitted


def committed_export() -> list[str]:
    """The export of the opening and closing blocks, one string per line."""
    chain = Chain(genesis())
    tx_id = 0
    for block in [OPENING] + CLOSING:
        pool = TxPool()
        for kind, payload, submitter in block:
            tx_id += 1
            submit_tx(pool, Transaction(tx_id, kind, payload, submitter), chain)
        produce_block(chain, pool, PEERS)
    return export_chain(chain.blocks).splitlines(keepends=True)


EXPORT = committed_export()
NUMBER = re.compile(r"(?<=[:,\[])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?=[,\]}])")


def flip_bit(line: str, data) -> str:
    raw = bytearray(line.encode("utf-8"))
    raw[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    return raw.decode("utf-8", "surrogateescape")


def respell_number(line: str, data) -> str:
    match = data.draw(st.sampled_from(list(NUMBER.finditer(line))))
    spelled = data.draw(st.sampled_from(("1e400", "-1e999", "NaN", "Infinity")))
    return line[:match.start()] + spelled + line[match.end():]


def wrap_payload_value(line: str, data) -> str:
    """Wrap one payload value in up to 2000 lists, written without recursion."""
    block = json.loads(line)
    payload = data.draw(st.sampled_from(block["txs"]))["payload"]
    key = data.draw(st.sampled_from(sorted(payload)))
    value, payload[key] = payload[key], "\x00marker"
    lists = data.draw(st.integers(1, 2000))
    wrapped = "[" * lists + json.dumps(value) + "]" * lists
    text = json.dumps(block, separators=(",", ":"))
    return text.replace('"\\u0000marker"', wrapped) + "\n"


def truncate(line: str, data) -> str:
    return line[:data.draw(st.integers(0, len(line) - 2))] + "\n"


@given(st.integers(0, len(EXPORT) - 1),
       st.sampled_from((flip_bit, respell_number, wrap_payload_value, truncate)),
       st.data())
@settings(max_examples=200, deadline=None)
def test_verify_is_total_on_one_mutated_line(index, mutate, data):
    lines = list(EXPORT)
    lines[index] = mutate(lines[index], data)
    result = verify_export("".join(lines), genesis(), PEERS)
    assert isinstance(result, VerifyResult)
