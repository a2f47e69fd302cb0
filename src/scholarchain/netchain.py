"""Lite permissioned chain: execute once, validate by replay.

There is no timing model and no fork handling: one call to
`produce_block` turns the pending pool into one candidate block.  The
proposer executes the pending transactions once, in place on the tip
state.  Peers run the same deterministic code, so every honest peer would
compute the proposer's digest and approves; peers named faulty never
approve.  The block commits only with a two-thirds-plus-one quorum of
approvals, which is known before anything executes.  The independent
check is `verify_chain`, which re-executes every block from genesis with
the same loop.  Transactions that fail protocol rules are kept in the
block flagged as rejected and change nothing, because every operation
validates before it mutates.  A program fault before a block is appended
rebuilds the tip by that same replay, checked against the last block's
digest, so the tip never holds half a block.

Blocks are hash-linked over their full content (header *and* transaction
records), so any single-byte mutation of a committed block is caught by
`verify_chain` replaying from genesis.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import ChainError, ProtocolError
from .ledger import MINT
from .lifecycle import ContentMetadata, ProtocolState, canonical_json, compact_encoder
from .market import quote

GENESIS_PREV_HASH = "0" * 64

APPLIED = "applied"
REJECTED = "rejected"

#: The submitter of every trusted-platform operation.
PLATFORM = "platform"


class TxKind(str, Enum):
    """Every state-changing operation a transaction can carry.

    `CREDIT`, `CONCLUDE_REVIEW` and `RESOLVE_DISPUTE` are platform
    operations; the rest are a user's own acts.  Escrow has no kind of its
    own: review and dispute operations take and release it internally.
    """

    CREDIT = "CREDIT"
    SUBMIT_ARTICLE = "SUBMIT_ARTICLE"
    COMMENT = "COMMENT"
    START_REVIEW = "START_REVIEW"
    TRADE = "TRADE"
    CONCLUDE_REVIEW = "CONCLUDE_REVIEW"
    RAISE_OBJECTION = "RAISE_OBJECTION"
    RESOLVE_DISPUTE = "RESOLVE_DISPUTE"
    CLAIM_ARTICLE = "CLAIM_ARTICLE"


class Transaction(NamedTuple):
    """One submitted operation, as the pool and the block records hold it."""

    tx_id: int
    kind: TxKind
    payload: dict
    submitter: str


class TxRecord(NamedTuple):
    """A transaction as committed: applied, or rejected with the reason."""

    tx: Transaction
    status: str
    error: str = ""


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: str
    txs: tuple[TxRecord, ...]
    state_hash: str
    approvals: tuple[str, ...]
    block_hash: str


@dataclass(frozen=True)
class PeerSet:
    """Trusted peers; quorum is the BFT-style floor(2n/3) + 1."""

    peers: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "peers", tuple(self.peers))
        if not self.peers:
            raise ChainError("peer set cannot be empty")
        if not all(isinstance(p, str) and p for p in self.peers):
            raise ChainError("peer ids must be non-empty strings")
        if len(set(self.peers)) != len(self.peers):
            raise ChainError("duplicate peer ids")

    @property
    def quorum(self) -> int:
        return (2 * len(self.peers)) // 3 + 1


def state_hash(state: ProtocolState) -> str:
    """SHA-256 of the state's canonical JSON.  Only the entities written since
    the last digest write their fragments again, and a market only its
    holdings traded since (`ProtocolState.to_canonical_json`)."""
    return hashlib.sha256(state.to_canonical_json().encode("utf-8")).hexdigest()


def _seal(block: Block) -> str:
    """SHA-256 of the block's canonical JSON without its own hash.

    That form is written directly: keys in the order `sort_keys` writes
    them, strings through `quote` (a kind is a `str`), integers through
    `repr` and each payload through the reused `canonical_json` encoder.
    The gate and import admit only those types, and the tests keep
    `json.dumps` of the block's fields as the oracle.
    """
    records = ",".join(
        f'{{"error":{quote(error)},"kind":{quote(tx.kind)},'
        f'"payload":{canonical_json(tx.payload)},"signature":"",'
        f'"status":{quote(status)},"submitter":{quote(tx.submitter)},'
        f'"tx_id":{tx.tx_id!r}}}'
        for tx, status, error in block.txs)
    content = (f'{{"approvals":[{",".join(map(quote, block.approvals))}],'
               f'"height":{block.height!r},"prevHash":{quote(block.prev_hash)},'
               f'"stateHash":{quote(block.state_hash)},"txs":[{records}]}}')
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Transaction application
# ---------------------------------------------------------------------------

_Field = namedtuple("_Field", "name type default", defaults=[None])  # None: required
_JSON_TYPES = {"a string": str, "an integer": int, "a number": (int, float),
               "a list": (list, tuple), "an object": dict}
_ARTICLE, _VOTES = _Field("article", "a string"), _Field("votes", "an object")
#: kind -> (platform_only, fields, handler).  Only `PLATFORM` may submit a
#: platform operation; any other kind is a user's own act, and the actor it
#: names (payload "user", default the submitter) must be the submitter.  Each
#: field has a name, a JSON type (never a bool; a number becomes a float) and,
#: if optional, a default.  Undeclared keys are ignored, like calldata past a
#: contract call's arguments.  A handler takes (state, fields, submitter).
_RULES: dict[TxKind, tuple[bool, tuple[_Field, ...], Callable]] = {
    TxKind.CREDIT: (True, (
        _Field("user", "a string"), _Field("amount", "an integer"),
        _Field("source", "a string", MINT)),
        lambda s, f, who: s.ledger.credit(f["user"], f["amount"], f["source"])),
    TxKind.SUBMIT_ARTICLE: (False, (
        _Field("title", "a string"), _Field("abstract", "a string", ""),
        _Field("authors", "a list"), _Field("institutions", "a list", ())),
        lambda s, f, who: s.submit_article(ContentMetadata(**f), who)),
    TxKind.COMMENT: (False, (_ARTICLE, _Field("text_hash", "a string")),
        lambda s, f, who: s.comment(f["article"], who, f["text_hash"])),
    TxKind.START_REVIEW: (False, (
        _ARTICLE, _Field("deposit", "an integer"), _Field("panel", "a list")),
        lambda s, f, who: s.start_review(f["article"], who, f["deposit"], f["panel"])),
    TxKind.TRADE: (False, (
        _ARTICLE, _Field("outcome", "a string"), _Field("shares", "a number")),
        lambda s, f, who: s.trade_review_shares(
            f["article"], who, f["outcome"], f["shares"])),
    TxKind.CONCLUDE_REVIEW: (True, (_ARTICLE, _VOTES),
        lambda s, f, who: s.conclude_review(f["article"], f["votes"])),
    TxKind.RAISE_OBJECTION: (False, (_ARTICLE, _Field("stake", "an integer")),
        lambda s, f, who: s.raise_objection(f["article"], who, f["stake"])),
    TxKind.RESOLVE_DISPUTE: (True, (_Field("dispute", "a string"), _VOTES),
        lambda s, f, who: s.resolve_dispute(f["dispute"], f["votes"])),
    TxKind.CLAIM_ARTICLE: (False, (_ARTICLE, _Field("doi", "a string", "")),
        lambda s, f, who: s.claim_published_article(f["article"], f["doi"], who)),
}


def apply_tx(state: ProtocolState, tx: Transaction) -> None:
    """Execute one transaction against the state; raises on any violation.

    Operations validate before mutating, so a raise leaves `state` intact.
    """
    platform_only, fields, handler = _RULES[tx.kind]
    p, who = tx.payload, tx.submitter
    if platform_only and who != PLATFORM:
        raise ChainError(f"{who!r} cannot submit platform operation {tx.kind.value}")
    if not platform_only and p.get("user", who) != who:
        raise ChainError(f"{who!r} cannot act for {p['user']!r} in {tx.kind.value}")
    checked = {}
    try:
        for name, json_type, default in fields:
            value = p.get(name, default)
            ok = not isinstance(value, bool) and isinstance(value, _JSON_TYPES[json_type])
            try:  # a number must also fit a double
                checked[name] = float(value) if ok and json_type == "a number" else value
            except OverflowError:
                ok = False
            if not ok:
                raise ChainError(f"bad payload for {tx.kind.value}: "
                                 f"field {name!r} must be {json_type}")
        handler(state, checked, who)
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ChainError(f"bad payload for {tx.kind.value}: {exc}") from exc


def _execute(state: ProtocolState, txs: Iterable[Transaction]) -> list[TxRecord]:
    """Apply transactions in place, in order; a rule violation rejects only its own."""
    records = []
    for tx in txs:
        try:
            apply_tx(state, tx)
            records.append(TxRecord(tx, APPLIED))
        except ProtocolError as exc:
            records.append(TxRecord(tx, REJECTED, str(exc)))
    return records


# ---------------------------------------------------------------------------
# Pool and chain
# ---------------------------------------------------------------------------

class TxPool:
    """FIFO pending pool with strictly increasing transaction ids."""

    def __init__(self):
        self.pending: list[Transaction] = []

    def __len__(self) -> int:
        return len(self.pending)


_MAX_DEPTH = 16  # containers in a payload, itself included; an author pair is 3 deep
_PLAIN = frozenset((str, bool, type(None)))  # values with nothing to check
_INT_BOUND = 10**640  # at most 640 digits, the lowest int<->str limit CPython allows


def _check_shape(container, depth: int) -> None:
    """Raise ChainError unless the payload holds only JSON values with string
    keys, integers of at most 640 digits and finite floats, nested at most
    `_MAX_DEPTH` deep, so that every interpreter can write and read it back."""
    if depth > _MAX_DEPTH:
        raise ChainError(f"payload nests more than {_MAX_DEPTH} containers")
    if isinstance(container, dict):
        for key in container:
            if not isinstance(key, str):
                raise ChainError("payload is not encodable as JSON: a key is not a string")
        container = container.values()
    for item in container:
        if type(item) in _PLAIN or type(item) is int and -_INT_BOUND < item < _INT_BOUND:
            continue
        if isinstance(item, (dict, list, tuple)):
            _check_shape(item, depth + 1)
        elif isinstance(item, float) and not math.isfinite(item):
            raise ChainError(f"payload is not encodable as JSON: {item} is not finite")
        elif isinstance(item, int) and not -_INT_BOUND < item < _INT_BOUND:
            raise ChainError("payload is not encodable as JSON: integer over 640 digits")
        elif not isinstance(item, (str, int, float)):
            raise ChainError(f"payload is not encodable as JSON: type {type(item).__name__}")


def _check_tx_form(tx: Transaction) -> None:
    """Raise ChainError unless a submitted or imported transaction is admissible.

    JSON turns a non-string key into a string and has no non-finite number,
    so either would make the export replay differently from what executed.
    """
    if not isinstance(tx.kind, TxKind):
        raise ChainError(f"unknown transaction kind {tx.kind!r}")
    if not isinstance(tx.payload, dict):
        raise ChainError("payload must be a mapping")
    if not isinstance(tx.submitter, str) or not tx.submitter:
        raise ChainError("submitter must be a nonempty user id")
    if type(tx.tx_id) is not int or not 0 <= tx.tx_id < _INT_BOUND:
        raise ChainError("tx id must be a non-negative integer of at most 640 digits")
    _check_shape(tx.payload, 1)


def submit_tx(pool: TxPool, tx: Transaction, chain: "Chain") -> TxPool:
    """Admit a transaction through the gate and append it to the pool; its id
    must exceed every id pending in the pool or committed on `chain`."""
    _check_tx_form(tx)
    last = max(pool.pending[-1].tx_id if pool.pending else -1, chain.last_tx_id)
    if tx.tx_id <= last:
        raise ChainError(f"tx id {tx.tx_id} is not strictly increasing (last {last})")
    pool.pending.append(tx)
    return pool


class Chain:
    """Committed blocks plus the replayable tip state."""

    def __init__(self, genesis: ProtocolState):
        self.genesis = genesis.clone()
        self.tip = genesis.clone()
        self.blocks: list[Block] = []

    @property
    def height(self) -> int:
        return len(self.blocks)

    @property
    def last_tx_id(self) -> int:
        """The largest committed tx id, or -1: ids increase and no block is empty."""
        return self.blocks[-1].txs[-1].tx.tx_id if self.blocks else -1


class BlockResult(NamedTuple):
    committed: bool
    block: Optional[Block]
    approvals: tuple[str, ...]


def produce_block(
    chain: Chain,
    pool: TxPool,
    peer_set: PeerSet,
    faulty_peers: Iterable[str] = (),
) -> BlockResult:
    """Execute the pool once against the tip and commit on quorum.

    Honest peers are deterministic and approve; simulated faulty peers
    never do.  On quorum failure nothing is executed and the pool is kept.
    A program fault before the block is appended is re-raised with the pool
    and blocks kept, after the tip is rebuilt by replaying the committed
    blocks.  A replay that raises or misses the last block's digest leaves
    the tip as the fault left it.  An interrupt is not recovered.
    """
    if not pool.pending:
        raise ChainError("pending pool is empty")
    first, last = pool.pending[0].tx_id, chain.last_tx_id
    if first <= last:
        raise ChainError(f"tx id {first} is not strictly increasing (last {last})")
    faulty = set(faulty_peers)
    approvals = tuple(sorted(p for p in peer_set.peers if p not in faulty))
    if len(approvals) < peer_set.quorum:
        return BlockResult(False, None, approvals)

    prev_hash = chain.blocks[-1].block_hash if chain.blocks else GENESIS_PREV_HASH
    try:
        records = _execute(chain.tip, pool.pending)
        block = Block(chain.height, prev_hash, tuple(records), state_hash(chain.tip),
                      approvals, block_hash="")
        block = replace(block, block_hash=_seal(block))
        chain.blocks.append(block)
    except Exception:
        # The tip may hold part of the block: rebuild it from the committed blocks.
        _rebuild_tip(chain)
        raise
    pool.pending = []
    return BlockResult(True, block, approvals)


def _rebuild_tip(chain: Chain) -> None:
    """Replay the committed blocks into a new tip, kept only if it matches their digest."""
    state = chain.genesis.clone()
    for committed in chain.blocks:
        _execute(state, [r.tx for r in committed.txs])
    expected = chain.blocks[-1].state_hash if chain.blocks else state_hash(chain.genesis)
    if state_hash(state) != expected:
        raise ChainError("cannot rebuild the tip: replay does not match the last block")
    chain.tip = state


class VerifyResult(NamedTuple):
    ok: bool
    first_bad_height: Optional[int]
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_chain(
    blocks: Sequence[Block],
    genesis: ProtocolState,
    peer_set: PeerSet,
) -> VerifyResult:
    """Replay all blocks from genesis and check every link and digest.

    Valid iff heights are consecutive, each prev_hash matches the previous
    block's content digest, every block's own digest seals its content,
    distinct approvals form a quorum of known peers, tx ids increase
    strictly across the chain, recorded tx statuses and rejection reasons
    match re-execution, and each recorded state hash equals the replayed one.
    """
    state = genesis.clone()
    prev_hash = GENESIS_PREV_HASH
    last_tx_id = -1
    for expected_height, block in enumerate(blocks):
        def bad(reason: str) -> VerifyResult:
            return VerifyResult(False, block.height, reason)

        if block.height != expected_height:
            return VerifyResult(False, expected_height, "height out of sequence")
        if block.prev_hash != prev_hash:
            return bad("broken prev-hash link")
        if _seal(block) != block.block_hash:
            return bad("block content does not match its digest")
        if len(set(block.approvals)) < peer_set.quorum:
            return bad("distinct approvals below quorum")
        if not set(block.approvals) <= set(peer_set.peers):
            return bad("approval from unknown peer")
        for record in block.txs:
            if record.tx.tx_id <= last_tx_id:
                return bad(f"tx id {record.tx.tx_id} is not strictly increasing")
            last_tx_id = record.tx.tx_id
        replayed = _execute(state, [r.tx for r in block.txs])
        for record, again in zip(block.txs, replayed):
            if again.status != record.status:
                return bad(f"tx {record.tx.tx_id} status diverges on replay")
            if again.error != record.error:
                return bad(f"tx {record.tx.tx_id} reason diverges on replay")
        if state_hash(state) != block.state_hash:
            return bad("replayed state hash mismatch")
        prev_hash = block.block_hash
    return VerifyResult(True, None)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

_TX_WIRE_KEYS = ["tx_id", "kind", "payload", "submitter", "signature",
                 "status", "error"]
_BLOCK_WIRE_KEYS = ["height", "prevHash", "txs", "stateHash", "approvals",
                    "blockHash"]

# A payload as `json.dumps(payload, separators=(",", ":"))` writes it: its own
# key order, and `json.dumps`'s other defaults.
_wire_json = compact_encoder(sort_keys=False, allow_nan=True)


def export_chain(blocks: Sequence[Block]) -> str:
    """One block per line: its fields in wire order (`_BLOCK_WIRE_KEYS`, and
    `_TX_WIRE_KEYS` in each record) with compact separators.

    Each line is what `json.dumps` writes for that object, written directly
    as `_seal` writes the sealed form: strings through `quote`, integers
    through `repr` and each payload through `_wire_json`.
    """
    lines = []
    for b in blocks:
        records = ",".join(
            f'{{"tx_id":{tx.tx_id!r},"kind":{quote(tx.kind)},'
            f'"payload":{_wire_json(tx.payload)},"submitter":{quote(tx.submitter)},'
            f'"signature":"","status":{quote(status)},'
            f'"error":{quote(error)}}}'
            for tx, status, error in b.txs)
        lines.append(
            f'{{"height":{b.height!r},"prevHash":{quote(b.prev_hash)},"txs":[{records}],'
            f'"stateHash":{quote(b.state_hash)},'
            f'"approvals":[{",".join(map(quote, b.approvals))}],'
            f'"blockHash":{quote(b.block_hash)}}}\n')
    return "".join(lines)


def _tx_record_from_obj(obj: dict) -> TxRecord:
    if not isinstance(obj, dict) or list(obj) != _TX_WIRE_KEYS:
        raise ChainError(f"tx record keys must be exactly {_TX_WIRE_KEYS}")
    if obj["status"] not in (APPLIED, REJECTED):
        raise ChainError(f"unknown tx status {obj['status']!r}")
    if not isinstance(obj["error"], str):
        raise ChainError("tx error must be a string")
    if obj["signature"] != "":  # authorization is by submitter identity
        raise ChainError("tx signature must be empty")
    tx = Transaction(
        tx_id=obj["tx_id"],
        kind=TxKind(obj["kind"]),
        payload=obj["payload"],
        submitter=obj["submitter"],
    )
    _check_tx_form(tx)
    return TxRecord(tx, obj["status"], obj["error"])


def import_chain(text: str) -> list[Block]:
    """Parse an exported chain; malformed lines raise ChainError.

    The format is strictly newline-delimited (no other separator byte is a
    block boundary), so corrupted separators surface as parse errors.
    """
    blocks = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line == "":
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict) or list(obj) != _BLOCK_WIRE_KEYS:
                raise ChainError(f"block keys must be exactly {_BLOCK_WIRE_KEYS}")
            approvals = obj["approvals"]
            if not isinstance(approvals, list) or not all(
                isinstance(a, str) for a in approvals
            ):
                raise ChainError("approvals must be a list of peer ids")
            if type(obj["height"]) is not int:
                raise ChainError("block height must be an integer")
            hashes = (obj["prevHash"], obj["stateHash"], obj["blockHash"])
            if not all(isinstance(h, str) for h in hashes):
                raise ChainError("block hashes must be strings")
            block = Block(
                height=obj["height"],
                prev_hash=obj["prevHash"],
                txs=tuple(_tx_record_from_obj(t) for t in obj["txs"]),
                state_hash=obj["stateHash"],
                approvals=tuple(approvals),
                block_hash=obj["blockHash"],
            )
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ChainError(f"line {lineno}: malformed block: {exc}") from exc
        blocks.append(block)
    return blocks


def verify_export(
    text: str, genesis: ProtocolState, peer_set: PeerSet
) -> VerifyResult:
    """Verify a serialized chain; parse failures count as verification failures."""
    try:
        blocks = import_chain(text)
    except ChainError as exc:
        return VerifyResult(False, None, str(exc))
    return verify_chain(blocks, genesis, peer_set)
