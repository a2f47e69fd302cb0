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
`verify_chain` replaying from genesis.  `verify_export` parses each line of
an export only when that replay reaches it, so it holds one block at a time.
"""

from __future__ import annotations

import hashlib
import json
import math
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import ChainError, ProtocolError
from .ledger import MINT
from .fields import Field, FieldError, _json_carries, check_fields
from .lifecycle import ContentMetadata, PeerSet, ProtocolState, canonical_json, compact_encoder
from .market import quote

GENESIS_PREV_HASH = "0" * 64
#: `tuple.__new__(cls, values)` builds a named tuple without the Python frame
#: of its generated `__new__`: the replay and import build theirs this way.
_new_tuple = tuple.__new__

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


class Block(NamedTuple):
    height: int
    prev_hash: str
    txs: tuple[TxRecord, ...]
    state_hash: str
    approvals: tuple[str, ...]
    block_hash: str


def state_hash(state: ProtocolState) -> str:
    """SHA-256 of the state's canonical JSON, fed one piece at a time: the
    fixed text, the scalars and each section's kept text, in the order
    `sort_keys` writes them (`ProtocolState.canonical_pieces`).  Only the
    entities written since the last digest write their fragments again, and
    a market only its holdings traded since.  Every piece is ASCII, since
    the writers escape all else."""
    digest = hashlib.sha256()
    for piece in state.canonical_pieces():
        digest.update(piece.encode())
    return digest.hexdigest()


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

_ARTICLE, _VOTES = Field("article", "a string"), Field("votes", "an object")
#: kind -> (platform_only, fields, handler).  Only `PLATFORM` may submit a
#: platform operation; any other kind is a user's own act, and the actor it
#: names (payload "user", default the submitter) must be the submitter.  Each
#: payload field is declared (`fields.Field`); a handler takes a number as a
#: float.  Undeclared keys are ignored, like calldata past a contract call's
#: arguments.  A handler takes (state, fields, submitter).
_RULES: dict[TxKind, tuple[bool, tuple[Field, ...], Callable]] = {
    TxKind.CREDIT: (True, (
        Field("user", "a string"), Field("amount", "an integer"),
        Field("source", "a string", MINT)),
        lambda s, f, who: s.ledger.credit(f["user"], f["amount"], f["source"])),
    TxKind.SUBMIT_ARTICLE: (False, (
        Field("title", "a string"), Field("abstract", "a string", ""),
        Field("authors", "a list"), Field("institutions", "a list", ())),
        lambda s, f, who: s.submit_article(ContentMetadata(**f), who)),
    TxKind.COMMENT: (False, (_ARTICLE, Field("text_hash", "a string")),
        lambda s, f, who: s.comment(f["article"], who, f["text_hash"])),
    TxKind.START_REVIEW: (False, (
        _ARTICLE, Field("deposit", "an integer"), Field("panel", "a list")),
        lambda s, f, who: s.start_review(f["article"], who, f["deposit"], f["panel"])),
    TxKind.TRADE: (False, (
        _ARTICLE, Field("outcome", "a string"), Field("shares", "a number")),
        lambda s, f, who: s.trade_review_shares(
            f["article"], who, f["outcome"], float(f["shares"]))),
    TxKind.CONCLUDE_REVIEW: (True, (_ARTICLE, _VOTES),
        lambda s, f, who: s.conclude_review(f["article"], f["votes"])),
    TxKind.RAISE_OBJECTION: (False, (_ARTICLE, Field("stake", "an integer")),
        lambda s, f, who: s.raise_objection(f["article"], who, f["stake"])),
    TxKind.RESOLVE_DISPUTE: (True, (Field("dispute", "a string"), _VOTES),
        lambda s, f, who: s.resolve_dispute(f["dispute"], f["votes"])),
    TxKind.CLAIM_ARTICLE: (False, (_ARTICLE, Field("doi", "a string", "")),
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
    try:
        handler(state, check_fields(p, fields), who)
    except FieldError as exc:
        raise ChainError(f"bad payload for {tx.kind.value}: "
                         f"field {exc.path!r} must be {exc.expected}") from None
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ChainError(f"bad payload for {tx.kind.value}: {exc}") from exc


def _execute(state: ProtocolState, txs: Iterable[Transaction]) -> list[TxRecord]:
    """Apply transactions in place, in order; a rule violation rejects only its own."""
    records = []
    for tx in txs:
        try:
            apply_tx(state, tx)
            records.append(_new_tuple(TxRecord, (tx, APPLIED, "")))
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
_INT_BOUND = 10**640  # at most 640 digits, the lowest int<->str limit CPython allows


_PAIRED = "payload is not encodable as JSON: a string holds a surrogate pair"


def _check_shape(container, depth: int):
    """The payload's copy, each dict and list built anew and then checked, so
    that a later change to the caller's payload reaches no block; ChainError
    unless it holds only JSON values of exactly JSON's types: dict and list
    containers with str keys, and str, int, float, bool and None leaves,
    strings that JSON reads back, integers of at most 640 digits and finite
    floats, nested at most `_MAX_DEPTH` deep, so that every interpreter can
    write and read it back.  A tuple, or a subclass such as an enum, is
    refused: the export reads it back as a list or as its base type."""
    if depth > _MAX_DEPTH:
        raise ChainError(f"payload nests more than {_MAX_DEPTH} containers")
    copied = container.copy()
    if type(copied) is dict:
        for key in copied:
            if type(key) is not str:
                raise ChainError("payload is not encodable as JSON: " + (
                    f"a key of type {type(key).__name__}" if isinstance(key, str)
                    else "a key is not a string"))
            if not key.isascii() and not _json_carries(key):
                raise ChainError(_PAIRED)
        items = copied.items()
    else:
        items = enumerate(copied)
    for at, item in items:
        kind = type(item)
        if kind is str:
            if not item.isascii() and not _json_carries(item):
                raise ChainError(_PAIRED)
        elif kind is int:
            if not -_INT_BOUND < item < _INT_BOUND:
                raise ChainError("payload is not encodable as JSON: integer over 640 digits")
        elif kind is dict or kind is list:
            copied[at] = _check_shape(item, depth + 1)
        elif kind is float:
            if not math.isfinite(item):
                raise ChainError(f"payload is not encodable as JSON: {item} is not finite")
        elif kind is not bool and item is not None:
            raise ChainError(f"payload is not encodable as JSON: type {kind.__name__}")
    return copied


def _check_tx_form(tx_id, kind, payload, submitter) -> Transaction:
    """The transaction holding the gate's copy of its payload (`_check_shape`),
    or ChainError unless a submitted or imported transaction is admissible.

    JSON turns a non-string key into a string, has no non-finite number and
    reads a surrogate pair back as one character, so any of these would make
    the export replay differently from what executed.
    """
    if not isinstance(kind, TxKind):
        raise ChainError(f"unknown transaction kind {kind!r}")
    if not isinstance(payload, dict):
        raise ChainError("payload must be a mapping")
    if type(payload) is not dict:
        raise ChainError(f"payload is not encodable as JSON: type {type(payload).__name__}")
    if not isinstance(submitter, str) or not submitter:
        raise ChainError("submitter must be a nonempty user id")
    if not submitter.isascii() and not _json_carries(submitter):
        raise ChainError("submitter is not encodable as JSON: it holds a surrogate pair")
    if type(tx_id) is not int or not 0 <= tx_id < _INT_BOUND:
        raise ChainError("tx id must be a non-negative integer of at most 640 digits")
    return _new_tuple(Transaction, (tx_id, kind, _check_shape(payload, 1), submitter))


def submit_tx(pool: TxPool, tx: Transaction, chain: "Chain") -> TxPool:
    """Admit a transaction through the gate and append it to the pool; its id
    must exceed every id pending in the pool or committed on `chain`.  The
    pool holds the gate's copy of the payload, not the caller's."""
    tx = _check_tx_form(*tx)
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
        block = block._replace(block_hash=_seal(block))
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
    blocks: Iterable[Block],
    genesis: ProtocolState,
    peer_set: PeerSet,
) -> VerifyResult:
    """Replay the blocks from genesis, in the order the iterable yields them,
    and check every link and digest; the first fault ends the replay.

    Valid iff heights are consecutive, each prev_hash matches the previous
    block's content digest, every block's own digest seals its content,
    distinct approvals form a quorum of known peers, tx ids increase
    strictly across the chain, recorded tx statuses and rejection reasons
    match re-execution, and each recorded state hash equals the replayed one.
    """
    state = genesis.clone()
    prev_hash = GENESIS_PREV_HASH
    last_tx_id = -1
    peers, quorum = set(peer_set.peers), peer_set.quorum
    for height, block in enumerate(blocks):
        if block.height != height:
            return VerifyResult(False, height, "height out of sequence")
        if block.prev_hash != prev_hash:
            return VerifyResult(False, height, "broken prev-hash link")
        if _seal(block) != block.block_hash:
            return VerifyResult(False, height, "block content does not match its digest")
        approvals = set(block.approvals)
        if len(approvals) < quorum:
            return VerifyResult(False, height, "distinct approvals below quorum")
        if not approvals <= peers:
            return VerifyResult(False, height, "approval from unknown peer")
        for tx, _, _ in block.txs:
            if tx.tx_id <= last_tx_id:
                return VerifyResult(False, height, f"tx id {tx.tx_id} is not strictly increasing")
            last_tx_id = tx.tx_id
        replayed = _execute(state, [r.tx for r in block.txs])
        for (tx, status, error), again in zip(block.txs, replayed):
            if again.status != status:
                return VerifyResult(False, height, f"tx {tx.tx_id} status diverges on replay")
            if again.error != error:
                return VerifyResult(False, height, f"tx {tx.tx_id} reason diverges on replay")
        if state_hash(state) != block.state_hash:
            return VerifyResult(False, height, "replayed state hash mismatch")
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


#: The typed keys of a block line, in the order they are checked, and the
#: reason each gives when it is refused.
_BLOCK_FIELDS = (Field("approvals", "a list of strings"), Field("height", "an integer"),
                 Field("prevHash", "a string"), Field("stateHash", "a string"),
                 Field("blockHash", "a string"))
_BLOCK_REASONS = {"approvals": "approvals must be a list of peer ids",
                  "height": "block height must be an integer",
                  "prevHash": "block hashes must be strings",
                  "stateHash": "block hashes must be strings",
                  "blockHash": "block hashes must be strings"}


#: Each kind by its wire value.  A value it misses goes to `TxKind(value)`,
#: whose ValueError gives the refusal its text.
_KINDS = {kind.value: kind for kind in TxKind}


def _tx_record_from_obj(obj: dict) -> TxRecord:
    if not isinstance(obj, dict) or list(obj) != _TX_WIRE_KEYS:
        raise ChainError(f"tx record keys must be exactly {_TX_WIRE_KEYS}")
    if obj["status"] not in (APPLIED, REJECTED):
        raise ChainError(f"unknown tx status {obj['status']!r}")
    if not isinstance(obj["error"], str):  # by hand: a declared check costs a call per record
        raise ChainError("tx error must be a string")
    if obj["signature"] != "":  # authorization is by submitter identity
        raise ChainError("tx signature must be empty")
    try:
        kind = _KINDS[obj["kind"]]
    except (KeyError, TypeError):  # TypeError: a list or an object is unhashable
        kind = TxKind(obj["kind"])
    tx = _check_tx_form(obj["tx_id"], kind, obj["payload"], obj["submitter"])
    return _new_tuple(TxRecord, (tx, obj["status"], obj["error"]))


def _block_from_line(line: str, lineno: int) -> Block:
    """The block on one line of an export; ChainError if the line is malformed."""
    try:
        obj = json.loads(line)
        if not isinstance(obj, dict) or list(obj) != _BLOCK_WIRE_KEYS:
            raise ChainError(f"block keys must be exactly {_BLOCK_WIRE_KEYS}")
        try:
            check_fields(obj, _BLOCK_FIELDS)
        except FieldError as exc:
            raise ChainError(_BLOCK_REASONS[exc.path]) from None
        return _new_tuple(Block, (
            obj["height"], obj["prevHash"], tuple(map(_tx_record_from_obj, obj["txs"])),
            obj["stateHash"], tuple(obj["approvals"]), obj["blockHash"]))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ChainError(f"line {lineno}: malformed block: {exc}") from exc


class _ExportedBlocks:
    """The blocks of an export, each parsed from its line only when iteration
    reaches it, so a loop over them holds one block at a time.  `len` counts
    the non-empty lines without parsing them."""

    def __init__(self, text: str):
        self.text = text

    def _lines(self):
        """(line number, start, end) of each non-empty line of the text."""
        text, start, lineno = self.text, 0, 1
        while start <= len(text):
            end = text.find("\n", start)
            if end < 0:
                end = len(text)
            if end > start:
                yield lineno, start, end
            start, lineno = end + 1, lineno + 1

    def __len__(self) -> int:
        return sum(1 for _ in self._lines())

    def __iter__(self):
        text = self.text
        for lineno, start, end in self._lines():
            yield _block_from_line(text[start:end], lineno)


def import_chain(text: str) -> _ExportedBlocks:
    """A lazy view of an exported chain's blocks (`_ExportedBlocks`); a
    malformed line raises ChainError when iteration reaches it.  The format
    is strictly newline-delimited (no other separator byte is a block
    boundary), so corrupted separators surface as parse errors."""
    return _ExportedBlocks(text)


def verify_export(
    text: str, genesis: ProtocolState, peer_set: PeerSet
) -> VerifyResult:
    """Verify a serialized chain as it is read: each line is parsed when the
    replay reaches it, so memory holds the replayed state and one block.  A
    malformed line fails verification with no height, unless a block before
    it failed first."""
    try:
        return verify_chain(import_chain(text), genesis, peer_set)
    except ChainError as exc:
        return VerifyResult(False, None, str(exc))
