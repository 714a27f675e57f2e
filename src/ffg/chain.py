"""Block tree and the derived checkpoint tree.

Blocks form a tree rooted at a fixed genesis block whose id is 32 zero bytes.
Every block whose height is a multiple of the configured spacing E is a
checkpoint; the checkpoint height of the block at height k*E is k.  The tree
answers ancestry, height, and conflict queries, and folds per-block values
down a chain into a caller's memo (`BlockTree.fold`); blocks are immutable
after insertion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Union

from . import codec
from .errors import (DigestMismatch, DuplicateId, NonMonotonicTimestamp,
                     NotACheckpoint, NotAncestor, UnknownBlock, UnknownParent)

GENESIS_ID = b"\x00" * 32


@dataclass(frozen=True, slots=True)
class VoteData:
    """The single vote message: validator, source/target checkpoints, heights.

    The signature is a keyed digest over the canonical encoding of
    (source, target, source_height, target_height) under the validator's
    secret; see `votes.Keyring`.

    `key` is the vote's identity minus the pubkey and signature, used for
    deduplication.  It is computed once at construction (`dataclasses.replace`
    builds a new vote and so a new key) and takes no part in equality,
    hashing, `repr` or the encoding.
    """
    validator_index: int
    validator_pubkey: bytes
    source: bytes
    target: bytes
    source_height: int
    target_height: int
    signature: bytes
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (
            self.validator_index, self.source, self.target,
            self.source_height, self.target_height))

    def encode(self) -> bytes:
        return codec.encode_vote(self.validator_index, self.validator_pubkey,
                                 self.source, self.target, self.source_height,
                                 self.target_height, self.signature)


@dataclass(frozen=True, slots=True)
class VoteInclusion:
    vote: VoteData

    def encode(self) -> bytes:
        return b"\x01" + codec.blob(self.vote.encode())


@dataclass(frozen=True, slots=True)
class SlashEvidence:
    """Two votes by the same validator exhibiting a slashing violation."""
    first: VoteData
    second: VoteData

    def encode(self) -> bytes:
        return b"\x02" + codec.blob(self.first.encode()) + codec.blob(self.second.encode())


@dataclass(frozen=True, slots=True)
class Deposit:
    validator_index: int
    validator_pubkey: bytes
    amount: int

    def encode(self) -> bytes:
        return (b"\x03" + codec.u64(self.validator_index)
                + self.validator_pubkey + codec.u64(self.amount))


@dataclass(frozen=True, slots=True)
class Withdraw:
    validator_index: int
    validator_pubkey: bytes

    def encode(self) -> bytes:
        return b"\x04" + codec.u64(self.validator_index) + self.validator_pubkey


Transaction = Union[VoteInclusion, SlashEvidence, Deposit, Withdraw]


@dataclass(frozen=True, slots=True)
class Block:
    id: bytes
    parent: bytes | None          # None only for the genesis block
    height: int
    timestamp: int
    proposer: int | None          # validator index, None for the external engine
    payload: tuple[Transaction, ...]


def encode_block_body(parent: bytes, height: int, timestamp: int,
                      proposer: int | None, payload: tuple[Transaction, ...]) -> bytes:
    prop = codec.EXTERNAL_PROPOSER if proposer is None else proposer
    header = parent + codec.BLOCK_HEADER.pack(height, timestamp, prop, len(payload))
    if not payload:
        return header
    return header + b"".join([codec.blob(tx.encode()) for tx in payload])


def block_id(parent: bytes, height: int, timestamp: int, proposer: int | None,
             payload: tuple[Transaction, ...]) -> bytes:
    return codec.digest(encode_block_body(parent, height, timestamp, proposer, payload))


def make_block(parent_block: Block, timestamp: int, proposer: int | None,
               payload: tuple[Transaction, ...] = ()) -> Block:
    """Build a child of `parent_block` with the canonical digest id."""
    height = parent_block.height + 1
    bid = block_id(parent_block.id, height, timestamp, proposer, payload)
    return Block(bid, parent_block.id, height, timestamp, proposer, payload)


class BlockTree:
    """Connected, acyclic block store with parent links and a leaf index.

    Single writer; all queries are pure.  E is the checkpoint spacing.
    Timestamps strictly increase along every chain (`insert_block` rejects
    anything else), so a chain's tip carries its latest stamp.

    Blocks enter one of two ways, each hashed once:

    * `extend` builds the canonical child of a known block (`make_block`,
      one digest) and inserts it.  Construction fixes the height and the
      digest, so it checks only what it leaves open: the parent is known,
      the stamp is after the parent's, and the id is new;
    * `insert_block` takes a block built elsewhere and checks all of it: the
      id is new, the parent is known, the height is the parent's plus one,
      the stamp is after the parent's and the id is the digest.

    `trusted` is another tree.  A block object that tree holds passed its
    checks there against the same parent id: blocks are frozen and the
    trusted tree keeps the object alive, so identity means its digest,
    height and stamp still hold.  Trust covers those three and nothing
    else: `insert_block` still checks such an object for a duplicate id and
    a known parent in this tree.  Any other object, even one with a known
    id, is checked and hashed in full.
    """

    def __init__(self, spacing: int, trusted: BlockTree | None = None):
        self.spacing = spacing
        self.trusted = trusted
        root = Block(GENESIS_ID, None, 0, 0, None, ())
        self.root = GENESIS_ID
        self.blocks: dict[bytes, Block] = {GENESIS_ID: root}
        # childless blocks in insertion order (the dict is used as an ordered set)
        self._leaves: dict[bytes, None] = {GENESIS_ID: None}

    def __contains__(self, bid: bytes) -> bool:
        return bid in self.blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def get(self, bid: bytes) -> Block:
        try:
            return self.blocks[bid]
        except KeyError:
            raise UnknownBlock(bid.hex()) from None

    def extend(self, parent_id: bytes, timestamp: int, proposer: int | None,
               payload: tuple[Transaction, ...] = ()) -> Block:
        """Build the canonical child of `parent_id`, insert it and return it.

        Raises UnknownBlock for an unknown parent, NonMonotonicTimestamp for
        a stamp not after the parent's and DuplicateId for a child already
        in the tree."""
        parent = self.get(parent_id)
        if timestamp <= parent.timestamp:
            raise NonMonotonicTimestamp(
                f"timestamp {timestamp} not after parent {parent.timestamp}")
        block = make_block(parent, timestamp, proposer, payload)
        if block.id in self.blocks:
            raise DuplicateId(block.id.hex())
        self._add(block)
        return block

    def insert_block(self, block: Block) -> None:
        blocks = self.blocks
        if block.id in blocks:
            raise DuplicateId(block.id.hex())
        if block.parent is None or block.parent not in blocks:
            raise UnknownParent(block.id.hex())
        if self.trusted is None or self.trusted.blocks.get(block.id) is not block:
            parent = blocks[block.parent]
            if block.height != parent.height + 1:
                raise DigestMismatch("height must be parent height + 1")
            if block.timestamp <= parent.timestamp:
                raise NonMonotonicTimestamp(
                    f"timestamp {block.timestamp} not after parent {parent.timestamp}")
            expect = block_id(block.parent, block.height, block.timestamp,
                              block.proposer, block.payload)
            if expect != block.id:
                raise DigestMismatch(block.id.hex())
        self._add(block)

    def _add(self, block: Block) -> None:
        self.blocks[block.id] = block
        self._leaves.pop(block.parent, None)
        self._leaves[block.id] = None

    # -- checkpoint queries ---------------------------------------------------

    def checkpoint_height(self, bid: bytes) -> int | None:
        """k for a block at height k*E, else None ("not a checkpoint")."""
        height = self.get(bid).height
        if height % self.spacing:
            return None
        return height // self.spacing

    def require_checkpoint(self, bid: bytes) -> int:
        cp = self.checkpoint_height(bid)
        if cp is None:
            raise NotACheckpoint(bid.hex())
        return cp

    # -- ancestry -------------------------------------------------------------

    def is_ancestor(self, a: bytes, b: bytes) -> bool:
        """True iff `a` lies on the parent path from `b` to the root (a == b counts)."""
        target = self.get(a)
        cursor = self.get(b)
        while cursor.height > target.height:
            cursor = self.blocks[cursor.parent]
        return cursor.id == a

    def ancestor_at(self, bid: bytes, height: int) -> bytes:
        cursor = self.get(bid)
        if height > cursor.height:
            raise NotAncestor(f"no ancestor of {bid.hex()} at height {height}")
        while cursor.height > height:
            cursor = self.blocks[cursor.parent]
        return cursor.id

    def latest_checkpoint(self, bid: bytes) -> bytes:
        """Nearest checkpoint on the path from `bid` to the root (self included)."""
        h = self.get(bid).height
        return self.ancestor_at(bid, h - h % self.spacing)

    def conflicting(self, a: bytes, b: bytes) -> bool:
        """True iff the checkpoints sit on distinct branches."""
        self.require_checkpoint(a)
        self.require_checkpoint(b)
        return not (self.is_ancestor(a, b) or self.is_ancestor(b, a))

    def fold(self, bid: bytes, memo: dict, step: Callable, *args):
        """`memo[bid]`, after filling each ancestor of `bid` (itself
        included) missing from `memo`, root side first, with
        `step(parent's value, block, *args)`.  The root's value must be in
        `memo`.  Raises UnknownBlock for an unknown `bid`."""
        blocks = self.blocks
        missing = []
        cursor = bid
        while cursor not in memo:
            block = blocks.get(cursor)
            if block is None:
                raise UnknownBlock(cursor.hex())
            missing.append(block)
            cursor = block.parent
        value = memo[cursor]
        for block in reversed(missing):
            value = memo[block.id] = step(value, block, *args)
        return value

    def path(self, bid: bytes) -> list[bytes]:
        """All blocks from the root to `bid` inclusive."""
        out = []
        cursor = self.get(bid)
        while True:
            out.append(cursor.id)
            if cursor.parent is None:
                break
            cursor = self.blocks[cursor.parent]
        out.reverse()
        return out

    def leaves(self) -> list[bytes]:
        """Childless blocks in insertion order."""
        return list(self._leaves)

    def iter_blocks(self) -> Iterator[Block]:
        return iter(self.blocks.values())
