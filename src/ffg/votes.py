"""Vote construction, keyed-digest signatures, validity classes, and the pool.

Signatures are HMAC-SHA256 digests over the canonical vote core under
per-validator secrets derived from the run seed.  That keeps runs
deterministic; nothing in the safety analysis depends on a particular
signature scheme.

A vote is classified one of three ways:

    COUNTABLE       signature valid, source is an ancestor of the target,
                    heights match the tree, and the validator belongs to the
                    forward or rear set of the target's dynasty.  Only these
                    votes feed supermajority tallies.
    SIGNATURE_ONLY  signature valid but some chain-dependent check failed.
                    Kept forever: slashing violations are judged on the vote's
                    own fields, independent of any chain.
    INVALID         signature failed; dropped.
"""

from __future__ import annotations

import hashlib
import hmac
from enum import Enum

from . import codec
from .chain import BlockTree, VoteData
from .errors import BadSignature


class Keyring:
    """Per-run key material: secrets, public keys, signing, verification.

    `verify` memoizes its verdicts by object identity, for the callers that
    meet one vote object several times: the run's pool, the run's record of
    the vote (`ChainStateCache.record`, which client views and the chains
    that include the vote read instead of verifying), `classify_vote` and
    the end-of-run sweep.  A client view never verifies: it reads the
    verdict from the vote's record, so a vote delivered to every view of a
    run is verified a constant number of times, not once per view.

    `sign_vote` enters each vote object it makes in the same memo, as valid:
    it signed the vote's own fields under the validator's key, so the HMAC
    that `verify` would compute is the one it just computed.  A vote costs
    one HMAC, at signing.  Each entry holds its vote, so the vote's id
    cannot be reused by another object while the entry lives; a value-equal
    copy (one decoded from a report, or made by `dataclasses.replace`) is a
    different object and is judged again, to its own verdict.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._secrets: dict[int, bytes] = {}
        self._pubkeys: dict[int, bytes] = {}
        # id(vote) -> (vote, verdict)
        self._verified: dict[int, tuple[VoteData, bool]] = {}

    def register(self, index: int) -> bytes:
        """Make the validator's keys on first use; returns its public key."""
        if index not in self._secrets:
            secret = hashlib.sha256(b"ffg-secret" + codec.u64(self.seed) +
                                    codec.u64(index)).digest()
            self._secrets[index] = secret
            self._pubkeys[index] = hashlib.sha256(b"ffg-public" + secret).digest()
        return self._pubkeys[index]

    def pubkey(self, index: int) -> bytes:
        return self._pubkeys[index]

    def sign(self, index: int, message: bytes) -> bytes:
        return hmac.new(self._secrets[index], message, hashlib.sha256).digest()

    def verify(self, vote: VoteData) -> bool:
        entry = self._verified.get(id(vote))
        if entry is not None and entry[0] is vote:
            return entry[1]
        if self._pubkeys.get(vote.validator_index) != vote.validator_pubkey:
            return False
        core = codec.encode_vote_core(vote.source, vote.target,
                                      vote.source_height, vote.target_height)
        expect = hmac.new(self._secrets[vote.validator_index], core,
                          hashlib.sha256).digest()
        ok = hmac.compare_digest(expect, vote.signature)
        self._verified[id(vote)] = (vote, ok)
        return ok


def sign_vote(keyring: Keyring, index: int, source: bytes, target: bytes,
              source_height: int, target_height: int) -> VoteData:
    """A vote signed by validator `index`, entered in the keyring's verdict
    memo as valid (see `Keyring`), so verifying it costs no second HMAC."""
    pubkey = keyring.register(index)
    core = codec.encode_vote_core(source, target, source_height, target_height)
    vote = VoteData(index, pubkey, source, target, source_height,
                    target_height, keyring.sign(index, core))
    keyring._verified[id(vote)] = (vote, True)
    return vote


class VoteClass(Enum):
    COUNTABLE = "countable"
    SIGNATURE_ONLY = "signature-only"
    INVALID = "invalid"


def classify_vote(tree: BlockTree, snapshot_for, keyring: Keyring,
                  vote: VoteData) -> VoteClass:
    """Classification, not failure: see module docstring for the three classes.

    `snapshot_for(target_id)` returns the target checkpoint's dynasty snapshot
    (or None when its chain is not yet known to the caller).
    """
    if not keyring.verify(vote):
        return VoteClass.INVALID
    if vote.source not in tree or vote.target not in tree:
        return VoteClass.SIGNATURE_ONLY
    hs = tree.checkpoint_height(vote.source)
    ht = tree.checkpoint_height(vote.target)
    if hs is None or ht is None:
        return VoteClass.SIGNATURE_ONLY
    if hs != vote.source_height or ht != vote.target_height or hs >= ht:
        return VoteClass.SIGNATURE_ONLY
    if not tree.is_ancestor(vote.source, vote.target):
        return VoteClass.SIGNATURE_ONLY
    snap = snapshot_for(vote.target)
    if snap is None:
        return VoteClass.SIGNATURE_ONLY
    idx = vote.validator_index
    if idx not in snap.forward and idx not in snap.rear:
        return VoteClass.SIGNATURE_ONLY
    return VoteClass.COUNTABLE


class VotePool:
    """Multiset of signature-valid votes, indexed for tallies and slashing scans.

    Duplicates (same five-tuple) are ignored.  Votes that fail chain-dependent
    checks stay in the pool: the slashing scanner must see them.

    A run keeps one pool, its omniscient record of every vote broadcast,
    read by the end-of-run sweep, the report and the audits; tests build
    pools of their own.  Client views hold no pool: each keeps its vote
    receipts (`ClientView.votes`).

    `by_link` is built on first read and dropped by the next add, since a
    pool is read by link only after every vote is in.
    """

    def __init__(self, keyring: Keyring):
        self.keyring = keyring
        self.votes: list[VoteData] = []
        self.by_validator: dict[int, list[VoteData]] = {}
        self._by_link: dict[tuple[bytes, bytes], list[VoteData]] | None = None
        self._keys: set[tuple] = set()

    def __len__(self) -> int:
        return len(self.votes)

    def add(self, vote: VoteData) -> bool:
        """Verify and index a vote; returns False for duplicates."""
        if not self.keyring.verify(vote):
            raise BadSignature(vote.validator_index)
        key = vote.key
        if key in self._keys:
            return False
        self._keys.add(key)
        self.votes.append(vote)
        self.by_validator.setdefault(vote.validator_index, []).append(vote)
        self._by_link = None
        return True

    @property
    def by_link(self) -> dict[tuple[bytes, bytes], list[VoteData]]:
        """(source, target) -> the pool's votes for that link, in pool order."""
        if self._by_link is None:
            index: dict[tuple[bytes, bytes], list[VoteData]] = {}
            for vote in self.votes:
                index.setdefault((vote.source, vote.target), []).append(vote)
            self._by_link = index
        return self._by_link

    def link_votes(self, source: bytes, target: bytes) -> list[VoteData]:
        return self.by_link.get((source, target), [])

    def validator_votes(self, index: int) -> list[VoteData]:
        return self.by_validator.get(index, [])
