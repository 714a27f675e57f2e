"""Client-side chain selection.

The base rule follows the chain containing the justified checkpoint of the
greatest height.  Three client-local filters compose around it, in order:

1. admissibility: reject future-stamped blocks; reject blocks stamped later
   than t + 2*delta whose ancestor chain has not included slashing evidence
   first heard at t; accept but refuse to treat as finalized blocks stamped
   more than delta in the past;
2. never revert: only chains containing every locally recorded finalized
   checkpoint are eligible (first-seen wins per height, write-once);
3. the justified-height rule with deterministic tie-breaks (earliest-received
   justified checkpoint, then lowest id; within the chosen subtree the tip
   with the most blocks, then lowest id).
"""

from __future__ import annotations

from enum import Enum

from .chain import Block, BlockTree, VoteData
from .config import ProtocolConfig
from .errors import BadSignature
from .finality import ChainStateCache, FinalityState
from .slashing import Violation, find_new_violations
from .votes import Keyring, VotePool


class Admissibility(Enum):
    ACCEPT = "accept"
    ACCEPT_NOT_FINALIZABLE = "accept-not-finalizable"
    REJECT = "reject"


class ClientView:
    """One client's received messages, clocks, and chain preferences.

    Views never share mutable state; the chain-state cache may be shared
    because its values are intrinsic to block contents.
    """

    def __init__(self, name: str, cfg: ProtocolConfig, keyring: Keyring,
                 cache: ChainStateCache):
        self.name = name
        self.cfg = cfg
        self.keyring = keyring
        self.cache = cache
        self.clock = 0
        self.tree = BlockTree(cfg.spacing, cfg.hash_name)
        self.pool = VotePool(keyring)
        self.fstate = FinalityState(self.tree.root, cfg, keyring)
        self.receipt_order: dict[bytes, int] = {self.tree.root: 0}
        self.receipt_time: dict[bytes, int] = {self.tree.root: 0}
        self._seq = 0
        self.first_seen_finalized: dict[int, bytes] = {0: self.tree.root}
        self.finalizable: dict[bytes, bool] = {self.tree.root: True}
        self.finalized_anchor: bytes = self.tree.root
        self.observed_finalized: dict[bytes, tuple[int, int]] = {self.tree.root: (0, 0)}
        self.ignored_finalized: list[tuple[int, bytes]] = []
        self.violations_heard: dict[tuple, tuple[int, Violation]] = {}
        self._pending_blocks: dict[bytes, list[Block]] = {}
        self.payout_seen: list[tuple[int, bytes, int]] = []

    # -- receipt ---------------------------------------------------------------

    def snapshot_for(self, checkpoint: bytes):
        if checkpoint not in self.tree:
            return None
        return self.cache.snapshot_for(checkpoint)

    def advance_clock(self, now: int) -> None:
        self.clock = max(self.clock, now)

    def receive_block(self, block: Block, now: int) -> list[bytes]:
        """Insert a block (buffering until its parent arrives); returns
        checkpoints newly accepted as finalized."""
        self.advance_clock(now)
        if block.id in self.tree:
            return []
        if block.parent not in self.tree:
            self._pending_blocks.setdefault(block.parent, []).append(block)
            return []
        newly = self._insert(block, now)
        queue = [block.id]
        while queue:
            parent = queue.pop()
            for child in self._pending_blocks.pop(parent, []):
                if child.id not in self.tree:
                    newly.extend(self._insert(child, now))
                    queue.append(child.id)
        return newly

    def _insert(self, block: Block, now: int) -> list[bytes]:
        self.tree.insert_block(block)
        self._seq += 1
        self.receipt_order[block.id] = self._seq
        self.receipt_time[block.id] = now
        # the too-old rule is judged when the block is first presented: a block
        # tracked live stays finalizable; one that shows up already stale never is
        self.finalizable[block.id] = block.timestamp >= now - self.cfg.delta
        if block.height % self.cfg.spacing == 0:
            self.fstate.mark_checkpoint(block.id, block.height // self.cfg.spacing,
                                        self._seq, self.tree, self.snapshot_for)
        return self._detect_finality(block, now)

    def _detect_finality(self, block: Block, now: int) -> list[bytes]:
        state = self.cache.get(block.id)
        for index, height in state.payouts:
            self.payout_seen.append((index, block.id, height))
        newly = []
        for cp, fin_height in state.finalized_at.items():
            if cp in self.observed_finalized or cp not in self.tree:
                continue
            if not self.finalizable.get(cp, False):
                continue
            carrier = self.tree.ancestor_at(block.id, fin_height)
            if self.admissible(self.tree.get(carrier)) is Admissibility.REJECT:
                continue
            self.observed_finalized[cp] = (fin_height, now)
            self.on_finalized(cp)
            newly.append(cp)
        return newly

    def receive_vote(self, vote: VoteData, now: int) -> list[Violation]:
        """Pool the vote; returns violations it newly exposes (heard now)."""
        self.advance_clock(now)
        if not self.keyring.verify(vote):
            return []
        history = list(self.pool.validator_votes(vote.validator_index))
        try:
            fresh = self.pool.add(vote)
        except BadSignature:
            return []
        if not fresh:
            return []
        new_violations = []
        for violation in find_new_violations(history, vote):
            if violation.key not in self.violations_heard:
                self.violations_heard[violation.key] = (now, violation)
                new_violations.append(violation)
        self.fstate.on_vote(vote, self.tree, self.snapshot_for)
        return new_violations

    # -- admissibility -----------------------------------------------------------

    def admissible(self, block: Block) -> Admissibility:
        """Timestamp and evidence filters; a classification, not an error."""
        if block.timestamp > self.clock:
            return Admissibility.REJECT
        if self.violations_heard:
            chain_evidence = self.cache.get(block.id).included_evidence
            for key, (heard_at, _v) in self.violations_heard.items():
                if block.timestamp > heard_at + 2 * self.cfg.delta \
                        and key not in chain_evidence:
                    return Admissibility.REJECT
        if block.timestamp < self.clock - self.cfg.delta:
            return Admissibility.ACCEPT_NOT_FINALIZABLE
        return Admissibility.ACCEPT

    def chain_admissible(self, leaf: bytes) -> bool:
        cursor = self.tree.get(leaf)
        while True:
            if cursor.height > 0 and self.admissible(cursor) is Admissibility.REJECT:
                return False
            if cursor.parent is None:
                return True
            cursor = self.tree.get(cursor.parent)

    # -- finalized preference ------------------------------------------------------

    def on_finalized(self, cp: bytes) -> None:
        """Record the first finalized checkpoint seen per height; later
        conflicting arrivals never displace it."""
        height = self.tree.require_checkpoint(cp)
        if height in self.first_seen_finalized:
            if self.first_seen_finalized[height] != cp:
                self.ignored_finalized.append((height, cp))
            return
        anchor = self.finalized_anchor
        if not (self.tree.is_ancestor(anchor, cp) or self.tree.is_ancestor(cp, anchor)):
            self.ignored_finalized.append((height, cp))
            return
        self.first_seen_finalized[height] = cp
        if height > self.tree.require_checkpoint(anchor):
            self.finalized_anchor = cp

    # -- head selection ---------------------------------------------------------

    def head(self) -> bytes:
        anchor = self.finalized_anchor
        best_cp: tuple[int, int, bytes] | None = None
        best_leaves: list[bytes] = []
        for leaf in self.tree.leaves():
            if not self.tree.is_ancestor(anchor, leaf):
                continue
            if not self.chain_admissible(leaf):
                continue
            cp = self._chain_justified(leaf)
            if best_cp is None or FinalityState._better(cp, best_cp):
                best_cp = cp
                best_leaves = [leaf]
            elif cp == best_cp:
                best_leaves.append(leaf)
        if not best_leaves:
            return anchor
        best_leaves.sort(key=lambda b: (-self.tree.get(b).height, b))
        return best_leaves[0]

    def _chain_justified(self, leaf: bytes) -> tuple[int, int, bytes]:
        best = (0, 0, self.tree.root)
        for cp in self.fstate.justified:
            if cp not in self.tree or not self.tree.is_ancestor(cp, leaf):
                continue
            cand = (self.fstate.heights[cp], self.fstate.order[cp], cp)
            if FinalityState._better(cand, best):
                best = cand
        return best

    def longest_chain_head(self) -> bytes:
        """Plain longest-chain selection over admissible leaves, for contrast."""
        leaves = [leaf for leaf in self.tree.leaves() if self.chain_admissible(leaf)]
        if not leaves:
            return self.tree.root
        leaves.sort(key=lambda b: (-self.tree.get(b).height, b))
        return leaves[0]
