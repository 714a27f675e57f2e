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

`head()` runs these filters on every call, so it must not walk every leaf's
chain each time.  A chain is rejected by filter 1 when any block on it is,
and three facts let each view memoize that verdict per chain:

* timestamps strictly increase along a chain (`BlockTree.insert_block`), so
  the future-timestamp rule is decided by the chain's tip alone;
* heard violations are append-only, each with a fixed heard-at time;
* the evidence a chain has included up to a block is frozen with the block
  (`ChainStateCache`), as is the block's timestamp, and delta is fixed.

So a block once rejected by the evidence rule stays rejected, and a chain that
passed it against the first n heard violations only needs checking against
the ones heard since.  `chain_admissible` keeps, per block, either "rejected"
or the count of heard violations its chain passed, and walks up from a leaf
only to the nearest ancestor that is up to date; each (block, violation) pair
is checked once per view.  The justified checkpoint of a chain is found by
walking its checkpoints downward to the first justified one
(`justified_tip`), which is the highest since a chain has one checkpoint per
height.
"""

from __future__ import annotations

from enum import Enum

from .chain import Block, BlockTree, VoteData
from .config import ProtocolConfig
from .errors import BadSignature
from .finality import ChainStateCache, FinalityState
from .slashing import Violation, check_pair
from .votes import Keyring, VotePool


class Admissibility(Enum):
    ACCEPT = "accept"
    ACCEPT_NOT_FINALIZABLE = "accept-not-finalizable"
    REJECT = "reject"


# chain_admissible's memo value for a chain the evidence rule rejects
_REJECTED = -1


def _better(a: tuple, b: tuple) -> bool:
    """Rank (height, receipt order, id) of justified checkpoints: greater
    height wins; then earlier receipt; then lower id."""
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[2] < b[2]


class ClientView:
    """One client's received messages, clocks, and chain preferences.

    Views of one run share its `ChainStateCache`, and through it every
    verdict that depends on message contents alone, computed once per run:

    * block digests: the view's tree trusts the run's shared tree, so a
      `Block` object already verified there is not hashed again (blocks are
      frozen); any other object is hashed;
    * chain states: a pure function of a block and its ancestors;
    * vote countability (`ChainStateCache.countable`): a view asks only once
      its tree holds both endpoints, and then its own tree would give the
      same class, since block ids are digests;
    * slashing partners (`ChainStateCache.conflict_partners`): the two
      conditions read only the votes' fields.  The view reports the partners
      already in its own pool, in pool order and oriented (pooled vote,
      incoming), so its evidence and heard-at times are those of a scan of
      its own pool.

    Pool membership, link tallies, heard-at times and fork-choice memos stay
    per view.
    """

    def __init__(self, name: str, cfg: ProtocolConfig, keyring: Keyring,
                 cache: ChainStateCache):
        self.name = name
        self.cfg = cfg
        self.keyring = keyring
        self.cache = cache
        self.clock = 0
        self.tree = BlockTree(cfg.spacing, cfg.hash_name, trusted=cache.tree)
        self.pool = VotePool(keyring)
        self.fstate = FinalityState(cache)
        self.receipt_order: dict[bytes, int] = {self.tree.root: 0}
        self.receipt_time: dict[bytes, int] = {self.tree.root: 0}
        self._seq = 0
        self.first_seen_finalized: dict[int, bytes] = {0: self.tree.root}
        self.finalizable: dict[bytes, bool] = {self.tree.root: True}
        self.finalized_anchor: bytes = self.tree.root
        self.observed_finalized: dict[bytes, tuple[int, int]] = {self.tree.root: (0, 0)}
        self.ignored_finalized: list[tuple[int, bytes]] = []
        self.violations_heard: dict[tuple, tuple[int, Violation]] = {}
        # (key, heard_at) of violations_heard in the order heard
        self._heard: list[tuple[tuple, int]] = []
        # block id -> _REJECTED, or n: its chain passes the evidence rule
        # against _heard[:n]; absent means n == 0
        self._chain_checked: dict[bytes, int] = {}
        self._pending_blocks: dict[bytes, list[Block]] = {}
        self.payout_seen: list[tuple[int, bytes, int]] = []

    # -- receipt ---------------------------------------------------------------

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
                                        self._seq)
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
        try:
            fresh = self.pool.add(vote)
        except BadSignature:
            return []
        if not fresh:
            return []
        new_violations = []
        partners = self.cache.conflict_partners(vote)
        if partners:
            # in pool order, each pair oriented (earlier vote, incoming)
            for old in self.pool.validator_votes(vote.validator_index):
                if old.key not in partners:
                    continue
                violation = check_pair(old, vote)
                if violation.key not in self.violations_heard:
                    self.violations_heard[violation.key] = (now, violation)
                    self._heard.append((violation.key, now))
                    new_violations.append(violation)
        self.fstate.on_vote(vote)
        return new_violations

    # -- admissibility -----------------------------------------------------------

    def admissible(self, block: Block) -> Admissibility:
        """Timestamp and evidence filters; a classification, not an error."""
        if block.timestamp > self.clock:
            return Admissibility.REJECT
        if self._evidence_rejects(block, self._heard):
            return Admissibility.REJECT
        if block.timestamp < self.clock - self.cfg.delta:
            return Admissibility.ACCEPT_NOT_FINALIZABLE
        return Admissibility.ACCEPT

    def chain_admissible(self, leaf: bytes) -> bool:
        """True iff `admissible` rejects no block between the root and `leaf`.

        Memoized per chain; see the module docstring for why that is sound."""
        tree = self.tree
        block = tree.get(leaf)
        if block.timestamp > self.clock:
            return False
        heard = self._heard
        n = len(heard)
        checked = self._chain_checked
        stale: list[tuple[Block, int]] = []
        cursor = block
        while cursor.height > 0:
            done = checked.get(cursor.id, 0)
            if done == n:
                break
            if done == _REJECTED:
                for b, _done in stale:
                    checked[b.id] = _REJECTED
                return False
            stale.append((cursor, done))
            cursor = tree.blocks[cursor.parent]
        # top-down, so each block's ancestors are up to date before it
        for i in range(len(stale) - 1, -1, -1):
            cursor, done = stale[i]
            if self._evidence_rejects(cursor, heard[done:n]):
                for b, _done in stale[:i + 1]:
                    checked[b.id] = _REJECTED
                return False
            checked[cursor.id] = n
        return True

    def _evidence_rejects(self, block: Block, heard) -> bool:
        """The evidence rule: `block` is stamped later than 2*delta after a
        violation in `heard` (key, heard_at pairs) was heard, and its chain
        has not included that violation's evidence."""
        evidence = None
        latest = block.timestamp - 2 * self.cfg.delta
        for key, heard_at in heard:
            if heard_at < latest:
                if evidence is None:
                    evidence = self.cache.get(block.id).included_evidence
                if key not in evidence:
                    return True
        return False

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
        heights, order = self.fstate.heights, self.fstate.order
        best_cp: tuple[int, int, bytes] | None = None
        best_leaves: list[bytes] = []
        for leaf in self.tree.leaves():
            if not self.tree.is_ancestor(anchor, leaf):
                continue
            if not self.chain_admissible(leaf):
                continue
            tip = self.justified_tip(leaf)
            cp = (heights[tip], order[tip], tip)
            if best_cp is None or _better(cp, best_cp):
                best_cp = cp
                best_leaves = [leaf]
            elif cp == best_cp:
                best_leaves.append(leaf)
        if not best_leaves:
            return anchor
        best_leaves.sort(key=lambda b: (-self.tree.get(b).height, b))
        return best_leaves[0]

    def justified_tip(self, bid: bytes, below: int | None = None) -> bytes:
        """Highest justified checkpoint on the chain from the root to `bid`
        (`bid` included), restricted to checkpoint heights under `below` when
        given; the root when there is none.  A chain has one checkpoint per
        height, so the first justified one met walking down is the highest."""
        tree = self.tree
        justified = self.fstate.justified
        cursor = tree.get(bid)
        height = cursor.height - cursor.height % tree.spacing
        if below is not None:
            height = min(height, (below - 1) * tree.spacing)
        while height > 0:
            while cursor.height > height:
                cursor = tree.blocks[cursor.parent]
            if cursor.id in justified:
                return cursor.id
            height -= tree.spacing
        return tree.root

    def longest_chain_head(self) -> bytes:
        """Plain longest-chain selection over admissible leaves, for contrast."""
        leaves = [leaf for leaf in self.tree.leaves() if self.chain_admissible(leaf)]
        if not leaves:
            return self.tree.root
        leaves.sort(key=lambda b: (-self.tree.get(b).height, b))
        return leaves[0]
