"""Client-side chain selection.

The base rule follows the chain containing the justified checkpoint of the
greatest height.  Three client-local filters compose around it, in order:

1. admissibility: reject future-stamped blocks; reject blocks stamped later
   than t + 2*delta whose ancestor chain has not included slashing evidence
   first heard at t.  The too-old rule is judged once, when a checkpoint is
   first presented: one stamped more than delta before it reaches the view
   is never treated as finalized (`ClientView.finalizable`), though its
   chain stays eligible;
2. never revert: only chains containing every locally recorded finalized
   checkpoint are eligible (first-seen wins per height, write-once);
3. the justified-height rule with deterministic tie-breaks (earliest-received
   justified checkpoint, then lowest id; within the chosen subtree the tip
   with the most blocks, then lowest id).

`head()` runs these filters on every call, so it must not walk every leaf's
chain each time.  Timestamps strictly increase along a chain
(`BlockTree.insert_block`), so the future-timestamp rule is decided by the
chain's tip alone, and a chain is rejected by the evidence rule when any
block on it is.  That verdict is final per block once the view's clock has
reached the block's stamp:

* a view hears violations in clock order: `receive_vote` raises
  `NonMonotonicTimestamp` on a vote that exposes a new violation at a time
  before the view's clock.  Both engines deliver from one heap in time
  order and move clocks on only to the next delivery time, so a run never
  does.  A violation heard later is then heard at or after the clock, so it
  cannot reject a block stamped at or before the clock;
* the evidence a chain has included up to a block is frozen with the block
  (`ChainStateCache`), as is the block's timestamp, and delta is fixed.

Only blocks stamped at or before the clock are judged (a later tip is
rejected by its stamp), so `chain_admissible` judges each block once, top
down from its nearest judged ancestor, and keeps the verdict.  A window
bounds each judgment by the violations heard near the block's stamp: the
block's parent's chain passes, so it has included the evidence of every
violation heard before `parent.timestamp - 2*delta`, and a block's included
evidence contains its parent's.  So only violations heard in
`[parent.timestamp - 2*delta, block.timestamp - 2*delta)` can reject the
block, and a bisect into the heard log, which is in heard-at order, finds
them.

`admissible(block)`, a yes or no, reads the same verdicts, and scans the
violations heard before the block's own deadline only when its chain is
rejected.  The justified checkpoint of a chain is found by walking its
checkpoints downward to the first justified one (`justified_tip`), which is
the highest since a chain has one checkpoint per height.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from .chain import Block, BlockTree, VoteData
from .config import ProtocolConfig
from .errors import NonMonotonicTimestamp
from .finality import ChainState, ChainStateCache, FinalityState, VoteRecord
from .slashing import Violation


_HEARD_AT = itemgetter(1)


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

    * block checks: the view's tree trusts the run's shared tree, so a
      `Block` object already checked there is not hashed, nor its height and
      stamp checked, again (blocks are frozen); the view checks only that it
      is new and its parent is held.  Any other object is checked in full
      and hashed;
    * chain states: a pure function of a block and its ancestors.  The
      network looks a block's state up once per heap entry and passes it to
      `receive_block` for every view the entry names; a block released from
      a view's pending buffer looks its own up;
    * one record per vote object (`ChainStateCache.record`, a `VoteRecord`),
      which the network looks up once per heap entry and passes to
      `receive_vote` for every view the entry names:
      - the signature verdict, so a view receives a vote without verifying
        it;
      - the slashing partners and their violations, filled on the vote's
        first fresh arrival in any view; the two conditions read only the
        votes' fields.  The view reports the partners it has received, in
        its receipt order, each with the run's violation oriented (earlier
        vote, incoming), so its evidence and heard-at times are those of a
        scan of its own receipts;
      - the countability snapshot and the voter's weights in it, filled by
        the first view that counts the vote once it holds both endpoints;
        its own tree would give the same class, since block ids are digests.
        With the record's link, they are all the view's tally needs.

    A view keeps only its vote receipts: `votes`, the distinct votes in the
    order received, which a proposer offers in that order, and `_received`,
    each one's key mapped to its position there.  Receipts, link tallies,
    heard-at times and evidence verdicts stay per view.  A view hears
    violations in clock order, so each block's evidence verdict is judged
    once (see the module docstring).

    The too-old rule is judged once per checkpoint, when it is first
    presented: `finalizable` maps each checkpoint the view holds to whether
    it arrived within delta of its stamp, and never changes.  `admissible`
    is a yes or no, the timestamp and evidence filters alone.  A view
    accepts a checkpoint as finalized when it is finalizable and the block
    carrying its finalization is admissible.

    Finality detection scans, per inserted block, the checkpoints that the
    block's chain state finalized.  A chain state shares its parent's
    `finalized_at` map unless its block finalizes something, so once every
    checkpoint of a map is observed or never finalizable here (both final),
    the map is settled and later blocks that share it skip the scan.  A map
    with a checkpoint whose carrier `admissible` rejects stays unsettled,
    since that verdict may change as the clock moves.
    """

    def __init__(self, name: str, cfg: ProtocolConfig, cache: ChainStateCache):
        self.name = name
        self.cfg = cfg
        self.cache = cache
        self.clock = 0
        self.tree = BlockTree(cfg.spacing, cfg.hash_name, trusted=cache.tree)
        self.votes: list[VoteData] = []
        # vote key -> the vote's position in `votes`
        self._received: dict[tuple, int] = {}
        self.fstate = FinalityState(cache)
        self._seq = 0
        self.first_seen_finalized: dict[int, bytes] = {0: self.tree.root}
        self.finalizable: dict[bytes, bool] = {self.tree.root: True}
        self.finalized_anchor: bytes = self.tree.root
        self.observed_finalized: set[bytes] = {self.tree.root}
        self.ignored_finalized: list[tuple[int, bytes]] = []
        # id(finalized_at map) -> the map, for each settled map; holding the
        # map keeps its id from being reused while the entry lives
        self._settled: dict[int, dict[bytes, int]] = {}
        # (key, heard_at) per violation heard, in the order heard: heard-at order
        self._heard: list[tuple[tuple, int]] = []
        # block id -> whether the evidence rule rejects a block between the
        # root and it; final once judged (see the module docstring)
        self._rejected: dict[bytes, bool] = {}
        self._pending_blocks: dict[bytes, list[Block]] = {}
        # (index, height) of each payout on a chain the view has received
        self.payout_seen: set[tuple[int, int]] = set()

    # -- receipt ---------------------------------------------------------------

    def advance_clock(self, now: int) -> None:
        self.clock = max(self.clock, now)

    def receive_block(self, block: Block, now: int,
                      state: ChainState | None = None) -> None:
        """Insert a block (buffering until its parent arrives), then any
        buffered descendants it releases.  `state`, when given, must be
        `cache.get(block.id)`; else it is looked up on insertion."""
        if now > self.clock:
            self.clock = now
        blocks = self.tree.blocks
        if block.id in blocks:
            return
        if block.parent not in blocks:
            self._pending_blocks.setdefault(block.parent, []).append(block)
            return
        self._insert(block, now, state)
        pending = self._pending_blocks
        if pending:
            queue = [block.id]
            while queue:
                for child in pending.pop(queue.pop(), ()):
                    if child.id not in blocks:
                        self._insert(child, now)
                        queue.append(child.id)

    def _insert(self, block: Block, now: int,
                state: ChainState | None = None) -> None:
        self.tree.insert_block(block)
        self._seq += 1
        if block.height % self.cfg.spacing == 0:
            # the too-old rule, judged once: a checkpoint tracked live stays
            # finalizable; one that shows up already stale never is
            self.finalizable[block.id] = block.timestamp >= now - self.cfg.delta
            self.fstate.mark_checkpoint(block.id, block.height // self.cfg.spacing,
                                        self._seq)
        self._detect_finality(
            block, self.cache.get(block.id) if state is None else state)

    def _detect_finality(self, block: Block, state: ChainState) -> None:
        """Accept as finalized each checkpoint the block's chain finalizes
        that is finalizable here and carried by an admissible block."""
        if state.payouts:
            self.payout_seen.update(state.payouts)
        finalized_at = state.finalized_at
        if self._settled.get(id(finalized_at)) is finalized_at:
            return
        settled = True
        # every checkpoint in the map is an ancestor of the block, so it is
        # in the tree, and its finalizable verdict was fixed on insertion
        for cp, fin_height in finalized_at.items():
            if cp in self.observed_finalized or not self.finalizable[cp]:
                continue
            carrier = self.tree.ancestor_at(block.id, fin_height)
            if not self.admissible(self.tree.get(carrier)):
                settled = False
                continue
            self.observed_finalized.add(cp)
            self.on_finalized(cp)
        if settled:
            self._settled[id(finalized_at)] = finalized_at

    def receive_vote(self, vote: VoteData, now: int,
                     record: VoteRecord | None = None) -> list[Violation]:
        """Receive the vote; returns violations it newly exposes (heard now).

        Reads the vote's run record: `record` when given, which must be
        `cache.record(vote)`, else the record looked up here.  The rest is
        view-local: a vote with an invalid signature or a key already
        received is dropped.  Raises `NonMonotonicTimestamp` when the vote
        exposes a new violation at a `now` before the view's clock, since
        verdicts already judged assume none is heard in the past; the vote
        then stays received, uncounted."""
        if now > self.clock:
            self.clock = now
        if record is None:
            record = self.cache.record(vote)
        if not record.valid:
            return []
        received = self._received
        key = vote.key
        if key in received:
            return []
        received[key] = len(self.votes)
        self.votes.append(vote)
        partners = record.partners
        if partners is None:
            partners = record.partners = self.cache.conflict_partners(vote)
        new_violations = []
        if partners:
            # in receipt order, oriented (earlier vote, incoming); each pair is new
            for old in sorted((k for k in partners if k in received),
                              key=received.__getitem__):
                if now < self.clock:
                    raise NonMonotonicTimestamp(
                        f"{self.name} hears a violation at {now}, "
                        f"before its clock {self.clock}")
                violation = partners[old]
                self._heard.append((violation.key, now))
                new_violations.append(violation)
        self.fstate.on_vote(record)
        return new_violations

    # -- admissibility -----------------------------------------------------------

    def admissible(self, block: Block) -> bool:
        """False iff the timestamp or the evidence filter rejects `block`."""
        if block.timestamp > self.clock:
            return False
        # a chain that passes the evidence rule passes it at every block; a
        # rejected chain may have been rejected below `block`
        return (block.id in self.tree and self._chain_passes(block)) \
            or not self._evidence_rejects(block)

    def chain_admissible(self, leaf: bytes) -> bool:
        """True iff `admissible` rejects no block between the root and `leaf`."""
        block = self.tree.get(leaf)
        if block.timestamp > self.clock:
            return False
        return self._chain_passes(block)

    def _chain_passes(self, block: Block) -> bool:
        """True iff the evidence rule rejects no block between the root and
        `block`, which is stamped at or before the clock.  Judges each block
        once; see the module docstring for why the verdict is final."""
        if not self._heard:
            return True
        rejected = self._rejected
        unjudged: list[Block] = []
        cursor = block
        while cursor.height > 0:
            verdict = rejected.get(cursor.id)
            if verdict is not None:
                if verdict:
                    for b in unjudged:
                        rejected[b.id] = True
                    return False
                break
            unjudged.append(cursor)
            cursor = self.tree.blocks[cursor.parent]
        # top-down, so each block's parent's chain passes before it is judged
        for i in range(len(unjudged) - 1, -1, -1):
            if self._window_rejects(unjudged[i], cursor):
                for b in unjudged[:i + 1]:
                    rejected[b.id] = True
                return False
            cursor = unjudged[i]
            rejected[cursor.id] = False
        return True

    def _window_rejects(self, block: Block, parent: Block) -> bool:
        """The evidence rule for `block`, given that its parent's chain
        passes: only violations heard from the parent's evidence deadline
        up to the block's can reject it."""
        two_delta = 2 * self.cfg.delta
        heard = self._heard
        # the root is not judged by the rule, so it vouches for no evidence
        lo = bisect_left(heard, parent.timestamp - two_delta, key=_HEARD_AT) \
            if parent.height else 0
        hi = bisect_left(heard, block.timestamp - two_delta, lo, key=_HEARD_AT)
        return self._missing_evidence(block, lo, hi)

    def _evidence_rejects(self, block: Block) -> bool:
        """The evidence rule for `block` alone: it is stamped later than
        2*delta after some violation was heard, and its chain has not
        included that violation's evidence."""
        hi = bisect_left(self._heard, block.timestamp - 2 * self.cfg.delta,
                         key=_HEARD_AT)
        return self._missing_evidence(block, 0, hi)

    def _missing_evidence(self, block: Block, lo: int, hi: int) -> bool:
        """True iff some violation in `_heard[lo:hi]` is missing from the
        evidence `block`'s chain has included."""
        if lo >= hi:
            return False
        evidence = self.cache.get(block.id).included_evidence
        return any(key not in evidence for key, _at in self._heard[lo:hi])

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
        blocks, order = self.tree.blocks, self.fstate.order
        best_cp: tuple[int, int, bytes] | None = None
        best_leaves: list[bytes] = []
        for leaf in self.tree.leaves():
            if not self.tree.is_ancestor(anchor, leaf):
                continue
            if not self.chain_admissible(leaf):
                continue
            tip = self.justified_tip(leaf)
            cp = (blocks[tip].height, order[tip], tip)
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
