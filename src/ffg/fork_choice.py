"""Client-side chain selection.

The base rule follows the chain containing the justified checkpoint of the
greatest height.  Three client-local filters compose around it, in order:

1. admissibility: reject future-stamped blocks; reject blocks stamped later
   than t + 2*delta whose chain has not included valid evidence against a
   validator whose first violation the view heard at t.  One proof takes a
   violator's whole deposit, so a view hears one violation per validator,
   the first, and any valid proof against that validator satisfies the
   rule, after which the chain's registry records the validator as
   slashed.  The too-old rule is judged once, when a checkpoint is first
   presented: one stamped more than delta before it reaches the view is
   never treated as finalized (`ClientView.finalizable`), though its chain
   stays eligible;
2. never revert: only chains containing every locally recorded finalized
   checkpoint are eligible (first-seen wins per height, write-once);
3. the justified-height rule with deterministic tie-breaks (earliest-received
   justified checkpoint, then lowest id; within the chosen subtree the tip
   with the most blocks, then lowest id).

`head()` runs these filters on every call, so it must not walk every leaf's
chain each time.  The never-revert filter walks a leaf down to the finalized
anchor; a leaf found off the anchor's branch is marked and never walked again,
and its children inherit the mark when inserted.  The mark is final: the
anchor only moves to its own descendants, and none of those is an ancestor of
a block off the old anchor's branch.  Timestamps strictly increase along a chain
(`BlockTree.insert_block`), so the future-timestamp rule is decided by the
chain's tip alone, and a chain is rejected by the evidence rule when any
block on it is.  That verdict is final per block once the view's clock has
reached the block's stamp:

* a view hears violations in clock order: `receive_vote` raises
  `NonMonotonicTimestamp` on a vote that exposes a new violator at a time
  before the view's clock.  Both engines deliver from one heap in time
  order and move clocks on only to the next delivery time, so a run never
  does.  A violation heard later is then heard at or after the clock, so it
  cannot reject a block stamped at or before the clock;
* the validators a chain has included evidence against up to a block are
  frozen with the block (`ChainStateCache`), as is the block's timestamp,
  and delta is fixed.

Only blocks stamped at or before the clock are judged (a later tip is
rejected by its stamp), so `chain_admissible` folds one verdict per block
down the chain (`BlockTree.fold`): a block is rejected when its parent is,
else judged by the rule, once, root side first.  A view maps
each violator it has heard to the time it heard it (`_heard`), in the order
heard, which is heard-at order, so a judgment reads the violators heard
before the block's deadline, `block.timestamp - 2*delta`, and stops at the
first heard after it.

`admissible(block)`, a yes or no, judges the block alone: being final, its
verdict is the one `chain_admissible` keeps.  The justified checkpoint of a
chain is found by walking its checkpoints downward to the first justified
one (`justified_tip`), which is the highest since a chain has one
checkpoint per height.
"""

from __future__ import annotations

from .chain import Block, BlockTree, VoteData
from .errors import NonMonotonicTimestamp
from .finality import (_UNCLASSIFIED, ChainState, ChainStateCache,
                       FinalityState, VoteRecord)
from .slashing import Violation, check_pair


class ClientView:
    """One client's received messages, clocks, and chain preferences.

    Views of one run share its `ChainStateCache`, and through it the run's
    protocol config and every verdict that depends on message contents
    alone, computed once per run:

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
      - the slashing partners, the run's votes that conflict with the
        vote; the two conditions read only the votes' fields.  A view
        hears one violation per validator, the first in its receipt order:
        when it has heard none by the vote's validator, `check_pair` of the
        partner it received first and the vote, so its heard-at time is
        that of a scan of its own receipts.  Only such a view reads
        partners, and the first has the cache fill them
        (`ChainStateCache.conflict_partners(record)`), so the run stops
        checking a validator's votes once every view has heard it;
      - the countability snapshot and the voter's weights in it, filled by
        the cache (`ChainStateCache.classify`) for the first view handed
        the vote once it holds the target; its own tree would give the same
        class, since block ids are digests.
        With the record's link, they are all the view's tally needs: a
        ready record, classified and with a target the view has marked, is
        counted with one `LinkTally.count` call, and every other record is
        handed to `FinalityState.on_vote`, which buffers or classifies it.

    A view keeps only its vote receipts: `votes`, the distinct votes in the
    order received, which a proposer offers in that order, and `_received`,
    each one's key mapped to its position there.  Receipts, link tallies,
    heard-at times and evidence verdicts stay per view: `_heard` maps each
    violator heard to its heard-at time, in the order heard.  A view hears
    violators in clock order, so each block's evidence verdict is judged
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

    def __init__(self, name: str, cache: ChainStateCache):
        self.name = name
        self.cfg = cfg = cache.cfg
        self.cache = cache
        self.clock = 0
        self.tree = BlockTree(cfg.spacing, trusted=cache.tree)
        self.votes: list[VoteData] = []
        # vote key -> the vote's position in `votes`
        self._received: dict[tuple, int] = {}
        self.fstate = FinalityState(cache)
        self.first_seen_finalized: dict[int, bytes] = {0: self.tree.root}
        self.finalizable: dict[bytes, bool] = {self.tree.root: True}
        self.finalized_anchor: bytes = self.tree.root
        self.observed_finalized: set[bytes] = {self.tree.root}
        self.ignored_finalized: list[tuple[int, bytes]] = []
        # id(finalized_at map) -> the map, for each settled map; holding the
        # map keeps its id from being reused while the entry lives
        self._settled: dict[int, dict[bytes, int]] = {}
        # validator -> when its first violation was heard, in the order
        # heard, which is heard-at order
        self._heard: dict[int, int] = {}
        # block id -> whether the evidence rule rejects a block between the
        # root and it; final once judged (see the module docstring)
        self._rejected: dict[bytes, bool] = {self.tree.root: False}
        self._pending_blocks: dict[bytes, list[Block]] = {}
        # blocks `head()` found off the finalized anchor's branch, and their
        # children inserted since; final, since the anchor only moves to its
        # own descendants
        self._off_anchor: set[bytes] = set()

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
        if block.parent in self._off_anchor:
            self._off_anchor.add(block.id)
        if block.height % self.cfg.spacing == 0:
            # the too-old rule, judged once: a checkpoint tracked live stays
            # finalizable; one that shows up already stale never is
            self.finalizable[block.id] = block.timestamp >= now - self.cfg.delta
            self.fstate.mark_checkpoint(block.id, block.height // self.cfg.spacing)
        self._detect_finality(
            block, self.cache.get(block.id) if state is None else state)

    def _detect_finality(self, block: Block, state: ChainState) -> None:
        """Accept as finalized each checkpoint the block's chain finalizes
        that is finalizable here and carried by an admissible block."""
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
                     record: VoteRecord | None = None) -> Violation | None:
        """Receive the vote; returns the violation it newly exposes (heard
        now) when its validator has none heard yet, else None.

        Reads the vote's run record: `record` when given, which must be
        `cache.record(vote)`, else the record looked up here.  The rest is
        view-local: a vote with an invalid signature or a key already
        received is dropped.  Raises `NonMonotonicTimestamp` when the vote
        exposes a new violator at a `now` before the view's clock, since
        verdicts already judged assume none is heard in the past; the vote
        then stays received, uncounted."""
        if now > self.clock:
            self.clock = now
        if record is None:
            record = self.cache.record(vote)
        received = self._received
        key = vote.key
        if not record.valid or key in received:
            return None
        received[key] = len(self.votes)
        self.votes.append(vote)
        violation = None
        partners = record.partners
        if ((partners is None or partners)
                and vote.validator_index not in self._heard):
            violation = self._hear(vote, now, record)
        fstate = self.fstate
        snap = record.snap
        if snap is _UNCLASSIFIED or vote.target not in fstate.order:
            fstate.on_vote(record)
        elif snap is not None:
            fstate.links.count(record.link, record.forward, record.rear, snap)
        return violation

    def _hear(self, vote: VoteData, now: int,
              record: VoteRecord) -> Violation | None:
        """The violation the vote exposes against the partner this view
        received first, heard now; None when it received no partner.  Only
        a view that has not heard the validator reads partners, and it misses
        none: each vote it holds was filled on receipt, and of two
        conflicting votes the one filled later finds the other.  Votes left
        unfilled are held by no such view.  The view writes nothing on the
        record: the cache fills its partners."""
        partners = record.partners
        if partners is None:
            partners = self.cache.conflict_partners(record)
        received = self._received
        earlier = [p for p in partners if p.key in received]
        if not earlier:
            return None
        if now < self.clock:
            raise NonMonotonicTimestamp(
                f"{self.name} hears a violation at {now}, "
                f"before its clock {self.clock}")
        first = min(earlier, key=lambda p: received[p.key])
        self._heard[vote.validator_index] = now
        return check_pair(first, vote)

    # -- admissibility -----------------------------------------------------------

    def admissible(self, block: Block) -> bool:
        """False iff the timestamp or the evidence filter rejects `block`."""
        return block.timestamp <= self.clock and not self._evidence_rejects(block)

    def chain_admissible(self, leaf: bytes) -> bool:
        """True iff `admissible` rejects no block between the root and `leaf`.
        A leaf stamped at or before the clock is judged by the evidence rule,
        each block on its chain once (`_judge`); see the module docstring for
        why the verdict is final."""
        if self.tree.get(leaf).timestamp > self.clock:
            return False
        return not self._heard or not self.tree.fold(leaf, self._rejected,
                                                     self._judge)

    def _judge(self, parent_rejected: bool, block: Block) -> bool:
        """Whether the evidence rule rejects a block between the root and
        `block`: a block under a rejected one is rejected unjudged."""
        return parent_rejected or self._evidence_rejects(block)

    def _evidence_rejects(self, block: Block) -> bool:
        """The evidence rule for `block` alone: it is stamped later than
        2*delta after some violator was heard, and its chain has not
        included valid evidence against that validator, so its registry
        holds no slashed record of it (`_StepContext.include_evidence`)."""
        deadline = block.timestamp - 2 * self.cfg.delta
        records = self.cache.get(block.id).registry.records
        for index, heard_at in self._heard.items():
            if heard_at >= deadline:
                return False
            rec = records.get(index)
            if rec is None or not rec.slashed:
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
        """The admissible leaf under the finalized anchor of least rank
        (-tip height, tip receipt order, tip id, -leaf height, leaf id),
        where the tip is the leaf's justified tip; the anchor when there is
        none.  A leaf marked off the anchor's branch is skipped unwalked, and
        one found off it is marked (see the module docstring)."""
        anchor = self.finalized_anchor
        tree, order = self.tree, self.fstate.order
        blocks, off_anchor = tree.blocks, self._off_anchor
        ranks = []
        for leaf in tree.leaves():
            if leaf in off_anchor:
                continue
            if not tree.is_ancestor(anchor, leaf):
                off_anchor.add(leaf)
            elif self.chain_admissible(leaf):
                tip = self.justified_tip(leaf)
                ranks.append((-blocks[tip].height, order[tip], tip,
                              -blocks[leaf].height, leaf))
        return min(ranks)[-1] if ranks else anchor

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
        return min(filter(self.chain_admissible, self.tree.leaves()),
                   key=lambda b: (-self.tree.get(b).height, b),
                   default=self.tree.root)
