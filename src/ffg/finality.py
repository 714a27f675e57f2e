"""Supermajority links, justification, finalization, and the liveness oracle.

One core counts votes into justification, and two engines sit on top of it:

* `LinkTally`: the core.  It sums the weights its callers count per link,
  each validator once, indexes a link by both ends once its sums meet the
  target snapshot's needs (the comparison `link_established` makes for
  `tally`), and keeps the justified closure: the root, plus every target of
  an established link from a justified source.
  `pool_links` feeds a whole vote pool through it once, for
  `compute_justified` and the accountable-safety audit.

* `ChainState` / `ChainStateCache`: the chain engine.  It counts the votes
  included along one path of the block tree, stamping each link with the
  height of the block that established it, and adds what only a chain knows:
  dynasties, the inactivity leak, the vote-inclusion deadline for
  finalization, slashing penalties, and withdrawals.  Each block's state is a
  pure function of its parent's state plus its payload, so states are
  memoized per block id and shared across forks.  The same per-run cache
  keeps one record per vote object (`VoteRecord`) with the verdicts every
  client view and chain shares: its signature, its slashing partners, and
  whether it counts (`classify_vote`, judged once per run), each filled
  only by the cache.  The pool queries (`pool_links`, `tally`) and the
  audit read the same records.

* `FinalityState`: the view engine.  It counts one client's gossiped votes,
  with no inclusion requirement, and records each known checkpoint's
  receipt order; fork choice reads its justified set per chain.  It takes
  votes as their run records, which carry each vote's link and weights, so
  counting one needs no lookup beyond the view's own tally.

A link s -> t, with t's block in dynasty d, is established when the tallied
deposits reach 2/3 of the forward set of d and (when stitching is enabled)
2/3 of the rear set of d.  Weights come from the registry as recorded at the
start of t's voting window on t's own chain, so the tally for a given target
is objective: every honest party computes the same snapshot.  The snapshot
fixes both 2/3 needs, and the run's stitching rule with them, when it is
built (`snapshot_registry`); nothing downstream reads the rule again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import (BlockTree, Deposit, SlashEvidence, VoteData, VoteInclusion,
                    Withdraw)
from .config import ProtocolConfig
from .errors import NoExtension, NotAncestor
from .leak import apply_epoch_leak
from .slashing import find_new_violations, proven_violation, slashable
from .validators import ValidatorRegistry
from .votes import Keyring, VotePool, classify_vote


class DynastySnapshot:
    """Weights and membership for links targeting one checkpoint.

    forward/rear map validator index -> deposit at the start of the target's
    voting window on the target's own chain; zero-weight members are omitted.
    `forward_need` and `rear_need` are the least sums that reach 2/3 of
    each set's total T, the least integer x with 3x >= 2T; `rear_need` is 0
    without stitching.  When no set the rule reads has weight the link can
    never be established, so `forward_need` is 1, above any sum of an empty
    set.
    """

    __slots__ = ("cp_height", "forward", "rear", "forward_total", "rear_total",
                 "forward_need", "rear_need")

    def __init__(self, cp_height: int, forward: dict[int, int],
                 rear: dict[int, int], stitching: bool):
        self.cp_height = cp_height
        self.forward = forward
        self.rear = rear
        self.forward_total = sum(forward.values())
        self.rear_total = sum(rear.values())
        self.forward_need = (2 * self.forward_total + 2) // 3
        self.rear_need = (2 * self.rear_total + 2) // 3 if stitching else 0
        if not (self.forward_need or self.rear_need):
            self.forward_need = 1


def snapshot_registry(cp_height: int, dynasty: int, registry: ValidatorRegistry,
                      stitching: bool) -> DynastySnapshot:
    forward: dict[int, int] = {}
    rear: dict[int, int] = {}
    for rec in registry.records.values():
        w = rec.weight
        if w <= 0:
            continue
        if rec.in_forward(dynasty):
            forward[rec.index] = w
        if rec.in_rear(dynasty):
            rear[rec.index] = w
    return DynastySnapshot(cp_height, forward, rear, stitching)


def link_established(fwd: int, rear: int, snap: DynastySnapshot) -> bool:
    """Whether a link's forward and rear sums meet its target snapshot's 2/3
    needs."""
    return fwd >= snap.forward_need and rear >= snap.rear_need


@dataclass(frozen=True)
class LinkStatus:
    source: bytes
    target: bytes
    forward_voted: int
    rear_voted: int
    forward_total: int
    rear_total: int
    established: bool


class LinkTally:
    """Per-link tallies, established links, and the justified closure.

    tallies maps (source, target) -> (forward, rear); by_source and
    by_target index each established link once, by its source and by its
    target, as (other end, stamp) tuples, the stamp being the caller's at
    the count that established it.

    `count` adds one vote's weights to its link and keeps no voters: the
    caller counts each validator at most once per link.  Views and the pool
    queries count each vote key once, and a countable vote's key is fixed by
    its validator and link; the chain engine, which can include one vote in
    two payloads, keeps its own voter sets (`ChainState.link_voters`).
    Views, chains and `pool_links` pass the link and weights their run
    record carries (`VoteRecord`), so counting builds no link.  Sums only
    grow and every count of a link passes the same snapshot, its target's,
    so a link is established by exactly the count whose new sums meet the
    snapshot's needs and whose previous sums did not.

    Every value is immutable, so `copy` only copies the containers.
    """

    __slots__ = ("tallies", "by_source", "by_target", "justified")

    def __init__(self, root: bytes):
        self.tallies: dict[tuple[bytes, bytes], tuple[int, int]] = {}
        self.by_source: dict[bytes, tuple[tuple[bytes, int], ...]] = {}
        self.by_target: dict[bytes, tuple[tuple[bytes, int], ...]] = {}
        self.justified: set[bytes] = {root}

    def copy(self) -> LinkTally:
        other = LinkTally.__new__(LinkTally)
        other.tallies = self.tallies.copy()
        other.by_source = self.by_source.copy()
        other.by_target = self.by_target.copy()
        other.justified = self.justified.copy()
        return other

    def count(self, link: tuple[bytes, bytes], forward: int, rear: int,
              snap: DynastySnapshot, stamp: int = 0) -> bool:
        """Add one voter's weights, `forward` and `rear` in `snap`, to
        `link`; when that establishes the link, index it, justify what it
        newly justifies and return True.  The caller vouches that the vote
        counts against `snap`, its target's snapshot, and that its validator
        has not been counted on `link` before."""
        prev_fwd, prev_rear = self.tallies.get(link, (0, 0))
        fwd, rear_sum = prev_fwd + forward, prev_rear + rear
        self.tallies[link] = (fwd, rear_sum)
        forward_need, rear_need = snap.forward_need, snap.rear_need
        if (fwd < forward_need or rear_sum < rear_need
                or (prev_fwd >= forward_need and prev_rear >= rear_need)):
            return False
        source, target = link
        self.by_source[source] = self.by_source.get(source, ()) + ((target, stamp),)
        self.by_target[target] = self.by_target.get(target, ()) + ((source, stamp),)
        queue = [target] if source in self.justified else []
        while queue:
            cp = queue.pop()
            if cp in self.justified:
                continue
            self.justified.add(cp)
            queue.extend(tgt for tgt, _stamp in self.by_source.get(cp, ()))
        return True


def pool_links(cache: ChainStateCache, pool: VotePool) -> LinkTally:
    """The core fed every countable vote of the pool once.

    Each vote counts by the verdict and weights of its run record
    (`ChainStateCache.classify`), the verdict views and chains read, judged
    with the run's keyring, on which every pool of a run is built.  Costs
    one record lookup per pool vote; the run has classified almost every
    record already, and one it has not is classified here, once per run."""
    links = LinkTally(cache.tree.root)
    for vote in pool.votes:
        record = cache.record(vote)
        snap = cache.classify(record)
        if snap is not None:
            links.count(record.link, record.forward, record.rear, snap)
    return links


def tally(cache: ChainStateCache, pool: VotePool, source: bytes,
          target: bytes) -> LinkStatus:
    """Deposit-weighted tally of countable votes source -> target.

    Distinct validators only; each contributes the forward and rear weights
    its vote's run record carries, as `pool_links` counts them.  Costs one
    record lookup per pool vote on the link.
    """
    if not cache.tree.is_ancestor(source, target) or source == target:
        raise NotAncestor(f"{source.hex()} !-> {target.hex()}")
    snap = cache.snapshot_for(target)
    fwd = rear = 0
    for vote in pool.link_votes(source, target):
        record = cache.record(vote)
        if cache.classify(record) is not None:
            fwd += record.forward
            rear += record.rear
    return LinkStatus(source, target, fwd, rear, snap.forward_total,
                      snap.rear_total, link_established(fwd, rear, snap))


# ---------------------------------------------------------------------------
# Chain-local engine (inclusion-based): dynasties, leak, deadline, payouts.
# ---------------------------------------------------------------------------

class ChainState:
    """State after processing one block; immutable once built.

    `link_voters` maps each tallied link to the validators the chain has
    counted on it, so a vote included again, in a later payload or as
    another object, is not counted twice.  A child shares its parent's sets
    until it adds to one (`_StepContext.link_voters`).  The chain has
    slashed, by one valid proof each, exactly the validators its `registry`
    records as slashed (`_StepContext.include_evidence`).  `slashings` and
    `payouts` are this block's own: the violation each proof that newly
    covers a validator proves (`proven_violation`), in payload order, and
    the `(index, height)` of each withdrawal it pays out.  Checkpoint
    snapshots are kept once per run (`ChainStateCache.snapshots`).

    A block that changes nothing shares its parent's state object
    (`step_state`), so an empty block between checkpoints costs one check
    and no copy.
    """

    __slots__ = ("dynasty", "registry", "links", "link_voters",
                 "finalized_at", "voted_window", "slashings", "payouts")

    @property
    def justified(self) -> set[bytes]:
        return self.links.justified


def genesis_state(root_id: bytes, registry: ValidatorRegistry) -> ChainState:
    st = ChainState()
    st.dynasty = 0
    st.registry = registry
    st.links = LinkTally(root_id)
    st.link_voters = {}
    st.finalized_at = {root_id: 0}
    st.voted_window = frozenset()
    st.slashings = ()
    st.payouts = ()
    return st


class _StepContext:
    """Mutable working copy used while folding `block` into a state.  The
    block's height stamps the links it establishes and the checkpoints it
    finalizes."""

    def __init__(self, parent: ChainState, cfg: ProtocolConfig, block):
        self.cfg = cfg
        self.block = block
        # every slot of ChainState, carried over by direct assignment
        self.st = st = ChainState()
        st.dynasty = parent.dynasty
        st.registry = parent.registry
        st.links = parent.links
        st.link_voters = parent.link_voters
        st.finalized_at = parent.finalized_at
        st.voted_window = parent.voted_window
        st.slashings = parent.slashings
        st.payouts = parent.payouts
        self._own_registry = False
        self._own = set()
        # links whose voter set this block has copied and may add to
        self._own_voters: set[tuple[bytes, bytes]] = set()
        # the block's window voters, unioned into `voted_window` once per
        # block by `close_payload`
        self.new_voters: set[int] = set()

    def owned(self, name: str):
        if name not in self._own:
            setattr(self.st, name, getattr(self.st, name).copy())
            self._own.add(name)
        return getattr(self.st, name)

    def registry(self) -> ValidatorRegistry:
        if not self._own_registry:
            self.st.registry = self.st.registry.clone()
            self._own_registry = True
        return self.st.registry

    def link_voters(self, link: tuple[bytes, bytes]) -> set[int]:
        """The link's voter set, copied the first time this block adds to
        it, so the parent's set is never written."""
        voters = self.owned("link_voters")
        if link not in self._own_voters:
            voters[link] = set(voters.get(link, ()))
            self._own_voters.add(link)
        return voters[link]

    def include_vote(self, vote: VoteData, cache: ChainStateCache) -> bool:
        """Count an included vote on this chain when the run's verdict
        (`ChainStateCache.classify`) finds it countable, and return whether
        that establishes its link.  The chain adds only that the target is
        on it, an ancestor of the block's parent.  That walk comes last: a
        countable verdict means the shared tree holds the target, which
        `BlockTree.is_ancestor` needs."""
        # a countable vote's key is fixed by its validator and link, and
        # whether it counts by its target being an ancestor, so this counts
        # each key once per chain: a vote included again is not a new voter
        idx = vote.validator_index
        record = cache.record(vote)
        link = record.link
        voters = self.st.link_voters.get(link)
        if voters is not None and idx in voters:
            return False
        snap = cache.classify(record)
        if snap is None or not cache.tree.is_ancestor(vote.target,
                                                      self.block.parent):
            return False
        self.new_voters.add(idx)
        self.link_voters(link).add(idx)
        return self.owned("links").count(link, record.forward, record.rear,
                                         snap, self.block.height)

    def close_payload(self):
        if self.new_voters:
            self.st.voted_window = self.st.voted_window | self.new_voters

    def finalize(self, snapshots: dict[bytes, DynastySnapshot]):
        """Finalize each justified checkpoint with a link to a direct
        checkpoint child and a link from a justified source, both established
        by the child's deadline.  Runs after the block's closure, so the order
        in which links and justifications arrived does not matter.  The root
        is finalized at genesis and needs no justifying link."""
        st = self.st
        links = st.links
        for source in sorted(links.justified - st.finalized_at.keys()):
            h_s = snapshots[source].cp_height
            for target, est_h in links.by_source.get(source, ()):
                h_t = snapshots[target].cp_height
                deadline = self.cfg.deadline(h_t)
                if h_t != h_s + 1 or est_h > deadline:
                    continue
                if any(src in links.justified and jh <= deadline
                       for src, jh in links.by_target[source]):
                    self.owned("finalized_at")[source] = self.block.height
                    break

    def include_evidence(self, tx: SlashEvidence, keyring: Keyring):
        """One valid proof covers its validator and burns its whole deposit;
        a proof against a validator the chain covers or holds no record of
        is skipped unverified, and an invalid one covers no one.  Only this
        slashes, and a genesis registry slashes no one, so the chain covers
        exactly the validators its registry records as slashed.  The block
        keeps the violation a covering proof proves, for the report."""
        st = self.st
        index = tx.first.validator_index
        rec = st.registry.records.get(index)
        if rec is None or rec.slashed:
            return
        violation = proven_violation(keyring, tx)
        if violation is None:
            return
        st.slashings = st.slashings + (violation,)
        self.registry().slash(index)


def step_state(parent: ChainState, block, cache: ChainStateCache) -> ChainState:
    """Fold one block into its parent's chain state; `cache` builds the
    states of the block's ancestors first.  A block that changes nothing
    gets its parent's state object itself: its payload is empty, it is not
    a checkpoint, it starts no dynasty, and the parent has no slashings or
    payouts of its own, which the block's state would not carry."""
    cfg = cache.cfg
    if (not block.payload and block.height % cfg.spacing
            and len(parent.finalized_at) - 1 == parent.dynasty
            and not parent.slashings and not parent.payouts):
        return parent
    ctx = _StepContext(parent, cfg, block)
    st = ctx.st
    epoch = cfg.epoch_of_height(block.height)
    # the root is finalized at genesis and starts dynasty 0
    st.dynasty = len(parent.finalized_at) - 1
    st.slashings = st.payouts = ()

    if st.dynasty != parent.dynasty:
        ctx.registry().mark_end_dynasty_started(st.dynasty, epoch,
                                                cfg.withdrawal_delay,
                                                previous=parent.dynasty)

    established = False
    for tx in block.payload:
        if isinstance(tx, VoteInclusion):
            established |= ctx.include_vote(tx.vote, cache)
        elif isinstance(tx, SlashEvidence):
            ctx.include_evidence(tx, cache.keyring)
        elif isinstance(tx, Deposit):
            ctx.registry().process_deposit(tx.validator_index, tx.amount,
                                           st.dynasty)
        elif isinstance(tx, Withdraw):
            ctx.registry().process_withdraw(tx.validator_index, st.dynasty)
    ctx.close_payload()
    if established:
        ctx.finalize(cache.snapshots)

    if block.height % cfg.spacing == 0:
        # a checkpoint block closes the previous voting window: leak, then
        # snapshot the registry for links that will target this checkpoint.
        # The window before the first checkpoint has no votable target, so the
        # leak starts one spacing later.
        reg = ctx.registry()
        if block.height > cfg.spacing:
            apply_epoch_leak(reg, st.voted_window, st.dynasty, cfg.leak)
        st.voted_window = frozenset()
        for rec in reg.records.values():
            if (rec.unlock_epoch is not None and not rec.slashed
                    and not rec.withdrawn and epoch >= rec.unlock_epoch):
                rec.withdrawn = True
                st.payouts = st.payouts + ((rec.index, block.height),)
        cache.snapshots[block.id] = snapshot_registry(
            block.height // cfg.spacing, st.dynasty, reg, cfg.stitching)
    return st


# VoteRecord.snap until the vote is classified
_UNCLASSIFIED = object()


class VoteRecord:
    """One vote object's verdicts for a whole run (`ChainStateCache.record`).

    * `valid`: the signature verdict, read once when the record is made;
    * `link`: the vote's `(source, target)`, the key of its tally, made
      with the record;
    * `partners`: the run's votes that conflict with this one, filled by
      `ChainStateCache.conflict_partners(record)` on its first fresh
      arrival in a view that has not heard its validator; None before;
    * `snap`: the target's snapshot when the vote counts, else None; filled
      (`ChainStateCache.classify`) the first time a view that has marked
      the target is handed the vote, or a chain includes it, and
      `_UNCLASSIFIED` before.  It is never filled before the shared tree
      holds the target: from then on every input is fixed,
      since a source that is an ancestor of the target is in the tree
      already and one that is not never becomes one.  A view that has
      marked the target holds its whole chain, so its own tree gives the
      same class, because ids are digests.  A chain that holds the target
      holds the source too whenever the vote counts, and every chain reads
      the one snapshot the run keeps for the target.
    * `forward`, `rear`: the voter's weights in `snap`, filled with it when
      the vote counts (0 before and otherwise) and fixed from then on, so a
      tally that counts the record reads no snapshot.
    """

    __slots__ = ("vote", "valid", "link", "partners", "snap", "forward", "rear")

    def __init__(self, vote: VoteData, valid: bool):
        self.vote = vote
        self.valid = valid
        self.link = (vote.source, vote.target)
        self.partners: list[VoteData] | None = None
        self.snap = _UNCLASSIFIED
        self.forward = self.rear = 0


class ChainStateCache:
    """Per-run verdicts shared by every client view of one run.

    Each is a function of message contents alone, so computing it once per
    run gives every view the answer its own work would:

    * the chain state after each block, keyed by block id: a pure function
      of the block and its ancestors;
    * each checkpoint's `DynastySnapshot` (`snapshots`): the registry on
      its own chain, stored once by `step_state` (the root's with the
      cache), so every chain holding the checkpoint weighs links to it alike;
    * one `VoteRecord` per vote object (`record`): its signature verdict,
      its link, its slashing partners (`conflict_partners`), whether it
      counts (`classify`) and, if it does, the voter's weights; these two
      methods are the only writers of a record.  The network looks the
      record up once per heap entry and hands it to every view the entry
      names, which then does only view-local work: pool membership, the
      violations it hears and its own tally.  A chain finds it per
      inclusion of a vote.

    Records are keyed by object identity, as `Keyring.verify` is: a run
    sends one vote object to every view.  Each record holds its vote, so the
    vote's id cannot be reused by another object while the record lives; a
    value-equal copy gets its own record, with the same verdicts.

    `tree` is the run's shared tree; every block a view holds is inserted
    there first.
    """

    def __init__(self, tree: BlockTree, cfg: ProtocolConfig, keyring: Keyring,
                 genesis_registry: ValidatorRegistry):
        self.tree = tree
        self.cfg = cfg
        self.keyring = keyring
        registry = genesis_registry.clone()
        self.states: dict[bytes, ChainState] = {
            tree.root: genesis_state(tree.root, registry)}
        # checkpoint id -> its dynasty snapshot, stored by `step_state`
        self.snapshots: dict[bytes, DynastySnapshot] = {
            tree.root: snapshot_registry(0, 0, registry, cfg.stitching)}
        # id(vote) -> the vote's record
        self._records: dict[int, VoteRecord] = {}
        # validator index -> its distinct votes, in the order first seen
        self._history: dict[int, list[VoteData]] = {}
        # validator index -> (greatest source, greatest target height) of
        # the votes in its history
        self._reach: dict[int, tuple[int, int]] = {}
        # vote key -> the votes that conflict with it
        self._partners: dict[tuple, list[VoteData]] = {}

    def get(self, block_id: bytes) -> ChainState:
        state = self.states.get(block_id)
        if state is None:
            state = self.tree.fold(block_id, self.states, step_state, self)
        return state

    def snapshot_for(self, checkpoint: bytes) -> DynastySnapshot | None:
        """The checkpoint's snapshot, stored when its chain state is built;
        None for a block that is not a checkpoint of the tree."""
        if checkpoint not in self.snapshots and checkpoint in self.tree:
            self.get(checkpoint)
        return self.snapshots.get(checkpoint)

    def record(self, vote: VoteData) -> VoteRecord:
        """The run's record of this vote object, made (and its signature
        verified) the first time the object is seen."""
        record = self._records.get(id(vote))
        if record is None or record.vote is not vote:
            record = self._records[id(vote)] = VoteRecord(
                vote, self.keyring.verify(vote))
        return record

    def classify(self, record: VoteRecord) -> DynastySnapshot | None:
        """The target's snapshot when the record's signature is valid and
        `classify_vote` finds its vote countable on the shared tree, else
        None: the one countability verdict, read by client views and by
        every chain that includes the vote.  Kept on the record once the
        shared tree holds the target (see `VoteRecord`), and then returned
        without classifying again."""
        snap = record.snap
        if snap is not _UNCLASSIFIED:
            return snap
        vote = record.vote
        if vote.target not in self.tree:
            return None
        snap = record.snap = (classify_vote(self.tree, self.snapshot_for, vote)
                              if record.valid else None)
        if snap is not None:
            idx = vote.validator_index
            record.forward = snap.forward.get(idx, 0)
            record.rear = snap.rear.get(idx, 0)
        return snap

    def conflict_partners(self, record: VoteRecord) -> list[VoteData]:
        """The run's votes that form a slashing violation with the record's
        vote, stored on the record (`VoteRecord.partners`) and returned.

        The first time a key is seen its vote is checked once against the
        validator's earlier votes, and each conflict is recorded on both
        keys; later conflicting votes extend the returned list.  Both
        conditions read only fields the key holds, so votes sharing a key
        share partners.  Earlier votes are those this method was asked
        about (see `ClientView.receive_vote` for why that suffices).

        The check is skipped when the vote's source height is at least, and
        its target height above, every earlier vote's of its validator: then
        no earlier vote has its target height, none surrounds it (its target
        would be higher) and it surrounds none (its source would be lower),
        so the check would find nothing."""
        vote = record.vote
        partners = self._partners.get(vote.key)
        if partners is None:
            partners = self._partners[vote.key] = []
            index = vote.validator_index
            history = self._history.setdefault(index, [])
            top_source, top_target = self._reach.get(index, (-1, -1))
            if vote.source_height < top_source or vote.target_height <= top_target:
                for violation in find_new_violations(history, vote):
                    old = violation.vote_a
                    partners.append(old)
                    self._partners[old.key].append(vote)
            history.append(vote)
            self._reach[index] = (max(top_source, vote.source_height),
                                  max(top_target, vote.target_height))
        record.partners = partners
        return partners


# ---------------------------------------------------------------------------
# Pool-based justification (per client view): no inclusion requirement.
# ---------------------------------------------------------------------------

class FinalityState:
    """Justified set of one view, updated incrementally as votes arrive.

    Checkpoints must be registered (mark_checkpoint) before votes targeting
    them can be tallied; earlier votes are buffered, as their records.
    `order` gives each registered checkpoint its receipt rank, the number
    registered before it, which fork choice uses, after the height the
    view's tree gives, to rank the justified checkpoints of its chains.
    Whether a vote counts is read from its run record (`VoteRecord.snap`);
    only while the record is unclassified does `on_vote` ask the run to
    classify it.  A client view counts a ready record, classified and with
    a marked target, into `links` itself (`ClientView.receive_vote`), so
    `on_vote` sees only unclassified records and votes ahead of their
    targets.

    The tally keeps no voters: the view hands each vote key over once (its
    receipt map drops repeats), and a countable vote's key is fixed by its
    validator and link, so each validator is counted at most once per link.
    """

    def __init__(self, cache: ChainStateCache):
        root_id = cache.tree.root
        self.cache = cache
        self.order: dict[bytes, int] = {root_id: 0}
        self.links = LinkTally(root_id)
        self._buffer: dict[bytes, list[VoteRecord]] = {}
        self.max_height = 0

    # -- queries ---------------------------------------------------------------

    @property
    def justified(self) -> set[bytes]:
        return self.links.justified

    # -- updates ----------------------------------------------------------------

    def mark_checkpoint(self, cp: bytes, cp_height: int) -> None:
        if cp in self.order:
            return
        self.order[cp] = len(self.order)
        self.max_height = max(self.max_height, cp_height)
        for record in self._buffer.pop(cp, []):
            self.on_vote(record)

    def on_vote(self, record: VoteRecord) -> None:
        """Tally the run record of a signature-valid vote the view has not
        handed over before; buffers it until its target is marked.  A view
        holding the target holds and has marked its whole chain, so a vote
        whose source is not marked then can never count."""
        target = record.link[1]
        if target not in self.order:
            self._buffer.setdefault(target, []).append(record)
            return
        snap = record.snap
        if snap is _UNCLASSIFIED:
            snap = self.cache.classify(record)
        if snap is not None:
            self.links.count(record.link, record.forward, record.rear, snap)


def compute_justified(cache: ChainStateCache, pool: VotePool) -> set[bytes]:
    """Justified checkpoints of the pool: the root plus every target of an
    established link from a justified source.  Links may skip heights."""
    return pool_links(cache, pool).justified


# ---------------------------------------------------------------------------
# Liveness oracle: a two-round plan that always exists and never self-slashes.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LivenessPlan:
    source: bytes               # highest justified checkpoint
    source_height: int
    middle: bytes               # descendant at height max_vote_target + 1
    middle_height: int
    child: bytes                # direct checkpoint child of middle
    votes: tuple[tuple[bytes, bytes, int, int], ...]  # (s, t, h_s, h_t) rounds


def liveness_plan(tree: BlockTree, pool: VotePool, justified: set[bytes],
                  slashed: set[int] = frozenset()) -> LivenessPlan:
    """Plan new links that justify then finalize a fresh checkpoint.

    The first round targets one height above the greatest vote target any
    unslashed validator has published, so it cannot repeat a target height;
    the second round's source is above every prior target, so it cannot be
    nested.  Raises NoExtension when the tree lacks the needed descendants
    (grow the chain first, then re-plan).
    """
    heights = {cp: tree.checkpoint_height(cp) for cp in justified}
    # deterministic: greatest height, lowest id on ties
    h_a = max(heights.values())
    a = min(cp for cp in justified if heights[cp] == h_a)
    h_b = h_a
    for vote in pool.votes:
        if vote.validator_index in slashed:
            continue
        if vote.target_height > h_b:
            h_b = vote.target_height
    middle_h = h_b + 1
    middles = sorted(b.id for b in tree.iter_blocks()
                     if b.height == middle_h * tree.spacing
                     and tree.is_ancestor(a, b.id))
    middle = child = None
    for cand in middles:
        kids = sorted(b.id for b in tree.iter_blocks()
                      if b.height == (middle_h + 1) * tree.spacing
                      and tree.is_ancestor(cand, b.id))
        if kids:
            middle, child = cand, kids[0]
            break
    if middle is None or child is None:
        raise NoExtension(
            f"need checkpoints at heights {middle_h} and {middle_h + 1} under {a.hex()[:8]}")
    votes = ((a, middle, h_a, middle_h),
             (middle, child, middle_h, middle_h + 1))
    return LivenessPlan(a, h_a, middle, middle_h, child, votes)


def plan_safe_for(plan: LivenessPlan, history: list[VoteData]) -> bool:
    """True when executing both planned votes violates no commandment against
    any vote in `history` (nor between the two planned votes themselves).
    An old vote identical to a planned one is the same vote, cast again."""
    for planned in plan.votes:
        _s, _t, hs, ht = planned
        for old in history:
            if (old.source, old.target, old.source_height,
                    old.target_height) == planned:
                continue
            if slashable(hs, ht, old.source_height, old.target_height) is not None:
                return False
    first, second = plan.votes
    return slashable(*first[2:], *second[2:]) is None
