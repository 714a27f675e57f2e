import json
import random
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import ffg.chain
import ffg.finality
import ffg.scenarios
from ffg.chain import Block, Deposit, SlashEvidence, make_block
from ffg.config import ProtocolConfig
from ffg.errors import (DigestMismatch, DuplicateId, NonMonotonicTimestamp,
                        UnknownParent)
from ffg.finality import _UNCLASSIFIED, ChainStateCache
from ffg.fork_choice import ClientView
from ffg.leak import LeakConfig
from ffg.sim import (Behavior, DOUBLE_VOTER, HONEST, SURROUND_VOTER, Network,
                     ScenarioConfig, Simulation, ValidatorSpec, config_from_dict,
                     run)
from ffg.slashing import check_pair, find_new_violations, proven_violation, violates
from ffg.votes import Keyring, VoteClass, VotePool, classify_vote, sign_vote

from conftest import World
from test_acceptance import fuzz_config

NO_LEAK = LeakConfig(rate=Fraction(1, 10**9))
CORPUS = Path(__file__).resolve().parent.parent / "scenarios"


def make_world(weights=(100, 100, 100), spacing=2, delta=4):
    proto = ProtocolConfig(spacing=spacing, delta=delta, withdrawal_delay=10,
                           leak=NO_LEAK)
    return World(proto, list(weights))


def client(w, name="c0"):
    return ClientView(name, w.cache)


def feed_chain(view, w, blocks, t0=None):
    for b in blocks:
        view.receive_block(b, t0 if t0 is not None else b.timestamp)


# -- admissibility classification -------------------------------------------------

def test_future_timestamp_rejected():
    w = make_world()
    blocks = w.grow(2)
    view = client(w)
    view.advance_clock(1)
    assert view.admissible(blocks[1]) is False      # stamped 2
    view.advance_clock(2)
    assert view.admissible(blocks[1]) is True


def test_too_old_judged_when_a_checkpoint_is_first_presented():
    w = make_world(delta=4)
    blocks = w.grow(2)
    cp = blocks[1]                                   # height 2: a checkpoint
    live, stale = client(w, "live"), client(w, "stale")
    feed_chain(live, w, blocks, t0=cp.timestamp + 4)
    feed_chain(stale, w, blocks, t0=cp.timestamp + 5)
    assert live.finalizable[cp.id] is True
    assert stale.finalizable[cp.id] is False
    assert stale.admissible(cp) is True
    # the verdict is fixed on presentation, whatever the clock does later
    live.advance_clock(cp.timestamp + 100)
    assert live.finalizable[cp.id] is True and live.admissible(cp) is True
    # only checkpoints are judged
    assert blocks[0].id not in live.finalizable


def test_missing_evidence_rejection_window():
    w = make_world(delta=4)
    blocks = w.grow(6)
    c1 = blocks[1].id
    view = client(w)
    feed_chain(view, w, blocks)
    heard_at = 10
    a = sign_vote(w.keyring, 0, w.tree.root, c1, 0, 1)
    b = sign_vote(w.keyring, 0, blocks[3].id, c1, 1, 1)   # same target height
    view.receive_vote(a, 9)
    assert view.receive_vote(b, heard_at)                 # violation heard now
    late = make_block(blocks[-1], heard_at + 2 * 4 + 1, None, ())
    w.tree.insert_block(late)
    view.receive_block(late, late.timestamp)
    assert view.admissible(late) is False
    # exactly at the boundary the block still passes
    ontime = make_block(blocks[-1], heard_at + 2 * 4, 1, ())
    w.tree.insert_block(ontime)
    view.receive_block(ontime, late.timestamp)
    assert view.admissible(ontime) is True


def test_evidence_rule_checks_ancestor_chain():
    w = make_world(delta=4)
    blocks = w.grow(6)
    c1 = blocks[1].id
    view = client(w)
    feed_chain(view, w, blocks)
    a = sign_vote(w.keyring, 0, w.tree.root, c1, 0, 1)
    b = sign_vote(w.keyring, 0, blocks[3].id, c1, 1, 1)
    view.receive_vote(a, 9)
    view.receive_vote(b, 10)
    violation = check_pair(a, b)
    carrying = make_block(blocks[-1], 19, None,
                          (SlashEvidence(violation.vote_a, violation.vote_b),))
    w.tree.insert_block(carrying)
    view.receive_block(carrying, 19)
    assert view.admissible(carrying) is True
    follow = make_block(carrying, 25, None, ())
    w.tree.insert_block(follow)
    view.receive_block(follow, 25)
    assert view.admissible(follow) is True
    # the old-stamp rule must not shadow the evidence rule: an evidence-free
    # sibling stamped late-but-old is rejected outright
    stale = make_block(blocks[-1], 20, 1, ())
    w.tree.insert_block(stale)
    view.receive_block(stale, 40)
    assert view.admissible(stale) is False


# -- the evidence rule asks for the violator, not the pair -------------------------

def heard_then_judged(make_proof):
    """A view hears validator 0's double vote (a, b) at 9, so with delta 4 a
    block stamped after 17 needs valid evidence against validator 0 on its
    chain.  A block stamped 10 carries `make_proof(w, a, b, c)`'s evidence
    (c is a third vote of validator 0 for the same target height, which the
    view has not received); returns the view, c, the carrier's state, and
    whether its children stamped 17 and 18 are admissible."""
    w = make_world(delta=4)
    blocks = w.grow(6)                                     # stamped 1..6
    c1 = blocks[1].id
    a = sign_vote(w.keyring, 0, w.tree.root, c1, 0, 1)
    b = sign_vote(w.keyring, 0, blocks[3].id, c1, 1, 1)
    c = sign_vote(w.keyring, 0, blocks[5].id, c1, 1, 1)
    view = client(w)
    feed_chain(view, w, blocks)
    view.receive_vote(a, 8)
    assert view.receive_vote(b, 9)
    carrier = make_block(blocks[-1], 10, None, (make_proof(w, a, b, c),))
    w.tree.insert_block(carrier)
    view.receive_block(carrier, 10)
    verdicts = []
    for stamp in (17, 18):
        child = make_block(carrier, stamp, None, ())
        w.tree.insert_block(child)
        view.receive_block(child, stamp)
        assert view.admissible(child) is rule_admissible(view, child)
        verdicts.append(view.admissible(child))
    return view, c, w.cache.get(carrier.id), verdicts


def test_evidence_for_another_pair_of_the_violator_covers_it():
    view, c, state, verdicts = heard_then_judged(
        lambda w, a, b, c: SlashEvidence(a, c))
    assert state.evidence_against == {0}
    assert verdicts == [True, True]
    # the validator's later pairs are not heard, and the chain still passes
    assert view.receive_vote(c, 19) is None
    assert view._heard == {0: 9}
    assert all(map(view.chain_admissible, view.tree.leaves()))


def test_a_chain_without_evidence_against_the_violator_is_rejected_after_the_deadline():
    _view, _c, state, verdicts = heard_then_judged(
        lambda w, a, b, c: SlashEvidence(
            sign_vote(w.keyring, 1, a.source, a.target, 0, 1),
            sign_vote(w.keyring, 1, b.source, b.target, 1, 1)))
    assert state.evidence_against == {1}
    assert verdicts == [True, False]


def test_a_forged_proof_against_the_violator_does_not_cover_it():
    _view, _c, state, verdicts = heard_then_judged(
        lambda w, a, b, c: SlashEvidence(a, replace(c, signature=bytes(32))))
    assert state.evidence_against == frozenset()
    assert not state.registry.get(0).slashed
    assert verdicts == [True, False]


# -- head selection ------------------------------------------------------------------

def test_single_chain_head_is_tip():
    w = make_world()
    blocks = w.grow(5)
    view = client(w)
    feed_chain(view, w, blocks)
    assert view.head() == blocks[-1].id


def test_justified_height_beats_longest_chain():
    w = make_world(spacing=2)
    # branch A: short but justified to height 2; branch B: longer, unjustified
    a_blocks = w.grow(4)
    b_blocks = w.grow(7, start=w.tree.root, proposer=1)
    c1a, c2a = a_blocks[1].id, a_blocks[3].id
    view = client(w)
    feed_chain(view, w, a_blocks)
    feed_chain(view, w, b_blocks)
    for v in w.votes([0, 1, 2], w.tree.root, c1a):
        view.receive_vote(v, 8)
    for v in w.votes([0, 1, 2], c1a, c2a):
        view.receive_vote(v, 8)
    assert view.head() == a_blocks[-1].id
    assert view.longest_chain_head() == b_blocks[-1].id


def test_never_revert_finalized():
    w = make_world(spacing=2)
    a_blocks = w.grow(4)
    view = client(w)
    feed_chain(view, w, a_blocks)
    c1 = a_blocks[1].id
    # finalize height 1 via an included direct-child link, inside its window
    just = w.votes([0, 1, 2], w.tree.root, c1)
    fin = w.votes([0, 1, 2], c1, a_blocks[3].id)
    carrier = w.include(a_blocks[3], just, timestamp=5)
    carrier2 = w.include(carrier, fin, timestamp=6)
    view.receive_block(carrier, 5)
    view.receive_block(carrier2, 6)
    assert c1 in view.observed_finalized
    # a conflicting branch, longer and with a higher justified claim, is out
    b_blocks = w.grow(10, start=w.tree.root, proposer=1)
    feed_chain(view, w, b_blocks, t0=9)
    for v in w.votes([0, 1, 2], w.tree.root, b_blocks[3].id):   # skip link h0->2
        view.receive_vote(v, 9)
    head = view.head()
    assert w.tree.is_ancestor(c1, head)
    assert head == carrier2.id


def test_first_seen_finalized_is_write_once():
    w = make_world(spacing=2)
    a_blocks = w.grow(2)
    b_blocks = w.grow(2, start=w.tree.root, proposer=1)
    view = client(w)
    feed_chain(view, w, a_blocks)
    feed_chain(view, w, b_blocks)
    view.on_finalized(a_blocks[1].id)
    assert view.first_seen_finalized[1] == a_blocks[1].id
    view.on_finalized(b_blocks[1].id)          # conflicting, later: ignored
    assert view.first_seen_finalized[1] == a_blocks[1].id
    assert view.ignored_finalized == [(1, b_blocks[1].id)]
    view.on_finalized(a_blocks[1].id)          # re-announcement: no change
    assert view.first_seen_finalized[1] == a_blocks[1].id


def test_swapped_arrival_order_diverges_heads():
    w = make_world(spacing=2)
    a_blocks = w.grow(2)
    b_blocks = w.grow(2, start=w.tree.root, proposer=1)
    va = client(w, "va")
    vb = client(w, "vb")
    for view in (va, vb):
        feed_chain(view, w, a_blocks)
        feed_chain(view, w, b_blocks)
    va.on_finalized(a_blocks[1].id)
    va.on_finalized(b_blocks[1].id)
    vb.on_finalized(b_blocks[1].id)
    vb.on_finalized(a_blocks[1].id)
    assert va.head() != vb.head()
    assert w.tree.is_ancestor(a_blocks[1].id, va.head())
    assert w.tree.is_ancestor(b_blocks[1].id, vb.head())


# -- the stuck construction: longest-chain cannot extend to finality ------------------

def build_stuck_world():
    """All validators followed the justified chain A; the proposer kept
    building the longer chain B.  Every vote that could justify a new B
    checkpoint now violates a commandment for every validator."""
    w = make_world(spacing=2)
    trunk = w.grow(2)                       # c1 at height 1
    c1 = trunk[1].id
    a_blocks = w.grow(4, start=c1)          # c2a, c3a
    b_blocks = w.grow(7, start=c1, proposer=1)
    c2a, c3a = a_blocks[1].id, a_blocks[3].id
    history = {}
    for i in (0, 1, 2):
        history[i] = [w.vote(i, w.tree.root, c1),
                      w.vote(i, c1, c2a),
                      w.vote(i, c2a, c3a)]
    return w, trunk, a_blocks, b_blocks, history


def test_stuck_scenario_diverges_and_blocks_b_side():
    w, trunk, a_blocks, b_blocks, history = build_stuck_world()
    view = client(w)
    feed_chain(view, w, trunk)
    feed_chain(view, w, a_blocks)
    feed_chain(view, w, b_blocks)
    for votes in history.values():
        for v in votes:
            view.receive_vote(v, 8)
    assert view.head() == a_blocks[-1].id
    assert view.longest_chain_head() == b_blocks[-1].id

    # every candidate vote justifying a B-side checkpoint violates I or II
    justified_on_b = [(w.tree.root, 0), (trunk[1].id, 1)]
    b_cps = [(b.id, w.tree.require_checkpoint(b.id))
             for b in b_blocks if b.height % 2 == 0]
    for target, h_t in b_cps:
        for _source, h_s in justified_on_b:
            if h_s >= h_t:
                continue
            for i, votes in history.items():
                hits = [v for v in votes
                        if v.target_height == h_t
                        or violates(h_s, h_t, v.source_height, v.target_height)]
                assert hits, f"validator {i} could safely vote ({h_s},{h_t})"


def test_stuck_scenario_justified_rule_finalizes():
    w, trunk, a_blocks, b_blocks, history = build_stuck_world()
    c3a = a_blocks[3].id
    # two more epochs on the justified branch finalize a new checkpoint
    ext = w.grow(4, start=c3a)
    c4a, c5a = ext[1].id, ext[3].id
    v4 = w.votes([0, 1, 2], c3a, c4a)
    v5 = w.votes([0, 1, 2], c4a, c5a)
    for i, vs in history.items():
        for new in (v4[i], v5[i]):
            for old in vs:
                assert check_pair(old, new) is None
    # justification-by-inclusion needs the whole link chain on this chain;
    # only the finalizing links are deadline-bound
    older = [v for vs in history.values() for v in vs]
    carrier = w.include(ext[3], older + v4, timestamp=ext[3].timestamp + 1)
    carrier = w.include(carrier, v5, timestamp=carrier.timestamp + 1)
    state = w.cache.get(carrier.id)
    assert c4a in state.finalized_at


# -- memoized chain admissibility and the justified tip, against the old walks --------

# ChainStateCache -> {block id: the validators `proven_violators` found}
_PROVEN = weakref.WeakKeyDictionary()


def proven_violators(cache, block_id):
    """Reference: the validators that the slashing evidence on the chain from
    the root to `block_id` proves a violation against, judged transaction by
    transaction with `proven_violation`.  Blocks are frozen, so each block's
    answer is kept per run and extended by its children."""
    memo = _PROVEN.setdefault(cache, {cache.tree.root: frozenset()})
    path = []
    cursor = block_id
    while cursor not in memo:
        path.append(cursor)
        cursor = cache.tree.get(cursor).parent
    proven = memo[cursor]
    for bid in reversed(path):
        proven = proven | {tx.first.validator_index
                           for tx in cache.tree.get(bid).payload
                           if isinstance(tx, SlashEvidence)
                           and proven_violation(cache.keyring, tx) is not None}
        memo[bid] = proven
    return proven


def rule_rejects(view, block):
    """Reference: the future-stamp and evidence rules evaluated directly on
    the view's heard violators, with no memo: a validator heard more than
    2*delta before the block's stamp against whom the block's chain holds no
    valid evidence rejects it."""
    if block.timestamp > view.clock:
        return True
    latest = block.timestamp - 2 * view.cfg.delta
    return any(heard_at < latest
               and validator not in proven_violators(view.cache, block.id)
               for validator, heard_at in view._heard.items())


def rule_admissible(view, block):
    """Reference: `admissible` from `rule_rejects`."""
    return not rule_rejects(view, block)


def walk_chain_admissible(view, leaf, verdicts=None):
    """Reference: classify every block from `leaf` back to the root.
    `verdicts` (block id -> rejected) shares the classification between
    walks made while the view does not change."""
    verdicts = {} if verdicts is None else verdicts
    cursor = view.tree.get(leaf)
    while cursor.height > 0:
        if cursor.id not in verdicts:
            verdicts[cursor.id] = rule_rejects(view, cursor)
        if verdicts[cursor.id]:
            return False
        cursor = view.tree.get(cursor.parent)
    return True


def scan_justified_tip(view, bid, below=None):
    """Reference: test every justified checkpoint for ancestry of `bid`; the
    greatest height wins, then the earliest receipt, then the lowest id."""
    fs = view.fstate
    cands = [cp for cp in fs.justified
             if cp in view.tree and view.tree.is_ancestor(cp, bid)
             and (below is None or view.tree.require_checkpoint(cp) < below)]
    cands.append(view.tree.root)
    return min(cands, key=lambda cp: (-view.tree.require_checkpoint(cp),
                                      fs.order[cp], cp))


def scan_head(view, verdicts=None):
    """Reference: the head rule over the two walks above."""
    fs = view.fstate
    ranked = []
    for leaf in view.tree.leaves():
        if view.tree.is_ancestor(view.finalized_anchor, leaf) \
                and walk_chain_admissible(view, leaf, verdicts):
            tip = scan_justified_tip(view, leaf)
            ranked.append(((-view.tree.require_checkpoint(tip), fs.order[tip], tip),
                           -view.tree.get(leaf).height, leaf))
    return min(ranked)[2] if ranked else view.finalized_anchor


def watch_evidence_checks(view, note):
    """Call `note(block, on_chain)` at each evidence-rule check the view
    makes: `on_chain` is true when `_judge` judges the block on its chain
    for `chain_admissible`, and false when `admissible` judges a block
    alone."""
    judge, evidence_rejects = view._judge, view._evidence_rejects
    judging = []

    def watched_judge(parent_rejected, block):
        judging.append(block)
        try:
            return judge(parent_rejected, block)
        finally:
            judging.pop()

    def watched_evidence_rejects(block):
        note(block, bool(judging))
        return evidence_rejects(block)

    view._judge = watched_judge
    view._evidence_rejects = watched_evidence_rejects


def count_shortcuts(view, shortcuts):
    """Count, in `shortcuts`, each time the view judges a block by the
    evidence rule outside the chain memo: `admissible`'s check of a block
    alone."""
    def note(_block, on_chain):
        if not on_chain:
            shortcuts["block alone"] += 1
    watch_evidence_checks(view, note)


def check_against_walks(view, outcomes):
    """Compare the view's `chain_admissible`, `admissible` and `head()` with
    the reference walks, counting each leaf's verdict in `outcomes`."""
    verdicts = {}
    for leaf in view.tree.leaves():
        assert view.cache.get(leaf).evidence_against \
            == proven_violators(view.cache, leaf)
        ok = view.chain_admissible(leaf)
        assert ok == walk_chain_admissible(view, leaf, verdicts)
        outcomes["admissible" if ok else "rejected"] += 1
        block = view.tree.get(leaf)
        assert view.admissible(block) is rule_admissible(view, block)
    assert view.head() == scan_head(view, verdicts)


def check_tips_against_scans(view, outcomes):
    """Compare the view's justified tips with the reference scan, counting
    each leaf's tip in `outcomes`."""
    for leaf in view.tree.leaves():
        tip = view.justified_tip(leaf)
        assert tip == scan_justified_tip(view, leaf)
        outcomes["justified" if tip != view.tree.root else "root"] += 1
        target = view.tree.latest_checkpoint(leaf)
        h_t = view.tree.require_checkpoint(target)
        assert view.justified_tip(target, below=h_t) \
            == scan_justified_tip(view, target, below=h_t)


class CheckedSimulation(Simulation):
    """Compares the receiving view with the reference walks after every
    delivery of one of `kinds`."""

    def __init__(self, cfg, kinds=("block", "vote")):
        super().__init__(cfg)
        self.kinds = kinds
        self.outcomes = Counter()
        self.shortcuts = Counter()
        for view in self.views.values():
            count_shortcuts(view, self.shortcuts)

    def deliver(self, kind, payload, names, now):
        for name in names:
            super().deliver(kind, payload, [name], now)
            if kind in self.kinds:
                check_against_walks(self.views[name], self.outcomes)
                check_tips_against_scans(self.views[name], self.outcomes)


def checked_run(cfg):
    sim = CheckedSimulation(cfg)
    sim.run_loop()
    return sim.outcomes


def long_horizon_shaped(seed, epochs=12):
    """20 equal validators, three double voters, a fork in one block of five."""
    rng = random.Random(seed)
    behaviors = {i: Behavior(DOUBLE_VOTER, rng.randint(1, 3))
                 for i in rng.sample(range(20), 3)}
    proto = ProtocolConfig(spacing=5, delta=2, withdrawal_delay=50,
                           leak=LeakConfig(rate=Fraction(1, 10)))
    validators = tuple(ValidatorSpec(i, 100, behaviors.get(i, Behavior(HONEST)))
                       for i in range(20))
    return ScenarioConfig(name=f"long{seed}", seed=seed, protocol=proto,
                          validators=validators, duration_epochs=epochs,
                          observers=2, proposer_fork_rate=Fraction(1, 5))


def test_memoized_fork_choice_matches_walks_on_fuzz_worlds():
    outcomes = Counter()
    for seed in range(12):
        outcomes += checked_run(fuzz_config(seed))
    # both verdicts and non-root justified tips occur, so no check is vacuous
    assert min(outcomes.values()) > 0, outcomes


def test_memoized_fork_choice_matches_walks_on_long_horizon_world():
    outcomes = checked_run(long_horizon_shaped(7))
    assert min(outcomes.values()) > 0, outcomes


SCRIPTED_CORPUS = ("dyn_attack_nostitch.json", "dyn_attack_stitch.json",
                   "long_range_omega3.json", "long_range_omega5.json",
                   "split_finality.json")


def test_memoized_fork_choice_matches_walks_on_scripted_corpus(monkeypatch):
    # scripted runs deliver fork blocks late, which generic runs never do
    pins = json.loads((CORPUS / "digests.json").read_text())
    outcomes = []
    deliver = Network.deliver

    def checked_deliver(net, kind, payload, names, now):
        for name in names:
            deliver(net, kind, payload, [name], now)
            check_against_walks(net.views[name], outcomes[-1])
    monkeypatch.setattr(Network, "deliver", checked_deliver)
    for name in SCRIPTED_CORPUS:
        outcomes.append(Counter())
        cfg = config_from_dict(json.loads((CORPUS / name).read_text()))
        assert run(cfg).digest() == pins[name]
        assert outcomes[-1]["admissible"] > 0
    # leaves rejected by the evidence rule, summed over the deliveries
    assert [counts["rejected"] for counts in outcomes] == [0, 0, 794, 1234, 0]


def check_finality_scan(view, block, outcomes):
    """After `block` entered the view's tree: each checkpoint its chain state
    finalized is observed, never finalizable in the view, or carried by a
    block that `admissible` rejects now; counts each case in `outcomes`."""
    for cp, fin_height in view.cache.get(block.id).finalized_at.items():
        if cp in view.observed_finalized:
            outcomes["observed"] += 1
        elif not view.finalizable[cp]:
            outcomes["never finalizable"] += 1
        else:
            carrier = view.tree.get(view.tree.ancestor_at(block.id, fin_height))
            assert view.admissible(carrier) is False, cp.hex()
            outcomes["rejected carrier"] += 1


def finalizing_chain():
    """A world and its chain from the root, stamped with their heights, whose
    next-to-last block carries the finalization of the first checkpoint and
    whose last block is that carrier's child."""
    w = make_world()
    E = w.proto.spacing
    blocks = [w.tree.get(w.tree.root)]
    for h in range(1, 2 * E + 3):
        votes = []
        if h == E + 1:
            votes = w.votes([0, 1, 2], w.tree.root, blocks[E].id)
        elif h == 2 * E + 1:
            votes = w.votes([0, 1, 2], blocks[E].id, blocks[2 * E].id)
        blocks.append(w.include(blocks[-1], votes, timestamp=h))
    return w, blocks


def test_skipped_finality_scans_miss_no_finalized_checkpoint(monkeypatch):
    # scripted runs deliver blocks late, so some carriers are rejected
    # before a later delivery on the same chain accepts them
    pins = json.loads((CORPUS / "digests.json").read_text())
    outcomes = Counter()

    deliver = Network.deliver

    def checked(net, kind, payload, names, now):
        for name in names:
            view = net.views[name]
            fresh = kind == "block" and payload.id not in view.tree
            deliver(net, kind, payload, [name], now)
            if fresh and payload.id in view.tree:
                check_finality_scan(view, payload, outcomes)
    monkeypatch.setattr(Network, "deliver", checked)
    monkeypatch.setattr(Simulation, "deliver", checked)
    for name in SCRIPTED_CORPUS:
        cfg = config_from_dict(json.loads((CORPUS / name).read_text()))
        assert run(cfg).digest() == pins[name]
    for seed in range(12):
        run(fuzz_config(seed))
    assert outcomes["observed"] > 0 and outcomes["never finalizable"] > 0, outcomes
    # no such run rejects a carrier that a later delivery accepts, so also
    # deliver a finalizing chain before its carrier's stamp, then a child
    w, blocks = finalizing_chain()
    carrier, child = blocks[-2:]
    c1 = blocks[w.proto.spacing].id
    assert c1 in w.cache.get(carrier.id).finalized_at
    assert w.cache.get(child.id).finalized_at is w.cache.get(carrier.id).finalized_at
    view = client(w)
    early = Counter()
    for block in blocks[1:-1]:
        view.receive_block(block, 3)         # the carrier is stamped 5
        check_finality_scan(view, block, early)
    assert c1 not in view.observed_finalized and early["rejected carrier"] == 1
    view.receive_block(child, carrier.timestamp)
    check_finality_scan(view, child, early)
    assert c1 in view.observed_finalized


@pytest.mark.xfail(strict=True, reason=(
    "late finality, ROADMAP item 4: a view looks for newly finalized "
    "checkpoints only when a block enters its tree, not when its clock "
    "passes the stamp of a carrier it rejected"))
def test_a_carrier_rejected_for_its_stamp_finalizes_once_the_clock_passes_it():
    w, blocks = finalizing_chain()
    carrier = blocks[-2]
    c1 = blocks[w.proto.spacing].id
    view = client(w)
    for block in blocks[1:-1]:
        view.receive_block(block, 3)         # the carrier is stamped 5
    assert c1 not in view.observed_finalized
    view.advance_clock(carrier.timestamp)
    assert view.admissible(carrier)
    assert c1 in view.observed_finalized


class EvidenceHoldingSimulation(CheckedSimulation):
    """Evidence the agents submit in ticks [start, end) reaches the proposer
    only at tick `end`, so the blocks proposed in between lack it and their
    chains are rejected.  In a plain run the proposer includes evidence in
    the next block, and no chain is rejected by the evidence rule."""

    def __init__(self, cfg, start, end, **kwargs):
        super().__init__(cfg, **kwargs)
        self.hold = (start, end)
        self.held = []

    def submit_evidence(self, violation, now):
        start, end = self.hold
        if start <= now < end:
            self.held.append(violation)
        else:
            super().submit_evidence(violation, now)

    def propose(self, now):
        if now == self.hold[1]:
            for violation in self.held:
                super().submit_evidence(violation, now)
        super().propose(now)


def test_evidence_shortcuts_match_the_rule_on_a_deep_long_horizon_world():
    # the three double voters are first reported at ticks 14, 15 and 20,
    # and later violations are not reported again, so the evidence is held
    # over those ticks; checked at block deliveries, where new blocks meet
    # the memo
    sim = EvidenceHoldingSimulation(long_horizon_shaped(7, epochs=20), 10, 30,
                                    kinds=("block",))
    sim.run_loop()
    assert min(sim.outcomes.values()) > 0, sim.outcomes
    assert set(sim.shortcuts) == {"block alone"}
    assert min(sim.shortcuts.values()) > 0, sim.shortcuts


def two_violations(w, blocks):
    """Two double votes, by validators 0 and 1, for the same checkpoint."""
    c1 = blocks[1].id
    return [(sign_vote(w.keyring, i, w.tree.root, c1, 0, 1),
             sign_vote(w.keyring, i, blocks[3].id, c1, 1, 1)) for i in (0, 1)]


def count_judgments(view):
    """Count the blocks `_judge` judges by the evidence rule, by id."""
    judged = Counter()

    def note(block, on_chain):
        if on_chain:
            judged[block.id] += 1
    watch_evidence_checks(view, note)
    return judged


def test_evidence_heard_after_clean_memo_rejects_chain():
    w = make_world(delta=2)
    blocks = w.grow(4)                       # stamped 1..4
    (a0, b0), (a1, b1) = two_violations(w, blocks)
    first = check_pair(a0, b0)
    carrier = make_block(blocks[-1], 5, None,
                         (SlashEvidence(first.vote_a, first.vote_b),))
    w.tree.insert_block(carrier)
    blocks += [carrier] + w.grow(7, start=carrier.id)      # stamped 5..12
    view = client(w)
    feed_chain(view, w, blocks[:4])
    view.receive_vote(a0, 4)
    assert view.receive_vote(b0, 4)          # rejects blocks stamped after 8
    feed_chain(view, w, blocks[4:], t0=5)    # the rest arrive stamped ahead
    assert view.chain_admissible(carrier.id)
    # memoized clean against the first violation, whose evidence it includes
    assert view._rejected == {w.tree.root: False} | {b.id: False for b in blocks[:5]}
    view.receive_vote(a1, 5)
    assert view.receive_vote(b1, 5)          # rejects blocks stamped after 9
    view.advance_clock(12)
    leaf = blocks[-1].id
    assert not view.chain_admissible(leaf)
    assert not walk_chain_admissible(view, leaf)
    # the first block stamped after 9 rejects the chain, and so every block
    # between it and the leaf
    assert [view._rejected[b.id] for b in blocks] == [False] * 9 + [True] * 3
    # the prefix up to the block stamped 9 is still clean
    assert view.chain_admissible(blocks[8].id)
    assert walk_chain_admissible(view, blocks[8].id)
    for block in blocks:
        assert view.admissible(block) is rule_admissible(view, block)


def test_violation_heard_early_after_the_blocks_rejects_them():
    w = make_world(delta=4)
    blocks = w.grow(12)                      # stamped 1..12
    view = client(w)
    judged = count_judgments(view)
    feed_chain(view, w, blocks, t0=2)        # every block but one stamped ahead
    (a0, b0), _ = two_violations(w, blocks)
    view.receive_vote(a0, 2)
    assert view.receive_vote(b0, 2)          # rejects blocks stamped after 10
    leaf = blocks[-1].id
    assert not view.chain_admissible(leaf)   # stamped ahead of the clock
    assert not judged
    view.advance_clock(12)
    assert not view.chain_admissible(leaf)
    assert not walk_chain_admissible(view, leaf)
    # judged top down up to the first rejected block, which marks the leaf
    assert judged == Counter({b.id: 1 for b in blocks[:11]})
    assert view._rejected[leaf] and view._rejected[blocks[10].id]
    assert not any(view._rejected[b.id] for b in blocks[:10])
    for block in blocks:
        assert view.admissible(block) is rule_admissible(view, block)
    assert view.admissible(blocks[10]) is False
    assert view.chain_admissible(blocks[9].id)
    assert view.head() == w.tree.root        # no admissible leaf: the finalized anchor
    # every verdict is final: nothing is judged again
    assert judged == Counter({b.id: 1 for b in blocks[:11]})


def test_a_violation_heard_before_the_clock_raises():
    w = make_world(delta=4)
    blocks = w.grow(6)                       # stamped 1..6
    c1 = blocks[1].id
    view = client(w)
    feed_chain(view, w, blocks)              # the clock is at 6
    (a0, b0), _ = two_violations(w, blocks)
    honest = sign_vote(w.keyring, 2, w.tree.root, c1, 0, 1)
    view.receive_vote(a0, 6)
    # a late vote that exposes no violation is still tallied
    assert view.receive_vote(honest, 3) is None
    assert view.fstate.links.tallies[(w.tree.root, c1)] == (200, 0)
    assert list(view._received) == [a0.key, honest.key]
    with pytest.raises(NonMonotonicTimestamp):
        view.receive_vote(b0, 5)
    assert view._heard == {}
    assert view.clock == 6
    # the vote stays received, uncounted
    assert view.votes == [a0, honest, b0]
    assert view.fstate.links.tallies[(w.tree.root, c1)] == (200, 0)


def test_future_stamped_leaf_admissible_once_clock_passes():
    w = make_world(delta=4)
    blocks = w.grow(6)                       # stamped 1..6
    view = client(w)
    (a0, b0), _ = two_violations(w, blocks)
    view.receive_vote(a0, 0)
    feed_chain(view, w, blocks, t0=3)        # the clock stays at 3
    view.receive_vote(b0, 3)                 # violation heard at 3: window ends at 11
    leaf = blocks[-1].id
    assert not view.chain_admissible(leaf)
    assert not walk_chain_admissible(view, leaf)
    assert view.head() == w.tree.root        # no admissible leaf: the finalized anchor
    view.advance_clock(6)
    assert view.chain_admissible(leaf)
    assert walk_chain_admissible(view, leaf)
    assert view.head() == leaf


# -- per-run verdicts, against the per-view work they replace -------------------------

def scan_new_violations(view, vote):
    """Reference: the vote checked pairwise against its validator's votes
    among the view's receipts, in receipt order, keeping the first violation
    when the view has heard none by that validator."""
    if vote.key in view._received or not view.cache.keyring.verify(vote):
        return []
    if vote.validator_index in view._heard:
        return []
    history = [v for v in view.votes if v.validator_index == vote.validator_index]
    return find_new_violations(history, vote)[:1]


def recount_tallies(view, countable):
    """Reference: the (forward, rear) tally of every link, summed afresh
    over the received votes that `classify_vote` finds countable on the
    view's own tree, each validator once per link.  `countable` maps the votes found countable at earlier
    calls to their target's snapshot; a view's tree only grows, so they stay
    countable and are not classified again."""
    def snapshot_for(cp):
        return view.cache.snapshot_for(cp) if cp in view.tree else None

    members: dict[tuple, dict] = {}
    for vote in view.votes:
        snap = countable.get(vote)
        if snap is None:
            if classify_vote(view.tree, snapshot_for, view.cache.keyring,
                             vote) is not VoteClass.COUNTABLE:
                continue
            snap = countable[vote] = snapshot_for(vote.target)
        link = members.setdefault((vote.source, vote.target), {})
        link.setdefault(vote.validator_index, snap)
    return {link: (sum(snap.forward.get(i, 0) for i, snap in voters.items()),
                   sum(snap.rear.get(i, 0) for i, snap in voters.items()))
            for link, voters in members.items()}


class VerdictCheckedSimulation(Simulation):
    """Compares the receiving view with the per-view references after every
    delivery: the violations it newly heard, in order and orientation, and
    its link tallies."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.outcomes = Counter()
        self.countable = {name: {} for name in self.views}
        for view in self.views.values():
            view.receive_vote = self._recording(view.receive_vote)

    def _recording(self, receive_vote):
        def recorded(vote, now, record=None):
            self.returned = receive_vote(vote, now, record)
            return self.returned
        return recorded

    def deliver(self, kind, payload, names, now):
        for name in names:
            view = self.views[name]
            expected = scan_new_violations(view, payload) if kind == "vote" else []
            heard = list(view._heard.items())
            self.returned = None
            super().deliver(kind, payload, [name], now)
            got = [] if self.returned is None else [self.returned]
            assert got == expected      # Violation equality compares vote_a, vote_b
            # a violator is heard once, appended at the delivery time
            assert list(view._heard.items()) \
                == heard + [(v.validator_index, now) for v in got]
            assert view.fstate.links.tallies == recount_tallies(view, self.countable[name])
            self.outcomes["violations"] += len(got)
            self.outcomes["tallied links"] += len(view.fstate.links.tallies)


def verdict_checked_run(cfg):
    sim = VerdictCheckedSimulation(cfg)
    sim.run_loop()
    return sim.outcomes


def wide_set_shaped(seed):
    """48 equal validators, three of them double or surround voters (both
    kinds) from epoch 3, one chain, six epochs."""
    rng = random.Random(seed)
    bad = rng.sample(range(48), 48 * 8 // 100)
    behaviors = {i: Behavior(kind, 3)
                 for i, kind in zip(bad, [DOUBLE_VOTER, SURROUND_VOTER] * 2)}
    proto = ProtocolConfig(spacing=5, delta=2, withdrawal_delay=50,
                           leak=LeakConfig(rate=Fraction(1, 10)))
    validators = tuple(ValidatorSpec(i, 100, behaviors.get(i, Behavior(HONEST)))
                       for i in range(48))
    return ScenarioConfig(name=f"wide{seed}", seed=seed, protocol=proto,
                          validators=validators, duration_epochs=6,
                          observers=2)


def test_shared_verdicts_match_per_view_checks_on_fuzz_worlds():
    outcomes = Counter()
    for seed in range(12):
        outcomes += verdict_checked_run(fuzz_config(seed))
    assert min(outcomes.values()) > 0, outcomes


def test_shared_verdicts_match_per_view_checks_when_delta_exceeds_the_spacing():
    # delta 9 against a spacing of 5: views receive a validator's votes out
    # of order, so views hear a validator after differing sets of its votes,
    # and a vote received only by views that had heard it is never checked
    outcomes = Counter()
    for seed in range(12):
        cfg = fuzz_config(seed)
        outcomes += verdict_checked_run(replace(
            cfg, protocol=replace(cfg.protocol, delta=9),
            proposer_fork_rate=Fraction(1, 4)))
    assert min(outcomes.values()) > 0, outcomes


def test_shared_verdicts_match_per_view_checks_on_wide_set_world():
    outcomes = verdict_checked_run(wide_set_shaped(5))
    assert min(outcomes.values()) > 0, outcomes


def count_block_digests(monkeypatch):
    calls = Counter()
    original = ffg.chain.block_id

    def counted(*args, **kwargs):
        calls["digests"] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(ffg.chain, "block_id", counted)
    return calls


def test_tampered_block_with_known_id_is_rejected(monkeypatch):
    w = make_world()
    blocks = w.grow(3)
    view = client(w)
    feed_chain(view, w, blocks[:2])
    real = blocks[2]
    tampered = Block(real.id, real.parent, real.height, real.timestamp,
                     real.proposer, (Deposit(7, b"\x07" * 32, 100),))
    calls = count_block_digests(monkeypatch)
    with pytest.raises(DigestMismatch):
        view.receive_block(tampered, real.timestamp)
    assert real.id not in view.tree and calls["digests"] == 1
    # an equal copy is another object, so it is hashed too, and accepted
    view.receive_block(replace(real), real.timestamp)
    assert real.id in view.tree and calls["digests"] == 2


def test_shared_tree_blocks_skip_the_digest_others_are_hashed(monkeypatch):
    w = make_world()
    blocks = w.grow(2)
    # never inserted in w.tree
    stray = make_block(blocks[-1], blocks[-1].timestamp + 1, 1, ())
    view = client(w)
    calls = count_block_digests(monkeypatch)
    feed_chain(view, w, blocks)
    assert calls["digests"] == 0
    view.tree.insert_block(stray)
    assert stray.id in view.tree and calls["digests"] == 1


def test_view_tree_checks_duplicates_and_parents_of_shared_tree_blocks():
    w = make_world()
    blocks = w.grow(3)
    view = client(w)
    with pytest.raises(UnknownParent):
        view.tree.insert_block(blocks[1])        # held by the shared tree
    view.tree.insert_block(blocks[0])
    with pytest.raises(DuplicateId):
        view.tree.insert_block(blocks[0])
    assert list(view.tree.blocks) == [w.tree.root, blocks[0].id]


def test_other_objects_are_checked_in_full(monkeypatch):
    w = make_world()
    blocks = w.grow(3)
    view = client(w)
    feed_chain(view, w, blocks[:2])
    parent, real = blocks[1], blocks[2]

    def digested(height, timestamp, payload):
        """A block whose id is the digest of its own fields."""
        bid = ffg.chain.block_id(parent.id, height, timestamp, real.proposer,
                                 payload)
        return Block(bid, parent.id, height, timestamp, real.proposer, payload)

    too_high = digested(real.height + 1, real.timestamp, ())
    stale = digested(real.height, parent.timestamp, ())
    calls = count_block_digests(monkeypatch)
    with pytest.raises(DigestMismatch):
        view.tree.insert_block(too_high)
    with pytest.raises(NonMonotonicTimestamp):
        view.tree.insert_block(stale)
    tampered = replace(real, payload=(Deposit(7, b"\x07" * 32, 100),))
    with pytest.raises(DigestMismatch):
        view.tree.insert_block(tampered)
    with pytest.raises(DigestMismatch):
        view.tree.insert_block(replace(real, height=real.height + 1))
    assert real.id not in view.tree and len(view.tree) == 3
    # only the tampered payload got as far as the digest
    assert calls["digests"] == 1


def test_a_block_entry_looks_its_chain_state_up_once(monkeypatch):
    net = Network(ScenarioConfig(validators=(ValidatorSpec(0, 100),),
                                 protocol=make_world().proto), ["a", "b", "c"])
    b1 = net.tree.extend(net.tree.root, 1, None)
    b2 = net.tree.extend(b1.id, 2, None)
    lookups = Counter()
    get = ChainStateCache.get

    def counted(cache, bid):
        lookups[bid] += 1
        return get(cache, bid)
    monkeypatch.setattr(ChainStateCache, "get", counted)
    # one lookup per entry for all the views it names; the child reaches
    # "c" before its parent, so "c" buffers it, and on release looks the
    # child's state up itself
    net.send("block", b1, 2, ["a", "b"])
    net.send("block", b2, 3, ["a", "b", "c"])
    net.send("block", b1, 4, ["c"])
    net.deliver_due(4)
    assert lookups == Counter({b1.id: 2, b2.id: 2})
    for view in net.views.values():
        assert list(view.tree.blocks) == [net.tree.root, b1.id, b2.id]


def test_forged_copy_of_a_vote_is_neither_counted_nor_reported(monkeypatch):
    w = make_world()
    blocks = w.grow(4)
    c1 = blocks[1].id
    first = client(w, "first")
    second = client(w, "second")
    for view in (first, second):
        feed_chain(view, w, blocks)
    honest = sign_vote(w.keyring, 1, w.tree.root, c1, 0, 1)
    a = sign_vote(w.keyring, 0, w.tree.root, c1, 0, 1)
    b = sign_vote(w.keyring, 0, blocks[3].id, c1, 1, 1)     # double vote with a
    forged_honest = replace(honest, signature=bytes(32))
    forged_b = replace(b, signature=bytes(32))
    # the first view makes the run classify the genuine votes
    first.receive_vote(honest, 5)
    first.receive_vote(a, 5)
    assert first.receive_vote(b, 5)
    assert classify_vote(w.tree, w.cache.snapshot_for, w.keyring,
                         forged_honest) is VoteClass.INVALID
    # the second view is handed the forgeries: nothing counts or is heard
    second.receive_vote(a, 6)
    judged = Counter()
    for name in ("classify", "conflict_partners"):
        original = getattr(ChainStateCache, name)

        def counted(cache, arg, name=name, original=original):
            judged[name] += 1
            return original(cache, arg)
        monkeypatch.setattr(ChainStateCache, name, counted)
    assert second.receive_vote(forged_honest, 6) is None
    assert second.receive_vote(forged_b, 6) is None
    assert not judged
    for forged in (forged_honest, forged_b):
        record = w.cache.record(forged)
        assert not record.valid and record.partners is None
        assert record.snap is _UNCLASSIFIED
        assert all(v is not forged for v in second.votes)
    assert second.votes == [a]
    assert list(second._received) == [a.key]
    assert second.fstate.links.tallies[(w.tree.root, c1)] == (100, 0)
    assert not second._heard
    # the genuine votes still count and are still reported afterwards
    second.receive_vote(honest, 7)
    assert list(second._received) == [a.key, honest.key]
    assert second.fstate.links.tallies[(w.tree.root, c1)] == (200, 0)
    violation = second.receive_vote(b, 7)
    assert (violation.vote_a, violation.vote_b) == (a, b)


def test_each_view_hears_violations_in_its_own_receipt_order():
    w = make_world()
    a = w.grow(4)                                    # checkpoints at 1 and 2
    b = w.grow(4, start=w.tree.root, proposer=1)     # a fork, the same heights
    c1, c2, fork_c2 = a[1].id, a[3].id, b[3].id
    root = w.tree.root
    # three votes by validator 0 for checkpoints at height 2, on three
    # links: every two are a double vote
    votes = [sign_vote(w.keyring, 0, root, c2, 0, 2),
             sign_vote(w.keyring, 0, c1, c2, 1, 2),
             sign_vote(w.keyring, 0, root, fork_c2, 0, 2)]
    for view, order in ((client(w, "forward"), votes),
                        (client(w, "backward"), votes[::-1])):
        feed_chain(view, w, a + b)
        heard = [view.receive_vote(vote, 9) for vote in order]
        # the validator's first pair in receipt order, oriented (earlier
        # receipt, incoming); its later pairs are not heard
        assert heard[0] is None and heard[2] is None
        assert (heard[1].vote_a, heard[1].vote_b) == (order[0], order[1])
        assert view.votes == order
        assert view._received == {vote.key: i for i, vote in enumerate(order)}
        tallies = {(root, c2): (100, 0), (c1, c2): (100, 0),
                   (root, fork_c2): (100, 0)}
        assert view.fstate.links.tallies == tallies
        assert c2 not in view.fstate.justified
        log = dict(view._heard)
        assert log == {0: 9}
        # a second delivery of each key, as the object or a copy, changes nothing
        for vote in order + [replace(vote) for vote in order]:
            assert view.receive_vote(vote, 9) is None
        assert view.votes == order and view._heard == log
        assert view.fstate.links.tallies == tallies


def test_a_generic_run_builds_one_vote_pool(monkeypatch):
    built = []
    init = VotePool.__init__

    def counted(pool, keyring):
        built.append(pool)
        init(pool, keyring)
    monkeypatch.setattr(VotePool, "__init__", counted)
    sim = Simulation(fuzz_config(3))
    sim.run_loop()
    assert built == [sim.pool]
    for view in sim.views.values():
        assert view.votes and len(view.votes) == len(view._received)
        assert all(len(entry) == 2 for entry in view.fstate.links.tallies.values())


# -- one run record per vote object ---------------------------------------------------

def count_calls_per_vote(monkeypatch, cls, name, calls, votes):
    """Wrap `cls.name(self, vote)` to count its calls per vote object;
    `votes` keeps each counted vote alive, so ids stay distinct."""
    original = getattr(cls, name)

    def counted(self, vote):
        votes[id(vote)] = vote
        calls[id(vote)] += 1
        return original(self, vote)
    monkeypatch.setattr(cls, name, counted)


def count_classifications(monkeypatch, calls, votes):
    """Wrap `ChainStateCache.classify` to count, per vote object, the calls
    that classify its record rather than return the kept verdict."""
    classify = ChainStateCache.classify

    def counted(cache, record):
        if record.snap is _UNCLASSIFIED:
            votes[id(record.vote)] = record.vote
            calls[id(record.vote)] += 1
        return classify(cache, record)
    monkeypatch.setattr(ChainStateCache, "classify", counted)


def test_each_vote_object_is_judged_a_constant_number_of_times(monkeypatch):
    calls = {name: Counter() for name in ("classify", "conflict_partners", "verify")}
    votes = {}
    count_classifications(monkeypatch, calls["classify"], votes)
    count_calls_per_vote(monkeypatch, ChainStateCache, "conflict_partners",
                         calls["conflict_partners"], votes)
    count_calls_per_vote(monkeypatch, Keyring, "verify", calls["verify"], votes)
    # the votes some view receives for the first time while it has not
    # heard their validator: only those are checked for partners
    unheard = set()
    receive_vote = ClientView.receive_vote

    def observed(view, vote, now, record=None):
        if vote.key not in view._received \
                and vote.validator_index not in view._heard:
            unheard.add(id(vote))
        return receive_vote(view, vote, now, record)
    monkeypatch.setattr(ClientView, "receive_vote", observed)
    sim = Simulation(wide_set_shaped(5))
    sim.run_loop()
    assert len(sim.views) == 51
    distinct = len(sim.pool.votes)
    assert len(votes) == distinct > 200     # the run makes one object per vote
    assert len(calls["classify"]) == distinct
    assert set(calls["conflict_partners"]) == unheard
    # once every view has heard a validator, its later votes are not checked
    assert len(unheard) < distinct
    assert max(calls["classify"].values()) == 1
    assert max(calls["conflict_partners"].values()) == 1
    # the run's pool, the vote's record, the chain that includes it, the
    # end-of-run sweep and each evidence inclusion: nothing per view (the
    # 51 views made 54 calls per vote when each verified for itself)
    assert sum(calls["verify"].values()) <= 6 * distinct
    assert max(calls["verify"].values()) < 10


def test_a_value_equal_copy_gets_its_own_record_and_counts_once():
    w = make_world()
    blocks = w.grow(2)
    c1 = blocks[1].id
    view = client(w)
    feed_chain(view, w, blocks)
    vote = sign_vote(w.keyring, 0, w.tree.root, c1, 0, 1)
    copy = replace(vote)
    view.receive_vote(vote, 3)
    record = w.cache.record(vote)
    assert w.cache.record(vote) is record
    assert w.cache.record(copy) is not record
    assert w.cache.record(copy).vote is copy and w.cache.record(copy).valid
    view.receive_vote(copy, 3)
    assert view.votes == [vote]
    assert view._received == {vote.key: 0}
    assert view.fstate.links.tallies == {(w.tree.root, c1): (100, 0)}
    # a view handed only the copy counts it through the copy's own record
    other = client(w, "other")
    feed_chain(other, w, blocks)
    other.receive_vote(copy, 4)
    assert other.fstate.links.tallies == view.fstate.links.tallies
    assert w.cache.record(copy).snap is record.snap is not None


def test_one_record_lookup_per_vote_entry_and_records_carry_link_and_weights(
        monkeypatch):
    calls = Counter()
    networks = []
    stepping, sweeping = [], []
    record, step_state = ChainStateCache.record, ffg.finality.step_state
    sweep_invariants = ffg.scenarios.sweep_invariants

    def counted_record(cache, vote):
        # chains look records up while folding blocks, the end-of-run sweep
        # (and the audit it runs) in its pool queries, deliveries otherwise
        calls["chain" if stepping else "sweep" if sweeping
              else "delivery"] += 1
        return record(cache, vote)

    def counted_step(*args):
        stepping.append(True)
        try:
            return step_state(*args)
        finally:
            stepping.pop()

    def counted_sweep(net):
        sweeping.append(True)
        try:
            return sweep_invariants(net)
        finally:
            sweeping.pop()

    deliver = Network.deliver

    def counted_deliver(net, kind, payload, names, now):
        if net not in networks:
            networks.append(net)
        if kind == "vote":
            calls["entries"] += 1
            calls["deliveries"] += len(names)
        deliver(net, kind, payload, names, now)
    monkeypatch.setattr(ChainStateCache, "record", counted_record)
    monkeypatch.setattr(ffg.finality, "step_state", counted_step)
    monkeypatch.setattr(ffg.scenarios, "sweep_invariants", counted_sweep)
    monkeypatch.setattr(Network, "deliver", counted_deliver)
    monkeypatch.setattr(Simulation, "deliver", counted_deliver)

    sim = Simulation(fuzz_config(18))
    sim.run_loop()
    stitch = config_from_dict(json.loads((CORPUS / "dyn_attack_stitch.json").read_text()))
    assert stitch.protocol.stitching
    run(stitch)
    assert len(networks) == 2
    for net in networks:
        classified = [r for r in net.cache._records.values()
                      if r.snap is not _UNCLASSIFIED]
        assert classified and any(r.snap is not None for r in classified)
        for r in classified:
            vote, i = r.vote, r.vote.validator_index
            assert r.link == (vote.source, vote.target)
            if r.snap is None:
                assert (r.forward, r.rear) == (0, 0)
            else:
                assert (r.forward, r.rear) == (r.snap.forward.get(i, 0),
                                               r.snap.rear.get(i, 0))
    # the dynamic attack's handover makes forward and rear weights differ
    assert any(r.forward != r.rear for r in networks[1].cache._records.values()
               if r.snap is not _UNCLASSIFIED)
    assert calls["delivery"] == calls["entries"] < calls["deliveries"], calls
    assert calls["chain"] > 0 and calls["sweep"] > 0


def test_a_vote_ahead_of_its_target_is_buffered_with_its_record(monkeypatch):
    w = make_world()
    blocks = w.grow(4)
    c1 = blocks[1].id
    early, late = client(w, "early"), client(w, "late")
    feed_chain(early, w, blocks)
    feed_chain(late, w, blocks[:1])           # late has not seen c1 yet
    votes = [sign_vote(w.keyring, i, w.tree.root, c1, 0, 1) for i in range(3)]
    for v in votes:
        late.receive_vote(v, 3)
    records = [w.cache.record(v) for v in votes]
    assert late.fstate._buffer[c1] == records
    assert all(r.snap is _UNCLASSIFIED for r in records)
    assert not late.fstate.links.tallies
    # another view counts the votes first and so fills their records
    for v in votes:
        early.receive_vote(v, 3)
    assert c1 in early.fstate.justified
    assert all(r.snap is not _UNCLASSIFIED and r.snap is not None for r in records)
    classified = Counter()
    count_classifications(monkeypatch, classified, {})
    feed_chain(late, w, blocks[1:])
    assert not late.fstate._buffer and not classified
    assert late.fstate.links.tallies == early.fstate.links.tallies
    assert c1 in late.fstate.justified


def test_a_vote_whose_source_the_view_lacks_is_neither_buffered_nor_counted():
    # the view holds the target, so every ancestor of it: a source it lacks
    # is off the target's chain, and the vote can never count
    w = make_world()
    blocks = w.grow(4)                                   # checkpoints at 1 and 2
    fork = w.grow(2, start=w.tree.root, proposer=1)      # a fork checkpoint at 1
    view = client(w)
    feed_chain(view, w, blocks)
    vote = sign_vote(w.keyring, 0, fork[1].id, blocks[3].id, 1, 2)
    view.receive_vote(vote, 4)
    assert not view.fstate._buffer
    assert w.cache.record(vote).snap is None
    feed_chain(view, w, fork)
    assert not view.fstate._buffer and not view.fstate.links.tallies
