import random
from collections import Counter
from fractions import Fraction

from ffg.chain import SlashEvidence, make_block
from ffg.config import ProtocolConfig
from ffg.fork_choice import Admissibility, ClientView
from ffg.leak import LeakConfig
from ffg.sim import (Behavior, DOUBLE_VOTER, HONEST, ScenarioConfig, Simulation,
                     ValidatorSpec)
from ffg.slashing import check_pair, violates
from ffg.votes import sign_vote

from conftest import World
from test_acceptance import fuzz_config

NO_LEAK = LeakConfig(rate=Fraction(1, 10**9))


def make_world(weights=(100, 100, 100), spacing=2, delta=4):
    proto = ProtocolConfig(spacing=spacing, delta=delta, withdrawal_delay=10,
                           leak=NO_LEAK)
    return World(proto, list(weights))


def client(w, name="c0"):
    return ClientView(name, w.proto, w.keyring, w.cache)


def feed_chain(view, w, blocks, t0=None):
    for b in blocks:
        view.receive_block(b, t0 if t0 is not None else b.timestamp)


# -- admissibility classification -------------------------------------------------

def test_future_timestamp_rejected():
    w = make_world()
    blocks = w.grow(2)
    view = client(w)
    view.advance_clock(1)
    assert view.admissible(blocks[1]) is Admissibility.REJECT      # stamped 2
    view.advance_clock(2)
    assert view.admissible(blocks[1]) is Admissibility.ACCEPT


def test_too_old_accepted_but_not_finalizable():
    w = make_world(delta=4)
    blocks = w.grow(1)
    view = client(w)
    view.advance_clock(blocks[0].timestamp + 4)
    assert view.admissible(blocks[0]) is Admissibility.ACCEPT
    view.advance_clock(blocks[0].timestamp + 5)
    assert view.admissible(blocks[0]) is Admissibility.ACCEPT_NOT_FINALIZABLE


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
    late = make_block(blocks[-1], heard_at + 2 * 4 + 1, None, (),
                      w.tree.hash_name)
    w.tree.insert_block(late)
    view.receive_block(late, late.timestamp)
    assert view.admissible(late) is Admissibility.REJECT
    # exactly at the boundary the block still passes
    ontime = make_block(blocks[-1], heard_at + 2 * 4, 1, (), w.tree.hash_name)
    w.tree.insert_block(ontime)
    view.receive_block(ontime, late.timestamp)
    assert view.admissible(ontime) is not Admissibility.REJECT


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
                          (SlashEvidence(violation.vote_a, violation.vote_b),),
                          w.tree.hash_name)
    w.tree.insert_block(carrying)
    view.receive_block(carrying, 19)
    assert view.admissible(carrying) is Admissibility.ACCEPT
    follow = make_block(carrying, 25, None, (), w.tree.hash_name)
    w.tree.insert_block(follow)
    view.receive_block(follow, 25)
    assert view.admissible(follow) is Admissibility.ACCEPT
    # the old-stamp rule must not shadow the evidence rule: an evidence-free
    # sibling stamped late-but-old is rejected outright
    stale = make_block(blocks[-1], 20, 1, (), w.tree.hash_name)
    w.tree.insert_block(stale)
    view.receive_block(stale, 40)
    assert view.admissible(stale) is Admissibility.REJECT


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

def walk_chain_admissible(view, leaf):
    """Reference: classify every block from `leaf` back to the root."""
    cursor = view.tree.get(leaf)
    while True:
        if cursor.height > 0 and view.admissible(cursor) is Admissibility.REJECT:
            return False
        if cursor.parent is None:
            return True
        cursor = view.tree.get(cursor.parent)


def scan_justified_tip(view, bid, below=None):
    """Reference: test every justified checkpoint for ancestry of `bid`; the
    greatest height wins, then the earliest receipt, then the lowest id."""
    fs = view.fstate
    cands = [cp for cp in fs.justified
             if cp in view.tree and view.tree.is_ancestor(cp, bid)
             and (below is None or fs.heights[cp] < below)]
    cands.append(view.tree.root)
    return min(cands, key=lambda cp: (-fs.heights[cp], fs.order[cp], cp))


def scan_head(view):
    """Reference: the head rule over the two walks above."""
    fs = view.fstate
    ranked = []
    for leaf in view.tree.leaves():
        if view.tree.is_ancestor(view.finalized_anchor, leaf) \
                and walk_chain_admissible(view, leaf):
            tip = scan_justified_tip(view, leaf)
            ranked.append(((-fs.heights[tip], fs.order[tip], tip),
                           -view.tree.get(leaf).height, leaf))
    return min(ranked)[2] if ranked else view.finalized_anchor


class CheckedSimulation(Simulation):
    """Compares the receiving view with the reference walks after every delivery."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.outcomes = Counter()

    def deliver(self, kind, payload, name, now):
        super().deliver(kind, payload, name, now)
        view = self.views[name]
        for leaf in view.tree.leaves():
            ok = view.chain_admissible(leaf)
            assert ok == walk_chain_admissible(view, leaf)
            self.outcomes["admissible" if ok else "rejected"] += 1
            tip = view.justified_tip(leaf)
            assert tip == scan_justified_tip(view, leaf)
            self.outcomes["justified" if tip != view.tree.root else "root"] += 1
            target = view.tree.latest_checkpoint(leaf)
            h_t = view.tree.require_checkpoint(target)
            assert view.justified_tip(target, below=h_t) \
                == scan_justified_tip(view, target, below=h_t)
        assert view.head() == scan_head(view)


def checked_run(cfg):
    sim = CheckedSimulation(cfg)
    sim.run_loop()
    return sim.outcomes


def long_horizon_shaped(seed):
    """20 equal validators, three double voters, a fork in one block of five."""
    rng = random.Random(seed)
    behaviors = {i: Behavior(DOUBLE_VOTER, rng.randint(1, 3))
                 for i in rng.sample(range(20), 3)}
    proto = ProtocolConfig(spacing=5, delta=2, withdrawal_delay=50,
                           leak=LeakConfig(rate=Fraction(1, 10)))
    validators = tuple(ValidatorSpec(i, 100, behaviors.get(i, Behavior(HONEST)))
                       for i in range(20))
    return ScenarioConfig(name=f"long{seed}", seed=seed, protocol=proto,
                          validators=validators, duration_epochs=12,
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


def two_violations(w, blocks):
    """Two double votes, by validators 0 and 1, for the same checkpoint."""
    c1 = blocks[1].id
    return [(sign_vote(w.keyring, i, w.tree.root, c1, 0, 1),
             sign_vote(w.keyring, i, blocks[3].id, c1, 1, 1)) for i in (0, 1)]


def test_evidence_heard_after_clean_memo_rejects_chain():
    w = make_world(delta=4)
    blocks = w.grow(12)                      # stamped 1..12
    view = client(w)
    feed_chain(view, w, blocks)
    (a0, b0), (a1, b1) = two_violations(w, blocks)
    view.receive_vote(a0, 9)
    assert view.receive_vote(b0, 10)         # rejects blocks stamped after 18
    leaf = blocks[-1].id
    assert view.chain_admissible(leaf)
    assert view._chain_checked[leaf] == 1    # memoized clean against one violation
    view.receive_vote(a1, 2)
    assert view.receive_vote(b1, 3)          # rejects blocks stamped after 11
    assert not view.chain_admissible(leaf)
    assert not walk_chain_admissible(view, leaf)
    # the prefix up to the last block stamped 11 is still clean
    assert view.chain_admissible(blocks[10].id)
    assert walk_chain_admissible(view, blocks[10].id)


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
