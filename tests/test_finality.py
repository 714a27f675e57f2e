from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import ffg.finality
from ffg.chain import make_block
from ffg.config import ProtocolConfig
from ffg.errors import NoExtension, NotAncestor
from ffg.finality import (ChainState, FinalityState, _StepContext,
                          compute_justified, link_established, liveness_plan,
                          plan_safe_for, snapshot_registry, tally)
from ffg.fork_choice import ClientView
from ffg.leak import LeakConfig
from ffg.sim import run
from ffg.slashing import check_pair
from ffg.validators import ValidatorRecord, ValidatorRegistry
from ffg.votes import sign_vote

from conftest import World
from test_acceptance import fuzz_config
from test_fork_choice import long_horizon_shaped

# negligible rate: keeps engine weights equal to genesis weights so the
# hand-rolled oracles below stay exact
NO_LEAK = LeakConfig(rate=Fraction(1, 10**9))


def quiet_proto(spacing=2, delta=4):
    return ProtocolConfig(spacing=spacing, delta=delta, withdrawal_delay=10,
                          leak=NO_LEAK)


def make_world(weights=(100, 100, 100), spacing=2):
    return World(quiet_proto(spacing), list(weights))


# -- tally thresholds ----------------------------------------------------------

def test_tally_exactly_two_thirds_established():
    w = make_world([100, 100, 100])
    blocks = w.grow(2)
    c1 = blocks[1].id
    w.votes([0, 1], w.tree.root, c1)
    status = tally(w.tree, w.pool, w.cache.snapshot_for, w.tree.root, c1)
    assert status.forward_voted == 200 and status.forward_total == 300
    assert status.established


def test_tally_one_unit_short_not_established():
    w = make_world([100, 99, 101])
    blocks = w.grow(2)
    c1 = blocks[1].id
    w.votes([0, 1], w.tree.root, c1)          # 199 of 300
    assert not tally(w.tree, w.pool, w.cache.snapshot_for, w.tree.root, c1).established


def test_tally_requires_ancestry():
    w = make_world()
    w.grow(2)
    side = w.grow(2, start=w.tree.root, proposer=1)
    with pytest.raises(NotAncestor):
        tally(w.tree, w.pool, w.cache.snapshot_for, side[1].id,
              w.tree.ancestor_at(w.tree.leaves()[0], 2))


def test_dual_threshold_forward_passes_rear_fails():
    # an incoming generation fills the forward set while the outgoing one
    # still controls the rear set; only both together establish the link
    reg = ValidatorRegistry()
    reg.records[0] = ValidatorRecord(0, 300, start_dynasty=0, end_dynasty=1)
    reg.records[1] = ValidatorRecord(1, 300, start_dynasty=1)
    snap = snapshot_registry(2, 1, reg)
    assert snap.forward == {1: 300} and snap.rear == {0: 300}
    assert not link_established(300, 0, snap, stitching=True)
    assert link_established(300, 0, snap, stitching=False)
    assert link_established(300, 300, snap, stitching=True)


def test_empty_side_semantics():
    reg = ValidatorRegistry()
    reg.add_genesis_validator(0, 100)
    genesis_snap = snapshot_registry(1, 0, reg)
    assert genesis_snap.rear_total == 0           # strict lower bound at dynasty 0
    assert link_established(100, 0, genesis_snap, stitching=True)
    deserted = snapshot_registry(1, 5, ValidatorRegistry())
    assert not link_established(0, 0, deserted, stitching=True)
    assert not link_established(0, 0, deserted, stitching=False)


# -- justification ---------------------------------------------------------------

def test_justified_chain_of_links():
    w = make_world()
    blocks = w.grow(6)
    cps = [w.tree.root] + [b.id for b in blocks if b.height % 2 == 0]
    for s, t in zip(cps, cps[1:]):
        w.votes([0, 1, 2], s, t)
    justified = compute_justified(w.tree, w.pool, w.cache.snapshot_for)
    assert justified == set(cps)


def test_unjustified_source_gates_target():
    w = make_world()
    blocks = w.grow(4)
    c1, c2 = blocks[1].id, blocks[3].id
    w.votes([0, 1, 2], c1, c2)               # no link into c1 itself
    justified = compute_justified(w.tree, w.pool, w.cache.snapshot_for)
    assert justified == {w.tree.root}


def test_link_may_skip_heights():
    w = make_world()
    blocks = w.grow(4)
    c2 = blocks[3].id
    w.votes([0, 1, 2], w.tree.root, c2)
    justified = compute_justified(w.tree, w.pool, w.cache.snapshot_for)
    assert c2 in justified and blocks[1].id not in justified


def test_incremental_matches_batch_justification():
    w = make_world()
    blocks = w.grow(8)
    cps = [w.tree.root] + [b.id for b in blocks if b.height % 2 == 0]
    votes = []
    for s, t in zip(cps, cps[1:]):
        votes.extend(w.votes([0, 1, 2], s, t))
    fs = FinalityState(w.cache)
    for i, cp in enumerate(cps[1:], start=1):
        fs.mark_checkpoint(cp, i, i)
    seen = set()
    # deliver in a scrambled but fixed order; justification only ever grows
    order = votes[::2] + votes[1::2]
    grown = set()
    for v in order:
        fs.on_vote(w.cache.record(v))
        assert grown <= fs.justified
        grown = set(fs.justified)
    assert fs.justified == compute_justified(w.tree, w.pool, w.cache.snapshot_for)


def test_highest_justified_tie_break_first_seen_then_id():
    w = make_world()
    left = w.grow(2)
    right = w.grow(2, start=w.tree.root, proposer=1)
    # receive first the chain whose checkpoint has the greater id, and make
    # the other chain longer, so that neither the id tie-break nor the chain
    # length can pick the winner
    first, second = sorted([left, right], key=lambda c: c[1].id, reverse=True)
    second = second + w.grow(1, start=second[-1].id)
    view = ClientView("c0", w.proto, w.cache)
    for block in first + second:
        view.receive_block(block, block.timestamp)
    for v in w.votes([0, 1, 2], w.tree.root, second[1].id):
        view.receive_vote(v, 8)
    for v in w.votes([0, 1, 2], w.tree.root, first[1].id):
        view.receive_vote(v, 8)
    assert view.fstate.justified == {w.tree.root, first[1].id, second[1].id}
    # both justified at height 1: the earlier-received checkpoint's chain wins
    assert view.head() == first[-1].id


# -- chain-local finalization -----------------------------------------------------

def chain_with_inclusions(w, epochs, include_at):
    """Grow a chain, placing each vote at the block height include_at maps to."""
    blocks = {0: w.tree.get(w.tree.root)}
    for h in range(1, epochs * w.proto.spacing + 1):
        votes = include_at.get(h, [])
        blocks[h] = w.include(blocks[h - 1], votes, timestamp=h)
    return blocks


def test_root_is_finalized():
    w = make_world()
    state = w.cache.get(w.tree.root)
    assert w.tree.root in state.finalized_at


def test_finalize_with_timely_inclusion():
    w = make_world()
    E = w.proto.spacing
    blocks = {0: w.tree.get(w.tree.root)}
    for h in range(1, 3 * E + 1):
        blocks[h] = w.include(blocks[h - 1], [], timestamp=h)
    c1, c2 = blocks[E].id, blocks[2 * E].id
    v1 = w.votes([0, 1, 2], w.tree.root, c1)
    v2 = w.votes([0, 1, 2], c1, c2)
    tip = w.include(blocks[3 * E], v1, timestamp=3 * E + 1)
    tip = w.include(tip, v2, timestamp=3 * E + 2)
    state = w.cache.get(tip.id)
    # both links included before (h(c2)+1)*E passed already at construction:
    # heights 3E+1, 3E+2 exceed it, so nothing is finalized on this chain
    assert c1 not in state.finalized_at

    w2 = make_world()
    b = {0: w2.tree.get(w2.tree.root)}
    for h in range(1, E + 1):
        b[h] = w2.include(b[h - 1], [], timestamp=h)
    c1 = b[E].id
    just = w2.votes([0, 1, 2], w2.tree.root, c1)
    b[E + 1] = w2.include(b[E], just, timestamp=E + 1)
    for h in range(E + 2, 2 * E + 1):
        b[h] = w2.include(b[h - 1], [], timestamp=h)
    c2 = b[2 * E].id
    fin = w2.votes([0, 1, 2], c1, c2)
    b[2 * E + 1] = w2.include(b[2 * E], fin, timestamp=2 * E + 1)
    state = w2.cache.get(b[2 * E + 1].id)
    assert c1 in state.finalized_at                 # votes landed inside the window
    assert len(state.finalized_at) == 2             # the root and c1
    assert c2 not in state.finalized_at


def test_deadline_miss_blocks_finalization():
    w = make_world()
    E = w.proto.spacing
    b = {0: w.tree.get(w.tree.root)}
    for h in range(1, 3 * E + 1):
        b[h] = w.include(b[h - 1], [], timestamp=h)
    c1, c2 = b[E].id, b[2 * E].id
    just = w.votes([0, 1, 2], w.tree.root, c1)
    fin = w.votes([0, 1, 2], c1, c2)
    b[E + 1] = None
    # include the finalizing link one block past its deadline (h(c2)+1)*E
    tip = w.include(b[3 * E], just, timestamp=3 * E + 1)
    tip = w.include(tip, fin, timestamp=3 * E + 2)
    state = w.cache.get(tip.id)
    assert c1 in compute_justified(w.tree, w.pool, w.cache.snapshot_for)
    assert c1 not in state.finalized_at


def test_direct_child_required_for_finality():
    w = make_world()
    E = w.proto.spacing
    b = {0: w.tree.get(w.tree.root)}
    for h in range(1, 2 * E + 1):
        b[h] = w.include(b[h - 1], [], timestamp=h)
    c2 = b[2 * E].id
    skip = w.votes([0, 1, 2], w.tree.root, c2)      # height jump of 2
    tip = w.include(b[2 * E], skip, timestamp=2 * E + 1)
    state = w.cache.get(tip.id)
    assert c2 in state.justified
    assert w.tree.root in state.finalized_at and len(state.finalized_at) == 1
    assert c2 not in state.finalized_at


def test_dynasty_and_join_leave_through_chain():
    from ffg.chain import Deposit, Withdraw
    w = make_world([100, 100, 100])
    E = w.proto.spacing
    joiner_key = w.keyring.register(7)
    b = {0: w.tree.get(w.tree.root)}
    b[1] = w.include(b[0], [], timestamp=1)
    dep = make_block(b[1], 2, None, (Deposit(7, joiner_key, 50),),
                     w.tree.hash_name)
    w.tree.insert_block(dep)
    state = w.cache.get(dep.id)
    assert state.dynasty == 0
    assert state.registry.get(7).start_dynasty == 2

    wd = make_block(dep, 3, None, (Withdraw(0, w.keyring.pubkey(0)),),
                    w.tree.hash_name)
    w.tree.insert_block(wd)
    state = w.cache.get(wd.id)
    assert state.registry.get(0).end_dynasty == 2


# -- engine vs naive recomputation over every vote subset -------------------------

def naive_justified(tree, votes, weights):
    total = sum(weights.values())
    cps = sorted((b.height // tree.spacing, b.id) for b in tree.iter_blocks()
                 if b.height % tree.spacing == 0)

    def established(s, t):
        voters = set()
        for v in votes:
            if v.source != s or v.target != t:
                continue
            if tree.checkpoint_height(v.source) != v.source_height:
                continue
            if tree.checkpoint_height(v.target) != v.target_height:
                continue
            if v.source_height >= v.target_height:
                continue
            if not tree.is_ancestor(v.source, v.target):
                continue
            voters.add(v.validator_index)
        return 3 * sum(weights[i] for i in voters) >= 2 * total

    justified = {tree.root}
    changed = True
    while changed:
        changed = False
        for _h, cp in cps:
            if cp in justified:
                continue
            if any(s != cp and tree.is_ancestor(s, cp) and established(s, cp)
                   for s in list(justified)):
                justified.add(cp)
                changed = True
    return justified


def naive_finalized(tree, votes, weights, inclusion_height, spacing):
    """Definition-direct: justified, plus a timely supermajority link to a
    direct child, plus a timely justifying link."""
    total = sum(weights.values())
    justified = naive_justified(tree, votes, weights)

    def timely_established(s, t, deadline):
        voters = {v.validator_index for v in votes
                  if v.source == s and v.target == t
                  and tree.is_ancestor(v.source, v.target)
                  and tree.checkpoint_height(s) == v.source_height
                  and tree.checkpoint_height(t) == v.target_height
                  and v.source_height < v.target_height
                  and inclusion_height.get(v.key, 10**9) <= deadline}
        return 3 * sum(weights[i] for i in voters) >= 2 * total

    finalized = {tree.root}
    for c in justified:
        h_c = tree.checkpoint_height(c)
        for b in tree.iter_blocks():
            if b.height != (h_c + 1) * spacing or not tree.is_ancestor(c, b.id):
                continue
            deadline = (h_c + 2) * spacing
            if not timely_established(c, b.id, deadline):
                continue
            if c == tree.root or any(
                    s in justified and s != c and tree.is_ancestor(s, c)
                    and timely_established(s, c, deadline)
                    for s in justified):
                finalized.add(c)
    return finalized


def test_engine_matches_naive_on_all_vote_subsets():
    # 3 validators x 4 links on a 5-checkpoint chain: 4096 subsets
    w = make_world([100, 100, 100], spacing=2)
    E = 2
    b = {0: w.tree.get(w.tree.root)}
    for h in range(1, 4 * E + 1):
        b[h] = w.include(b[h - 1], [], timestamp=h)
    cp = {k: b[k * E].id for k in range(1, 5)}
    cp[0] = w.tree.root
    links = [(0, 1), (1, 2), (2, 3), (1, 3)]
    universe = []
    for (hs, ht) in links:
        for val in range(3):
            universe.append(sign_vote(w.keyring, val, cp[hs], cp[ht], hs, ht))
    weights = {0: 100, 1: 100, 2: 100}

    mismatches = 0
    for mask in range(2 ** len(universe)):
        votes = [universe[i] for i in range(len(universe)) if mask >> i & 1]
        expect = naive_justified(w.tree, votes, weights)
        from ffg.votes import VotePool
        pool = VotePool(w.keyring)
        for v in votes:
            pool.add(v)
        got = compute_justified(w.tree, pool, w.cache.snapshot_for)
        if got != expect:
            mismatches += 1
    assert mismatches == 0


def run_inclusion_subset(w, picked, spacing):
    """Build one chain including each picked vote right after its target;
    returns (engine finalized set, votes, inclusion heights, tip)."""
    b = {0: w.tree.get(w.tree.root)}
    cps = {0: w.tree.root}
    votes, inclusion = [], {}
    for h in range(1, 5 * spacing + 1):
        payload = []
        for (hs, ht), val in picked:
            if h == ht * spacing + 1:
                v = sign_vote(w.keyring, val, cps[hs], cps[ht], hs, ht)
                votes.append(v)
                payload.append(v)
                inclusion[v.key] = h
        b[h] = w.include(b[h - 1], payload, timestamp=h)
        if h % spacing == 0:
            cps[h // spacing] = b[h].id
    state = w.cache.get(b[5 * spacing].id)
    return set(state.finalized_at), votes, inclusion


def test_inclusion_engine_matches_naive_finality_on_subsets():
    # 4 validators x 3 links, each vote included right after its target
    weights = {0: 100, 1: 100, 2: 100, 3: 100}
    links = [(0, 1), (1, 2), (2, 3)]
    E = 2
    for mask in range(2 ** 12):
        picked = [(links[i // 4], i % 4) for i in range(12) if mask >> i & 1]
        w = make_world([100] * 4, spacing=E)
        got, votes, inclusion = run_inclusion_subset(w, picked, E)
        expect = naive_finalized(w.tree, votes, weights, inclusion, E)
        assert got == expect, f"mask {mask}"


def finality_vs_oracle(schedule, spacing=2, checkpoints=5):
    """Every validator's votes for each (h_s, h_t) link included at the block
    height the schedule gives, on one chain of empty blocks through the last
    checkpoint; returns the engine's and the oracle's finalized sets and the
    checkpoints by height."""
    w = make_world([100, 100, 100], spacing=spacing)
    tip = w.tree.get(w.tree.root)
    cps = {0: tip.id}
    for h in range(1, checkpoints * spacing + 1):
        tip = w.include(tip, [], timestamp=h)
        if h % spacing == 0:
            cps[h // spacing] = tip.id
    votes, inclusion = [], {}
    for h in range(tip.height + 1, max(schedule) + 1):
        payload = [sign_vote(w.keyring, val, cps[hs], cps[ht], hs, ht)
                   for hs, ht in schedule.get(h, []) for val in range(3)]
        votes.extend(payload)
        inclusion.update((v.key, h) for v in payload)
        tip = w.include(tip, payload, timestamp=h)
    got = set(w.cache.get(tip.id).finalized_at)
    weights = {0: 100, 1: 100, 2: 100}
    return got, naive_finalized(w.tree, votes, weights, inclusion, spacing), cps


def test_finalization_rechecks_source_justified_later_in_closure():
    # (0,1) at 14 justifies cp1, which reaches cp4 through both the late link
    # (1,4) and the timely chain 2 -> 3 -> 4; cp4's timely justifying link
    # (3,4) only counts once cp3 is justified
    got, expect, cps = finality_vs_oracle(
        {11: [(1, 2), (2, 3), (3, 4), (4, 5)], 13: [(1, 4)], 14: [(0, 1)]})
    assert cps[4] in expect
    assert got == expect


def test_finalization_rechecks_source_justified_in_later_block():
    # cp4 is justified at 13 only through the late link (1,4); (0,3) at 14
    # justifies cp3 and with it cp4's timely justifying link (3,4)
    got, expect, cps = finality_vs_oracle(
        {11: [(3, 4), (4, 5)], 13: [(0, 1), (1, 4)], 14: [(0, 3)]})
    assert cps[4] in expect
    assert got == expect


def test_included_votes_with_bad_signatures_do_not_count():
    w = make_world()
    E = w.proto.spacing
    tip = w.tree.get(w.tree.root)
    for h in range(1, E + 1):
        tip = w.include(tip, [], timestamp=h)
    c1 = tip.id
    genuine = [sign_vote(w.keyring, i, w.tree.root, c1, 0, 1) for i in range(3)]
    forged = [replace(v, signature=bytes(32)) for v in genuine]
    tip = w.include(tip, forged)
    state = w.cache.get(tip.id)
    assert c1 not in state.justified and not state.voted_window
    # a forged copy does not block the genuine vote's inclusion
    tip = w.include(tip, genuine)
    assert c1 in w.cache.get(tip.id).justified


def first_checkpoint(w):
    """Empty blocks up to the first checkpoint; returns it."""
    tip = w.tree.get(w.tree.root)
    for h in range(1, w.proto.spacing + 1):
        tip = w.include(tip, [], timestamp=h)
    return tip


def test_included_wrong_pubkey_copy_does_not_count_after_genuine_verified():
    w = make_world()
    tip = first_checkpoint(w)
    c1 = tip.id
    genuine = [sign_vote(w.keyring, i, w.tree.root, c1, 0, 1) for i in range(3)]
    for v in genuine:
        assert w.keyring.verify(v)
    # each copy carries the genuine vote's key and signature under another
    # validator's pubkey
    wrong = [replace(v, validator_pubkey=w.keyring.pubkey((v.validator_index + 1) % 3))
             for v in genuine]
    tip = w.include(tip, wrong)
    state = w.cache.get(tip.id)
    assert not state.voted_window
    assert c1 not in state.justified and not state.links.tallies
    assert not state.link_voters
    tip = w.include(tip, genuine)
    assert c1 in w.cache.get(tip.id).justified


def test_one_block_counts_a_vote_once_and_skips_forged_copies():
    w = make_world()
    tip = first_checkpoint(w)
    c1 = tip.id
    genuine = [sign_vote(w.keyring, i, w.tree.root, c1, 0, 1) for i in range(3)]
    forged = replace(genuine[0], signature=bytes(32))
    tip = w.include(tip, [forged, genuine[0], genuine[0], genuine[1]])
    verified = []
    verify = w.keyring.verify
    w.keyring.verify = lambda vote: verified.append(vote) or verify(vote)
    state = w.cache.get(tip.id)
    # each vote object is verified when its run record is made and again (a
    # memo hit) when it is classified; the repeated vote is found in the
    # link's voter set first, so it is neither
    assert verified == [forged, forged, genuine[0], genuine[0],
                        genuine[1], genuine[1]]
    assert state.voted_window == {0, 1}
    assert state.links.tallies[(w.tree.root, c1)] == (200, 0)
    assert state.link_voters[(w.tree.root, c1)] == {0, 1}
    assert isinstance(state.voted_window, frozenset)


def test_a_vote_included_again_later_neither_counts_nor_saves_its_validator():
    proto = ProtocolConfig(spacing=2, delta=4, withdrawal_delay=10,
                           leak=LeakConfig(rate=Fraction(1, 10)))
    w = World(proto, [100, 100, 100, 100])
    tip = first_checkpoint(w)                       # c1 at height 2
    c1 = tip.id
    link = (w.tree.root, c1)
    again, control = (sign_vote(w.keyring, i, w.tree.root, c1, 0, 1)
                      for i in (0, 1))
    tip = w.include(tip, [again, control])          # window k: heights 3-4
    tip = w.include(tip, [])                        # checkpoint 4 closes it

    def deposits(block):
        reg = w.cache.get(block.id).registry
        return [reg.get(i).deposit for i in range(4)]
    assert deposits(tip) == [100, 100, 90, 90]
    tip = w.include(tip, [again])                   # window k+1: heights 5-6
    state = w.cache.get(tip.id)
    assert state.links.tallies[link] == (200, 0)
    assert state.link_voters[link] == {0, 1}
    assert not state.voted_window
    tip = w.include(tip, [])                        # checkpoint 6 closes it
    assert deposits(tip) == [90, 90, 81, 81]


def reference_counts(st, vote, keyring):
    """Reference: whether an included vote counts on the chain whose state
    is being built, judged from that chain alone: a valid signature, source
    and target among the chain's checkpoints at the vote's heights, the
    source below the target, and the validator in the target's dynasty
    sets as the chain recorded them."""
    if not keyring.verify(vote):
        return False
    src_snap = st.snapshots.get(vote.source)
    snap = st.snapshots.get(vote.target)
    if snap is None or src_snap is None:
        return False
    if (snap.cp_height != vote.target_height
            or src_snap.cp_height != vote.source_height
            or vote.source_height >= vote.target_height):
        return False
    idx = vote.validator_index
    return idx in snap.forward or idx in snap.rear


def test_chain_inclusions_count_exactly_when_the_reference_says(monkeypatch):
    outcomes = Counter()
    include_vote = _StepContext.include_vote

    def checked(ctx, vote, cache):
        idx, link = vote.validator_index, (vote.source, vote.target)
        repeat = idx in ctx.st.link_voters.get(link, ())
        before = ctx.st.links.tallies.get(link)
        counts = reference_counts(ctx.st, vote, cache.keyring)
        include_vote(ctx, vote, cache)
        counted = not repeat and idx in ctx.st.link_voters.get(link, ())
        if not counted:
            assert ctx.st.links.tallies.get(link) == before
        assert counted == (counts and not repeat)
        assert not counted or idx in ctx.new_voters
        outcomes["repeat" if repeat else "counted" if counted else "not counted"] += 1
    monkeypatch.setattr(_StepContext, "include_vote", checked)
    for cfg in [fuzz_config(seed) for seed in range(100)] + [long_horizon_shaped(3)]:
        run(cfg)
    assert outcomes["counted"] > 0 and outcomes["not counted"] > 0, outcomes


def test_child_blocks_leave_the_parent_tallies_unchanged():
    w = make_world([100, 100, 100, 100])
    tip = first_checkpoint(w)
    c1 = tip.id
    votes = [sign_vote(w.keyring, i, w.tree.root, c1, 0, 1) for i in range(4)]
    parent = w.include(tip, votes[:1])
    link = (w.tree.root, c1)
    parent_state = w.cache.get(parent.id)
    before = parent_state.links.tallies[link]
    voters_before = parent_state.link_voters[link]
    assert (before, voters_before) == ((100, 0), {0})

    def tally(block):
        state = w.cache.get(block.id)
        return state.links.tallies[link], state.link_voters[link]
    left = w.include(parent, votes[1:2])
    right = w.include(parent, votes[2:4], timestamp=parent.timestamp + 2)
    assert tally(left) == ((200, 0), {0, 1})
    assert tally(right) == ((300, 0), {0, 2, 3})
    # a grandchild copies its parent's tally again and still shares nothing
    grand = w.include(left, votes[3:4])
    assert tally(grand) == ((300, 0), {0, 1, 3})
    assert tally(left) == ((200, 0), {0, 1})
    assert parent_state.links.tallies[link] is before
    assert parent_state.link_voters[link] is voters_before
    assert (before, voters_before) == ((100, 0), {0})
    assert c1 not in parent_state.justified
    assert c1 in w.cache.get(right.id).justified


# -- liveness oracle ---------------------------------------------------------------

def test_liveness_plan_fresh_system():
    w = make_world()
    w.grow(6)
    plan = liveness_plan(w.tree, w.pool, {w.tree.root})
    assert plan.source == w.tree.root
    assert plan.middle_height == 1 and plan.votes[1][3] == 2


def test_liveness_plan_after_partial_stall():
    # votes already cast at height 5 while the highest justified sits at 3
    w = make_world([100, 100, 100], spacing=2)
    blocks = w.grow(14)
    cps = {b.height // 2: b.id for b in blocks if b.height % 2 == 0}
    cps[0] = w.tree.root
    for s, t in [(0, 1), (1, 2), (2, 3)]:
        w.votes([0, 1, 2], cps[s], cps[t])
    w.vote(0, cps[3], cps[5])                 # a stray vote at height 5
    justified = compute_justified(w.tree, w.pool, w.cache.snapshot_for)
    plan = liveness_plan(w.tree, w.pool, justified)
    assert plan.source == cps[3]
    assert plan.middle_height == 6


def test_liveness_plan_no_extension():
    w = make_world()
    w.grow(2)
    w.votes([0, 1, 2], w.tree.root, w.tree.ancestor_at(w.tree.leaves()[0], 2))
    justified = compute_justified(w.tree, w.pool, w.cache.snapshot_for)
    with pytest.raises(NoExtension):
        liveness_plan(w.tree, w.pool, justified)


def test_liveness_plan_excludes_slashed_votes_from_max():
    w = make_world()
    blocks = w.grow(10)
    cps = {b.height // 2: b.id for b in blocks if b.height % 2 == 0}
    w.vote(2, w.tree.root, cps[4])            # slashed validator's high vote
    plan = liveness_plan(w.tree, w.pool, {w.tree.root}, slashed={2})
    assert plan.middle_height == 1


def test_plan_safe_for_histories():
    w = make_world()
    blocks = w.grow(10)
    cps = {b.height // 2: b.id for b in blocks if b.height % 2 == 0}
    cps[0] = w.tree.root
    # a compliant history: sources were justified when used (everyone voted)
    w.votes([1, 2], cps[0], cps[1])
    w.votes([1, 2], cps[1], cps[2])
    honest_history = [w.vote(0, cps[0], cps[1]), w.vote(0, cps[1], cps[2])]
    justified = compute_justified(w.tree, w.pool, w.cache.snapshot_for)
    assert cps[2] in justified
    plan = liveness_plan(w.tree, w.pool, justified)
    assert plan_safe_for(plan, honest_history)
    # a history that straddles the plan's first vote is unsafe; the planner
    # never claims safety for it
    wild = [sign_vote(w.keyring, 1, cps[3], cps[4], 3, 4)]
    plan_low = liveness_plan(w.tree, w.pool, {w.tree.root, cps[1]},
                             slashed=frozenset())
    if plan_low.source_height < 3 and plan_low.middle_height > 4:
        assert not plan_safe_for(plan_low, wild)


def planned_one_to_two():
    """A world with a second checkpoint at height 2 on a fork, and the plan
    (1 -> 2), (2 -> 3) from the justified checkpoint at height 1."""
    w = make_world()
    blocks = w.grow(10)
    cps = {b.height // 2: b.id for b in blocks if b.height % 2 == 0}
    cps[0] = w.tree.root
    fork = w.grow(2, start=cps[1], proposer=77)
    plan = liveness_plan(w.tree, w.pool, {w.tree.root, cps[1]})
    assert plan.votes[0] == (cps[1], cps[2], 1, 2)
    # the planned vote itself, already cast, is no conflict
    assert plan_safe_for(plan, [sign_vote(w.keyring, 0, *plan.votes[0])])
    return w, cps, fork[-1].id, plan


def test_plan_safe_for_rejects_an_old_vote_at_the_target_height_from_another_source():
    w, cps, _fork_cp, plan = planned_one_to_two()
    assert not plan_safe_for(plan, [sign_vote(w.keyring, 0, cps[0], cps[2], 0, 2)])


def test_plan_safe_for_rejects_an_old_vote_with_the_planned_heights_on_other_blocks():
    w, cps, fork_cp, plan = planned_one_to_two()
    assert not plan_safe_for(plan, [sign_vote(w.keyring, 0, cps[1], fork_cp, 1, 2)])


def test_countable_gives_copies_the_same_verdict():
    w = make_world()
    c1 = first_checkpoint(w).id
    genuine = sign_vote(w.keyring, 0, w.tree.root, c1, 0, 1)
    forged = replace(genuine, signature=bytes(32))
    wrong = replace(genuine, validator_pubkey=w.keyring.pubkey(1))

    def classify(vote):
        return w.cache.classify(w.cache.record(vote))
    snap = classify(genuine)
    assert snap is not None and snap is w.cache.snapshot_for(c1)
    assert classify(replace(genuine)) is snap
    for _ in range(2):
        assert classify(forged) is None
        assert classify(replace(forged)) is None
        assert classify(wrong) is None
    assert classify(genuine) is snap


def test_vote_record_never_returns_a_stale_verdict_for_short_lived_votes():
    # valid and forged votes, each dropped after its check; validators 3 and
    # 4 sign validly but hold no deposit, so their votes never count
    w = make_world()
    c1 = first_checkpoint(w).id
    for i in range(3000):
        vote = sign_vote(w.keyring, i % 5, w.tree.root, c1, 0, 1)
        forged = i % 2 == 1
        if forged:
            vote = replace(vote, signature=bytes(32))
        counts = not forged and i % 5 < 3
        record = w.cache.record(vote)
        assert record.vote is vote and record.valid is not forged
        assert (w.cache.classify(record) is not None) is counts
        assert w.cache.record(vote) is record
        assert (record.snap is not None) is counts
        # the keyring's memo holds every vote it judged; drop it, so only
        # the record can keep a vote (and its id) alive
        w.keyring._verified.clear()


def test_conflict_partners_skip_only_votes_above_their_validators_history(monkeypatch):
    w = make_world()
    blocks = w.grow(10)
    cps = {b.height // 2: b.id for b in blocks if b.height % 2 == 0}
    cps[0] = w.tree.root
    scanned = []
    find = ffg.finality.find_new_violations
    monkeypatch.setattr(ffg.finality, "find_new_violations",
                        lambda history, vote: scanned.append(vote) or find(history, vote))

    def vote(hs, ht):
        return sign_vote(w.keyring, 0, cps[hs], cps[ht], hs, ht)

    v01, v12, v14 = vote(0, 1), vote(1, 2), vote(1, 4)   # each above the last
    v23 = vote(2, 3)        # target not above: surrounded by v14
    v34 = vote(3, 4)        # target not above: same target height as v14
    v05 = vote(0, 5)        # source below: surrounds v12, v14, v23 and v34
    votes = [v01, v12, v14, v23, v34, v05]
    partners = [w.cache.conflict_partners(v) for v in votes]
    assert scanned == [v23, v34, v05]
    for v, found in zip(votes, partners):
        expected = {old.key: check_pair(old, v) for old in votes
                    if old is not v and check_pair(old, v) is not None}
        assert found == expected
    assert set(partners[-1]) == {v12.key, v14.key, v23.key, v34.key}


def test_step_context_carries_every_chain_state_slot():
    parent = ChainState()
    for name in ChainState.__slots__:
        setattr(parent, name, object())
    child = _StepContext(parent, quiet_proto()).st
    for name in ChainState.__slots__:
        assert getattr(child, name) is getattr(parent, name), name
