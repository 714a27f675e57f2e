import json
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import ffg.slashing
from ffg.chain import SlashEvidence, Withdraw, make_block
from ffg.config import ProtocolConfig
from ffg.errors import DifferentValidators, NotConflicting, NotFinalized
from ffg.leak import LeakConfig
from ffg.sim import (Network, ScenarioConfig, ValidatorSpec, build_report,
                     config_from_dict, run)
from ffg.slashing import (AuditResult, ViolationKind, check_pair, safety_audit,
                          scan, slashable, violates)
from ffg.votes import VotePool, sign_vote

from conftest import World
from test_acceptance import forced_dual_case

NO_LEAK = LeakConfig(rate=Fraction(1, 10**9))
CORPUS = Path(__file__).resolve().parent.parent / "scenarios"


def make_world(weights=(100, 100, 100), spacing=2):
    proto = ProtocolConfig(spacing=spacing, delta=4, withdrawal_delay=10,
                           leak=NO_LEAK)
    return World(proto, list(weights))


def fake_vote(keyring, index, hs, ht, tag=0):
    s = bytes([hs, tag]) + b"\x00" * 30
    t = bytes([ht, tag]) + b"\x11" * 30
    return sign_vote(keyring, index, s, t, hs, ht)


# -- pair classification -------------------------------------------------------

def test_double_vote_detected(keyring):
    a = fake_vote(keyring, 0, 2, 4)
    b = fake_vote(keyring, 0, 3, 4)
    v = check_pair(a, b)
    assert v is not None and v.kind is ViolationKind.DOUBLE_VOTE


def test_surround_vote_detected_both_orientations(keyring):
    wide = fake_vote(keyring, 0, 1, 5)
    inner = fake_vote(keyring, 0, 2, 4)
    assert check_pair(wide, inner).kind is ViolationKind.SURROUND_VOTE
    assert check_pair(inner, wide).kind is ViolationKind.SURROUND_VOTE


def test_identical_votes_are_not_distinct(keyring):
    v = fake_vote(keyring, 0, 2, 4)
    assert check_pair(v, v) is None


def test_touching_spans_do_not_violate(keyring):
    # shared endpoints are not strict nesting
    a = fake_vote(keyring, 0, 1, 3)
    b = fake_vote(keyring, 0, 1, 2)
    assert check_pair(a, b) is None
    c = fake_vote(keyring, 0, 2, 3, tag=1)
    assert check_pair(b, c) is None
    # but an equal target height is always condition I
    assert check_pair(a, c).kind is ViolationKind.DOUBLE_VOTE


def test_check_pair_symmetric(keyring):
    cases = [(2, 4, 3, 4), (1, 5, 2, 4), (0, 1, 1, 2), (2, 3, 2, 3)]
    for hs1, ht1, hs2, ht2 in cases:
        a = fake_vote(keyring, 0, hs1, ht1)
        b = fake_vote(keyring, 0, hs2, ht2, tag=1)
        x = check_pair(a, b)
        y = check_pair(b, a)
        assert (x is None) == (y is None)
        if x is not None:
            assert x.kind == y.kind


def test_check_pair_rejects_cross_validator(keyring):
    a = fake_vote(keyring, 0, 2, 4)
    b = fake_vote(keyring, 1, 3, 4)
    with pytest.raises(DifferentValidators):
        check_pair(a, b)


def test_violates_is_the_written_inequality():
    assert violates(1, 5, 2, 4)          # h(s1) < h(s2) < h(t2) < h(t1)
    assert violates(2, 4, 1, 5)
    assert not violates(1, 4, 2, 4)
    assert not violates(1, 2, 3, 4)
    # `slashable` gives I exactly on equal target heights, II exactly on
    # strict nesting between different ones, over all heights 0-6
    for hs1, ht1, hs2, ht2 in product(range(7), repeat=4):
        kind = slashable(hs1, ht1, hs2, ht2)
        nested = hs1 < hs2 < ht2 < ht1 or hs2 < hs1 < ht1 < ht2
        assert (kind is ViolationKind.DOUBLE_VOTE) == (ht1 == ht2)
        assert (kind is ViolationKind.SURROUND_VOTE) == nested
        assert (kind is None) == (ht1 != ht2 and not nested)


# -- pool scan -------------------------------------------------------------------

def test_scan_clean_history_empty(keyring):
    pool = VotePool(keyring)
    for k in range(4):
        pool.add(fake_vote(keyring, 0, k, k + 1))
    assert scan(pool) == []


def test_scan_matches_bruteforce_pairs(keyring):
    pool = VotePool(keyring)
    votes = [fake_vote(keyring, i % 3, hs, ht, tag)
             for i, (hs, ht, tag) in enumerate(
                 [(0, 1, 0), (0, 1, 1), (1, 3, 0), (2, 4, 0), (0, 5, 0),
                  (1, 2, 1), (3, 4, 1), (2, 3, 0)])]
    for v in votes:
        pool.add(v)
    found = {v.key for v in scan(pool)}
    expect = set()
    for i in range(len(pool.votes)):
        for j in range(i + 1, len(pool.votes)):
            a, b = pool.votes[i], pool.votes[j]
            if a.validator_index != b.validator_index or a.key == b.key:
                continue
            hit = (a.target_height == b.target_height
                   or violates(a.source_height, a.target_height,
                               b.source_height, b.target_height))
            if hit:
                expect.add(check_pair(a, b).key)
    assert found == expect and found


def test_scan_sees_cross_branch_and_noncountable_votes():
    w = make_world()
    w.grow(4)
    side = w.grow(4, start=w.tree.root, proposer=1)
    main_leaf = [l for l in w.tree.leaves() if l != side[-1].id][0]
    c2 = w.tree.ancestor_at(main_leaf, 4)
    s2 = side[3].id
    a = w.vote(0, w.tree.root, c2)
    b = w.vote(0, side[1].id, s2)     # source not justified, different branch
    hits = scan(w.pool)
    assert len(hits) == 1 and hits[0].kind is ViolationKind.DOUBLE_VOTE


# -- penalties, applied when a block includes evidence ------------------------------

def evidence_block(w, parent, first, second):
    block = make_block(parent, parent.timestamp + 1, None,
                       (SlashEvidence(first, second),))
    w.tree.insert_block(block)
    return block, w.cache.get(block.id).registry


def double_vote(w, index, tag=0):
    return (fake_vote(w.keyring, index, 2, 4, tag),
            fake_vote(w.keyring, index, 3, 4, tag))


def test_evidence_burns_the_whole_deposit_once():
    w = make_world([1000, 100, 100])
    culprit = 0
    first, second = double_vote(w, 0)
    block, reg = evidence_block(w, w.tree.get(w.tree.root), first, second)
    assert reg.get(culprit).deposit == 0 and reg.get(culprit).slashed
    burned = 1200 - sum(rec.deposit for rec in reg.records.values())
    assert burned == 1000
    assert w.cache.get(block.id).evidence_against == {culprit}
    # the same evidence again, and a second violation by the same validator,
    # slash no second time
    block, reg = evidence_block(w, block, first, second)
    block, reg = evidence_block(w, block, *double_vote(w, 0, tag=1))
    assert sum(rec.deposit for rec in reg.records.values()) == 200
    assert w.cache.get(block.id).evidence_against == {culprit}


def test_a_forged_proof_covers_no_one():
    w = make_world([1000, 100, 100])
    first, second = double_vote(w, 0)
    forged = replace(second, signature=bytes(32))
    block, reg = evidence_block(w, w.tree.get(w.tree.root), first, forged)
    assert w.cache.get(block.id).evidence_against == frozenset()
    assert not reg.get(0).slashed and reg.get(0).deposit == 1000
    # a valid proof after it still covers the validator and slashes it
    block, reg = evidence_block(w, block, first, second)
    assert w.cache.get(block.id).evidence_against == {0}
    assert reg.get(0).slashed


@pytest.mark.parametrize("forged", [False, True])
def test_the_report_lists_exactly_the_slashings_the_chain_applies(forged):
    # the report listed any pair `check_pair` accepts, while the chain also
    # requires both signatures: a forged partner slashed nobody but was listed
    cfg = ScenarioConfig(protocol=make_world().proto,
                         validators=tuple(ValidatorSpec(i, 100) for i in range(3)))
    net = Network(cfg, ())
    genuine, partner = double_vote(net, 0)
    if forged:
        partner = replace(partner, signature=bytes(32))
    block = net.tree.extend(net.tree.root, 1, None, (SlashEvidence(genuine, partner),))
    slashed = net.cache.get(block.id).registry.get(0).slashed
    listed = [s["validator"] for s in build_report(net, {}).slashings]
    assert (slashed, listed) == ((False, []) if forged else (True, [0]))


def test_the_report_lists_the_proof_that_slashed_each_validator_on_its_chain():
    # the report listed every valid proof, also a second one against a
    # validator the block's chain already covers, which slashes no one
    cfg = ScenarioConfig(protocol=make_world().proto,
                         validators=tuple(ValidatorSpec(i, 100) for i in range(3)))
    net = Network(cfg, ())
    tree, root = net.tree, net.tree.root

    def surround(index):
        return SlashEvidence(fake_vote(net.keyring, index, 1, 5),
                             fake_vote(net.keyring, index, 2, 4))

    genuine = surround(0)
    forged = replace(genuine, second=replace(genuine.second, signature=bytes(32)))
    block = tree.extend(root, 1, None, (
        forged, SlashEvidence(*double_vote(net, 0)), genuine,
        SlashEvidence(*double_vote(net, 1))))
    # evidence the chain covers already, and the same proof on another chain
    child = tree.extend(block.id, 2, None, (surround(0), surround(1)))
    sibling = tree.extend(root, 3, None, (surround(0),))
    assert net.cache.get(block.id).evidence_against == {0, 1}
    assert net.cache.get(child.id).evidence_against == {0, 1}
    listed = [(s["validator"], s["kind"], s["included_in"])
              for s in build_report(net, {}).slashings]
    assert listed == [(0, "I", block.id.hex()), (1, "I", block.id.hex()),
                      (0, "II", sibling.id.hex())]


def leaving_chain(w, leaver=3):
    """A chain on which `leaver` withdraws at height 1 and the others
    finalize checkpoints 1 and 2; the second finalization starts the
    leaver's end dynasty and with it the withdrawal delay."""
    E = w.proto.spacing
    cps = [w.tree.root]
    tip = make_block(w.tree.get(w.tree.root), 1, None,
                     (Withdraw(leaver, w.keyring.pubkey(leaver)),))
    w.tree.insert_block(tip)
    for h in range(2, 4 * E + 1):
        votes = []
        if h % E == 1 and len(cps) > 1:
            votes = w.votes([0, 1, 2], cps[-2], cps[-1])
        tip = w.include(tip, votes, timestamp=h)
        if h % E == 0:
            cps.append(tip.id)
    state = w.cache.get(tip.id)
    assert len(state.finalized_at) == 3             # the root and two more
    assert state.registry.get(leaver).unlock_epoch is not None
    return tip


def test_slash_during_withdrawal_delay():
    w = make_world([100, 100, 100, 100])
    leaver = 3
    tip = leaving_chain(w, leaver)
    _block, reg = evidence_block(w, tip, *double_vote(w, 3))
    assert reg.get(leaver).deposit == 0
    assert sum(rec.deposit for rec in reg.records.values()) == 300
    assert reg.get(leaver).slashed and reg.get(leaver).end_dynasty is not None


def test_leaver_paid_out_at_unlock_checkpoint_unless_slashed():
    """The chain engine pays a leaver out (`withdrawn`, plus a `payouts`
    entry) at the first checkpoint block whose epoch reaches its unlock
    epoch, and never when it was slashed during the delay."""
    leaver = 3
    for slashed in (False, True):
        w = make_world([100, 100, 100, 100])
        E = w.proto.spacing
        tip = leaving_chain(w, leaver)
        if slashed:
            tip, _reg = evidence_block(w, tip, *double_vote(w, leaver))
        unlock = w.cache.get(tip.id).registry.get(leaver).unlock_epoch
        assert tip.height < unlock * E
        payouts = []
        while tip.height < (unlock + 2) * E:
            tip = w.include(tip, [])
            state = w.cache.get(tip.id)
            paid = not slashed and tip.height >= unlock * E
            assert state.registry.get(leaver).withdrawn == paid
            payouts.extend(state.payouts)
        assert payouts == ([] if slashed else [(leaver, unlock * E)])


# -- the constructive accountable-safety audit ---------------------------------------

def dual_finalize_equal_height(w):
    """Everyone signs both branches: conflicting same-height finalizations."""
    E = w.proto.spacing
    left = {0: w.tree.get(w.tree.root)}
    right = {0: w.tree.get(w.tree.root)}
    for h in range(1, 2 * E + 1):
        left[h] = w.include(left[h - 1], [], timestamp=h)
    l1, l2 = left[E].id, left[2 * E].id
    right[1] = w.include(right[0], [], timestamp=2 * E + 50)
    for h in range(2, 2 * E + 1):
        right[h] = w.include(right[h - 1], [], timestamp=2 * E + 50 + h)
    r1, r2 = right[E].id, right[2 * E].id
    all_idx = [0, 1, 2]
    lv1 = w.votes(all_idx, w.tree.root, l1)
    lv2 = w.votes(all_idx, l1, l2)
    rv1 = w.votes(all_idx, w.tree.root, r1)
    rv2 = w.votes(all_idx, r1, r2)
    ltip = w.include(w.include(left[2 * E], lv1, timestamp=2 * E + 1), lv2,
                     timestamp=2 * E + 2)
    rtip = w.include(w.include(right[2 * E], rv1, timestamp=2 * E + 60), rv2,
                     timestamp=2 * E + 61)
    assert l1 in w.cache.get(ltip.id).finalized_at
    assert r1 in w.cache.get(rtip.id).finalized_at
    return l1, r1


def test_audit_equal_height_case():
    w = make_world([100, 100, 100])
    l1, r1 = dual_finalize_equal_height(w)
    result = safety_audit(w.cache, w.pool, l1, r1)
    assert result.bound_holds
    assert 3 * result.violator_weight >= result.reference_total
    indexes = [i for i, _ in result.violators]
    assert indexes == [0, 1, 2]
    scanned = {v.key for v in scan(w.pool)}
    for _i, violation in result.violators:
        assert violation.key in scanned
        assert violation.kind is ViolationKind.DOUBLE_VOTE


def test_audit_nested_case():
    # the overlapping chain jumps over the lower finalized pair: surround votes
    w = make_world([100, 100, 100], spacing=2)
    E = 2
    all_idx = [0, 1, 2]
    trunk = {0: w.tree.get(w.tree.root)}
    for h in range(1, E + 1):
        trunk[h] = w.include(trunk[h - 1], [], timestamp=h)
    f = trunk[E]                                   # common fork point, height 1
    fv = w.votes(all_idx, w.tree.root, f.id)

    left = {E: f}
    for h in range(E + 1, 3 * E + 1):
        left[h] = w.include(left[h - 1], [], timestamp=h)
    x_a, child_a = left[2 * E].id, left[3 * E].id

    right = {E: f}
    for h in range(E + 1, 5 * E + 1):
        right[h] = w.include(right[h - 1], [], timestamp=50 + h)
    b_big, child_b = right[4 * E].id, right[5 * E].id

    va1 = w.votes(all_idx, f.id, x_a)              # heights 1 -> 2
    va2 = w.votes(all_idx, x_a, child_a)           # heights 2 -> 3
    vb1 = w.votes(all_idx, f.id, b_big)            # heights 1 -> 4  (skip)
    vb2 = w.votes(all_idx, b_big, child_b)         # heights 4 -> 5

    # deadlines: links into child_a must land by (h+1)*E, so bundle the
    # justification votes with the first follow-up block
    ltip = w.include(w.include(left[3 * E], fv + va1, timestamp=3 * E + 1),
                     va2, timestamp=3 * E + 2)
    rtip = w.include(w.include(right[5 * E], fv + vb1, timestamp=50 + 5 * E + 1),
                     vb2, timestamp=50 + 5 * E + 2)
    assert x_a in w.cache.get(ltip.id).finalized_at
    assert b_big in w.cache.get(rtip.id).finalized_at

    result = safety_audit(w.cache, w.pool, x_a, b_big)
    assert result.bound_holds
    kinds = {v.kind for _i, v in result.violators}
    assert kinds == {ViolationKind.SURROUND_VOTE}
    # soundness: every reported violation satisfies the literal predicate
    for _i, violation in result.violators:
        a, b = violation.vote_a, violation.vote_b
        assert violates(a.source_height, a.target_height,
                        b.source_height, b.target_height)


def test_audit_requires_conflict():
    w = make_world()
    blocks = w.grow(4)
    with pytest.raises(NotConflicting):
        safety_audit(w.cache, w.pool, w.tree.root, blocks[1].id)


def test_audit_requires_both_finalizations():
    w = make_world([100, 100, 100])
    l1, r1 = dual_finalize_equal_height(w)
    E = w.proto.spacing
    # two more branches off the root, with checkpoints no vote names
    bare = w.grow(E, proposer=1)[-1].id
    other = w.grow(E, proposer=2)[-1].id
    for a, b in ((l1, bare), (bare, r1), (bare, other)):
        with pytest.raises(NotFinalized):
            safety_audit(w.cache, w.pool, a, b)


def four_tracker_choice(cache, pool, crossing, link_voters):
    """The reference choice among the audit's crossing pairs: the loop that
    kept the best (weight, total) pair, its violators, weight and total in
    four trackers, taking a pair only when it is strictly better."""
    violators = {}
    weight = 0
    ref_total = 0
    best = None
    for link1, link2 in crossing:
        voters1 = link_voters(cache, pool, link1)
        voters2 = link_voters(cache, pool, link2)
        snap1 = cache.snapshot_for(link1[1])
        snap2 = cache.snapshot_for(link2[1])
        pair_weight = 0
        pair_violators = {}
        for idx in sorted(set(voters1) & set(voters2)):
            record1, record2 = voters1[idx], voters2[idx]
            violation = check_pair(record1.vote, record2.vote)
            if violation is None:
                continue
            pair_violators[idx] = violation
            pair_weight += min(max(record1.forward, record1.rear),
                               max(record2.forward, record2.rear))
        totals = [t for t in (snap1.forward_total, snap1.rear_total,
                              snap2.forward_total, snap2.rear_total) if t > 0]
        pair_total = min(totals) if totals else 0
        if best is None or (3 * pair_weight >= pair_total) > (3 * best[0] >= best[1]) \
                or ((3 * pair_weight >= pair_total) == (3 * best[0] >= best[1])
                    and pair_weight > best[0]):
            best = (pair_weight, pair_total)
            violators = pair_violators
            weight = pair_weight
            ref_total = pair_total
    return AuditResult(tuple(sorted(violators.items())), weight, ref_total)


def tied_crossing_pairs(w):
    """Conflicting finalizations at height 1 whose two crossing pairs tie:
    the links into height 1 share validators 1 and 2, the links into height
    2 share 0 and 3, each pair weighing 200 of 400."""
    E = w.proto.spacing
    a = w.grow(2 * E, proposer=1)
    b = w.grow(2 * E, proposer=2)
    a1, a2 = a[E - 1].id, a[2 * E - 1].id
    b1, b2 = b[E - 1].id, b[2 * E - 1].id
    w.votes([0, 1, 2], w.tree.root, a1)
    w.votes([0, 1, 3], a1, a2)
    w.votes([1, 2, 3], w.tree.root, b1)
    w.votes([0, 2, 3], b1, b2)
    return a1, b1


def test_the_audit_chooses_as_the_four_tracker_loop(monkeypatch):
    # the crossing pairs an audit weighs are read off its `_link_voters`
    # calls, two per pair in order, and each result is compared with the
    # reference's choice among them
    link_voters, audit = ffg.slashing._link_voters, ffg.slashing.safety_audit
    links, checked = [], []

    def recording_link_voters(cache, pool, link):
        links.append(link)
        return link_voters(cache, pool, link)

    def checked_audit(cache, pool, a_m, b_n):
        links.clear()
        result = audit(cache, pool, a_m, b_n)
        crossing = list(zip(links[::2], links[1::2]))
        checked.append((result, four_tracker_choice(cache, pool, crossing,
                                                    link_voters)))
        return result

    monkeypatch.setattr(ffg.slashing, "_link_voters", recording_link_voters)
    monkeypatch.setattr(ffg.slashing, "safety_audit", checked_audit)
    for seed in range(200):
        w, x_a, x_b, *_ = forced_dual_case(seed)
        ffg.slashing.safety_audit(w.cache, w.pool, x_a, x_b)
    audited = []
    for path in sorted(CORPUS.glob("*.json")):
        if path.name != "digests.json":
            before = len(checked)
            run(config_from_dict(json.loads(path.read_text(encoding="utf-8"))))
            if len(checked) > before:
                audited.append(path.name)
    assert audited
    w = make_world([100, 100, 100, 100])
    ffg.slashing.safety_audit(w.cache, w.pool, *tied_crossing_pairs(w))
    # of the two tied pairs the first is kept
    assert [i for i, _v in checked[-1][0].violators] == [1, 2]
    assert len(checked) == 200 + len(audited) + 1
    for got, want in checked:
        assert got == want
