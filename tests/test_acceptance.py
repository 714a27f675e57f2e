"""End-to-end acceptance suite.

Each test prints one pass/fail line per criterion (see the terminal summary
section).  Criteria cover: safety under a bounded adversary at fuzz scale,
constructive accountability, the liveness plan, the validator-handover
stitching attack, the long-range defense window, the inactivity leak, the
fork-choice divergence construction, the link/justification property suite
with brute-force equivalence, and byte-exact report determinism.
"""

import multiprocessing
import random
import time
from dataclasses import replace
from fractions import Fraction

from ffg.config import ProtocolConfig
from ffg.errors import NoExtension
from ffg.finality import compute_justified, liveness_plan, plan_safe_for
from ffg.leak import LeakConfig, epochs_to_supermajority
from ffg.scenarios import (dynamic_attack_config, long_range_config,
                           split_finality_config)
from ffg.sim import (Behavior, DOUBLE_VOTER, HONEST, OFFLINE, SURROUND_VOTER,
                     ScenarioConfig, ValidatorSpec, run)
from ffg.slashing import check_pair, safety_audit, scan, violates
from ffg.votes import sign_vote

from conftest import World, record_criterion

NO_LEAK = LeakConfig(rate=Fraction(1, 10**9))


# -----------------------------------------------------------------------------
# Criterion 1: safety fuzz, 10_000 seeded runs under a < 1/3 adversary
# -----------------------------------------------------------------------------

def fuzz_config(seed: int) -> ScenarioConfig:
    rng = random.Random(seed)
    n = rng.randint(7, 20)
    weights = [rng.choice([60, 80, 100, 120, 140]) for _ in range(n)]
    total = sum(weights)
    idx = list(range(n))
    rng.shuffle(idx)
    adversaries, aw = [], 0
    for i in idx:
        if 3 * (aw + weights[i]) < total and len(adversaries) < 4:
            adversaries.append(i)
            aw += weights[i]
    behaviors = {}
    for i in adversaries:
        kind = rng.choice([DOUBLE_VOTER, SURROUND_VOTER, OFFLINE])
        from_epoch = 3 if kind == SURROUND_VOTER else rng.randint(1, 3)
        behaviors[i] = Behavior(kind, from_epoch)
    proto = ProtocolConfig(spacing=5, delta=rng.randint(0, 2),
                           withdrawal_delay=50,
                           leak=LeakConfig(rate=Fraction(1, 10)))
    validators = tuple(ValidatorSpec(i, weights[i],
                                     behaviors.get(i, Behavior(HONEST)))
                       for i in range(n))
    return ScenarioConfig(
        name=f"fuzz{seed}", seed=seed, protocol=proto, validators=validators,
        duration_epochs=rng.randint(4, 5), observers=1,
        proposer_fork_rate=rng.choice([Fraction(0), Fraction(1, 6), Fraction(1, 4)]))


def _fuzz_worker(seed: int) -> tuple[int, dict]:
    report = run(fuzz_config(seed))
    inv = report.invariants
    return seed, {
        "safety": inv["safety_no_conflicting_finalized"],
        "under_third": inv["slashable_weight_under_third"],
        "properties": inv["link_properties_ok"],
        "honest": inv["honest_never_slashed"],
        "delivery": inv["delivery_within_delta"],
        "monotonic": inv["justified_finalized_monotonic"],
    }


FUZZ_RUNS = 10_000
_fuzz_summary: dict = {}


def test_criterion_1_safety_fuzz():
    started = time.time()
    failures = []
    flags_all = {"properties": True, "monotonic": True, "under_third": True}
    with multiprocessing.Pool(processes=min(4, multiprocessing.cpu_count())) as pool:
        for seed, flags in pool.imap_unordered(_fuzz_worker, range(FUZZ_RUNS),
                                               chunksize=64):
            if not (flags["safety"] and flags["honest"] and flags["delivery"]):
                failures.append((seed, flags))
            for key in flags_all:
                flags_all[key] = flags_all[key] and flags[key]
    elapsed = time.time() - started
    passed = not failures and elapsed < 300 and flags_all["under_third"]
    _fuzz_summary.update(flags_all)
    _fuzz_summary["done"] = True
    record_criterion(1, "safety fuzz", passed,
                     f"{FUZZ_RUNS} runs, {elapsed:.0f}s, {len(failures)} violations")
    assert not failures, failures[:3]
    assert elapsed < 300, f"runtime target missed: {elapsed:.0f}s"


# -----------------------------------------------------------------------------
# Criterion 2: constructive accountability on forced dual finalizations
# -----------------------------------------------------------------------------

def forced_dual_case(seed: int):
    """Random static set, two supermajority subsets, equal-height or nested
    conflicting finalizations confirmed by the inclusion engine."""
    rng = random.Random(seed)
    E = 2
    n = rng.randint(4, 9)
    weights = [rng.choice([50, 75, 100, 125, 150]) for _ in range(n)]
    total = sum(weights)
    w = World(ProtocolConfig(spacing=E, delta=4, withdrawal_delay=10,
                             leak=NO_LEAK), weights, seed=seed)

    def supermajority_subset():
        order = list(range(n))
        rng.shuffle(order)
        out, sw = [], 0
        for i in order:
            if 3 * sw < 2 * total:
                out.append(i)
                sw += weights[i]
        return sorted(out)

    side_a, side_b = supermajority_subset(), supermajority_subset()
    mode = rng.choice(["equal", "nested"])
    f = rng.randint(0, 2)

    # common trunk to checkpoint height f, justified by everyone, in time
    trunk = {0: w.tree.get(w.tree.root)}
    cps = {0: w.tree.root}
    pending = []
    for h in range(1, f * E + 1):
        payload = pending
        pending = []
        trunk[h] = w.include(trunk[h - 1], payload, timestamp=h)
        if h % E == 0:
            cps[h // E] = trunk[h].id
            pending = w.votes(range(n), cps[h // E - 1], cps[h // E])
    fork = trunk[f * E]
    fork_votes = pending

    def build_branch(members, jump, t0):
        chain = {f * E: fork}
        top = f + jump + 1
        for h in range(f * E + 1, top * E + 1):
            chain[h] = w.include(chain[h - 1], [], timestamp=t0 + h)
        x = chain[(f + jump) * E].id
        child = chain[top * E].id
        v1 = w.votes(members, fork.id, x)
        v2 = w.votes(members, x, child)
        tip = w.include(chain[top * E], fork_votes + v1, timestamp=t0 + top * E + 1)
        tip = w.include(tip, v2, timestamp=t0 + top * E + 2)
        return x, tip

    x_a, tip_a = build_branch(side_a, 1, 0)
    jump = 1 if mode == "equal" else 3
    x_b, tip_b = build_branch(side_b, jump, 1000)
    assert x_a in w.cache.get(tip_a.id).finalized_at
    assert x_b in w.cache.get(tip_b.id).finalized_at
    return w, x_a, x_b, side_a, side_b, weights, mode


def test_criterion_2_accountability():
    cases = 200
    bad = []
    for seed in range(cases):
        w, x_a, x_b, side_a, side_b, weights, mode = forced_dual_case(seed)
        result = safety_audit(w.cache, w.pool, x_a, x_b)
        overlap = sorted(set(side_a) & set(side_b))
        expect_weight = sum(weights[i] for i in overlap)
        scanned = {v.key for v in scan(w.pool)}
        ok = (result.bound_holds
              and 3 * result.violator_weight >= result.reference_total
              and [i for i, _ in result.violators] == overlap
              and result.violator_weight == expect_weight
              and all(v.key in scanned for _i, v in result.violators))
        if not ok:
            bad.append((seed, mode))
    record_criterion(2, "accountable safety audit", not bad,
                     f"{cases} forced dual finalizations")
    assert not bad, bad[:5]


# -----------------------------------------------------------------------------
# Criterion 3: the liveness plan always exists and never harms the compliant
# -----------------------------------------------------------------------------

def liveness_case(seed: int):
    rng = random.Random(seed)
    E = 2
    n = rng.randint(4, 6)
    weights = [rng.choice([80, 100, 120]) for _ in range(n)]
    total = sum(weights)
    order = list(range(n))
    rng.shuffle(order)
    compliant, cw = [], 0
    for i in order:
        if 3 * cw < 2 * total:
            compliant.append(i)
            cw += weights[i]
    compliant = sorted(compliant)
    adversaries = [i for i in range(n) if i not in compliant]

    w = World(ProtocolConfig(spacing=E, delta=4, withdrawal_delay=10,
                             leak=NO_LEAK), weights, seed=seed)
    epochs = rng.randint(3, 5)
    main = w.grow(epochs * E)
    cps = {0: w.tree.root}
    for b in main:
        if b.height % E == 0:
            cps[b.height // E] = b.id
    if rng.random() < 0.5:
        w.grow(rng.randint(2, 4), start=cps[rng.randint(0, 1)], proposer=99)

    histories = {i: [] for i in range(n)}
    justified = {w.tree.root}
    # compliant prefix: protocol-shaped votes, sources justified at cast time
    for k in range(1, epochs + 1):
        src = max(justified, key=lambda cp: w.tree.require_checkpoint(cp))
        voters = [i for i in compliant if rng.random() < 0.85]
        for i in voters:
            histories[i].append(w.vote(i, src, cps[k]))
        justified = compute_justified(w.cache, w.pool)
        if rng.random() < 0.2:
            break
    # adversarial junk, any shape the tree allows
    all_cps = sorted(cp for cp in w.tree.blocks
                     if w.tree.get(cp).height % E == 0)
    for i in adversaries:
        for _ in range(rng.randint(0, 4)):
            s, t = rng.choice(all_cps), rng.choice(all_cps)
            hs = w.tree.require_checkpoint(s)
            ht = w.tree.require_checkpoint(t)
            if hs >= ht:
                continue
            vote = sign_vote(w.keyring, i, s, t, hs, ht)
            if w.pool.add(vote):
                histories[i].append(vote)
    slashed = {i for i in adversaries if rng.random() < 0.4}
    return w, compliant, histories, slashed


def execute_plan(w, plan, compliant, histories):
    """Sign both rounds, include everything on the plan's branch, and check
    the inclusion engine finalizes the new checkpoint."""
    E = w.proto.spacing
    votes_round1, votes_round2 = [], []
    for i in compliant:
        (s1, t1, hs1, ht1), (s2, t2, hs2, ht2) = plan.votes
        v1 = sign_vote(w.keyring, i, s1, t1, hs1, ht1)
        v2 = sign_vote(w.keyring, i, s2, t2, hs2, ht2)
        w.pool.add(v1)
        w.pool.add(v2)
        histories[i].extend([v1, v2])
        votes_round1.append(v1)
        votes_round2.append(v2)
    tip_block = w.tree.get(plan.child)
    older = [v for v in w.pool.votes if v not in votes_round1 + votes_round2]
    carrier = w.include(tip_block, older + votes_round1,
                        timestamp=tip_block.timestamp + 1)
    carrier = w.include(carrier, votes_round2, timestamp=carrier.timestamp + 1)
    return w.cache.get(carrier.id)


def test_criterion_3_plausible_liveness():
    cases = 1000
    bad = []
    for seed in range(cases):
        w, compliant, histories, slashed = liveness_case(seed)
        justified = compute_justified(w.cache, w.pool)
        try:
            plan = liveness_plan(w.tree, w.pool, justified, slashed)
        except NoExtension:
            # the tree lacks the needed descendants: grow, then re-plan
            h_a = max(w.tree.require_checkpoint(cp) for cp in justified)
            best = [cp for cp in justified
                    if w.tree.require_checkpoint(cp) == h_a]
            need = (max((v.target_height for v in w.pool.votes
                         if v.validator_index not in slashed), default=h_a)
                    + 2) * w.proto.spacing
            tip = min(best)
            tip_h = w.tree.get(tip).height
            w.grow(need - tip_h, start=tip, proposer=77)
            plan = liveness_plan(w.tree, w.pool, justified, slashed)
        safe = all(plan_safe_for(plan, histories[i]) for i in compliant)
        state = execute_plan(w, plan, compliant, histories)
        finalized_new = plan.middle in state.finalized_at
        violations = []
        for i in compliant:
            votes = histories[i]
            for a in range(len(votes)):
                for b in range(a + 1, len(votes)):
                    if check_pair(votes[a], votes[b]) is not None:
                        violations.append((i, a, b))
        if not (safe and finalized_new and not violations):
            bad.append((seed, safe, finalized_new, violations[:2]))
    record_criterion(3, "plausible liveness plan", not bad,
                     f"{cases} adversarial prefixes")
    assert not bad, bad[:5]


# -----------------------------------------------------------------------------
# Criterion 4: the stitched thresholds are necessary and sufficient
# -----------------------------------------------------------------------------

def test_criterion_4_stitching_necessity():
    off = run(dynamic_attack_config(stitching=False, seed=7))
    on = run(dynamic_attack_config(stitching=True, seed=7))
    acct = off.invariants["accountability"]
    unstitched_attack = (off.extra["dual_finalized"]
                         and not off.invariants["safety_no_conflicting_finalized"]
                         and acct is not None and acct["violators"] == []
                         and off.slashings == [])
    stitched_defense = (not on.extra["dual_finalized"]
                        and on.invariants["safety_no_conflicting_finalized"])
    same_script = off.votes == on.votes
    passed = unstitched_attack and stitched_defense and same_script
    record_criterion(4, "dynamic-set stitching", passed,
                     "dual finalization with empty violator set, then prevented")
    assert passed


# -----------------------------------------------------------------------------
# Criterion 5: long-range revision windows
# -----------------------------------------------------------------------------

def test_criterion_5_long_range_defense():
    defended = run(long_range_config(5))
    exposed = run(long_range_config(3))
    ok_defended = (defended.extra["defended"]
                   and not defended.extra["attacker_payout_accepted"]
                   and defended.extra["some_chain_reaches_unlock"]
                   and {s["validator"] for s in defended.slashings} == {1, 2})
    ok_exposed = (exposed.extra["attacker_payout_accepted"]
                  and exposed.extra["per_client"]["client1"]["payout_chains"]
                  and not exposed.extra["per_client"]["client0"]["payout_chains"])
    passed = ok_defended and ok_exposed
    record_criterion(5, "long-range defense (unlock vs 4*delta)", passed,
                     "5x defended, 3x pays the latest-hearing client")
    assert passed


# -----------------------------------------------------------------------------
# Criterion 6: inactivity leak timing against the integer oracle
# -----------------------------------------------------------------------------

def test_criterion_6_inactivity_leak():
    leak = LeakConfig(rate=Fraction(1, 10))
    oracle_60_40 = epochs_to_supermajority(600, 400, leak)
    crash = 3
    cfg = ScenarioConfig(
        name="crash", seed=5,
        protocol=ProtocolConfig(spacing=5, delta=2, withdrawal_delay=50, leak=leak),
        validators=(ValidatorSpec(0, 200), ValidatorSpec(1, 200),
                    ValidatorSpec(2, 200),
                    ValidatorSpec(3, 400, Behavior(OFFLINE, crash))),
        duration_epochs=9, observers=1)
    report = run(cfg)
    heights = sorted(int(h) for h in
                     report.clients["client0"]["first_seen_finalized"])
    resumed = [h for h in heights if h >= crash]
    ok_crash = (oracle_60_40 == 3 and resumed
                and min(resumed) == crash + oracle_60_40)

    split = run(split_finality_config())
    oracle_50_50 = split.extra["oracle_epochs"]
    ok_split = (oracle_50_50 == {"a": 7, "b": 7}
                and split.extra["first_finalized_height"]
                == {"a": 1 + 7, "b": 1 + 7})
    passed = ok_crash and ok_split
    record_criterion(6, "inactivity leak timing", passed,
                     f"60/40 resumes at crash+{oracle_60_40}; 50/50 at height {1 + 7}")
    assert passed


# -----------------------------------------------------------------------------
# Criterion 7: fork-choice divergence on the stuck construction
# -----------------------------------------------------------------------------

def test_criterion_7_fork_choice_divergence():
    from test_fork_choice import build_stuck_world, client, feed_chain
    w, trunk, a_blocks, b_blocks, history = build_stuck_world()
    view = client(w)
    feed_chain(view, w, trunk)
    feed_chain(view, w, a_blocks)
    feed_chain(view, w, b_blocks)
    for votes in history.values():
        for v in votes:
            view.receive_vote(v, 8)
    diverges = (view.head() == a_blocks[-1].id
                and view.longest_chain_head() == b_blocks[-1].id)

    # longest-chain side: every vote that could justify a B checkpoint
    # violates a commandment for every validator
    stuck = True
    justified_on_b = [(w.tree.root, 0), (trunk[1].id, 1)]
    for b in b_blocks:
        if b.height % 2:
            continue
        h_t = w.tree.require_checkpoint(b.id)
        for _s, h_s in justified_on_b:
            if h_s >= h_t:
                continue
            for i, votes in history.items():
                if not any(v.target_height == h_t
                           or violates(h_s, h_t, v.source_height, v.target_height)
                           for v in votes):
                    stuck = False

    # justified-rule side: two more epochs finalize a new checkpoint
    c3a = a_blocks[3].id
    ext = w.grow(4, start=c3a)
    v4 = w.votes([0, 1, 2], c3a, ext[1].id)
    v5 = w.votes([0, 1, 2], ext[1].id, ext[3].id)
    older = [v for vs in history.values() for v in vs]
    carrier = w.include(ext[3], older + v4, timestamp=ext[3].timestamp + 1)
    carrier = w.include(carrier, v5, timestamp=carrier.timestamp + 1)
    finalized = ext[1].id in w.cache.get(carrier.id).finalized_at
    clean = not scan(w.pool)

    passed = diverges and stuck and finalized and clean
    record_criterion(7, "fork-choice divergence", passed,
                     "longest chain stuck; justified rule finalizes in 2 epochs")
    assert passed


# -----------------------------------------------------------------------------
# Criterion 8: property suite and brute-force equivalence
# -----------------------------------------------------------------------------

def test_criterion_8_property_suite():
    from test_finality import (test_engine_matches_naive_on_all_vote_subsets,
                               test_inclusion_engine_matches_naive_finality_on_subsets)
    test_engine_matches_naive_on_all_vote_subsets()
    test_inclusion_engine_matches_naive_finality_on_subsets()
    fuzz_ok = _fuzz_summary.get("done", False) and \
        _fuzz_summary.get("properties", False) and \
        _fuzz_summary.get("monotonic", False)
    if not _fuzz_summary.get("done"):
        # criterion 1 did not run first (filtered invocation): sample instead
        fuzz_ok = True
        for seed in range(300):
            inv = run(fuzz_config(seed)).invariants
            fuzz_ok = fuzz_ok and inv["link_properties_ok"] \
                and inv["justified_finalized_monotonic"]
    record_criterion(8, "link properties + brute-force equivalence", fuzz_ok,
                     "subset enumerations exact; properties hold under 1/3")
    assert fuzz_ok


# -----------------------------------------------------------------------------
# Criterion 9: byte-identical reports per (config, seed)
# -----------------------------------------------------------------------------

def test_criterion_9_determinism():
    configs = [fuzz_config(seed) for seed in range(42)]
    configs += [dynamic_attack_config(stitching=False),
                dynamic_attack_config(stitching=True),
                long_range_config(5), long_range_config(3),
                split_finality_config(),
                replace(split_finality_config(), seed=99),
                replace(dynamic_attack_config(True), seed=123),
                replace(fuzz_config(7), seed=12345)]
    assert len(configs) == 50
    mismatches = []
    for i, cfg in enumerate(configs):
        if run(cfg).digest() != run(cfg).digest():
            mismatches.append(i)
    record_criterion(9, "deterministic reports", not mismatches,
                     "50 scenario/seed pairs re-run byte-identically")
    assert not mismatches, mismatches
