import hashlib
import heapq
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

import ffg.scenarios
import ffg.sim
from ffg.chain import (BlockTree, SlashEvidence, VoteInclusion, Withdraw,
                       make_block)
from ffg.config import ProtocolConfig
from ffg.errors import ConfigInvalid, NotACheckpoint
from ffg.fork_choice import ClientView
from ffg.leak import LeakConfig, epochs_to_supermajority
from ffg.sim import (Agent, Behavior, DOUBLE_VOTER, GENERIC, HONEST, OFFLINE,
                     SURROUND_VOTER, Network, ScenarioConfig, Simulation,
                     ValidatorSpec, check_link_properties, config_from_dict,
                     config_to_dict, first_conflict, run, tx_from_dict)
from ffg.slashing import slashable
from ffg.votes import Keyring, sign_vote

from conftest import World, build_chain
from test_acceptance import fuzz_config
from test_fork_choice import long_horizon_shaped, proven_violators

CORPUS = Path(__file__).resolve().parent.parent / "scenarios"


def base_config(n=4, epochs=6, seed=1, delta=2, fork_rate=Fraction(0),
                behaviors=None, leak=Fraction(1, 10**9), deposit=100):
    proto = ProtocolConfig(spacing=5, delta=delta, withdrawal_delay=50,
                           leak=LeakConfig(rate=leak))
    behaviors = behaviors or {}
    vals = tuple(ValidatorSpec(i, deposit, behaviors.get(i, Behavior(HONEST)))
                 for i in range(n))
    return ScenarioConfig(name="t", seed=seed, protocol=proto, validators=vals,
                          duration_epochs=epochs, observers=1,
                          proposer_fork_rate=fork_rate)


def test_all_honest_finalizes_every_epoch():
    report = run(base_config(epochs=6))
    client = report.clients["client0"]
    # pipeline latency is one epoch: everything up to duration-2 finalizes
    assert len(client["finalized"]) >= 6 - 2
    assert report.slashings == []
    assert report.passed


def test_all_clients_converge():
    report = run(base_config(epochs=5, delta=3))
    heads = {c["head"] for c in report.clients.values()}
    assert len(heads) == 1
    finals = {tuple(c["finalized"]) for c in report.clients.values()}
    assert len(finals) == 1


def test_determinism_same_seed():
    cfg = base_config(epochs=5, delta=3, fork_rate=Fraction(1, 5))
    assert run(cfg).digest() == run(cfg).digest()


def test_digests_do_not_depend_on_hash_seed():
    # str and bytes hashes are salted per process, so iterating a set of
    # checkpoint ids must never decide what a report contains
    root = Path(__file__).resolve().parent.parent
    code = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from test_acceptance import fuzz_config\n"
        "from ffg.sim import config_from_dict, run\n"
        "corpus = Path(sys.argv[1])\n"
        "for name in sorted(json.loads((corpus / 'digests.json').read_text())):\n"
        "    cfg = config_from_dict(json.loads((corpus / name).read_text()))\n"
        "    print(name, run(cfg).digest())\n"
        "for seed in range(10):\n"
        "    print(seed, run(fuzz_config(seed)).digest())\n")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(root / "src"),
                                               str(root / "tests")]))
        proc = subprocess.run([sys.executable, "-c", code, str(root / "scenarios")],
                              env=env, stdout=subprocess.PIPE, text=True,
                              check=True, timeout=300)
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == 20 and outputs[0] == outputs[1]


def test_different_seed_changes_trace():
    a = run(base_config(seed=1, fork_rate=Fraction(1, 5), delta=3))
    b = run(base_config(seed=2, fork_rate=Fraction(1, 5), delta=3))
    assert a.digest() != b.digest()


def test_double_voter_is_slashed_and_honest_are_not():
    cfg = base_config(n=5, epochs=6, behaviors={4: Behavior(DOUBLE_VOTER, 1)})
    report = run(cfg)
    slashed = {s["validator"] for s in report.slashings}
    assert slashed == {4}
    assert any(s["kind"] == "I" for s in report.slashings)
    assert report.invariants["honest_never_slashed"]
    assert report.invariants["safety_no_conflicting_finalized"]


def test_censored_evidence_leaves_the_violator_unslashed_and_its_chain_rejected():
    # with censor_evidence no proposer offers the pending proof, so the
    # double voter heard at 13 is never slashed and the evidence rule rejects
    # every block stamped more than 2*delta after that; without it one proof
    # lands in time and nothing is rejected
    outcomes = {}
    for censor in (True, False):
        cfg = replace(base_config(n=7, seed=5,
                                  behaviors={0: Behavior(DOUBLE_VOTER, 1)}),
                      censor_evidence=censor)
        sim = Simulation(cfg)
        sim.run_loop()
        view = sim.views["client0"]
        blocks = list(sim.tree.iter_blocks())
        outcomes[censor] = (
            sum(isinstance(tx, SlashEvidence)
                for block in blocks for tx in block.payload),
            len(ffg.sim.build_report(sim, {}).slashings),
            view._heard,
            sum(not view.admissible(block) for block in blocks))
    assert outcomes[True] == (0, 0, {0: 13}, 13)
    assert outcomes[False] == (1, 1, {0: 13}, 0)


def test_censoring_proposers_include_no_evidence_and_views_reject_their_chains():
    # over the fuzz configs with a double voter: censored, no block carries
    # evidence, no one is slashed and the run still passes, and in some run
    # a view's evidence rule rejects a leaf the clock has reached; uncensored,
    # some run slashes
    cfgs = [cfg for cfg in map(fuzz_config, range(60))
            if any(spec.behavior.kind == DOUBLE_VOTER for spec in cfg.validators)]
    assert cfgs
    rejecting = slashing = 0
    for cfg in cfgs:
        sim = Simulation(replace(cfg, censor_evidence=True))
        sim.run_loop()
        report = ffg.sim.build_report(sim, ffg.sim.sweep_invariants(sim))
        assert not any(isinstance(tx, SlashEvidence)
                       for block in sim.tree.iter_blocks() for tx in block.payload)
        assert report.slashings == [] and report.passed, cfg.name
        rejecting += any(view.tree.get(leaf).timestamp <= view.clock
                         and not view.chain_admissible(leaf)
                         for view in sim.views.values()
                         for leaf in view.tree.leaves())
        slashing += bool(run(cfg).slashings)
    assert rejecting > 0 and slashing > 0, (rejecting, slashing)


def test_surround_voter_is_slashed():
    cfg = base_config(n=5, epochs=7, behaviors={4: Behavior(SURROUND_VOTER, 3)})
    report = run(cfg)
    slashed = {(s["validator"], s["kind"]) for s in report.slashings}
    assert (4, "II") in slashed
    assert report.invariants["honest_never_slashed"]


def test_an_agent_skips_a_vote_that_would_surround_its_own():
    # the agent votes (2, 3) on chain a; chain a is then rejected by the
    # evidence rule, and the head moves to a fork b on which nothing is
    # justified, so the next vote would be (0, 4), which surrounds (2, 3)
    proto = ProtocolConfig(spacing=2, delta=4, withdrawal_delay=10,
                           leak=LeakConfig(rate=Fraction(1, 10**9)))
    w = World(proto, [10, 100, 100])
    view = ClientView("v0", w.cache)
    agent = Agent(ValidatorSpec(0, 10), view)
    a = w.grow(6)                            # stamped 1..6, checkpoints at 2, 4, 6
    for block in a:
        view.receive_block(block, 6)
    for i in (1, 2):                         # justify a[1] and a[3]
        view.receive_vote(w.vote(i, w.tree.root, a[1].id), 6)
        view.receive_vote(w.vote(i, a[1].id, a[3].id), 6)
    [vote] = agent.maybe_vote()
    assert (vote.source_height, vote.target_height) == (2, 3)

    b = w.grow(8, proposer=1)                # a fork from the root, stamped 1..8
    for block in b:
        view.receive_block(block, 8)
    # validator 1 double votes at height 1, heard at 8, so a block stamped
    # after 16 on a chain without evidence against it is rejected
    assert view.receive_vote(
        sign_vote(w.keyring, 1, w.tree.root, b[1].id, 0, 1), 8)
    late = make_block(a[-1], 17, None, ())
    w.tree.insert_block(late)
    view.receive_block(late, 17)
    assert not view.chain_admissible(late.id)
    assert view.head() == b[-1].id
    assert view.justified_tip(b[-1].id, below=4) == w.tree.root
    assert agent.maybe_vote() == []
    assert agent.last_voted_height == 4


def test_the_self_check_agrees_with_a_scan_of_every_signed_vote(monkeypatch):
    # the old rule, kept here as the oracle: a vote is skipped when it
    # breaks a condition against any vote the agent signed before
    signed: dict[Agent, list] = {}
    verdicts = Counter()
    maybe_vote, would_violate = Agent.maybe_vote, Agent._would_violate

    def recorded_maybe_vote(agent):
        votes = maybe_vote(agent)
        signed.setdefault(agent, []).extend(votes)
        return votes

    def checked_would_violate(agent, h_s, h_t):
        verdict = would_violate(agent, h_s, h_t)
        assert verdict == any(
            slashable(h_s, h_t, old.source_height, old.target_height) is not None
            for old in signed.get(agent, ()))
        verdicts[verdict] += 1
        return verdict
    monkeypatch.setattr(Agent, "maybe_vote", recorded_maybe_vote)
    monkeypatch.setattr(Agent, "_would_violate", checked_would_violate)

    corpus = [config_from_dict(json.loads(path.read_text()))
              for path in sorted(CORPUS.glob("*.json")) if path.name != "digests.json"]
    configs = [cfg for cfg in corpus if cfg.scenario == GENERIC] \
        + [fuzz_config(seed) for seed in range(300)] \
        + [long_horizon_shaped(3, epochs=40)]
    shapes = Counter()
    for cfg in configs:
        signed.clear()
        run(cfg)
        for votes in signed.values():
            targets = [vote.target_height for vote in votes]
            shapes["double"] += len(set(targets)) < len(targets)
            shapes["nested"] += targets != sorted(targets)
            shapes["longest"] = max(shapes["longest"], len(votes))
    # the oracle saw double voters' and surround voters' histories, and
    # long ones
    assert sum(verdicts.values()) > 10_000, verdicts
    assert shapes["double"] and shapes["nested"] and shapes["longest"] > 40, shapes


def test_offline_minority_stalls_then_leak_resumes():
    # 60/40 split, drain rate 1/10: the oracle says three drained epochs
    oracle = epochs_to_supermajority(600, 400, LeakConfig(rate=Fraction(1, 10)))
    assert oracle == 3
    crash_epoch = 3
    cfg = base_config(n=4, epochs=9, leak=Fraction(1, 10), deposit=200,
                      behaviors={3: Behavior(OFFLINE, crash_epoch)})
    cfg = replace(cfg, validators=(ValidatorSpec(0, 200), ValidatorSpec(1, 200),
                                   ValidatorSpec(2, 200),
                                   ValidatorSpec(3, 400, Behavior(OFFLINE, crash_epoch))))
    report = run(cfg)
    client = report.clients["client0"]
    heights = sorted(int(h) for h in client["first_seen_finalized"])
    # pre-crash finalization reached crash_epoch - 2; the next new height is
    # crash_epoch + oracle
    assert crash_epoch - 2 in heights
    resumed = [h for h in heights if h >= crash_epoch]
    assert resumed and min(resumed) == crash_epoch + oracle
    # the validator stays offline, so it drains every missed window (epochs
    # crash_epoch .. duration-1)
    deposit = 400
    for _ in range(9 - crash_epoch):
        deposit -= deposit // 10
    assert client["leak_totals"] == {"3": 400 - deposit}


@pytest.mark.parametrize("crash", [2, 3, 4])
@pytest.mark.parametrize("offline", [340, 380, 420, 460, 500, 550, 600, 650])
def test_leak_resumes_finality_when_the_oracle_says(offline, crash):
    # criterion 6's construction at one crash point, swept over the offline
    # weight (of 1000) and the crash epoch
    leak = LeakConfig(rate=Fraction(1, 10))
    oracle = epochs_to_supermajority(1000 - offline, offline, leak)
    share = (1000 - offline) // 3
    online = (share, share, 1000 - offline - 2 * share)
    cfg = ScenarioConfig(
        name="crash", seed=5,
        protocol=ProtocolConfig(spacing=5, delta=2, withdrawal_delay=50, leak=leak),
        validators=tuple(ValidatorSpec(i, w) for i, w in enumerate(online))
        + (ValidatorSpec(3, offline, Behavior(OFFLINE, crash)),),
        duration_epochs=crash + oracle + 3, observers=1)
    heights = map(int, run(cfg).clients["client0"]["first_seen_finalized"])
    assert min((h for h in heights if h >= crash), default=None) == crash + oracle


def test_delivery_bound_and_monotonicity_flags():
    report = run(base_config(epochs=4, delta=3))
    assert report.invariants["delivery_within_delta"]
    assert report.invariants["justified_finalized_monotonic"]


class UnjustifyingSimulation(Simulation):
    """Removes every justified checkpoint but the root from one view's
    justified set halfway through the run."""

    def propose(self, now):
        if now == self.cfg.duration_epochs * self.proto.spacing // 2:
            justified = self.views["client0"].fstate.justified
            assert len(justified) > 1
            justified.intersection_update({self.tree.root})
        super().propose(now)


def test_monotonicity_flag_fails_when_a_justified_checkpoint_is_removed(monkeypatch):
    cfg = base_config(epochs=6)
    assert run(cfg).invariants["justified_finalized_monotonic"]
    monkeypatch.setattr(ffg.sim, "Simulation", UnjustifyingSimulation)
    assert not run(cfg).invariants["justified_finalized_monotonic"]


def test_fork_rate_produces_siblings_without_breaking_safety():
    cfg = base_config(n=7, epochs=6, delta=2, fork_rate=Fraction(1, 4), seed=9)
    report = run(cfg)
    parents = {}
    fork_seen = False
    for b in report.blocks:
        if b["parent"] is None:
            continue
        parents.setdefault(b["parent"], []).append(b["id"])
    fork_seen = any(len(kids) > 1 for kids in parents.values())
    assert fork_seen
    assert report.invariants["safety_no_conflicting_finalized"]
    assert report.passed


def test_config_roundtrip_and_validation():
    cfg = base_config(n=3, epochs=4, fork_rate=Fraction(1, 8))
    data = config_to_dict(cfg)
    back = config_from_dict(data)
    assert config_to_dict(back) == data
    with pytest.raises(ConfigInvalid):
        config_from_dict({"validators": []})
    bad = dict(data)
    bad["scenario"] = "nope"
    with pytest.raises(ConfigInvalid):
        config_from_dict(bad)
    dup = dict(data)
    dup["validators"] = [{"index": 0, "deposit": 5}, {"index": 0, "deposit": 5}]
    with pytest.raises(ConfigInvalid):
        config_from_dict(dup)
    early = dict(data)
    early["validators"] = [{"index": 0, "deposit": 5,
                            "behavior": {"kind": "surround_voter", "from_epoch": 2}}]
    with pytest.raises(ConfigInvalid):
        config_from_dict(early)


def test_a_run_validates_its_config_once(monkeypatch):
    # a generic config is validated by `Simulation`, a scripted one by `run`
    cfgs = [base_config(epochs=2),
            config_from_dict(json.loads((CORPUS / "split_finality.json").read_text()))]
    validate, calls = ScenarioConfig.validate, []

    def counted(cfg):
        calls.append(cfg.scenario)
        validate(cfg)

    monkeypatch.setattr(ScenarioConfig, "validate", counted)
    for cfg in cfgs:
        run(cfg)
    assert calls == [GENERIC, "split_finality"]


def test_config_round_trips_on_corpus_and_fuzz_configs():
    cfgs = corpus_configs() + [fuzz_config(seed) for seed in range(100)]
    for cfg in cfgs:
        assert config_from_dict(config_to_dict(cfg)) == cfg, cfg.name


def test_corpus_files_are_in_canonical_form():
    # a file left without a key still loads, with the default, so only this
    # notices a corpus file written at an older schema
    names = sorted(json.loads((CORPUS / "digests.json").read_text()))
    assert len(names) == 10
    for name in names:
        text = (CORPUS / name).read_text()
        canonical = config_to_dict(config_from_dict(json.loads(text)))
        assert text == json.dumps(canonical, indent=2, sort_keys=True) + "\n", name


def honest_run(epochs, *validators, leave=None, double_voters=()):
    """`scenarios/all_honest.json` run for `epochs` with `validators` (spec
    dicts) added, with every genesis validator's `leave_epoch` set to
    `leave`, and with the genesis validators of `double_voters` double
    voting; the finished simulation and its report."""
    data = json.loads((CORPUS / "all_honest.json").read_text())
    for spec in data["validators"]:
        spec["leave_epoch"] = leave
        if spec["index"] in double_voters:
            spec["behavior"]["kind"] = "double_voter"
    data["validators"] += validators
    data["duration_epochs"] = epochs
    sim = Simulation(config_from_dict(data))
    sim.run_loop()
    return sim, ffg.sim.build_report(sim, ffg.sim.sweep_invariants(sim))


def top_finalized_height(sim):
    return max(sim.tree.get(cp).height for cp in sim.proposer.observed_finalized)


def test_a_scheduled_withdraw_waits_for_its_validator_to_be_active():
    # validator 9 joins in epoch 1, so it is active from dynasty 2, which
    # begins after epoch 2: its withdraw is carried from epoch 2 until a
    # block in dynasty 2 applies it, not dropped with epoch 2
    sim, _report = honest_run(6, {"index": 9, "deposit": 50, "join_epoch": 1,
                                  "leave_epoch": 2})
    head = sim.proposer.head()
    carried = [sim.tree.get(bid) for bid in sim.tree.path(head)
               if any(isinstance(tx, Withdraw) for tx in sim.tree.get(bid).payload)]
    assert len(carried) == 1
    assert sim.proto.epoch_of_height(carried[0].height) > 2
    rec = sim.cache.get(head).registry.get(9)
    assert (rec.start_dynasty, rec.end_dynasty) == (2, 4)


def test_a_joiner_votes_and_finality_continues():
    # a joiner of 400 holds 4/9 of the deposits once active; it used to get
    # no agent, so finality stopped at height 10 and the report still passed
    sim, report = honest_run(10, {"index": 9, "deposit": 400, "join_epoch": 1})
    assert any(vote["validator"] == 9 for vote in report.votes)
    assert top_finalized_height(sim) > 10
    assert report.passed


def test_a_violating_joiner_weighs_its_deposit():
    # the sweep weighed violators by genesis deposits alone, so a joiner
    # holding 4/9 of the deposits weighed 0
    _sim, report = honest_run(4, {"index": 9, "deposit": 400, "join_epoch": 1,
                                  "behavior": {"kind": "double_voter"}})
    assert 9 in {s["validator"] for s in report.slashings}
    assert not report.invariants["slashable_weight_under_third"]


def test_a_violating_late_joiner_is_slashed_in_the_head_registry():
    # joining at epoch 3, it used to vote before its deposit landed: its
    # evidence covered it with no record to slash, and the deposit landed
    # after, whole, so a staked violator stayed unslashed
    sim, report = honest_run(10, {"index": 9, "deposit": 400, "join_epoch": 3,
                                  "behavior": {"kind": "double_voter"}})
    state = sim.cache.get(sim.proposer.head())
    rec = state.registry.get(9)
    assert rec.slashed and rec.deposit == 0
    assert 9 in state.evidence_against
    assert min(vote["target_height"] for vote in report.votes
               if vote["validator"] == 9) == 3
    assert report.passed


def test_violators_of_a_handover_weigh_against_the_genesis_total():
    # 0-2 hold 3/5 of the genesis set that 10-14 replace; the sum of every
    # spec's deposit would weigh them as 3/10, under a third
    _sim, report = honest_run(4, *({"index": i, "deposit": 100, "join_epoch": 1}
                                   for i in range(10, 15)),
                              leave=1, double_voters=range(3))
    assert {0, 1, 2} <= {s["validator"] for s in report.slashings}
    assert not report.invariants["slashable_weight_under_third"]


def test_a_full_handover_finalizes_across_the_stitched_link():
    # validators 0-4 leave and 10-14 join in epoch 1, with stitching on
    sim, report = honest_run(10, *({"index": i, "deposit": 100, "join_epoch": 1}
                                   for i in range(10, 15)), leave=1)
    old, new = set(range(5)), set(range(10, 15))
    sets = {}       # finalized height -> (forward set, rear set)
    for cp in sim.proposer.observed_finalized:
        snap = sim.cache.snapshot_for(cp)
        sets[sim.tree.get(cp).height] = (set(snap.forward), set(snap.rear))
    stitched = [height for height, pair in sets.items() if pair == (new, old)]
    assert stitched
    assert any(height > min(stitched) and pair == (new, new)
               for height, pair in sets.items())
    assert top_finalized_height(sim) > 10
    assert report.passed


def test_report_votes_and_blocks_reconstructable():
    report = run(base_config(epochs=4))
    assert report.votes and report.blocks
    ids = {b["id"] for b in report.blocks}
    for b in report.blocks:
        assert b["parent"] is None or b["parent"] in ids


def test_tx_from_dict_rejects_a_kind_it_never_writes():
    # any kind but vote, evidence and deposit used to decode as a withdraw
    keyring = Keyring(0)
    assert tx_from_dict({"kind": "withdraw", "index": 3}, keyring) == \
        Withdraw(3, keyring.pubkey(3))
    with pytest.raises(ValueError, match="bogus"):
        tx_from_dict({"kind": "bogus", "index": 3}, keyring)


def test_network_deliver_is_the_one_delivery_loop():
    # `Simulation` binds the same function under its own name, which the
    # benchmark's `sim.deliver` counter wraps; its agents react in it
    assert Simulation.deliver is Network.deliver


class OrderCheckedSimulation(Simulation):
    """Also keeps the one-entry-per-view heap, as a reference, and checks
    every delivery of the grouped loop against it.

    The reference draws the same jitters (it restores the network stream
    before the grouped broadcast draws them again) and pushes one entry per
    view.  Each delivery must be the reference heap's least entry, and no
    reference entry may still be due when a tick's proposal starts, which is
    when the per-view loop would have run out of entries to deliver."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.reference: list = []
        self._ref_seq = 0
        self.outcomes = Counter()

    def _broadcast(self, kind, payload, sender, now):
        start = self.rng_net.getstate()
        for name in self.views:
            jitter = 0 if name == sender else self.rng_net.randint(0, self.proto.delta)
            self._ref_seq += 1
            heapq.heappush(self.reference,
                           (now + jitter, self._ref_seq, kind, payload, name))
        end = self.rng_net.getstate()
        self.rng_net.setstate(start)
        pushed = len(self.events)
        super()._broadcast(kind, payload, sender, now)
        assert self.rng_net.getstate() == end
        self.outcomes["entries"] += len(self.events) - pushed

    def propose(self, now):
        assert not self.reference or self.reference[0][0] >= now, \
            (now, self.reference[0][:3], self.reference[0][4])
        super().propose(now)

    def deliver(self, kind, payload, names, now):
        for name in names:
            t, _seq, ref_kind, ref_payload, ref_name = heapq.heappop(self.reference)
            n = self.outcomes["deliveries"]
            assert (now, name, kind) == (t, ref_name, ref_kind) \
                and payload is ref_payload, \
                f"delivery {n}: got {(now, name, kind)}, reference {(t, ref_name, ref_kind)}"
            self.outcomes["deliveries"] += 1
            super().deliver(kind, payload, [name], now)


def order_checked_run(cfg):
    sim = OrderCheckedSimulation(cfg)
    sim.run_loop()
    assert not sim.reference and not sim.events
    # grouping happened: fewer heap entries than deliveries
    assert 0 < sim.outcomes["entries"] < sim.outcomes["deliveries"], sim.outcomes
    return sim.outcomes


def test_grouped_events_deliver_in_per_view_order_on_fuzz_worlds():
    seeds = [seed for seed in range(40) if fuzz_config(seed).protocol.delta >= 1][:12]
    assert len(seeds) == 12
    assert {fuzz_config(seed).protocol.delta for seed in seeds} == {1, 2}
    for seed in seeds:
        order_checked_run(fuzz_config(seed))


def test_grouped_events_deliver_in_per_view_order_on_long_horizon_world():
    order_checked_run(long_horizon_shaped(3))


def broadcast_jitters(sim, sender, now):
    """The jitter `_broadcast` gave each non-sender view, in view order."""
    sim.events.clear()
    sim._broadcast("vote", None, sender, now)
    at = {name: t - now for t, _seq, _kind, _payload, names in sim.events
          for name in names}
    assert at.pop(sender) == 0 and len(at) == len(sim.views) - 1
    return [at[name] for name in sim.views if name != sender]


@pytest.mark.parametrize("delta", range(9))
def test_broadcast_jitter_is_the_randint_stream(delta):
    # the inline getrandbits draw must consume exactly what randint(0, delta)
    # would: the same values and the same generator state afterwards
    for seed in (0, 1, 0x6E65745F, 2**40 + 3):
        sim = Simulation(base_config(n=4, delta=delta))
        sim.rng_net = random.Random(seed)
        reference = random.Random(seed)
        names = list(sim.views)
        drawn, expected = [], []
        while len(drawn) < 1000:
            sender = names[len(drawn) % len(names)]
            drawn += broadcast_jitters(sim, sender, 10)
            expected += [reference.randint(0, delta) for _ in names[1:]]
        assert drawn == expected
        assert set(drawn) == set(range(delta + 1))
        assert sim.rng_net.getstate() == reference.getstate()


class TraceRecordingSimulation(Simulation):
    """Keeps the text of every trace line, in the order they are emitted."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.lines = []

    def _hash_lines(self):
        self.lines.extend(self._lines)
        super()._hash_lines()


def test_trace_digest_hashes_every_line_in_emission_order():
    cfg = fuzz_config(18)         # delta 2, two double voters from epoch 1
    assert cfg.protocol.delta == 2
    assert sum(v.behavior.kind == DOUBLE_VOTER for v in cfg.validators) == 2
    sim = TraceRecordingSimulation(cfg)
    sim.run_loop()
    kinds = [line.split("|")[1] for line in sim.lines]
    # evidence lines sit between deliveries, not at the edges of a time
    assert any(kinds[i - 1] == kinds[i + 1] == "deliver" and kinds[i] == "evidence"
               for i in range(1, len(kinds) - 1))
    expected = hashlib.sha256("".join(line + "\n" for line in sim.lines).encode())
    assert sim.trace_digest() == expected.hexdigest()
    assert run(cfg).trace_digest == expected.hexdigest()


def pairwise_first_conflict(tree, checkpoints):
    """The search `first_conflict` replaced: `conflicting` on every pair."""
    cps = sorted(checkpoints)
    for i in range(len(cps)):
        for j in range(i + 1, len(cps)):
            if tree.conflicting(cps[i], cps[j]):
                return cps[i], cps[j]
    return None


def corpus_configs():
    names = sorted(json.loads((CORPUS / "digests.json").read_text()))
    return [config_from_dict(json.loads((CORPUS / name).read_text()))
            for name in names]


def swept_worlds(monkeypatch, cfgs):
    """(tree, finalized union) of each run, as its invariant sweep saw them."""
    seen = []
    sweep = ffg.sim.sweep_invariants

    def capture(world):
        union = set()
        for view in world.views.values():
            union.update(view.observed_finalized)
        seen.append((world.tree, union))
        return sweep(world)

    monkeypatch.setattr(ffg.sim, "sweep_invariants", capture)
    monkeypatch.setattr(ffg.scenarios, "sweep_invariants", capture)
    for cfg in cfgs:
        run(cfg)
    return seen


def test_first_conflict_matches_pairwise_search_on_corpus_and_fuzz_worlds(monkeypatch):
    cfgs = corpus_configs() + [fuzz_config(seed) for seed in range(40)]
    worlds = swept_worlds(monkeypatch, cfgs)
    assert len(worlds) == len(cfgs)
    found = [first_conflict(tree, union) for tree, union in worlds]
    assert found == [pairwise_first_conflict(tree, union) for tree, union in worlds]
    # dyn_attack_nostitch and split_finality finalize conflicting checkpoints
    assert sum(pair is not None for pair in found) >= 2


def branching_tree():
    """Spacing 2: a 40-block trunk and five branches off it."""
    tree = BlockTree(spacing=2)
    trunk = build_chain(tree, 40)
    branches = [build_chain(tree, length, start=trunk[fork].id, t0=100 * (k + 1))
                for k, (fork, length) in enumerate(
                    [(3, 12), (9, 20), (9, 7), (20, 15), (31, 6)])]
    checkpoints = [tree.root] + [b.id for b in tree.blocks.values()
                                 if b.height and b.height % 2 == 0]
    return tree, trunk, branches, checkpoints


def test_first_conflict_matches_pairwise_search_on_a_branching_tree():
    tree, _trunk, branches, checkpoints = branching_tree()
    assert len(checkpoints) == 51
    cps = sorted(checkpoints)
    first = first_conflict(tree, checkpoints)
    assert first == pairwise_first_conflict(tree, checkpoints)
    assert first is not None and first != (cps[0], cps[1])
    assert sum(tree.conflicting(a, b) for i, a in enumerate(cps)
               for b in cps[i + 1:]) > 100
    rng = random.Random(5)
    conflicts = 0
    for _ in range(300):
        subset = rng.sample(checkpoints, rng.randint(0, 20))
        pair = first_conflict(tree, subset)
        assert pair == pairwise_first_conflict(tree, subset)
        conflicts += pair is not None
    assert 50 < conflicts < 300
    # one branch plus the trunk below its fork: a chain, so no conflict
    chain = [cp for cp in checkpoints if tree.is_ancestor(cp, branches[1][-1].id)]
    assert len(chain) == 16
    assert first_conflict(tree, chain) is None


def pairwise_nesting_ok(hs):
    """The nesting check `check_link_properties` replaced: every ordered pair."""
    return not any(i != j and hs[i][0] < hs[j][0] < hs[j][1] < hs[i][1]
                   for i in range(len(hs)) for j in range(len(hs)))


class HeightTree:
    """Stands in for a block tree whose checkpoint ids are their heights."""

    @staticmethod
    def require_checkpoint(cp):
        return cp


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12))
@example([(1, 3), (0, 4), (1, 4), (0, 3)])      # nested, ties at both ends
@example([(0, 3), (1, 3), (1, 4), (0, 2)])      # ties, nothing nested
def test_link_properties_match_pairwise_checks(hs):
    links = [SimpleNamespace(source=h_s, target=h_t) for h_s, h_t in hs]
    distinct = all(n == 1 for n in Counter(h_t for _h_s, h_t in hs).values())
    assert check_link_properties(HeightTree(), links) == {
        "no_double_target_height": distinct,
        "no_nested_links": pairwise_nesting_ok(hs)}


def test_first_conflict_finds_none_on_one_long_chain():
    tree = BlockTree(spacing=5)
    blocks = build_chain(tree, 500)
    checkpoints = [tree.root] + [b.id for b in blocks if b.height % 5 == 0]
    assert len(checkpoints) == 101
    assert first_conflict(tree, checkpoints) is None
    assert pairwise_first_conflict(tree, checkpoints) is None
    assert first_conflict(tree, checkpoints[40:]) is None


def test_first_conflict_rejects_a_non_checkpoint():
    tree = BlockTree(spacing=5)
    blocks = build_chain(tree, 30)
    union = [tree.root, blocks[4].id, blocks[9].id, blocks[12].id]   # height 13
    for search in (first_conflict, pairwise_first_conflict):
        with pytest.raises(NotACheckpoint):
            search(tree, union)
    with pytest.raises(NotACheckpoint):
        first_conflict(tree, [blocks[12].id])


def test_sweep_tests_finalized_conflicts_without_pairwise_ancestry_walks(monkeypatch):
    # the pairwise search made 6,867 ancestry calls in this sweep
    cfg = config_from_dict(json.loads((CORPUS / "long_range_omega5.json").read_text()))
    calls = []
    inside = []
    is_ancestor = BlockTree.is_ancestor
    sweep = ffg.scenarios.sweep_invariants

    def counting_is_ancestor(self, a, b):
        if inside:
            calls.append(1)
        return is_ancestor(self, a, b)

    def marked_sweep(world):
        inside.append(world)
        try:
            return sweep(world)
        finally:
            inside.pop()

    monkeypatch.setattr(BlockTree, "is_ancestor", counting_is_ancestor)
    monkeypatch.setattr(ffg.scenarios, "sweep_invariants", marked_sweep)
    report = run(cfg)
    assert report.invariants["safety_no_conflicting_finalized"]
    assert 0 < len(calls) < 1000


def included_vote_keys(tree, block_id):
    """The keys of the votes in the payloads from the root to `block_id`."""
    keys = set()
    block = tree.get(block_id)
    while block.height > 0:
        keys.update(tx.vote.key for tx in block.payload
                    if isinstance(tx, VoteInclusion))
        block = tree.get(block.parent)
    return keys


class PayloadCheckedSimulation(Simulation):
    """Checks every proposed block's payload against a full scan: the
    pending evidence, in validator order, against every validator the
    parent's chain carries no evidence against, and every vote the proposer
    has received, in receipt order, that the parent's chain has not
    included."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.checked = Counter()
        self._children = Counter()

    def broadcast_block(self, block, now):
        parent_state = self.cache.get(block.parent)
        expected = self._scheduled_txs(self.proto.epoch_of_height(block.height),
                                       parent_state)
        if not self.cfg.censor_evidence:
            covered = proven_violators(self.cache, block.parent)
            expected += [self.pending_evidence[index]
                         for index in sorted(self.pending_evidence)
                         if index not in covered]
        included = included_vote_keys(self.tree, block.parent)
        expected += [VoteInclusion(vote) for vote in self.proposer.votes
                     if vote.key not in included]
        assert block.payload == tuple(expected)
        self.checked["blocks"] += 1
        self.checked["forks"] += self._children[block.parent] > 0
        self._children[block.parent] += 1
        self.checked["votes"] += sum(isinstance(tx, VoteInclusion)
                                     for tx in block.payload)
        self.checked["evidence"] += sum(isinstance(tx, SlashEvidence)
                                        for tx in block.payload)
        self.checked["pending"] += len(self.pending_evidence)
        super().broadcast_block(block, now)


def payload_checked_run(cfg):
    sim = PayloadCheckedSimulation(cfg)
    sim.run_loop()
    return sim.checked


def test_payloads_carry_what_the_parent_chain_has_not_included():
    forked = [cfg for cfg in map(fuzz_config, range(40))
              if cfg.proposer_fork_rate][:12]
    checked = Counter()
    for cfg in forked:
        checked += payload_checked_run(cfg)
    assert min(checked[k] for k in ("forks", "votes", "evidence")) > 0, checked
    censored = payload_checked_run(replace(forked[0], censor_evidence=True))
    assert censored["evidence"] == 0 < censored["pending"], censored
