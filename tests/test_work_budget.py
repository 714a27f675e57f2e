"""Work budgets of whole runs: what a run hashes, signs and looks up, counted
over the golden corpus and fuzz configs 0-49.

* each block is hashed once, when it is built (`BlockTree.extend`); views
  receive the objects the run's tree holds, so they hash nothing;
* each vote costs one HMAC, when it is signed; every later verification of
  that object reads the keyring's memo;
* delivery looks a block's chain state up once per heap entry, for every
  view the entry names, and once more per block a view releases from its
  pending buffer;
* one proof slashes a validator's whole deposit, so a chain carries at most
  one evidence transaction per violator, and a view hears at most one
  violation per validator;
* the end-of-run sweep of a generic run classifies and verifies nothing:
  its pool queries read the verdicts the run stored on each vote's record;
* an agent asks `slashable` at most once per voting decision, however many
  votes it has signed;
* the run checks a validator's votes for slashing partners only while some
  view has not heard it, so a deep run with three double voters checks a
  few pairs, not each vote against the voter's whole history;
* a view counts a vote whose record is classified and whose target it has
  marked in one call to `LinkTally.count`, so `FinalityState.on_vote` sees
  only the rest: unclassified records and votes ahead of their targets;
* the `is_ancestor` calls made by `head()` and the `check_pair` calls of a
  whole run are pinned on fixed configs, so a change that moves either
  count re-pins it and says so; pins on the `long_horizon` shape at 80 and
  160 epochs keep `head()`'s walks linear in depth, since it walks a leaf
  off the finalized anchor once, and `scan` to the pairs of violators;
* a report writes each distinct vote object's text once, and `digest()`
  decodes nothing, so neither builds a vote dict.

It also guards that a run leaves no cyclic garbage, which is what lets
`ffg.sim.run` pause the cyclic collector, and that `run` gives the caller
back the collector as it found it.
"""

import gc
import hmac
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import ffg.chain
import ffg.finality
import ffg.scenarios
import ffg.sim
import ffg.slashing
import ffg.votes
from ffg.chain import BlockTree, SlashEvidence, VoteInclusion
from ffg.config import ProtocolConfig
from ffg.finality import ChainStateCache, FinalityState, LinkTally
from ffg.fork_choice import ClientView
from ffg.sim import (Agent, Behavior, DOUBLE_VOTER, GENERIC, Network,
                     ScenarioConfig, Simulation, ValidatorSpec, config_from_dict,
                     run)

from test_acceptance import fuzz_config
from test_fork_choice import long_horizon_shaped

CORPUS = Path(__file__).resolve().parent.parent / "scenarios"


def budget_configs():
    names = sorted(json.loads((CORPUS / "digests.json").read_text()))
    corpus = [config_from_dict(json.loads((CORPUS / name).read_text()))
              for name in names]
    return corpus + [fuzz_config(seed) for seed in range(50)] + [deep_config()]


def deep_config():
    """A deep generic run: 20 validators, 3 of them double voters, a fork in
    one block of five, 20 epochs.  Its chain states stay live the longest,
    so a cycle among them would cost most here."""
    validators = tuple(
        ValidatorSpec(i, 100, Behavior(DOUBLE_VOTER, 1) if i in (3, 9, 15)
                      else Behavior())
        for i in range(20))
    return ScenarioConfig(
        name="deep", seed=4, protocol=ProtocolConfig(spacing=5, delta=2,
                                                     withdrawal_delay=50),
        validators=validators, duration_epochs=20, observers=2,
        proposer_fork_rate=Fraction(1, 5))


def counting(counts, key, function):
    def counted(*args, **kwargs):
        counts[key] += 1
        return function(*args, **kwargs)
    return counted


def test_each_block_hashed_each_vote_signed_and_each_entry_looked_up_once(monkeypatch):
    counts = Counter()
    monkeypatch.setattr(ffg.chain, "block_id",
                        counting(counts, "digests", ffg.chain.block_id))
    monkeypatch.setattr(ffg.votes, "hmac", SimpleNamespace(
        new=counting(counts, "hmacs", hmac.new),
        compare_digest=hmac.compare_digest))
    sign_vote = ffg.votes.sign_vote
    for module in [m for name, m in sys.modules.items() if name.startswith("ffg")]:
        if getattr(module, "sign_vote", None) is sign_vote:
            monkeypatch.setattr(module, "sign_vote",
                                counting(counts, "signed", sign_vote))

    # delivery's own lookups: by the network per heap entry, and by a view
    # per insertion it was given no state for
    delivery_code = {Network.deliver.__code__, ClientView._insert.__code__}
    get = ChainStateCache.get

    def counted_get(cache, block_id):
        if sys._getframe(1).f_code in delivery_code:
            counts["lookups"] += 1
        return get(cache, block_id)
    monkeypatch.setattr(ChainStateCache, "get", counted_get)

    deliver = Network.deliver

    def counted_deliver(net, kind, payload, names, now):
        counts["block_entries"] += kind == "block"
        return deliver(net, kind, payload, names, now)
    monkeypatch.setattr(Network, "deliver", counted_deliver)
    monkeypatch.setattr(Simulation, "deliver", counted_deliver)

    # a view inserts a block either on its receipt (its parent is held) or
    # when it releases the block from its pending buffer
    views = {}
    receive_block = ClientView.receive_block

    def counted_receive(view, block, now, state=None):
        views[id(view)] = view
        blocks = view.tree.blocks
        counts["direct"] += block.id not in blocks and block.parent in blocks
        return receive_block(view, block, now, state)
    monkeypatch.setattr(ClientView, "receive_block", counted_receive)

    released = 0
    for cfg in budget_configs():
        counts.clear()
        views.clear()
        report = run(cfg)
        assert counts["digests"] == len(report.blocks) - 1, cfg.name
        assert counts["hmacs"] == counts["signed"] > 0, cfg.name
        inserted = sum(len(view.tree) - 1 for view in views.values())
        releases = inserted - counts["direct"]
        assert counts["lookups"] == counts["block_entries"] + releases, cfg.name
        released += releases
    # the budget covers the pending buffer
    assert released > 0


def test_the_sweep_of_a_generic_run_classifies_and_verifies_nothing(monkeypatch):
    counts = Counter()
    sweeping = []

    def in_sweep(key, function):
        def counted(*args, **kwargs):
            counts[key] += bool(sweeping)
            return function(*args, **kwargs)
        return counted

    classify_vote = ffg.votes.classify_vote
    for module in [m for name, m in sys.modules.items() if name.startswith("ffg")]:
        if getattr(module, "classify_vote", None) is classify_vote:
            monkeypatch.setattr(module, "classify_vote",
                                in_sweep("classified", classify_vote))
    monkeypatch.setattr(ffg.votes, "hmac", SimpleNamespace(
        new=in_sweep("hmacs", hmac.new), compare_digest=hmac.compare_digest))
    sweep_invariants = ffg.sim.sweep_invariants

    def counted_sweep(net):
        counts["sweeps"] += 1
        sweeping.append(True)
        try:
            return sweep_invariants(net)
        finally:
            sweeping.pop()
    monkeypatch.setattr(ffg.sim, "sweep_invariants", counted_sweep)

    configs = [cfg for cfg in budget_configs() if cfg.scenario == GENERIC]
    for cfg in configs:
        run(cfg)
        assert counts["classified"] == counts["hmacs"] == 0, cfg.name
    assert counts["sweeps"] == len(configs) > 50


def test_an_agent_asks_slashable_at_most_once_per_decision(monkeypatch):
    # an agent checks a vote against the one signed vote with the greatest
    # source height, so the check costs the same however many it signed
    counts = Counter()
    monkeypatch.setattr(ffg.sim, "slashable",
                        counting(counts, "asked", ffg.sim.slashable))
    maybe_vote = Agent.maybe_vote
    signed = Counter()
    longest = 0

    def counted_maybe_vote(agent):
        nonlocal longest
        asked = counts["asked"]
        votes = maybe_vote(agent)
        assert counts["asked"] - asked <= 1
        if counts["asked"] > asked:
            longest = max(longest, signed[agent])
        signed[agent] += len(votes)
        return votes
    monkeypatch.setattr(Agent, "maybe_vote", counted_maybe_vote)

    for cfg in budget_configs():
        signed.clear()
        run(cfg)
    assert counts["asked"] > 1000
    assert longest >= 20


def test_a_deep_run_checks_few_vote_pairs_for_violations(monkeypatch):
    # once every view has heard a double voter, the run checks none of its
    # later votes; checking each against the voter's history made 42 calls
    # and 630 pair checks here
    checked = Counter()
    find = ffg.finality.find_new_violations

    def counted(history, vote):
        checked["calls"] += 1
        checked["pairs"] += len(history)
        return find(history, vote)
    monkeypatch.setattr(ffg.finality, "find_new_violations", counted)
    Simulation(deep_config()).run_loop()
    assert 0 < checked["pairs"] <= 30, checked


def test_a_view_counts_a_ready_vote_without_on_vote(monkeypatch):
    # before ready records were counted in `receive_vote`, every receipt went
    # through `on_vote`: 49,656 calls over these configs
    counts = Counter()
    view_code = {ClientView.receive_vote.__code__,
                 FinalityState.on_vote.__code__}
    receive_vote, on_vote = ClientView.receive_vote, FinalityState.on_vote
    count = LinkTally.count

    def counted_count(links, *args):
        counts["view counts"] += sys._getframe(1).f_code in view_code
        return count(links, *args)
    monkeypatch.setattr(ClientView, "receive_vote",
                        counting(counts, "receipts", receive_vote))
    monkeypatch.setattr(FinalityState, "on_vote",
                        counting(counts, "on_vote", on_vote))
    monkeypatch.setattr(LinkTally, "count", counted_count)
    for cfg in budget_configs():
        run(cfg)
    assert counts["receipts"] > 40_000, counts
    # each receipt is counted at most once, however it reaches the tally
    assert 0 < counts["view counts"] <= counts["receipts"], counts
    assert 3 * counts["on_vote"] <= counts["receipts"], counts


# config label -> (head() calls, is_ancestor calls within them, check_pair calls
# in the whole run).  The `long_horizon` shape at 80 and 160 epochs pins the
# depth terms: head() walks a leaf off the finalized anchor once, and `scan`
# checks the pairs of violators only, whose votes grow with depth.
SEARCH_PINS = {"fuzz0": (127, 365, 115), "fuzz7": (82, 82, 66),
               "deep": (423, 1729, 1296), "long3": (843, 3244, 5513),
               "long3@80": (1643, 7236, 21743),
               "long3@160": (3323, 14442, 92463)}


def test_head_ancestry_checks_and_vote_pair_checks_match_their_pins(monkeypatch):
    counts = Counter()
    in_head = []
    head, is_ancestor = ClientView.head, BlockTree.is_ancestor

    def counted_head(view):
        counts["head"] += 1
        in_head.append(True)
        try:
            return head(view)
        finally:
            in_head.pop()

    def counted_is_ancestor(tree, a, b):
        counts["is_ancestor"] += bool(in_head)
        return is_ancestor(tree, a, b)
    monkeypatch.setattr(ClientView, "head", counted_head)
    monkeypatch.setattr(BlockTree, "is_ancestor", counted_is_ancestor)
    check_pair = ffg.slashing.check_pair
    for module in [m for name, m in sys.modules.items() if name.startswith("ffg")]:
        if getattr(module, "check_pair", None) is check_pair:
            monkeypatch.setattr(module, "check_pair",
                                counting(counts, "check_pair", check_pair))
    configs = {"fuzz0": fuzz_config(0), "fuzz7": fuzz_config(7),
               "deep": deep_config(),
               "long3": long_horizon_shaped(3, epochs=40),
               "long3@80": long_horizon_shaped(3, epochs=80),
               "long3@160": long_horizon_shaped(3, epochs=160)}
    seen = {}
    for name, cfg in configs.items():
        counts.clear()
        run(cfg)
        seen[name] = (counts["head"], counts["is_ancestor"], counts["check_pair"])
    assert seen == SEARCH_PINS
    # twice the depth, about twice the ancestry walks
    assert seen["long3@160"][1] <= 2.2 * seen["long3@80"][1]


def test_a_report_writes_each_vote_object_once_and_its_digest_decodes_nothing(
        monkeypatch):
    counts = Counter()
    monkeypatch.setattr(ffg.sim, "_vote_json",
                        counting(counts, "written", ffg.sim._vote_json))
    monkeypatch.setattr(ffg.sim, "json", SimpleNamespace(
        loads=counting(counts, "decoded", json.loads)))
    build_report = ffg.sim.build_report

    def checked(net, *args):
        votes = {id(vote): vote for vote in net.pool.votes}
        for block in net.tree.iter_blocks():
            for tx in block.payload:
                if isinstance(tx, VoteInclusion):
                    votes[id(tx.vote)] = tx.vote
                elif isinstance(tx, SlashEvidence):
                    votes.update({id(tx.first): tx.first, id(tx.second): tx.second})
        counts.clear()
        report = build_report(net, *args)
        report.digest()
        assert counts["written"] == len(votes) > 0, net.cfg.name
        assert counts["decoded"] == 0, net.cfg.name
        return report
    monkeypatch.setattr(ffg.sim, "build_report", checked)
    monkeypatch.setattr(ffg.scenarios, "build_report", checked)
    for cfg in budget_configs():
        run(cfg)


def test_runs_leave_no_cyclic_garbage():
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for cfg in budget_configs():
            run(cfg)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("raises", [False, True])
def test_run_pauses_the_collector_and_restores_the_callers_setting(
        monkeypatch, enabled, raises):
    seen = []
    run_loop = Simulation.run_loop

    def observed_run_loop(sim):
        seen.append(gc.isenabled())
        if raises:
            raise RuntimeError("run failed")
        return run_loop(sim)
    monkeypatch.setattr(Simulation, "run_loop", observed_run_loop)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(RuntimeError, match="run failed"):
                run(fuzz_config(0))
        else:
            run(fuzz_config(0))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


def test_a_deep_run_carries_and_hears_one_proof_per_violator():
    # the `long_horizon` shape at seed 3 and 40 epochs: with a proof per
    # vote pair its chains carried thousands of evidence transactions
    sim = Simulation(long_horizon_shaped(3, epochs=40))
    sim.run_loop()
    carried = 0
    for leaf in sim.tree.leaves():
        against = Counter(tx.first.validator_index
                          for bid in sim.tree.path(leaf)
                          for tx in sim.tree.get(bid).payload
                          if isinstance(tx, SlashEvidence))
        assert max(against.values(), default=0) <= 1, against
        carried += sum(against.values())
    assert carried > 0
    for view in sim.views.values():
        # one heard-at time per violator, in heard-at order
        heard_at = list(view._heard.values())
        assert heard_at == sorted(heard_at), view.name
    assert any(view._heard for view in sim.views.values())
