import hashlib
import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

import pytest

import ffg.scenarios
from ffg.errors import ConfigInvalid
from ffg.scenarios import (Script, admissible_tip, dynamic_attack_config,
                           long_range_config, split_finality_config)
from ffg.sim import (Behavior, OFFLINE, ValidatorSpec, config_from_dict,
                     config_to_dict, run)

CORPUS = Path(__file__).resolve().parent.parent / "scenarios"


def test_dynamic_attack_unstitched_dual_finalizes_unpunished():
    report = run(dynamic_attack_config(stitching=False))
    assert report.extra["dual_finalized"]
    assert not report.invariants["safety_no_conflicting_finalized"]
    # nobody equivocated: the violator set is empty and the bound fails
    acct = report.invariants["accountability"]
    assert acct is not None
    assert acct["violators"] == [] and not acct["bound_holds"]
    assert report.slashings == []
    assert not report.passed


def test_dynamic_attack_stitched_blocks_the_handover_branch():
    report = run(dynamic_attack_config(stitching=True))
    assert not report.extra["dual_finalized"]
    assert report.invariants["safety_no_conflicting_finalized"]
    assert report.passed


def test_dynamic_attack_same_script_either_mode():
    off = run(dynamic_attack_config(stitching=False, seed=7))
    on = run(dynamic_attack_config(stitching=True, seed=7))
    # identical script: the vote sets coincide, only thresholds differ
    assert [v for v in off.votes] == [v for v in on.votes]
    assert off.extra["conflicting_pair"] == on.extra["conflicting_pair"]


def test_dynamic_attack_branches():
    report = run(dynamic_attack_config(stitching=False))
    p = set(report.extra["branch_p_finalized"])
    q = set(report.extra["branch_q_finalized"])
    c4p = report.extra["checkpoints"]["c4p"]
    c4q = report.extra["checkpoints"]["c4q"]
    assert c4p in p and c4q in q
    assert c4p not in q and c4q not in p


def test_long_range_defended_when_delay_exceeds_four_deltas():
    report = run(long_range_config(5))
    assert report.extra["defended"]
    assert not report.extra["attacker_payout_accepted"]
    assert report.extra["some_chain_reaches_unlock"]
    assert report.extra["evidence_before_unlock_everywhere"]
    assert report.passed
    slashed = {s["validator"] for s in report.slashings}
    assert slashed == {1, 2}


def test_long_range_negative_control_pays_out():
    report = run(long_range_config(3))
    assert not report.extra["defended"]
    assert report.extra["attacker_payout_accepted"]
    # the latest-hearing client is the one that accepts the paying chain
    per = report.extra["per_client"]
    assert per["client1"]["payout_chains"]
    assert not per["client0"]["payout_chains"]
    assert not report.passed


@pytest.mark.parametrize("delta", [20, 30, 50])
def test_long_range_boundary_sits_at_four_deltas(delta):
    # the paper's bound: an unlock delay of r*delta is exposed up to 3*delta
    # and defended from 4*delta, whatever delta is (reveal at 15)
    for ratio in range(1, 9):
        report = run(long_range_config(ratio, delta=delta))
        assert report.config["protocol"]["withdrawal_delay"] == ratio * delta // 5
        assert report.extra["defended"] is (ratio >= 4), ratio
        assert report.extra["attacker_payout_accepted"] is (ratio <= 3), ratio


def takewhile_tip(view, leaf):
    """`admissible_tip` by testing the chain block by block from the root."""
    path = view.tree.path(leaf)
    return ([path[0]] + list(takewhile(view.chain_admissible, path[1:])))[-1]


def test_admissible_tip_matches_the_block_by_block_walk(monkeypatch):
    # the long-range corpus files and the reveal-15 sweep of
    # test_long_range_boundary_sits_at_four_deltas
    corpus = [config_from_dict(json.loads((CORPUS / name).read_text()))
              for name in ("long_range_omega3.json", "long_range_omega5.json")]
    sweep = [long_range_config(ratio, delta=delta)
             for delta in (20, 30, 50) for ratio in range(1, 9)]
    analyze = ffg.scenarios.analyze_longrange
    tips = Counter()

    def checked(s, *args):
        for view in s.views.values():
            for leaf in view.tree.leaves():
                tip = admissible_tip(view, leaf)
                assert tip == takewhile_tip(view, leaf), (s.cfg.name, view.name)
                tips["cut" if tip != leaf else "whole"] += 1
        return analyze(s, *args)
    monkeypatch.setattr(ffg.scenarios, "analyze_longrange", checked)
    for cfg in corpus + sweep:
        run(cfg)
    # both outcomes occur: chains cut short by the evidence rule, and whole
    assert tips["cut"] and tips["whole"], tips


def test_long_range_clients_keep_first_seen_finalized():
    report = run(long_range_config(5))
    for name, client in report.clients.items():
        head = client["head"]
        finalized_heights = client["first_seen_finalized"]
        assert finalized_heights["1"]      # the real chain's first checkpoint
    # heads stay on the evidence-carrying chain
    assert len({c["head"] for c in report.clients.values()}) == 1


def test_split_finality_leak_oracle_alignment():
    report = run(split_finality_config())
    k = report.extra["oracle_epochs"]
    assert k == {"a": 7, "b": 7}
    # the first window each side misses is window 1, so the first checkpoint
    # whose snapshot is drained k times sits at height 1 + k
    assert report.extra["first_finalized_height"] == {"a": 8, "b": 8}


def split_with(deposits, partition):
    return replace(split_finality_config(),
                   validators=tuple(ValidatorSpec(i, d)
                                    for i, d in sorted(deposits.items())),
                   params={"partition": partition})


def test_split_finality_schedules_links_by_each_drained_deposit():
    # side a's three deposits drain as three floors, slower than one sum of
    # 350 would: that sum said 7 epochs and side b never finalized
    report = run(split_with({0: 120, 1: 340, 2: 130, 3: 100}, [[0, 2, 3], [1]]))
    assert report.extra["oracle_epochs"] == {"a": 7, "b": 8}
    assert report.extra["first_finalized_height"] == {"a": 8, "b": 9}
    # 15 and 15 drain to 9 each and stall, where one sum of 30 reached 15:
    # that config ran, and side b never finalized
    with pytest.raises(ConfigInvalid, match="drain stalls"):
        split_with({0: 15, 1: 31, 2: 15}, [[0, 2], [1]]).validate()


def test_split_finality_no_violations_but_conflict():
    report = run(split_finality_config())
    assert not report.invariants["safety_no_conflicting_finalized"]
    assert report.slashings == []
    acct = report.invariants["accountability"]
    assert acct is not None and acct["violators"] == []
    assert not report.passed


def test_split_finality_clients_diverge_by_arrival():
    report = run(split_finality_config())
    heads = report.extra["heads"]
    assert heads["client0"] != heads["client1"]
    assert any(h.startswith("first-seen-kept") for h in report.heuristics)


def test_split_finality_each_side_loses_on_the_other_chain():
    report = run(split_finality_config())
    assert report.extra["leaked_on_a"]["1"] > 0
    assert report.extra["leaked_on_b"]["0"] > 0
    assert report.extra["leaked_on_a"]["1"] == report.extra["leaked_on_b"]["0"]


def test_scenarios_are_deterministic():
    for cfg_fn, arg in ((dynamic_attack_config, False), (dynamic_attack_config, True),
                        (long_range_config, 5), (long_range_config, 3),
                        (split_finality_config, None)):
        cfg = cfg_fn(arg) if arg is not None else cfg_fn()
        assert run(cfg).digest() == run(cfg).digest()


class RecordingScript(Script):
    def __init__(self, cfg):
        super().__init__(cfg)
        self.delivered = []

    def deliver(self, kind, payload, names, now):
        for name in names:
            self.delivered.append((now, name, payload))
            super().deliver(kind, payload, [name], now)


def test_script_delivers_in_time_then_send_then_listed_name_order():
    s = RecordingScript(replace(split_finality_config(), observers=3))
    blocks = [s.tree.get(s.tree.root)]
    for h in range(1, 6):
        blocks.append(s.extend(blocks[-1].id, h))
    b1, b2, b5 = blocks[1], blocks[2], blocks[5]
    vote = s.vote(0, s.tree.root, b5.id)
    s.send_block(b2, 5, names=["client2", "client0"])
    s.send_block(b1, 3)
    s.send_vote(vote, 5, names=["client1"])
    s.send_block(b2, 3, names=["client1", "client2"])
    s.send_block(b1, 4, names=["client0"])
    s.finish(final_clock=6)
    assert s.delivered == [
        (3, "client0", b1), (3, "client1", b1), (3, "client2", b1),
        (3, "client1", b2), (3, "client2", b2),
        (4, "client0", b1),
        (5, "client2", b2), (5, "client0", b2), (5, "client1", vote)]
    # the simulator's trace lines: blocks and votes as built, then deliveries
    lines = [f"{b.height}|block|{b.id.hex()}" for b in blocks[1:]]
    lines.append(f"5|vote|{vote.key}")
    lines += [f"{t}|deliver|{name}|{'vote' if p is vote else 'block'}"
              for t, name, p in s.delivered]
    expected = hashlib.sha256("".join(line + "\n" for line in lines).encode())
    assert s.trace_digest() == expected.hexdigest()


def test_script_sends_to_no_view_when_names_is_empty():
    s = RecordingScript(split_finality_config())
    block = s.extend(s.tree.root, 1)
    vote = s.vote(0, s.tree.root, s.tree.root)
    s.send_block(block, 1, names=[])
    s.send_vote(vote, 1, names=[])
    s.finish(final_clock=2)
    assert s.delivered == []
    assert all(len(view.tree) == 1 and not view.votes
               for view in s.views.values())


class UnjustifyingScript(Script):
    """Empties client0's justified set, but for the root, once it has
    justified two checkpoints beyond the root."""

    emptied = False

    def deliver(self, kind, payload, names, now):
        for name in names:
            justified = self.views["client0"].fstate.justified
            if not self.emptied and len(justified) > 2:
                justified.intersection_update({self.tree.root})
                self.emptied = True
            super().deliver(kind, payload, [name], now)


def test_script_reports_a_shrinking_justified_set(monkeypatch):
    cfg = dynamic_attack_config(stitching=True)
    assert run(cfg).invariants["justified_finalized_monotonic"]
    monkeypatch.setattr(ffg.scenarios, "Script", UnjustifyingScript)
    report = run(cfg)
    assert not report.invariants["justified_finalized_monotonic"]
    assert not report.passed


SCRIPTED_CONFIGS = (dynamic_attack_config(stitching=True), long_range_config(5),
                    split_finality_config())


@pytest.mark.parametrize("observers", [1, 3])
def test_scripted_scenarios_reject_observer_counts_they_cannot_serve(observers):
    # the scripts send to client0 and client1 by name
    for cfg in SCRIPTED_CONFIGS:
        data = config_to_dict(replace(cfg, observers=observers))
        with pytest.raises(ConfigInvalid, match="observers"):
            config_from_dict(data)
        assert config_from_dict(config_to_dict(cfg)) == cfg


def with_field(cfg, field, value):
    """`cfg` with `field` set to `value`: on its last validator for a spec's
    join or leave epoch, or for `from_epoch`, which it then reads as an
    offline validator's (so the honest-validator rule does not fire first),
    else on the config itself."""
    *kept, last = cfg.validators
    if field in ("join_epoch", "leave_epoch"):
        return replace(cfg, validators=(*kept, replace(last, **{field: value})))
    if field == "from_epoch":
        return replace(cfg, validators=(*kept, replace(
            last, behavior=Behavior(OFFLINE, value))))
    return replace(cfg, **{field: value})


@pytest.mark.parametrize("field, value", [
    ("censor_evidence", True), ("proposer_fork_rate", Fraction(1, 4)),
    ("join_epoch", 2), ("leave_epoch", 2), ("duration_epochs", 9),
    ("from_epoch", 5)])
def test_scripted_scenarios_reject_config_fields_they_never_read(field, value):
    for cfg in SCRIPTED_CONFIGS:
        data = config_to_dict(with_field(cfg, field, value))
        with pytest.raises(ConfigInvalid, match=field):
            config_from_dict(data)


@pytest.mark.parametrize("cfg", SCRIPTED_CONFIGS, ids=lambda cfg: cfg.scenario)
def test_scripted_scenarios_read_exactly_their_params(cfg):
    # a param the script never reads used to be accepted, and a missing one
    # fell back to a default written in the script or failed mid-run
    assert config_from_dict(config_to_dict(cfg)) == cfg
    first = next(iter(cfg.params))
    missing = {k: v for k, v in cfg.params.items() if k != first}
    unread = {**cfg.params, "extra_keys": [3, 4, 5]}
    for params in (missing, unread):
        with pytest.raises(ConfigInvalid, match="reads exactly the params"):
            config_from_dict(config_to_dict(replace(cfg, params=params)))
