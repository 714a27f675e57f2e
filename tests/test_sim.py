import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from ffg.config import ProtocolConfig
from ffg.errors import ConfigInvalid
from ffg.leak import LeakConfig, epochs_to_supermajority
from ffg.sim import (Behavior, DOUBLE_VOTER, HONEST, OFFLINE, SURROUND_VOTER,
                     ScenarioConfig, ValidatorSpec, config_from_dict,
                     config_to_dict, run)


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


def test_surround_voter_is_slashed():
    cfg = base_config(n=5, epochs=7, behaviors={4: Behavior(SURROUND_VOTER, 3)})
    report = run(cfg)
    slashed = {(s["validator"], s["kind"]) for s in report.slashings}
    assert (4, "II") in slashed
    assert report.invariants["honest_never_slashed"]


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


def test_delivery_bound_and_monotonicity_flags():
    report = run(base_config(epochs=4, delta=3))
    assert report.invariants["delivery_within_delta"]
    assert report.invariants["justified_finalized_monotonic"]


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


def test_report_votes_and_blocks_reconstructable():
    report = run(base_config(epochs=4))
    assert report.votes and report.blocks
    ids = {b["id"] for b in report.blocks}
    for b in report.blocks:
        assert b["parent"] is None or b["parent"] in ids
