import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ffg.chain import SlashEvidence
from ffg.cli import _rebuild_network, main
from ffg.errors import ConfigInvalid
from ffg.sim import (Network, ScenarioConfig, ValidatorSpec, build_report,
                     config_from_dict, config_to_dict, run, sweep_invariants)
from ffg.scenarios import (dynamic_attack_config, long_range_config,
                           split_finality_config)
from ffg.slashing import proven_violation
from test_scenarios import with_field
from test_slashing import dual_finalize_equal_height, make_world

REPO_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config_to_dict(cfg), indent=2))
    return path


def test_run_honest_exits_zero(tmp_path, capsys):
    path = write_scenario(tmp_path, dynamic_attack_config(stitching=True))
    out = tmp_path / "report.json"
    code = main(["run", "--scenario", str(path), "--out", str(out),
                 "--format", "json"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema_version"] == 5
    assert data["clients"]


def test_run_flags_designed_safety_violation(tmp_path):
    path = write_scenario(tmp_path, dynamic_attack_config(stitching=False))
    code = main(["run", "--scenario", str(path)])
    assert code == 2


# the corpus entries whose invariants fail by design (see the README)
FAIL_BY_DESIGN = {"dyn_attack_nostitch.json", "long_range_omega3.json",
                  "split_finality.json"}


def test_run_exits_two_on_exactly_the_corpus_entries_that_fail_by_design(capsys):
    codes = {path.name: main(["run", "--scenario", str(path)])
             for path in sorted(REPO_SCENARIOS.glob("*.json"))
             if path.name != "digests.json"}
    assert len(codes) == 10
    assert {name for name, code in codes.items() if code == 2} == FAIL_BY_DESIGN
    assert {name for name, code in codes.items() if code == 0} \
        == set(codes) - FAIL_BY_DESIGN


def test_python_dash_m_ffg_runs_the_cli():
    root = REPO_SCENARIOS.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "ffg", "check", "--scenario",
         "scenarios/all_honest.json"],
        cwd=root, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ok: all_honest")


def test_run_missing_file_exits_one(tmp_path):
    code = main(["run", "--scenario", str(tmp_path / "absent.json")])
    assert code == 1


def test_strict_flag_passes_clean_runs(tmp_path):
    path = write_scenario(tmp_path, dynamic_attack_config(stitching=True))
    assert main(["run", "--scenario", str(path), "--strict"]) == 0


def test_strict_flag_exits_two_on_heuristic_tie_breaks(capsys):
    # split_finality's views keep their first-seen finalized checkpoints
    code = main(["run", "--scenario", str(REPO_SCENARIOS / "split_finality.json"),
                 "--strict"])
    captured = capsys.readouterr()
    assert code == 2
    assert "heuristics: first-seen-kept:" in captured.out
    assert "strict: heuristic tie-breaks triggered" in captured.err


def test_run_bad_json_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--scenario", str(bad)]) == 1


@pytest.mark.parametrize("out", ["", "missing/report.json"],
                         ids=["a directory", "a missing parent"])
def test_run_out_to_a_directory_or_a_missing_parent_exits_one(tmp_path, capsys,
                                                              out):
    path = write_scenario(tmp_path, dynamic_attack_config(stitching=True))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_seed_override_changes_digest(tmp_path, capsys):
    from ffg.sim import ScenarioConfig, ValidatorSpec
    from ffg.config import ProtocolConfig
    from ffg.leak import LeakConfig
    from fractions import Fraction
    cfg = ScenarioConfig(
        name="basic", seed=1,
        protocol=ProtocolConfig(spacing=5, delta=2,
                                leak=LeakConfig(rate=Fraction(1, 10**9))),
        validators=tuple(ValidatorSpec(i, 100) for i in range(4)),
        duration_epochs=4, observers=1,
        proposer_fork_rate=Fraction(1, 5))
    path = write_scenario(tmp_path, cfg)
    main(["run", "--scenario", str(path)])
    first = capsys.readouterr().out
    main(["run", "--scenario", str(path), "--seed", "99"])
    second = capsys.readouterr().out
    assert first != second


@pytest.mark.parametrize("observers", [1, 3])
def test_run_scripted_scenario_with_other_observer_count_exits_one(
        tmp_path, capsys, observers):
    for cfg in (dynamic_attack_config(stitching=True), long_range_config(5),
                split_finality_config()):
        path = write_scenario(tmp_path, replace(cfg, observers=observers))
        assert main(["run", "--scenario", str(path)]) == 1
        assert "observers" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("censor_evidence", True), ("proposer_fork_rate", Fraction(1, 4)),
    ("join_epoch", 2), ("leave_epoch", 2), ("duration_epochs", 9),
    ("from_epoch", 5)])
def test_run_scripted_scenario_with_a_field_it_never_reads_exits_one(
        tmp_path, capsys, field, value):
    for cfg in (dynamic_attack_config(stitching=True), long_range_config(5),
                split_finality_config()):
        path = write_scenario(tmp_path, with_field(cfg, field, value))
        assert main(["run", "--scenario", str(path)]) == 1
        assert field in capsys.readouterr().err


def test_check_valid_and_invalid(tmp_path, capsys):
    path = write_scenario(tmp_path, dynamic_attack_config(stitching=True))
    assert main(["check", "--scenario", str(path)]) == 0
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"validators": []}))
    assert main(["check", "--scenario", str(broken)]) == 1


def test_check_rejects_a_dynamic_attack_that_run_rejects(tmp_path, capsys):
    # the script's heights assume spacing 5; `check` used to accept what
    # `run` then refused
    data = json.loads((REPO_SCENARIOS / "dyn_attack_stitch.json").read_text())
    data["protocol"]["spacing"] = 4
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--scenario", str(path)]) == 1
    assert "spacing 5" in capsys.readouterr().err
    assert main(["run", "--scenario", str(path)]) == 1


LONG_RANGE = {"attackers": [1, 2], "honest": [0], "reveal": 15}
HANDOVER = {"new_validators": [3, 4, 5], "new_deposit": 100}


# (file, params, protocol fields to change and validators to add); rows
# with no changes keep the ids of the (file, params) rows they began as
SCRIPTED_REJECTS = [
    ("split_finality.json", {"partition": [[0], [5]]}),
    ("split_finality.json", {"partition": [[0], [0]]}),
    ("split_finality.json", {"partition": [[0], []]}),
    ("split_finality.json", {"partition": [[0, 0], [1]]}),
    ("split_finality.json", {"partition": [[0], [True]]}),
    ("split_finality.json", {"partition": [[0]]}),
    ("split_finality.json", {"partition": [[0], [1], []]}),
    ("split_finality.json", {"partition": "01"}),
    ("long_range_omega5.json", {**LONG_RANGE, "reveal": "x"}),
    ("long_range_omega5.json", {**LONG_RANGE, "reveal": -1}),
    ("long_range_omega5.json", {**LONG_RANGE, "reveal": 1.5}),
    ("long_range_omega5.json", {**LONG_RANGE, "attackers": []}),
    ("long_range_omega5.json", {**LONG_RANGE, "attackers": [1, 9]}),
    ("long_range_omega5.json", {**LONG_RANGE, "honest": []}),
    ("long_range_omega5.json", {**LONG_RANGE, "honest": [2]}),
    ("long_range_omega5.json", {**LONG_RANGE, "honest": 0}),
    ("dyn_attack_stitch.json", {**HANDOVER, "new_validators": []}),
    ("dyn_attack_stitch.json", {**HANDOVER, "new_validators": [3, 3]}),
    ("dyn_attack_stitch.json", {**HANDOVER, "new_validators": [0, 4]}),
    ("dyn_attack_stitch.json", {**HANDOVER, "new_validators": [-1]}),
    ("dyn_attack_stitch.json", {**HANDOVER, "new_validators": [2**64]}),
    ("dyn_attack_stitch.json", {**HANDOVER, "new_deposit": 0}),
    ("dyn_attack_stitch.json", {**HANDOVER, "new_deposit": "100"}),
    ("dyn_attack_stitch.json", {**HANDOVER, "new_deposit": 2**64})]
SCRIPTED_REJECTS = [(file, params, {}) for file, params in SCRIPTED_REJECTS] + [
    # a validator outside the partition: the oracle weighed only the two
    # sides, and the run finalized nothing on either
    ("split_finality.json", {"partition": [[0], [1]]},
     {"validators": [{"index": 2, "deposit": 500}]}),
    # the script's heights are written for spacing 5: at spacing 1 it cast
    # no vote and still reported the long-range attack defended
    ("long_range_omega5.json", LONG_RANGE, {"protocol": {"spacing": 1}}),
    ("long_range_omega5.json", LONG_RANGE, {"protocol": {"spacing": 4}})]


@pytest.mark.parametrize(
    "file, params, changes", SCRIPTED_REJECTS,
    ids=["-".join(map(repr, row if row[2] else row[:2]))
         for row in SCRIPTED_REJECTS])
def test_check_and_run_reject_scripted_param_values(tmp_path, capsys, file, params,
                                                    changes):
    # these passed `check` and then failed mid-run (a KeyError, a TypeError)
    # or, for an empty handover, ran and passed without one; an exception
    # escaping `main` would fail this test instead of exiting 1
    data = json.loads((REPO_SCENARIOS / file).read_text())
    data["params"] = params
    data["protocol"].update(changes.get("protocol", {}))
    data["validators"] += changes.get("validators", [])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--scenario", str(path)]) == 1
    assert main(["run", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@settings(max_examples=30, deadline=None)
@given(groups=st.lists(st.lists(st.integers(0, 2), max_size=3), min_size=2,
                       max_size=2),
       reveal=st.integers(-1, 200),
       deposits=st.tuples(st.integers(1, 600), st.integers(1, 600)))
@example(groups=[[0], [1]], reveal=15, deposits=(5, 5))
def test_a_scripted_config_that_loads_runs(groups, reveal, deposits):
    # deposits of 5 and 5 passed `check`, and then the split's leak stalled
    # below the rounding floor mid-run
    long_range = json.loads((REPO_SCENARIOS / "long_range_omega5.json").read_text())
    long_range["params"] = {"attackers": groups[0], "honest": groups[1],
                            "reveal": reveal}
    split = json.loads((REPO_SCENARIOS / "split_finality.json").read_text())
    split["params"] = {"partition": [[i for i in group if i < 2]
                                     for group in groups]}
    for validator, deposit in zip(split["validators"], deposits):
        validator["deposit"] = deposit
    for data in (long_range, split):
        try:
            cfg = config_from_dict(data)
        except ConfigInvalid:
            continue
        run(cfg)


@settings(max_examples=30, deadline=None)
@given(delta=st.integers(0, 8), withdrawal_delay=st.integers(0, 3),
       reveal=st.integers(0, 40))
@example(delta=8, withdrawal_delay=3, reveal=15)
@example(delta=0, withdrawal_delay=3, reveal=10)
def test_a_long_range_config_that_loads_runs(delta, withdrawal_delay, reveal):
    # an early evidence block paired fork votes with real votes not yet
    # cast, which raised KeyError mid-run; the script needs spacing 5
    data = json.loads((REPO_SCENARIOS / "long_range_omega5.json").read_text())
    data["protocol"].update(spacing=5, delta=delta,
                            withdrawal_delay=withdrawal_delay)
    data["params"]["reveal"] = reveal
    run(config_from_dict(data))


def honest_data(behavior=(), spec=(), **changes):
    """`scenarios/all_honest.json` with fields changed: a protocol field in
    the protocol, any other at the top level; `spec` updates the first
    validator and `behavior` its behavior."""
    data = json.loads((REPO_SCENARIOS / "all_honest.json").read_text())
    for key in data["protocol"].keys() & changes.keys():
        data["protocol"][key] = changes.pop(key)
    data["validators"][0].update(spec)
    data["validators"][0]["behavior"].update(behavior)
    data.update(changes)
    return data


@pytest.mark.parametrize("changes", [
    {"spec": {"deposit": -5, "join_epoch": 1}},
    {"spec": {"deposit": 0, "join_epoch": 1}},
    {"spec": {"join_epoch": 2, "leave_epoch": 1}},
    {"spec": {"join_epoch": -1}}, {"spec": {"join_epoch": 1.5}},
    {"spec": {"join_epoch": None}}, {"spec": {"leave_epoch": True}},
    {"spec": {"leave_epoch": 2**64}},
    # no genesis validator: nothing could ever justify
    {"validators": [{"index": 0, "deposit": 100, "join_epoch": 1}]},
    {"observers": -1}, {"validators": [{"index": -1, "deposit": 100}]},
    {"validators": [{"index": 0, "deposit": "100"}]},
    # each of these raised a traceback in `run`, or ran meaning something
    # else than what was written
    {"seed": 1.5}, {"seed": -1}, {"seed": 2**64}, {"seed": True},
    {"duration_epochs": 2.5}, {"duration_epochs": True},
    {"spacing": 5.0}, {"delta": 1.5}, {"delta": True},
    {"withdrawal_delay": 2.5}, {"stitching": "no"}, {"stitching": 0},
    {"censor_evidence": "no"},
    {"behavior": {"kind": "double_voter", "from_epoch": 1.5}},
    {"behavior": {"from_epoch": False}},
    # an honest validator reads no from_epoch, and a negative one ran as 0
    {"behavior": {"from_epoch": 4}},
    {"behavior": {"kind": "offline", "from_epoch": -3}},
    {"behavior": {"kind": "offline", "from_epoch": 2**64}},
    # the 6-epoch run ends before the adversary starts, so it ran as honest
    {"behavior": {"kind": "offline", "from_epoch": 2**64 - 1}},
    {"behavior": {"kind": "offline", "from_epoch": 7}},
    {"behavior": {"kind": "double_voter", "from_epoch": 7}},
    {"behavior": {"kind": "surround_voter", "from_epoch": 7}},
    # the 6-epoch run ends before the join or leave is ever offered
    {"spec": {"join_epoch": 7}}, {"spec": {"leave_epoch": 7}},
    {"duration_epochs": 2, "spec": {"join_epoch": 1, "leave_epoch": 3}},
    # a zero denominator or an infinite float raised an arithmetic error
    {"proposer_fork_rate": "1/0"}, {"leak_rate": "1/0"},
    {"proposer_fork_rate": 1e400},
    # outside the ranges the rules are written for
    {"behavior": {"kind": "lazy_voter"}},
    {"proposer_fork_rate": "1/1"}, {"proposer_fork_rate": "-1/8"},
    {"leak_rate": "0/1"}, {"leak_rate": "1/1"}], ids=repr)
def test_check_rejects_values_that_run_cannot_use(tmp_path, capsys, changes):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(honest_data(**changes)))
    assert main(["check", "--scenario", str(path)]) == 1
    assert main(["run", "--scenario", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("changes", [
    {"spec": {"join_epoch": 6}}, {"spec": {"join_epoch": 1, "leave_epoch": 6}},
    {"behavior": {"kind": "offline", "from_epoch": 0}},
    {"behavior": {"kind": "offline", "from_epoch": 6}}], ids=repr)
def test_check_accepts_the_edge_values(tmp_path, changes):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(honest_data(**changes)))
    assert main(["check", "--scenario", str(path)]) == 0


@pytest.mark.parametrize("where, key, value", [
    ((), "duration_epoch", 40), (("protocol",), "leak-rate", "1/5"),
    (("validators", 0), "join", 1),
    (("validators", 0, "behavior"), "from", 2),
    ((), "schema_version", 7), ((), "params", {"partition": [[0], [1]]}),
    (("protocol",), "leak_disposition", "burn"),
    (("protocol",), "finder_fee", "1/100")],
    ids=repr)
def test_check_rejects_keys_that_nothing_reads(tmp_path, capsys, where, key, value):
    # a misspelt or unread key used to be ignored, so the run silently used
    # the default; a generic run reads no params, only schema 5 exists,
    # leaked deposits are always burned, so no disposition can be set, and
    # slashed deposits are burned whole, so no finder's fee can be set
    data = honest_data()
    part = data
    for step in where:
        part = part[step]
    part[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--scenario", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("level, where, value, name", [
    ("scenario", (), [1], "all_honest.json"),
    ("scenario", (), "x", "all_honest.json"),
    ("scenario", (), None, "all_honest.json"),
    ("protocol", ("protocol",), [1], "all_honest.json"),
    ("protocol", ("protocol",), None, "all_honest.json"),
    ("validator", ("validators", 0), [1], "all_honest.json"),
    ("validator", ("validators", 0), "x", "all_honest.json"),
    ("behavior", ("validators", 0, "behavior"), None, "all_honest.json"),
    ("behavior", ("validators", 0, "behavior"), [1], "all_honest.json"),
    ("params", ("params",), [1], "all_honest.json"),
    ("params", ("params",), [["partition", [[0], [1]]]], "split_finality.json")],
    ids=repr)
def test_check_rejects_a_level_that_is_not_an_object(tmp_path, capsys, level,
                                                     where, value, name):
    # a list or string used to be read as its items' keys, and null failed
    # in iteration, so the error named something else or nothing; params
    # were read with dict(), so a list of pairs loaded
    data = json.loads((REPO_SCENARIOS / name).read_text())
    if where:
        part = data
        for step in where[:-1]:
            part = part[step]
        part[where[-1]] = value
    else:
        data = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--scenario", str(path)]) == 1
    assert f"error: {level}: expected an object" in capsys.readouterr().err


@pytest.mark.parametrize("level, where, key", [
    ("scenario", (), "validators"), ("validator", ("validators", 0), "index"),
    ("validator", ("validators", 0), "deposit")], ids=repr)
def test_check_names_a_missing_required_key(tmp_path, capsys, level, where, key):
    # the error used to be the bare key name, from a KeyError
    data = honest_data()
    part = data
    for step in where:
        part = part[step]
    del part[key]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--scenario", str(path)]) == 1
    assert f"error: {level}: missing required keys {key}" in capsys.readouterr().err


@settings(max_examples=40, deadline=None)
@given(epochs=st.lists(st.tuples(st.integers(-1, 2),
                                 st.none() | st.integers(-1, 2)), max_size=5),
       observers=st.integers(-2, 3), duration=st.integers(1, 2))
def test_a_config_that_loads_runs(epochs, observers, duration):
    # join and leave epochs of the first validators, valid and invalid
    data = honest_data(observers=observers, duration_epochs=duration)
    for spec, (join, leave) in zip(data["validators"], epochs):
        spec.update(join_epoch=join, leave_epoch=leave)
    try:
        cfg = config_from_dict(data)
    except ConfigInvalid:
        return
    run(cfg)


def test_corpus_matches_committed_digests(capsys):
    assert REPO_SCENARIOS.is_dir()
    code = main(["corpus", "--dir", str(REPO_SCENARIOS)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out


def test_corpus_detects_drift(tmp_path, capsys):
    src = json.loads((REPO_SCENARIOS / "digests.json").read_text())
    name = "all_honest.json"
    (tmp_path / name).write_text((REPO_SCENARIOS / name).read_text())
    (tmp_path / "digests.json").write_text(
        json.dumps({name: "0" * 64}))
    assert main(["corpus", "--dir", str(tmp_path)]) == 2


def test_corpus_fails_a_scenario_file_with_no_pinned_digest(tmp_path, capsys):
    pins = json.loads((REPO_SCENARIOS / "digests.json").read_text())
    for name in ("all_honest.json", "equivocator.json"):
        (tmp_path / name).write_text((REPO_SCENARIOS / name).read_text())
    (tmp_path / "digests.json").write_text(
        json.dumps({"all_honest.json": pins["all_honest.json"]}))
    assert main(["corpus", "--dir", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "ok   all_honest.json" in out
    assert f"FAIL equivocator.json: digest {pins['equivocator.json']} " \
        "is not pinned" in out


def test_corpus_fails_a_scenario_file_that_does_not_load(tmp_path, capsys):
    pins = json.loads((REPO_SCENARIOS / "digests.json").read_text())
    name = "all_honest.json"
    (tmp_path / name).write_text((REPO_SCENARIOS / name).read_text())
    (tmp_path / "broken.json").write_text("{nope")
    (tmp_path / "digests.json").write_text(json.dumps({name: pins[name]}))
    assert main(["corpus", "--dir", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert f"ok   {name}" in out
    assert "FAIL broken.json: " in out


@pytest.mark.parametrize("pins", ["[", "[1]", '{"all_honest.json": 5}'],
                         ids=repr)
def test_corpus_with_malformed_digests_exits_one(tmp_path, capsys, pins):
    name = "all_honest.json"
    (tmp_path / name).write_text((REPO_SCENARIOS / name).read_text())
    (tmp_path / "digests.json").write_text(pins)
    assert main(["corpus", "--dir", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_corpus_env_var(monkeypatch, capsys):
    monkeypatch.setenv("FFG_CORPUS_DIR", str(REPO_SCENARIOS))
    assert main(["corpus"]) == 0


def test_corpus_missing_dir(tmp_path):
    assert main(["corpus", "--dir", str(tmp_path / "void")]) == 1


# -- audit ----------------------------------------------------------------------

def world_report(w):
    """The report of a run whose tree, cache and pool are `w`'s."""
    cfg = ScenarioConfig(
        name="forced_equivocation", seed=42,
        protocol=w.proto,
        validators=tuple(ValidatorSpec(i, 100) for i in range(3)),
        duration_epochs=4, observers=0)
    net = Network(cfg, ())
    net.tree, net.cache, net.pool = w.tree, w.cache, w.pool
    return build_report(net, sweep_invariants(net))


def dual_finalized_report():
    """Equal-height conflicting finalizations with full equivocation."""
    w = make_world([100, 100, 100])
    l1, r1 = dual_finalize_equal_height(w)
    return world_report(w), l1, r1


def test_a_report_whose_blocks_carry_evidence_is_rebuilt():
    cfg = config_from_dict(json.loads((REPO_SCENARIOS / "equivocator.json").read_text()))
    data = json.loads(run(cfg).to_json())
    net = _rebuild_network(data)
    assert {b.id.hex() for b in net.tree.iter_blocks()} \
        == {b["id"] for b in data["blocks"]}
    evidence = [tx for b in net.tree.iter_blocks() for tx in b.payload
                if isinstance(tx, SlashEvidence)]
    assert len(evidence) == sum(tx["kind"] == "evidence" for b in data["blocks"]
                                for tx in b["txs"]) > 0
    # the rebuilt votes keep their signatures, so each proof still proves
    assert all(proven_violation(net.keyring, tx) for tx in evidence)


def test_audit_equivocation_bound_holds(tmp_path, capsys):
    report, l1, r1 = dual_finalized_report()
    path = tmp_path / "report.json"
    path.write_text(report.to_json())
    code = main(["audit", "--report", str(path), l1.hex(), r1.hex()])
    out = capsys.readouterr().out
    assert code == 0
    assert "violator 0" in out and "violator 2" in out


def test_audit_non_conflicting_exits_one(tmp_path, capsys):
    report, l1, r1 = dual_finalized_report()
    path = tmp_path / "report.json"
    path.write_text(report.to_json())
    root = "00" * 32
    assert main(["audit", "--report", str(path), root, l1.hex()]) == 1


def test_audit_of_a_checkpoint_never_finalized_exits_one(tmp_path, capsys):
    w = make_world([100, 100, 100])
    l1, _r1 = dual_finalize_equal_height(w)
    # a conflicting checkpoint on a third branch, which no vote names
    bare = w.grow(w.proto.spacing, proposer=1)[-1]
    path = tmp_path / "report.json"
    path.write_text(world_report(w).to_json())
    assert main(["audit", "--report", str(path), l1.hex(), bare.id.hex()]) == 1
    assert "error: NotFinalized" in capsys.readouterr().err


def test_audit_dynamic_attack_empty_violators(tmp_path, capsys):
    cfg = dynamic_attack_config(stitching=False)
    report = run(cfg)
    path = tmp_path / "report.json"
    path.write_text(report.to_json())
    a, b = report.extra["conflicting_pair"]
    code = main(["audit", "--report", str(path), a, b])
    out = capsys.readouterr().out
    assert code == 2
    assert "no violators found" in out


@pytest.mark.parametrize("damage", [
    lambda data: data.update(blocks=5), lambda data: data.update(votes=None),
    lambda data: data["blocks"][1].update(height="1")],
    ids=["blocks 5", "votes null", "a string height"])
def test_audit_of_a_malformed_report_exits_one(tmp_path, capsys, damage):
    report, l1, r1 = dual_finalized_report()
    data = report.to_dict()
    damage(data)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    assert main(["audit", "--report", str(path), l1.hex(), r1.hex()]) == 1
    assert "error:" in capsys.readouterr().err
