"""Traced mode: spans and counts recorded around the public functions of each
`ffg` module, from outside the program.

`Tracer.install()` replaces every binding of each target (a class attribute,
or every module global across `ffg.*` that refers to the function, since
several functions are imported by name into other modules) with a wrapper,
and `uninstall()` puts the originals back.  Nothing is wrapped unless the
benchmark runs with `--trace 1`.

A span records its name, start, end and parent span in flat arrays that
belong to the current simulation run (the run id).  When the run ends its
spans are folded into per-layer totals: a span's self time is its duration
minus the durations of its child spans (calls nest; the simulator is single
threaded).  Count-only targets get no span, so their time stays in their
caller's self time; hot leaves (`check_pair`, `classify_vote`,
`admissible`) are not wrapped at all.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (layer, module, attribute) for functions that get a span
SPANS = (
    ("chain.insert_block", "ffg.chain", "BlockTree.insert_block"),
    ("chain.is_ancestor", "ffg.chain", "BlockTree.is_ancestor"),
    ("votes.verify", "ffg.votes", "Keyring.verify"),
    ("finality.on_vote", "ffg.finality", "FinalityState.on_vote"),
    ("finality.step_state", "ffg.finality", "step_state"),
    ("finality.compute_justified", "ffg.finality", "compute_justified"),
    ("slashing.find_new_violations", "ffg.slashing", "find_new_violations"),
    ("slashing.scan", "ffg.slashing", "scan"),
    ("slashing.safety_audit", "ffg.slashing", "safety_audit"),
    ("fork_choice.receive_block", "ffg.fork_choice", "ClientView.receive_block"),
    ("fork_choice.receive_vote", "ffg.fork_choice", "ClientView.receive_vote"),
    ("fork_choice.head", "ffg.fork_choice", "ClientView.head"),
    ("leak.apply_epoch_leak", "ffg.leak", "apply_epoch_leak"),
    ("sim.propose", "ffg.sim", "Simulation.propose"),
    ("sim.maybe_vote", "ffg.sim", "Agent.maybe_vote"),
    ("sim.sweep_invariants", "ffg.sim", "sweep_invariants"),
    ("sim.build_report", "ffg.sim", "build_report"),
    ("sim.digest", "ffg.sim", "RunReport.digest"),
    ("scenarios.long_range", "ffg.scenarios", "scenario_longrange"),
    ("scenarios.dynamic_attack", "ffg.scenarios", "scenario_dynamic_attack"),
    ("scenarios.split_finality", "ffg.scenarios", "scenario_split_finality"),
)

# (layer, module, attribute) for functions whose calls are only counted
COUNTERS = (
    ("votes.pool_add", "ffg.votes", "VotePool.add"),
    ("validators.clone", "ffg.validators", "ValidatorRegistry.clone"),
    ("finality.tally", "ffg.finality", "tally"),
    ("fork_choice.chain_admissible", "ffg.fork_choice", "ClientView.chain_admissible"),
    ("sim.deliver", "ffg.sim", "Simulation.deliver"),
)

# The per-layer metrics the traced run reports: (name, unit, better).
METRICS = (
    ("chain.insert_block.calls", "count", "lower"),
    ("chain.insert_block.self_s", "s", "lower"),
    ("chain.is_ancestor.calls", "count", "lower"),
    ("chain.is_ancestor.self_s", "s", "lower"),
    ("votes.verify.calls", "count", "lower"),
    ("votes.verify.self_s", "s", "lower"),
    ("votes.verify.memo_hit_ratio", "ratio", "higher"),
    ("votes.pool_add.calls", "count", "lower"),
    ("validators.clone.calls", "count", "lower"),
    ("finality.on_vote.calls", "count", "lower"),
    ("finality.on_vote.self_s", "s", "lower"),
    ("finality.step_state.calls", "count", "lower"),
    ("finality.step_state.self_s", "s", "lower"),
    ("finality.compute_justified.self_s", "s", "lower"),
    ("finality.tally.calls", "count", "lower"),
    ("slashing.find_new_violations.calls", "count", "lower"),
    ("slashing.find_new_violations.pairs", "count", "lower"),
    ("slashing.find_new_violations.found", "count", "higher"),
    ("slashing.find_new_violations.self_s", "s", "lower"),
    ("slashing.scan.self_s", "s", "lower"),
    ("slashing.safety_audit.calls", "count", "lower"),
    ("slashing.safety_audit.self_s", "s", "lower"),
    ("fork_choice.receive_block.calls", "count", "lower"),
    ("fork_choice.receive_block.self_s", "s", "lower"),
    ("fork_choice.receive_vote.calls", "count", "lower"),
    ("fork_choice.receive_vote.self_s", "s", "lower"),
    ("fork_choice.head.calls", "count", "lower"),
    ("fork_choice.head.self_s", "s", "lower"),
    ("fork_choice.head.leaves", "count", "lower"),
    ("fork_choice.chain_admissible.calls", "count", "lower"),
    ("leak.apply_epoch_leak.calls", "count", "lower"),
    ("leak.apply_epoch_leak.self_s", "s", "lower"),
    ("sim.deliver.calls", "count", "lower"),
    ("sim.propose.self_s", "s", "lower"),
    ("sim.maybe_vote.self_s", "s", "lower"),
    ("sim.sweep_invariants.self_s", "s", "lower"),
    ("sim.build_report.self_s", "s", "lower"),
    ("sim.digest.self_s", "s", "lower"),
    ("scenarios.long_range.incl_s", "s", "lower"),
    ("scenarios.dynamic_attack.incl_s", "s", "lower"),
    ("scenarios.split_finality.incl_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def _ffg_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "ffg" or name.startswith("ffg.")]


class Tracer:
    """Per-layer counts and self times of the runs made while installed."""

    def __init__(self):
        self.layers = [layer for layer, _m, _a in SPANS]
        self.totals: dict[str, float] = {}
        for layer in self.layers:
            self.totals.update({f"{layer}.calls": 0, f"{layer}.self_s": 0.0,
                                f"{layer}.incl_s": 0.0})
        for layer, _m, _a in COUNTERS:
            self.totals[f"{layer}.calls"] = 0
        self.totals.update({"votes.verify.memo_hits": 0,
                            "slashing.find_new_violations.pairs": 0,
                            "slashing.find_new_violations.found": 0,
                            "fork_choice.head.leaves": 0,
                            "untraced_s": 0.0})
        self.bindings: dict[str, int] = {}
        self.run_id = -1
        self._run_start = 0.0
        # spans of the current run, one entry per span in each array
        self._name = array("H")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._signatures: set = set()
        self._undo: list = []

    # -- runs ---------------------------------------------------------------

    def begin_run(self, run_id: int) -> None:
        self.run_id = run_id
        self._signatures.clear()
        self._run_start = perf_counter()

    def end_run(self) -> None:
        """Fold the run's spans into the totals and drop them."""
        wall = perf_counter() - self._run_start
        names, parents = self._name, self._parent
        durations = [e - s for s, e in zip(self._start, self._end)]
        covered = [0.0] * len(durations)
        top = 0.0
        for i, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += durations[i]
            else:
                top += durations[i]
        count = len(self.layers)
        calls, self_s, incl_s = [0] * count, [0.0] * count, [0.0] * count
        for i, name_id in enumerate(names):
            calls[name_id] += 1
            self_s[name_id] += durations[i] - covered[i]
            incl_s[name_id] += durations[i]
        totals = self.totals
        for name_id, layer in enumerate(self.layers):
            totals[f"{layer}.calls"] += calls[name_id]
            totals[f"{layer}.self_s"] += self_s[name_id]
            totals[f"{layer}.incl_s"] += incl_s[name_id]
        totals["untraced_s"] += wall - top
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]

    def metrics(self, overhead: float) -> dict[str, float]:
        totals = dict(self.totals)
        calls = totals["votes.verify.calls"]
        totals["votes.verify.memo_hit_ratio"] = (
            totals["votes.verify.memo_hits"] / calls if calls else 0.0)
        totals["trace.overhead"] = overhead
        return {name: totals[name] for name, _unit, _better in METRICS}

    def self_times(self) -> dict[str, float]:
        """Self time per span layer, plus run time outside every span."""
        out = {layer: self.totals[f"{layer}.self_s"] for layer in self.layers}
        out["(outside spans)"] = self.totals["untraced_s"]
        return out

    # -- wrappers -------------------------------------------------------------

    def _span(self, name_id: int, fn, note):
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if note is not None:
                note(args, result)
            return result
        return wrapper

    def _counter(self, key: str, fn):
        totals = self.totals

        def wrapper(*args, **kwargs):
            totals[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _note_verify(self, args, _result) -> None:
        vote = args[1]
        memo_key = (vote.key, vote.signature)
        if memo_key in self._signatures:
            self.totals["votes.verify.memo_hits"] += 1
        else:
            self._signatures.add(memo_key)

    def _note_find(self, args, result) -> None:
        self.totals["slashing.find_new_violations.pairs"] += len(args[0])
        self.totals["slashing.find_new_violations.found"] += len(result)

    def _note_head(self, args, _result) -> None:
        self.totals["fork_choice.head.leaves"] += len(args[0].tree.leaves())

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        notes = {"votes.verify": self._note_verify,
                 "slashing.find_new_violations": self._note_find,
                 "fork_choice.head": self._note_head}
        for name_id, (layer, module, attr) in enumerate(SPANS):
            self._replace(layer, module, attr,
                          lambda fn, i=name_id, n=notes.get(layer): self._span(i, fn, n))
        for layer, module, attr in COUNTERS:
            self._replace(layer, module, attr,
                          lambda fn, key=f"{layer}.calls": self._counter(key, fn))

    def _replace(self, layer: str, module: str, attr: str, make) -> None:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = vars(cls)[method]
            self._set(cls, method, make(original), original)
            self.bindings[layer] = 1
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        count = 0
        for mod in _ffg_modules():
            for key in [k for k, v in vars(mod).items() if v is original]:
                self._set(mod, key, wrapped, original)
                count += 1
        self.bindings[layer] = count

    def _set(self, target, key: str, value, original) -> None:
        setattr(target, key, value)
        self._undo.append((target, key, original))

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)
