"""Deterministic discrete-event simulator.

One run is fully determined by (config, seed): the proposal engine, network
jitter, and adversary scripts all draw from dedicated PRNG streams seeded from
the single run seed, messages are delivered to every view within
[send, send + delta], and the report serializes to canonical JSON whose digest
is byte-stable across reruns.

The proposal engine stands in for an external block producer: one block per
tick extending the engine's fork-choice head, occasionally (per the configured
fork rate) a sibling of the head instead, which models latency forks.

`Network` is a run's one object.  It builds the run's world (keyring,
genesis registry, shared block tree, chain-state cache, omniscient vote pool
and client views), keeps the event heap and the trace, runs the one delivery
loop, `Network.deliver`, and checks that no view's justified or finalized
count falls; the invariant sweep and the report read it when the run is over.
The loop also runs the agents' reactions: a block delivered to an agent may
make it vote, and a vote may expose a violation that it reports.
`Simulation` drives the network with agents and a jittered broadcast;
`ffg.scenarios.Script` drives it with staged sends and has no agents, so
nothing reacts to its deliveries.  The trace digest hashes one text line per
event, in the order they happen, where t is the event's time:

* ``t|block|id`` for a block entering the network (id in hex);
* ``t|vote|key`` for a vote entering the network and the run's pool;
* ``t|evidence|key`` for slashing evidence an agent submits, once per
  violator: the first violation reported against each validator;
* ``t|deliver|name|kind`` for a block or vote delivered to view `name`.

`announce_block` and `announce_vote` write the first two kinds, whoever
drives the network.  Lines are buffered in emission order and hashed with one
digest update per delivery time, right before that time's monotonicity check,
and by `trace_digest` for any left over; the digest is that of the lines
hashed one by one.  A delivery line is the time joined to the view's
``|deliver|name|kind`` suffix, made once per run.

Events are heap entries (time, sequence number, kind, payload, view names),
popped in (time, sequence) order.  An entry is the unit of delivery:
`Network.deliver` takes it whole, does the run-level work once (a block's
chain state, `ChainStateCache.get`, or a vote's `VoteRecord` is looked up
once and handed to every view) and then delivers to one name at a time, in
the order the names are listed, doing only view-local work and the agent's
reaction per name.  A broadcast draws one jitter per non-sender view, in
view order, and pushes one entry per distinct delivery time, holding the
views that drew it in view order.  That delivers in the same order as one
entry per view would, where the order is (time, then the broadcast's
sequence, then view order):

* a broadcast pushes all its entries at once, so their sequence numbers are
  contiguous and every one of them sorts between the entries of the
  broadcasts before and after it;
* a delivery at time t pushes only entries at time >= t with greater sequence
  numbers, so nothing pushed while an entry's names are being delivered could
  have come before the names that remain.

A report is written as text.  `build_report` writes each block, transaction
and distinct vote object once, straight to its canonical JSON: keys in
sorted order and values that are only ints, lowercase hex strings and null,
a vote's text shared by `votes` and every transaction that carries it.
`RunReport.to_json` splices those texts into the top-level object in
sorted-key order and encodes only the small sections (`clients`, `config`,
`extra`, `heuristics`, `invariants`, `slashings`) as
`json.dumps(..., sort_keys=True, separators=(",", ":"))` does; `digest`
hashes that text, and `to_dict`, `blocks` and `votes` decode the block and
vote texts only when read.  The tests hold the text to its oracle,
`json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))`.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import attrgetter, itemgetter

from .chain import (Block, BlockTree, Deposit, SlashEvidence, VoteData,
                    VoteInclusion, Withdraw)
from .config import ProtocolConfig
from .errors import ConfigInvalid
from .finality import ChainStateCache, compute_justified, tally
from .fork_choice import ClientView
from .leak import LeakConfig
from .slashing import scan, slashable
from .validators import ValidatorRegistry
from .votes import Keyring, VotePool, sign_vote

HONEST = "honest"
OFFLINE = "offline"
DOUBLE_VOTER = "double_voter"
SURROUND_VOTER = "surround_voter"

BEHAVIOR_KINDS = (HONEST, OFFLINE, DOUBLE_VOTER, SURROUND_VOTER)

GENERIC = "generic"
LONG_RANGE = "long_range"
SPLIT_FINALITY = "split_finality"
DYNAMIC_ATTACK = "dynamic_attack"

# every kind but generic is scripted, with its contract in `ffg.scenarios`
SCENARIO_KINDS = (GENERIC, LONG_RANGE, SPLIT_FINALITY, DYNAMIC_ATTACK)

SCHEMA_VERSION = 5


@dataclass(frozen=True)
class Behavior:
    kind: str = HONEST
    from_epoch: int = 0


@dataclass(frozen=True, slots=True)
class ValidatorSpec:
    """One validator and its agent; it joins and leaves by `_scheduled_txs`."""
    index: int
    deposit: int
    behavior: Behavior = Behavior()
    join_epoch: int = 0                 # 0: a genesis member
    leave_epoch: int | None = None      # None: never leaves


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    seed: int = 0
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    validators: tuple[ValidatorSpec, ...] = ()
    duration_epochs: int = 6
    observers: int = 2
    proposer_fork_rate: Fraction = Fraction(0)
    scenario: str = GENERIC
    params: dict = field(default_factory=dict)
    censor_evidence: bool = False

    def validate(self) -> None:
        """Raise ConfigInvalid unless `run` can run this config as written."""
        if self.scenario not in SCENARIO_KINDS:
            raise ConfigInvalid(f"unknown scenario kind {self.scenario!r}")
        if self.scenario == GENERIC and self.params:
            raise ConfigInvalid("generic runs read no params")
        if not u64s((self.seed,), 1):
            raise ConfigInvalid("seed must be a u64")
        if type(self.duration_epochs) is not int or self.duration_epochs < 1:
            raise ConfigInvalid("duration must be an integer >= 1 epoch")
        if type(self.observers) is not int or self.observers < 0:
            raise ConfigInvalid("observers must be an integer >= 0")
        if type(self.censor_evidence) is not bool:
            raise ConfigInvalid("censor_evidence must be true or false")
        seen = set()
        for spec in self.validators:
            if not u64s((spec.index, spec.deposit), 2) or spec.deposit == 0:
                raise ConfigInvalid(f"validator {spec.index}: need a u64 index "
                                    "and a u64 deposit > 0")
            if spec.index in seen:
                raise ConfigInvalid(f"duplicate validator index {spec.index}")
            seen.add(spec.index)
            kind, from_epoch = spec.behavior.kind, spec.behavior.from_epoch
            if kind not in BEHAVIOR_KINDS:
                raise ConfigInvalid(f"unknown behavior {kind!r}")
            if not u64s((from_epoch,), 1):
                raise ConfigInvalid(f"validator {spec.index}: from_epoch must "
                                    "be a u64")
            if kind == HONEST and from_epoch:
                raise ConfigInvalid(f"validator {spec.index}: an honest "
                                    "validator reads no from_epoch, so it must be 0")
            if kind == SURROUND_VOTER and from_epoch < 3:
                raise ConfigInvalid("surround voter needs from_epoch >= 3")
            # a generic run's last checkpoint is of epoch `duration_epochs`,
            # so an adversary starting later would run as an honest one
            if self.scenario == GENERIC and from_epoch > self.duration_epochs:
                raise ConfigInvalid(f"validator {spec.index}: from_epoch must "
                                    "be at most duration_epochs")
            leave = spec.leave_epoch
            if not u64s((spec.join_epoch,), 1) or leave is not None and not (
                    u64s((leave,), 1) and leave >= spec.join_epoch):
                raise ConfigInvalid(f"validator {spec.index}: need a u64 join_epoch "
                                    "and a null or u64 leave_epoch >= join_epoch")
            # a generic run's last block is of epoch `duration_epochs`, so a
            # later join or leave is never offered
            if self.scenario == GENERIC and max(spec.join_epoch, leave or 0) \
                    > self.duration_epochs:
                raise ConfigInvalid(f"validator {spec.index}: join_epoch and "
                                    "leave_epoch must be at most duration_epochs")
        if all(spec.join_epoch for spec in self.validators):
            raise ConfigInvalid("at least one validator of join_epoch 0 required")
        if not (0 <= self.proposer_fork_rate < 1):
            raise ConfigInvalid("fork rate must be in [0, 1)")
        if self.scenario != GENERIC:
            from .scenarios import check_scripted
            check_scripted(self)


def u64s(entry, length: int) -> bool:
    return len(entry) == length and all(
        type(value) is int and 0 <= value < 2**64 for value in entry)


# -- JSON round trip ----------------------------------------------------------

def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def config_to_dict(cfg: ScenarioConfig) -> dict:
    p = cfg.protocol
    return {
        "schema_version": SCHEMA_VERSION,
        "name": cfg.name,
        "seed": cfg.seed,
        "protocol": {
            "spacing": p.spacing,
            "delta": p.delta,
            "withdrawal_delay": p.withdrawal_delay,
            "leak_rate": _frac_str(p.leak.rate),
            "stitching": p.stitching,
        },
        "validators": [
            {"index": s.index, "deposit": s.deposit,
             "behavior": {"kind": s.behavior.kind, "from_epoch": s.behavior.from_epoch},
             "join_epoch": s.join_epoch, "leave_epoch": s.leave_epoch}
            for s in cfg.validators
        ],
        "duration_epochs": cfg.duration_epochs,
        "observers": cfg.observers,
        "proposer_fork_rate": _frac_str(cfg.proposer_fork_rate),
        "scenario": cfg.scenario,
        "params": cfg.params,
        "censor_evidence": cfg.censor_evidence,
    }


# what `config_to_dict` writes at each level for the dataclass defaults;
# `config_from_dict` reads exactly these keys, so it rejects any other, and
# takes the value written here for each key a file leaves out
_WRITTEN = config_to_dict(ScenarioConfig(validators=(ValidatorSpec(0, 1),)))


def _over_written(data: dict, written: dict, where: str, required=()) -> dict:
    """`data` laid over `written`, one level of `_WRITTEN`, so a key it
    leaves out reads the dataclass default; rejects anything but an object,
    a key `written` lacks, and a missing key of `required`."""
    if type(data) is not dict:
        raise ConfigInvalid(f"{where}: expected an object")
    unknown = sorted(set(data).difference(written))
    if unknown:
        raise ConfigInvalid(f"{where}: unknown keys {', '.join(unknown)}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ConfigInvalid(f"{where}: missing required keys {', '.join(missing)}")
    return {**written, **data}


def _spec_from_dict(data: dict) -> ValidatorSpec:
    written = _WRITTEN["validators"][0]
    spec = _over_written(data, written, "validator", ("index", "deposit"))
    behavior = _over_written(spec["behavior"], written["behavior"], "behavior")
    return ValidatorSpec(spec["index"], spec["deposit"],
                         Behavior(behavior["kind"], behavior["from_epoch"]),
                         spec["join_epoch"], spec["leave_epoch"])


def config_from_dict(data: dict) -> ScenarioConfig:
    try:
        top = _over_written(data, _WRITTEN, "scenario", ("validators",))
        if top["schema_version"] != SCHEMA_VERSION:
            raise ConfigInvalid(f"schema_version must be {SCHEMA_VERSION}")
        if type(top["params"]) is not dict:
            raise ConfigInvalid("params: expected an object")
        proto = _over_written(top["protocol"], _WRITTEN["protocol"], "protocol")
        pcfg = ProtocolConfig(
            spacing=proto["spacing"],
            delta=proto["delta"],
            withdrawal_delay=proto["withdrawal_delay"],
            leak=LeakConfig(rate=Fraction(proto["leak_rate"])),
            stitching=proto["stitching"],
        )
        cfg = ScenarioConfig(
            name=top["name"],
            seed=top["seed"],
            protocol=pcfg,
            validators=tuple(map(_spec_from_dict, top["validators"])),
            duration_epochs=top["duration_epochs"],
            observers=top["observers"],
            proposer_fork_rate=Fraction(top["proposer_fork_rate"]),
            scenario=top["scenario"],
            params=dict(top["params"]),
            censor_evidence=top["censor_evidence"],
        )
    except (TypeError, ValueError,
            ZeroDivisionError, OverflowError) as exc:   # "n/0", an infinite float
        raise ConfigInvalid(str(exc)) from exc
    cfg.validate()
    return cfg


# -----------------------------------------------------------------------------
# Agents
# -----------------------------------------------------------------------------

class Agent:
    """A validator: a client view plus a behavior-driven voting policy."""

    def __init__(self, spec: ValidatorSpec, view: ClientView):
        self.spec = spec
        self.view = view
        self.keyring = view.cache.keyring
        self.last_voted_height = 0
        # (source height, target height) of the signed vote with the
        # greatest source height; (0, 0), which no vote with a target above
        # 0 can violate, until the first is signed
        self._top_source = (0, 0)
        self._surround_stage = 0

    def _would_violate(self, h_s: int, h_t: int) -> bool:
        # asked only once `last_voted_height`, which only rises, has risen
        # to h_t, so h_t lies above every target signed so far: condition I
        # cannot hold, and condition II holds exactly when an earlier source
        # is higher than h_s, so the vote with the highest source decides
        return slashable(h_s, h_t, *self._top_source) is not None

    def _sign(self, source: bytes, target: bytes, h_s: int, h_t: int) -> VoteData:
        if h_s > self._top_source[0]:
            self._top_source = (h_s, h_t)
        return sign_vote(self.keyring, self.spec.index, source, target, h_s, h_t)

    def maybe_vote(self) -> list[VoteData]:
        """Vote for the head chain's checkpoint of the newest epoch from our
        `join_epoch` on, from the highest justified checkpoint below it on
        its chain, skipping a vote that would violate a commandment against
        our own earlier votes.  A surround voter is silent before its
        `from_epoch`; its first two votes from there are the wide one and
        the one nested inside it, and the rest are cast as above."""
        view = self.view
        head = view.head()
        target = view.tree.latest_checkpoint(head)
        h_t = view.tree.require_checkpoint(target)
        if h_t <= self.last_voted_height or h_t < self.spec.join_epoch:
            return []
        self.last_voted_height = h_t
        behavior = self.spec.behavior

        if behavior.kind == OFFLINE and h_t >= behavior.from_epoch:
            return []

        if behavior.kind == SURROUND_VOTER:
            if h_t < behavior.from_epoch:
                return []
            if self._surround_stage < 2:
                return [self._surround_vote(target, h_t)]

        source = view.justified_tip(target, below=h_t)
        h_s = view.tree.require_checkpoint(source)
        if self._would_violate(h_s, h_t):
            return []
        votes = [self._sign(source, target, h_s, h_t)]
        if behavior.kind == DOUBLE_VOTER and h_t >= behavior.from_epoch:
            second = self._second_vote(source, target, h_s, h_t)
            if second is not None:
                votes.append(second)
        return votes

    def _second_vote(self, source: bytes, target: bytes, h_s: int,
                     h_t: int) -> VoteData | None:
        """A second, distinct vote for the same target height."""
        tree = self.view.tree
        if source != tree.root:
            return self._sign(tree.root, target, 0, h_t)
        other = min((cp for cp in self.view.fstate.order
                     if cp != target and tree.require_checkpoint(cp) == h_t),
                    default=None)
        return None if other is None else self._sign(source, other, h_s, h_t)

    def _surround_vote(self, target: bytes, h_t: int) -> VoteData:
        """First a wide vote from the root, then one nested strictly inside it."""
        tree = self.view.tree
        self._surround_stage += 1
        if self._surround_stage == 1:
            return self._sign(tree.root, target, 0, h_t)
        # validate() keeps from_epoch >= 3, so the target sits at height
        # >= 3 * spacing and both ancestors exist
        inner_s = tree.ancestor_at(target, tree.spacing)
        inner_t = tree.ancestor_at(target, 2 * tree.spacing)
        return self._sign(inner_s, inner_t, 1, 2)


# -----------------------------------------------------------------------------
# The network and the run loop
# -----------------------------------------------------------------------------

class Network:
    """A run's world and its one delivery engine: the event heap, the one
    delivery loop (`deliver`, which also runs the agents' reactions), the
    trace and the monotonicity check (see the module docstring).  A network
    has agents only when `Simulation` fills `agents`; a script has none.
    What a finished run exposes is read off it: `cfg`, `tree`, `cache`,
    `pool`, `views` and `trace_digest()`."""

    def __init__(self, cfg: ScenarioConfig, view_names):
        self.cfg = cfg
        self.proto = cfg.protocol
        self.keyring = Keyring(cfg.seed)
        registry = ValidatorRegistry()
        for spec in cfg.validators:
            self.keyring.register(spec.index)
            if spec.join_epoch == 0:
                registry.add_genesis_validator(spec.index, spec.deposit)
        # the specs that join late or leave; empty for a static set
        self.scheduled = [spec for spec in cfg.validators
                          if spec.join_epoch or spec.leave_epoch is not None]
        self.tree = BlockTree(self.proto.spacing)
        self.cache = ChainStateCache(self.tree, self.proto, self.keyring, registry)
        self.pool = VotePool(self.keyring)        # omniscient pool for audits
        self.views: dict[str, ClientView] = {
            name: ClientView(name, self.cache)
            for name in view_names}
        # view name -> its agent, and the agents whose heard violations
        # become evidence; `Simulation` fills both
        self.agents: dict[str, Agent] = {}
        self._reporters: frozenset[str] = frozenset()
        self.events: list[tuple[int, int, str, object, list[str]]] = []
        self._seq = 0
        self._trace = hashlib.sha256()
        # trace lines not yet hashed, in emission order
        self._lines: list[str] = []
        # kind -> view name -> the view's delivery line after its time
        self._deliver_lines = {
            kind: {name: f"|deliver|{name}|{kind}" for name in self.views}
            for kind in ("block", "vote")}
        # the largest jitter a broadcast drew; scripted sends draw none, so
        # their delivery delay is not measured
        self._max_jitter = 0
        self._monotonic_ok = True
        # (justified, finalized) counts of each view at the last check, in
        # view order
        self._counts = [(0, 0)] * len(self.views)

    def _hash_lines(self) -> None:
        """Feed the buffered trace lines to the digest, each ending in a
        newline, with one update."""
        lines = self._lines
        if lines:
            lines.append("")
            self._trace.update("\n".join(lines).encode())
            lines.clear()

    def trace_digest(self) -> str:
        """Hash any buffered lines; the hex digest of the trace so far."""
        self._hash_lines()
        return self._trace.hexdigest()

    def announce_block(self, block: Block, t: int) -> None:
        """Trace a block entering the network at time `t`."""
        self._lines.append(f"{t}|block|{block.id.hex()}")

    def announce_vote(self, vote: VoteData, t: int) -> None:
        """Add a vote to the run's pool and trace it entering the network
        at time `t`."""
        self.pool.add(vote)
        self._lines.append(f"{t}|vote|{vote.key}")

    def send(self, kind: str, payload, time: int, names: list[str]) -> None:
        """One heap entry: deliver `payload` at `time` to `names`, in order."""
        self._seq += 1
        heapq.heappush(self.events, (time, self._seq, kind, payload, names))

    def deliver(self, kind: str, payload, names: list[str], now: int) -> None:
        """Deliver one heap entry to each of `names`, in order, each agent
        reacting as it is delivered to: a block may make it vote, and a vote
        may expose a violation, which it reports unless it is offline.  Only
        `Simulation` has agents, and its `broadcast_vote` and
        `submit_evidence` carry the reactions out."""
        views, lines = self.views, self._lines
        time = str(now)
        suffixes = self._deliver_lines[kind]
        if kind == "block":
            agents = self.agents
            state = self.cache.get(payload.id)
            for name in names:
                lines.append(time + suffixes[name])
                view = views[name]
                view.receive_block(payload, now, state)
                agent = agents.get(name)
                if agent is not None \
                        and view.fstate.max_height > agent.last_voted_height:
                    for vote in agent.maybe_vote():
                        self.broadcast_vote(vote, name, now)
        else:
            record = self.cache.record(payload)
            reporters = self._reporters
            for name in names:
                lines.append(time + suffixes[name])
                violation = views[name].receive_vote(payload, now, record)
                if violation is not None and name in reporters:
                    self.submit_evidence(violation, now)

    def deliver_due(self, until) -> None:
        """Deliver every event due at or before `until`, in heap order, one
        delivery time at a time; after each time, hash the buffered lines and
        check monotonicity (counts change only on deliveries)."""
        events = self.events
        deliver = self.deliver
        while events and events[0][0] <= until:
            t = events[0][0]
            while events and events[0][0] == t:
                _t, _seq, kind, payload, names = heapq.heappop(events)
                deliver(kind, payload, names, t)
            self._hash_lines()
            self._check_monotonic()

    def _check_monotonic(self) -> None:
        """Record whether any view's justified or finalized count fell since
        the last check."""
        counts = self._counts
        for i, view in enumerate(self.views.values()):
            j, f = len(view.fstate.justified), len(view.observed_finalized)
            old_j, old_f = counts[i]
            if j < old_j or f < old_f:
                self._monotonic_ok = False
            counts[i] = (j, f)


class Simulation(Network):
    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()
        agent_names = [f"v{spec.index}" for spec in cfg.validators]
        observers = [f"client{i}" for i in range(cfg.observers)]
        super().__init__(cfg, agent_names + observers + ["proposer"])
        self.rng_net = random.Random(cfg.seed ^ 0x6E65745F)
        self.rng_prop = random.Random(cfg.seed ^ 0x70726F70)
        self.agents = {name: Agent(spec, self.views[name])
                       for name, spec in zip(agent_names, cfg.validators)}
        self.proposer = self.views["proposer"]
        self._reporters = frozenset(
            name for name, agent in self.agents.items()
            if agent.spec.behavior.kind != OFFLINE)
        # validator index -> the first evidence submitted against it
        self.pending_evidence: dict[int, SlashEvidence] = {}
        # block id -> the proposer's received vote count when it was
        # proposed; see `propose`
        self._offered: dict[bytes, int] = {self.tree.root: 0}

    # -- plumbing ----------------------------------------------------------------

    def _broadcast(self, kind: str, payload, sender: str, now: int) -> None:
        """Schedule `payload` for every view, one heap entry per delivery
        time; see the module docstring for why the order is kept.

        Each jitter is `randint(0, delta)` drawn inline: CPython draws it as
        `getrandbits(k)` with k the bit length of delta + 1, drawing again
        while the value exceeds delta, and so does this loop, consuming the
        same stream."""
        delta = self.proto.delta
        bits = (delta + 1).bit_length()
        getrandbits = self.rng_net.getrandbits
        groups: list[list[str]] = [[] for _ in range(delta + 1)]
        for name in self.views:
            if name == sender:
                jitter = 0
            else:
                jitter = getrandbits(bits)
                while jitter > delta:
                    jitter = getrandbits(bits)
            groups[jitter].append(name)
        for jitter, names in enumerate(groups):
            if names:
                self._max_jitter = max(self._max_jitter, jitter)
                self.send(kind, payload, now + jitter, names)

    def broadcast_block(self, block: Block, now: int) -> None:
        self.announce_block(block, now)
        self._broadcast("block", block, self.proposer.name, now)

    def broadcast_vote(self, vote: VoteData, sender: str, now: int) -> None:
        self.announce_vote(vote, now)
        self._broadcast("vote", vote, sender, now)

    def submit_evidence(self, violation, now: int) -> None:
        # one proof takes a validator's whole deposit, so only the first
        # against each is kept; a chain includes only pending evidence
        # (`propose`), so a validator it covers is pending too
        index = violation.validator_index
        if index in self.pending_evidence:
            return
        self._lines.append(f"{now}|evidence|{violation.key}")
        self.pending_evidence[index] = SlashEvidence(violation.vote_a,
                                                     violation.vote_b)

    # -- proposer ----------------------------------------------------------------

    def _scheduled_txs(self, epoch: int, parent_state) -> list:
        """The scheduled specs' deposits and withdraws that a block of `epoch`
        on the parent's chain carries, each from its epoch on until the chain
        applies it; a withdraw waits until its validator is in the dynasty."""
        txs = []
        records = parent_state.registry.records
        for spec in self.scheduled:
            rec = records.get(spec.index)
            pubkey = self.keyring.pubkey(spec.index)
            if rec is None:
                if spec.join_epoch <= epoch:
                    txs.append(Deposit(spec.index, pubkey, spec.deposit))
            elif spec.leave_epoch is not None and spec.leave_epoch <= epoch \
                    and rec.end_dynasty is None \
                    and rec.start_dynasty < len(parent_state.finalized_at):
                txs.append(Withdraw(spec.index, pubkey))
        return txs

    def propose(self, now: int) -> None:
        """Extend the proposer's head (or, at the fork rate, its parent) with
        one block carrying what its chain has not yet included: the pending
        evidence against validators its chain has not covered, in validator
        order, and the votes the proposer's view has received since the
        parent was proposed, in receipt order.

        Every block of a generic run is proposed here and carries all the
        votes it was offered, which are distinct, so a chain's payloads hold
        exactly the receipt prefix and the rest is new.  A proof covers its
        validator only once the chain holds the validator's record
        (`include_evidence`), so it is carried again until it does."""
        head = self.proposer.head()
        parent_id = head
        if self.cfg.proposer_fork_rate and head != self.tree.root:
            rate = self.cfg.proposer_fork_rate
            if self.rng_prop.random() < rate.numerator / rate.denominator:
                parent_id = self.tree.get(head).parent
        parent = self.tree.get(parent_id)
        parent_state = self.cache.get(parent_id)
        epoch = self.proto.epoch_of_height(parent.height + 1)
        txs = self._scheduled_txs(epoch, parent_state)
        if not self.cfg.censor_evidence:
            records = parent_state.registry.records
            txs.extend(proof for index, proof in sorted(self.pending_evidence.items())
                       if index not in records or not records[index].slashed)
        votes = self.proposer.votes
        txs.extend(VoteInclusion(vote) for vote in votes[self._offered[parent_id]:])
        block = self.tree.extend(parent_id, now, None, tuple(txs))
        self._offered[block.id] = len(votes)
        self.broadcast_block(block, now)

    # `bench/tracing.py` counts `sim.deliver` by wrapping this class's own
    # binding of the one delivery loop
    deliver = Network.deliver

    def run_loop(self) -> None:
        total_ticks = self.cfg.duration_epochs * self.proto.spacing
        drain = self.proto.delta + 1
        for now in range(1, total_ticks + drain + 1):
            self.deliver_due(now - 1)
            for view in self.views.values():
                view.advance_clock(now)
            if now <= total_ticks:
                self.propose(now)
        self.deliver_due(math.inf)


# -----------------------------------------------------------------------------
# Invariant sweep and report
# -----------------------------------------------------------------------------

def established_links(cache: ChainStateCache, pool: VotePool) -> list:
    """Every established link derivable from the pool, one tally per voted pair."""
    tree = cache.tree
    out = []
    for (source, target) in sorted(pool.by_link):
        if source not in tree or target not in tree:
            continue
        if tree.checkpoint_height(target) is None:
            continue
        if source == target or not tree.is_ancestor(source, target):
            continue
        status = tally(cache, pool, source, target)
        if status.established:
            out.append(status)
    return out


def check_link_properties(tree: BlockTree, links) -> dict:
    """Distinct links must not share a target height nor strictly nest.

    Link i strictly surrounds link j when s_i < s_j < t_j < t_i (heights).
    Taken in source-height order, a link is nested exactly when the greatest
    target height among links with a strictly smaller source exceeds its
    own, so one sort finds it."""
    hs = [(tree.require_checkpoint(s.source), tree.require_checkpoint(s.target))
          for s in links]
    target_heights = [h_t for _h_s, h_t in hs]
    same_height_ok = len(set(target_heights)) == len(target_heights)
    nesting_ok = True
    outer = -1      # greatest target height of the links with a smaller source
    for h_s, group in groupby(sorted(hs), key=itemgetter(0)):
        targets = [h_t for _h_s, h_t in group]
        if any(h_s < h_t < outer for h_t in targets):
            nesting_ok = False
            break
        outer = max(outer, targets[-1])
    return {"no_double_target_height": same_height_ok,
            "no_nested_links": nesting_ok}


def _members_below(below: frozenset, block, members: set) -> frozenset:
    return below | {block.id} if block.id in members else below


def first_conflict(tree: BlockTree, checkpoints) -> tuple[bytes, bytes] | None:
    """The first pair (a, b) of conflicting checkpoints, in the order of
    `(i, j)`, i < j, over the id-sorted set; None when all lie on one chain.
    Raises NotACheckpoint for any member that is not a checkpoint.

    A set on one chain, the usual case, is told by taking its members by
    height: each must be a strict ancestor of the next, which two of one
    height never are, and the ancestry tests together walk once down from
    the highest member.  Only a set that is not has its pairs searched:
    each member's record is the set's members among its ancestors, itself
    included, folded down its chain (`BlockTree.fold`): a block's record is
    its parent's, plus the block when it is a member.  The fold keeps every
    block's record, so each block is walked at most once in all, and two
    members conflict exactly when neither is in the other's record.
    """
    cps = sorted(checkpoints)
    # the sort key raises NotACheckpoint, for the first such member by id
    by_height = sorted(cps, key=tree.require_checkpoint)
    if all(tree.is_ancestor(a, b) for a, b in zip(by_height, by_height[1:])):
        return None
    members = set(cps)
    ancestors = {tree.root: frozenset({tree.root})}
    for cp in cps:
        tree.fold(cp, ancestors, _members_below, members)
    for i, a in enumerate(cps):
        below_a = ancestors[a]
        for b in cps[i + 1:]:
            if b not in below_a and a not in ancestors[b]:
                return a, b
    return None


def sweep_invariants(net: Network) -> dict:
    """End-of-run checks over a finished run's shared tree, pool and views,
    plus the network's own delivery-delay and monotonicity verdicts.

    With F checkpoints finalized in any view, L voted links in the pool and
    v_i votes by validator i (the pool queries, `tally`, `compute_justified`
    and `safety_audit`, read each vote's run record, so the sweep looks one
    record up per pool vote per query and verifies and classifies nothing
    the run has not):

    * no conflicting finalization: `first_conflict` walks once down the
      chain from the highest finalized checkpoint when the F of them lie on
      one chain; only otherwise does it walk each block below a finalized
      checkpoint at most once in all, then make at most F^2/2 pair tests of
      two set lookups each;
    * slashable weight: `scan` sorts each validator's votes once, v_i log
      v_i, and checks the v_i^2 / 2 pairs of a validator only when the sort
      finds a violation; violators weigh their deposits against the genesis
      total, since every spec's would add up a handover's sets;
    * link properties: one `tally` per voted link, one record lookup per
      vote on it, and an L log L nesting check;
    * one justified checkpoint per height: one `compute_justified` pass,
      one record lookup per pool vote;
    * honest never slashed: every validator record at every leaf;
    * accountability: one `safety_audit` of the first conflicting pair, only
      when there is one and the validator set is static: no spec joins late
      or leaves (`Network.scheduled` is empty).
    """
    cfg = net.cfg
    tree, pool, cache = net.tree, net.pool, net.cache

    # conflicting finalization across client views
    finalized_union: set[bytes] = set()
    for view in net.views.values():
        finalized_union.update(view.observed_finalized)
    conflict_pair = first_conflict(tree, finalized_union)
    safety_ok = conflict_pair is None

    violations = scan(pool)
    violator_indexes = sorted({v.validator_index for v in violations})
    deposits = {s.index: s.deposit for s in cfg.validators}
    total = sum(s.deposit for s in cfg.validators if s.join_epoch == 0)
    violator_weight = sum(deposits.get(i, 0) for i in violator_indexes)
    under_third = 3 * violator_weight < total

    links = established_links(cache, pool)
    properties = check_link_properties(tree, links)
    justified = compute_justified(cache, pool)
    per_height: dict[int, int] = {}
    for cp in justified:
        h = tree.require_checkpoint(cp)
        per_height[h] = per_height.get(h, 0) + 1
    properties["single_justified_per_height"] = all(n <= 1 for n in per_height.values())
    properties_ok = (not under_third) or all(properties.values())

    honest = {s.index for s in cfg.validators if s.behavior.kind == HONEST}
    honest_unslashed = not (honest & set(violator_indexes))
    for leaf in tree.leaves():
        state = cache.get(leaf)
        for rec in state.registry.records.values():
            if rec.slashed and rec.index in honest:
                honest_unslashed = False

    accountability = None
    if conflict_pair is not None and not net.scheduled:
        from .slashing import safety_audit
        result = safety_audit(cache, pool, conflict_pair[0], conflict_pair[1])
        accountability = {
            "violators": [i for i, _v in result.violators],
            "violator_weight": result.violator_weight,
            "reference_total": result.reference_total,
            "bound_holds": result.bound_holds,
        }

    return {
        "safety_no_conflicting_finalized": safety_ok,
        "conflict_pair": [cp.hex() for cp in conflict_pair] if conflict_pair else None,
        "slashable_weight_under_third": under_third,
        "link_properties": properties,
        "link_properties_ok": properties_ok,
        "honest_never_slashed": honest_unslashed,
        "delivery_within_delta": net._max_jitter <= net.proto.delta,
        "justified_finalized_monotonic": net._monotonic_ok,
        "accountability": accountability,
    }


# true/false facts that are context, not pass/fail checks
_INFORMATIONAL = {"slashable_weight_under_third"}


def invariants_pass(inv: dict) -> bool:
    ok = all(value for key, value in inv.items()
             if isinstance(value, bool) and key not in _INFORMATIONAL)
    if inv.get("accountability") is not None:
        # a run that dual-finalized is only "accounted for" when the audit
        # recovers a third of the deposits; safety itself already failed
        ok = ok and inv["accountability"]["bound_holds"]
    return ok


# -- report text -----------------------------------------------------------------
# Blocks, transactions and votes are written straight to their canonical JSON
# text: keys in sorted order, and values that are only ints, lowercase hex
# strings and null, so no character needs escaping.  Each text is what
# `json.dumps(..., sort_keys=True, separators=(",", ":"))` writes for the
# object's dict, which `tx_from_dict` and `vote_from_dict` read back.

def _vote_json(vote: VoteData) -> str:
    return (f'{{"signature":"{vote.signature.hex()}","source":"{vote.source.hex()}",'
            f'"source_height":{vote.source_height},"target":"{vote.target.hex()}",'
            f'"target_height":{vote.target_height},"validator":{vote.validator_index}}}')


def _tx_json(tx, vote_json) -> str:
    """The transaction's text, its votes written by `vote_json`."""
    kind = type(tx)
    if kind is VoteInclusion:
        return f'{{"kind":"vote","vote":{vote_json(tx.vote)}}}'
    if kind is SlashEvidence:
        return (f'{{"first":{vote_json(tx.first)},"kind":"evidence",'
                f'"second":{vote_json(tx.second)}}}')
    if kind is Deposit:
        return (f'{{"amount":{tx.amount},"index":{tx.validator_index},'
                f'"kind":"deposit"}}')
    return f'{{"index":{tx.validator_index},"kind":"withdraw"}}'


def tx_from_dict(data: dict, keyring: Keyring):
    """The transaction `_tx_json` wrote, decoded; registers the keys it
    names.  Raises ValueError for a kind it never writes."""
    kind = data["kind"]
    if kind == "vote":
        return VoteInclusion(vote_from_dict(data["vote"], keyring))
    if kind == "evidence":
        return SlashEvidence(vote_from_dict(data["first"], keyring),
                             vote_from_dict(data["second"], keyring))
    if kind not in ("deposit", "withdraw"):
        raise ValueError(f"unknown transaction kind {kind!r}")
    pubkey = keyring.register(data["index"])
    if kind == "deposit":
        return Deposit(data["index"], pubkey, data["amount"])
    return Withdraw(data["index"], pubkey)


def vote_from_dict(data: dict, keyring: Keyring) -> VoteData:
    return VoteData(data["validator"], keyring.register(data["validator"]),
                    bytes.fromhex(data["source"]), bytes.fromhex(data["target"]),
                    data["source_height"], data["target_height"],
                    bytes.fromhex(data["signature"]))


def build_report(net: Network, invariants: dict,
                 extra: dict | None = None) -> "RunReport":
    """A finished run's report: its config, every block in (height, id)
    order with the slashings its evidence applies on its chain, each view's
    end state, the pool's votes, `invariants`, the views' first-seen
    tie-breaks as heuristics, the trace digest and the script's `extra`
    facts.

    Each block and each vote object is written once, as its JSON text; a
    vote's text is shared by `votes` and every transaction that carries
    it.  A block lists the slashings its chain state applied
    (`ChainState.slashings`): one per validator its own evidence newly
    covers, from the proof that slashed it there, in payload order."""
    tree, cache = net.tree, net.cache
    heuristics = []
    for name in sorted(net.views):
        for height, cp in net.views[name].ignored_finalized:
            heuristics.append(f"first-seen-kept:{name}:{height}:{cp.hex()[:8]}")
    votes = sorted(net.pool.votes, key=attrgetter("key"))
    # id(vote) -> its text, the pool's votes written first; the tree and the
    # pool hold every vote, so no id is reused while this lives
    vote_texts = {id(vote): _vote_json(vote) for vote in votes}

    def vote_json(vote: VoteData) -> str:
        text = vote_texts.get(id(vote))
        if text is None:
            text = vote_texts[id(vote)] = _vote_json(vote)
        return text

    block_texts, slashings = [], []
    # block id -> the withdrawals its chain state pays out, for each block
    # that pays any; a view's payouts are those of the blocks its tree holds
    paying: dict[bytes, tuple] = {}
    for block in sorted(tree.iter_blocks(), key=attrgetter("height", "id")):
        bid = block.id.hex()
        parent = f'"{block.parent.hex()}"' if block.parent else "null"
        proposer = "null" if block.proposer is None else block.proposer
        # most blocks carry nothing, and an empty payload skips the join
        txs = ",".join([_tx_json(tx, vote_json) for tx in block.payload]) \
            if block.payload else ""
        block_texts.append(
            f'{{"height":{block.height},"id":"{bid}","parent":{parent},'
            f'"proposer":{proposer},"timestamp":{block.timestamp},"txs":[{txs}]}}')
        state = cache.get(block.id)
        if state.payouts:
            paying[block.id] = state.payouts
        for violation in state.slashings:
            slashings.append({
                "validator": violation.validator_index,
                "kind": violation.kind.value,
                "included_in": bid,
                "height": block.height,
            })

    clients = {}
    # head id -> the leak totals of its chain state, shared by the views
    # whose head it is
    leak_totals: dict[bytes, dict] = {}
    for name in sorted(net.views):
        view = net.views[name]
        head = view.head()
        if head not in leak_totals:
            records = cache.get(head).registry.records
            leak_totals[head] = {str(index): rec.leaked
                                 for index, rec in sorted(records.items())
                                 if rec.leaked}
        clients[name] = {
            "head": head.hex(),
            "head_height": tree.get(head).height,
            "justified": sorted(cp.hex() for cp in view.fstate.justified),
            "finalized": sorted(cp.hex() for cp in view.observed_finalized),
            "first_seen_finalized": {str(h): cp.hex()
                                     for h, cp in sorted(view.first_seen_finalized.items())},
            "violators_heard": len(view._heard),
            "leak_totals": leak_totals[head],
            "payouts": sorted({payout for bid, payouts in paying.items()
                               if bid in view.tree.blocks
                               for payout in payouts}),
        }

    return RunReport(
        schema_version=SCHEMA_VERSION,
        config=config_to_dict(net.cfg),
        clients=clients,
        slashings=slashings,
        vote_texts=[vote_texts[id(vote)] for vote in votes],
        block_texts=block_texts,
        invariants=invariants,
        heuristics=sorted(heuristics),
        trace_digest=net.trace_digest(),
        extra=extra or {},
    )


# the encoder of a report's other sections; `build_report` makes fresh plain
# data that holds no cycle, so the encoder's cycle check would find nothing
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           check_circular=False).encode


@dataclass
class RunReport:
    """A run's report.  `block_texts` and `vote_texts` hold the JSON text of
    each block and each pool vote, written once by `build_report`;
    `to_json` splices them into the report's text, and `blocks`, `votes`
    and `to_dict` decode them only when read."""
    schema_version: int
    config: dict
    clients: dict
    slashings: list
    vote_texts: list[str]
    block_texts: list[str]
    invariants: dict
    heuristics: list
    trace_digest: str
    extra: dict

    @property
    def blocks(self) -> list:
        return json.loads(f"[{','.join(self.block_texts)}]")

    @property
    def votes(self) -> list:
        return json.loads(f"[{','.join(self.vote_texts)}]")

    def to_dict(self) -> dict:
        return {"schema_version": self.schema_version, "config": self.config,
                "clients": self.clients, "slashings": self.slashings,
                "votes": self.votes, "blocks": self.blocks,
                "invariants": self.invariants, "heuristics": self.heuristics,
                "trace_digest": self.trace_digest, "extra": self.extra}

    def to_json(self) -> str:
        """The report's canonical text: the top-level keys in sorted order,
        no whitespace, equal to `json.dumps(self.to_dict(), sort_keys=True,
        separators=(",", ":"))`."""
        return "".join((
            '{"blocks":[', ",".join(self.block_texts),
            '],"clients":', _encode(self.clients),
            ',"config":', _encode(self.config),
            ',"extra":', _encode(self.extra),
            ',"heuristics":', _encode(self.heuristics),
            ',"invariants":', _encode(self.invariants),
            f',"schema_version":{self.schema_version}',
            ',"slashings":', _encode(self.slashings),
            f',"trace_digest":"{self.trace_digest}"',
            ',"votes":[', ",".join(self.vote_texts), "]}"))

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @property
    def passed(self) -> bool:
        return invariants_pass(self.invariants)


def run(cfg: ScenarioConfig) -> RunReport:
    """Run a scenario to completion and assemble its report.

    The cyclic collector is paused for the run and the caller's setting is
    restored afterwards, also when the run raises.  A run's objects form no
    reference cycles, so reference counting frees all of them and the
    collector's passes over the live chain states would free nothing
    (`tests/test_work_budget.py::test_runs_leave_no_cyclic_garbage` guards
    this).  Code that calls `Simulation.run_loop` or a scenario runner
    directly keeps the collector as it is.  The config is validated once:
    by `Simulation` for a generic run, here for a scripted one."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        if cfg.scenario != GENERIC:
            from .scenarios import run_scripted
            cfg.validate()
            return run_scripted(cfg)

        sim = Simulation(cfg)
        sim.run_loop()
        return build_report(sim, sweep_invariants(sim))
    finally:
        if collecting:
            gc.enable()
