"""Scripted adversarial scenarios.

These three runs need block-level orchestration (which branch includes which
votes at which heights), so they build chains directly instead of letting
agents vote.  A `Script` is the simulator's network (`ffg.sim.Network`), so
its runs produce ordinary reports: `Network.deliver`, the one delivery loop,
hands client views every staged message in (time, send order, listed-name
order), the network writes the block, vote and delivery trace lines and runs
the monotonicity check after each delivery time, and the invariant sweep and
the report read the script itself.  The loop runs the agents' reactions, but
a script has no agents, so nothing votes or submits evidence in response to
a delivery, and no evidence lines are written.  The sweep's pool queries
(`tally`, `compute_justified`, `safety_audit`) take the script's
`ChainStateCache`, so they judge with its tree, snapshots and stitching rule.
Delivery delay is not measured: a script chooses its delivery times, so
`delivery_within_delta` reads ok.

Each kind's contract is stated once, by its reader (`read_dynamic_attack`,
`read_long_range`, `read_split_finality`): exactly the params it reads, the
values and protocol settings its script can use, and the values the script
runs with.  `ScenarioConfig.validate` calls `check_scripted` (two observers,
unread fields at their defaults, every validator a genesis member that never
leaves, then the reader) and each script calls its reader, so `ffg check`
accepts exactly what `ffg run` can run.

* dynamic_attack: two validator generations hand over; one branch includes
  the handover finalization votes in time, the sibling branch includes them
  one block late.  Without the stitched (forward+rear) thresholds the two
  branches finalize conflicting same-height checkpoints with disjoint signer
  sets and an empty violator set; with stitching the stale branch cannot
  justify past the handover.

* long_range: a coalition that once held a supermajority withdraws, then
  replays history from an old block.  Clients hear the two conflicting
  finalizations in overlapping delivery windows [T0, T0+d] and
  [T0+d-1, T0+2d-1]; with unlock delay > 4*delta no admissible chain pays the
  coalition out, with 3*delta at least one client accepts a paying chain.

* split_finality: a clean partition; each side leaks the other until both
  halves regain a supermajority on their own chain and finalize conflicting
  checkpoints with zero violations.  Clients keep whichever finalized
  checkpoint they saw first.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

from .chain import (Block, Deposit, SlashEvidence, VoteData, VoteInclusion,
                    Withdraw)
from .config import ProtocolConfig
from .errors import ConfigInvalid, Unreachable
from .fork_choice import ClientView
from .leak import LeakConfig, epochs_to_supermajority
from .sim import (Behavior, DOUBLE_VOTER, DYNAMIC_ATTACK, HONEST, LONG_RANGE,
                  SPLIT_FINALITY, Network, RunReport, ScenarioConfig, ValidatorSpec,
                  build_report, sweep_invariants, u64s)
from .votes import sign_vote

# the scripts send to client0 and client1 by name
SCRIPTED_OBSERVERS = 2
# config fields the scripts never read (each derives its horizon from its
# params and the protocol), so they must keep their defaults
SCRIPTED_UNREAD = ("duration_epochs", "proposer_fork_rate", "censor_evidence")


def check_scripted(cfg: ScenarioConfig) -> None:
    """`ScenarioConfig.validate`'s rules for a scripted kind."""
    if cfg.observers != SCRIPTED_OBSERVERS:
        raise ConfigInvalid(f"scenario {cfg.scenario!r} needs observers: "
                            f"{SCRIPTED_OBSERVERS}, got {cfg.observers}")
    unread = [name for name in SCRIPTED_UNREAD
              if getattr(cfg, name) != getattr(ScenarioConfig, name)]
    # every validator is a genesis member that never leaves, and the
    # scripts sign its votes, so none reads its behavior's start
    if any(spec.join_epoch or spec.leave_epoch is not None for spec in cfg.validators):
        unread.append("join_epoch or leave_epoch")
    if any(spec.behavior.from_epoch for spec in cfg.validators):
        unread.append("from_epoch")
    if unread:
        raise ConfigInvalid(f"scenario {cfg.scenario!r} does not read "
                            f"{', '.join(unread)}: only the default is allowed")
    {DYNAMIC_ATTACK: read_dynamic_attack, LONG_RANGE: read_long_range,
     SPLIT_FINALITY: read_split_finality}[cfg.scenario](cfg)


def run_scripted(cfg: ScenarioConfig) -> RunReport:
    """Run a validated config of a scripted kind.  The scripts are called
    through this module's globals, where a tracer can replace them."""
    if cfg.scenario == LONG_RANGE:
        return scenario_longrange(cfg)
    if cfg.scenario == SPLIT_FINALITY:
        return scenario_split_finality(cfg)
    return scenario_dynamic_attack(cfg)


def _params(cfg: ScenarioConfig, *wanted: str) -> list:
    """The values of exactly the params `wanted`, in that order."""
    if set(cfg.params) != set(wanted):
        raise ConfigInvalid(
            f"scenario {cfg.scenario!r} reads exactly the params "
            f"{', '.join(wanted)}, got {', '.join(sorted(cfg.params))}")
    return [cfg.params[name] for name in wanted]


def _groups(cfg: ScenarioConfig, groups: dict) -> list[list[int]]:
    """`groups` (name -> value), each a non-empty list of distinct
    validator indexes disjoint from the others, or ConfigInvalid."""
    seeds = {spec.index for spec in cfg.validators}
    seen: set[int] = set()
    for name, group in groups.items():
        if not (isinstance(group, list) and group
                and all(type(i) is int and i in seeds for i in group)
                and len(set(group)) == len(group)
                and seen.isdisjoint(group)):
            raise ConfigInvalid(
                f"scenario {cfg.scenario!r}: {name} must be a non-empty "
                "list of distinct validator indexes, disjoint from the "
                f"other group, got {group!r}")
        seen.update(group)
    return list(groups.values())


class Script(Network):
    """Staged runs on the simulator's network: build blocks and votes, send
    them to named views at explicit times, then deliver them all.

    The trace has the simulator's lines: a block enters at its timestamp, a
    vote at its target's timestamp (the earliest it could be cast), and
    each delivery is traced as it happens."""

    def __init__(self, cfg: ScenarioConfig):
        super().__init__(cfg, [f"client{i}" for i in range(cfg.observers)])

    def extend(self, parent_id: bytes, timestamp: int, txs=(), proposer=None) -> Block:
        block = self.tree.extend(parent_id, timestamp, proposer, tuple(txs))
        self.announce_block(block, timestamp)
        return block

    def vote(self, index: int, source: bytes, target: bytes) -> VoteData:
        hs = self.tree.require_checkpoint(source)
        ht = self.tree.require_checkpoint(target)
        v = sign_vote(self.keyring, index, source, target, hs, ht)
        self.announce_vote(v, self.tree.get(target).timestamp)
        return v

    def votes(self, indexes, source: bytes, target: bytes) -> list[VoteData]:
        return [self.vote(i, source, target) for i in indexes]

    def send_block(self, block: Block, time: int, names=None) -> None:
        """Deliver `block` at `time` to the views `names`, in that order;
        to every view when `names` is None."""
        self.send("block", block, time,
                  list(self.views if names is None else names))

    def send_vote(self, vote: VoteData, time: int, names=None) -> None:
        self.send("vote", vote, time,
                  list(self.views if names is None else names))

    def finish(self, final_clock: int) -> None:
        """Deliver every send, then move every view's clock on."""
        self.deliver_due(math.inf)
        for view in self.views.values():
            view.advance_clock(final_clock)


# -----------------------------------------------------------------------------
# Dynamic validator set handover attack
# -----------------------------------------------------------------------------

def dynamic_attack_config(stitching: bool, seed: int = 7) -> ScenarioConfig:
    proto = ProtocolConfig(spacing=5, delta=8, withdrawal_delay=100,
                           stitching=stitching)
    old = tuple(ValidatorSpec(i, 100, Behavior(HONEST)) for i in range(3))
    return ScenarioConfig(
        name="dynamic_attack" + ("_stitch" if stitching else "_nostitch"),
        seed=seed, protocol=proto, validators=old, observers=2,
        scenario="dynamic_attack",
        params={"new_validators": [3, 4, 5], "new_deposit": 100})


def read_dynamic_attack(cfg: ScenarioConfig) -> tuple[list[int], int]:
    """The incoming generation's indexes and their deposit: distinct u64
    indexes outside the seed validators, and a u64 > 0.  The script's
    heights need spacing 5 and three seed validators."""
    new, amount = _params(cfg, "new_validators", "new_deposit")
    if cfg.protocol.spacing != 5 or len(cfg.validators) != 3:
        raise ConfigInvalid("scenario 'dynamic_attack' needs spacing 5 "
                            "and 3 seed validators")
    seeds = {spec.index for spec in cfg.validators}
    if not (isinstance(new, list) and new and u64s(new, len(new))
            and len(set(new)) == len(new) and seeds.isdisjoint(new)):
        raise ConfigInvalid(
            "scenario 'dynamic_attack': new_validators must be a "
            "non-empty list of distinct u64 indexes outside the seed "
            f"validators, got {new!r}")
    if not u64s((amount,), 1) or amount == 0:
        raise ConfigInvalid("scenario 'dynamic_attack': new_deposit "
                            f"must be a u64 > 0, got {amount!r}")
    return new, amount


def scenario_dynamic_attack(cfg: ScenarioConfig) -> RunReport:
    new, amount = read_dynamic_attack(cfg)
    s = Script(cfg)
    old = [spec.index for spec in cfg.validators]
    for idx in new:
        s.keyring.register(idx)

    # common prefix: checkpoints c1(5), c2(10), c3(15); the generation handover
    # messages land at dynasty 0, so the newcomers start and the old guard ends
    # at dynasty 2
    root = s.tree.root
    chain = {0: s.tree.get(root)}
    payloads = {
        6: lambda: [VoteInclusion(v) for v in s.votes(old, root, chain[5].id)],
        7: lambda: [Deposit(i, s.keyring.pubkey(i), amount) for i in new],
        8: lambda: [Withdraw(i, s.keyring.pubkey(i)) for i in old],
        11: lambda: [VoteInclusion(v) for v in s.votes(old, chain[5].id, chain[10].id)],
    }
    for h in range(1, 16):
        chain[h] = s.extend(chain[h - 1].id, h, payloads[h]() if h in payloads else ())
        s.send_block(chain[h], h)
    c2, c3 = chain[10].id, chain[15].id
    for h in (6, 11):
        for tx in chain[h].payload:
            if isinstance(tx, VoteInclusion):
                s.send_vote(tx.vote, h)

    late_votes = s.votes(old, c2, c3)          # justify c3; finalize c2 only if timely
    for v in late_votes:
        s.send_vote(v, 16)

    def branch(late_at: int, voters, timing: dict, proposer, names) -> dict:
        """Blocks 16..30 on c3, the late votes included at `late_at`; at
        heights 20 and 25, `voters` link the previous checkpoint to the new
        one, included and sent at `timing[h]`."""
        blocks = {15: chain[15]}
        payload = {late_at: [VoteInclusion(v) for v in late_votes]}
        for h in range(16, 31):
            blocks[h] = s.extend(blocks[h - 1].id, h, payload.get(h, ()), proposer)
            s.send_block(blocks[h], h, names)
            if h in timing:
                include_at, send_at = timing[h]
                payload[include_at] = [VoteInclusion(v) for v in
                                       s.votes(voters, blocks[h - 5].id, blocks[h].id)]
                for tx in payload[include_at]:
                    s.send_vote(tx.vote, send_at)
        return blocks

    # branch P: timely inclusion at 16 -> c2 finalized, dynasty 2 at c4p
    p = branch(16, new, {20: (21, 21), 25: (26, 26)}, None, None)
    # branch Q: one block late at 21 -> c2 misses its deadline, dynasty stays 1,
    # and the old guard alone still forms both sets for its targets
    q = branch(21, old, {20: (26, 25), 25: (27, 26)}, old[0], ["client1", "client0"])

    s.finish(final_clock=33)

    c4p, c4q = p[20].id, q[20].id
    state_p = s.cache.get(p[30].id)
    state_q = s.cache.get(q[30].id)
    extra = {
        "branch_p_finalized": sorted(cp.hex() for cp in state_p.finalized_at),
        "branch_q_finalized": sorted(cp.hex() for cp in state_q.finalized_at),
        "conflicting_pair": [c4p.hex(), c4q.hex()],
        "dual_finalized": c4p in state_p.finalized_at and c4q in state_q.finalized_at,
        "checkpoints": {"c3": c3.hex(), "c4p": c4p.hex(), "c4q": c4q.hex(),
                        "c5p": p[25].id.hex(), "c5q": q[25].id.hex()},
    }
    return build_report(s, sweep_invariants(s), extra)


# -----------------------------------------------------------------------------
# Long-range revision
# -----------------------------------------------------------------------------

def long_range_config(omega_delta_ratio: int, seed: int = 11,
                      delta: int = 50) -> ScenarioConfig:
    spacing = 5
    omega_epochs = omega_delta_ratio * delta // spacing
    proto = ProtocolConfig(spacing=spacing, delta=delta,
                           withdrawal_delay=omega_epochs)
    validators = (ValidatorSpec(0, 100, Behavior(HONEST)),
                  ValidatorSpec(1, 400, Behavior(DOUBLE_VOTER)),
                  ValidatorSpec(2, 400, Behavior(DOUBLE_VOTER)))
    return ScenarioConfig(
        name=f"long_range_omega{omega_delta_ratio}delta", seed=seed,
        protocol=proto, validators=validators, observers=2, scenario="long_range",
        params={"attackers": [1, 2], "honest": [0], "reveal": 15})


def read_long_range(cfg: ScenarioConfig) -> tuple[list[int], list[int], int]:
    """The coalition, the honest minority (two disjoint groups of the
    validators) and the reveal time, an integer >= 0.  The script's heights
    (the fork off height 4, the withdraws at height 8, the double votes of
    epochs 1-4) need spacing 5."""
    if cfg.protocol.spacing != 5:
        raise ConfigInvalid("scenario 'long_range' needs spacing 5, got "
                            f"{cfg.protocol.spacing}")
    attackers, honest, reveal = _params(cfg, "attackers", "honest", "reveal")
    if type(reveal) is not int or reveal < 0:
        raise ConfigInvalid(f"scenario 'long_range': reveal must be an "
                            f"integer >= 0, got {reveal!r}")
    _groups(cfg, {"attackers": attackers, "honest": honest})
    return attackers, honest, reveal


def scenario_longrange(cfg: ScenarioConfig) -> RunReport:
    attackers, honest, t0 = read_long_range(cfg)
    proto = cfg.protocol
    E, delta = proto.spacing, proto.delta
    everyone = sorted(honest + attackers)
    s = Script(cfg)
    root = s.tree.root

    unlock_epoch = 3 + proto.withdrawal_delay          # end dynasty starts epoch 3
    horizon = (unlock_epoch + 1) * E + 4 * delta

    # -- the secret fork off height 4, built first so its votes can be slashed
    # on the real chain: replayed withdraws, conflicting votes for heights 1..4
    real: dict[int, Block] = {0: s.tree.get(root)}
    for h in range(1, 5):
        real[h] = s.extend(real[h - 1].id, h)
    fork = dict(real)
    fork_votes: dict[int, list[VoteData]] = {}
    for h in range(5, horizon + 1):
        txs = [Withdraw(i, s.keyring.pubkey(i)) for i in attackers] if h == 8 else []
        if h % E == 1 and h > E and (h // E) <= 4:
            k = h // E
            src = root if k == 1 else fork[(k - 1) * E].id
            votes = s.votes(attackers, src, fork[k * E].id)
            fork_votes[k] = votes
            txs = txs + [VoteInclusion(v) for v in votes]
        fork[h] = s.extend(fork[h - 1].id, h, txs, proposer=attackers[0])

    # -- the real chain: everyone votes until the coalition's rear-set duty
    # ends, the honest minority finalizes alone afterwards, and the first block
    # after the reveal settles carries one proof per attacker, from the first
    # epoch both chains have voted in by then ----------------------------------
    evidence_block_h = t0 + delta + 1
    real_votes: dict[int, list[VoteData]] = {}
    for h in range(5, horizon + 1):
        txs = [Withdraw(i, s.keyring.pubkey(i)) for i in attackers] if h == 8 else []
        if h % E == 1 and h > E:
            k = h // E
            voters = everyone if k <= 4 else honest
            src = root if k == 1 else real[(k - 1) * E].id
            votes = s.votes(voters, src, real[k * E].id)
            real_votes[k] = votes
            txs = txs + [VoteInclusion(v) for v in votes]
        if h == evidence_block_h and fork_votes.keys() & real_votes.keys():
            k = min(fork_votes.keys() & real_votes.keys())
            by_index = {v.validator_index: v for v in real_votes[k]}
            txs = txs + [SlashEvidence(by_index[v.validator_index], v)
                         for v in fork_votes[k]]
        real[h] = s.extend(real[h - 1].id, h, txs)

    for h in range(1, horizon + 1):
        deliver_at = max(h, t0)
        s.send_block(real[h], deliver_at)
        for tx in real[h].payload:
            if isinstance(tx, VoteInclusion):
                s.send_vote(tx.vote, deliver_at)

    # reveal windows: the real finalization bundle lands in [t0, t0+delta], the
    # fork bundle in [t0+delta-1, t0+2*delta-1]; one tick of overlap
    hear_fork = {"client0": t0 + delta - 1, "client1": t0 + 2 * delta - 1}
    for name, when in hear_fork.items():
        for h in range(5, horizon + 1):
            s.send_block(fork[h], max(when, h), names=[name])
        for k in sorted(fork_votes):
            for v in fork_votes[k]:
                s.send_vote(v, when, names=[name])

    s.finish(final_clock=horizon + 2 * delta)

    # -- outcome analysis ----------------------------------------------------------
    extra = analyze_longrange(s, cfg, unlock_epoch, attackers)
    invariants = sweep_invariants(s)
    invariants["long_range_defended"] = extra["defended"]
    return build_report(s, invariants, extra)


def admissible_tip(view: ClientView, leaf: bytes) -> bytes:
    """The last block of the longest admissible prefix of `leaf`'s chain,
    or the root when `view` admits no block below it.  Stamps rise along a
    chain and a rejected block rejects its descendants, so the blocks that
    `chain_admissible` accepts form a prefix of the path, and bisection
    finds its end."""
    path = view.tree.path(leaf)
    end = bisect_left(path, True, 1,
                      key=lambda bid: not view.chain_admissible(bid))
    return path[end - 1]


def analyze_longrange(s: Script, cfg: ScenarioConfig, unlock_epoch: int,
                      attackers: list[int]) -> dict:
    """Per client: does any admissible chain pay the coalition out, and do all
    admissible chains that reach the unlock epoch carry the evidence first?"""
    per_client = {}
    reaches = False
    for name in sorted(s.views):
        view = s.views[name]
        payout_chains = []
        evidence_ok = True
        for leaf in view.tree.leaves():
            tip = view.tree.get(admissible_tip(view, leaf))
            if tip.parent is None:
                continue
            state = s.cache.get(tip.id)
            paid = [idx for idx, rec in state.registry.records.items()
                    if rec.withdrawn and idx in attackers]
            if tip.height >= unlock_epoch * cfg.protocol.spacing:
                reaches = True
                records = state.registry.records
                if paid and not all(records[i].slashed for i in attackers):
                    evidence_ok = False
            if paid:
                payout_chains.append(tip.id.hex())
        per_client[name] = {"payout_chains": sorted(payout_chains),
                            "all_reaching_chains_slash_first": evidence_ok}
    any_payout = any(c["payout_chains"] for c in per_client.values())
    evidence_everywhere = all(c["all_reaching_chains_slash_first"]
                              for c in per_client.values())
    return {
        "unlock_epoch": unlock_epoch,
        "attacker_payout_accepted": any_payout,
        "evidence_before_unlock_everywhere": evidence_everywhere,
        "some_chain_reaches_unlock": reaches,
        "defended": evidence_everywhere and not any_payout,
        "per_client": per_client,
    }


# -----------------------------------------------------------------------------
# Split finality under the inactivity leak
# -----------------------------------------------------------------------------

def split_finality_config(seed: int = 13) -> ScenarioConfig:
    proto = ProtocolConfig(spacing=5, delta=8, withdrawal_delay=100,
                           leak=LeakConfig(rate=Fraction(1, 10)))
    validators = (ValidatorSpec(0, 500, Behavior(HONEST)),
                  ValidatorSpec(1, 500, Behavior(HONEST)))
    return ScenarioConfig(
        name="split_finality", seed=seed, protocol=proto, validators=validators,
        observers=2, scenario="split_finality", params={"partition": [[0], [1]]})


def read_split_finality(cfg: ScenarioConfig) -> tuple[list[int], list[int], int, int]:
    """The partition's two sides (disjoint groups that together hold every
    validator, so the oracle weighs all the deposits) and the leak epochs
    each needs to regain a supermajority, which both must reach."""
    (partition,) = _params(cfg, "partition")
    if not (isinstance(partition, list) and len(partition) == 2):
        raise ConfigInvalid("scenario 'split_finality': partition must "
                            f"be a list of two sides, got {partition!r}")
    side_a, side_b = _groups(cfg, {"partition[0]": partition[0],
                                   "partition[1]": partition[1]})
    outside = sorted({spec.index for spec in cfg.validators}
                     .difference(side_a, side_b))
    if outside:
        raise ConfigInvalid("scenario 'split_finality': the partition must "
                            f"hold every validator, and leaves out {outside}")
    w_a, w_b = (sum(spec.deposit for spec in cfg.validators if spec.index in side)
                for side in (side_a, side_b))
    try:
        k_a = epochs_to_supermajority(w_a, w_b, cfg.protocol.leak)
        k_b = epochs_to_supermajority(w_b, w_a, cfg.protocol.leak)
    except Unreachable as exc:
        raise ConfigInvalid("scenario 'split_finality': the leak never gives "
                            f"both sides a supermajority: {exc}") from exc
    return side_a, side_b, k_a, k_b


def scenario_split_finality(cfg: ScenarioConfig) -> RunReport:
    side_a, side_b, k_a, k_b = read_split_finality(cfg)
    E = cfg.protocol.spacing
    epochs = max(k_a, k_b) + 4

    s = Script(cfg)
    root = s.tree.root
    # per side: its members, the first checkpoint its links may chain from
    # (the opposite side first misses the window targeting checkpoint 1, so
    # the snapshot at height 1 + k is the first with its deposits drained k
    # times), each observer's lag (client0 hears side a first, client1 side
    # b) and its chain
    lanes = [(side_a, k_a + 1, {"client0": 0, "client1": 1}, {0: s.tree.get(root)}),
             (side_b, k_b + 1, {"client0": 1, "client1": 0}, {0: s.tree.get(root)})]
    for h in range(1, epochs * E + 1):
        for members, start, lag, chain in lanes:
            txs = []
            if h % E == 1 and h > E:
                k = h // E
                # wide votes from the root until the drained snapshot at
                # `start` lets a link establish, then chain link by link
                src = root if k <= start else chain[(k - 1) * E].id
                votes = s.votes(members, src, chain[k * E].id)
                txs = [VoteInclusion(v) for v in votes]
                for v in votes:
                    for client, late in lag.items():
                        s.send_vote(v, h + late, names=[client])
            chain[h] = s.extend(chain[h - 1].id, h, txs, proposer=members[0])
            for client, late in lag.items():
                s.send_block(chain[h], h + late, names=[client])

    s.finish(final_clock=epochs * E + 2)
    state_a, state_b = (s.cache.get(chain[epochs * E].id) for *_, chain in lanes)

    def first_new_finalized(state):
        heights = [s.tree.checkpoint_height(cp)
                   for cp in state.finalized_at if cp != s.tree.root]
        return min(heights) if heights else None

    extra = {
        "oracle_epochs": {"a": k_a, "b": k_b},
        "first_finalized_height": {"a": first_new_finalized(state_a),
                                   "b": first_new_finalized(state_b)},
        "leaked_on_a": {str(i): state_a.registry.records[i].leaked
                        for i in sorted(side_b)},
        "leaked_on_b": {str(i): state_b.registry.records[i].leaked
                        for i in sorted(side_a)},
        "heads": {name: s.views[name].head().hex() for name in sorted(s.views)},
    }
    return build_report(s, sweep_invariants(s), extra)
