"""Scripted adversarial scenarios.

These three runs need block-level orchestration (which branch includes which
votes at which heights), so they build chains directly instead of going
through the generic agent loop.  A `Script` is the simulator's network
(`ffg.sim.Network`), so its runs produce ordinary reports: client views
receive every staged message in (time, send order, listed-name order), the
network writes the block, vote and delivery trace lines and runs the
monotonicity check after each delivery time, and the invariant sweep and the
report read the script itself (scripts submit no evidence, so they write no
evidence lines).  The sweep's pool queries (`tally`, `compute_justified`,
`safety_audit`) take the script's `ChainStateCache`, so they judge with its
tree, snapshots and stitching rule.  Delivery delay is not measured: a script
chooses its delivery times, so `delivery_within_delta` reads ok.

Each kind reads exactly the params `ffg.sim.SCRIPTED_PARAMS` names, all of
them required, and derives its horizon from them and the protocol, so
`ScenarioConfig.validate` rejects any other param, a param value the script
cannot use, and a `duration_epochs` other than the default; `dynamic_attack`
also needs spacing 5 and three seed validators.

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
from fractions import Fraction

from .chain import (Block, Deposit, SlashEvidence, VoteData, VoteInclusion,
                    Withdraw)
from .config import ProtocolConfig
from .leak import LeakConfig, epochs_to_supermajority
from .sim import (Behavior, DOUBLE_VOTER, HONEST, Network, RunReport, ScenarioConfig,
                  ValidatorSpec, build_report, sweep_invariants)
from .votes import sign_vote


class Script(Network):
    """Staged runs on the simulator's network: build blocks and votes, send
    them to named views at explicit times, then deliver them all.

    The trace has the simulator's lines: a block enters at its timestamp, a
    vote at its target's timestamp (the earliest it could be cast), and
    each delivery is traced as it happens."""

    def __init__(self, cfg: ScenarioConfig):
        super().__init__(cfg, [f"client{i}" for i in range(max(1, cfg.observers))])

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
        self.send("block", block, time, list(names or self.views))

    def send_vote(self, vote: VoteData, time: int, names=None) -> None:
        self.send("vote", vote, time, list(names or self.views))

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


def scenario_dynamic_attack(cfg: ScenarioConfig) -> RunReport:
    s = Script(cfg)
    old = [spec.index for spec in cfg.validators]
    new = list(cfg.params["new_validators"])
    amount = cfg.params["new_deposit"]
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
        txs = payloads[h]() if h in payloads else ()
        block = s.extend(chain[h - 1].id, h, txs)
        chain[h] = block
        s.send_block(block, h)
    c1, c2, c3 = chain[5].id, chain[10].id, chain[15].id
    for h in (6, 11):
        for tx in chain[h].payload:
            if isinstance(tx, VoteInclusion):
                s.send_vote(tx.vote, h)

    late_votes = s.votes(old, c2, c3)          # justify c3; finalize c2 only if timely
    for v in late_votes:
        s.send_vote(v, 16)

    # branch P: timely inclusion at 16 -> c2 finalized, dynasty 2 at c4p
    p = {15: chain[15]}
    p_payload = {16: [VoteInclusion(v) for v in late_votes]}
    for h in range(16, 31):
        block = s.extend(p[h - 1].id, h, p_payload.get(h, ()))
        p[h] = block
        s.send_block(block, h)
        if h == 20:
            p_payload[21] = [VoteInclusion(v) for v in s.votes(new, c3, block.id)]
            for tx in p_payload[21]:
                s.send_vote(tx.vote, h + 1)
        if h == 25:
            p_payload[26] = [VoteInclusion(v) for v in s.votes(new, p[20].id, block.id)]
            for tx in p_payload[26]:
                s.send_vote(tx.vote, h + 1)

    # branch Q: one block late at 21 -> c2 misses its deadline, dynasty stays 1,
    # and the old guard alone still forms both sets for its targets
    q = {15: chain[15]}
    q_payload = {21: [VoteInclusion(v) for v in late_votes]}
    for h in range(16, 31):
        block = s.extend(q[h - 1].id, h, q_payload.get(h, ()), proposer=old[0])
        q[h] = block
        s.send_block(block, h, names=["client1", "client0"])
        if h == 20:
            q_payload[26] = [VoteInclusion(v) for v in s.votes(old, c3, block.id)]
            for tx in q_payload[26]:
                s.send_vote(tx.vote, 25)
        if h == 25:
            q_payload[27] = [VoteInclusion(v) for v in s.votes(old, q[20].id, block.id)]
            for tx in q_payload[27]:
                s.send_vote(tx.vote, 26)

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


def scenario_longrange(cfg: ScenarioConfig) -> RunReport:
    proto = cfg.protocol
    E, delta = proto.spacing, proto.delta
    attackers = list(cfg.params["attackers"])
    honest = list(cfg.params["honest"])
    everyone = sorted(honest + attackers)
    t0 = cfg.params["reveal"]
    s = Script(cfg)
    root = s.tree.root

    unlock_epoch = 3 + proto.withdrawal_delay          # end dynasty starts epoch 3
    horizon = (unlock_epoch + 1) * E + 4 * delta

    # -- the secret fork, built first so its votes can be slashed on the real
    # chain: replayed withdraws, conflicting votes for heights 1..4 ---------------
    real: dict[int, Block] = {0: s.tree.get(root)}
    for h in range(1, 5):
        real[h] = s.extend(real[h - 1].id, h)
    fork: dict[int, Block] = {4: real[4]}
    fork_votes: dict[int, list[VoteData]] = {}
    fork_blocks: list[Block] = []
    for h in range(5, horizon + 1):
        txs: list = []
        if h == 8:
            txs = [Withdraw(i, s.keyring.pubkey(i)) for i in attackers]
        if h % E == 1 and h > E and (h // E) <= 4:
            k = h // E
            src = root if k == 1 else fork[(k - 1) * E].id
            votes = s.votes(attackers, src, fork[k * E].id)
            fork_votes[k] = votes
            txs = txs + [VoteInclusion(v) for v in votes]
        block = s.extend(fork[h - 1].id, h, txs, proposer=attackers[0])
        fork[h] = block
        fork_blocks.append(block)

    # -- the real chain: everyone votes until the coalition's rear-set duty
    # ends, the honest minority finalizes alone afterwards, and the first block
    # after the reveal settles carries the slash evidence -------------------------
    evidence_block_h = t0 + delta + 1
    real_votes: dict[int, list[VoteData]] = {}
    for h in range(5, horizon + 1):
        txs = []
        if h == 8:
            txs = [Withdraw(i, s.keyring.pubkey(i)) for i in attackers]
        if h % E == 1 and h > E:
            k = h // E
            voters = everyone if k <= 4 else honest
            src = root if k == 1 else real[(k - 1) * E].id
            votes = s.votes(voters, src, real[k * E].id)
            real_votes[k] = votes
            txs = txs + [VoteInclusion(v) for v in votes]
        if h == evidence_block_h:
            for k in sorted(fork_votes):
                by_index = {v.validator_index: v for v in real_votes[k]}
                txs = txs + [SlashEvidence(by_index[v.validator_index], v)
                             for v in fork_votes[k]]
        block = s.extend(real[h - 1].id, h, txs)
        real[h] = block

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
        for block in fork_blocks:
            s.send_block(block, max(when, block.timestamp), names=[name])
        for k in sorted(fork_votes):
            for v in fork_votes[k]:
                s.send_vote(v, when, names=[name])

    s.finish(final_clock=horizon + 2 * delta)

    # -- outcome analysis ----------------------------------------------------------
    extra = analyze_longrange(s, cfg, unlock_epoch, attackers)
    invariants = sweep_invariants(s)
    invariants["long_range_defended"] = extra["defended"]
    return build_report(s, invariants, extra)


def analyze_longrange(s: Script, cfg: ScenarioConfig, unlock_epoch: int,
                      attackers: list[int]) -> dict:
    """Per client: does any admissible chain pay the coalition out, and do all
    admissible chains that reach the unlock epoch carry the evidence first?"""
    per_client = {}
    any_payout = False
    evidence_everywhere = True
    reaches = False
    for name in sorted(s.views):
        view = s.views[name]
        payout_chains = []
        evidence_ok = True
        for leaf in view.tree.leaves():
            # longest admissible prefix of this chain
            chain = []
            for bid in view.tree.path(leaf)[1:]:
                block = view.tree.get(bid)
                if not view.admissible(block):
                    break
                chain.append(block)
            if not chain:
                continue
            tip = chain[-1]
            state = s.cache.get(tip.id)
            paid = [idx for idx, rec in state.registry.records.items()
                    if rec.withdrawn and idx in attackers]
            if tip.height >= unlock_epoch * cfg.protocol.spacing:
                reaches = True
                slashed = {idx for idx, rec in state.registry.records.items()
                           if rec.slashed}
                if not set(attackers) <= slashed and paid:
                    evidence_ok = False
            if paid:
                payout_chains.append(tip.id.hex())
                any_payout = True
        per_client[name] = {"payout_chains": sorted(payout_chains),
                            "all_reaching_chains_slash_first": evidence_ok}
        evidence_everywhere = evidence_everywhere and evidence_ok
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


def scenario_split_finality(cfg: ScenarioConfig) -> RunReport:
    proto = cfg.protocol
    E = proto.spacing
    side_a, side_b = (list(p) for p in cfg.params["partition"])
    weights = {spec.index: spec.deposit for spec in cfg.validators}
    w_a = sum(weights[i] for i in side_a)
    w_b = sum(weights[i] for i in side_b)
    k_a = epochs_to_supermajority(w_a, w_b, proto.leak)
    k_b = epochs_to_supermajority(w_b, w_a, proto.leak)
    epochs = max(k_a, k_b) + 4

    s = Script(cfg)
    root = s.tree.root
    # the opposite side first misses the window targeting checkpoint 1, so the
    # snapshot at height 1 + k is the first with its deposits drained k times
    lanes = {"a": {"members": side_a, "chain": {0: s.tree.get(root)}, "proposer": side_a[0],
                   "justified_from": k_a + 1},
             "b": {"members": side_b, "chain": {0: s.tree.get(root)}, "proposer": side_b[0],
                   "justified_from": k_b + 1}}
    # observers hear lane a first / lane b first respectively
    lag = {("a", "client0"): 0, ("a", "client1"): 1,
           ("b", "client0"): 1, ("b", "client1"): 0}

    for h in range(1, epochs * E + 1):
        for lane_name, lane in lanes.items():
            chain = lane["chain"]
            txs = []
            if h % E == 1 and h > E:
                k = h // E
                start = lane["justified_from"]
                # wide votes from the root until the drained snapshot at
                # `start` lets a link establish, then chain link by link
                src = root if k <= start else chain[(k - 1) * E].id
                votes = s.votes(lane["members"], src, chain[k * E].id)
                txs = [VoteInclusion(v) for v in votes]
                for v in votes:
                    for client in ("client0", "client1"):
                        s.send_vote(v, h + lag[(lane_name, client)], names=[client])
            block = s.extend(chain[h - 1].id, h, txs, proposer=lane["proposer"])
            chain[h] = block
            for client in ("client0", "client1"):
                s.send_block(block, h + lag[(lane_name, client)], names=[client])

    s.finish(final_clock=epochs * E + 2)

    tip_a = lanes["a"]["chain"][epochs * E].id
    tip_b = lanes["b"]["chain"][epochs * E].id
    state_a = s.cache.get(tip_a)
    state_b = s.cache.get(tip_b)

    def first_new_finalized(state):
        heights = [state.snapshots[cp].cp_height
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
