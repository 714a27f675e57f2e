"""Commandment violations: detection and the constructive accountable-safety
audit.  The chain engine applies the penalty when a block includes evidence.

The two slashing conditions on a pair of distinct votes by one validator:

    I.  same target height
    II. one vote strictly inside the span of the other:
        h(s1) < h(s2) < h(t2) < h(t1)

`slashable` is their one definition, on the four heights; `check_pair`
classifies a pair of votes through it, and the simulator's agents and the
liveness planner ask it of the votes they would cast.  Both conditions are
judged purely on the votes' own fields, so detection works across
branches and regardless of which chain (if any) included the votes.  It also
means a run needs to check each vote only once: `ChainStateCache` runs
`find_new_violations` when a vote first reaches a view that has not heard
its validator, against the validator's votes checked before (unless the vote
lies above all of them, when neither condition can hold), and records each
conflict on both votes.  One valid proof takes a validator's whole deposit,
so a client view hears one violation per validator: `check_pair` of the
first partner it received and the incoming vote (`ClientView.receive_vote`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING

from .chain import SlashEvidence, VoteData
from .errors import DifferentValidators, NotConflicting, NotFinalized
from .votes import Keyring, VotePool

if TYPE_CHECKING:
    from .finality import ChainStateCache, VoteRecord


class ViolationKind(Enum):
    DOUBLE_VOTE = "I"
    SURROUND_VOTE = "II"


def violation_key(first: VoteData, second: VoteData) -> tuple:
    """The identity of a pair of votes by one validator, in either order."""
    a, b = first.key, second.key
    return (first.validator_index, a, b) if a <= b else (first.validator_index, b, a)


@dataclass(frozen=True)
class Violation:
    """Two votes by one validator that break a slashing condition.

    `key` (`violation_key`) identifies the pair in either orientation.  It
    is computed once at construction and takes no part in equality, hashing
    or `repr`.
    """
    kind: ViolationKind
    vote_a: VoteData
    vote_b: VoteData
    validator_index: int
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", violation_key(self.vote_a, self.vote_b))


def violates(hs1: int, ht1: int, hs2: int, ht2: int) -> bool:
    """Strict nesting in either orientation."""
    return (hs1 < hs2 < ht2 < ht1) or (hs2 < hs1 < ht1 < ht2)


def slashable(hs1: int, ht1: int, hs2: int, ht2: int) -> ViolationKind | None:
    """The condition that two distinct votes with these source and target
    heights break: I for the same target height, II for strict nesting."""
    if ht1 == ht2:
        return ViolationKind.DOUBLE_VOTE
    if violates(hs1, ht1, hs2, ht2):
        return ViolationKind.SURROUND_VOTE
    return None


def check_pair(v1: VoteData, v2: VoteData) -> Violation | None:
    """Classify one pair of same-validator votes; identical votes are not
    distinct and never violate."""
    if v1.validator_index != v2.validator_index:
        raise DifferentValidators(f"{v1.validator_index} vs {v2.validator_index}")
    if v1.key == v2.key:
        return None
    kind = slashable(v1.source_height, v1.target_height,
                     v2.source_height, v2.target_height)
    return None if kind is None else Violation(kind, v1, v2, v1.validator_index)


def proven_violation(keyring: Keyring, tx: SlashEvidence) -> Violation | None:
    """What slashing evidence proves, the one rule for chains: `check_pair`
    of the two votes if both signatures are valid, else None.  A block keeps
    the violation a proof that covers its validator proves
    (`ChainState.slashings`), and reports read it there."""
    if not (keyring.verify(tx.first) and keyring.verify(tx.second)):
        return None
    return check_pair(tx.first, tx.second)


def breaks_a_condition(votes: list[VoteData]) -> bool:
    """Whether two of one validator's distinct votes break condition I or
    II, by one sort of the votes by target height.

    Two votes break I when they share a target height.  When no two do,
    every vote earlier in that order has a lower target, so a vote strictly
    surrounds an earlier one exactly when its source is below the highest
    earlier source that lies below its own target: only a vote whose source
    is below its target can lie inside another.  Votes that share a key
    are one vote, so repeated keys can give a True that the pairs do not
    bear out, never a False that they would."""
    top = last = -math.inf
    for vote in sorted(votes, key=attrgetter("target_height")):
        hs, ht = vote.source_height, vote.target_height
        if ht == last or hs < top:
            return True
        if top < hs < ht:
            top = hs
        last = ht
    return False


def scan(pool: VotePool) -> list[Violation]:
    """All violations among all signature-valid vote pairs in the pool,
    validator by validator in index order, each validator's pairs in pool
    order.  Only a validator whose votes break a condition
    (`breaks_a_condition`) has its pairs checked."""
    found: list[Violation] = []
    for index in sorted(pool.by_validator):
        votes = pool.validator_votes(index)
        if not breaks_a_condition(votes):
            continue
        for i in range(len(votes)):
            for j in range(i + 1, len(votes)):
                v = check_pair(votes[i], votes[j])
                if v is not None:
                    found.append(v)
    return found


def find_new_violations(history: list[VoteData], incoming: VoteData) -> list[Violation]:
    """Violations created by one new vote against a same-validator history."""
    out = []
    for old in history:
        v = check_pair(old, incoming)
        if v is not None:
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# Accountable safety, constructively: given two conflicting finalized
# checkpoints, extract a violator set worth at least a third of the deposits.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditResult:
    violators: tuple[tuple[int, Violation], ...]
    violator_weight: int
    reference_total: int    # min over the implicated sets' totals

    @property
    def bound_holds(self) -> bool:
        return self.reference_total > 0 and 3 * self.violator_weight >= self.reference_total


def _justification_chain(tree, links, cp):
    """Links root -> ... -> cp, each established from a justified source.
    Deterministic: prefer the highest source, then the lowest id."""
    chain = []
    cursor = cp
    while cursor != tree.root:
        source = min((src for src, _stamp in links.by_target[cursor]
                      if src in links.justified),
                     key=lambda src: (-tree.require_checkpoint(src), src))
        chain.append((source, cursor))
        cursor = source
    chain.reverse()
    return chain


def _finalizing_link(tree, links, cp):
    """Established link from cp to a direct checkpoint child, if any."""
    h = tree.require_checkpoint(cp)
    kids = sorted(tgt for tgt, _stamp in links.by_source.get(cp, ())
                  if tree.require_checkpoint(tgt) == h + 1)
    return (cp, kids[0]) if kids else None


def _link_voters(cache, pool, link) -> dict[int, VoteRecord]:
    """The run records of the link's countable pool votes, by validator:
    the verdict and weights `pool_links` counted (`ChainStateCache.classify`)."""
    out: dict[int, VoteRecord] = {}
    for vote in pool.link_votes(*link):
        record = cache.record(vote)
        if cache.classify(record) is not None:
            out[vote.validator_index] = record
    return out


def _member_weight(record: VoteRecord) -> int:
    return max(record.forward, record.rear)


def safety_audit(cache: ChainStateCache, pool: VotePool, a_m: bytes,
                 b_n: bytes) -> AuditResult:
    """Walk the two finalization structures and surface the overlapping voters.

    Equal finalized heights: the two links targeting that height (and the two
    finalizing links one height up) share voters who double-voted.  Unequal
    heights: the lower side's finalizing link a_m -> a_{m+1} is either hit at
    the same target height by the other side's justification chain (double
    vote) or straddled by one of its links (surround vote).
    """
    from .finality import pool_links  # local import to avoid a cycle

    tree, snapshot_for = cache.tree, cache.snapshot_for
    if not tree.conflicting(a_m, b_n):
        raise NotConflicting("checkpoints are on one chain")
    links = pool_links(cache, pool)

    def finalization_of(cp):
        if cp not in links.justified:
            return None, None
        return (_justification_chain(tree, links, cp),
                _finalizing_link(tree, links, cp))

    chain_a, fin_a = finalization_of(a_m)
    chain_b, fin_b = finalization_of(b_n)
    if fin_a is None or fin_b is None:
        raise NotFinalized("both checkpoints must carry a finalization structure")

    if tree.require_checkpoint(a_m) > tree.require_checkpoint(b_n):
        a_m, b_n = b_n, a_m
        chain_a, chain_b = chain_b, chain_a
        fin_a, fin_b = fin_b, fin_a

    h_a = tree.require_checkpoint(a_m)
    h_a1 = h_a + 1
    just_a = chain_a[-1]

    crossing: list[tuple[tuple[bytes, bytes], tuple[bytes, bytes]]] = []
    for link in chain_b + [fin_b]:
        hs = tree.require_checkpoint(link[0])
        ht = tree.require_checkpoint(link[1])
        if link == fin_a or (hs, ht) == (h_a, h_a1):
            continue
        if ht == h_a1 or ht == h_a:
            crossing.append((fin_a if ht == h_a1 else just_a, link))
        elif hs < h_a and ht > h_a1:
            crossing.append((fin_a, link))
    if tree.require_checkpoint(b_n) == h_a:
        # the loop has paired the two links into height h_a already
        crossing.append((fin_a, fin_b))

    # the first crossing pair of greatest (bound holds, weight) key
    best: tuple[bool, int] | None = None
    result = AuditResult((), 0, 0)
    for link1, link2 in crossing:
        voters1 = _link_voters(cache, pool, link1)
        voters2 = _link_voters(cache, pool, link2)
        snap1 = snapshot_for(link1[1])
        snap2 = snapshot_for(link2[1])
        common = sorted(set(voters1) & set(voters2))
        pair_weight = 0
        pair_violators: dict[int, Violation] = {}
        # the two links of a crossing pair are distinct and share a target
        # height or strictly nest, so a voter on both broke condition I or II
        for idx in common:
            record1, record2 = voters1[idx], voters2[idx]
            pair_violators[idx] = check_pair(record1.vote, record2.vote)
            pair_weight += min(_member_weight(record1), _member_weight(record2))
        totals = [t for t in (snap1.forward_total, snap1.rear_total,
                              snap2.forward_total, snap2.rear_total) if t > 0]
        pair_total = min(totals) if totals else 0
        key = (3 * pair_weight >= pair_total, pair_weight)
        if best is None or key > best:
            best = key
            result = AuditResult(tuple(sorted(pair_violators.items())),
                                 pair_weight, pair_total)
    return result
