"""Inactivity leak: drain non-voting deposits so finalization can resume.

Each epoch a validator with deposit D that fails to get a countable vote
included on the chain loses floor(D * p), with one configured rate p for
every epoch, and what it loses is burned.  The rate is an exact rational and the rounding is per validator
per epoch, so every platform computes the same integers.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from fractions import Fraction

from .errors import Unreachable
from .validators import ValidatorRecord, ValidatorRegistry


@dataclass(frozen=True)
class LeakConfig:
    rate: Fraction = Fraction(1, 10)

    def __post_init__(self):
        if not (0 < self.rate < 1):
            raise ValueError("leak rate must be in (0, 1)")


def leak_amount(deposit: int, rate: Fraction) -> int:
    return (deposit * rate.numerator) // rate.denominator


def apply_epoch_leak(registry: ValidatorRegistry, voted: Set[int],
                     current_dynasty: int, cfg: LeakConfig) -> int:
    """Leak every active non-voter once; returns the total amount drained.

    `voted` holds validator indexes with a countable vote included on this
    chain during the closing epoch.  Voters and inactive records are untouched;
    deposits never increase here.
    """
    drained = 0
    for index, rec in registry.records.items():
        if rec.withdrawn or rec.deposit <= 0:
            continue
        if not rec.in_forward(current_dynasty):
            continue
        if index in voted:
            continue
        cut = leak_amount(rec.deposit, cfg.rate)
        registry.records[index] = ValidatorRecord(
            index, rec.deposit - cut, rec.start_dynasty, rec.end_dynasty,
            rec.unlock_epoch, rec.slashed, rec.withdrawn, rec.leaked + cut)
        drained += cut
    return drained


def epochs_to_supermajority(online: int, offline: list[int], cfg: LeakConfig) -> int:
    """Smallest k such that after k leak epochs the online weight passes 2/3.

    Exact integer recurrence on each offline deposit, as `apply_epoch_leak`
    drains them: each epoch every offline deposit D loses floor(D * p).
    Raises Unreachable when there is no online weight to converge to, or
    when the drain stalls short of it.
    """
    if online <= 0:
        raise Unreachable("no online weight")
    k = 0
    while 3 * online < 2 * (online + sum(offline)):
        drained = [d - leak_amount(d, cfg.rate) for d in offline]
        if drained == offline:
            # floor rounding leaks nothing once every D * p < 1
            raise Unreachable("drain stalls below the rounding floor")
        offline = drained
        k += 1
    return k
