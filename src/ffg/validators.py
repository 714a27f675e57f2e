"""Validator lifecycle: deposits, dynasties, exits, and the two membership sets.

A validator joining (or leaving) via a message included at dynasty d becomes
active (or inactive) at dynasty d+2.  For a dynasty d the two deposit-weighted
sets are

    forward(d) = { v : start <= d <  end }
    rear(d)    = { v : start <  d <= end }

so forward(d) == rear(d+1).  `ValidatorRecord.in_forward` and `in_rear` test
one record; `finality.snapshot_registry` builds the weighted sets and their
2/3 needs, integer ceilings.  The other 2/3 and 1/3 comparisons use
cross-multiplication on integer deposits; no floats ever enter the math.

A validator is named by its index, as a vote names it: indexes are unique in
a run (a repeated one is a Rejoin error), so records and the registry's
methods take the index alone, and only the keyring maps it to a public key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (AlreadyLeaving, AlreadySlashed, NotActive, Rejoin,
                     UnknownValidator, ZeroDeposit)


@dataclass(slots=True)
class ValidatorRecord:
    index: int
    deposit: int
    start_dynasty: int
    end_dynasty: int | None = None      # None while no withdraw message is included
    unlock_epoch: int | None = None
    slashed: bool = False
    withdrawn: bool = False
    leaked: int = 0

    def copy(self) -> "ValidatorRecord":
        return ValidatorRecord(self.index, self.deposit, self.start_dynasty,
                               self.end_dynasty, self.unlock_epoch,
                               self.slashed, self.withdrawn, self.leaked)

    @property
    def weight(self) -> int:
        """Deposit that counts toward thresholds; zero once slashed or paid out."""
        if self.slashed or self.withdrawn:
            return 0
        return self.deposit

    def in_forward(self, dynasty: int) -> bool:
        end = self.end_dynasty
        return self.start_dynasty <= dynasty and (end is None or dynasty < end)

    def in_rear(self, dynasty: int) -> bool:
        end = self.end_dynasty
        return self.start_dynasty < dynasty and (end is None or dynasty <= end)


@dataclass
class ValidatorRegistry:
    """Chain-local validator state, keyed by validator index; cloneable for
    fork evaluation."""

    records: dict[int, ValidatorRecord] = field(default_factory=dict)

    def clone(self) -> "ValidatorRegistry":
        return ValidatorRegistry({index: rec.copy()
                                  for index, rec in self.records.items()})

    def get(self, index: int) -> ValidatorRecord:
        try:
            return self.records[index]
        except KeyError:
            raise UnknownValidator(index) from None

    def add_genesis_validator(self, index: int, deposit: int) -> None:
        """Bootstrap member, active from dynasty 0."""
        if deposit <= 0:
            raise ZeroDeposit(index)
        if index in self.records:
            raise Rejoin(index)
        self.records[index] = ValidatorRecord(index, deposit, start_dynasty=0)

    def process_deposit(self, index: int, amount: int, current_dynasty: int) -> None:
        """Join request included at dynasty d: active from dynasty d+2.

        Indexes are never reused, so any previously seen index (even a fully
        withdrawn one) is a Rejoin error.
        """
        if amount <= 0:
            raise ZeroDeposit(index)
        if index in self.records:
            raise Rejoin(index)
        self.records[index] = ValidatorRecord(index, amount,
                                              start_dynasty=current_dynasty + 2)

    def process_withdraw(self, index: int, current_dynasty: int) -> None:
        """Leave request included at dynasty d: inactive from dynasty d+2.

        The withdrawal-delay countdown starts later, at the first block of the
        end dynasty on the chain being evaluated (see mark_end_dynasty_started).
        """
        rec = self.get(index)
        if rec.end_dynasty is not None:
            raise AlreadyLeaving(index)
        if rec.start_dynasty > current_dynasty:
            raise NotActive(index)
        rec.end_dynasty = current_dynasty + 2

    def mark_end_dynasty_started(self, dynasty: int, epoch: int,
                                 withdrawal_delay: int, previous: int) -> None:
        """Anchor unlock epochs for validators whose end dynasty just began.

        `previous` is the dynasty before the jump; a single block can complete
        several finalizations, so every end dynasty in (previous, dynasty]
        starts here.
        """
        for rec in self.records.values():
            if rec.end_dynasty is None or rec.unlock_epoch is not None:
                continue
            if previous < rec.end_dynasty <= dynasty:
                rec.unlock_epoch = epoch + withdrawal_delay

    def slash(self, index: int) -> int:
        """Zero the deposit; returns the amount taken.  Idempotence is the caller's
        job (AlreadySlashed)."""
        rec = self.get(index)
        if rec.slashed:
            raise AlreadySlashed(index)
        taken = rec.deposit
        rec.deposit = 0
        rec.slashed = True
        return taken
