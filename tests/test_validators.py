import pytest
from hypothesis import given, strategies as st

from ffg.errors import (AlreadyLeaving, AlreadySlashed, NotActive, Rejoin,
                        UnknownValidator, ZeroDeposit)
from ffg.finality import snapshot_registry
from ffg.validators import ValidatorRegistry


def forward(reg, dynasty):
    return set(snapshot_registry(1, dynasty, reg, stitching=True).forward)


def rear(reg, dynasty):
    return set(snapshot_registry(1, dynasty, reg, stitching=True).rear)


def registry_with(indexes, deposit=100):
    reg = ValidatorRegistry()
    for i in indexes:
        reg.add_genesis_validator(i, deposit)
    return reg


def test_deposit_joins_two_dynasties_later():
    reg = ValidatorRegistry()
    reg.process_deposit(1, 100, current_dynasty=3)
    assert reg.get(1).start_dynasty == 5
    reg.process_deposit(2, 100, current_dynasty=0)
    assert reg.get(2).start_dynasty == 2


def test_deposit_errors():
    reg = registry_with([1])
    with pytest.raises(Rejoin):
        reg.process_deposit(1, 100, 0)
    with pytest.raises(ZeroDeposit):
        reg.process_deposit(9, 0, 0)
    # ids are never reused, not even after a full exit
    reg.process_withdraw(1, 0)
    with pytest.raises(Rejoin):
        reg.process_deposit(1, 100, 5)
    # a genesis member needs a deposit and an index not seen before
    for deposit in (0, -5):
        with pytest.raises(ZeroDeposit):
            reg.add_genesis_validator(9, deposit)
    with pytest.raises(Rejoin):
        reg.add_genesis_validator(1, 100)
    assert list(reg.records) == [1]


def test_withdraw_leaves_two_dynasties_later():
    reg = registry_with([1])
    reg.process_withdraw(1, current_dynasty=7)
    assert reg.get(1).end_dynasty == 9


def test_withdraw_errors():
    reg = ValidatorRegistry()
    reg.process_deposit(1, 100, current_dynasty=4)      # starts at 6
    with pytest.raises(NotActive):
        reg.process_withdraw(1, current_dynasty=5)
    reg.process_withdraw(1, current_dynasty=6)
    with pytest.raises(AlreadyLeaving):
        reg.process_withdraw(1, current_dynasty=7)


def test_forward_rear_strictness():
    reg = ValidatorRegistry()
    reg.process_deposit(1, 100, current_dynasty=0)      # starts at 2
    assert 1 in forward(reg, 2)
    assert 1 not in rear(reg, 2)
    assert 1 in rear(reg, 3)


def test_forward_set_is_next_rear_set():
    reg = ValidatorRegistry()
    reg.add_genesis_validator(0, 100)
    reg.process_deposit(1, 50, 1)
    reg.process_deposit(2, 70, 3)
    reg.process_withdraw(0, 4)
    for d in range(0, 10):
        assert forward(reg, d) == rear(reg, d + 1)


@given(st.lists(st.tuples(st.integers(0, 6), st.one_of(st.none(), st.integers(0, 8))),
                min_size=1, max_size=8))
def test_membership_interval_bruteforce(spans):
    from ffg.validators import ValidatorRecord
    reg = ValidatorRegistry()
    for i, (start, end) in enumerate(spans):
        rec = ValidatorRecord(i, 100, start_dynasty=start)
        if end is not None:
            rec.end_dynasty = max(start + 1, end)
        reg.records[i] = rec
    for d in range(0, 12):
        fwd = forward(reg, d)
        back = rear(reg, d)
        for v, rec in reg.records.items():
            end = rec.end_dynasty
            assert (v in fwd) == (rec.start_dynasty <= d and (end is None or d < end))
            assert (v in back) == (rec.start_dynasty < d and (end is None or d <= end))
        assert fwd == rear(reg, d + 1)


def test_total_weight_and_slash():
    reg = registry_with([0, 1, 2])
    before = snapshot_registry(1, 0, reg, stitching=True)
    assert before.forward == {0: 100, 1: 100, 2: 100}
    assert before.forward_total == 300
    reg.slash(1)
    after = snapshot_registry(1, 0, reg, stitching=True)
    assert after.forward == {0: 100, 2: 100}
    assert after.forward_total == 200
    assert reg.get(1).deposit == 0
    with pytest.raises(UnknownValidator):
        reg.get(9)


def test_slashing_a_slashed_validator_raises():
    reg = registry_with([0, 1])
    assert reg.slash(1) == 100
    with pytest.raises(AlreadySlashed):
        reg.slash(1)
    assert reg.get(1).deposit == 0 and reg.get(1).slashed


def test_end_dynasty_anchor_covers_jumped_range():
    reg = registry_with([1, 2])
    reg.process_withdraw(1, 0)     # ends at dynasty 2
    reg.process_withdraw(2, 1)     # ends at dynasty 3
    # one block can complete two finalizations at once: dynasty jumps 1 -> 3
    # and both exits start their delay at that block
    reg.mark_end_dynasty_started(3, epoch=9, withdrawal_delay=10, previous=1)
    assert reg.get(1).unlock_epoch == 19
    assert reg.get(2).unlock_epoch == 19


def test_empty_registry_sets():
    reg = ValidatorRegistry()
    assert forward(reg, 0) == set()
    assert rear(reg, 0) == set()
