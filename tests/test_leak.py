from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ffg.errors import ConfigInvalid, Unreachable
from ffg.leak import LeakConfig, apply_epoch_leak, epochs_to_supermajority
from ffg.sim import config_from_dict
from ffg.validators import ValidatorRegistry


def registry(deposits):
    reg = ValidatorRegistry()
    for i, d in enumerate(deposits):
        reg.add_genesis_validator(i, d)
    return reg


CFG = LeakConfig(rate=Fraction(1, 10))


def test_unknown_disposition_rejected():
    # leaked deposits are only ever burned, so no disposition can be set:
    # the key is unknown, whatever its value, burn included
    for disposition in ("return-after-delay", "bogus", "burn"):
        with pytest.raises(TypeError):
            LeakConfig(disposition=disposition)
        data = {"validators": [{"index": 0, "deposit": 100}],
                "protocol": {"leak_disposition": disposition}}
        with pytest.raises(ConfigInvalid, match="leak_disposition"):
            config_from_dict(data)
    del data["protocol"]["leak_disposition"]
    assert config_from_dict(data).protocol.leak == LeakConfig()


@pytest.mark.parametrize("rate", ["0/1", "1/1", "-1/10", "3/2"])
def test_a_leak_rate_outside_zero_one_is_rejected(rate):
    with pytest.raises(ValueError, match="leak rate"):
        LeakConfig(rate=Fraction(rate))
    data = {"validators": [{"index": 0, "deposit": 100}],
            "protocol": {"leak_rate": rate}}
    with pytest.raises(ConfigInvalid, match="leak rate"):
        config_from_dict(data)


def test_nonvoter_loses_tenth():
    reg = registry([1000])
    apply_epoch_leak(reg, voted=set(), current_dynasty=0, cfg=CFG)
    assert reg.get(0).deposit == 900


def test_voter_untouched():
    reg = registry([1000])
    apply_epoch_leak(reg, voted={0}, current_dynasty=0, cfg=CFG)
    assert reg.get(0).deposit == 1000


def test_floor_rounding_per_epoch():
    reg = registry([81])
    apply_epoch_leak(reg, set(), 0, CFG)
    assert reg.get(0).deposit == 73          # 81 - floor(8.1)
    reg2 = registry([5])
    for _ in range(50):
        apply_epoch_leak(reg2, set(), 0, CFG)
    assert reg2.get(0).deposit >= 1          # floor keeps small stakes alive


def test_inactive_members_not_leaked():
    reg = registry([100])
    reg.process_deposit(7, 500, current_dynasty=0)
    apply_epoch_leak(reg, set(), current_dynasty=0, cfg=CFG)   # 7 starts at 2
    assert reg.get(7).deposit == 500


def test_total_never_increases():
    reg = registry([100, 250, 999])
    before = sum(r.deposit for r in reg.records.values())
    for _ in range(10):
        apply_epoch_leak(reg, {1}, 0, CFG)
        now = sum(r.deposit for r in reg.records.values())
        assert now <= before
        before = now


def test_oracle_trivial_cases():
    assert epochs_to_supermajority(100, 0, CFG) == 0
    assert epochs_to_supermajority(800, 300, CFG) == 0      # already over 2/3


def test_oracle_sixty_forty():
    # 0.9^3 = 0.729 <= 0.75: three drains make 600 a supermajority over 400
    assert epochs_to_supermajority(600, 400, CFG) == 3


def test_oracle_fifty_fifty():
    # 0.9^7 ~= 0.478 <= 0.5
    assert epochs_to_supermajority(500, 500, CFG) == 7


def test_oracle_matches_iterated_registry():
    # the registry route and the aggregate recurrence agree for a single
    # offline validator
    reg = registry([600, 400])
    k = 0
    while True:
        snapshot = [reg.get(0).deposit, reg.get(1).deposit]
        if 3 * snapshot[0] >= 2 * sum(snapshot):
            break
        apply_epoch_leak(reg, voted={0}, current_dynasty=0, cfg=CFG)
        k += 1
    assert k == epochs_to_supermajority(600, 400, CFG)


def test_oracle_unreachable():
    with pytest.raises(Unreachable):
        epochs_to_supermajority(0, 500, CFG)


@given(st.integers(1, 10**6), st.integers(0, 10**6),
       st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)))
def test_oracle_terminates_and_is_minimal(online, offline, rate):
    cfg = LeakConfig(rate=rate)
    try:
        k = epochs_to_supermajority(online, offline, cfg)
    except Unreachable:
        # floor rounding stalled with the offline side still too heavy
        value = offline
        while 3 * online < 2 * (online + value):
            cut = (value * rate.numerator) // rate.denominator
            if cut == 0:
                break
            value -= cut
        assert 3 * online < 2 * (online + value)
        return
    # after k drains the check passes; after k-1 it does not
    value = offline
    for _ in range(k):
        value -= (value * rate.numerator) // rate.denominator
    assert 3 * online >= 2 * (online + value)
    if k > 0:
        value = offline
        for _ in range(k - 1):
            value -= (value * rate.numerator) // rate.denominator
        assert 3 * online < 2 * (online + value)
