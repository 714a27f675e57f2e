"""The statistics of `tools/bench_pairs.py`, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_higher_is_better_gain_holds():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]
    change = [v + 1.0 for v in parent]
    verdict = bench_pairs.compare(parent, change, "higher")
    assert verdict["parent"] == pytest.approx((9.925, 10.0, 10.075))
    assert verdict["change"][1] == 11.0
    assert verdict["wins"] == 10 and verdict["pairs"] == 10
    assert verdict["gain"] == pytest.approx(1.0)
    assert verdict["gain_ratio"] == pytest.approx(0.1)
    assert verdict["parent_iqr"] == pytest.approx(0.15)
    assert verdict["holds"]


def test_nine_wins_of_ten_suffice_and_eight_do_not():
    parent = [10.0] * 10
    nine = [11.0] * 9 + [9.0]
    eight = [11.0] * 8 + [9.0, 9.0]
    assert bench_pairs.compare(parent, nine, "higher")["holds"]
    verdict = bench_pairs.compare(parent, eight, "higher")
    assert verdict["wins"] == 8 and not verdict["holds"]


def test_a_tie_is_no_win():
    verdict = bench_pairs.compare([5.0, 5.0], [5.0, 6.0], "higher")
    assert verdict["wins"] == 1


def test_a_gain_within_the_parents_iqr_does_not_hold():
    # every pair won, but the parent spreads wider than the gain
    parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    change = [v + 0.5 for v in parent]
    verdict = bench_pairs.compare(parent, change, "higher")
    assert verdict["wins"] == 10
    assert verdict["gain"] == pytest.approx(0.5)
    assert verdict["parent_iqr"] == pytest.approx(1.75)
    assert not verdict["holds"]


def test_lower_is_better_counts_falls_as_gains():
    parent = [20.0, 21.0, 19.0, 20.0]
    change = [15.0, 16.0, 14.0, 21.0]
    verdict = bench_pairs.compare(parent, change, "lower")
    assert verdict["wins"] == 3
    assert verdict["change"] == pytest.approx((14.75, 15.5, 17.25))
    assert verdict["gain"] == pytest.approx(4.5)
    assert verdict["gain_ratio"] == pytest.approx(0.225)
    # 3 of 4 is under nine in ten
    assert not verdict["holds"]


def test_pairs_must_match():
    with pytest.raises(ValueError):
        bench_pairs.compare([1.0, 2.0], [1.0], "higher")
    with pytest.raises(ValueError):
        bench_pairs.compare([], [], "higher")
