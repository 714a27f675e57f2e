"""The benchmark's four workloads: how each builds its configs from a seed,
the order a timed pass runs them in, and how each run's output is checked.

Every function imports `ffg` when it is called, not when this module is
imported, so that set-up (importing `ffg` and building the configs) can be
timed from a clean import several times in one process.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("fuzz", "long_horizon", "wide_set", "corpus")

# Configs built per workload and seed; a timed pass cycles through them.
POOL_SIZE = {"fuzz": 2000, "long_horizon": 200, "wide_set": 200}

# The tail percentile each workload reports.  Each leaves at least ten runs
# beyond it in a 25-second pass; fuzz's p98 would too, but it rests on the few
# slowest configs and moved by 29% between runs in a test, so fuzz uses p90.
TAIL_PERCENTILE = {"fuzz": 90, "long_horizon": 75, "wide_set": 75, "corpus": 95}

# Runs in one traced pass; fixed, so that work counts repeat exactly per seed.
TRACED_RUNS = {"fuzz": 150, "long_horizon": 10, "wide_set": 10, "corpus": 30}


def fuzz_config(seed: int):
    """The criterion-1 distribution (`fuzz_config` in tests/test_acceptance.py),
    copied so the benchmark does not import the test suite; `selftest.py`
    checks that the two stay equal."""
    from ffg.config import ProtocolConfig
    from ffg.leak import LeakConfig
    from ffg.sim import (Behavior, DOUBLE_VOTER, HONEST, OFFLINE, SURROUND_VOTER,
                         ScenarioConfig, ValidatorSpec)
    rng = random.Random(seed)
    n = rng.randint(7, 20)
    weights = [rng.choice([60, 80, 100, 120, 140]) for _ in range(n)]
    total = sum(weights)
    idx = list(range(n))
    rng.shuffle(idx)
    adversaries, aw = [], 0
    for i in idx:
        if 3 * (aw + weights[i]) < total and len(adversaries) < 4:
            adversaries.append(i)
            aw += weights[i]
    behaviors = {}
    for i in adversaries:
        kind = rng.choice([DOUBLE_VOTER, SURROUND_VOTER, OFFLINE])
        from_epoch = 3 if kind == SURROUND_VOTER else rng.randint(1, 3)
        behaviors[i] = Behavior(kind, from_epoch)
    proto = ProtocolConfig(spacing=5, delta=rng.randint(0, 2),
                           withdrawal_delay=50,
                           leak=LeakConfig(rate=Fraction(1, 10)))
    validators = tuple(ValidatorSpec(i, weights[i],
                                     behaviors.get(i, Behavior(HONEST)))
                       for i in range(n))
    return ScenarioConfig(
        name=f"fuzz{seed}", seed=seed, protocol=proto, validators=validators,
        duration_epochs=rng.randint(4, 5), observers=1,
        proposer_fork_rate=rng.choice([Fraction(0), Fraction(1, 6), Fraction(1, 4)]))


def long_horizon_config(seed: int):
    """A deep tree with many leaves: 20 equal validators, three of them
    double voters, a fork in one block of five, 12 epochs.  The evidence the
    double voters leave makes every head() call walk every leaf's chain."""
    from ffg.config import ProtocolConfig
    from ffg.leak import LeakConfig
    from ffg.sim import (Behavior, DOUBLE_VOTER, HONEST, ScenarioConfig,
                         ValidatorSpec)
    rng = random.Random(seed)
    n = 20
    bad = rng.sample(range(n), 3)
    behaviors = {i: Behavior(DOUBLE_VOTER, rng.randint(1, 3)) for i in bad}
    proto = ProtocolConfig(spacing=5, delta=2, withdrawal_delay=50,
                           leak=LeakConfig(rate=Fraction(1, 10)))
    validators = tuple(ValidatorSpec(i, 100, behaviors.get(i, Behavior(HONEST)))
                       for i in range(n))
    return ScenarioConfig(
        name=f"long_horizon{seed}", seed=seed, protocol=proto,
        validators=validators, duration_epochs=12, observers=2,
        proposer_fork_rate=Fraction(1, 5))


def wide_set_config(seed: int):
    """Many validators on one chain: 48 equal validators, 8% of them double
    or surround voters from epoch 3, no forks, 6 epochs.  Every vote reaches
    every view, so the vote path dominates."""
    from ffg.config import ProtocolConfig
    from ffg.leak import LeakConfig
    from ffg.sim import (Behavior, DOUBLE_VOTER, HONEST, SURROUND_VOTER,
                         ScenarioConfig, ValidatorSpec)
    rng = random.Random(seed)
    n = 48
    bad = rng.sample(range(n), n * 8 // 100)
    behaviors = {i: Behavior(rng.choice([DOUBLE_VOTER, SURROUND_VOTER]), 3)
                 for i in bad}
    proto = ProtocolConfig(spacing=5, delta=2, withdrawal_delay=50,
                           leak=LeakConfig(rate=Fraction(1, 10)))
    validators = tuple(ValidatorSpec(i, 100, behaviors.get(i, Behavior(HONEST)))
                       for i in range(n))
    return ScenarioConfig(
        name=f"wide_set{seed}", seed=seed, protocol=proto,
        validators=validators, duration_epochs=6, observers=2)


GENERATORS = {"fuzz": fuzz_config, "long_horizon": long_horizon_config,
              "wide_set": wide_set_config}


class Workload:
    """The configs of one workload and seed, with the expected digest of each
    (None where the check is `invariants_pass` instead)."""

    def __init__(self, name: str, seed: int, root: Path):
        self.name = name
        self.seed = seed
        if name == "corpus":
            self.items = load_corpus(root / "scenarios")
            self.pass_size = len(self.items)
        else:
            # consecutive config seeds, one disjoint block per workload seed
            size = POOL_SIZE[name]
            make = GENERATORS[name]
            self.items = [(make(s), None)
                          for s in range(seed * size, (seed + 1) * size)]
            self.pass_size = 1

    def order(self):
        """Endless run order: the corpus in a fresh seeded shuffle per pass,
        the generated workloads in config order, cycling."""
        rng = random.Random(self.seed)
        while True:
            items = list(self.items)
            if self.name == "corpus":
                rng.shuffle(items)
            yield from items


def load_corpus(directory: Path) -> list:
    """Every scenario named in digests.json, with its pinned digest."""
    from ffg.sim import config_from_dict
    expected = json.loads((directory / "digests.json").read_text(encoding="utf-8"))
    items = []
    for name in sorted(expected):
        data = json.loads((directory / name).read_text(encoding="utf-8"))
        items.append((config_from_dict(data), expected[name]))
    return items


def output_ok(report, expected_digest: str | None, digest: str) -> bool:
    """A corpus run must reproduce its pinned digest (the two by-design
    failing entries count as correct when they do); a generated run must
    pass every invariant."""
    if expected_digest is not None:
        return digest == expected_digest
    return report.passed
