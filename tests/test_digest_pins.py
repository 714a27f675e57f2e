"""Report digests of generated configs, pinned.

The golden corpus (`scenarios/`) has neither a wide validator set nor a long
horizon, so these pins cover the configs that the fuzz tier and the benchmark
generate: fuzz seeds 0-39 (criterion 1's distribution), two configs each
of the benchmark's `long_horizon` and `wide_set` workloads, and the
`long_horizon` shape run at 24 and 40 epochs, where the evidence the double
voters leave grows quadratically.  A change that keeps behaviour keeps every
digest.  A change that alters the report schema on purpose re-pins, as the
corpus does, with

    PYTHONPATH=src python tests/test_digest_pins.py --write
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

from ffg.sim import run
from test_acceptance import fuzz_config

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).with_name("generated_digests.json")


def generated_configs():
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    from workloads import long_horizon_config, wide_set_config
    configs = [fuzz_config(seed) for seed in range(40)]
    configs += [long_horizon_config(seed) for seed in (0, 1)]
    configs += [replace(long_horizon_config(seed), duration_epochs=epochs,
                        name=f"long_horizon{seed}_{epochs}epochs")
                for seed, epochs in ((2, 24), (3, 40))]
    configs += [wide_set_config(seed) for seed in (0, 1)]
    return configs


def current_digests() -> dict[str, str]:
    return {cfg.name: run(cfg).digest() for cfg in generated_configs()}


def test_generated_config_digests_match_pins():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    assert len(pinned) == 46
    assert current_digests() == pinned


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_digest_pins.py --write")
    PINS.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
