#!/usr/bin/env python3
"""Self-tests of the benchmark itself (about a minute on two cores).

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

They check that the fuzz workload is criterion 1's distribution, that report
digests do not depend on the hash seed, that traced runs produce the same
digests as untraced ones with every wrapper counting, and that
BENCHMARK.json names the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run_bench  # noqa: E402  (puts src/ on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402

# A few runs of each workload: enough to enter every layer, quick to run.
SAMPLE = {"fuzz": 8, "long_horizon": 1, "wide_set": 1, "corpus": 10}

# Functions that other modules import by name; each needs every binding patched.
IMPORTED_BY_NAME = ("slashing.find_new_violations", "leak.apply_epoch_leak",
                    "finality.compute_justified", "finality.tally", "slashing.scan",
                    "sim.sweep_invariants", "sim.build_report")


def _sample(name: str, seed: int = 0) -> list:
    workload = workloads.Workload(name, seed, ROOT)
    return list(islice(workload.order(), SAMPLE[name]))


def test_fuzz_workload_matches_criterion_1():
    sys.path.insert(0, str(ROOT / "tests"))
    from test_acceptance import fuzz_config
    from ffg.sim import config_to_dict
    for seed in (0, 1, 2, 17, 4242, 9999):
        assert config_to_dict(workloads.fuzz_config(seed)) == \
            config_to_dict(fuzz_config(seed)), seed


def test_digests_do_not_depend_on_hash_seed():
    code = (
        "import sys; from itertools import islice; from pathlib import Path\n"
        f"sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]\n"
        "import workloads\n"
        "for name in ('fuzz', 'long_horizon', 'wide_set'):\n"
        "    wl = workloads.Workload(name, 3, Path('.'))\n"
        "    for cfg, _ in islice(wl.order(), 4 if name == 'fuzz' else 1):\n"
        "        from ffg.sim import run\n"
        "        print(cfg.name, run(cfg).digest())\n")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, check=True,
                              timeout=300)
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def test_traced_runs_match_untraced_and_every_layer_counts():
    from ffg.sim import run
    seen_nonzero: set[str] = set()
    for name in workloads.WORKLOADS:
        items = _sample(name)
        untraced = [run(cfg).digest() for cfg, _ in items]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = []
            for run_id, (cfg, _) in enumerate(items):
                tracer.begin_run(run_id)
                traced.append(run(cfg).digest())
                tracer.end_run()
        finally:
            tracer.uninstall()
        assert traced == untraced, name
        for layer in IMPORTED_BY_NAME:
            assert tracer.bindings[layer] >= 2, layer
        seen_nonzero |= {k for k, v in tracer.metrics(1.0).items() if v}
    missing = [m for m, _u, _b in tracing.METRICS if m not in seen_nonzero]
    assert not missing, missing


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run_bench.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.METRICS)


def main() -> int:
    failed = 0
    for name, test in sorted(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            test()
        except Exception as exc:  # report every test, then fail
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
