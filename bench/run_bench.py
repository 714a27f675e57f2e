#!/usr/bin/env python3
"""Simulator benchmark: drives `ffg.sim.run` serially in one process.

    python3 bench/run_bench.py --workload fuzz --seed 1 --seconds 25 --trace 0

With `--trace 0` it times a pass of runs for `--seconds` seconds and reports
the end-to-end metrics; with `--trace 1` it runs a fixed set of runs untraced
and then traced, and reports per-layer counts and self times.  Every run's
output is checked.  The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.  `--workload all`
runs each workload in its own process, one after another.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from speed import SpeedProbe  # noqa: E402
from tracing import METRICS as LAYER_METRICS, Tracer  # noqa: E402
from workloads import (TAIL_PERCENTILE, TRACED_RUNS, WORKLOADS,  # noqa: E402
                       Workload, output_ok)

# Set iteration over bytes keys (Agent._source_for, ClientView._chain_justified)
# changes work counts with the hash seed, so every workload runs under this one.
HASH_SEED = "0"
SETUP_REPEATS = 5
END_TO_END_UNITS = {"runs_per_s": "runs/s", "run_ms_p50": "ms", "run_ms_tail": "ms",
                    "setup_s": "s", "max_rss_mb": "MB"}
LAYER_UNITS = {name: unit for name, unit, _better in LAYER_METRICS}


def pin_hash_seed() -> None:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "platform": platform.platform(),
            "hash_seed": os.environ.get("PYTHONHASHSEED")}


def setup(name: str, seed: int) -> Workload:
    """Import `ffg` from a clean module table and build every config."""
    for mod in [m for m in sys.modules if m == "ffg" or m.startswith("ffg.")]:
        del sys.modules[mod]
    importlib.import_module("ffg.sim")
    importlib.import_module("ffg.scenarios")
    return Workload(name, seed, ROOT)


def timed_setup(name: str, seed: int) -> tuple[Workload, float, float]:
    """Set up SETUP_REPEATS times; returns the workload and the median set-up
    time, scaled to the nominal machine and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        probe = SpeedProbe()
        probe.sample()
        started = perf_counter()
        workload = setup(name, seed)
        elapsed = perf_counter() - started
        probe.sample()
        scaled.append(elapsed * probe.factor())
        raw.append(elapsed)
    return workload, statistics.median(scaled), statistics.median(raw)


def run_one(cfg, expected: str | None) -> tuple[float, str | None, str | None]:
    """One timed `run(cfg)` plus `digest()`; returns (seconds, digest, error)."""
    run = sys.modules["ffg.sim"].run
    started = perf_counter()
    try:
        report = run(cfg)
        digest = report.digest()
    except Exception as exc:  # a run that raises is a failed run; keep going
        return perf_counter() - started, None, f"{cfg.name}: {exc!r}"
    elapsed = perf_counter() - started
    if not output_ok(report, expected, digest):
        return elapsed, digest, f"{cfg.name}: wrong output"
    return elapsed, digest, None


def percentile(sorted_values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def timed_pass(workload: Workload, seconds: float) -> dict:
    durations, errors = [], []
    order = workload.order()
    probe = SpeedProbe()
    probing = 0.0
    started = perf_counter()
    # the corpus stops on a pass boundary, so every scenario runs equally often
    while (perf_counter() - started < seconds
           or (len(durations) + len(errors)) % workload.pass_size):
        probing += probe.maybe_sample()
        cfg, expected = next(order)
        elapsed, _digest, error = run_one(cfg, expected)
        if error is None:
            durations.append(elapsed)
        else:
            errors.append(error)
    wall = perf_counter() - started - probing
    # the median over passes of each pass's median: on the corpus a plain
    # median falls between two scenarios' times and jumps with every burst
    size = workload.pass_size
    pass_medians = [statistics.median(durations[i:i + size])
                    for i in range(0, len(durations), size)]
    durations.sort()
    pct = TAIL_PERCENTILE[workload.name]
    tail, beyond = percentile(durations, pct) if durations else (0.0, 0)
    raw = {
        "runs_per_s": len(durations) / wall,
        "run_ms_p50": 1000 * statistics.median(pass_medians) if durations else 0.0,
        "run_ms_tail": 1000 * tail,
    }
    factor = probe.factor()
    metrics = {"runs_per_s": raw["runs_per_s"] / factor,
               "run_ms_p50": raw["run_ms_p50"] * factor,
               "run_ms_tail": raw["run_ms_tail"] * factor}
    info = {"runs": len(durations), "wall_s": wall,
            "tail_percentile": pct, "tail_beyond": beyond,
            "tail_supported": beyond >= 10, "speed_factor": factor,
            "reference_loop_ms": 1000 * statistics.mean(probe.samples), "raw": raw}
    return {"metrics": metrics, "info": info, "errors": errors,
            "attempted": len(durations) + len(errors)}


def traced_pass(workload: Workload) -> dict:
    """The same fixed runs untraced, then traced; the traced digests must
    equal the untraced ones."""
    items = list(islice(workload.order(), TRACED_RUNS[workload.name]))
    errors, reference = [], []
    untraced_probe, traced_probe = SpeedProbe(), SpeedProbe()
    probing = 0.0
    started = perf_counter()
    for cfg, expected in items:
        probing += untraced_probe.maybe_sample()
        reference.append(run_one(cfg, expected))
    untraced_wall = perf_counter() - started - probing
    tracer = Tracer()
    tracer.install()
    try:
        probing = 0.0
        started = perf_counter()
        for run_id, (cfg, expected) in enumerate(items):
            probing += traced_probe.maybe_sample()
            tracer.begin_run(run_id)
            _elapsed, digest, error = run_one(cfg, expected)
            tracer.end_run()
            if error is None and digest != reference[run_id][1]:
                error = f"{cfg.name}: traced digest differs from untraced"
            errors.append(error or reference[run_id][2])
        traced_wall = perf_counter() - started - probing
    finally:
        tracer.uninstall()
    errors = [e for e in errors if e]
    factor = traced_probe.factor()
    overhead = (traced_wall * factor) / (untraced_wall * untraced_probe.factor())
    metrics = {name: value * factor if LAYER_UNITS[name] == "s" else value
               for name, value in tracer.metrics(overhead).items()}
    shares = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])
    info = {"runs": len(items), "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall, "overhead": overhead,
            "speed_factor": factor, "bindings": tracer.bindings,
            "self_time_share": {k: v / traced_wall for k, v in shares[:8]}}
    return {"metrics": metrics, "info": info, "errors": errors,
            "attempted": len(items)}


def run_workload(args) -> int:
    if not (ROOT / "src" / "ffg").is_dir() or not (ROOT / "scenarios").is_dir():
        print(f"error: no ffg checkout at {ROOT} (need src/ffg and scenarios/)",
              file=sys.stderr)
        return 2
    workload, setup_s, raw_setup_s = timed_setup(args.workload, args.seed)
    if args.trace:
        result = traced_pass(workload)
        units = LAYER_UNITS
    else:
        result = timed_pass(workload, args.seconds)
        result["metrics"]["setup_s"] = setup_s
        result["metrics"]["max_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
    attempted, failed = result["attempted"], len(result["errors"])
    info = dict(environment(args), setup_s=setup_s, raw_setup_s=raw_setup_s,
                fail_ratio=failed / attempted, **result["info"])
    print("# env " + json.dumps(info, sort_keys=True))
    for error in result["errors"][:5]:
        print(f"# FAIL {error}")
    print(f"# {args.workload}: fail_ratio {failed / attempted} ratio "
          f"({failed} of {attempted} runs)")
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"# {args.workload}: {name} {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, serially; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    pin_hash_seed()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
