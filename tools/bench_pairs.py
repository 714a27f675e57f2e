"""Alternating benchmark pairs: a parent checkout against a change checkout.

    python tools/bench_pairs.py PARENT CHANGE --workload wide_set --seed 3 \\
        --pairs 10 --seconds 8

Each pair runs `bench/run_bench.py --trace 0` once in each checkout, each in
its own process; the parent goes first in even pairs and the change in odd
ones, so a drift in machine speed favours neither side.  For each end-to-end
metric of the change's `BENCHMARK.json` it prints both sides' lower
quartile, median and upper quartile, the pairs the change won, and the
parent's interquartile range (IQR).  A metric's gain holds under the 9-of-10
rule: the change is better in at least nine of every ten pairs, and its
median is better than the parent's by more than the parent's IQR.

The runs write no bytecode, so neither checkout is edited.  It exits 1 when
a run fails or reports incorrect output.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def better(a: float, b: float, direction: str) -> bool:
    """Whether `a` is strictly better than `b` for a metric whose `better`
    is "higher" or "lower"."""
    return a > b if direction == "higher" else a < b


def compare(parent: list[float], change: list[float], direction: str) -> dict:
    """The pairwise verdict on one metric; `parent[i]` and `change[i]` are
    pair i's values."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    p = quartiles(parent)
    c = quartiles(change)
    wins = sum(better(b, a, direction) for a, b in zip(parent, change))
    gain = c[1] - p[1] if direction == "higher" else p[1] - c[1]
    iqr = p[2] - p[0]
    needed = math.ceil(0.9 * len(parent))
    return {"parent": p, "change": c, "wins": wins, "pairs": len(parent),
            "gain": gain, "gain_ratio": gain / p[1] if p[1] else math.inf,
            "parent_iqr": iqr, "parent_iqr_ratio": iqr / p[1] if p[1] else 0.0,
            "holds": wins >= needed and gain > iqr}


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `run_bench.py` pass in `checkout`; its metric values by name."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(checkout / "bench" / "run_bench.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run_bench exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {result['failed']} of "
                           f"{result['attempted']} runs failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def report(name: str, unit: str, verdict: dict) -> str:
    p, c = verdict["parent"], verdict["change"]
    return (f"{name} ({unit}): parent {p[0]:.4g} / {p[1]:.4g} / {p[2]:.4g}, "
            f"change {c[0]:.4g} / {c[1]:.4g} / {c[2]:.4g}; "
            f"change won {verdict['wins']} of {verdict['pairs']}; "
            f"median gain {verdict['gain_ratio']:+.1%} against parent IQR "
            f"{verdict['parent_iqr_ratio']:.1%}: "
            f"{'holds' if verdict['holds'] else 'does not hold'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent checkout")
    parser.add_argument("change", type=Path, help="the change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "bench" / "run_bench.py").is_file():
            parser.error(f"{side}: no bench/run_bench.py under {path}")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(
        encoding="utf-8"))["end_to_end"]
    values: dict[str, dict[str, list[float]]] = {
        side: {m["name"]: [] for m in spec} for side in SIDES}
    for i in range(args.pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            try:
                metrics = run_bench(checkouts[side], args.workload, args.seed,
                                    args.seconds)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            for m in spec:
                values[side][m["name"]].append(metrics[m["name"]])
        print(f"# pair {i + 1}: " + ", ".join(
            f"{m['name']} {values['parent'][m['name']][-1]:.4g} -> "
            f"{values['change'][m['name']][-1]:.4g}" for m in spec), flush=True)
    print(f"# {args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s")
    for m in spec:
        verdict = compare(values["parent"][m["name"]],
                          values["change"][m["name"]], m["better"])
        print(report(m["name"], m["unit"], verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
