"""Command line entry point.

Subcommands:

    run     execute one scenario file, write the report
    check   validate a scenario file without running it
    corpus  run every scenario in the golden directory, compare digests
    audit   re-check accountable safety from a written report

Exit codes are a stable contract: 0 pass, 1 usage/config error, 2 invariant or
assertion failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .chain import Block
from .errors import ConfigInvalid, FfgError
from .sim import (Network, RunReport, config_from_dict, invariants_pass, run,
                  tx_from_dict, vote_from_dict)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

CORPUS_ENV = "FFG_CORPUS_DIR"


def _load_scenario(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return config_from_dict(data)


def _emit(report: RunReport, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    else:
        text = _summary(report)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _summary(report: RunReport) -> str:
    lines = [f"scenario: {report.config['name']}  seed: {report.config['seed']}",
             f"digest: {report.digest()}"]
    for name, client in sorted(report.clients.items()):
        lines.append(f"  {name}: head={client['head'][:12]} "
                     f"height={client['head_height']} "
                     f"finalized={len(client['finalized'])} "
                     f"justified={len(client['justified'])}")
    if report.slashings:
        for ev in report.slashings:
            lines.append(f"  slashed: validator {ev['validator']} "
                         f"(condition {ev['kind']}) at height {ev['height']}")
    flat = {k: v for k, v in report.invariants.items() if isinstance(v, bool)}
    lines.append("invariants: " + ", ".join(
        f"{k}={'ok' if v else 'VIOLATED'}" for k, v in sorted(flat.items())))
    if report.heuristics:
        lines.append("heuristics: " + "; ".join(report.heuristics))
    return "\n".join(lines)


def cmd_run(args) -> int:
    try:
        cfg = _load_scenario(args.scenario)
    except (OSError, json.JSONDecodeError, ConfigInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        from dataclasses import replace
        cfg = replace(cfg, seed=args.seed)
    report = run(cfg)
    try:
        _emit(report, args.out, args.format)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.strict and report.heuristics:
        print("strict: heuristic tie-breaks triggered", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK if invariants_pass(report.invariants) else EXIT_VIOLATION


def cmd_check(args) -> int:
    try:
        cfg = _load_scenario(args.scenario)
    except (OSError, json.JSONDecodeError, ConfigInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"ok: {cfg.name} ({len(cfg.validators)} validators, "
          f"{cfg.duration_epochs} epochs, scenario={cfg.scenario})")
    return EXIT_OK


def cmd_corpus(args) -> int:
    directory = args.dir or os.environ.get(CORPUS_ENV) or "scenarios"
    base = Path(directory)
    digest_file = base / "digests.json"
    if not base.is_dir() or not digest_file.exists():
        print(f"error: no corpus at {base}", file=sys.stderr)
        return EXIT_USAGE
    try:
        expected = json.loads(digest_file.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:    # ValueError: not UTF-8 or not JSON
        print(f"error: {digest_file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if type(expected) is not dict \
            or not all(type(digest) is str for digest in expected.values()):
        print(f"error: {digest_file} must map scenario file names to digests",
              file=sys.stderr)
        return EXIT_USAGE
    # every scenario file runs, so one left unpinned fails instead of
    # going unchecked
    names = set(expected).union(path.name for path in base.glob("*.json")
                                if path != digest_file)
    failures = 0
    for name in sorted(names):
        try:
            cfg = _load_scenario(str(base / name))
            digest = run(cfg).digest()
        except (OSError, json.JSONDecodeError, ConfigInvalid, FfgError) as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
            continue
        if digest == expected.get(name):
            print(f"ok   {name}  {digest[:16]}")
        elif name not in expected:
            print(f"FAIL {name}: digest {digest} is not pinned in {digest_file.name}")
            failures += 1
        else:
            print(f"FAIL {name}: digest {digest} != expected {expected[name]}")
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


def _rebuild_network(report_data: dict) -> Network:
    """The network of a written report's run, its tree and pool rebuilt;
    nothing is delivered, so it has no views."""
    net = Network(config_from_dict(report_data["config"]), ())
    keyring = net.keyring
    for item in sorted(report_data["blocks"], key=lambda b: b["height"]):
        if item["height"] == 0:
            continue
        txs = tuple(tx_from_dict(tx, keyring) for tx in item["txs"])
        net.tree.insert_block(Block(bytes.fromhex(item["id"]),
                                    bytes.fromhex(item["parent"]), item["height"],
                                    item["timestamp"], item["proposer"], txs))
    for vote in report_data["votes"]:
        net.pool.add(vote_from_dict(vote, keyring))
    return net


def cmd_audit(args) -> int:
    from .slashing import safety_audit
    try:
        report_data = json.loads(Path(args.report).read_text(encoding="utf-8"))
        net = _rebuild_network(report_data)
        a = bytes.fromhex(args.a)
        b = bytes.fromhex(args.b)
        result = safety_audit(net.cache, net.pool, a, b)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            ConfigInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if result.violators:
        for index, violation in result.violators:
            print(f"violator {index}: condition {violation.kind.value} "
                  f"({violation.vote_a.source_height},{violation.vote_a.target_height})"
                  f" vs ({violation.vote_b.source_height},{violation.vote_b.target_height})")
    else:
        print("no violators found: the conflicting finalizations used disjoint "
              "validator sets (dynamic-set or leak divergence)")
    print(f"violator weight: {result.violator_weight} / reference total "
          f"{result.reference_total} (need 3*w >= total)")
    return EXIT_OK if result.bound_holds else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffg", description="finality gadget scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("json", "summary"), default="summary")
    p_run.add_argument("--strict", action="store_true",
                       help="treat triggered heuristic tie-breaks as errors")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="validate a scenario file")
    p_check.add_argument("--scenario", required=True)
    p_check.set_defaults(func=cmd_check)

    p_corpus = sub.add_parser("corpus", help="run the golden scenario corpus")
    p_corpus.add_argument("--dir", default=None,
                          help=f"corpus directory (default ${CORPUS_ENV} or ./scenarios)")
    p_corpus.set_defaults(func=cmd_corpus)

    p_audit = sub.add_parser("audit", help="audit two finalized checkpoints")
    p_audit.add_argument("--report", required=True)
    p_audit.add_argument("a", help="first checkpoint id (hex)")
    p_audit.add_argument("b", help="second checkpoint id (hex)")
    p_audit.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FfgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
