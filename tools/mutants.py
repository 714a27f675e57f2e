"""Run the committed mutant table against copies of the tree.

Each row of `tests/mutants.json` names a file, an exact old text that occurs
once in it, the new text that replaces it, the rule the change breaks and
the outcome the row expects:

* `killed`: tier-1 fails, and `test` names the first test that fails;
* `equivalent`: tier-1 passes, and `reason` says why the change cannot
  alter behaviour;
* `survivor`: tier-1 passes, and `owner` names the ROADMAP item whose work
  makes a test kill it.

For each row the script copies the tree to a temporary directory, applies
the one replacement there, and runs tier-1 without criterion 1 (the 10,000
fuzz runs) and without `tests/test_mutants.py` under `pytest -x`.  It never
edits the tree it runs from.

    python tools/mutants.py                        # every row
    python tools/mutants.py ID [ID ...]            # the named rows
    python tools/mutants.py --file src/ffg/leak.py # every row of a file

`--file` may be repeated, and with IDs runs the rows either names.  It
prints one line per row and exits 1 when any row's outcome differs from
the one the table expects, or when a named file has no row.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "mutants.json"
CRITERION_1 = "tests/test_acceptance.py::test_criterion_1_safety_fuzz"
# the table's own check, which every mutant fails by removing its old text
TABLE_CHECK = "tests/test_mutants.py"
# seconds per row; a row that runs longer counts as killed
TIMEOUT = 1800
COPIED = ("src", "tests", "scenarios", "bench", "tools", "pyproject.toml",
          "BENCHMARK.json")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
# a verbose run prints each test id with its outcome, also when a plugin
# error cuts the run short before its summary
FAILED = re.compile(r"^(\S+::.+?) (?:FAILED|ERROR)\b", re.M)


def mutate(tree: Path, row: dict) -> None:
    """Apply the row's replacement to its file under `tree`."""
    path = tree / row["file"]
    text = path.read_text(encoding="utf-8")
    if text.count(row["old"]) != 1:
        raise SystemExit(f"{row['id']}: the old text must occur exactly once "
                         f"in {row['file']}")
    path.write_text(text.replace(row["old"], row["new"]), encoding="utf-8")


def run_row(row: dict) -> tuple[str, str | None]:
    """("killed", first failing test) or ("survivor", None)."""
    with tempfile.TemporaryDirectory(prefix="ffg-mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name, ignore=IGNORED)
            else:
                shutil.copy2(ROOT / name, tree / name)
        mutate(tree, row)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
        cmd = [sys.executable, "-m", "pytest", "-x", "-v", "-p", "no:cacheprovider",
               "--deselect", CRITERION_1, "--ignore", TABLE_CHECK]
        try:
            proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "killed", f"timeout after {TIMEOUT} s"
    if proc.returncode == 0:
        return "survivor", None
    found = FAILED.search(proc.stdout)
    return "killed", found.group(1) if found else f"pytest exit {proc.returncode}"


def expected(row: dict) -> tuple[str, str | None]:
    if row["expect"] == "killed":
        return "killed", row["test"]
    return "survivor", None


def select(rows: list[dict], ids: list[str], files: list[str]) -> list[dict]:
    """The rows named by id or by file, in table order; every row when
    neither is given.  SystemExit names the ids and files without a row."""
    unknown = set(ids) - {row["id"] for row in rows}
    if unknown:
        raise SystemExit(f"no such rows: {sorted(unknown)}")
    rowless = sorted(set(files) - {row["file"] for row in rows})
    if rowless:
        raise SystemExit(f"no rows for: {', '.join(rowless)}")
    if not ids and not files:
        return rows
    return [row for row in rows if row["id"] in ids or row["file"] in files]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", help="rows to run (default: all)")
    parser.add_argument("--file", action="append", default=[],
                        help="also run every row of this file (repeatable)")
    args = parser.parse_args(argv)
    rows = select(json.loads(TABLE.read_text(encoding="utf-8")),
                  args.ids, args.file)
    mismatches = 0
    for row in rows:
        start = time.perf_counter()
        outcome = run_row(row)
        ok = outcome == expected(row)
        mismatches += not ok
        print(f"{'ok  ' if ok else 'DIFF'} {row['id']}: {outcome[0]}"
              f"{' by ' + outcome[1] if outcome[1] else ''} "
              f"(expected {row['expect']}, {time.perf_counter() - start:.0f} s)",
              flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
