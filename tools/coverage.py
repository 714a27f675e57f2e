"""List the library lines that no tier-1 test runs.

Runs tier-1 in this process under a `sys.settrace` line tracer limited to
`src/ffg`, which makes the run several times slower.  A line is executable
when a function of a `src/ffg` module has an instruction on it; module and
class bodies, which run on import, are not counted, nor is a `def` line
itself.

Each executable line that never ran is printed as `file:line text`.  The
lines allowed to stay unreached are listed in `tests/unreached.json`, each
with the reason no test can reach it; an entry's `text` occurs exactly once
in its file and ends on the listed line.  The script exits 1 when a line is
unreached and not listed, when a listed line ran (or is not executable),
or when tier-1 fails under the tracer.

    python tools/coverage.py

Standard library only, like `tools/mutants.py`, besides the pytest that
runs tier-1.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ffg"
LISTED = ROOT / "tests" / "unreached.json"
# the tier-1 items left out of the traced run, and why
DESELECTED = {
    "tests/test_acceptance.py::test_criterion_1_safety_fuzz":
        "its 10,000 fuzz runs take half a minute untraced, many times that "
        "traced",
    "tests/test_mutants.py":
        "it reads the mutant table and runs no library line",
    "tests/test_pytest_config.py":
        "it runs pytest in a subprocess, which the tracer does not see",
    "tests/test_work_budget.py::test_runs_leave_no_cyclic_garbage":
        "a tracer makes the interpreter create objects that the test counts "
        "as cyclic garbage; it passes in plain tier-1",
}


def executable_lines(path: Path) -> set[int]:
    """The lines of the module's functions that carry an instruction."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        co = stack.pop()
        stack.extend(c for c in co.co_consts if isinstance(c, CodeType))
        if co.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _start, _end, line in co.co_lines()
                         if line is not None and line != co.co_firstlineno)
    return lines


def listed_lines() -> dict[tuple[str, int], str]:
    """(file, line) -> reason, for each entry of `tests/unreached.json`."""
    out = {}
    for entry in json.loads(LISTED.read_text(encoding="utf-8")):
        text = (ROOT / entry["file"]).read_text(encoding="utf-8")
        if text.count(entry["text"]) != 1:
            raise SystemExit(f"{entry['file']}: an unreached entry's text "
                             "must occur exactly once")
        end = text.index(entry["text"]) + len(entry["text"])
        out[entry["file"], text.count("\n", 0, end) + 1] = entry["reason"]
    return out


def run_traced(args: list[str], hits: dict[str, set[int]]) -> int:
    """pytest.main(args) with every line run in a file of `hits` added to
    that file's set."""
    import pytest

    def line_tracer(lines):
        def local(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local
    tracers = {name: line_tracer(lines) for name, lines in hits.items()}

    def on_call(frame, _event, _arg):
        return tracers.get(frame.f_code.co_filename)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        return pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)


def main() -> int:
    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    hits: dict[str, set[int]] = {name: set() for name in files}
    listed = listed_lines()
    args = ["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
            "-c", str(ROOT / "pyproject.toml"), str(ROOT / "tests")]
    for item in DESELECTED:
        args += ["--deselect", item]
    os.chdir(ROOT)
    status = run_traced(args, hits)

    unreached = set()
    total = 0
    for name, path in files.items():
        rel = path.relative_to(ROOT).as_posix()
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - hits[name]):
            unreached.add((rel, line))
            print(f"{rel}:{line} {source[line - 1].strip()}")
    errors = [f"{rel}:{line} is unreached and not listed in {LISTED.name}"
              for rel, line in sorted(unreached - listed.keys())]
    errors += [f"{rel}:{line} is listed in {LISTED.name} but ran or is not "
               "executable" for rel, line in sorted(listed.keys() - unreached)]
    if status != 0:
        errors.append(f"tier-1 failed under the tracer (pytest exit {status})")
    print(f"{len(unreached)} of {total} executable lines unreached, "
          f"{len(listed)} listed")
    for item, reason in DESELECTED.items():
        print(f"deselected {item}: {reason}")
    for error in errors:
        print(f"error: {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
