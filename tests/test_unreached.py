"""The unreached-line list follows the code: every entry still applies.

`tools/coverage.py` runs tier-1 under a line tracer (minutes, not seconds);
this only checks that each entry's text occurs exactly once in its library
file and that the entry says why no test can reach its line.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENTRIES = json.loads(
    (ROOT / "tests" / "unreached.json").read_text(encoding="utf-8"))


def entry_id(entry):
    return f"{entry['file']}:{entry['text'].splitlines()[-1].strip()}"


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry_id(e) for e in ENTRIES])
def test_each_entry_names_one_library_line_and_its_reason(entry):
    assert entry["file"].startswith("src/ffg/")
    text = (ROOT / entry["file"]).read_text(encoding="utf-8")
    assert text.count(entry["text"]) == 1
    assert entry["text"].strip() and entry["reason"].strip()
