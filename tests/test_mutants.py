"""The mutant table follows the code: every row still applies.

`tools/mutants.py` runs the table (minutes, not seconds); this only checks
that each row's old text occurs exactly once in its file and that the row
states the evidence its expected outcome needs.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROWS = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))
EVIDENCE = {"killed": "test", "equivalent": "reason", "survivor": "owner"}


def test_row_ids_are_unique():
    ids = [row["id"] for row in ROWS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("row", ROWS, ids=[row["id"] for row in ROWS])
def test_each_row_applies_exactly_once(row):
    text = (ROOT / row["file"]).read_text(encoding="utf-8")
    assert text.count(row["old"]) == 1
    assert row["new"] != row["old"] and row["rule"]
    assert row[EVIDENCE[row["expect"]]]
