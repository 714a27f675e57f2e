"""The mutant table follows the code: every row still applies.

`tools/mutants.py` runs the table (minutes, not seconds); this only checks
that each row's old text occurs exactly once in its file and that the row
states the evidence its expected outcome needs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROWS = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))
SPEC = importlib.util.spec_from_file_location("mutants",
                                              ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)
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


def test_rows_are_selected_by_id_and_by_file_in_table_order():
    rows = [{"id": "a", "file": "x.py"}, {"id": "b", "file": "y.py"},
            {"id": "c", "file": "x.py"}, {"id": "d", "file": "z.py"}]
    assert mutants.select(rows, [], []) == rows
    assert [row["id"] for row in mutants.select(rows, [], ["x.py"])] == ["a", "c"]
    assert [row["id"] for row in mutants.select(rows, ["d", "b"], ["x.py"])] == [
        "a", "b", "c", "d"]
    with pytest.raises(SystemExit, match="no rows for: w.py, zz.py"):
        mutants.select(rows, [], ["zz.py", "x.py", "w.py"])
    with pytest.raises(SystemExit, match="no such rows"):
        mutants.select(rows, ["e"], [])
