"""The repository's pytest settings let a failing test report as a failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 5))
def test_fails(x):
    assert x < 5
'''


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # `filterwarnings = ["error"]` must not turn a warning raised while the
    # Hypothesis plugin reports the failure into an internal error
    (tmp_path / "test_fails.py").write_text(FAILING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "short test summary" in out and "INTERNALERROR" not in out, out
