"""The test configuration itself: warnings are errors, and a failing property
test is still reported as a failure, not as an internal error that stops the run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INNER = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
'''


def test_failing_property_test_is_reported_and_later_tests_run(tmp_path):
    (tmp_path / "test_inner.py").write_text(INNER)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_inner.py"]
    result = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert "FAILED test_inner.py::test_fails" in out and "1 failed, 1 passed" in out
