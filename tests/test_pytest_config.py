import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ALWAYS_FAILS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 3
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    """Under the repo's warning filters, a failing ``@given`` test prints its
    falsifying example instead of crashing pytest's reporter."""
    (tmp_path / "test_always_fails.py").write_text(ALWAYS_FAILS, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_always_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
