"""The test and line-count tooling: pytest's warning filters let a failing
hypothesis test fail alone, and tests/src_lines.py counts a delta."""

import subprocess
import sys
from pathlib import Path

import src_lines

ROOT = Path(__file__).resolve().parent.parent

_REPRO = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    # hypothesis reports a failing example through code that raises a
    # DeprecationWarning, which warnings-as-errors must not make fatal
    (tmp_path / "test_repro.py").write_text(_REPRO)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(tmp_path)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout[-2000:]
    assert "INTERNALERROR" not in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout


def test_src_lines_delta_of_two_texts():
    before = {"a": '"""Doc."""\n\nx = 1\n', "b": "y = 2  # kept\n"}
    after = {"a": '"""Doc,\nnow longer."""\n\n# a comment\nx = 1\n\n\nz = 3\n', "c": "w = 4\n"}
    assert src_lines.count(after["a"]) == {"total": 8, "code": 2, "docstring": 2, "comment": 1}
    assert src_lines.tally(before)["src/randfan"] == {"total": 4, "code": 2, "docstring": 1, "comment": 0}
    assert src_lines.delta(before, after) == {"total": 5, "code": 1, "docstring": 1, "comment": 1}
    assert src_lines.delta(after, after) == dict.fromkeys(src_lines.KINDS, 0)
