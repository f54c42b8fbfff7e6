"""``tools/count_instructions.py``: a repeatable count of one benchmark op's work."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_instructions.py"


def count(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=600
    )


@pytest.mark.skipif(sys.version_info < (3, 12), reason="sys.monitoring needs Python 3.12")
def test_two_runs_count_the_same_instructions():
    first, second = (count("backtest-hourly", "0", "--size", "tiny") for _ in range(2))
    assert first.returncode == 0, first.stderr
    assert int(first.stdout) > 0
    assert second.stdout == first.stdout


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="counts on Python 3.12 and later")
def test_older_pythons_are_refused():
    out = count("backtest-hourly", "0")
    assert out.returncode == 2
    assert "needs Python 3.12 or later" in out.stderr
    assert out.stdout == ""
