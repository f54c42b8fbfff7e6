"""The package runs on the standard library alone."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter: the modules it holds before the imports are
# the interpreter's own start-up, and every one the imports add is listed.
PROBE = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
before = set(sys.modules)
import stakeloop, stakeloop.cli, stakeloop.fetch
print(json.dumps([stakeloop.__file__, sorted(set(sys.modules) - before)]))
"""


def test_package_imports_only_the_standard_library():
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, timeout=60, check=True
    )
    path, loaded = json.loads(done.stdout)
    assert Path(path).resolve().is_relative_to(SRC)
    assert "stakeloop.cli" in loaded
    outside = [
        name
        for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names
        and name.partition(".")[0] != "stakeloop"
    ]
    assert outside == []
