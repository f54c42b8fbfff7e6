"""Count the bytecode instructions of one benchmark op.

Builds a workload's inputs with the builders of ``bench/workloads.py``, runs
one warm-up op of ``stakeloop.cli.main``, then counts the ``sys.monitoring``
(PEP 669) ``INSTRUCTION`` events over one more op and prints the count. The
count does not depend on the machine's speed or load, so it compares two
versions of the program where a timing cannot. It needs Python 3.12 or
later::

    python3.12 tools/count_instructions.py backtest-hourly 0 [--size full|tiny]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import SIZES, WORKLOADS  # noqa: E402


def _op(argv: list[str]) -> None:
    """One ``stakeloop.cli.main`` call on a fresh report directory; its
    output is dropped and a failed op raises."""
    import stakeloop.cli

    shutil.rmtree("report", ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = stakeloop.cli.main(list(argv))
    if code:
        raise SystemExit(f"the op exited {code}: {err.getvalue().strip()}")


def count(workload: str, seed: int, size: str) -> int:
    """The instructions one op of ``workload`` executes, after a warm-up op."""
    monitoring = sys.monitoring
    tool = monitoring.PROFILER_ID
    events = 0

    def on_instruction(code, offset) -> None:
        nonlocal events
        events += 1

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        argv = WORKLOADS[workload].build(seed, size, Path(directory)).argv
        os.chdir(directory)
        try:
            _op(argv)
            monitoring.use_tool_id(tool, "count_instructions")
            monitoring.register_callback(tool, monitoring.events.INSTRUCTION, on_instruction)
            monitoring.set_events(tool, monitoring.events.INSTRUCTION)
            try:
                _op(argv)
            finally:
                monitoring.set_events(tool, 0)
                monitoring.register_callback(tool, monitoring.events.INSTRUCTION, None)
                monitoring.free_tool_id(tool)
        finally:
            os.chdir(cwd)
    return events


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)
    if sys.version_info < (3, 12):
        print(
            f"error: counting instructions needs Python 3.12 or later (sys.monitoring), "
            f"not {sys.version.split()[0]}",
            file=sys.stderr,
        )
        return 2
    print(count(args.workload, args.seed, args.size))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
