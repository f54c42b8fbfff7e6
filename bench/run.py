"""stakeloop benchmark: one workload, closed loop, one client, in-process.

Usage, from the root of a checkout::

    python3 bench/run.py --workload backtest-hourly --seed 0 --seconds 30 --trace 0

Set-up runs the workload's input generator in a fresh interpreter that
imports ``stakeloop.cli``. Then ``stakeloop.cli.main(argv)`` is called in this
process and thread, the next op starting when the previous one returns, until
``--seconds`` have passed; every op's output is checked. The set-up is timed
``SETUP_REPEATS`` more times, between ops spread evenly over the run.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics of the traced ones
(see ``tracing.py``) plus ``trace_overhead``. Human-readable lines come first;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracing import EXPECTED, NameStats, Tracer, layer_metrics, op_stats
from workloads import SIZES, WORKLOADS, Inputs, OpOutput

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 9
# Samples a tail percentile needs beyond it.
TAIL_BEYOND = 10
CPU_LOOP_N = 200_000

# Metrics in the result line of an untraced run. work_per_s is the work of
# all timed ops over their summed time. On a shared 2-CPU machine whose speed
# drifted by up to 2x, in phases from under a second to many minutes long, it
# spread less between runs than the fastest or the median op (see README.md).
END_TO_END_UNITS = {
    "work_per_s": "work/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed beside them, but too unsteady between runs to gate on.
INFO_UNITS = {
    "error_rate": "ratio",
    "op_s.min": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
}
PER_LAYER_UNITS = {
    "irm.market_response.calls": "count",
    "irm.market_response.per_market_solve": "ratio",
    "irm.borrow_rate.calls": "count",
    "allocator.solve.calls": "count",
    "allocator.solve.self_s": "s",
    "allocator.solve.unsaturated_share": "ratio",
    "allocator.verify_kkt.s": "s",
    "rebalance.solve_with_fees.calls": "count",
    "rebalance.solve_with_fees.self_s": "s",
    "rebalance.solves_per_plan": "ratio",
    "backtest.market_state_at.calls": "count",
    "backtest.market_state_at.s": "s",
    "backtest.run_backtest.self_s": "s",
    "backtest.smooth_rates.calls": "count",
    "backtest.smooth_rates.s": "s",
    "backtest.sweep_budgets.self_s": "s",
    "data.load_snapshots.s": "s",
    "data.load_snapshots.rows": "count",
    "data.emit_report.s": "s",
    "data.emit_report.bytes": "bytes",
    "cli.main.self_s": "s",
    "trace_overhead": "ratio",
}


class Terminated(BaseException):
    """SIGTERM, raised past the handlers that turn an op's own SystemExit or
    exception into a failed op."""


def _terminate(signum, frame) -> None:
    raise Terminated


def cpu_loop_ms() -> float:
    """Best of three runs of a fixed stdlib loop; shows machine-speed drift."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CPU_LOOP_N):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond
    it, by nearest rank: (percentile, value). The maximum when too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, ordered[rank - 1]


@dataclass
class OpRecord:
    seconds: float | None  # None for the warm-up op
    problems: list[str]
    digest: str | None


@dataclass
class TracedOp:
    seconds: float
    metrics: dict[str, float]
    stats: dict[str, NameStats]


def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Setup:
    """Builds of one workload's inputs, each in a fresh interpreter.

    The first build, unmeasured, fills the bytecode cache and writes the
    inputs the ops use. Each measured build writes a copy that must hold the
    same bytes and is then deleted. The measured builds are spread over the
    run, so that their median sees the machine's slow and fast phases alike
    rather than the one second set-up would take at the start.
    """

    def __init__(self, name: str, seed: int, size: str, work: Path) -> None:
        self.cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), name, str(seed), size]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.work = work
        self.directory = work / "inputs"
        self._build(self.directory)
        self.digest = _tree_digest(self.directory)
        self.times: list[float] = []

    def _build(self, directory: Path) -> float:
        t0 = time.perf_counter()
        subprocess.run([*self.cmd, str(directory)], env=self.env, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def measure_once(self) -> None:
        directory = self.work / "rebuild"
        self.times.append(self._build(directory))
        if _tree_digest(directory) != self.digest:
            raise RuntimeError("set-up wrote different inputs for the same seed")
        shutil.rmtree(directory)


def run_op(workload, inputs: Inputs, directory: Path) -> tuple[OpOutput, float, str | None]:
    """One ``stakeloop.cli.main`` call in ``directory``; (output, seconds, error)."""
    import stakeloop.cli

    report = directory / "report"
    shutil.rmtree(report, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = stakeloop.cli.main(list(inputs.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
    return OpOutput(code, out.getvalue(), err.getvalue(), report), seconds, error


def check_op(
    workload, inputs: Inputs, output: OpOutput, error: str | None
) -> tuple[list[str], str | None]:
    if error is not None:
        return [f"exception: {error.strip().splitlines()[-1]}"], None
    if output.code != 0:
        return [f"exit code {output.code}: {output.stderr.strip()[-300:]}"], None
    try:
        return workload.check(output, inputs)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output unreadable: {exc!r}"], None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "stakeloop" / "cli.py").is_file():
        print(f"error: no stakeloop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stakeloop.cli  # noqa: F401

    if not Path(stakeloop.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: stakeloop imported from {stakeloop.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # A terminated run still deletes its work directory, and subprocess.run
    # kills and waits for a set-up build in flight.
    signal.signal(signal.SIGTERM, _terminate)
    workload = WORKLOADS[args.workload]
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        cpu_start = cpu_loop_ms()
        setup = Setup(args.workload, args.seed, args.size, work)
        inputs = Inputs.load(setup.directory)
        os.chdir(setup.directory)
        result = measure(workload, inputs, setup, args)
        cpu_end = cpu_loop_ms()
    except Terminated:
        print("error: terminated", file=sys.stderr)
        return 143
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    records, traced = result
    timed = [r for r in records if r.seconds is not None]
    failed = [r for r in records if r.problems]
    digests = {r.digest for r in records if r.digest is not None}
    machine = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "cpu_loop_ms": {"start": round(cpu_start, 3), "end": round(cpu_end, 3)},
    }
    print(
        f"workload {args.workload}  seed {args.seed}  size {args.size}  "
        f"trace {args.trace}  seconds {args.seconds:g}"
    )
    print(f"machine {json.dumps(machine)}")
    print(f"inputs {' '.join(inputs.argv)}")
    for r in failed[:5]:
        print(f"failure: {'; '.join(r.problems)[:500]}")
    if len(digests) == 1:
        print(f"digest {digests.pop()} (same across every checked op)")
    else:
        print(f"digest CHANGED: {len(digests)} distinct digests across ops: {sorted(digests)}")

    info = {"error_rate": (len(failed) / len(records), f"{len(failed)} of {len(records)} ops failed")}
    if args.trace:
        metrics = per_layer(traced, records)
        units = PER_LAYER_UNITS
    else:
        op_seconds = [r.seconds for r in timed]
        n = len(op_seconds)
        pct, tail_s = tail(op_seconds)
        metrics = {
            "work_per_s": inputs.work_per_op * n / sum(op_seconds),
            "setup_s": statistics.median(setup.times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        info["op_s.min"] = (min(op_seconds), f"fastest of {n} ops")
        info["op_s.p50"] = (statistics.median(op_seconds), f"median of {n} ops")
        info["op_s.tail"] = (tail_s, f"p{pct:.4g} of {n} ops")
        print(f"work_per_s counts {workload.work_unit}, {inputs.work_per_op} per op, over all {n} timed ops")
        print(f"setup_s is the median of {len(setup.times)}: {[round(t, 4) for t in setup.times]}")
    for name, (value, note) in info.items():
        print(f"{name} {value:.6g} {INFO_UNITS[name]} ({note})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def measure(workload, inputs: Inputs, setup: Setup, args) -> tuple[list[OpRecord], list[TracedOp]]:
    """Closed loop for ``args.seconds`` after one warm-up op, with the
    measured set-up builds between ops at evenly spaced times. With tracing,
    odd ops are traced and summarised as soon as they end."""
    directory = setup.directory
    tracer = Tracer() if args.trace else None
    records: list[OpRecord] = []
    traced: list[TracedOp] = []

    def one(index: int, timed: bool) -> None:
        use_trace = tracer is not None and index % 2 == 1
        if use_trace:
            tracer.patch()
            marks = tracer.begin_op(index)
        try:
            output, seconds, error = run_op(workload, inputs, directory)
        finally:
            if use_trace:
                spans, counts = tracer.end_op(marks)
                tracer.unpatch()
        if use_trace:
            # Before the next op replaces the report files it sizes.
            traced.append(TracedOp(seconds, layer_metrics(spans, counts), op_stats(spans, counts)))
            if len(traced) == 1:
                write_spans(spans, args)
        problems, digest = check_op(workload, inputs, output, error)
        records.append(OpRecord(seconds if timed else None, problems, digest))

    one(0, timed=False)
    start = time.perf_counter()
    deadline = start + args.seconds
    builds_due = [start + args.seconds * k / SETUP_REPEATS for k in range(SETUP_REPEATS)]
    index = 1
    # A traced run needs at least one traced and one untraced timed op.
    while time.perf_counter() < deadline or index < (3 if tracer else 2):
        if len(setup.times) < SETUP_REPEATS and time.perf_counter() >= builds_due[len(setup.times)]:
            setup.measure_once()
        one(index, timed=True)
        index += 1
    while len(setup.times) < SETUP_REPEATS:
        setup.measure_once()
    if tracer is not None:
        absent = [name for name in EXPECTED if name not in tracer.present]
        print(f"absent (not in this program version): {', '.join(absent) if absent else 'none'}")
    return records, traced


def write_spans(spans, args) -> None:
    """Keep one traced op's spans for inspection, as JSON lines."""
    out = WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as handle:
        for s in spans:
            record = {"id": s.span_id, "name": s.name, "parent": s.parent, "op": s.op}
            handle.write(json.dumps(record | {"start": s.start, "end": s.end}) + "\n")
    print(f"spans of one traced op written to {out.relative_to(ROOT)}")


def per_layer(traced: list[TracedOp], records: list[OpRecord]) -> dict[str, float]:
    """Median over traced ops of each per-layer metric, plus trace_overhead."""
    metrics = {name: statistics.median(op.metrics[name] for op in traced) for name in traced[0].metrics}
    for name in metrics:
        seen = sorted({op.metrics[name] for op in traced})
        if name.endswith((".calls", ".rows", ".bytes")) and len(seen) != 1:
            print(f"note: {name} differs between traced ops: {seen}")
    untraced_s = [r.seconds for i, r in enumerate(records) if i % 2 == 0 and r.seconds is not None]
    traced_s = [op.seconds for op in traced]
    metrics["trace_overhead"] = statistics.median(traced_s) / statistics.median(untraced_s)

    names = sorted({name for op in traced for name in op.stats})
    print(f"per op, median of {len(traced)} traced ops: calls, total_s, self_s")
    for name in names:
        calls = statistics.median(op.stats[name].calls if name in op.stats else 0 for op in traced)
        total = statistics.median(op.stats[name].total_s if name in op.stats else 0.0 for op in traced)
        own = statistics.median(op.stats[name].self_s if name in op.stats else 0.0 for op in traced)
        print(f"  {name:40s} {calls:10g} {total:10.6f} {own:10.6f}")
    return metrics


if __name__ == "__main__":
    raise SystemExit(main())
