"""Smoke test of the benchmark at tiny size.

Run from the root of a checkout::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = ("--size", "tiny", "--seconds", "0.3")
COUNTS = (".calls", ".rows", ".bytes")


def bench(*args: str, cwd: Path = run.ROOT, script: Path = run.BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(script), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    gated = sorted(w["name"] for w in BENCHMARK["workloads"])
    assert gated == sorted(set(workloads.WORKLOADS) - set(workloads.UNGATED))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_prints_with_its_unit(name):
    for trace, units in ((0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS)):
        proc = bench(*TINY, "--workload", name, "--seed", "3", "--trace", str(trace))
        result = result_of(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        lines = proc.stdout.splitlines()
        for key in ("machine ", "error_rate 0 ratio ", "digest "):
            assert any(line.startswith(key) for line in lines), key
        printed = {line.split()[0]: line.split()[2] for line in lines if len(line.split()) >= 3}
        for metric, unit in units.items():
            assert printed.get(metric) == unit, metric
        if trace:
            assert "absent (not in this program version): none" in proc.stdout
        else:
            for metric, unit in run.INFO_UNITS.items():
                assert printed.get(metric) == unit, metric
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_for_one_seed():
    counts = []
    for _ in range(2):
        proc = bench(*TINY, "--workload", "backtest-hourly", "--seed", "5", "--trace", "1")
        metrics = result_of(proc)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(COUNTS)})
    assert counts[0] == counts[1]
    assert counts[0]["rebalance.solve_with_fees.calls"] > 0


def _one_op(name: str, tmp_path: Path, seed: int = 7, size: str = "tiny"):
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(seed, size, tmp_path)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        output, _, error = run.run_op(workload, inputs, tmp_path)
    finally:
        os.chdir(cwd)
    assert error is None and output.code == 0, output.stderr
    problems, digest = workload.check(output, inputs)
    assert problems == [] and len(digest) == 64
    return workload, inputs, output


def _rewrite(path: Path, edit) -> None:
    path.write_text(edit(path.read_text()))


def test_tampered_equity_row_fails_the_check(tmp_path):
    workload, inputs, output = _one_op("backtest-hourly", tmp_path)

    def nudge(text: str) -> str:
        lines = text.splitlines()
        fields = lines[5].split(",")
        fields[1] = repr(float(fields[1]) + 1e-6)
        lines[5] = ",".join(fields)
        return "\n".join(lines) + "\n"

    _rewrite(output.out_dir / "equity_curve.csv", nudge)
    problems, _ = workload.check(output, inputs)
    assert any("not conserved" in p for p in problems)


def test_increasing_sweep_curve_fails_the_check(tmp_path):
    workload, inputs, output = _one_op("sweep-daily", tmp_path)

    def reverse(text: str) -> str:
        curve = json.loads(text)
        apys = sorted(point["apy"] for point in curve)
        if apys[0] == apys[-1]:
            apys[-1] += 1e-6
        return json.dumps([{"budget": p["budget"], "apy": a} for p, a in zip(curve, apys)])

    _rewrite(output.out_dir / "apy_curve.json", reverse)
    problems, _ = workload.check(output, inputs)
    assert any("increases with budget" in p for p in problems)


def test_unbalanced_optimize_output_fails_the_check(tmp_path):
    workload, inputs, output = _one_op("optimize-wide", tmp_path)
    payload = json.loads(output.stdout)
    first = next(iter(payload["exposures"]))
    payload["exposures"][first] *= 1.0 + 1e-6
    tampered = workloads.OpOutput(output.code, json.dumps(payload), output.stderr, output.out_dir)
    problems, _ = workload.check(tampered, inputs)
    assert any("differ from budget" in p for p in problems)


@pytest.mark.xfail(strict=True, reason=workloads.UNGATED["optimize-wide"])
def test_optimize_wide_passes_its_check_at_a_kink_pinned_seed(tmp_path):
    # Seed 8 at full size: solve folds its residual into a market pinned at
    # its rate kink, and kkt_passed is false. Passes once solve is exact.
    _one_op("optimize-wide", tmp_path, seed=8, size="full")


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(
        "--workload", "backtest-hourly", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "bench" / "run.py",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
