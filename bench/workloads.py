"""Benchmark workloads: seeded inputs, the CLI argv of one op, and its output check.

Each workload builds its inputs through stakeloop's own calls from a seed,
names the ``stakeloop`` argv of one op, and checks that op's output. The
program only ever sees the generated files and the argv.

Run as a script, this module is the benchmark's set-up step: a fresh
interpreter imports ``stakeloop.cli`` (which every CLI user pays on each
call) and writes one workload's inputs::

    PYTHONPATH=src python3 bench/workloads.py <workload> <seed> <size> <out_dir>
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

SIZES = ("full", "tiny")

# Sweep budgets span the unsaturated (small) to the saturated (large) regime.
SWEEP_BUDGETS = [10.0**k for k in range(8)]
# Seeded noise on top of the rate-crossing preset, which is noise-free, so
# that the seed reaches the program's own generator. Smoothing averages it.
BACKTEST_NOISE = 0.002
OPTIMIZE_L_MAX = 5.0
OPTIMIZE_STAKING_RATE = 0.03
# Same tolerances as the test suite: per-step conservation and the
# budget identity at 1e-9, the size effect at 1e-9 absolute.
CONSERVATION_TOL = 1e-9
BUDGET_REL_TOL = 1e-9
SIZE_EFFECT_TOL = 1e-9

# Report files and fields that exist today. Later versions may add files
# and fields; the check and the digest read only these.
EQUITY_COLUMNS = ["timestamp", "equity", "staking_accrued", "interest_paid", "fees_paid"]
SUMMARY_KEYS = ["apy", "rebalance_count", "total_fees_paid"]
REPORT_SUMMARY_KEYS = SUMMARY_KEYS + [
    "start_equity",
    "end_equity",
    "start_timestamp",
    "end_timestamp",
    "markets",
]
OPTIMIZE_KEYS = [
    "regime",
    "lambda_star",
    "expected_yield",
    "unleveraged",
    "exposures",
    "carry",
    "kkt_passed",
]


@dataclass(frozen=True)
class Inputs:
    """What set-up wrote: the argv of one op (paths relative to the inputs
    directory, where the op runs) and the work one op does, in the
    workload's own unit."""

    argv: list[str]
    work_per_op: int

    def to_json(self) -> str:
        return json.dumps({"argv": self.argv, "work_per_op": self.work_per_op})

    @classmethod
    def load(cls, directory: Path) -> "Inputs":
        raw = json.loads((directory / "inputs.json").read_text())
        return cls(argv=list(raw["argv"]), work_per_op=int(raw["work_per_op"]))


@dataclass(frozen=True)
class OpOutput:
    """Everything one op produced: exit code, streams, and its report dir."""

    code: int
    stdout: str
    stderr: str
    out_dir: Path


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    build: Callable[[int, str, Path], Inputs]
    # Returns the problems found (empty when the output is correct) and the
    # sha256 of the output fields that exist today.
    check: Callable[[OpOutput, Inputs], tuple[list[str], str]]


def _digest(parts: list[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def _last_json_line(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty stdout")
    return json.loads(lines[-1])


# --- backtest-hourly --------------------------------------------------------


def _dataset(scenario: str, noise: float | None, days: float, seed: int, directory: Path) -> int:
    """Write a synthetic dataset; returns its snapshot count."""
    from stakeloop import data

    spec = data.scenario(scenario)
    markets = spec.markets
    if noise is not None:
        markets = tuple(replace(m, noise=noise) for m in markets)
    spec = replace(spec, markets=markets, days=days)
    series, manifest = data.generate_synthetic(spec, seed=seed)
    data.save_snapshots(series, manifest, directory)
    return len(series.snapshots)


def build_backtest(seed: int, size: str, directory: Path) -> Inputs:
    days = 90.0 if size == "full" else 3.0
    steps = _dataset("rate-crossing", BACKTEST_NOISE, days, seed, directory / "dataset")
    argv = [
        "--json", "backtest",
        "--dataset", "dataset",
        "--budget", "100",
        "--frequency", "1h",
        "--gamma-plus", "1e-4",
        "--gamma-minus", "1e-4",
        "--horizon-days", "7",
        "--out", "report",
    ]
    return Inputs(argv=argv, work_per_op=steps)


def _read_equity(path: Path) -> list[list[str]]:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    missing = [c for c in EQUITY_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"equity_curve.csv lacks columns {missing}")
    idx = [header.index(c) for c in EQUITY_COLUMNS]
    return [[row[i] for i in idx] for row in rows[1:]]


def check_backtest(out: OpOutput, inputs: Inputs) -> tuple[list[str], str]:
    problems: list[str] = []
    stdout = _last_json_line(out.stdout)
    rows = _read_equity(out.out_dir / "equity_curve.csv")
    if len(rows) != inputs.work_per_op:
        problems.append(f"equity_curve.csv has {len(rows)} rows, expected {inputs.work_per_op}")
    values = [[float(x) for x in row[1:]] for row in rows]
    for k in range(len(values) - 1):
        equity, staking, interest, fees = values[k]
        nxt = values[k + 1][0]
        expected = equity + staking - interest - fees
        if not abs(nxt - expected) <= CONSERVATION_TOL * max(1.0, abs(nxt)):
            problems.append(f"equity not conserved at row {k + 2}: {nxt!r} vs {expected!r}")
            break
    summary = json.loads((out.out_dir / "summary.json").read_text())
    for key in SUMMARY_KEYS:
        if summary.get(key) != stdout.get(key):
            problems.append(f"summary.json {key}={summary.get(key)!r}, stdout {stdout.get(key)!r}")
    if not math.isfinite(stdout.get("apy", math.nan)):
        problems.append(f"apy not finite: {stdout.get('apy')!r}")
    parts = [json.dumps({k: stdout.get(k) for k in SUMMARY_KEYS}, sort_keys=True)]
    parts.append(json.dumps({k: summary.get(k) for k in REPORT_SUMMARY_KEYS}, sort_keys=True))
    parts += [",".join(row) for row in rows]
    return problems, _digest(parts)


# --- sweep-daily ------------------------------------------------------------


def build_sweep(seed: int, size: str, directory: Path) -> Inputs:
    steps = _dataset("volatile", None, 90.0 if size == "full" else 4.0, seed, directory / "dataset")
    argv = [
        "sweep",
        "--dataset", "dataset",
        "--budget", "1",
        "--budgets", ",".join(f"{b:g}" for b in SWEEP_BUDGETS),
        "--frequency", "1d",
        "--out", "report",
    ]
    return Inputs(argv=argv, work_per_op=steps * len(SWEEP_BUDGETS))


def check_sweep(out: OpOutput, inputs: Inputs) -> tuple[list[str], str]:
    problems: list[str] = []
    curve = json.loads((out.out_dir / "apy_curve.json").read_text())
    budgets = [point["budget"] for point in curve]
    apys = [point["apy"] for point in curve]
    if budgets != SWEEP_BUDGETS:
        problems.append(f"curve budgets {budgets} differ from {SWEEP_BUDGETS}")
    if not all(isinstance(a, float) and math.isfinite(a) for a in apys):
        problems.append(f"non-finite apy in {apys}")
    for a, b in zip(apys, apys[1:]):
        if b > a + SIZE_EFFECT_TOL:
            problems.append(f"apy increases with budget: {apys}")
            break
    printed = [line for line in out.stdout.splitlines() if line.startswith("budget ")]
    if len(printed) != len(SWEEP_BUDGETS):
        problems.append(f"stdout has {len(printed)} budget lines, expected {len(SWEEP_BUDGETS)}")
    parts = [json.dumps({"budget": b, "apy": a}) for b, a in zip(budgets, apys)]
    return problems, _digest(parts)


# --- optimize-wide ----------------------------------------------------------


def _random_market(rng: random.Random, index: int) -> dict:
    supplied = rng.uniform(500.0, 5000.0)
    utilization = rng.uniform(0.3, 0.85)
    kind = rng.choices(["linear", "kinked", "adaptive", "flat"], weights=[3, 3, 2.5, 1.5])[0]
    if kind == "linear":
        irm = {"kind": "linear", "r_base": rng.uniform(0.0, 0.01),
               "r_slope1": rng.uniform(0.01, 0.04), "u_target": rng.uniform(0.8, 0.92)}
    elif kind == "flat":
        # Near-flat curve: the response reaches the liquidity cap well
        # inside the scanned shadow-rate range.
        irm = {"kind": "linear", "r_base": rng.uniform(0.005, 0.025),
               "r_slope1": rng.uniform(1e-5, 1e-4), "u_target": rng.uniform(0.8, 0.92)}
    elif kind == "kinked":
        irm = {"kind": "kinked", "r_base": rng.uniform(0.0, 0.005), "r_slope1": rng.uniform(0.01, 0.04),
               "r_slope2": rng.uniform(0.3, 1.0), "u_target": rng.uniform(0.8, 0.92)}
    else:
        irm = {"kind": "adaptive", "rate_at_target": rng.uniform(0.01, 0.05), "curve_steepness": 4.0,
               "u_target": 0.9, "adjustment_speed": 50.0, "t_last": 0.0, "u_last": utilization}
    return {
        "id": f"m{index:04d}",
        "supplied": supplied,
        "borrowed": supplied * utilization,
        "max_ltv": rng.uniform(0.86, 0.945),
        "irm": irm,
    }


def build_optimize(seed: int, size: str, directory: Path) -> Inputs:
    from stakeloop.data import irm_from_dict
    from stakeloop.irm import MarketState, market_response

    rng = random.Random(seed)
    n = 1000 if size == "full" else 12
    raws = [_random_market(rng, i) for i in range(n)]
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "markets.json").write_text(json.dumps(raws))
    # Half the saturated total puts the shadow rate mid-way through the scan.
    markets = [
        MarketState(r["id"], r["supplied"], r["borrowed"], r["max_ltv"], irm_from_dict(r["irm"]))
        for r in raws
    ]
    s = OPTIMIZE_STAKING_RATE
    saturated = math.fsum(market_response(m, OPTIMIZE_L_MAX, s, s) for m in markets)
    argv = [
        "--json", "optimize",
        "--markets", "markets.json",
        "--l-max", f"{OPTIMIZE_L_MAX:g}",
        "-s", f"{OPTIMIZE_STAKING_RATE:g}",
        "--budget", repr(saturated / 2.0),
    ]
    return Inputs(argv=argv, work_per_op=n)


def check_optimize(out: OpOutput, inputs: Inputs) -> tuple[list[str], str]:
    problems: list[str] = []
    payload = json.loads(out.stdout)
    budget = float(inputs.argv[inputs.argv.index("--budget") + 1])
    if payload.get("kkt_passed") is not True:
        problems.append("kkt_passed is not true")
    exposures = payload.get("exposures", {})
    if len(exposures) != inputs.work_per_op:
        problems.append(f"{len(exposures)} exposures for {inputs.work_per_op} markets")
    total = math.fsum(exposures.values()) + payload.get("unleveraged", math.nan)
    if not abs(total - budget) <= BUDGET_REL_TOL * budget:
        problems.append(f"exposures plus unleveraged {total!r} differ from budget {budget!r}")
    return problems, _digest([json.dumps({k: payload.get(k) for k in OPTIMIZE_KEYS}, sort_keys=True)])


# Workloads left out of BENCHMARK.json, with the reason. They still run by
# name; the smoke test pins the failure so that its fix shows.
UNGATED = {
    "optimize-wide": (
        "known defect: at some seeds (8, 18, 26 of 0-59; 173096242) solve "
        "folds its budget residual into a market pinned at its rate kink, "
        "and kkt_passed is false"
    ),
}

# Why each workload was chosen is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="backtest-hourly",
            work_unit="snapshot-steps",
            build=build_backtest,
            check=check_backtest,
        ),
        Workload(
            name="sweep-daily",
            work_unit="snapshot-steps",
            build=build_sweep,
            check=check_sweep,
        ),
        Workload(
            name="optimize-wide",
            work_unit="markets",
            build=build_optimize,
            check=check_optimize,
        ),
    )
}


def main(argv: list[str]) -> int:
    name, seed, size, out_dir = argv
    import stakeloop.cli  # noqa: F401  (the import every CLI call pays)

    if size not in SIZES:
        raise SystemExit(f"unknown size {size!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    inputs = WORKLOADS[name].build(int(seed), size, out)
    (out / "inputs.json").write_text(inputs.to_json())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
