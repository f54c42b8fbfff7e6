"""Dataset schema, loading, synthetic generation, and report emission.

A dataset is a directory holding one CSV per market plus a staking-rate CSV,
tied together by ``manifest.json``. Numeric fields are written with full
``repr`` precision so a load of an emitted dataset reproduces it exactly.

Layout::

    manifest.json            chain, market descriptors, period, cadence, source
    market_<id>.csv          timestamp,supplied,borrowed,borrow_rate,rate_at_target
    staking.csv              timestamp,staking_rate

Market amounts are in loan-asset units; the backtester treats them as the
numeraire. The staking series may be coarser than the market series (daily
against hourly); it is held piecewise-constant onto the market timestamps.
"""

from __future__ import annotations

import csv
import json
import math
import random
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .backtest import (
    ADAPTIVE_CURVE_STEEPNESS,
    ADAPTIVE_TARGET_UTILIZATION,
    BacktestResult,
    MarketMeta,
    MarketSnapshot,
    PositionRecord,
    Snapshot,
    SnapshotSeries,
)
from .errors import DataError, DomainError, ValidationError
from .irm import adaptive_curve_factor
from .units import SECONDS_PER_DAY, SECONDS_PER_HOUR

SCHEMA_VERSION = 1

_MARKET_HEADER = ["timestamp", "supplied", "borrowed", "borrow_rate", "rate_at_target"]
_STAKING_HEADER = ["timestamp", "staking_rate"]


@dataclass(frozen=True)
class MarketDescriptor:
    market_id: str
    creation_date: str
    lltv: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lltv < 1.0:
            raise DomainError(f"lltv must be in (0, 1), got {self.lltv}")


@dataclass(frozen=True)
class DatasetManifest:
    chain: str
    markets: tuple[MarketDescriptor, ...]
    period_start: int
    period_end: int
    cadence_seconds: int
    source: str
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.period_end <= self.period_start:
            raise DomainError("period end must be after the start")
        if self.source not in ("fetched", "synthetic"):
            raise DomainError(f"unknown source {self.source!r}")


def _manifest_path(path: Path) -> Path:
    return path if path.name == "manifest.json" else path / "manifest.json"


def save_manifest(manifest: DatasetManifest, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": manifest.schema_version,
        "chain": manifest.chain,
        "source": manifest.source,
        "period_start": manifest.period_start,
        "period_end": manifest.period_end,
        "cadence_seconds": manifest.cadence_seconds,
        "markets": [
            {"id": m.market_id, "creation_date": m.creation_date, "lltv": m.lltv}
            for m in manifest.markets
        ],
    }
    out = directory / "manifest.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def load_manifest(path: Path) -> DatasetManifest:
    mpath = _manifest_path(Path(path))
    if not mpath.exists():
        raise DataError(f"manifest not found at {mpath}")
    try:
        raw = json.loads(mpath.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{mpath}: invalid JSON ({exc})") from exc
    try:
        if raw["schema_version"] != SCHEMA_VERSION:
            raise DataError(
                f"{mpath}: schema_version {raw['schema_version']} unsupported "
                f"(expected {SCHEMA_VERSION})"
            )
        markets = tuple(
            MarketDescriptor(
                market_id=m["id"], creation_date=m["creation_date"], lltv=float(m["lltv"])
            )
            for m in raw["markets"]
        )
        return DatasetManifest(
            chain=raw["chain"],
            markets=markets,
            period_start=int(raw["period_start"]),
            period_end=int(raw["period_end"]),
            cadence_seconds=int(raw["cadence_seconds"]),
            source=raw["source"],
        )
    except KeyError as exc:
        raise DataError(f"{mpath}: missing manifest field {exc}") from exc


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise DataError(f"{where}: not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise DataError(f"{where}: non-finite value {text!r}")
    return value


def _read_rows(path: Path, header: list[str]) -> list[list[str]]:
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if not rows or rows[0] != header:
        raise DataError(f"{path}: expected header {','.join(header)}")
    return rows[1:]


def save_snapshots(
    series: SnapshotSeries, manifest: DatasetManifest, directory: Path
) -> list[Path]:
    """Write a series in the canonical layout; returns the written paths."""
    directory = Path(directory)
    written = [save_manifest(manifest, directory)]
    for meta in series.markets:
        path = directory / f"market_{meta.market_id}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_MARKET_HEADER)
            for snap in series.snapshots:
                ms = snap.markets[meta.market_id]
                writer.writerow(
                    [
                        snap.timestamp,
                        repr(ms.supplied),
                        repr(ms.borrowed),
                        repr(ms.borrow_rate),
                        "" if ms.rate_at_target is None else repr(ms.rate_at_target),
                    ]
                )
        written.append(path)
    staking_path = directory / "staking.csv"
    with staking_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_STAKING_HEADER)
        for snap in series.snapshots:
            writer.writerow([snap.timestamp, repr(snap.staking_rate)])
    written.append(staking_path)
    return written


def load_snapshots(path: Path) -> SnapshotSeries:
    """Load and validate a dataset directory into a snapshot series.

    Market files must share one timestamp grid; the staking series is joined
    onto it, holding the last observation between staking timestamps.
    """
    directory = _manifest_path(Path(path)).parent
    manifest = load_manifest(directory)

    per_market: dict[str, dict[int, MarketSnapshot]] = {}
    timestamps: list[int] | None = None
    problems: list[str] = []
    for descriptor in manifest.markets:
        mid = descriptor.market_id
        mpath = directory / f"market_{mid}.csv"
        rows = _read_rows(mpath, _MARKET_HEADER)
        records: dict[int, MarketSnapshot] = {}
        ts_order: list[int] = []
        for lineno, row in enumerate(rows, start=2):
            where = f"{mpath}:{lineno}"
            if len(row) != len(_MARKET_HEADER):
                raise DataError(f"{where}: expected {len(_MARKET_HEADER)} fields")
            ts = int(_parse_float(row[0], where))
            supplied = _parse_float(row[1], where)
            borrowed = _parse_float(row[2], where)
            rate = _parse_float(row[3], where)
            target = None if row[4] == "" else _parse_float(row[4], where)
            if ts_order and ts <= ts_order[-1]:
                problems.append(f"{where}: timestamp {ts} out of order")
            ts_order.append(ts)
            if supplied <= 0.0:
                problems.append(f"{where}: supplied must be positive")
            if borrowed < 0.0 or borrowed > supplied:
                problems.append(
                    f"{where}: market {mid} borrowed {borrowed} outside [0, supplied]"
                )
            if rate < 0.0 or (target is not None and target < 0.0):
                problems.append(f"{where}: negative rate")
            records[ts] = MarketSnapshot(
                supplied=supplied,
                borrowed=borrowed,
                borrow_rate=rate,
                rate_at_target=target,
            )
        if timestamps is None:
            timestamps = ts_order
        elif ts_order != timestamps:
            problems.append(
                f"{mpath}: timestamp grid differs from market "
                f"{manifest.markets[0].market_id}"
            )
        per_market[mid] = records
    if timestamps is None:
        raise DataError(f"dataset at {directory} has no market files")
    if problems:
        raise ValidationError(
            f"dataset at {directory} failed validation ({len(problems)} records)",
            records=problems,
        )

    staking_rows = _read_rows(directory / "staking.csv", _STAKING_HEADER)
    staking: list[tuple[int, float]] = []
    for lineno, row in enumerate(staking_rows, start=2):
        where = f"{directory / 'staking.csv'}:{lineno}"
        rate = _parse_float(row[1], where)
        if rate < 0.0:
            raise ValidationError(
                f"dataset at {directory} failed validation (1 records)",
                records=[f"{where}: negative staking rate"],
            )
        staking.append((int(_parse_float(row[0], where)), rate))
    if not staking:
        raise DataError(f"{directory}: staking series is empty")
    staking.sort(key=lambda item: item[0])

    snapshots = [
        Snapshot(
            timestamp=ts,
            staking_rate=rate,
            markets={mid: per_market[mid][ts] for mid in per_market},
        )
        for ts, rate in zip(timestamps, staking_rates_at(timestamps, staking))
    ]
    metas = tuple(
        MarketMeta(market_id=d.market_id, max_ltv=d.lltv) for d in manifest.markets
    )
    series = SnapshotSeries(markets=metas, snapshots=tuple(snapshots))
    gaps = scan_gaps(series, manifest.cadence_seconds)
    if gaps:
        first = gaps[0]
        warnings.warn(
            f"dataset at {directory} has {len(gaps)} gap(s) wider than the "
            f"{manifest.cadence_seconds}s cadence, first {first[0]}..{first[1]}; "
            "values are never filled in",
            stacklevel=2,
        )
    return series


def staking_rates_at(
    timestamps: Sequence[int], staking: Sequence[tuple[int, float]]
) -> list[float]:
    """Last rate of the time-sorted ``(timestamp, rate)`` list at or before
    each sorted timestamp; the first rate before the first observation."""
    rates = []
    cursor = 0
    for ts in timestamps:
        while cursor + 1 < len(staking) and staking[cursor + 1][0] <= ts:
            cursor += 1
        rates.append(staking[cursor][1])
    return rates


def scan_gaps(series: SnapshotSeries, cadence_seconds: int) -> list[tuple[int, int]]:
    """Intervals longer than the declared cadence, reported, never filled."""
    gaps = []
    for a, b in zip(series.snapshots, series.snapshots[1:]):
        if b.timestamp - a.timestamp > cadence_seconds:
            gaps.append((a.timestamp, b.timestamp))
    return gaps


# --- synthetic datasets ----------------------------------------------------

_DEFAULT_START = 1735689600  # 2025-01-01T00:00:00Z


@dataclass(frozen=True)
class SyntheticMarketSpec:
    """Recipe for one synthetic market's borrow-rate path.

    ``rate_path`` is one of ``constant``, ``step``, ``sine``. The borrow rate
    path is realized through the adaptive model: utilization stays at
    ``utilization`` and rate_at_target is back-solved so the observed rate
    follows the requested path (optionally with seeded noise).
    """

    market_id: str
    lltv: float = 0.945
    supplied: float = 2000.0
    utilization: float = 0.8
    rate_path: str = "constant"
    rate_level: float = 0.02
    amplitude: float = 0.0
    period_days: float = 14.0
    step_day: float = 45.0
    step_to: float = 0.04
    noise: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_path not in ("constant", "step", "sine"):
            raise DomainError(f"unknown rate_path {self.rate_path!r}")
        if not 0.0 < self.utilization < 1.0:
            raise DomainError("utilization must be in (0, 1)")
        if self.supplied <= 0.0 or self.rate_level <= 0.0:
            raise DomainError("supplied and rate_level must be positive")
        if self.noise < 0.0 or self.amplitude < 0.0:
            raise DomainError("noise and amplitude must be non-negative")


@dataclass(frozen=True)
class SyntheticSpec:
    markets: tuple[SyntheticMarketSpec, ...]
    staking_rate: float = 0.031
    days: float = 90.0
    cadence_seconds: int = SECONDS_PER_HOUR
    start: int = _DEFAULT_START
    chain: str = "synthetic"

    def __post_init__(self) -> None:
        if not self.markets:
            raise DomainError("at least one synthetic market is required")
        if self.days <= 0.0 or self.cadence_seconds <= 0:
            raise DomainError("days and cadence must be positive")
        if self.staking_rate < 0.0:
            raise DomainError("staking_rate must be non-negative")


def _rate_at(spec: SyntheticMarketSpec, day: float, rng: random.Random) -> float:
    if spec.rate_path == "constant":
        rate = spec.rate_level
    elif spec.rate_path == "step":
        rate = spec.step_to if day >= spec.step_day else spec.rate_level
    else:
        rate = spec.rate_level + spec.amplitude * math.sin(
            2.0 * math.pi * day / spec.period_days
        )
    if spec.noise > 0.0:
        rate += rng.uniform(-spec.noise, spec.noise)
    return max(rate, 1e-6)


def generate_synthetic(
    spec: SyntheticSpec, seed: int
) -> tuple[SnapshotSeries, DatasetManifest]:
    """Deterministic series from a scenario spec and a seed.

    The staking rate is sampled daily and held constant within the day, like
    the fetched datasets.
    """
    rng = random.Random(seed)
    count = int(spec.days * SECONDS_PER_DAY / spec.cadence_seconds) + 1
    timestamps = [spec.start + k * spec.cadence_seconds for k in range(count)]

    snapshots = []
    for ts in timestamps:
        day = (ts - spec.start) / SECONDS_PER_DAY
        markets = {}
        for mspec in spec.markets:
            rate = _rate_at(mspec, day, rng)
            factor = adaptive_curve_factor(
                mspec.utilization, ADAPTIVE_TARGET_UTILIZATION, ADAPTIVE_CURVE_STEEPNESS
            )
            markets[mspec.market_id] = MarketSnapshot(
                supplied=mspec.supplied,
                borrowed=mspec.supplied * mspec.utilization,
                borrow_rate=rate,
                rate_at_target=rate / factor,
            )
        snapshots.append(
            Snapshot(timestamp=ts, staking_rate=spec.staking_rate, markets=markets)
        )
    series = SnapshotSeries(
        markets=tuple(
            MarketMeta(market_id=m.market_id, max_ltv=m.lltv) for m in spec.markets
        ),
        snapshots=tuple(snapshots),
    )
    manifest = DatasetManifest(
        chain=spec.chain,
        markets=tuple(
            MarketDescriptor(market_id=m.market_id, creation_date="synthetic", lltv=m.lltv)
            for m in spec.markets
        ),
        period_start=timestamps[0],
        period_end=timestamps[-1],
        cadence_seconds=spec.cadence_seconds,
        source="synthetic",
    )
    return series, manifest


_SCENARIOS = {
    # Borrow rate safely below the staking rate in both markets.
    "positive-carry": SyntheticSpec(
        markets=(
            SyntheticMarketSpec(market_id="core", rate_level=0.02),
            SyntheticMarketSpec(
                market_id="alt", supplied=900.0, utilization=0.7, rate_level=0.024
            ),
        )
    ),
    # Smooth swings of the carry sign; the workhorse for conservation and
    # size-effect checks.
    "rate-crossing": SyntheticSpec(
        markets=(
            SyntheticMarketSpec(
                market_id="core",
                rate_path="sine",
                rate_level=0.029,
                amplitude=0.012,
                period_days=18.0,
            ),
            SyntheticMarketSpec(
                market_id="alt",
                supplied=800.0,
                utilization=0.75,
                rate_path="sine",
                rate_level=0.031,
                amplitude=0.010,
                period_days=11.0,
            ),
        )
    ),
    # A small cheap market that saturates quickly next to a deep expensive one.
    "saturating-small-market": SyntheticSpec(
        markets=(
            SyntheticMarketSpec(
                market_id="deep", supplied=5000.0, utilization=0.8, rate_level=0.028
            ),
            SyntheticMarketSpec(
                market_id="small", supplied=60.0, utilization=0.5, rate_level=0.012
            ),
        )
    ),
    # Noisy rates straddling the staking rate; generates rebalance churn.
    "volatile": SyntheticSpec(
        markets=(
            SyntheticMarketSpec(
                market_id="core",
                rate_path="sine",
                rate_level=0.030,
                amplitude=0.006,
                period_days=4.0,
                noise=0.004,
            ),
            SyntheticMarketSpec(
                market_id="alt",
                supplied=1200.0,
                utilization=0.75,
                rate_path="sine",
                rate_level=0.032,
                amplitude=0.007,
                period_days=2.5,
                noise=0.005,
            ),
        )
    ),
}


def scenario(name: str) -> SyntheticSpec:
    """Bundled scenario presets for network-free runs."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise DomainError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(_SCENARIOS))}"
        ) from None


def scenario_names() -> list[str]:
    return sorted(_SCENARIOS)


# --- report emission --------------------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value))


def emit_report(
    result: BacktestResult | Sequence[tuple[float, float]],
    directory: Path,
    label: str = "backtest",
) -> list[Path]:
    """Write report files for a backtest result or a sweep curve.

    A backtest produces ``equity_curve.csv``, ``positions.csv`` (debts carry
    a negative sign), and ``summary.csv``/``summary.json``; a sweep produces
    ``apy_curve.csv`` and ``apy_curve.json``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if isinstance(result, BacktestResult):
        return _emit_backtest(result, directory)
    return _emit_curve(list(result), directory, label)


def _emit_backtest(result: BacktestResult, directory: Path) -> list[Path]:
    paths = []

    curve_path = directory / "equity_curve.csv"
    with curve_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "equity", "staking_accrued", "interest_paid", "fees_paid"])
        for step in result.steps:
            writer.writerow(
                [
                    step.timestamp,
                    _fmt(step.equity),
                    _fmt(step.staking_accrued),
                    _fmt(step.interest_paid),
                    _fmt(step.fees_paid),
                ]
            )
    paths.append(curve_path)

    positions_path = directory / "positions.csv"
    with positions_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        header = ["timestamp", "unleveraged"]
        for mid in result.market_ids:
            header += [f"collateral_{mid}", f"debt_{mid}"]
        writer.writerow(header)
        for record in result.positions:
            row: list[object] = [record.timestamp, _fmt(record.unleveraged)]
            for c, d in zip(record.collateral, record.debt):
                row += [_fmt(c), _fmt(-d)]  # debts are negative positions
            writer.writerow(row)
    paths.append(positions_path)

    summary = {
        "apy": result.apy,
        "rebalance_count": result.rebalance_count,
        "total_fees_paid": result.total_fees_paid,
        "start_equity": result.steps[0].equity,
        "end_equity": result.steps[-1].equity,
        "start_timestamp": result.steps[0].timestamp,
        "end_timestamp": result.steps[-1].timestamp,
        "markets": list(result.market_ids),
    }
    summary_json = directory / "summary.json"
    summary_json.write_text(json.dumps(summary, indent=2) + "\n")
    paths.append(summary_json)

    summary_csv = directory / "summary.csv"
    with summary_csv.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["metric", "value"])
        for key in ("apy", "rebalance_count", "total_fees_paid", "start_equity", "end_equity"):
            writer.writerow([key, summary[key]])
    paths.append(summary_csv)
    return paths


def _emit_curve(
    curve: list[tuple[float, float]], directory: Path, label: str
) -> list[Path]:
    csv_path = directory / f"{label}_curve.csv"
    with csv_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["budget", "apy"])
        for budget, value in curve:
            writer.writerow([_fmt(budget), _fmt(value)])
    json_path = directory / f"{label}_curve.json"
    json_path.write_text(
        json.dumps([{"budget": b, "apy": a} for b, a in curve], indent=2) + "\n"
    )
    return [csv_path, json_path]


def load_position_history(path: Path) -> list[PositionRecord]:
    """Read back an emitted ``positions.csv`` (debts stored negative)."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: empty positions file")
    header = rows[0]
    if header[:2] != ["timestamp", "unleveraged"] or (len(header) - 2) % 2 != 0:
        raise DataError(f"{path}: unexpected positions header")
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        where = f"{path}:{lineno}"
        ts = int(_parse_float(row[0], where))
        unleveraged = _parse_float(row[1], where)
        collateral = []
        debt = []
        for i in range(2, len(header), 2):
            collateral.append(_parse_float(row[i], where))
            debt.append(-_parse_float(row[i + 1], where))
        records.append(
            PositionRecord(
                timestamp=ts,
                unleveraged=unleveraged,
                collateral=tuple(collateral),
                debt=tuple(debt),
            )
        )
    return records


def irm_from_dict(raw: dict) -> object:
    """Parse a rate-model description used in CLI flags and config files."""
    from . import irm as irm_module

    kind = raw.get("kind")
    fields = {k: v for k, v in raw.items() if k != "kind"}
    try:
        if kind == "linear":
            return irm_module.LinearIrmParams(**fields)
        if kind == "kinked":
            return irm_module.KinkedIrmParams(**fields)
        if kind == "adaptive":
            fields.setdefault("t_last", 0.0)
            fields.setdefault("u_last", fields.get("u_target", 0.9))
            return irm_module.AdaptiveIrmParams(**fields)
    except TypeError as exc:
        raise DataError(f"bad rate model fields for kind {kind!r}: {exc}") from exc
    raise DataError(f"unknown rate model kind {kind!r} (use linear/kinked/adaptive)")
