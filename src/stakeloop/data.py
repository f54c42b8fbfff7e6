"""Dataset schema, loading, synthetic generation, and report emission.

A dataset is a directory holding one CSV per market plus a staking-rate CSV,
tied together by ``manifest.json``. Numeric fields are written with full
``repr`` precision so a load of an emitted dataset reproduces it exactly.

Layout::

    manifest.json            chain, markets, period, cadence, source
    market_<id>.csv          timestamp,supplied,borrowed,borrow_rate,rate_at_target
    staking.csv              timestamp,staking_rate

Market amounts are in loan-asset units; the backtester treats them as the
numeraire. The staking series may be coarser than the market series (daily
against hourly); it is held piecewise-constant onto the market timestamps.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import json
import math
import random
import warnings
from dataclasses import dataclass
from operator import neg
from pathlib import Path
from typing import NamedTuple, Sequence

from .backtest import BacktestResult, MarketMeta, SnapshotSeries, _recorded_curve
from .errors import DataError, DomainError, ValidationError
from .irm import _rate
from .units import SECONDS_PER_DAY, SECONDS_PER_HOUR

SCHEMA_VERSION = 1

_MARKET_HEADER = ["timestamp", "supplied", "borrowed", "borrow_rate", "rate_at_target"]
_STAKING_HEADER = ["timestamp", "staking_rate"]


@dataclass(frozen=True)
class DatasetManifest:
    """What a dataset states beyond its series; the manifest file's markets
    and period are written from the series and read back into it."""

    chain: str
    cadence_seconds: int
    source: str
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.source not in ("fetched", "synthetic"):
            raise DomainError(f"unknown source {self.source!r}")
        _check_cadence(self.cadence_seconds)


def _check_cadence(cadence_seconds: object) -> None:
    if not (isinstance(cadence_seconds, int) and cadence_seconds > 0):
        raise DomainError(f"cadence_seconds must be a positive integer, got {cadence_seconds!r}")


def _manifest_path(path: Path) -> Path:
    return path if path.name == "manifest.json" else path / "manifest.json"


def _save_manifest(manifest: DatasetManifest, series: SnapshotSeries, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": manifest.schema_version,
        "chain": manifest.chain,
        "source": manifest.source,
        "period_start": series.timestamps[0],
        "period_end": series.timestamps[-1],
        "cadence_seconds": manifest.cadence_seconds,
        "markets": [
            {"id": m.market_id, "creation_date": m.creation_date, "lltv": m.max_ltv}
            for m in series.markets
        ],
    }
    out = directory / "manifest.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def load_manifest(path: Path) -> DatasetManifest:
    return _read_manifest(path)[0]


def _read_manifest(path: Path) -> tuple[DatasetManifest, tuple[MarketMeta, ...]]:
    """The manifest and the markets it lists, in file order. The period keys
    are not read: the timestamp grid states the period."""
    mpath = _manifest_path(Path(path))
    if not mpath.exists():
        raise DataError(f"manifest not found at {mpath}")
    try:
        raw = json.loads(mpath.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{mpath}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise DataError(f"{mpath}: expected a JSON object, got {type(raw).__name__}")
    try:
        if raw["schema_version"] != SCHEMA_VERSION:
            raise DataError(
                f"{mpath}: schema_version {raw['schema_version']} unsupported "
                f"(expected {SCHEMA_VERSION})"
            )
        listed = raw["markets"]
        if not (isinstance(listed, list) and all(isinstance(m, dict) for m in listed)):
            raise DataError(f"{mpath}: markets must be a list of objects")
        markets = tuple(
            MarketMeta(m["id"], float(m["lltv"]), m["creation_date"]) for m in listed
        )
        manifest = DatasetManifest(
            chain=raw["chain"], cadence_seconds=raw["cadence_seconds"], source=raw["source"]
        )
        return manifest, markets
    except KeyError as exc:
        raise DataError(f"{mpath}: missing manifest field {exc}") from exc
    except (TypeError, ValueError) as exc:  # a field of the wrong type or value
        raise DataError(f"{mpath}: {exc}") from exc


def _floats(column: Sequence[str], path: Path) -> tuple[float, ...]:
    """A CSV column of finite floats starting at line 2; the first bad field
    raises a ``DataError`` at its ``path:line``."""
    try:
        values = tuple(map(float, column))
    except ValueError:
        values = (math.nan,)
    if not all(map(math.isfinite, values)):
        for lineno, text in enumerate(column, start=2):
            try:
                value = float(text)
            except ValueError:
                raise DataError(f"{path}:{lineno}: not a number: {text!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: non-finite value {text!r}")
    return values


def _timestamps(column: Sequence[str], path: Path) -> tuple[int, ...]:
    """A CSV column of whole-second timestamps starting at line 2; a
    fractional one raises a ``DataError`` at its ``path:line``."""
    values = _floats(column, path)
    if not all(map(float.is_integer, values)):
        for lineno, (text, value) in enumerate(zip(column, values), start=2):
            if not value.is_integer():
                raise DataError(f"{path}:{lineno}: fractional timestamp {text!r}")
    return tuple(map(int, values))


def _read_columns(path: Path, header: list[str] | None) -> tuple[list[str], list[tuple[str, ...]]]:
    """The header of a CSV file and its columns below it. Every row must have
    the header's field count; ``header``, when given, is the one expected."""
    if not path.exists():
        raise DataError(f"file not found: {path}")
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise DataError(f"{path}: empty file")
    if header is not None and rows[0] != header:
        raise DataError(f"{path}: expected header {','.join(header)}")
    if len(set(map(len, rows))) > 1:
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != len(rows[0]):
                raise DataError(f"{path}:{lineno}: expected {len(rows[0])} fields, got {len(row)}")
    return rows[0], [column[1:] for column in zip(*rows)]


def save_snapshots(
    series: SnapshotSeries, manifest: DatasetManifest, directory: Path
) -> list[Path]:
    """Write a series in the canonical layout; returns the written paths.
    The manifest file lists the series' markets and period."""
    directory = Path(directory)
    written = [_save_manifest(manifest, series, directory)]
    for i, meta in enumerate(series.markets):
        values = [map(repr, c[i]) for c in (series.supplied, series.borrowed, series.borrow_rate)]
        targets = series.rate_at_target[i]
        values.append(itertools.repeat("") if targets is None else map(repr, targets))
        path = directory / f"market_{meta.market_id}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_MARKET_HEADER)
            writer.writerows(zip(series.timestamps, *values))
        written.append(path)
    staking_path = directory / "staking.csv"
    with staking_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_STAKING_HEADER)
        writer.writerows(zip(series.timestamps, map(repr, series.staking_rates)))
    written.append(staking_path)
    return written


def load_snapshots(path: Path) -> SnapshotSeries:
    """Load and validate a dataset directory into a snapshot series.

    Market files must share one timestamp grid; the staking series is joined
    onto it, holding the last observation between staking timestamps.
    """
    directory = _manifest_path(Path(path)).parent
    manifest, markets = _read_manifest(directory)
    if not markets:
        raise DataError(f"dataset at {directory} has no market files")
    paths = [directory / f"market_{m.market_id}.csv" for m in markets]

    columns = []
    for mpath in paths:
        _, (times, *values, targets) = _read_columns(mpath, _MARKET_HEADER)
        grid = _timestamps(times, mpath)
        # Empty fields mean no rate-at-target, in every row or in none.
        targets = _floats(targets, mpath) if any(targets) else None
        columns.append((grid, *(_floats(v, mpath) for v in values), targets))
    grids, supplied, borrowed, rates, targets = zip(*columns)
    staking_path = directory / "staking.csv"
    _, (times, staking) = _read_columns(staking_path, _STAKING_HEADER)
    if not times:
        raise DataError(f"{directory}: staking series is empty")
    times, staking = _timestamps(times, staking_path), _floats(staking, staking_path)
    problems = [
        f"{mpath}: timestamp grid differs from market {markets[0].market_id}"
        for mpath, grid in zip(paths, grids)
        if grid != grids[0]
    ]
    if len(set(times)) < len(times) or min(staking) < 0.0:
        first_line: dict[int, int] = {}
        for lineno, (t, rate) in enumerate(zip(times, staking), start=2):
            if first_line.setdefault(t, lineno) != lineno:
                problems.append(f"{staking_path}:{lineno}: timestamp {t} repeated")
            if rate < 0.0:
                problems.append(f"{staking_path}:{lineno}: negative staking rate")
    if problems:
        raise ValidationError(
            f"dataset at {directory} failed validation ({len(problems)} records)",
            records=problems,
        )
    observed = sorted(zip(times, staking), key=lambda item: item[0])
    series = SnapshotSeries(
        markets=markets,
        timestamps=grids[0],
        staking_rates=tuple(staking_rates_at(grids[0], observed)),
        supplied=supplied,
        borrowed=borrowed,
        borrow_rate=rates,
        rate_at_target=targets,
        # Snapshot records (i is None) point into the first market file's grid.
        origin=(f"dataset at {directory}", lambda k, i: f"{paths[i or 0]}:{k + 2}"),
    )
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
    each timestamp; the first rate before the first observation."""
    times = [t for t, _ in staking]
    return [staking[max(bisect.bisect_right(times, ts) - 1, 0)][1] for ts in timestamps]


def scan_gaps(series: SnapshotSeries, cadence_seconds: int) -> list[tuple[int, int]]:
    """Intervals longer than the declared cadence, reported, never filled."""
    ts = series.timestamps
    return [(a, b) for a, b in zip(ts, ts[1:]) if b - a > cadence_seconds]


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
        if not 0.0 < self.days < math.inf:
            raise DomainError(f"days must be positive and finite, got {self.days}")
        _check_cadence(self.cadence_seconds)
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
    timestamps = tuple(spec.start + k * spec.cadence_seconds for k in range(count))
    days = [(ts - spec.start) / SECONDS_PER_DAY for ts in timestamps]
    # One draw per market per timestamp, in timestamp order.
    rates = list(zip(*([_rate_at(m, day, rng) for m in spec.markets] for day in days)))
    factors = [_rate(_recorded_curve(1.0), m.utilization) for m in spec.markets]
    series = SnapshotSeries(
        markets=tuple(MarketMeta(m.market_id, m.lltv, "synthetic") for m in spec.markets),
        timestamps=timestamps,
        staking_rates=(spec.staking_rate,) * count,
        supplied=tuple((m.supplied,) * count for m in spec.markets),
        borrowed=tuple((m.supplied * m.utilization,) * count for m in spec.markets),
        borrow_rate=tuple(rates),
        rate_at_target=tuple(tuple(r / f for r in c) for c, f in zip(rates, factors)),
    )
    return series, DatasetManifest(spec.chain, spec.cadence_seconds, "synthetic")


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


def emit_report(
    result: BacktestResult | Sequence[tuple[float, float]],
    directory: Path,
    label: str = "backtest",
) -> list[Path]:
    """Write report files for a backtest result or a sweep curve.

    A backtest produces ``equity_curve.csv``, ``positions.csv`` (debts carry
    a negative sign), and ``summary.csv``/``summary.json``; a sweep produces
    ``apy_curve.csv`` and ``apy_curve.json``. ``csv`` writes a float as its
    ``repr``, which loads back exactly.
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
        columns = (result.equity, result.staking_accrued, result.interest_paid, result.fees_paid)
        writer.writerows(zip(result.timestamps, *columns))
    paths.append(curve_path)

    positions_path = directory / "positions.csv"
    with positions_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        header = ["timestamp", "unleveraged"]
        columns = [result.timestamps, result.unleveraged]
        for mid, c, d in zip(result.market_ids, result.collateral, result.debt):
            header += [f"collateral_{mid}", f"debt_{mid}"]
            columns += [c, map(neg, d)]  # debts are negative positions
        writer.writerow(header)
        writer.writerows(zip(*columns))
    paths.append(positions_path)

    summary = {
        "apy": result.apy,
        "rebalance_count": result.rebalance_count,
        "total_fees_paid": result.total_fees_paid,
        "start_equity": result.equity[0],
        "end_equity": result.equity[-1],
        "start_timestamp": result.timestamps[0],
        "end_timestamp": result.timestamps[-1],
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
        writer.writerows(curve)
    json_path = directory / f"{label}_curve.json"
    json_path.write_text(
        json.dumps([{"budget": b, "apy": a} for b, a in curve], indent=2) + "\n"
    )
    return [csv_path, json_path]


class PositionHistory(NamedTuple):
    """The holdings columns of a backtest, as ``BacktestResult`` holds them."""

    timestamps: tuple[int, ...]
    unleveraged: tuple[float, ...]
    collateral: tuple[tuple[float, ...], ...]
    debt: tuple[tuple[float, ...], ...]


def load_position_history(path: Path) -> PositionHistory:
    """Read back an emitted ``positions.csv`` (debts stored negative)."""
    path = Path(path)
    header, columns = _read_columns(path, None)
    # After the first two names, one collateral_<id>, debt_<id> pair per market.
    ids = [name.removeprefix("collateral_") for name in header[2::2]]
    pairs = [name for mid in ids for name in (f"collateral_{mid}", f"debt_{mid}")]
    if header != ["timestamp", "unleveraged", *pairs] or not all(ids):
        raise DataError(f"{path}: unexpected positions header")
    values = [_floats(column, path) for column in columns[1:]]
    return PositionHistory(
        timestamps=_timestamps(columns[0], path),
        unleveraged=values[0],
        collateral=tuple(values[1::2]),
        debt=tuple(tuple(map(neg, v)) for v in values[2::2]),
    )


def _check_float(value: int | float, where: str) -> None:
    """Refuse, naming ``where``, a JSON integer too large for a float."""
    try:
        float(value)
    except OverflowError:
        raise DataError(f"{where} must be a number, got an integer too large for a float") from None


def irm_from_dict(raw: dict) -> object:
    """Parse a rate-model description used in CLI flags and config files.
    Every field but ``kind`` must be a number a float can hold: JSON true,
    false and strings are refused."""
    from . import irm as irm_module

    kind = raw.get("kind")
    fields = {k: v for k, v in raw.items() if k != "kind"}
    for key, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DataError(f"{key} must be a number, got {type(value).__name__}")
        _check_float(value, key)
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
