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
Every file is UTF-8 text.
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
from typing import Callable, Iterable, NamedTuple, Sequence

from .backtest import BacktestResult, MarketMeta, SnapshotSeries, _recorded_curve
from .errors import DataError, DomainError, ValidationError
from .irm import AdaptiveIrmParams, KinkedIrmParams, LinearIrmParams, _rate
from .units import SECONDS_PER_DAY, SECONDS_PER_HOUR

SCHEMA_VERSION = 1

_MARKET_HEADER = ["timestamp", "supplied", "borrowed", "borrow_rate", "rate_at_target"]
_STAKING_HEADER = ["timestamp", "staking_rate"]
_EQUITY_HEADER = ["timestamp", "equity", "staking_accrued", "interest_paid", "fees_paid"]


@dataclass(frozen=True)
class DatasetManifest:
    """What a dataset states beyond its series; the manifest file's markets
    and period are written from the series and read back into it."""

    chain: str
    cadence_seconds: int
    source: str

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
    payload = {
        "schema_version": SCHEMA_VERSION,
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
    return _write_json(directory / "manifest.json", payload)


def load_manifest(path: Path) -> DatasetManifest:
    return _read_manifest(path)[0]


def _read_manifest(path: Path) -> tuple[DatasetManifest, tuple[MarketMeta, ...]]:
    """The manifest and the markets it lists, in file order. The period keys
    are not read: the timestamp grid states the period."""
    mpath = _manifest_path(Path(path))
    if not mpath.exists():
        raise DataError(f"manifest not found at {mpath}")
    try:
        raw = _read_utf8(mpath, json.load)
    except json.JSONDecodeError as exc:
        raise DataError(f"{mpath}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise DataError(f"{mpath}: expected a JSON object, got {type(raw).__name__}")

    def typed(obj: dict, key: str, kind: type):
        return _checked(obj[key], kind, f"{mpath}: {key}")

    try:
        if typed(raw, "schema_version", int) != SCHEMA_VERSION:
            raise DataError(
                f"{mpath}: schema_version {raw['schema_version']} unsupported "
                f"(expected {SCHEMA_VERSION})"
            )
        listed = raw["markets"]
        if not (isinstance(listed, list) and all(isinstance(m, dict) for m in listed)):
            raise DataError(f"{mpath}: markets must be a list of objects")
        markets = tuple(
            MarketMeta(typed(m, "id", str), typed(m, "lltv", float), typed(m, "creation_date", str))
            for m in listed
        )
        manifest = DatasetManifest(
            typed(raw, "chain", str), typed(raw, "cadence_seconds", int), raw["source"]
        )
        return manifest, markets
    except KeyError as exc:
        raise DataError(f"{mpath}: missing manifest field {exc}") from exc
    except DomainError as exc:  # a value out of its range
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


def _read_utf8(path: Path, read: Callable):
    """``read`` of the UTF-8 text file at ``path``; a byte that is not UTF-8
    raises a ``DataError`` naming the file."""
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            return read(handle)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None


def _read_columns(path: Path, header: list[str] | None) -> tuple[list[str], list[tuple[str, ...]]]:
    """The header of a CSV file and its columns below it. Every row must have
    the header's field count; ``header``, when given, is the one expected. A
    file the ``csv`` module cannot parse raises a ``DataError`` at the
    ``path:line`` it had read to."""
    if not path.exists():
        raise DataError(f"file not found: {path}")

    def parse(handle) -> list[list[str]]:
        reader = csv.reader(handle)
        try:
            return list(reader)
        except csv.Error as exc:  # a field over the limit; a NUL byte before Python 3.11
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None

    rows = _read_utf8(path, parse)
    if not rows:
        raise DataError(f"{path}: empty file")
    if header is not None and rows[0] != header:
        raise DataError(f"{path}: expected header {','.join(header)}")
    if len(set(map(len, rows))) > 1:
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != len(rows[0]):
                raise DataError(f"{path}:{lineno}: expected {len(rows[0])} fields, got {len(row)}")
    return rows[0], [column[1:] for column in zip(*rows)]


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[tuple]) -> Path:
    """Write ``header`` and ``rows`` to the UTF-8 CSV file at ``path`` in the
    ``csv`` module's default dialect: rows end in ``\\r\\n``, a float is
    written as its ``repr`` and None as an empty field.

    The header, whose market ids may need quoting, goes through
    ``csv.writer``; each row, as wide as the header (two fields or more),
    through one ``%s`` format string, which gives ``csv.writer``'s bytes
    for numbers, None and words that need no quoting (the summary's metric
    names). No number's text holds ``None``, so each one in a line is a
    None field, emptied."""
    path.parent.mkdir(parents=True, exist_ok=True)
    line = ",".join(["%s"] * len(header)) + "\r\n"
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(header)
        lines = map(line.__mod__, rows)
        handle.writelines(map(str.replace, lines, itertools.repeat("None"), itertools.repeat("")))
    return path


def _write_json(path: Path, payload: object) -> Path:
    """Write ``payload`` to the UTF-8 JSON file at ``path``, indented by two
    spaces and ending in a newline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def save_snapshots(
    series: SnapshotSeries, manifest: DatasetManifest, directory: Path
) -> list[Path]:
    """Write a series in the canonical layout; returns the written paths.
    The manifest file lists the series' markets and period."""
    directory = Path(directory)
    written = [_save_manifest(manifest, series, directory)]
    columns = (series.supplied, series.borrowed, series.borrow_rate, series.rate_at_target)
    for meta, *values, targets in zip(series.markets, *columns):
        rows = zip(series.timestamps, *values, itertools.repeat(None) if targets is None else targets)
        written.append(_write_csv(directory / f"market_{meta.market_id}.csv", _MARKET_HEADER, rows))
    rows = zip(series.timestamps, series.staking_rates)
    written.append(_write_csv(directory / "staking.csv", _STAKING_HEADER, rows))
    return written


def load_snapshots(path: Path) -> SnapshotSeries:
    """Load and validate a dataset directory into a snapshot series.

    Market files must share one timestamp grid; the staking series is joined
    onto it, holding the last observation between staking timestamps. Grid
    times before the first staking observation take its rate: a warning
    says how many there are. Gaps in the grid wider than the cadence are
    warned of, and never filled in.
    """
    directory = _manifest_path(Path(path)).parent
    manifest, markets = _read_manifest(directory)
    if not markets:
        raise DataError(f"dataset at {directory} has no market files")
    paths = [directory / f"market_{m.market_id}.csv" for m in markets]

    # The first market file's timestamp text and its parse; a file that
    # spells its timestamps the same way reuses the parse.
    first = None
    columns = []
    for mpath in paths:
        _, (times, *values, targets) = _read_columns(mpath, _MARKET_HEADER)
        grid = first[1] if first and times == first[0] else _timestamps(times, mpath)
        first = first or (times, grid)
        # Empty fields mean no rate-at-target, in every row or in none.
        targets = _floats(targets, mpath) if any(targets) else None
        columns.append((grid, *(_floats(v, mpath) for v in values), targets))
    grids, supplied, borrowed, rates, targets = zip(*columns)
    if not any(grids):
        raise DataError(f"{paths[0]}: market series is empty")
    staking_path = directory / "staking.csv"
    _, (times, staking) = _read_columns(staking_path, _STAKING_HEADER)
    if not times:
        raise DataError(f"{directory}: staking series is empty")
    times = grids[0] if times == first[0] else _timestamps(times, staking_path)
    staking = _floats(staking, staking_path)
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
    if times is grids[0]:
        # On the grid, each rate is the last observation at or before its
        # time: the column is its own join.
        first_observed = times[0]
    else:
        observed = sorted(zip(times, staking), key=lambda item: item[0])
        staking, first_observed = tuple(staking_rates_at(grids[0], observed)), observed[0][0]
    series = SnapshotSeries(
        markets=markets,
        timestamps=grids[0],
        staking_rates=staking,
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
    _warn_back_fill(directory, series.timestamps, first_observed)
    return series


def _warn_back_fill(directory: Path, timestamps: Sequence[int], first_observed: int) -> None:
    """Warn, for the caller's caller, of the grid times before the first
    staking observation, which take its rate."""
    if filled := bisect.bisect_left(timestamps, first_observed):
        warnings.warn(
            f"dataset at {directory}: {filled} snapshot(s) before the first staking "
            f"observation at {first_observed} take its rate",
            stacklevel=3,
        )


def staking_rates_at(
    timestamps: Sequence[int], staking: Sequence[tuple[int, float]]
) -> list[float]:
    """Last rate of the time-sorted ``(timestamp, rate)`` list at or before
    each timestamp of the increasing grid; the first rate before the first
    observation. One forward pass over both."""
    rates, j, last = [], 0, len(staking) - 1
    for t in timestamps:
        while j < last and staking[j + 1][0] <= t:
            j += 1
        rates.append(staking[j][1])
    return rates


def scan_gaps(series: SnapshotSeries, cadence_seconds: int) -> list[tuple[int, int]]:
    """Intervals longer than the declared cadence, reported, never filled."""
    ts = series.timestamps
    return [(a, b) for a, b in zip(ts, ts[1:]) if b - a > cadence_seconds]


# --- synthetic datasets ----------------------------------------------------

_DEFAULT_START = 1735689600  # 2025-01-01T00:00:00Z
# The most snapshots a synthetic spec may ask for: about 114 years hourly.
MAX_SYNTHETIC_SNAPSHOTS = 10**6


@dataclass(frozen=True)
class SyntheticMarketSpec:
    """Recipe for one synthetic market's borrow-rate path.

    The borrow rate is ``rate_level``, plus a sine of ``amplitude`` and
    ``period_days`` when the amplitude is not 0. The path is realized
    through the adaptive model: utilization stays at ``utilization`` and
    rate_at_target is back-solved so the observed rate follows the path
    (optionally with seeded noise).
    """

    market_id: str
    lltv: float = 0.945
    supplied: float = 2000.0
    utilization: float = 0.8
    rate_level: float = 0.02
    amplitude: float = 0.0
    period_days: float = 14.0
    noise: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.utilization < 1.0:
            raise DomainError("utilization must be in (0, 1)")
        if self.supplied <= 0.0 or self.rate_level <= 0.0:
            raise DomainError("supplied and rate_level must be positive")
        if self.noise < 0.0 or self.amplitude < 0.0:
            raise DomainError("noise and amplitude must be non-negative")
        if not 0.0 < self.period_days < math.inf:
            raise DomainError(f"period_days must be positive and finite, got {self.period_days}")


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
        steps = self.days * SECONDS_PER_DAY / self.cadence_seconds
        if not math.isfinite(steps):
            raise DomainError(
                f"days {self.days} is too long for the {self.cadence_seconds}s cadence: "
                "the snapshot count overflows"
            )
        object.__setattr__(self, "_count", int(steps) + 1)  # the count generate_synthetic reads
        if self._count > MAX_SYNTHETIC_SNAPSHOTS:
            raise DomainError(
                f"days {self.days} at the {self.cadence_seconds}s cadence gives {self._count} "
                f"snapshots, more than the bound of {MAX_SYNTHETIC_SNAPSHOTS}"
            )
        if self.staking_rate < 0.0:
            raise DomainError("staking_rate must be non-negative")
        for m in self.markets:
            # The phase at ``days`` bounds, to within rounding, every phase _rate_at computes.
            if m.amplitude and math.isinf(2.0 * math.pi * self.days / m.period_days):
                raise DomainError(
                    f"period_days {m.period_days} of market {m.market_id} is too short "
                    f"for {self.days} days: the sine's phase overflows"
                )


def _rate_at(spec: SyntheticMarketSpec, day: float, rng: random.Random) -> float:
    rate = spec.rate_level
    if spec.amplitude:
        rate += spec.amplitude * math.sin(2.0 * math.pi * day / spec.period_days)
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
    count = spec._count
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
                rate_level=0.029,
                amplitude=0.012,
                period_days=18.0,
            ),
            SyntheticMarketSpec(
                market_id="alt",
                supplied=800.0,
                utilization=0.75,
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
                rate_level=0.030,
                amplitude=0.006,
                period_days=4.0,
                noise=0.004,
            ),
            SyntheticMarketSpec(
                market_id="alt",
                supplied=1200.0,
                utilization=0.75,
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
    if isinstance(result, BacktestResult):
        return _emit_backtest(result, directory)
    curve = list(map(tuple, result))
    return [
        _write_csv(directory / f"{label}_curve.csv", ["budget", "apy"], curve),
        _write_json(directory / f"{label}_curve.json", [{"budget": b, "apy": a} for b, a in curve]),
    ]


def _positions_header(market_ids: Sequence[str]) -> list[str]:
    """The header of ``positions.csv``: a collateral and a debt column per market."""
    pairs = [f"{kind}_{mid}" for mid in market_ids for kind in ("collateral", "debt")]
    return ["timestamp", "unleveraged", *pairs]


def _emit_backtest(result: BacktestResult, directory: Path) -> list[Path]:
    flows = (result.equity, result.staking_accrued, result.interest_paid, result.fees_paid)
    # Debts are negative positions.
    holdings = [column for c, d in zip(result.collateral, result.debt) for column in (c, map(neg, d))]
    positions = zip(result.timestamps, result.unleveraged, *holdings)
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
    metrics = ("apy", "rebalance_count", "total_fees_paid", "start_equity", "end_equity")
    return [
        _write_csv(directory / "equity_curve.csv", _EQUITY_HEADER, zip(result.timestamps, *flows)),
        _write_csv(directory / "positions.csv", _positions_header(result.market_ids), positions),
        _write_json(directory / "summary.json", summary),
        _write_csv(directory / "summary.csv", ["metric", "value"], ((k, summary[k]) for k in metrics)),
    ]


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
    ids = [name.removeprefix("collateral_") for name in header[2::2]]
    if header != _positions_header(ids) or not all(ids):
        raise DataError(f"{path}: unexpected positions header")
    values = [_floats(column, path) for column in columns[1:]]
    return PositionHistory(
        timestamps=_timestamps(columns[0], path),
        unleveraged=values[0],
        collateral=tuple(values[1::2]),
        debt=tuple(tuple(map(neg, v)) for v in values[2::2]),
    )


# The Python types of a JSON value of each kind, and its name.
_JSON_KINDS = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    bool: (bool, "a boolean"),
    str: (str, "a string"),
    list: (list, "a list"),
}


def _checked(value: object, kind: type, where: str) -> object:
    """``value`` when it is a JSON value of ``kind``, else a ``DataError``
    naming ``where``. JSON true and false are no numbers, and a number is
    one a float can hold."""
    types, name = _JSON_KINDS[kind]
    if not isinstance(value, types) or isinstance(value, bool) is not (kind is bool):
        raise DataError(f"{where} must be {name}, got {type(value).__name__}")
    if kind is float:
        try:
            float(value)
        except OverflowError:
            raise DataError(f"{where} must be a number, got an integer too large for a float") from None
    return value


def irm_from_dict(raw: dict) -> object:
    """Parse a rate-model description used in CLI flags and config files.
    Every field but ``kind`` must be a number a float can hold: JSON true,
    false and strings are refused."""
    kind = raw.get("kind")
    fields = {k: _checked(v, float, k) for k, v in raw.items() if k != "kind"}
    try:
        if kind == "linear":
            return LinearIrmParams(**fields)
        if kind == "kinked":
            return KinkedIrmParams(**fields)
        if kind == "adaptive":
            fields.setdefault("t_last", 0.0)
            fields.setdefault("u_last", fields.get("u_target", 0.9))
            return AdaptiveIrmParams(**fields)
    except TypeError as exc:
        raise DataError(f"bad rate model fields for kind {kind!r}: {exc}") from exc
    raise DataError(f"unknown rate model kind {kind!r} (use linear/kinked/adaptive)")
