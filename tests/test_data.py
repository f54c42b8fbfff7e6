from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from stakeloop import data
from stakeloop.backtest import (
    BacktestConfig,
    SnapshotSeries,
    run_backtest,
    sweep_budgets,
)
from stakeloop.data import (
    DatasetManifest,
    SyntheticMarketSpec,
    SyntheticSpec,
    emit_report,
    generate_synthetic,
    irm_from_dict,
    load_manifest,
    load_position_history,
    load_snapshots,
    save_snapshots,
    scan_gaps,
    scenario,
    scenario_names,
)
from stakeloop.errors import DataError, DomainError, ValidationError
from stakeloop.irm import KinkedIrmParams, LinearIrmParams
from stakeloop.rebalance import FeeModel
from stakeloop.units import SECONDS_PER_DAY, SECONDS_PER_HOUR


class TestSynthetic:
    def test_record_count(self):
        spec = SyntheticSpec(
            markets=(SyntheticMarketSpec(market_id="m"),), days=90.0
        )
        series, manifest = generate_synthetic(spec, seed=0)
        assert len(series.snapshots) == 90 * 24 + 1
        assert manifest.source == "synthetic"
        assert manifest.cadence_seconds == SECONDS_PER_HOUR

    def test_deterministic_from_seed(self):
        spec = scenario("volatile")
        a, _ = generate_synthetic(spec, seed=42)
        b, _ = generate_synthetic(spec, seed=42)
        assert a == b
        c, _ = generate_synthetic(spec, seed=43)
        assert a != c

    def test_sine_crossing_alternates_carry_sign(self):
        spec = SyntheticSpec(
            markets=(
                SyntheticMarketSpec(
                    market_id="m",
                    rate_level=0.031,
                    amplitude=0.01,
                    period_days=10.0,
                ),
            ),
            staking_rate=0.031,
            days=30.0,
        )
        series, _ = generate_synthetic(spec, seed=0)
        signs = []
        for snap in series.snapshots:
            carry = snap.staking_rate - snap.markets["m"].borrow_rate
            if abs(carry) > 1e-6:
                sign = carry > 0
                if not signs or signs[-1] != sign:
                    signs.append(sign)
        assert len(signs) >= 5  # strictly alternating by construction

    def test_rate_at_target_reproduces_observed_rate(self):
        from stakeloop.irm import AdaptiveIrmParams, borrow_rate

        series, _ = generate_synthetic(scenario("positive-carry"), seed=1)
        snap = series.snapshots[7]
        ms = snap.markets["core"]
        irm = AdaptiveIrmParams(
            rate_at_target=ms.rate_at_target,
            curve_steepness=4.0,
            u_target=0.9,
            adjustment_speed=50.0,
            t_last=snap.timestamp,
            u_last=ms.borrowed / ms.supplied,
        )
        assert borrow_rate(irm, ms.supplied, ms.borrowed, 0.0) == pytest.approx(
            ms.borrow_rate, rel=1e-12
        )

    def test_scenarios_available(self):
        names = scenario_names()
        for required in (
            "positive-carry",
            "rate-crossing",
            "saturating-small-market",
            "volatile",
        ):
            assert required in names
        with pytest.raises(DomainError):
            scenario("missing")

    @pytest.mark.parametrize("cadence", [1800.5, 3600.0, 0, -5])
    def test_cadence_must_be_a_positive_integer(self, cadence):
        with pytest.raises(DomainError, match="cadence_seconds must be a positive integer"):
            SyntheticSpec(markets=(SyntheticMarketSpec(market_id="m"),), cadence_seconds=cadence)

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: SyntheticMarketSpec("m", period_days=0.0),
                "period_days must be positive and finite, got 0.0",
            ),
            (lambda: SyntheticMarketSpec("m", utilization=1.0), "utilization must be in (0, 1)"),
            (lambda: SyntheticMarketSpec("m", supplied=0.0), "supplied and rate_level must be positive"),
            (lambda: SyntheticMarketSpec("m", noise=-0.1), "noise and amplitude must be non-negative"),
            (lambda: SyntheticSpec(markets=()), "at least one synthetic market is required"),
            (
                lambda: SyntheticSpec(markets=(SyntheticMarketSpec("m"),), staking_rate=-0.01),
                "staking_rate must be non-negative",
            ),
            (
                lambda: SyntheticSpec(markets=(SyntheticMarketSpec("m"),), days=1e305),
                "days 1e+305 is too long for the 3600s cadence: the snapshot count overflows",
            ),
            (
                lambda: SyntheticSpec(markets=(SyntheticMarketSpec("m"),), days=1e9),
                "days 1000000000.0 at the 3600s cadence gives 24000000001 snapshots, "
                "more than the bound of 1000000",
            ),
        ],
        ids=["period", "utilization", "supplied", "noise", "no-markets", "staking", "days-overflow", "days-bound"],
    )
    def test_spec_out_of_range_rejected(self, build, message):
        with pytest.raises(DomainError) as err:
            build()
        assert str(err.value) == message

    def test_flat_market_is_its_rate_level_at_every_snapshot(self):
        spec = SyntheticSpec(markets=(SyntheticMarketSpec("m", rate_level=0.023, period_days=3.0),), days=5.0)
        series, _ = generate_synthetic(spec, seed=0)
        assert series.borrow_rate == ((0.023,) * len(series.timestamps),)

    def test_amplitude_alone_gives_the_sine(self):
        market = SyntheticMarketSpec("m", rate_level=0.03, amplitude=0.01, period_days=2.0)
        series, _ = generate_synthetic(SyntheticSpec(markets=(market,), days=4.0), seed=0)
        days = [(t - series.timestamps[0]) / SECONDS_PER_DAY for t in series.timestamps]
        assert series.borrow_rate == (tuple(0.03 + 0.01 * math.sin(2.0 * math.pi * d / 2.0) for d in days),)

    @pytest.mark.parametrize("period", [math.nan, math.inf, -1.0])
    def test_period_that_is_not_positive_and_finite_rejected(self, period):
        with pytest.raises(DomainError) as err:
            SyntheticMarketSpec("m", period_days=period)
        assert str(err.value) == f"period_days must be positive and finite, got {period}"

    def test_period_whose_phase_overflows_rejected(self):
        market = SyntheticMarketSpec("m", amplitude=0.01, period_days=1e-320)
        with pytest.raises(DomainError) as err:
            SyntheticSpec(markets=(market,), days=2.0)
        assert str(err.value) == (
            "period_days 1e-320 of market m is too short for 2.0 days: the sine's phase overflows"
        )
        # A flat market never computes the phase.
        SyntheticSpec(markets=(replace(market, amplitude=0.0),), days=2.0)

    def test_snapshot_bound_is_inclusive(self):
        # Daily, ``days`` days are ``days + 1`` snapshots; nothing is generated.
        markets = (SyntheticMarketSpec("m"),)
        SyntheticSpec(markets=markets, days=999_999.0, cadence_seconds=SECONDS_PER_DAY)
        with pytest.raises(DomainError, match="gives 1000001 snapshots, more than the bound of 1000000"):
            SyntheticSpec(markets=markets, days=1_000_000.0, cadence_seconds=SECONDS_PER_DAY)


class TestRoundTrip:
    def test_save_and_load_identical(self, tmp_path):
        series, manifest = generate_synthetic(scenario("volatile"), seed=9)
        save_snapshots(series, manifest, tmp_path / "ds")
        loaded = load_snapshots(tmp_path / "ds")
        assert loaded == series
        assert load_manifest(tmp_path / "ds") == manifest

    def test_markets_come_from_the_series(self, tmp_path):
        spec = SyntheticSpec(
            markets=(SyntheticMarketSpec(market_id="zeta"), SyntheticMarketSpec(market_id="alpha")),
            days=1.0,
        )
        series, _ = generate_synthetic(spec, seed=0)
        assert [m.max_ltv for m in series.markets] == [0.945, 0.945]
        # A manifest holds no markets, so it cannot disagree with the series.
        save_snapshots(series, DatasetManifest("ethereum", SECONDS_PER_HOUR, "fetched"), tmp_path)
        loaded = load_snapshots(tmp_path)
        assert loaded.markets == series.markets
        assert loaded.market_ids == ("zeta", "alpha")
        raw = json.loads((tmp_path / "manifest.json").read_text())
        assert [(m["id"], m["lltv"]) for m in raw["markets"]] == [("zeta", 0.945), ("alpha", 0.945)]
        assert (raw["period_start"], raw["period_end"]) == (series.timestamps[0], series.timestamps[-1])

    def test_loads_with_no_validation_errors(self, tmp_path):
        series, manifest = generate_synthetic(scenario("rate-crossing"), seed=2)
        save_snapshots(series, manifest, tmp_path / "ds")
        loaded = load_snapshots(tmp_path / "ds")
        assert len(loaded.snapshots) == len(series.snapshots)

    def test_daily_staking_held_constant(self, tmp_path):
        series, manifest = generate_synthetic(scenario("positive-carry"), seed=0)
        directory = tmp_path / "ds"
        save_snapshots(series, manifest, directory)
        # thin the staking file to one record per day
        staking = (directory / "staking.csv").read_text().splitlines()
        kept = [staking[0]] + staking[1::24]
        (directory / "staking.csv").write_text("\n".join(kept) + "\n")
        loaded = load_snapshots(directory)
        assert all(s.staking_rate == series.snapshots[0].staking_rate for s in loaded.snapshots)


def _respell(path: Path, spell) -> None:
    """Rewrite the timestamp field of every row of the CSV at ``path`` as ``spell(t)``."""
    header, *rows = path.read_text().splitlines()
    respelled = (f"{spell(int(t))},{rest}" for t, rest in (row.split(",", 1) for row in rows))
    path.write_text("".join(f"{line}\n" for line in (header, *respelled)))


_SPELLINGS = {"point-zero": lambda t: f"{t}.0", "exponent": lambda t: f"{t / 1e9!r}e9"}


class TestSharedGrid:
    """Timestamps that spell the first market file's grid otherwise, a grid
    that differs from a header-only first file, and a daily staking file on
    an hourly grid all load as a load that parses every file gives."""

    @pytest.mark.parametrize("spelling", _SPELLINGS)
    @pytest.mark.parametrize("name", ["market_core.csv", "market_alt.csv", "staking.csv"])
    def test_timestamps_spelled_otherwise_load_the_same_series(self, tmp_path, name, spelling):
        series, manifest = generate_synthetic(replace(scenario("volatile"), days=3.0), seed=0)
        save_snapshots(series, manifest, tmp_path)
        canonical = load_snapshots(tmp_path)
        spell = _SPELLINGS[spelling]
        assert spell(series.timestamps[0]) in ("1735689600.0", "1.7356896e9")
        assert all(float(spell(t)) == t for t in series.timestamps)
        _respell(tmp_path / name, spell)
        assert repr(load_snapshots(tmp_path)) == repr(canonical)

    def test_header_only_first_market_file_differs_from_each_later_grid(self, tmp_path):
        spec = SyntheticSpec(markets=tuple(SyntheticMarketSpec(market_id=m) for m in "abc"), days=1.0)
        series, manifest = generate_synthetic(spec, seed=0)
        save_snapshots(series, manifest, tmp_path)
        first = tmp_path / "market_a.csv"
        first.write_text(first.read_text().splitlines()[0] + "\n")
        with pytest.raises(ValidationError) as err:
            load_snapshots(tmp_path)
        assert err.value.records == [
            f"{tmp_path / f'market_{m}.csv'}: timestamp grid differs from market a" for m in "bc"
        ]

    def test_daily_staking_under_an_hourly_grid_joins_as_before(self, tmp_path):
        series, manifest = generate_synthetic(replace(scenario("volatile"), days=3.0), seed=0)
        save_snapshots(series, manifest, tmp_path)
        ts = series.timestamps
        # A rate a day at 05:00, each day's its own.
        daily = [(t, 0.03 + 1e-3 * day) for day, t in enumerate(ts[5::24])]
        (tmp_path / "staking.csv").write_text(
            "timestamp,staking_rate\n" + "".join(f"{t},{rate!r}\n" for t, rate in daily)
        )
        with pytest.warns(UserWarning, match=r"5 snapshot\(s\) before the first staking observation"):
            loaded = load_snapshots(tmp_path)
        expected = tuple(([rate for t0, rate in daily if t0 <= t] or [daily[0][1]])[-1] for t in ts)
        assert repr(loaded) == repr(replace(series, staking_rates=expected))

    def test_the_grid_is_parsed_once(self, tmp_path, monkeypatch):
        series, manifest = generate_synthetic(replace(scenario("volatile"), days=3.0), seed=0)
        save_snapshots(series, manifest, tmp_path)
        parsed, timestamps = [], data._timestamps

        def counting(column, path):
            parsed.append(path)
            return timestamps(column, path)

        monkeypatch.setattr(data, "_timestamps", counting)
        assert load_snapshots(tmp_path) == series
        assert parsed == [tmp_path / "market_core.csv"]


def _edit_manifest(edit):
    def mutate(directory):
        path = directory / "manifest.json"
        raw = json.loads(path.read_text())
        edit(raw)
        path.write_text(json.dumps(raw))

    return mutate


class TestValidation:
    def _write(self, tmp_path, mutate):
        series, manifest = generate_synthetic(
            SyntheticSpec(markets=(SyntheticMarketSpec(market_id="m"),), days=2.0),
            seed=0,
        )
        directory = tmp_path / "ds"
        save_snapshots(series, manifest, directory)
        mutate(directory)
        return directory

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (_edit_manifest(lambda raw: raw.update(source="scraped")),
             "{ds}/manifest.json: unknown source 'scraped'"),
            (lambda ds: (ds / "manifest.json").write_text("not json"),
             "{ds}/manifest.json: invalid JSON (Expecting value: line 1 column 1 (char 0))"),
            (_edit_manifest(lambda raw: raw.update(schema_version=2)),
             "{ds}/manifest.json: schema_version 2 unsupported (expected 1)"),
            (_edit_manifest(lambda raw: raw.pop("chain")), "{ds}/manifest.json: missing manifest field 'chain'"),
            (_edit_manifest(lambda raw: raw.update(markets=[])), "dataset at {ds} has no market files"),
            (lambda ds: (ds / "market_m.csv").unlink(), "file not found: {ds}/market_m.csv"),
            (lambda ds: (ds / "market_m.csv").write_text(""), "{ds}/market_m.csv: empty file"),
            (lambda ds: (ds / "staking.csv").write_text("time,rate\n"),
             "{ds}/staking.csv: expected header timestamp,staking_rate"),
            (lambda ds: (ds / "staking.csv").write_text("timestamp,staking_rate\n"),
             "{ds}: staking series is empty"),
        ],
        ids=["source", "json", "schema-version", "missing-field", "no-markets", "no-file",
             "empty-file", "header", "no-staking"],
    )
    def test_malformed_dataset_rejected(self, mutate, message, tmp_path):
        directory = self._write(tmp_path, mutate)
        with pytest.raises(DataError) as err:
            load_snapshots(directory)
        assert str(err.value) == message.format(ds=directory)

    def test_borrowed_over_supplied_names_market_and_timestamp(self, tmp_path):
        def corrupt(directory):
            path = directory / "market_m.csv"
            lines = path.read_text().splitlines()
            parts = lines[5].split(",")
            parts[2] = repr(float(parts[1]) * 2)  # borrowed = 2x supplied
            lines[5] = ",".join(parts)
            path.write_text("\n".join(lines) + "\n")

        directory = self._write(tmp_path, corrupt)
        with pytest.raises(ValidationError) as err:
            load_snapshots(directory)
        assert any("m" in rec and "borrowed" in rec for rec in err.value.records)

    def test_out_of_order_timestamps_rejected(self, tmp_path):
        def corrupt(directory):
            path = directory / "market_m.csv"
            lines = path.read_text().splitlines()
            lines[3], lines[4] = lines[4], lines[3]
            path.write_text("\n".join(lines) + "\n")

        directory = self._write(tmp_path, corrupt)
        with pytest.raises(ValidationError) as err:
            load_snapshots(directory)
        assert any("out of order" in rec for rec in err.value.records)

    def test_market_listed_twice_rejected(self, tmp_path):
        def corrupt(directory):
            path = directory / "manifest.json"
            raw = json.loads(path.read_text())
            raw["markets"].append(raw["markets"][0])
            path.write_text(json.dumps(raw))

        directory = self._write(tmp_path, corrupt)
        with pytest.raises(ValidationError) as err:
            load_snapshots(directory)
        assert err.value.records == ["market m: listed 2 times"]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_snapshots(tmp_path / "nowhere")

    def test_negative_staking_rate_rejected(self, tmp_path):
        def corrupt(directory):
            path = directory / "staking.csv"
            lines = path.read_text().splitlines()
            parts = lines[1].split(",")
            parts[1] = "-0.01"
            lines[1] = ",".join(parts)
            path.write_text("\n".join(lines) + "\n")

        directory = self._write(tmp_path, corrupt)
        with pytest.raises(ValidationError) as err:
            load_snapshots(directory)
        assert any("negative staking rate" in rec for rec in err.value.records)

    def test_repeated_staking_timestamp_rejected(self, tmp_path):
        def corrupt(directory):
            path = directory / "staking.csv"
            lines = path.read_text().splitlines()
            repeated = lines[2].split(",")[0]
            lines.insert(3, f"{repeated},0.5")  # line 4 repeats line 3's timestamp
            path.write_text("\n".join(lines) + "\n")

        directory = self._write(tmp_path, corrupt)
        with pytest.raises(ValidationError) as err:
            load_snapshots(directory)
        repeated = (directory / "staking.csv").read_text().splitlines()[2].split(",")[0]
        assert err.value.records == [f"{directory / 'staking.csv'}:4: timestamp {repeated} repeated"]

    def test_staking_rows_out_of_order_are_sorted(self, tmp_path):
        def shuffle(directory):
            path = directory / "staking.csv"
            header, *rows = path.read_text().splitlines()
            path.write_text("\n".join([header, *reversed(rows)]) + "\n")

        plain = load_snapshots(self._write(tmp_path / "plain", lambda directory: None))
        shuffled = load_snapshots(self._write(tmp_path / "shuffled", shuffle))
        assert shuffled.staking_rates == plain.staking_rates

    def test_non_numeric_field_has_line_context(self, tmp_path):
        def corrupt(directory):
            path = directory / "market_m.csv"
            lines = path.read_text().splitlines()
            parts = lines[2].split(",")
            parts[1] = "xyz"
            lines[2] = ",".join(parts)
            path.write_text("\n".join(lines) + "\n")

        directory = self._write(tmp_path, corrupt)
        with pytest.raises(DataError) as err:
            load_snapshots(directory)
        assert "market_m.csv:3" in str(err.value)

    @pytest.mark.parametrize("name", ["market_m.csv", "staking.csv"])
    def test_short_row_has_line_context(self, tmp_path, name):
        def corrupt(directory):
            path = directory / name
            lines = path.read_text().splitlines()
            lines[2] = lines[2].split(",")[0]
            path.write_text("\n".join(lines) + "\n")

        directory = self._write(tmp_path, corrupt)
        with pytest.raises(DataError, match=f"{name}:3: expected [25] fields, got 1"):
            load_snapshots(directory)

    def test_non_finite_field_has_line_context(self, tmp_path):
        def corrupt(directory):
            path = directory / "market_m.csv"
            lines = path.read_text().splitlines()
            parts = lines[4].split(",")
            parts[3] = "nan"
            lines[4] = ",".join(parts)
            path.write_text("\n".join(lines) + "\n")

        directory = self._write(tmp_path, corrupt)
        with pytest.raises(DataError, match="market_m.csv:5: non-finite value 'nan'"):
            load_snapshots(directory)

    @pytest.mark.parametrize("name", ["market_m.csv", "staking.csv"])
    def test_fractional_timestamp_has_line_context(self, tmp_path, name):
        def corrupt(directory):
            path = directory / name
            lines = path.read_text().splitlines()
            parts = lines[2].split(",")
            parts[0] += ".7"
            lines[2] = ",".join(parts)
            path.write_text("\n".join(lines) + "\n")

        directory = self._write(tmp_path, corrupt)
        with pytest.raises(DataError, match=rf"{name}:3: fractional timestamp '\d+\.7'"):
            load_snapshots(directory)

    def test_rate_at_target_in_some_rows_only_rejected(self, tmp_path):
        def corrupt(directory):
            path = directory / "market_m.csv"
            lines = path.read_text().splitlines()
            lines[6] = lines[6].rsplit(",", 1)[0] + ","
            path.write_text("\n".join(lines) + "\n")

        directory = self._write(tmp_path, corrupt)
        with pytest.raises(DataError, match="market_m.csv:7: not a number: ''"):
            load_snapshots(directory)

    def test_loader_warns_about_gaps(self, tmp_path):
        import warnings as warnings_module

        series, manifest = generate_synthetic(
            SyntheticSpec(markets=(SyntheticMarketSpec(market_id="m"),), days=1.0),
            seed=0,
        )
        thinned = SnapshotSeries.from_rows(
            series.markets, series.snapshots[:5] + series.snapshots[8:]
        )
        directory = tmp_path / "ds"
        save_snapshots(thinned, manifest, directory)
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            load_snapshots(directory)
        assert any("gap" in str(w.message) for w in caught)

    def test_staking_that_starts_late_is_back_filled_with_a_warning(self, tmp_path):
        series, manifest = generate_synthetic(scenario("positive-carry"), seed=0)
        directory = tmp_path / "ds"
        save_snapshots(series, manifest, directory)
        day45 = series.timestamps[0] + 45 * SECONDS_PER_DAY
        (directory / "staking.csv").write_text(f"timestamp,staking_rate\n{day45},0.04\n")
        with pytest.warns(UserWarning) as caught:
            loaded = load_snapshots(directory)
        assert [str(w.message) for w in caught] == [
            f"dataset at {directory}: 1080 snapshot(s) before the first staking "
            f"observation at {day45} take its rate"
        ]
        assert set(loaded.staking_rates) == {0.04}

    @pytest.mark.parametrize("name", scenario_names())
    def test_bundled_scenarios_load_without_a_warning(self, name, tmp_path):
        series, manifest = generate_synthetic(scenario(name), seed=0)
        save_snapshots(series, manifest, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_snapshots(tmp_path) == series

    @pytest.mark.parametrize("name", ["manifest.json", "staking.csv"])
    def test_file_that_is_not_utf8_is_named(self, tmp_path, name):
        def corrupt(directory):
            path = directory / name
            path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))

        directory = self._write(tmp_path, corrupt)
        with pytest.raises(DataError) as err:
            load_snapshots(directory)
        assert str(err.value).startswith(
            f"{directory / name}: not UTF-8 text ('utf-8' codec can't decode byte 0xff"
        )

    def test_gap_scan_reports_missing_hours(self):
        series, _ = generate_synthetic(
            SyntheticSpec(markets=(SyntheticMarketSpec(market_id="m"),), days=1.0),
            seed=0,
        )
        thinned = SnapshotSeries.from_rows(
            series.markets, series.snapshots[:5] + series.snapshots[8:]
        )
        gaps = scan_gaps(thinned, SECONDS_PER_HOUR)
        assert len(gaps) == 1
        assert gaps[0][1] - gaps[0][0] == 4 * SECONDS_PER_HOUR


def _edit_line(path, lineno, edit):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = ",".join(edit(lines[lineno - 1].split(",")))
    path.write_text("\n".join(lines) + "\n")


def _set_field(index, value):
    def edit(parts):
        parts[index] = value(parts) if callable(value) else value
        return parts

    return edit


class TestColumnScans:
    """One bad record deep in long columns: the loader's checks scan whole
    columns first and fall back to their record loops, and the series check
    runs its record loop; each text and record is what a record-by-record
    check gives."""

    LINE = 2000  # of 2162 lines per file

    def _dataset(self, tmp_path):
        series, manifest = generate_synthetic(scenario("rate-crossing"), seed=0)
        directory = tmp_path / "ds"
        save_snapshots(series, manifest, directory)
        return series, directory

    def test_clean_dataset_loads(self, tmp_path):
        series, directory = self._dataset(tmp_path)
        assert load_snapshots(directory) == series

    def test_nan_field(self, tmp_path):
        _, directory = self._dataset(tmp_path)
        path = directory / "market_alt.csv"
        _edit_line(path, self.LINE, _set_field(1, "nan"))
        with pytest.raises(DataError) as err:
            load_snapshots(directory)
        assert str(err.value) == f"{path}:2000: non-finite value 'nan'"

    def test_borrowed_over_supplied(self, tmp_path):
        _, directory = self._dataset(tmp_path)
        path = directory / "market_alt.csv"
        _edit_line(path, self.LINE, _set_field(2, lambda parts: repr(float(parts[1]) * 2)))
        borrowed = float(path.read_text().splitlines()[self.LINE - 1].split(",")[2])
        with pytest.raises(ValidationError) as err:
            load_snapshots(directory)
        assert str(err.value) == f"dataset at {directory} failed validation (1 records)"
        assert err.value.records == [f"{path}:2000: borrowed {borrowed} outside [0, supplied]"]

    def test_out_of_order_timestamp(self, tmp_path):
        series, directory = self._dataset(tmp_path)
        for market in ("core", "alt"):  # one grid, out of order
            path = directory / f"market_{market}.csv"
            lines = path.read_text().splitlines()
            lines[self.LINE - 2], lines[self.LINE - 1] = lines[self.LINE - 1], lines[self.LINE - 2]
            path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as err:
            load_snapshots(directory)
        assert str(err.value) == f"dataset at {directory} failed validation (1 records)"
        t = series.timestamps[self.LINE - 3]
        assert err.value.records == [f"{directory / 'market_core.csv'}:2000: timestamp {t} out of order"]

    def test_fractional_timestamp(self, tmp_path):
        _, directory = self._dataset(tmp_path)
        path = directory / "market_core.csv"
        _edit_line(path, self.LINE, _set_field(0, lambda parts: parts[0] + ".5"))
        t = path.read_text().splitlines()[self.LINE - 1].split(",")[0]
        with pytest.raises(DataError) as err:
            load_snapshots(directory)
        assert str(err.value) == f"{path}:2000: fractional timestamp '{t}'"

    def test_repeated_and_negative_staking_rows(self, tmp_path):
        series, directory = self._dataset(tmp_path)
        path = directory / "staking.csv"
        _edit_line(path, self.LINE, _set_field(0, str(series.timestamps[self.LINE - 3])))
        _edit_line(path, self.LINE + 1, _set_field(1, "-0.01"))
        with pytest.raises(ValidationError) as err:
            load_snapshots(directory)
        assert str(err.value) == f"dataset at {directory} failed validation (2 records)"
        assert err.value.records == [
            f"{path}:2000: timestamp {series.timestamps[self.LINE - 3]} repeated",
            f"{path}:2001: negative staking rate",
        ]

    def test_short_row(self, tmp_path):
        _, directory = self._dataset(tmp_path)
        path = directory / "market_alt.csv"
        _edit_line(path, self.LINE, lambda parts: parts[:3])
        with pytest.raises(DataError) as err:
            load_snapshots(directory)
        assert str(err.value) == f"{path}:2000: expected 5 fields, got 3"

    def test_bad_records_of_a_series_built_directly(self):
        series, _ = generate_synthetic(scenario("rate-crossing"), seed=0)
        k = self.LINE - 2
        t = series.timestamps[k]

        def at(column, value):
            return column[:k] + (value,) + column[k + 1 :]

        cases = {
            "supplied": (
                {"supplied": (series.supplied[0], at(series.supplied[1], math.nan))},
                [f"t={t} market alt: supplied nan is not finite"],
            ),
            "borrowed": (
                {"borrowed": (at(series.borrowed[0], 1e9), series.borrowed[1])},
                [f"t={t} market core: borrowed 1000000000.0 outside [0, supplied]"],
            ),
            "timestamp": (
                {"timestamps": at(series.timestamps, t - 7200)},
                [f"t={t - 7200}: timestamp {t - 7200} out of order"],
            ),
            "staking": (
                {"staking_rates": at(series.staking_rates, math.inf)},
                [f"t={t}: staking_rate inf is not finite"],
            ),
        }
        for name, (changes, records) in cases.items():
            with pytest.raises(ValidationError) as err:
                replace(series, **changes)
            assert str(err.value) == f"snapshot series failed validation ({len(records)} records)", name
            assert err.value.records == records, name


class TestReports:
    def test_backtest_report_files(self, tmp_path):
        series, _ = generate_synthetic(scenario("positive-carry"), seed=0)
        cfg = BacktestConfig(budget=5.0, rebalance_frequency=SECONDS_PER_DAY)
        result = run_backtest(series, cfg)
        paths = emit_report(result, tmp_path / "report")
        names = sorted(p.name for p in paths)
        assert names == [
            "equity_curve.csv",
            "positions.csv",
            "summary.csv",
            "summary.json",
        ]
        for path in paths:
            assert path.exists()
            first = path.read_text().splitlines()[0]
            assert first  # header row present

    def test_backtest_report_bytes_are_pinned(self, tmp_path):
        # A replay with fees, six-hourly rebalances and smoothing. Any change to
        # a float of the replay, its order of summation or its formatting
        # changes these digests.
        series, _ = generate_synthetic(scenario("rate-crossing"), seed=0)
        cfg = BacktestConfig(
            budget=40.0,
            rebalance_frequency=6 * SECONDS_PER_HOUR,
            fees=FeeModel(0.0001, 0.0002, 7.0 / 365.0),
            smoothing_window=12 * SECONDS_PER_HOUR,
        )
        paths = emit_report(run_backtest(series, cfg), tmp_path)
        assert [p.name for p in paths] == ["equity_curve.csv", "positions.csv", "summary.json", "summary.csv"]
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("equity_curve.csv", "positions.csv", "summary.json", "summary.csv")
        }
        assert digests == {
            "equity_curve.csv": "ed0df74bc4c89a2e92d1215f3273eda503d7431c9804e2cb8d0a1ff0c08f0e78",
            "positions.csv": "185038244bb570dd797820a9f87274db86c575ed957b3042741cf0bbe12b216b",
            "summary.json": "f05b5b0979ed5be6942a5ec47f4e756d175d0ba222a6cee0d25dd656a0f2943c",
            "summary.csv": "ef3d4ebe261cd3215d0d4e25763c6cf2b29f22f924c71c0c4fab82f8301e78e1",
        }

    def test_zero_fee_sweep_report_bytes_are_pinned(self, tmp_path):
        # Daily replays without fees, where both fee-shifted rates are one
        # float, from the unsaturated to the saturated regime. Any change to
        # a float of the sweep or its formatting changes this digest.
        series, _ = generate_synthetic(replace(scenario("volatile"), days=20.0), seed=0)
        cfg = BacktestConfig(budget=1.0, rebalance_frequency=SECONDS_PER_DAY)
        assert cfg.fees.gamma_plus == cfg.fees.gamma_minus == 0.0
        curve = sweep_budgets(series, cfg, [10.0**k for k in range(8)])
        assert [p.name for p in emit_report(curve, tmp_path, label="apy")] == ["apy_curve.csv", "apy_curve.json"]
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("apy_curve.json", "apy_curve.csv")
        }
        assert digests == {
            "apy_curve.json": "9cf9274e4f1402dc7eba87875e2a5af88a4274e814edb3c28a65aa74b0d609f1",
            "apy_curve.csv": "f651836b7a1602a9f14a099e5d2c8b0c47d82cc8ceec52cb5614dd5b00513bfc",
        }

    def test_dataset_bytes_are_pinned(self, tmp_path):
        # Manifest and series files of a bundled scenario. Any change to the
        # generator's floats or to the dataset layout changes these digests.
        series, manifest = generate_synthetic(scenario("rate-crossing"), seed=0)
        paths = save_snapshots(series, manifest, tmp_path)
        assert [p.name for p in paths] == ["manifest.json", "market_core.csv", "market_alt.csv", "staking.csv"]
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
        assert digests == {
            "manifest.json": "026d5aefd9ca906eb841c1583cf568d90920749d5fd52edad2915a3c25f2e400",
            "market_core.csv": "4e4a9d1e5fedcaabe5e074cf761aa77e75183a1268cc8e214b825f86d8d3a531",
            "market_alt.csv": "3bcbf1d0f3b7da9e374b830ba262f53fde42b42541c1aaf6b4ff484143caaabe",
            "staking.csv": "d283d77f63b3e9c1f60785393b0d4c16526680f446a5721400e46f163b70f110",
        }

    def test_int_and_float_budgets_give_the_same_report_bytes(self, tmp_path):
        series, _ = generate_synthetic(replace(scenario("volatile"), days=10.0), seed=0)
        files = {}
        for budget in (40, 40.0):
            cfg = BacktestConfig(budget=budget, rebalance_frequency=SECONDS_PER_DAY)
            out = tmp_path / type(budget).__name__
            emit_report(run_backtest(series, cfg), out / "backtest")
            emit_report(sweep_budgets(series, cfg, [budget, 10 * budget]), out / "sweep", label="apy")
            files[budget] = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.*"))}
        assert files[40] == files[40.0]
        assert b"40.0," in files[40][Path("sweep/apy_curve.csv")]

    def test_sweep_report_rows(self, tmp_path):
        curve = [(10.0, 0.05), (100.0, 0.04), (1000.0, 0.035)]
        paths = emit_report(curve, tmp_path / "sweep", label="apy")
        csv_path = next(p for p in paths if p.suffix == ".csv")
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "budget,apy"
        assert len(rows) == 4

    def test_short_position_row_has_line_context(self, tmp_path):
        series, _ = generate_synthetic(scenario("positive-carry"), seed=0)
        cfg = BacktestConfig(budget=5.0, rebalance_frequency=SECONDS_PER_DAY)
        paths = emit_report(run_backtest(series, cfg), tmp_path / "report")
        path = next(p for p in paths if p.name == "positions.csv")
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:3])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="positions.csv:3: expected 6 fields, got 3"):
            load_position_history(path)

    def test_fractional_position_timestamp_has_line_context(self, tmp_path):
        path = tmp_path / "positions.csv"
        path.write_text("timestamp,unleveraged,collateral_a,debt_a\n1735689600.7,1.0,0.0,-0.0\n")
        with pytest.raises(DataError, match="positions.csv:2: fractional timestamp '1735689600.7'"):
            load_position_history(path)

    @pytest.mark.parametrize(
        "header",
        [
            "timestamp,unleveraged,foo,bar",
            "timestamp,unleveraged,collateral_a,debt_b",
            "timestamp,unleveraged,debt_a,collateral_a",
            "timestamp,unleveraged,collateral_,debt_",
        ],
        ids=["not-holdings", "ids-differ", "swapped", "empty-id"],
    )
    def test_position_columns_must_pair_collateral_and_debt(self, header, tmp_path):
        path = tmp_path / "positions.csv"
        path.write_text(f"{header}\n1735689600,1.0,2.0,-3.0\n")
        with pytest.raises(DataError, match="positions.csv: unexpected positions header"):
            load_position_history(path)

    def test_position_history_round_trip(self, tmp_path):
        series, _ = generate_synthetic(scenario("rate-crossing"), seed=5)
        cfg = BacktestConfig(budget=12.0, rebalance_frequency=SECONDS_PER_DAY)
        result = run_backtest(series, cfg)
        paths = emit_report(result, tmp_path / "report")
        positions_path = next(p for p in paths if p.name == "positions.csv")
        loaded = load_position_history(positions_path)
        assert loaded.timestamps == result.timestamps
        assert loaded.unleveraged == result.unleveraged
        assert loaded.collateral == result.collateral
        assert loaded.debt == result.debt


class TestIrmFromDict:
    def test_linear(self):
        irm = irm_from_dict(
            {"kind": "linear", "r_base": 0.01, "r_slope1": 0.04, "u_target": 0.9}
        )
        assert irm == LinearIrmParams(0.01, 0.04, 0.9)

    def test_kinked(self):
        irm = irm_from_dict(
            {
                "kind": "kinked",
                "r_base": 0.0,
                "r_slope1": 0.01,
                "r_slope2": 0.5,
                "u_target": 0.9,
            }
        )
        assert irm == KinkedIrmParams(0.0, 0.01, 0.5, 0.9)

    def test_adaptive_defaults_last_interaction(self):
        irm = irm_from_dict(
            {
                "kind": "adaptive",
                "rate_at_target": 0.04,
                "curve_steepness": 4.0,
                "u_target": 0.9,
                "adjustment_speed": 50.0,
            }
        )
        assert irm.t_last == 0.0
        assert irm.u_last == 0.9

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            irm_from_dict({"kind": "quadratic"})

    def test_integer_too_large_for_a_float_refused(self):
        raw = {"kind": "linear", "r_base": 10 ** 400, "r_slope1": 0.04, "u_target": 0.9}
        with pytest.raises(DataError, match="r_base must be a number, got an integer too large"):
            irm_from_dict(raw)

    @pytest.mark.parametrize(
        "value", [True, False, "0.01", None, [0.01]], ids=["true", "false", "string", "null", "list"]
    )
    def test_field_that_is_no_number_refused(self, value):
        raw = {"kind": "linear", "r_base": value, "r_slope1": 0.04, "u_target": 0.9}
        with pytest.raises(DataError, match=f"r_base must be a number, got {type(value).__name__}"):
            irm_from_dict(raw)
