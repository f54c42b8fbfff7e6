from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

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
                    rate_path="sine",
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
    """One bad record deep in long columns: each check scans whole columns
    first and falls back to its record loop, whose text and records are
    what a record-by-record check gives."""

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
        emit_report(run_backtest(series, cfg), tmp_path)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("equity_curve.csv", "positions.csv", "summary.json")
        }
        assert digests == {
            "equity_curve.csv": "ed0df74bc4c89a2e92d1215f3273eda503d7431c9804e2cb8d0a1ff0c08f0e78",
            "positions.csv": "185038244bb570dd797820a9f87274db86c575ed957b3042741cf0bbe12b216b",
            "summary.json": "f05b5b0979ed5be6942a5ec47f4e756d175d0ba222a6cee0d25dd656a0f2943c",
        }

    def test_zero_fee_sweep_report_bytes_are_pinned(self, tmp_path):
        # Daily replays without fees, where both fee-shifted rates are one
        # float, from the unsaturated to the saturated regime. Any change to
        # a float of the sweep or its formatting changes this digest.
        series, _ = generate_synthetic(replace(scenario("volatile"), days=20.0), seed=0)
        cfg = BacktestConfig(budget=1.0, rebalance_frequency=SECONDS_PER_DAY)
        assert cfg.fees.gamma_plus == cfg.fees.gamma_minus == 0.0
        curve = sweep_budgets(series, cfg, [10.0**k for k in range(8)])
        emit_report(curve, tmp_path, label="apy")
        digest = hashlib.sha256((tmp_path / "apy_curve.json").read_bytes()).hexdigest()
        assert digest == "9cf9274e4f1402dc7eba87875e2a5af88a4274e814edb3c28a65aa74b0d609f1"

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
