from __future__ import annotations

import math
import os
import sys
from collections import Counter
from dataclasses import replace

import pytest

from oracles import market_states_at
from stakeloop import backtest, rebalance
from stakeloop.allocator import Allocation, ProblemInstance
from stakeloop.backtest import (
    DYNAMIC,
    FIXED_FREQUENCY,
    STAKING_ONLY,
    BacktestConfig,
    MarketMeta,
    MarketSnapshot,
    Snapshot,
    SnapshotSeries,
    apy,
    run_backtest,
    smooth_rates,
    sweep_budgets,
    sweep_leverage,
)
from stakeloop.data import generate_synthetic, scenario
from stakeloop.errors import ConstraintError, DomainError, UnsupportedModelError, ValidationError
from stakeloop.irm import (
    AdaptiveIrmParams,
    KinkedIrmParams,
    LinearIrmParams,
    MarketState,
    borrow_rate,
)
from stakeloop.rebalance import AT_TARGET, GATED, HOLD, NO_BRANCH, FeeModel, RebalancePlan
from stakeloop.units import SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_YEAR

T0 = 1735689600


def flat_series(
    rate: float = 0.02,
    staking: float = 0.031,
    hours: int = 24 * 90,
    supplied: float = 2000.0,
    utilization: float = 0.8,
) -> SnapshotSeries:
    from stakeloop.backtest import _recorded_curve
    from stakeloop.irm import _rate

    target = rate / _rate(_recorded_curve(1.0), utilization)
    snaps = tuple(
        Snapshot(
            timestamp=T0 + k * SECONDS_PER_HOUR,
            staking_rate=staking,
            markets={
                "m": MarketSnapshot(
                    supplied=supplied,
                    borrowed=supplied * utilization,
                    borrow_rate=rate,
                    rate_at_target=target,
                )
            },
        )
        for k in range(hours + 1)
    )
    return SnapshotSeries.from_rows((MarketMeta("m", 0.945),), snaps)


def without_rate_at_target(series: SnapshotSeries) -> SnapshotSeries:
    return replace(series, rate_at_target=(None,) * len(series.markets))


def config(**kwargs) -> BacktestConfig:
    base = dict(
        budget=1.0,
        l_max=5.0,
        rebalance_frequency=SECONDS_PER_HOUR,
        strategy=FIXED_FREQUENCY,
        fees=FeeModel(0.0, 0.0, 1.0 / 365.0),
        smoothing_window=SECONDS_PER_DAY,
    )
    base.update(kwargs)
    return BacktestConfig(**base)


class TestSeriesValidation:
    def test_borrowed_over_supplied_rejected(self):
        with pytest.raises(ValidationError) as err:
            SnapshotSeries.from_rows(
                (MarketMeta("m", 0.9),),
                (Snapshot(T0, 0.03, {"m": MarketSnapshot(10.0, 11.0, 0.02)}),),
            )
        assert "m" in err.value.records[0]

    @pytest.mark.parametrize(
        "ms, problem",
        [
            (MarketSnapshot(0.0, 0.0, 0.02), "supplied 0.0 must be positive"),
            (MarketSnapshot(10.0, -1.0, 0.02), "borrowed -1.0 outside [0, supplied]"),
            (MarketSnapshot(10.0, 1.0, -0.01), "negative rate"),
            (MarketSnapshot(10.0, 1.0, 0.02, -0.01), "negative rate"),
            (MarketSnapshot(math.nan, 1.0, 0.02), "supplied nan is not finite"),
            (MarketSnapshot(math.inf, 1.0, 0.02), "supplied inf is not finite"),
            (MarketSnapshot(10.0, math.nan, 0.02), "borrowed nan is not finite"),
            (MarketSnapshot(10.0, 1.0, math.nan), "borrow_rate nan is not finite"),
            (MarketSnapshot(10.0, 1.0, 0.02, math.nan), "rate_at_target nan is not finite"),
            (MarketSnapshot(10.0, 1.0, 0.02, 0.0), "rate_at_target 0.0 must be positive"),
        ],
        ids=[
            "no-supply",
            "negative-debt",
            "negative-rate",
            "negative-rate-at-target",
            "nan-supply",
            "infinite-supply",
            "nan-debt",
            "nan-rate",
            "nan-rate-at-target",
            "zero-rate-at-target",
        ],
    )
    def test_rejects_what_a_dataset_load_rejects(self, ms, problem):
        with pytest.raises(ValidationError) as err:
            SnapshotSeries.from_rows((MarketMeta("m", 0.9),), (Snapshot(T0, 0.03, {"m": ms}),))
        assert err.value.records == [f"t={T0} market m: {problem}"]

    @pytest.mark.parametrize(
        "rate, problem",
        [
            (math.nan, "staking_rate nan is not finite"),
            (math.inf, "staking_rate inf is not finite"),
            (-0.01, "negative staking rate"),
        ],
        ids=["nan", "infinite", "negative"],
    )
    def test_rejects_a_staking_rate_a_dataset_load_rejects(self, rate, problem):
        ms = MarketSnapshot(10.0, 1.0, 0.02)
        with pytest.raises(ValidationError) as err:
            SnapshotSeries.from_rows((MarketMeta("m", 0.9),), (Snapshot(T0, rate, {"m": ms}),))
        assert err.value.records == [f"t={T0}: {problem}"]

    @pytest.mark.parametrize(
        "empty, message",
        [(dict(markets=()), "series has no markets"), (dict(timestamps=()), "series has no snapshots")],
        ids=["markets", "timestamps"],
    )
    def test_empty_series_rejected(self, empty, message):
        with pytest.raises(ValidationError) as err:
            replace(flat_series(hours=2), **empty)
        assert str(err.value) == message

    def test_repeated_market_id_rejected(self):
        row = Snapshot(T0, 0.03, {"m": MarketSnapshot(10.0, 1.0, 0.02)})
        with pytest.raises(ValidationError) as err:
            SnapshotSeries.from_rows((MarketMeta("m", 0.9), MarketMeta("m", 0.9)), (row,))
        assert err.value.records == ["market m: listed 2 times"]

    def test_out_of_order_timestamps_rejected(self):
        snaps = (
            Snapshot(T0 + 3600, 0.03, {"m": MarketSnapshot(10.0, 1.0, 0.02)}),
            Snapshot(T0, 0.03, {"m": MarketSnapshot(10.0, 1.0, 0.02)}),
        )
        with pytest.raises(ValidationError):
            SnapshotSeries.from_rows((MarketMeta("m", 0.9),), snaps)

    def test_non_integer_timestamp_rejected(self):
        series = flat_series(hours=2)
        with pytest.raises(ValidationError) as err:
            replace(series, timestamps=(T0, T0 + 3600.5, T0 + 7200))
        assert err.value.records == [
            f"t={T0 + 3600.5}: timestamp {T0 + 3600.5!r} is not an integer"
        ]

    def test_rate_at_target_all_or_none(self):
        snaps = (
            Snapshot(T0, 0.03, {"m": MarketSnapshot(10.0, 1.0, 0.02, 0.03)}),
            Snapshot(T0 + 3600, 0.03, {"m": MarketSnapshot(10.0, 1.0, 0.02)}),
        )
        with pytest.raises(ValidationError) as err:
            SnapshotSeries.from_rows((MarketMeta("m", 0.9),), snaps)
        assert err.value.records == [
            "market m: rate_at_target present in 1 of 2 snapshots; must be all or none"
        ]

    def test_rate_at_target_all_or_none_in_a_built_column(self):
        series = flat_series(hours=2)
        with pytest.raises(ValidationError) as err:
            replace(series, rate_at_target=((0.02, None, 0.02),))
        assert err.value.records == [
            "market m: rate_at_target present in 2 of 3 snapshots; must be all or none"
        ]

    @pytest.mark.parametrize(
        "columns",
        [
            dict(staking_rates=(0.03,)),
            dict(supplied=((10.0,) * 5,)),
            dict(borrow_rate=((0.02,) * 4, (0.02,) * 4)),
            dict(rate_at_target=((0.03,),)),
        ],
        ids=["short-staking", "long-supplied", "extra-market", "short-rate-at-target"],
    )
    def test_columns_must_match_markets_and_timestamps(self, columns):
        with pytest.raises(ValidationError, match="do not match markets and timestamps"):
            replace(flat_series(hours=3), **columns)

    def test_rows_view_round_trips(self):
        series = scenario_series("volatile")
        assert len(series.snapshots) == len(series.timestamps)
        assert SnapshotSeries.from_rows(series.markets, series.snapshots) == series
        assert series.snapshots[-1] == series.snapshots[len(series.timestamps) - 1]


class TestSmoothing:
    def test_constant_series_unchanged(self):
        series = flat_series(hours=100)
        out = smooth_rates(series, SECONDS_PER_DAY)
        for a, b in zip(series.snapshots, out.snapshots):
            assert b.markets["m"].borrow_rate == pytest.approx(
                a.markets["m"].borrow_rate
            )
            assert b.timestamp == a.timestamp

    def test_step_becomes_linear_ramp(self):
        step_at = T0 + 48 * SECONDS_PER_HOUR
        snaps = tuple(
            Snapshot(
                timestamp=T0 + k * SECONDS_PER_HOUR,
                staking_rate=0.03,
                markets={
                    "m": MarketSnapshot(
                        100.0,
                        50.0,
                        0.02,
                        0.02 if T0 + k * SECONDS_PER_HOUR <= step_at else 0.04,
                    )
                },
            )
            for k in range(24 * 7)
        )
        series = SnapshotSeries.from_rows((MarketMeta("m", 0.9),), snaps)
        out = smooth_rates(series, SECONDS_PER_DAY)

        def smoothed(ts):
            return next(
                s.markets["m"].rate_at_target for s in out.snapshots if s.timestamp == ts
            )

        assert smoothed(step_at) == pytest.approx(0.02)
        assert smoothed(step_at + 12 * SECONDS_PER_HOUR) == pytest.approx(0.03)
        assert smoothed(step_at + 24 * SECONDS_PER_HOUR) == pytest.approx(0.04)
        assert smoothed(step_at + 30 * SECONDS_PER_HOUR) == pytest.approx(0.04)

    def test_single_period_window_is_identity(self):
        series = scenario_series()
        out = smooth_rates(series, SECONDS_PER_HOUR)
        for a, b in zip(series.snapshots, out.snapshots):
            assert b.markets == a.markets

    def test_staking_rate_passes_through(self):
        series = flat_series()
        out = smooth_rates(series, SECONDS_PER_DAY)
        assert all(
            a.staking_rate == b.staking_rate
            for a, b in zip(series.snapshots, out.snapshots)
        )

    def test_zero_window_is_the_identity(self):
        series = scenario_series()
        assert smooth_rates(series, 0) == series

    def test_borrow_rate_passes_through(self):
        # Only the column a replay reads is smoothed.
        series = scenario_series("volatile", seed=3)
        out = smooth_rates(series, SECONDS_PER_DAY)
        assert out.borrow_rate == series.borrow_rate
        assert out.rate_at_target != series.rate_at_target

    def test_window_below_cadence_rejected(self):
        with pytest.raises(DomainError):
            smooth_rates(flat_series(), SECONDS_PER_HOUR // 2)

    def test_negative_window_rejected(self):
        with pytest.raises(DomainError) as err:
            smooth_rates(flat_series(), -SECONDS_PER_HOUR)
        assert str(err.value) == "window must be positive, got -3600"

    def test_replays_refuse_the_windows_smoothing_refuses(self):
        series = flat_series()
        message = "window 1800s is shorter than the data cadence 3600s"
        cfg = config(smoothing_window=SECONDS_PER_HOUR // 2)
        for replay in (
            lambda: smooth_rates(series, cfg.smoothing_window),
            lambda: run_backtest(series, cfg),
            lambda: sweep_budgets(series, cfg, [1.0]),
            lambda: sweep_leverage(series, cfg, [3.0], [1.0]),
        ):
            with pytest.raises(DomainError, match=message):
                replay()

    def test_replay_reads_no_borrow_rate(self):
        series = scenario_series("volatile", seed=3)
        # Other valid rates: zero, then steps up to twice the recorded ones.
        other = replace(
            series,
            borrow_rate=tuple(
                tuple(r * (k % 3) for k, r in enumerate(column)) for column in series.borrow_rate
            ),
        )
        assert other.borrow_rate != series.borrow_rate
        cfg = config(budget=10.0, fees=FeeModel(1e-4, 2e-4, 7.0 / 365.0))
        for c in (cfg, replace(cfg, strategy=DYNAMIC, threshold=0.002, smoothing_window=0)):
            assert run_backtest(other, c) == run_backtest(series, c)
        daily = replace(cfg, rebalance_frequency=SECONDS_PER_DAY)
        assert sweep_budgets(other, daily, [1.0, 1e4]) == sweep_budgets(series, daily, [1.0, 1e4])


def scenario_series(name: str = "rate-crossing", seed: int = 1) -> SnapshotSeries:
    series, _ = generate_synthetic(scenario(name), seed=seed)
    return series


class TestApy:
    def test_doubling_in_a_year(self):
        assert apy([0, SECONDS_PER_YEAR], [100.0, 200.0]) == pytest.approx(1.0)

    def test_flat_curve(self):
        assert apy([0, SECONDS_PER_YEAR], [100.0, 100.0]) == 0.0

    def test_quarterly_annualization(self):
        ninety_days = 90 * SECONDS_PER_DAY
        assert apy([0, ninety_days], [1.0, 1.0075]) == pytest.approx(0.0308, abs=2e-4)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            apy([0, 100], [1.0, -2.0])

    @pytest.mark.parametrize(
        "timestamps, equity, message",
        [
            ([0], [1.0], "equity curve needs at least two points"),
            ([100, 100], [1.0, 1.0], "equity curve must span positive time"),
        ],
        ids=["one-mark", "no-time"],
    )
    def test_curve_without_a_span_rejected(self, timestamps, equity, message):
        with pytest.raises(DomainError) as err:
            apy(timestamps, equity)
        assert str(err.value) == message

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(DomainError, match="one mark per timestamp"):
            apy([0, 100, 200], [1.0, 2.0])

    def test_overflowing_annualization_rejected(self):
        with pytest.raises(DomainError, match="growth factor 1.3 over 7200 s"):
            apy([0, 7200], [1.0, 1.3])


class TestRunBacktest:
    def test_staking_only_compounds_staking_rate(self):
        series = flat_series()
        result = run_backtest(series, config(strategy=STAKING_ONLY))
        # hourly compounding of s=0.031 over the whole span
        assert result.apy == pytest.approx(math.e**0.031 - 1.0, abs=2e-5)
        assert result.rebalance_count == 0
        assert result.total_fees_paid == 0.0

    def test_l_max_one_equals_staking_only(self):
        series = flat_series()
        a = run_backtest(series, config(strategy=FIXED_FREQUENCY, l_max=1.0))
        b = run_backtest(series, config(strategy=STAKING_ONLY))
        assert a.apy == pytest.approx(b.apy, abs=1e-12)

    def test_tiny_budget_carry_matches_analytic(self):
        # constant borrows at 2% against 3.1% staking, l_max 5, no impact:
        # instantaneous yield is s + 4*(s - b)
        series = flat_series(rate=0.02, staking=0.031)
        result = run_backtest(series, config(budget=1e-6))
        gross = 0.031 + 4.0 * (0.031 - 0.02)
        expected = math.e**gross - 1.0
        assert result.apy == pytest.approx(expected, rel=2e-3)

    def test_equity_conservation_every_step(self):
        series = scenario_series()
        r = run_backtest(
            series,
            config(budget=25.0, fees=FeeModel(0.0, 0.0001, 1.0 / 365.0)),
        )
        flows = zip(r.equity, r.staking_accrued, r.interest_paid, r.fees_paid, r.equity[1:])
        for equity, staking, interest, fees, after in flows:
            assert after == pytest.approx(equity + staking - interest - fees, rel=1e-9)

    def test_equity_curve_starts_at_budget(self):
        series = scenario_series()
        result = run_backtest(series, config(budget=7.0))
        assert result.equity[0] == 7.0

    def test_fee_beyond_the_unleveraged_holding_unwinds_exposure(self):
        # A small budget is fully levered, so each fee is paid by scaling the
        # position down, and equity is conserved across every such trade.
        r = run_backtest(
            flat_series(hours=24 * 7),
            config(budget=1e-3, fees=FeeModel(0.0005, 0.0005, 30.0 / 365.0)),
        )
        paid = [k for k, fee in enumerate(r.fees_paid) if fee > 0.0]
        assert paid and all(r.unleveraged[k] == 0.0 for k in paid)
        for k in paid:
            held = r.collateral[0][k] - r.debt[0][k]
            assert held == pytest.approx(r.equity[k] - r.fees_paid[k], rel=1e-9)
        flows = zip(r.equity, r.staking_accrued, r.interest_paid, r.fees_paid, r.equity[1:])
        for equity, staking, interest, fees, after in flows:
            assert after == pytest.approx(equity + staking - interest - fees, rel=1e-9)

    def test_fee_beyond_equity_is_refused(self):
        # Unleveraged 0.5 and exposure 1.0 cannot pay a fee of 2.
        with pytest.raises(DomainError, match="rebalance fee exceeds portfolio equity"):
            backtest._charge_fee(2.0, 0.5, [5.0], [4.0])

    def test_own_footprint_raises_pool_rate(self):
        # bigger budgets borrow more, push utilization, and earn lower APY
        series = flat_series(rate=0.02, supplied=500.0)
        small = run_backtest(series, config(budget=0.01))
        large = run_backtest(series, config(budget=200.0))
        assert large.apy < small.apy

    def test_footprint_removal_restores_recorded_pool(self, monkeypatch):
        # the optimizer input at each step must be the recorded pool state,
        # not the pool state inflated by our own borrowing
        series = flat_series(hours=48, supplied=500.0)
        solved = []
        plan = backtest._plan

        def recording(forms, tables, s, budget, *position):
            solved.append((forms, s, budget))
            return plan(forms, tables, s, budget, *position)

        monkeypatch.setattr(backtest, "_plan", recording)
        cfg = config(budget=200.0, smoothing_window=0)
        result = run_backtest(series, cfg)
        assert max(result.debt[0]) > 0.0
        # Hourly data rebalanced hourly: the solve at step k reads snapshot k.
        assert len(solved) == len(series.timestamps)
        for k, (forms, s, budget) in enumerate(solved):
            recorded = ProblemInstance.uniform(market_states_at(series, k), cfg.l_max, s, budget)
            assert forms == recorded.forms

    def test_zero_budget_limit_matches_instant_yield_path(self):
        from stakeloop.allocator import ProblemInstance, solve

        series = smooth_rates(scenario_series(), SECONDS_PER_DAY)
        cfg = config(budget=1e-9, smoothing_window=0)
        result = run_backtest(series, cfg)

        growth = 1.0
        tiny = cfg.budget
        snaps = series.snapshots
        for k, (a, b) in enumerate(zip(snaps, snaps[1:])):
            p = ProblemInstance.uniform(market_states_at(series, k), 5.0, a.staking_rate, tiny)
            rate = solve(p).expected_yield / tiny
            growth *= 1.0 + rate * (b.timestamp - a.timestamp) / SECONDS_PER_YEAR
        years = (snaps[-1].timestamp - snaps[0].timestamp) / SECONDS_PER_YEAR
        expected = growth ** (1.0 / years) - 1.0
        assert result.apy == pytest.approx(expected, rel=1e-4)

    @pytest.mark.parametrize(
        "field, message",
        [
            (dict(rebalance_frequency=0), "rebalance_frequency must be positive"),
            (dict(strategy="hodl"), "unknown strategy 'hodl'"),
            (dict(smoothing_window=-1), "smoothing_window must be non-negative"),
        ],
        ids=["frequency", "strategy", "window"],
    )
    def test_config_value_out_of_range_rejected(self, field, message):
        with pytest.raises(DomainError) as err:
            config(**field)
        assert str(err.value) == message

    def test_frequency_below_cadence_rejected(self):
        with pytest.raises(DomainError):
            run_backtest(flat_series(), config(rebalance_frequency=60))

    def test_short_series_rejected(self):
        with pytest.raises(DomainError):
            run_backtest(
                flat_series(hours=3), config(rebalance_frequency=2 * SECONDS_PER_HOUR)
            )

    def test_missing_rate_model_rejected(self, monkeypatch):
        from stakeloop.errors import DataError

        series = varied_series()
        series = replace(series, rate_at_target=(series.rate_at_target[0], None))
        calls = count_compiles(monkeypatch)
        with pytest.raises(DataError, match="market b has no rate_at_target and no fallback"):
            run_backtest(series, config())
        assert calls == []

    def test_leverage_cap_above_a_market_bound_names_the_market(self):
        # max_ltv 0.945 bounds the leverage cap at about 18.18.
        with pytest.raises(ConstraintError, match="max_ltv=0.945 of market a$"):
            run_backtest(varied_series(), config(l_max=19.0))

    @pytest.mark.parametrize("market_id", ["", "../m", "a/b", "a\\b"])
    def test_market_id_that_is_no_file_name_rejected(self, market_id):
        with pytest.raises(DomainError, match="must be non-empty and hold no"):
            MarketMeta(market_id, 0.9)

    def test_staking_only_needs_no_rate_model(self):
        series = without_rate_at_target(flat_series())
        result = run_backtest(series, config(strategy=STAKING_ONLY, irm=None))
        assert result.rebalance_count == 0

    def test_one_market_state_per_market_per_step(self, monkeypatch):
        series = varied_series(hours=48)
        calls = count_compiles(monkeypatch)
        result = run_backtest(series, config(strategy=FIXED_FREQUENCY))
        assert result.rebalance_count > 0
        assert len(calls) == len(series.timestamps) * len(series.markets)

    def test_market_states_only_on_solving_steps(self, monkeypatch):
        series = varied_series(hours=48)
        calls = count_compiles(monkeypatch)
        result = run_backtest(series, config(rebalance_frequency=SECONDS_PER_DAY))
        assert result.rebalance_count > 0
        # Hourly data rebalanced daily: the points at hours 0, 24 and 48 solve;
        # the accrual in between reads the series columns.
        assert len(calls) == 3 * len(series.markets)

    @pytest.mark.parametrize("budget", [5e-324, 1e-320, sys.float_info.min / 2])
    def test_subnormal_budget_refused(self, budget):
        # Each step's growth is below one ulp of a subnormal equity, which
        # would never grow and give a 0% APY.
        message = f"budget {budget} is below {sys.float_info.min}, the smallest normal float"
        with pytest.raises(DomainError) as exc:
            config(budget=budget)
        assert str(exc.value) == message
        with pytest.raises(DomainError) as exc:
            sweep_budgets(varied_series(), config(), [1.0, budget])
        assert str(exc.value) == message

    def test_smallest_normal_budget_earns_the_tiny_budget_apy(self):
        series = varied_series()
        smallest = run_backtest(series, config(budget=sys.float_info.min)).apy
        assert smallest > 0.0
        assert smallest == pytest.approx(run_backtest(series, config(budget=1e-300)).apy, rel=1e-9)

    def test_non_rate_model_fallback_rejected(self):
        with pytest.raises(UnsupportedModelError):
            BacktestConfig(budget=1.0, irm=object())

    def test_no_problem_instance_on_any_solving_step(self, monkeypatch):
        series = varied_series(hours=48)
        built = []
        check = ProblemInstance.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        def refused(self, *args):
            pytest.fail(f"the replay built a checked {type(self).__name__}")

        monkeypatch.setattr(ProblemInstance, "__post_init__", counting)
        for checked in (MarketState, AdaptiveIrmParams):
            monkeypatch.setattr(checked, "__post_init__", refused)
        compiles = count_compiles(monkeypatch)
        fees = FeeModel(0.0001, 0.0001, 7.0 / 365.0)
        result = run_backtest(series, config(strategy=FIXED_FREQUENCY, fees=fees))
        assert result.rebalance_count > 0
        # Hourly data rebalanced hourly: every step solves, with and without
        # the fee shifts of the staking rate, on plain values, from forms it
        # compiles straight from the series columns, once per market.
        assert built == []
        assert len(compiles) == len(series.timestamps) * len(series.markets)

    def test_equity_check_keeps_the_instance_text(self):
        # The cash flow of the first step's equity overflows: the replay and
        # the sweep refuse it with the text an instance of that equity gives.
        series = varied_series(hours=48)
        with pytest.raises(DomainError) as instance:
            ProblemInstance.uniform(market_states_at(series, 0), 5.0, 0.031, 1e308)
        with pytest.raises(DomainError) as replayed:
            run_backtest(series, config(budget=1e308))
        with pytest.raises(DomainError) as swept:
            sweep_budgets(series, config(), [1.0, 1e308])
        assert str(replayed.value) == str(swept.value) == str(instance.value)

    def test_deterministic(self):
        series = scenario_series("volatile", seed=3)
        cfg = config(budget=10.0, strategy=DYNAMIC, threshold=0.002)
        a = run_backtest(series, cfg)
        b = run_backtest(series, cfg)
        assert (a.timestamps, a.equity) == (b.timestamps, b.equity)

    def test_gross_gate_rebalances_at_least_as_often_as_net(self):
        series = scenario_series("volatile", seed=4)
        fees = FeeModel(0.0, 0.0001, 7.0 / 365.0)
        net = run_backtest(
            series,
            config(budget=10.0, strategy=DYNAMIC, threshold=0.002, fees=fees),
        )
        gross = run_backtest(
            series,
            config(
                budget=10.0,
                strategy=DYNAMIC,
                threshold=0.002,
                fees=fees,
                gate_net_of_costs=False,
            ),
        )
        # the gross comparison ignores the cost drag, so it clears the gate
        # whenever the net one does
        assert gross.rebalance_count >= net.rebalance_count

    def test_gated_move_holds_with_its_reason(self, monkeypatch):
        verdicts = []
        gate = backtest._gate

        def recording(plan, cfg, equity):
            verdicts.append((plan, gate(plan, cfg, equity)))
            return verdicts[-1][1]

        monkeypatch.setattr(backtest, "_gate", recording)
        series = scenario_series("volatile", seed=4)
        fees = FeeModel(0.0, 0.0001, 7.0 / 365.0)
        result = run_backtest(
            series, config(budget=10.0, strategy=DYNAMIC, threshold=0.002, fees=fees)
        )
        # A plan is (direction, reason, cost, net gain, target, ...).
        gated = [(plan, out) for plan, out in verdicts if out[1] == GATED]
        assert gated
        for plan, out in gated:
            # A move turned down: held, with the move's target and cost kept.
            assert plan[0] != HOLD and plan[1] == ""
            assert out == (HOLD, GATED, *plan[2:])
        moves = [out for _, out in verdicts if out[0] != HOLD]
        assert all(out[1] == "" for out in moves)
        assert len(moves) == result.rebalance_count
        held = {out[1] for _, out in verdicts if out[0] == HOLD}
        assert held <= {NO_BRANCH, AT_TARGET, GATED}


def count_compiles(monkeypatch) -> list[str]:
    """The market ids the replay compiles, one per call, in call order."""
    calls = []
    compile_market = backtest._compile

    def counting(market_id, *columns):
        calls.append(market_id)
        return compile_market(market_id, *columns)

    monkeypatch.setattr(backtest, "_compile", counting)
    return calls


def varied_series(hours: int = 72, shrink_at: int | None = None) -> SnapshotSeries:
    """Two markets whose pools and rates-at-target move every hour; from
    hour ``shrink_at`` on, market ``a`` keeps 1% of its supply free."""
    ts = tuple(T0 + k * SECONDS_PER_HOUR for k in range(hours + 1))
    supplied = [[2000.0 + 150.0 * math.sin(k / 5.0) for k in range(hours + 1)],
                [900.0 + 60.0 * math.cos(k / 4.0) for k in range(hours + 1)]]
    borrowed = [[x * (0.75 + 0.1 * math.sin(k / 7.0)) for k, x in enumerate(supplied[0])],
                [x * (0.6 + 0.2 * math.cos(k / 3.0)) for k, x in enumerate(supplied[1])]]
    if shrink_at is not None:
        supplied[0][shrink_at:] = [b * 1.01 for b in borrowed[0][shrink_at:]]
    targets = tuple(
        tuple(level + 0.004 * math.sin(k / 3.0 + i) for k in range(hours + 1))
        for i, level in enumerate((0.02, 0.022))
    )
    return SnapshotSeries(
        markets=(MarketMeta("a", 0.945), MarketMeta("b", 0.945)),
        timestamps=ts,
        staking_rates=(0.031,) * len(ts),
        supplied=tuple(map(tuple, supplied)),
        borrowed=tuple(map(tuple, borrowed)),
        borrow_rate=((0.02,) * len(ts),) * 2,
        rate_at_target=targets,
    )


class TestAccrual:
    """The interest of each step is the pool rate of each indebted market at
    its debt, as borrow_rate prices it on the market's public state."""

    @pytest.mark.parametrize(
        "series, irm, stale",
        [
            (varied_series(), None, False),
            (without_rate_at_target(varied_series()), LinearIrmParams(0.005, 0.02, 0.9), False),
            (without_rate_at_target(varied_series()), KinkedIrmParams(0.005, 0.015, 0.6, 0.9),
             False),
            (varied_series(shrink_at=30), None, True),
        ],
        ids=["rate-at-target", "linear", "kinked", "shrinking-pool"],
    )
    def test_interest_prices_each_debt_at_its_market_state(self, series, irm, stale):
        cfg = config(budget=100.0, rebalance_frequency=SECONDS_PER_DAY, irm=irm)
        result = run_backtest(series, cfg)
        smoothed = smooth_rates(series, cfg.smoothing_window)
        ts = series.timestamps
        overshoots = 0
        for k, (a, b) in enumerate(zip(ts, ts[1:])):
            dt = (b - a) / SECONDS_PER_YEAR
            expected = 0.0
            for i, debt in enumerate(column[k] for column in result.debt):
                if debt > 0.0:
                    s = market_states_at(smoothed, k, cfg.irm)[i]
                    overshoots += debt > s.available_liquidity
                    delta = min(debt, s.available_liquidity)
                    expected += debt * borrow_rate(s.irm, s.supplied, s.borrowed, delta) * dt
            assert result.interest_paid[k] == expected
        assert result.interest_paid[-1] == 0.0
        assert sum(result.interest_paid) > 0.0
        if stale:  # some debt outgrew its pool and was priced at full utilization
            assert overshoots > 0


def shifted(series: SnapshotSeries, start: int, seconds: int) -> SnapshotSeries:
    """The series with snapshot ``start`` and every later one ``seconds`` later."""
    snaps = tuple(
        replace(s, timestamp=s.timestamp + seconds) if k >= start else s
        for k, s in enumerate(series.snapshots)
    )
    return SnapshotSeries.from_rows(series.markets, snaps)


class TestSchedule:
    def test_one_second_jitter_keeps_the_daily_schedule(self):
        series = scenario_series("positive-carry")
        cfg = config(rebalance_frequency=SECONDS_PER_DAY)
        assert run_backtest(series, cfg).rebalance_count == 91
        assert run_backtest(shifted(series, 5, 1), cfg).rebalance_count == 91

    def test_multi_day_gap_rebalances_once_after_it(self, monkeypatch):
        # Drop the hourly samples from day 10 - 3h up to day 13 + 5h: the
        # daily points 10 to 13 fall in the gap.
        series = flat_series(hours=24 * 20)
        # A staking rate a hair above 0.031 per snapshot names the snapshot a
        # solve reads.
        rates = tuple(0.031 + 1e-9 * k for k in range(len(series.timestamps)))
        series = replace(series, staking_rates=rates)
        gap = range(24 * 10 - 3, 24 * 13 + 5)
        series = SnapshotSeries.from_rows(
            series.markets, [s for k, s in enumerate(series.snapshots) if k not in gap]
        )
        time_of = dict(zip(series.staking_rates, series.timestamps))
        solved_at = []
        plan = backtest._plan

        def recording(forms, tables, s, *rest):
            solved_at.append(time_of[s])
            return plan(forms, tables, s, *rest)

        monkeypatch.setattr(backtest, "_plan", recording)
        result = run_backtest(series, config(rebalance_frequency=SECONDS_PER_DAY))
        days = [(t - T0) / SECONDS_PER_DAY for t in solved_at]
        assert days == [*range(10), 13 + 5 / 24, *range(14, 21)]
        assert result.rebalance_count == len(days)


class TestSweeps:
    def test_budget_sweep_nonincreasing_with_zero_fees(self):
        series = scenario_series()
        cfg = config(rebalance_frequency=SECONDS_PER_DAY)
        budgets = [10.0 ** k for k in range(0, 8)]
        curve = sweep_budgets(series, cfg, budgets)
        assert [b for b, _ in curve] == budgets
        apys = [a for _, a in curve]
        for a, b in zip(apys, apys[1:]):
            assert b <= a + 1e-9

    def test_large_budget_approaches_staking_apy(self):
        series = scenario_series()
        cfg = config(rebalance_frequency=SECONDS_PER_DAY)
        staking = run_backtest(series, config(strategy=STAKING_ONLY)).apy
        (_, big_apy), = sweep_budgets(series, cfg, [1e9])
        assert big_apy >= staking - 1e-9
        assert abs(big_apy - staking) < 0.001

    def test_leverage_one_gives_staking_apy(self):
        series = scenario_series()
        cfg = config(rebalance_frequency=SECONDS_PER_DAY)
        curves = sweep_leverage(series, cfg, [1.0], [1.0, 100.0])
        staking = run_backtest(series, config(strategy=STAKING_ONLY)).apy
        for _, value in curves[1.0]:
            assert value == pytest.approx(staking, abs=1e-12)

    def test_higher_cap_wins_at_small_budget_positive_carry(self):
        series = scenario_series("positive-carry")
        cfg = config(rebalance_frequency=SECONDS_PER_DAY)
        curves = sweep_leverage(series, cfg, [2.0, 3.0, 5.0], [0.01])
        apys = [curves[l][0][1] for l in (2.0, 3.0, 5.0)]
        assert apys[0] < apys[1] < apys[2]

    def test_caps_converge_at_large_budget(self):
        series = scenario_series()
        cfg = config(rebalance_frequency=SECONDS_PER_DAY)
        curves = sweep_leverage(series, cfg, [3.0, 5.0], [1e8])
        a = curves[3.0][0][1]
        b = curves[5.0][0][1]
        assert abs(a - b) < 0.002

    def test_zero_carry_data_gives_flat_curve_at_staking(self):
        from stakeloop.data import SyntheticMarketSpec, SyntheticSpec, generate_synthetic

        spec = SyntheticSpec(
            markets=(SyntheticMarketSpec(market_id="m", rate_level=0.031),),
            staking_rate=0.031,
            days=30.0,
        )
        series, _ = generate_synthetic(spec, seed=0)
        cfg = config(rebalance_frequency=SECONDS_PER_DAY)
        curve = sweep_budgets(series, cfg, [1.0, 100.0, 10000.0])
        staking = run_backtest(series, config(strategy=STAKING_ONLY)).apy
        for _, value in curve:
            assert value == pytest.approx(staking, abs=1e-6)

    def test_sweeps_equal_independent_backtests(self):
        series = scenario_series("volatile")
        cfg = config(rebalance_frequency=SECONDS_PER_DAY)
        assert cfg.smoothing_window
        budgets = [1.0, 1e3, 1e6]

        def independent(c):
            return [(b, run_backtest(series, replace(c, budget=b)).apy) for b in budgets]

        assert sweep_budgets(series, cfg, budgets) == independent(cfg)
        curves = sweep_leverage(series, cfg, [3.0, 5.0], budgets)
        for level, curve in curves.items():
            assert curve == independent(replace(cfg, l_max=level))

    def test_sweep_forks_nothing(self, monkeypatch):
        series = scenario_series("volatile")
        cfg = config(rebalance_frequency=SECONDS_PER_DAY)
        caps, budgets = [3.0, 5.0], [1.0, 1e3, 1e6]
        expected = {
            level: [(b, run_backtest(series, replace(cfg, l_max=level, budget=b)).apy) for b in budgets]
            for level in caps
        }
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert sweep_leverage(series, cfg, caps, budgets) == expected

    def test_sweep_builds_no_result(self, monkeypatch):
        series = scenario_series("volatile")
        cfg = config(rebalance_frequency=SECONDS_PER_DAY)
        args = (series, cfg, [3.0, 5.0], [1.0, 1e3, 1e6])
        expected = sweep_leverage(*args)
        monkeypatch.setattr(backtest, "BacktestResult", lambda **_: pytest.fail("built a result"))
        assert sweep_leverage(*args) == expected

    def test_budgets_share_each_due_step_compile_and_table(self, monkeypatch):
        series = scenario_series("volatile")
        cfg = config(rebalance_frequency=SECONDS_PER_DAY, fees=FeeModel(1e-4, 2e-4, 7.0 / 365.0))
        caps, budgets = [3.0, 5.0], [1.0, 1e3, 1e6]
        expected = sweep_leverage(series, cfg, caps, budgets)
        compiles = count_compiles(monkeypatch)
        tables = []
        table = rebalance._table

        def counting(forms, s):
            tables.append((forms, s))
            return table(forms, s)

        def refused(self, *args, **kwargs):
            pytest.fail(f"built a {type(self).__name__}")

        monkeypatch.setattr(rebalance, "_table", counting)
        for built in (ProblemInstance, Allocation, RebalancePlan):
            monkeypatch.setattr(built, "__init__", refused)
        assert sweep_leverage(series, cfg, caps, budgets) == expected
        ts, freq = series.timestamps, cfg.rebalance_frequency
        due = len({(t - ts[0]) // freq for t in ts})
        # Per cap, one compile per due step, for all three budgets.
        assert len(compiles) == len(caps) * due * len(series.markets)
        # A table per fee-shifted rate of each cap's forms at each due step,
        # built once for all three budgets.
        assert tables
        assert len(tables) == len(set(tables)) <= 2 * len(caps) * due
        run_backtest(series, replace(cfg, budget=1e3))

    def test_budgets_that_share_a_holding_walk_it_once_per_stretch(self):
        # Past saturation every budget holds the same floats, so each
        # multi-step stretch walks each market once for all of them.
        reads = []

        class Counting(tuple):
            def __getitem__(self, k):
                reads.append(k)
                return tuple.__getitem__(self, k)

        series = scenario_series("positive-carry")
        series = replace(series, supplied=tuple(map(Counting, series.supplied)))
        cfg = config(rebalance_frequency=SECONDS_PER_DAY)
        ts, n = series.timestamps, len(series.markets)
        due = len({(t - ts[0]) // SECONDS_PER_DAY for t in ts})
        for budgets in ([1e6], [1e6, 1e7, 1e8]):
            reads.clear()
            curve = sweep_budgets(series, cfg, budgets)
            # A compile's read per market at each due step, then one walk's
            # read per market at each step.
            assert len(reads) == n * (due + len(ts) - 1)
        assert curve == [(b, run_backtest(series, replace(cfg, budget=b)).apy) for b in budgets]

    def test_apy_only_replay_reads_the_pre_trade_mark_of_a_last_step_trade(self):
        series = flat_series(hours=48)
        # The rate jumps past the staking rate at the last snapshot, a due
        # step, so the replay unwinds there and pays a fee.
        (targets,) = series.rate_at_target
        series = replace(series, rate_at_target=((*targets[:-1], 100.0 * targets[-1]),))
        cfg = config(smoothing_window=0, fees=FeeModel(0.001, 0.001, 1.0))
        full = run_backtest(series, cfg)
        assert full.fees_paid[-1] > 0.0
        post_trade = full.unleveraged[-1] + full.collateral[0][-1] - full.debt[0][-1]
        assert post_trade < full.equity[-1]
        only_apy = backtest._replay(series, [cfg], False)
        assert repr(only_apy) == repr([full.apy])

    def test_every_value_is_checked_before_any_replay(self, monkeypatch):
        monkeypatch.setattr(backtest, "_replay", lambda *args: pytest.fail("replayed"))
        cfg = config(rebalance_frequency=SECONDS_PER_DAY)
        with pytest.raises(DomainError, match="budget must be positive and finite"):
            sweep_budgets(scenario_series(), cfg, [1.0, math.nan])
        with pytest.raises(DomainError, match="l_max must be at least 1 and finite"):
            sweep_leverage(scenario_series(), cfg, [3.0, math.nan], [1.0])

    def test_empty_cap_list_rejected(self):
        with pytest.raises(DomainError) as exc:
            sweep_leverage(scenario_series(), config(rebalance_frequency=SECONDS_PER_DAY), [], [1.0])
        assert str(exc.value) == "l_max list must not be empty"

    @pytest.mark.parametrize("caps", [[3.0, 30.0], [30.0, 3.0]], ids=["last", "first"])
    def test_bad_cap_is_refused_before_any_replay(self, caps):
        with pytest.raises(ConstraintError) as exc:
            sweep_leverage(scenario_series(), config(rebalance_frequency=SECONDS_PER_DAY), caps, [1.0, 1e3])
        assert str(exc.value) == (
            "l_max=30.0 outside (1, 18.1818] allowed by max_ltv=0.945 of market core"
        )

    def test_sweep_smooths_once(self, monkeypatch):
        calls, checks = [], []
        replay_targets, problems = backtest._replay_targets, SnapshotSeries._problems

        def counting(series, window):
            calls.append(window)
            return replay_targets(series, window)

        def checking(series, where):
            checks.append(where)
            return problems(series, where)

        series = scenario_series()
        monkeypatch.setattr(backtest, "_replay_targets", counting)
        monkeypatch.setattr(SnapshotSeries, "_problems", checking)
        cfg = config(rebalance_frequency=SECONDS_PER_DAY)
        sweep_leverage(series, cfg, [3.0, 5.0], [1.0, 100.0, 1e4])
        assert calls == [SECONDS_PER_DAY]
        # The smoothed columns feed the replays; no second series is built.
        assert checks == []

    def test_sweep_checks_curves_once(self, monkeypatch):
        checks = []
        check_curves = backtest._check_curves
        monkeypatch.setattr(backtest, "_check_curves", lambda *args: checks.append(args[0]) or check_curves(*args))
        series = scenario_series()
        sweep_leverage(series, config(rebalance_frequency=SECONDS_PER_DAY), [3.0, 5.0], [1.0, 100.0, 1e4])
        assert checks == [series]

    def test_empty_budget_list_rejected(self):
        with pytest.raises(DomainError):
            sweep_budgets(scenario_series(), config(), [])


class TestLayers:
    @pytest.fixture
    def calls(self, monkeypatch) -> Counter:
        calls = Counter()
        for name in ("_schedule", "_trade", "_accrue", "_result"):

            def counting(*args, _layer=getattr(backtest, name), _name=name):
                calls[_name] += 1
                return _layer(*args)

            monkeypatch.setattr(backtest, name, counting)
        return calls

    def test_each_layer_runs_per_replay_due_step_or_stretch(self, calls):
        # The set-up once per replay, a trade at most once per run and due
        # step, an accrual once per run and stretch, the result once per
        # backtest: none of them once per snapshot.
        series = scenario_series("volatile")
        cfg = config(rebalance_frequency=SECONDS_PER_DAY, fees=FeeModel(1e-4, 1e-4, 7.0 / 365.0))
        ts = series.timestamps
        due = len({(t - ts[0]) // SECONDS_PER_DAY for t in ts})
        assert 10 * due < len(ts)
        expected = sweep_leverage(series, cfg, [3.0, 5.0], [1.0, 1e3, 1e6])
        runs = 6
        assert calls["_schedule"] == 1
        assert 0 < calls["_trade"] <= runs * due
        assert calls["_accrue"] == runs * due
        assert calls["_result"] == 0
        calls.clear()
        result = run_backtest(series, replace(cfg, l_max=5.0, budget=1e3))
        assert calls["_schedule"] == 1
        assert 0 < calls["_trade"] <= due
        assert calls["_accrue"] == due
        assert calls["_result"] == 1
        assert result.apy == expected[5.0][1][1]
