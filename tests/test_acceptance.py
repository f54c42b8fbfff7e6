"""Acceptance gate: one test per criterion, each printing a pass line.

Everything here runs on deterministic seeds and bundled synthetic scenarios;
the only networked check is the recorded-market reproduction, which is off
unless STAKELOOP_NETWORK_TESTS=1.
"""

from __future__ import annotations

import math
import os
import random
import time

import pytest

from oracles import random_instance, simplex_search
from stakeloop.allocator import (
    ProblemInstance,
    SATURATED,
    solve,
    verify_kkt,
    waterfilling_detail,
)
from stakeloop.backtest import (
    DYNAMIC,
    FIXED_FREQUENCY,
    STAKING_ONLY,
    BacktestConfig,
    run_backtest,
    sweep_budgets,
)
from stakeloop.data import generate_synthetic, scenario
from stakeloop.irm import (
    AdaptiveIrmParams,
    KinkedIrmParams,
    LinearIrmParams,
    MarketState,
    advance_adaptive_rate,
    borrow_rate,
    kinked_equivalent,
    market_response,
)
from stakeloop.position import ExposureLeverage, split, unsplit
from stakeloop.rebalance import DECREASE, HOLD, FeeModel, solve_with_fees
from stakeloop.units import SECONDS_PER_HOUR, SECONDS_PER_YEAR

PASS = "[criterion {:>2}] PASS — {}"

_solved_instances: list[tuple[ProblemInstance, object]] = []


def _remember(p: ProblemInstance, alloc) -> None:
    _solved_instances.append((p, alloc))


def test_criterion_01_closed_form_matches_brute_force_oracle():
    rng = random.Random(20250101)
    started = time.monotonic()
    worst_gap = 0.0
    for _ in range(200):
        markets, l_maxes, s, budget = random_instance(rng)
        p = ProblemInstance.of(markets, l_maxes, s, budget)
        alloc = solve(p)
        _remember(p, alloc)
        oracle_best = simplex_search(markets, l_maxes, s, budget, min_steps=10_000)
        slack = 1e-6 * budget * s
        assert alloc.expected_yield >= oracle_best - slack, (p, alloc.expected_yield, oracle_best)
        worst_gap = max(worst_gap, (oracle_best - alloc.expected_yield) / max(slack, 1e-300))
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"
    print(PASS.format(1, f"200 instances vs simplex oracle in {elapsed:.1f}s"))


def test_criterion_02_linear_closed_form_exactness():
    rng = random.Random(77)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 4)
        markets = []
        for i in range(n):
            markets.append(
                MarketState(
                    f"m{i}",
                    rng.uniform(20.0, 5000.0),
                    0.0,
                    0.945,
                    LinearIrmParams(
                        rng.uniform(0.0, 0.02), rng.uniform(0.02, 0.08), rng.uniform(0.7, 0.95)
                    ),
                )
            )
        l_max = rng.uniform(2.0, 6.0)
        s = rng.uniform(0.01, 0.05)
        unconstrained = [
            market_response(m, l_max, s, s) for m in markets
        ]
        total = sum(unconstrained)
        if total <= 0.0:
            continue
        caps = [m.available_liquidity / (l_max - 1.0) for m in markets]
        if any(x > 0.98 * cap for x, cap in zip(unconstrained, caps)):
            continue  # keep liquidity caps out of the closed form's domain
        budget = total * rng.uniform(0.05, 0.95)
        p = ProblemInstance.uniform(markets, l_max, s, budget)
        detail = waterfilling_detail(p)
        scanned = solve(p)
        _remember(p, scanned)
        for x, y in zip(detail.allocation.exposures, scanned.exposures):
            assert abs(x - y) <= 1e-10 * max(1.0, budget)
        k = detail.active_count
        assert detail.fill_thresholds[k - 1] < budget
        if k < n:
            assert budget <= detail.fill_thresholds[k]
        checked += 1
    print(PASS.format(2, "100 all-linear instances: closed form == scan, fill rule holds"))


KINK_MARKET = MarketState(
    "kink", 100.0, 80.0, 0.945, KinkedIrmParams(0.0, 0.01, 0.5, 0.9)
)


def test_criterion_03_kink_plateau_is_exact():
    x = market_response(KINK_MARKET, 5.0, 0.03, 0.03)
    assert x == 2.5  # exactly, no tolerance
    p = ProblemInstance.uniform([KINK_MARKET], 5.0, 0.03, 10.0)
    alloc = solve(p)
    _remember(p, alloc)
    assert alloc.exposures[0] == 2.5
    assert alloc.regime == SATURATED
    report = verify_kkt(alloc, p, tol=1e-8)
    assert report.passed
    print(PASS.format(3, "kinked response pins x = 2.5 and certifies via the subgradient interval"))


def test_criterion_04_adaptive_matches_kinked_image():
    rng = random.Random(404)
    for _ in range(100):
        supplied = rng.uniform(10.0, 5000.0)
        u_target = rng.uniform(0.6, 0.95)
        borrowed = rng.uniform(0.0, 0.99 * supplied)
        irm = AdaptiveIrmParams(
            rate_at_target=rng.uniform(0.005, 0.09),
            curve_steepness=rng.uniform(1.5, 6.0),
            u_target=u_target,
            adjustment_speed=50.0,
            t_last=0.0,
            u_last=borrowed / supplied,
        )
        image = kinked_equivalent(irm)
        adaptive_market = MarketState("a", supplied, borrowed, 0.945, irm)
        kinked_market = MarketState("a", supplied, borrowed, 0.945, image)
        l_max = rng.uniform(1.5, 8.0)
        s = rng.uniform(0.01, 0.06)
        for _ in range(5):
            delta = rng.uniform(0.0, supplied - borrowed)
            assert abs(
                borrow_rate(irm, supplied, borrowed, delta)
                - borrow_rate(image, supplied, borrowed, delta)
            ) <= 1e-12
            lam = rng.uniform(0.0, 0.3)
            a = market_response(adaptive_market, l_max, s, lam)
            b = market_response(kinked_market, l_max, s, lam)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
        p = ProblemInstance.uniform([adaptive_market], l_max, s, budget=supplied * 0.05)
        _remember(p, solve(p))
    print(PASS.format(4, "100 adaptive markets equal their kinked images to 1e-12"))


def test_criterion_05_split_bijection_and_objective_transport():
    rng = random.Random(55)
    market = MarketState(
        "m", 500.0, 100.0, 0.945, KinkedIrmParams(0.005, 0.02, 0.4, 0.9)
    )
    s = 0.03
    for _ in range(1000):
        l_max = rng.uniform(1.2, 10.0)
        el = ExposureLeverage(rng.uniform(0.01, 50.0), rng.uniform(1.0, l_max))
        back = unsplit(split(el, l_max))
        assert abs(back.exposure - el.exposure) <= 1e-12 * el.exposure
        assert abs(back.leverage - el.leverage) <= 1e-12 * el.leverage

        # cash flow computed on (x, l) directly vs on its split image
        debt = el.exposure * (el.leverage - 1.0)
        direct = el.exposure * el.leverage * s - debt * borrow_rate(
            market.irm, market.supplied, market.borrowed, debt
        )
        sp = split(el, l_max)
        image_debt = sp.max_leveraged * (l_max - 1.0)
        image = (
            sp.unleveraged * s
            + sp.max_leveraged * l_max * s
            - image_debt
            * borrow_rate(market.irm, market.supplied, market.borrowed, image_debt)
        )
        assert abs(direct - image) <= 1e-10 * max(1.0, abs(direct))
    print(PASS.format(5, "1000 split round-trips exact; direct and convexified cash flows agree"))


def test_criterion_06_kkt_certification_across_solved_instances():
    assert _solved_instances, "criteria 1-4 populate the shared instance pool"
    zero_exposure_seen = 0
    for p, alloc in _solved_instances:
        report = verify_kkt(alloc, p, tol=1e-8)
        assert report.passed, (p, report)
        zero_exposure_seen += sum(1 for x in alloc.exposures if x == 0.0)
    assert zero_exposure_seen > 0  # complementary slackness genuinely exercised
    print(
        PASS.format(
            6,
            f"{len(_solved_instances)} allocations certified at tol 1e-8 "
            f"({zero_exposure_seen} zero-exposure markets)",
        )
    )


def test_criterion_07_fee_algorithm_branches():
    markets = [
        MarketState("A", 100.0, 0.0, 0.945, LinearIrmParams(0.01, 0.04, 0.9)),
        MarketState("B", 50.0, 0.0, 0.945, LinearIrmParams(0.02, 0.04, 0.9)),
    ]
    p = ProblemInstance.uniform(markets, 5.0, 0.03, 3.0)
    from stakeloop.allocator import Allocation

    current = Allocation.from_position(p.market_ids, [0.5, 0.5], 2.0)

    # (a) zero fees reduce to the plain solve
    plan = solve_with_fees(p, current, FeeModel(0.0, 0.0, 1.0 / 365.0))
    fee_free = solve(p)
    assert plan.target.exposures == fee_free.exposures
    assert plan.target.unleveraged == fee_free.unleveraged

    # (b) an immediate re-solve holds
    second = solve_with_fees(p, plan.target, FeeModel(0.0, 0.0, 1.0 / 365.0))
    assert second.direction == HOLD

    # (c) a punitive exit fee freezes a position the fee-free solve would unwind
    p_big = ProblemInstance.uniform(markets, 5.0, 0.03, 10.0)
    over_levered = Allocation.from_position(p_big.market_ids, [9.0, 0.5], 0.5)
    frozen = solve_with_fees(p_big, over_levered, FeeModel(0.0, 0.5, 1.0 / 365.0))
    assert frozen.direction == HOLD
    assert frozen.target is over_levered
    # sanity: with a tiny exit fee the same position is unwound
    unwound = solve_with_fees(p_big, over_levered, FeeModel(0.0, 1e-6, 1.0 / 365.0))
    assert unwound.direction == DECREASE
    print(PASS.format(7, "fee-free reduction, hysteresis hold, and punitive-fee hold"))


def test_criterion_08_backtest_conservation_and_size_effect():
    series, _ = generate_synthetic(scenario("rate-crossing"), seed=1)
    cfg = BacktestConfig(
        budget=1.0,
        rebalance_frequency=SECONDS_PER_HOUR,
        strategy=FIXED_FREQUENCY,
        fees=FeeModel(0.0, 0.0, 1.0 / 365.0),
    )
    budgets = [10.0 ** k for k in range(8)]
    curve = sweep_budgets(series, cfg, budgets)
    apys = [a for _, a in curve]
    for a, b in zip(apys, apys[1:]):
        assert b <= a + 1e-9, f"size effect violated: {apys}"

    staking = run_backtest(series, BacktestConfig(budget=1.0, strategy=STAKING_ONLY)).apy
    assert abs(apys[-1] - staking) < 0.001, (apys[-1], staking)

    r = run_backtest(series, BacktestConfig(budget=100.0, rebalance_frequency=SECONDS_PER_HOUR))
    flows = zip(r.equity, r.staking_accrued, r.interest_paid, r.fees_paid, r.equity[1:])
    for equity, staking, interest, fees, after in flows:
        expected = equity + staking - interest - fees
        assert abs(after - expected) <= 1e-9 * max(1.0, abs(after))
    print(
        PASS.format(
            8,
            f"per-step conservation at 1e-9; APY curve {apys[0]:.4f} -> {apys[-1]:.4f} "
            f"non-increasing, staking {staking:.4f}",
        )
    )


def test_criterion_09_dynamic_strategy_beats_fixed_under_fees():
    series, _ = generate_synthetic(scenario("volatile"), seed=0)
    # one-week holding horizon: rate swings on this dataset dissipate within days
    fees = FeeModel(gamma_plus=0.0, gamma_minus=0.0001, horizon_years=7.0 / 365.0)
    fixed = run_backtest(
        series,
        BacktestConfig(
            budget=10.0,
            rebalance_frequency=SECONDS_PER_HOUR,
            strategy=FIXED_FREQUENCY,
            fees=fees,
        ),
    )
    dynamic = run_backtest(
        series,
        BacktestConfig(
            budget=10.0,
            rebalance_frequency=SECONDS_PER_HOUR,
            strategy=DYNAMIC,
            threshold=0.0020,
            fees=fees,
        ),
    )
    assert dynamic.apy >= fixed.apy, (dynamic.apy, fixed.apy)
    assert dynamic.rebalance_count < fixed.rebalance_count
    print(
        PASS.format(
            9,
            f"dynamic {dynamic.apy:.4%} >= fixed {fixed.apy:.4%} at 1bp exit fee, "
            f"{dynamic.rebalance_count} vs {fixed.rebalance_count} rebalances",
        )
    )


ETHEREUM_MARKETS = (
    "6becf9b4-3c85-40bf-9938-196812e034a3",
    "928c009a-d217-42f7-9d3a-45bb6c8d71f9",
)
JAN_1_2025 = 1735689600
APR_1_2025 = 1743465600


@pytest.mark.skipif(
    not os.environ.get("STAKELOOP_NETWORK_TESTS"),
    reason="networked reproduction of the recorded-market table; "
    "set STAKELOOP_NETWORK_TESTS=1 (and optionally STAKELOOP_STAKING_ENDPOINT, "
    "STAKELOOP_ETH_PRICE) to run",
)
def test_criterion_10_recorded_market_table(tmp_path):
    from stakeloop.data import load_snapshots
    from stakeloop.fetch import fetch_market_history

    staking_endpoint = os.environ.get("STAKELOOP_STAKING_ENDPOINT")
    out = fetch_market_history(
        ETHEREUM_MARKETS,
        start=JAN_1_2025,
        end=APR_1_2025,
        out_dir=tmp_path / "ethereum",
        staking_endpoint=staking_endpoint,
        staking_rate=None if staking_endpoint else 0.031,
    )
    series = load_snapshots(out)
    eth_price = float(os.environ.get("STAKELOOP_ETH_PRICE", "3300"))
    low, high = 1e4 / eth_price, 1e7 / eth_price
    expectations = [
        (low, SECONDS_PER_HOUR, FIXED_FREQUENCY, 0.062),
        (low, 24 * SECONDS_PER_HOUR, FIXED_FREQUENCY, 0.058),
        (high, SECONDS_PER_HOUR, FIXED_FREQUENCY, 0.037),
        (high, 24 * SECONDS_PER_HOUR, FIXED_FREQUENCY, 0.037),
        (low, SECONDS_PER_HOUR, STAKING_ONLY, 0.031),
    ]
    for budget, freq, strategy, expected in expectations:
        result = run_backtest(
            series,
            BacktestConfig(budget=budget, rebalance_frequency=freq, strategy=strategy),
        )
        assert abs(result.apy - expected) <= 0.003, (strategy, freq, budget, result.apy)
    print(PASS.format(10, "recorded-market APY table reproduced within 0.3pp"))


def test_criterion_11_adaptive_controller_dynamics():
    base = AdaptiveIrmParams(
        rate_at_target=0.04,
        curve_steepness=4.0,
        u_target=0.9,
        adjustment_speed=2.0,
        t_last=0.0,
        u_last=0.9,
    )
    for dt in (SECONDS_PER_HOUR, SECONDS_PER_YEAR, 10 * SECONDS_PER_YEAR):
        out = advance_adaptive_rate(base, 0.5, dt)
        assert abs(out.rate_at_target - 0.04) <= 1e-12

    from dataclasses import replace

    full = replace(base, u_last=1.0)
    out = advance_adaptive_rate(full, 0.9, SECONDS_PER_YEAR)
    expected = 0.04 * math.exp(2.0)
    assert abs(out.rate_at_target - expected) <= 1e-12 * expected
    print(PASS.format(11, "rate at target fixed at u*, compounds exp(speed*dt) at full utilization"))
