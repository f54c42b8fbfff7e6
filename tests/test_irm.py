from __future__ import annotations

import math
import random

import pytest

from oracles import grid_response, oracle_rate
from stakeloop.errors import (
    ConstraintError,
    DomainError,
    LiquidityExceededError,
    UnsupportedModelError,
)
from stakeloop.irm import (
    AdaptiveIrmParams,
    KinkedIrmParams,
    LinearIrmParams,
    MarketState,
    advance_adaptive_rate,
    borrow_rate,
    kinked_equivalent,
    marginal_cost_subgradient,
    market_response,
    response_events,
)
from stakeloop.units import SECONDS_PER_YEAR


def event_levels(market, l_max, s):
    return [level for level, _, _ in response_events(market, l_max, s)]


LINEAR = LinearIrmParams(r_base=0.01, r_slope1=0.04, u_target=0.9)
KINKED = KinkedIrmParams(r_base=0.01, r_slope1=0.04, r_slope2=0.6, u_target=0.9)
STEEP_KINK = KinkedIrmParams(r_base=0.0, r_slope1=0.01, r_slope2=0.5, u_target=0.9)


def adaptive(rate_at_target=0.04, steepness=4.0, u_target=0.9) -> AdaptiveIrmParams:
    return AdaptiveIrmParams(
        rate_at_target=rate_at_target,
        curve_steepness=steepness,
        u_target=u_target,
        adjustment_speed=50.0,
        t_last=0.0,
        u_last=u_target,
    )


class TestConstruction:
    def test_u_target_bounds(self):
        with pytest.raises(DomainError):
            LinearIrmParams(0.01, 0.04, 1.0)
        with pytest.raises(DomainError):
            LinearIrmParams(0.01, 0.04, 0.0)

    def test_kinked_u_target_bounds(self):
        with pytest.raises(DomainError) as exc:
            KinkedIrmParams(r_base=0.0, r_slope1=0.01, r_slope2=0.5, u_target=1.0)
        assert str(exc.value) == "u_target must be in (0, 1), got 1.0"

    def test_non_finite_shadow_rate_rejected(self):
        market = MarketState("x", 100.0, 10.0, 0.9, LINEAR)
        with pytest.raises(DomainError) as exc:
            market_response(market, 5.0, 0.03, math.nan)
        assert str(exc.value) == "lam must be finite, got nan"

    def test_controller_utilization_outside_the_unit_interval_rejected(self):
        with pytest.raises(DomainError) as exc:
            advance_adaptive_rate(adaptive(), 1.5, 10.0)
        assert str(exc.value) == "u_now must be in [0, 1], got 1.5"

    def test_kinked_slope_ordering_required(self):
        # r_slope1 must stay below u/(1-u) * r_slope2
        with pytest.raises(DomainError):
            KinkedIrmParams(r_base=0.0, r_slope1=1.0, r_slope2=0.1, u_target=0.9)
        KinkedIrmParams(r_base=0.0, r_slope1=0.89, r_slope2=0.1, u_target=0.9)

    def test_adaptive_steepness_condition(self):
        with pytest.raises(DomainError):
            adaptive(steepness=0.4, u_target=0.6)
        with pytest.raises(DomainError):
            AdaptiveIrmParams(0.04, 1.2, 0.4, 50.0, 0.0, 0.4)  # (1-u)/u = 1.5 > 1.2

    def test_market_state_invariants(self):
        with pytest.raises(DomainError):
            MarketState("x", 0.0, 0.0, 0.9, LINEAR)
        with pytest.raises(DomainError):
            MarketState("x", 100.0, 101.0, 0.9, LINEAR)
        with pytest.raises(DomainError):
            MarketState("x", 100.0, 10.0, 1.0, LINEAR)

    def test_market_state_refuses_an_unknown_rate_model(self):
        with pytest.raises(UnsupportedModelError):
            MarketState("x", 100.0, 10.0, 0.9, object())

    @pytest.mark.parametrize("reader", [borrow_rate, marginal_cost_subgradient])
    def test_rate_readers_refuse_an_unknown_rate_model(self, reader):
        with pytest.raises(UnsupportedModelError):
            reader(object(), 100.0, 10.0, 5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: LinearIrmParams(v, 0.04, 0.9),
            lambda v: LinearIrmParams(0.01, v, 0.9),
            lambda v: LinearIrmParams(0.01, 0.04, v),
            lambda v: KinkedIrmParams(v, 0.04, 0.6, 0.9),
            lambda v: KinkedIrmParams(0.01, v, 0.6, 0.9),
            lambda v: KinkedIrmParams(0.01, 0.04, v, 0.9),
            lambda v: AdaptiveIrmParams(v, 4.0, 0.9, 50.0, 0.0, 0.9),
            lambda v: AdaptiveIrmParams(0.04, v, 0.9, 50.0, 0.0, 0.9),
            lambda v: AdaptiveIrmParams(0.04, 4.0, v, 50.0, 0.0, 0.9),
            lambda v: AdaptiveIrmParams(0.04, 4.0, 0.9, v, 0.0, 0.9),
            lambda v: AdaptiveIrmParams(0.04, 4.0, 0.9, 50.0, v, 0.9),
            lambda v: AdaptiveIrmParams(0.04, 4.0, 0.9, 50.0, 0.0, v),
            lambda v: MarketState("x", v, 10.0, 0.9, LINEAR),
            lambda v: MarketState("x", 100.0, v, 0.9, LINEAR),
            lambda v: MarketState("x", 100.0, 10.0, v, LINEAR),
            lambda v: borrow_rate(LINEAR, v, 0.0),
            lambda v: borrow_rate(LINEAR, 1000.0, v),
            lambda v: borrow_rate(LINEAR, 1000.0, 100.0, v),
            lambda v: marginal_cost_subgradient(LINEAR, v, 0.0, 1.0),
            lambda v: marginal_cost_subgradient(LINEAR, 1000.0, v, 1.0),
            lambda v: marginal_cost_subgradient(LINEAR, 1000.0, 100.0, v),
        ],
        ids=[
            "linear.r_base", "linear.r_slope1", "linear.u_target",
            "kinked.r_base", "kinked.r_slope1", "kinked.r_slope2",
            "adaptive.rate_at_target", "adaptive.curve_steepness", "adaptive.u_target",
            "adaptive.adjustment_speed", "adaptive.t_last", "adaptive.u_last",
            "market.supplied", "market.borrowed", "market.max_ltv",
            "borrow_rate.supplied", "borrow_rate.borrowed", "borrow_rate.delta_borrow",
            "subgradient.supplied", "subgradient.borrowed", "subgradient.borrow_amount",
        ],
    )
    def test_non_finite_field_rejected(self, build, bad):
        with pytest.raises(DomainError):
            build(bad)


class TestBorrowRate:
    def test_linear_rate_at_target(self):
        assert borrow_rate(LINEAR, 100.0, 90.0, 0.0) == pytest.approx(0.05)

    def test_kinked_rate_at_full_utilization(self):
        assert borrow_rate(KINKED, 100.0, 100.0, 0.0) == pytest.approx(0.65)

    def test_adaptive_rate_at_target_and_zero(self):
        irm = adaptive()
        assert borrow_rate(irm, 100.0, 90.0, 0.0) == pytest.approx(0.04)
        assert borrow_rate(irm, 100.0, 0.0, 0.0) == pytest.approx(0.01)

    def test_liquidity_exceeded(self):
        with pytest.raises(LiquidityExceededError):
            borrow_rate(LINEAR, 100.0, 90.0, 11.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            borrow_rate(LINEAR, 100.0, -1.0, 0.0)
        with pytest.raises(DomainError):
            borrow_rate(LINEAR, 100.0, 5.0, -6.0)

    def test_repayment_delta_allowed(self):
        assert borrow_rate(LINEAR, 100.0, 50.0, -50.0) == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "irm", [LINEAR, KINKED, STEEP_KINK, adaptive(), adaptive(0.07, 3.0, 0.8)]
    )
    def test_matches_oracle_formulas(self, irm):
        for total in [0.0, 10.0, 45.0, 89.999, 90.0, 90.001, 99.0, 100.0]:
            assert borrow_rate(irm, 100.0, 0.0, total) == pytest.approx(
                oracle_rate(irm, 100.0, total), abs=1e-15
            )

    @pytest.mark.parametrize(
        "irm", [LINEAR, KINKED, STEEP_KINK, adaptive(), adaptive(0.07, 3.0, 0.8)]
    )
    def test_nondecreasing_and_convex_in_delta(self, irm):
        supplied, borrowed = 100.0, 20.0
        grid = [k * (supplied - borrowed) / 400 for k in range(401)]
        rates = [borrow_rate(irm, supplied, borrowed, d) for d in grid]
        for a, b in zip(rates, rates[1:]):
            assert b >= a - 1e-15
        second = [rates[k + 1] - 2 * rates[k] + rates[k - 1] for k in range(1, 400)]
        assert all(d >= -1e-12 for d in second)


class TestSubgradient:
    def test_linear_degenerate_interval(self):
        supplied, borrowed = 100.0, 30.0
        for amount in [0.0, 10.0, 42.0]:
            lo, hi = marginal_cost_subgradient(LINEAR, supplied, borrowed, amount)
            expected = LINEAR.r_base + (borrowed + 2 * amount) * LINEAR.r_slope1 / (
                supplied * LINEAR.u_target
            )
            assert lo == hi == pytest.approx(expected)

    def test_kinked_interval_at_kink_matches_one_sided_differences(self):
        supplied, borrowed, at_kink = 100.0, 80.0, 10.0
        lo, hi = marginal_cost_subgradient(STEEP_KINK, supplied, borrowed, at_kink)
        assert lo < hi

        def g(amount):
            return amount * oracle_rate(STEEP_KINK, supplied, borrowed + amount)

        h = 1e-7
        left = (g(at_kink) - g(at_kink - h)) / h
        right = (g(at_kink + h) - g(at_kink)) / h
        assert lo == pytest.approx(left, rel=1e-5)
        assert hi == pytest.approx(right, rel=1e-5)
        # closed forms for the two slopes
        assert lo == pytest.approx(0.01 + 10.0 * 0.01 / 90.0)
        assert hi == pytest.approx(0.01 + 10.0 * 0.5 / 10.0)

    def test_past_kink_degenerate_with_steep_slope(self):
        lo, hi = marginal_cost_subgradient(STEEP_KINK, 100.0, 80.0, 15.0)
        assert lo == hi
        rate = oracle_rate(STEEP_KINK, 100.0, 95.0)
        assert lo == pytest.approx(rate + 15.0 * 0.5 / 10.0)


MARKET_LINEAR = MarketState("lin", 100.0, 0.0, 0.945, LINEAR)
MARKET_KINK = MarketState("kink", 100.0, 80.0, 0.945, STEEP_KINK)


class TestMarketResponse:
    def test_linear_worked_example(self):
        x = market_response(MARKET_LINEAR, 5.0, 0.03, 0.03)
        assert x == pytest.approx(5.625, abs=1e-12)
        # stationarity at the optimum: marginal borrow cost equals the carry rate
        debt = x * 4.0
        rate = borrow_rate(LINEAR, 100.0, 0.0, debt)
        assert rate + debt * 0.04 / 90.0 == pytest.approx(0.03, abs=1e-12)

    def test_zero_past_the_waterline(self):
        assert market_response(MARKET_LINEAR, 5.0, 0.03, 0.11) == 0.0
        assert market_response(MARKET_LINEAR, 5.0, 0.03, 0.2) == 0.0
        assert market_response(MARKET_KINK, 5.0, 0.03, 1.0) == 0.0

    def test_kink_plateau(self):
        # lam1 ~ 0.10556 and lam2 < 0, so lam = 0.03 pins the kink exposure
        assert market_response(MARKET_KINK, 5.0, 0.03, 0.03) == pytest.approx(2.5)
        assert market_response(MARKET_KINK, 5.0, 0.03, 0.09) == pytest.approx(2.5)

    def test_adaptive_equals_mapped_kinked(self):
        irm = adaptive()
        mapped = kinked_equivalent(irm)
        assert mapped.r_base == pytest.approx(0.01)
        assert mapped.r_slope1 == pytest.approx(0.03)
        assert mapped.r_slope2 == pytest.approx(0.12)
        m_a = MarketState("a", 100.0, 0.0, 0.945, irm)
        m_k = MarketState("k", 100.0, 0.0, 0.945, mapped)
        for lam in [0.0, 0.01, 0.03, 0.08, 0.2]:
            assert market_response(m_a, 5.0, 0.03, lam) == pytest.approx(
                market_response(m_k, 5.0, 0.03, lam), abs=1e-12
            )

    def test_adaptive_equals_kinked_on_random_markets(self):
        rng = random.Random(7)
        for _ in range(100):
            supplied = rng.uniform(10.0, 5000.0)
            u_target = rng.uniform(0.6, 0.95)
            borrowed = rng.uniform(0.0, supplied * 0.99)
            irm = AdaptiveIrmParams(
                rate_at_target=rng.uniform(0.005, 0.09),
                curve_steepness=rng.uniform(1.5, 6.0),
                u_target=u_target,
                adjustment_speed=50.0,
                t_last=0.0,
                u_last=borrowed / supplied,
            )
            m_a = MarketState("a", supplied, borrowed, 0.945, irm)
            m_k = MarketState("k", supplied, borrowed, 0.945, kinked_equivalent(irm))
            l_max = rng.uniform(1.5, 8.0)
            s = rng.uniform(0.01, 0.06)
            for _ in range(5):
                delta = rng.uniform(0.0, supplied - borrowed)
                assert borrow_rate(irm, supplied, borrowed, delta) == pytest.approx(
                    borrow_rate(m_k.irm, supplied, borrowed, delta), abs=1e-12
                )
                lam = rng.uniform(0.0, 0.3)
                assert market_response(m_a, l_max, s, lam) == pytest.approx(
                    market_response(m_k, l_max, s, lam), abs=1e-12
                )

    def test_nonincreasing_in_lam(self):
        for market in (MARKET_LINEAR, MARKET_KINK, MarketState("a", 200.0, 30.0, 0.945, adaptive())):
            xs = [market_response(market, 5.0, 0.03, k / 500.0) for k in range(150)]
            for a, b in zip(xs, xs[1:]):
                assert b <= a + 1e-15

    def test_liquidity_cap_binds(self):
        # flat rate curve: the response saturates available liquidity
        flat = LinearIrmParams(r_base=0.0, r_slope1=0.0, u_target=0.9)
        market = MarketState("flat", 100.0, 40.0, 0.945, flat)
        assert market_response(market, 5.0, 0.03, 0.03) == pytest.approx(15.0)
        assert market_response(market, 5.0, 0.03, 0.2) == 0.0

    def test_full_utilization_market_responds_zero(self):
        market = MarketState("full", 100.0, 100.0, 0.945, KINKED)
        for lam in [0.0, 0.03, 0.1]:
            assert market_response(market, 5.0, 0.03, lam) == 0.0

    def test_l_max_validation(self):
        with pytest.raises(ConstraintError, match=f"of market {MARKET_LINEAR.market_id}$"):
            market_response(MARKET_LINEAR, 19.0, 0.03, 0.03)  # bound is ~18.18
        with pytest.raises(ConstraintError):
            market_response(MARKET_LINEAR, 1.0, 0.03, 0.03)

    def test_foc_residual_interior(self):
        rng = random.Random(3)
        for _ in range(200):
            market = random.Random(rng.random()).choice(
                [MARKET_LINEAR, MARKET_KINK, MarketState("a", 150.0, 30.0, 0.945, adaptive())]
            )
            l_max = rng.uniform(2.0, 8.0)
            s = rng.uniform(0.01, 0.06)
            lam = rng.uniform(0.0, 0.15)
            x = market_response(market, l_max, s, lam)
            cap = market.available_liquidity / (l_max - 1.0)
            if x <= 0.0 or x >= cap - 1e-12:
                continue
            debt = x * (l_max - 1.0)
            lo, hi = marginal_cost_subgradient(
                market.irm, market.supplied, market.borrowed, debt
            )
            lo_value = l_max * s - (l_max - 1.0) * hi
            hi_value = l_max * s - (l_max - 1.0) * lo
            assert lo_value - 1e-9 <= lam <= hi_value + 1e-9

    @pytest.mark.parametrize(
        "market",
        [
            MARKET_LINEAR,
            MARKET_KINK,
            MarketState("near", 100.0, 85.0, 0.945, KINKED),
            MarketState("above", 100.0, 95.0, 0.945, KINKED),
            MarketState("ada", 300.0, 100.0, 0.945, adaptive(0.05, 4.0, 0.9)),
        ],
    )
    def test_matches_grid_search_oracle(self, market):
        l_max, s = 5.0, 0.03
        cap = market.available_liquidity / (l_max - 1.0)
        for lam in [0.0, 0.02, 0.03, 0.05, 0.09]:
            expected = grid_response(market, l_max, s, lam)
            got = market_response(market, l_max, s, lam)
            assert abs(got - expected) <= cap / 100_000 + 1e-12


class TestBreakpoints:
    def test_linear_single_value(self):
        # beta, then the cap breakpoint beta - 2*c*m^2*cap with c = 0.04/90, cap = 25
        assert event_levels(MARKET_LINEAR, 5.0, 0.03) == [
            pytest.approx(0.11),
            pytest.approx(0.11 - 2 * (0.04 / 90.0) * 16 * 25.0),
        ]

    def test_kinked_below_target_ordering(self):
        points = event_levels(MARKET_KINK, 5.0, 0.03)
        assert len(points) == 4
        beta1, lam1, lam2, lam_cap = points
        assert beta1 > lam1 > lam2 > lam_cap
        assert lam1 == pytest.approx(0.15 - 4 * (0.01 + 10.0 * 0.01 / 90.0))
        # beta2 - 2*c2*m^2*cap with c2 = 0.5/10, beta2 = 0.15 - 4*(0.01 - 10*c2), cap = 5
        assert lam_cap == pytest.approx(0.15 - 4 * (0.01 - 10.0 * 0.05) - 2 * 0.05 * 16 * 5.0)

    def test_above_target_single_value(self):
        market = MarketState("above", 100.0, 95.0, 0.945, KINKED)
        points = event_levels(market, 5.0, 0.03)
        # beta2 on the steep branch, then its cap breakpoint with c2 = 0.6/10, cap = 1.25
        beta2 = 0.15 - 4 * (0.01 + 0.04 + 5.0 * 0.06)
        assert points == [pytest.approx(beta2), pytest.approx(beta2 - 2 * 0.06 * 16 * 1.25)]

    def test_adaptive_breakpoints_match_kinked_image(self):
        irm = adaptive(0.05, 4.0, 0.9)
        m_a = MarketState("a", 200.0, 60.0, 0.945, irm)
        m_k = MarketState("k", 200.0, 60.0, 0.945, kinked_equivalent(irm))
        assert event_levels(m_a, 5.0, 0.03) == pytest.approx(
            event_levels(m_k, 5.0, 0.03)
        )

    def test_piece_one_float_wide_gives_way(self):
        # One ulp below target utilization the gentle branch spans one float,
        # from 0.11 down to the float below; the plateau starts at 0.11.
        market = MarketState("k", 100.0, math.nextafter(90.0, 0.0), 0.945, STEEP_KINK)
        (level, jump, slope), *rest = response_events(market, 5.0, 0.03)
        assert (level, slope) == (0.11, 0.0)
        assert jump == (90.0 - market.borrowed) / 4.0
        assert len(rest) == 2

    def test_response_affine_between_breakpoints(self):
        for market in (MARKET_LINEAR, MARKET_KINK):
            points = [p for p in event_levels(market, 5.0, 0.03) if p > 0.0]
            grid = sorted(set(points + [0.0, max(points) + 0.05]), reverse=True)
            for hi, lo in zip(grid, grid[1:]):
                mid = (hi + lo) / 2.0
                x_hi = market_response(market, 5.0, 0.03, hi)
                x_lo = market_response(market, 5.0, 0.03, lo)
                x_mid = market_response(market, 5.0, 0.03, mid)
                assert x_mid == pytest.approx((x_hi + x_lo) / 2.0, abs=1e-9)


class TestAdaptiveDynamics:
    def test_at_target_rate_unchanged(self):
        irm = adaptive()
        out = advance_adaptive_rate(irm, 0.5, 10 * SECONDS_PER_YEAR)
        assert out.rate_at_target == pytest.approx(0.04, abs=1e-15)
        assert out.u_last == 0.5
        assert out.t_last == 10 * SECONDS_PER_YEAR

    def test_full_utilization_compounds_up(self):
        irm = AdaptiveIrmParams(0.04, 4.0, 0.9, 2.0, 0.0, 1.0)
        out = advance_adaptive_rate(irm, 0.9, SECONDS_PER_YEAR)
        assert out.rate_at_target == pytest.approx(0.04 * math.e**2, rel=1e-12)

    def test_empty_pool_decays(self):
        irm = AdaptiveIrmParams(0.04, 4.0, 0.9, 2.0, 0.0, 0.0)
        out = advance_adaptive_rate(irm, 0.9, SECONDS_PER_YEAR // 2)
        assert out.rate_at_target == pytest.approx(0.04 / math.e, rel=1e-9)

    def test_time_backwards_rejected(self):
        irm = adaptive()
        with pytest.raises(DomainError):
            advance_adaptive_rate(irm, 0.5, -1.0)
