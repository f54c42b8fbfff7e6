from __future__ import annotations

import math

import pytest

from stakeloop import allocator, irm, rebalance
from stakeloop.allocator import Allocation, ProblemInstance, solve
from stakeloop.errors import ConstraintError, DomainError
from stakeloop.irm import LinearIrmParams, MarketState
from stakeloop.rebalance import (
    AT_TARGET,
    DECREASE,
    HOLD,
    INCREASE,
    NO_BRANCH,
    FeeModel,
    rebalance_cost,
    should_rebalance,
    solve_with_fees,
    total_collateral,
)

LIN_A = MarketState("A", 100.0, 0.0, 0.945, LinearIrmParams(0.01, 0.04, 0.9))
LIN_B = MarketState("B", 50.0, 0.0, 0.945, LinearIrmParams(0.02, 0.04, 0.9))
DAY = 1.0 / 365.0


def instance(budget: float, s: float = 0.03) -> ProblemInstance:
    return ProblemInstance.uniform([LIN_A, LIN_B], 5.0, s, budget)


def position(p: ProblemInstance, exposures, unleveraged) -> Allocation:
    return Allocation.from_position(p.market_ids, exposures, unleveraged)


class TestTotalCollateral:
    def test_pure_staking(self):
        p = instance(10.0)
        assert total_collateral(position(p, [0.0, 0.0], 10.0), p.l_max) == 10.0

    def test_single_leveraged_unit(self):
        p = instance(1.0)
        assert total_collateral(position(p, [1.0, 0.0], 0.0), p.l_max) == 5.0

    def test_mixed(self):
        alloc = Allocation.from_position(("a", "b"), [1.0, 2.0], 2.0)
        assert total_collateral(alloc, (5.0, 3.0)) == pytest.approx(13.0)

    @pytest.mark.parametrize("l_max", [(5.0,), (5.0, 3.0, 2.0)])
    def test_one_cap_per_market_required(self, l_max):
        alloc = Allocation.from_position(("a", "b"), [1.0, 2.0], 2.0)
        with pytest.raises(DomainError, match="one entry per market"):
            total_collateral(alloc, l_max)


class TestFeeModel:
    @pytest.mark.parametrize("gammas", [(0.001, 0.0), (0.0, 0.001)], ids=["entry", "exit"])
    def test_fee_per_year_must_be_finite(self, gammas):
        # 0.001 over a subnormal horizon overflows to an infinite rate shift.
        with pytest.raises(DomainError, match="horizon_years"):
            FeeModel(*gammas, horizon_years=1e-318 / 365.0)

    def test_zero_fee_over_a_tiny_horizon_is_allowed(self):
        assert FeeModel(0.0, 0.0, 1e-318 / 365.0).gamma_plus == 0.0


class TestRebalanceCost:
    def test_zero_entry_fee_makes_increases_free(self):
        p = instance(10.0)
        fees = FeeModel(gamma_plus=0.0, gamma_minus=0.0002, horizon_years=DAY)
        old = position(p, [0.0, 0.0], 10.0)
        new = position(p, [2.0, 0.0], 8.0)
        assert rebalance_cost(new, old, fees, p.l_max) == 0.0

    def test_cross_market_shuffle_is_free(self):
        p = instance(10.0)
        fees = FeeModel(0.001, 0.001, DAY)
        old = position(p, [2.0, 1.0], 7.0)
        new = position(p, [1.0, 2.0], 7.0)
        assert rebalance_cost(new, old, fees, p.l_max) == 0.0

    def test_one_bp_on_collateral_drop_of_100(self):
        p = instance(200.0)
        fees = FeeModel(0.0, 0.0001, DAY)
        old = position(p, [25.0, 0.0], 75.0)  # collateral 200
        new = position(p, [5.0, 0.0], 75.0)  # collateral 100
        assert rebalance_cost(new, old, fees, p.l_max) == pytest.approx(0.01)

    def test_equal_total_uses_gamma_minus(self):
        p = instance(10.0)
        fees = FeeModel(0.5, 0.0001, DAY)
        old = position(p, [1.0, 0.0], 5.0)
        new = position(p, [0.0, 1.0], 5.0)
        assert rebalance_cost(new, old, fees, p.l_max) == 0.0

    def test_mismatched_markets_rejected(self):
        p = instance(10.0)
        old = position(p, [1.0, 0.0], 5.0)
        new = Allocation.from_position(("A",), [1.0], 5.0)
        with pytest.raises(DomainError):
            rebalance_cost(new, old, FeeModel(0.0, 0.0, DAY), p.l_max)


class TestSolveWithFees:
    def test_fee_free_reduces_to_solve(self):
        p = instance(3.0)
        fees = FeeModel(0.0, 0.0, DAY)
        for current in (
            position(p, [0.0, 0.0], 3.0),
            position(p, [0.5, 0.5], 2.0),
            position(p, [3.0, 0.0], 0.0),
        ):
            plan = solve_with_fees(p, current, fees)
            fee_free = solve(p)
            assert plan.cost == 0.0
            for x, y in zip(plan.target.exposures, fee_free.exposures):
                assert x == pytest.approx(y, abs=1e-12)
            assert plan.target.unleveraged == pytest.approx(fee_free.unleveraged, abs=1e-12)

    def test_entering_from_pure_staking_is_an_increase(self):
        p = instance(3.0)
        fees = FeeModel(0.0, 0.0002, DAY)
        plan = solve_with_fees(p, position(p, [0.0, 0.0], 3.0), fees)
        assert plan.direction == INCREASE
        assert plan.cost == 0.0  # gamma_plus is zero
        fee_free = solve(p)
        for x, y in zip(plan.target.exposures, fee_free.exposures):
            assert x == pytest.approx(y, abs=1e-12)

    def test_large_exit_fee_holds_a_deleveraging_position(self):
        # The fee-free optimum (collateral 38.125) would deleverage this
        # position (collateral 48), but a punitive exit fee pushes the
        # deleveraging branch all the way past the current collateral, so
        # neither branch is self-consistent and holding is optimal.
        p = instance(10.0, s=0.03)
        over_levered = position(p, [9.0, 0.5], 0.5)
        fees = FeeModel(0.0, 0.5, horizon_years=DAY)
        plan = solve_with_fees(p, over_levered, fees)
        assert plan.direction == HOLD
        assert plan.target is over_levered
        assert plan.cost == 0.0

    def test_deleverage_when_exit_fee_is_small(self):
        p = instance(3.0, s=0.001)  # carry negative nearly everywhere
        over_levered = position(p, [3.0, 0.0], 0.0)
        fees = FeeModel(0.0, 0.00001, DAY)
        plan = solve_with_fees(p, over_levered, fees)
        assert plan.direction == DECREASE
        assert total_collateral(plan.target, p.l_max) < total_collateral(
            over_levered, p.l_max
        )
        assert plan.cost > 0.0

    def test_hysteresis_resolve_returns_hold(self):
        for gamma_minus in (0.0, 0.0001, 0.01):
            for s in (0.001, 0.03):
                p = instance(3.0, s=s)
                fees = FeeModel(0.0, gamma_minus, DAY)
                first = solve_with_fees(p, position(p, [3.0, 0.0], 0.0), fees)
                if first.direction == HOLD:
                    continue
                second = solve_with_fees(p, first.target, fees)
                assert second.direction == HOLD
                assert second.cost == 0.0

    def test_branch_consistency(self):
        p = instance(3.0)
        fees = FeeModel(1e-5, 1e-5, horizon_years=30.0 / 365.0)
        for current, expected in (
            (position(p, [0.0, 0.0], 3.0), INCREASE),
            (position(p, [3.0, 0.0], 0.0), DECREASE),
        ):
            plan = solve_with_fees(p, current, fees)
            assert plan.direction == expected
            before = total_collateral(current, p.l_max)
            after = total_collateral(plan.target, p.l_max)
            if plan.direction == INCREASE:
                assert after > before
            else:
                assert after <= before

    def test_direction_survives_one_ulp_of_collateral(self):
        # -1e-15 unleveraged puts the current collateral one ulp below the
        # fully invested 15; the direction must not flip to INCREASE.
        p = instance(3.0)
        fees = FeeModel(1e-5, 1e-5, horizon_years=30.0 / 365.0)
        nudged = position(p, [3.0, 0.0], -1e-15)
        assert total_collateral(nudged, p.l_max) < 15.0
        for current in (position(p, [3.0, 0.0], 0.0), nudged):
            assert solve_with_fees(p, current, fees).direction == DECREASE

    def test_both_fee_shifted_solves_share_one_compile_per_market(self, monkeypatch):
        compiled, solves = [], []
        compile_market, solve_at = irm._compile, rebalance._solve_at

        def counted_compile(market_id, *columns):
            compiled.append(market_id)
            return compile_market(market_id, *columns)

        def counted_solve(table, budget, s):
            solves.append(s)
            return solve_at(table, budget, s)

        monkeypatch.setattr(irm, "_compile", counted_compile)
        monkeypatch.setattr(rebalance, "_solve_at", counted_solve)
        p = instance(3.0, s=0.001)
        plan = solve_with_fees(p, position(p, [3.0, 0.0], 0.0), FeeModel(0.0, 0.00001, DAY))
        assert plan.direction == DECREASE
        assert len(solves) == 2  # the increase branch, then the decrease branch
        assert compiled == ["A", "B"]

    def test_current_position_of_other_markets_rejected(self):
        p = instance(10.0)
        with pytest.raises(ConstraintError) as exc:
            solve_with_fees(p, Allocation.from_position(("A",), [1.0], 9.0), FeeModel(0.0, 0.0, DAY))
        assert str(exc.value) == "current position markets ('A',) do not match instance markets ('A', 'B')"

    def test_hold_without_a_consistent_branch_says_so(self):
        p = instance(10.0, s=0.03)
        over_levered = position(p, [9.0, 0.5], 0.5)
        plan = solve_with_fees(p, over_levered, FeeModel(0.0, 0.5, horizon_years=DAY))
        assert (plan.direction, plan.reason) == (HOLD, NO_BRANCH)
        assert plan.target is over_levered

    def test_hold_at_the_target_says_so(self):
        p = instance(3.0, s=0.001)
        fees = FeeModel(0.0, 0.0001, DAY)
        first = solve_with_fees(p, position(p, [3.0, 0.0], 0.0), fees)
        assert (first.direction, first.reason) == (DECREASE, "")
        second = solve_with_fees(p, first.target, fees)
        assert (second.direction, second.reason) == (HOLD, AT_TARGET)
        assert second.target is first.target

    def test_only_the_kept_target_is_priced(self, monkeypatch):
        priced, rates = [], []
        position_yield, solve_at = allocator._position_yield, rebalance._solve_at

        def counted_yield(*args, **kwargs):
            priced.append(args[0])
            return position_yield(*args, **kwargs)

        def counted_solve(table, budget, rate):
            rates.append(rate)
            return solve_at(table, budget, rate)

        monkeypatch.setattr(allocator, "_position_yield", counted_yield)
        monkeypatch.setattr(rebalance, "_position_yield", counted_yield)
        monkeypatch.setattr(rebalance, "_solve_at", counted_solve)
        free, exit_fee = FeeModel(0.0, 0.0, DAY), FeeModel(0.0, 1e-5, DAY)
        big, low_rate = instance(10.0), instance(3.0, s=0.001)
        cases = [
            # (instance, current, fees, plan direction, solves)
            (big, position(big, [9.0, 0.5], 0.5), FeeModel(0.0, 0.5, DAY), HOLD, 2),
            (big, solve(big), free, HOLD, 1),
            (big, position(big, [0.0, 0.0], 10.0), free, INCREASE, 1),
            (low_rate, position(low_rate, [0.5, 0.0], 2.5), free, DECREASE, 1),
            (low_rate, position(low_rate, [0.5, 0.0], 2.5), exit_fee, DECREASE, 2),
        ]
        for p, current, fees, direction, solves in cases:
            priced.clear()
            rates.clear()
            assert solve_with_fees(p, current, fees).direction == direction
            # Without fees both shifted rates are one float: one solve.
            assert len(rates) == solves
            # A move prices its target and the current holding; a hold, nothing.
            assert len(priced) == (0 if direction == HOLD else 2)

    def test_net_gain_rate_accounts_for_cost(self):
        # long horizon so the amortized exit fee still leaves the pure-staking
        # target optimal and the collateral actually drops
        p = instance(3.0, s=0.001)
        current = position(p, [3.0, 0.0], 0.0)
        fees = FeeModel(0.0, 0.0001, horizon_years=30.0 / 365.0)
        plan = solve_with_fees(p, current, fees)
        assert plan.direction == DECREASE
        assert plan.cost == pytest.approx(0.0001 * 12.0)  # collateral 15 -> 3
        gross = plan.net_gain_rate + plan.cost / fees.horizon_years
        assert gross > plan.net_gain_rate

    def test_deterrence_monotone_in_exit_fee(self):
        p = instance(3.0, s=0.001)
        current = position(p, [3.0, 0.0], 0.0)
        gains = []
        for gamma_minus in (0.0, 1e-5, 1e-4, 1e-3, 5e-3):
            plan = solve_with_fees(p, current, FeeModel(0.0, gamma_minus, DAY))
            gains.append(plan.net_gain_rate)
        for a, b in zip(gains, gains[1:]):
            assert b <= a + 1e-12


class TestShouldRebalance:
    def test_above_threshold(self):
        assert should_rebalance(0.0, 0.0030, 1.0, threshold=0.0020)

    def test_exactly_at_threshold_is_false(self):
        assert not should_rebalance(0.0, 0.0020, 1.0, threshold=0.0020)

    def test_zero_threshold_means_any_improvement(self):
        assert should_rebalance(0.0, 1e-12, 1.0, threshold=0.0)
        assert not should_rebalance(0.0, 0.0, 1.0, threshold=0.0)

    def test_scales_by_budget(self):
        assert should_rebalance(1.0, 1.3, 100.0, threshold=0.0020)
        assert not should_rebalance(1.0, 1.1, 100.0, threshold=0.0020)

    def test_bad_budget_rejected(self):
        with pytest.raises(DomainError):
            should_rebalance(0.0, 1.0, 0.0, threshold=0.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(DomainError, match="threshold must be non-negative"):
            should_rebalance(0.0, 1.0, 1.0, threshold=-1e-4)

    @pytest.mark.parametrize(
        "budget, threshold, message",
        [(math.nan, 0.0, "budget must be positive, got nan"),
         (1.0, math.nan, "threshold must be non-negative, got nan")],
        ids=["budget", "threshold"],
    )
    def test_nan_budget_or_threshold_rejected(self, budget, threshold, message):
        with pytest.raises(DomainError) as exc:
            should_rebalance(0.0, 1.0, budget, threshold)
        assert str(exc.value) == message
