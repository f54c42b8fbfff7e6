from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from oracles import random_instance, simplex_objective, simplex_search, walked_brackets
from stakeloop import allocator
from stakeloop.allocator import (
    SATURATED,
    UNSATURATED,
    Allocation,
    ProblemInstance,
    expected_yield,
    solve,
    verify_kkt,
    waterfilling_detail,
    yield_breakdown,
)
from stakeloop.data import irm_from_dict
from stakeloop.errors import ConstraintError, DomainError, UnsupportedModelError
from stakeloop.irm import (
    KinkedIrmParams,
    LinearIrmParams,
    MarketState,
    _compile,
    market_response,
    response_events,
)


def event_levels(market, l_max, s):
    return [level for level, _, _ in response_events(market, l_max, s)]


LIN_A = MarketState("A", 100.0, 0.0, 0.945, LinearIrmParams(0.01, 0.04, 0.9))
LIN_B = MarketState("B", 50.0, 0.0, 0.945, LinearIrmParams(0.02, 0.04, 0.9))
KINK = MarketState(
    "K", 100.0, 80.0, 0.945, KinkedIrmParams(0.0, 0.01, 0.5, 0.9)
)


def two_linear(budget: float) -> ProblemInstance:
    return ProblemInstance.uniform([LIN_A, LIN_B], 5.0, 0.03, budget)


def assert_exact_optimum(alloc: Allocation, p: ProblemInstance) -> None:
    assert verify_kkt(alloc, p, 1e-8).passed
    total = math.fsum(alloc.exposures) + alloc.unleveraged
    assert abs(total - p.budget) <= 1e-12 * p.budget


# The first twelve markets the optimize benchmark's generator draws at seed
# 149. At l_max 5, s 0.03 and half the saturated total, m0010 is pinned at its
# rate kink and must stay there: any remainder put into it moves it off the
# kink, where lambda* is no longer its marginal value.
KINK_PINNED_MARKETS = [
    ("m0000", 819.9837836733756, 359.51894564475947, 0.8940075697302572,
     {"kind": "linear", "r_base": 0.0005496029571813676,
      "r_slope1": 0.03409709479905701, "u_target": 0.8693606394880635}),
    ("m0001", 775.5898114885584, 576.289901613773, 0.8944376137415274,
     {"kind": "linear", "r_base": 0.0013688753593083002,
      "r_slope1": 0.021569728945743837, "u_target": 0.8189016977233576}),
    ("m0002", 2630.215611667778, 2199.9702984564324, 0.9423824771855299,
     {"kind": "kinked", "r_base": 0.0031888477307192935, "r_slope1": 0.014396413608500119,
      "r_slope2": 0.4987777629463208, "u_target": 0.8432745766755351}),
    ("m0003", 1365.7776205022005, 555.8470352912892, 0.8894980210987382,
     {"kind": "kinked", "r_base": 0.0025933738901730823, "r_slope1": 0.027200651913962356,
      "r_slope2": 0.41428316227805995, "u_target": 0.8809307572719197}),
    ("m0004", 3193.824885174629, 1699.3486109506462, 0.8838463497920762,
     {"kind": "linear", "r_base": 0.0016377305405469145,
      "r_slope1": 0.013219674553882857, "u_target": 0.8861748458534081}),
    ("m0005", 3344.4822785111614, 1440.5700409087128, 0.8635477184215152,
     {"kind": "adaptive", "rate_at_target": 0.04017569474437872, "curve_steepness": 4.0,
      "u_target": 0.9, "adjustment_speed": 50.0, "t_last": 0.0,
      "u_last": 0.43073035553652295}),
    ("m0006", 4069.201819079154, 2236.0435743011863, 0.9342518086847112,
     {"kind": "linear", "r_base": 0.01985243862706744,
      "r_slope1": 2.8194331613830926e-05, "u_target": 0.9069795351923392}),
    ("m0007", 4063.2588117451223, 1730.9883423452263, 0.9017456231899343,
     {"kind": "linear", "r_base": 0.00690590181804069,
      "r_slope1": 0.02720061464476664, "u_target": 0.8295609502017123}),
    ("m0008", 4512.554075529788, 2704.6237294182642, 0.9205432891571043,
     {"kind": "linear", "r_base": 0.017264724005380136,
      "r_slope1": 2.7230945971627428e-05, "u_target": 0.8424215307777523}),
    ("m0009", 4419.076645239411, 3672.241474240344, 0.8618156075170457,
     {"kind": "linear", "r_base": 0.007656776086891332,
      "r_slope1": 0.022841291727070515, "u_target": 0.8742450827015071}),
    ("m0010", 3966.0759468013366, 2274.546654121293, 0.9059036321118297,
     {"kind": "adaptive", "rate_at_target": 0.012697419000215126, "curve_steepness": 4.0,
      "u_target": 0.9, "adjustment_speed": 50.0, "t_last": 0.0,
      "u_last": 0.5735005291453705}),
    ("m0011", 1854.6067897861387, 784.2267448815924, 0.9124626225883622,
     {"kind": "adaptive", "rate_at_target": 0.017582373901922015, "curve_steepness": 4.0,
      "u_target": 0.9, "adjustment_speed": 50.0, "t_last": 0.0,
      "u_last": 0.42285337743858054}),
]


class TestSaturated:
    def test_single_market_with_headroom(self):
        p = ProblemInstance.uniform([LIN_A], 5.0, 0.03, 10.0)
        alloc = solve(p)
        assert alloc.exposures[0] == pytest.approx(5.625)
        assert alloc.unleveraged == pytest.approx(4.375)
        assert alloc.lambda_star == 0.03
        assert alloc.regime == SATURATED

    def test_negative_carry_everywhere_pure_staking(self):
        expensive = MarketState(
            "E", 100.0, 0.0, 0.945, LinearIrmParams(0.08, 0.04, 0.9)
        )
        p = ProblemInstance.uniform([expensive], 5.0, 0.03, 10.0)
        alloc = solve(p)
        assert alloc.regime == SATURATED
        assert alloc.exposures == (0.0,)
        assert alloc.unleveraged == 10.0
        assert alloc.expected_yield == pytest.approx(0.3)

    def test_insufficient_budget_signals(self):
        p = ProblemInstance.uniform([LIN_A], 5.0, 0.03, 3.0)
        assert solve(p).regime == UNSATURATED


class TestSolve:
    def test_two_market_unsaturated_example(self):
        alloc = solve(two_linear(3.0))
        assert alloc.regime == UNSATURATED
        assert alloc.lambda_star == pytest.approx(7.1953125 / 105.46875, abs=1e-12)
        assert alloc.lambda_star == pytest.approx(0.068223, abs=1e-6)
        assert alloc.exposures[0] == pytest.approx(2.9375, abs=1e-9)
        assert alloc.exposures[1] == pytest.approx(0.0625, abs=1e-9)
        assert alloc.unleveraged == 0.0
        assert alloc.total == pytest.approx(3.0, abs=1e-12)

    def test_two_market_saturated(self):
        alloc = solve(two_linear(10.0))
        assert alloc.regime == SATURATED
        assert alloc.exposures[0] == pytest.approx(5.625)
        assert alloc.exposures[1] == pytest.approx(1.40625)
        assert alloc.unleveraged == pytest.approx(2.96875)
        assert alloc.lambda_star == 0.03

    def test_tiny_budget_concentrates_on_highest_entry_value(self):
        alloc = solve(two_linear(1e-6))
        assert alloc.exposures[0] == pytest.approx(1e-6, rel=1e-6)
        assert alloc.exposures[1] == 0.0

    def test_budget_must_be_positive(self):
        with pytest.raises(DomainError):
            two_linear(-1.0)
        with pytest.raises(DomainError):
            two_linear(0.0)

    def test_budget_must_be_finite(self):
        for budget in (math.nan, math.inf):
            with pytest.raises(DomainError):
                two_linear(budget)

    def test_kink_plateau_solution(self):
        p = ProblemInstance.uniform([KINK], 5.0, 0.03, 2.5)
        alloc = solve(p)
        assert alloc.exposures[0] == pytest.approx(2.5)
        report = verify_kkt(alloc, p, tol=1e-8)
        assert report.passed

    def test_mixed_models_with_liquidity_cap(self):
        flat = MarketState(
            "F", 40.0, 36.0, 0.945, LinearIrmParams(0.001, 0.001, 0.9)
        )
        p = ProblemInstance.uniform([flat, LIN_A], 5.0, 0.05, 8.0)
        alloc = solve(p)
        assert alloc.total == pytest.approx(8.0, abs=1e-9)
        # market F caps at (40-36)/4 = 1
        assert alloc.exposures[0] <= 1.0 + 1e-9
        assert verify_kkt(alloc, p, tol=1e-8).passed

    def test_regime_dichotomy(self):
        rng = random.Random(99)
        for _ in range(50):
            markets, l_maxes, s, budget = random_instance(rng)
            p = ProblemInstance.of(markets, l_maxes, s, budget)
            alloc = solve(p)
            if alloc.regime == SATURATED:
                assert alloc.lambda_star == s
            else:
                assert alloc.regime == UNSATURATED
                assert alloc.lambda_star > s
                assert alloc.unleveraged == 0.0

    def test_scale_covariance(self):
        p = two_linear(3.0)
        t = 7.5
        scaled_markets = [
            replace(m, supplied=m.supplied * t, borrowed=m.borrowed * t)
            for m in (LIN_A, LIN_B)
        ]
        p_scaled = ProblemInstance.uniform(scaled_markets, 5.0, 0.03, 3.0 * t)
        a, b = solve(p), solve(p_scaled)
        assert b.lambda_star == pytest.approx(a.lambda_star, abs=1e-10)
        for x, y in zip(a.exposures, b.exposures):
            assert y == pytest.approx(x * t, rel=1e-10)

    def test_value_monotone_and_concave_in_budget(self):
        budgets = [0.5 * k for k in range(1, 40)]
        values = [solve(two_linear(b)).expected_yield for b in budgets]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12
        second = [
            values[k + 1] - 2 * values[k] + values[k - 1]
            for k in range(1, len(values) - 1)
        ]
        assert all(d <= 1e-9 for d in second)


class TestBreakpointSweep:
    def test_kink_pinned_market_stays_on_its_kink(self):
        markets = [
            MarketState(mid, supplied, borrowed, max_ltv, irm_from_dict(irm))
            for mid, supplied, borrowed, max_ltv, irm in KINK_PINNED_MARKETS
        ]
        saturated = math.fsum(market_response(m, 5.0, 0.03, 0.03) for m in markets)
        p = ProblemInstance.uniform(markets, 5.0, 0.03, saturated / 2.0)
        alloc = solve(p)
        assert alloc.regime == UNSATURATED
        assert_exact_optimum(alloc, p)
        pinned = p.market_ids.index("m0010")
        assert alloc.exposures[pinned] == market_response(
            markets[pinned], 5.0, 0.03, alloc.lambda_star
        )

    def test_flat_curve_jump_straddles_budget(self):
        # r_slope1 = 0: the response jumps from 0 to the cap 80/4 = 20 at beta.
        # LIN_A takes 2.8125 at that rate, so a budget of 10 lands on the jump.
        flat = MarketState("F", 100.0, 20.0, 0.945, LinearIrmParams(0.02, 0.0, 0.9))
        p = ProblemInstance.uniform([LIN_A, flat], 5.0, 0.03, 10.0)
        alloc = solve(p)
        assert alloc.regime == UNSATURATED
        assert alloc.lambda_star == event_levels(flat, 5.0, 0.03)[0]
        assert alloc.exposures == pytest.approx((2.8125, 7.1875), abs=1e-12)
        assert_exact_optimum(alloc, p)

    def test_spends_the_budget_when_no_float_shadow_rate_does(self):
        # At l_max = 1 + 2**-50 a response moves by about 1e17 per unit of
        # lambda, so one ulp of lambda jumps the summed response past the
        # budget.
        markets = [
            MarketState("A", 10000.0, 1000.0, 0.9, LinearIrmParams(0.02, 0.082, 0.9)),
            MarketState("B", 1000.0, 0.0, 0.9, LinearIrmParams(0.044, 0.019, 0.9)),
        ]
        p = ProblemInstance.uniform(markets, 1.0 + 2.0**-50, 0.055, 10.0)
        alloc = solve(p)
        assert alloc.regime == UNSATURATED
        assert math.fsum(alloc.exposures) == pytest.approx(10.0, rel=1e-12)
        assert verify_kkt(alloc, p, 1e-8).passed
        # The walk's shadow rate is the bracket's lower end, as the bisection's.
        [(steps, folded, references)] = walked_brackets(allocator._table(p.forms, 0.055), 10.0, 0.055)
        assert steps == 0
        assert all(repr(folded) == repr(reference) for reference in references)

    def test_bracket_lies_below_the_highest_entry_level(self, monkeypatch):
        # At l_max = 1 + 2**-44 no float shadow rate spends the budget. The
        # cheap market A is capped at a tenth of the budget, so the summed
        # response falls below the budget well under the highest entry level.
        m = 2.0**-44
        cheap = MarketState("A", 1.0, 1.0 - 0.1 * m, 0.9, LinearIrmParams(0.004, 0.001, 0.9))
        deep = MarketState("B", 1e3, 0.0, 0.9, LinearIrmParams(0.01, 0.01, 0.9))
        p = ProblemInstance.uniform([cheap, deep], 1.0 + m, 0.03, 1.0)
        starts = []
        between = allocator._adjacent_floats

        def spy(budget, pieces, lam):
            starts.append(max(market_pieces[0][0] for market_pieces in pieces if market_pieces))
            return between(budget, pieces, lam)

        monkeypatch.setattr(allocator, "_adjacent_floats", spy)
        alloc = solve(p)
        assert len(starts) == 1
        # The bracket is adjacent floats lo < hi; lo is not the float just
        # below the highest entry level.
        assert alloc.lambda_star < math.nextafter(starts[0], -math.inf)
        assert verify_kkt(alloc, p, 1e-9).passed
        assert abs(math.fsum(alloc.exposures) + alloc.unleveraged - p.budget) <= 1e-9 * p.budget
        monkeypatch.undo()
        [(steps, folded, references)] = walked_brackets(allocator._table(p.forms, 0.03), 1.0, 0.03)
        assert steps == 0
        assert all(repr(folded) == repr(reference) for reference in references)

    def test_crossing_below_a_cap_breakpoint(self):
        # F is near flat and small: it enters at 0.198 and is capped at
        # 1 by 0.1971. The budget leaves LIN_A alone on the margin, at
        # lambda* = 0.21 - 7 / 70.3125, below F's cap breakpoint.
        capped = MarketState("F", 40.0, 36.0, 0.945, LinearIrmParams(0.012, 0.001, 0.9))
        p = ProblemInstance.uniform([LIN_A, capped], 5.0, 0.05, 8.0)
        beta, lam_cap = event_levels(capped, 5.0, 0.05)
        assert beta - lam_cap == pytest.approx(2.0 * (0.001 / 36.0) * 16.0 * 1.0)
        alloc = solve(p)
        assert 0.05 < alloc.lambda_star < lam_cap
        assert alloc.lambda_star == pytest.approx(0.21 - 7.0 / 70.3125, abs=1e-14)
        assert alloc.exposures[1] == 1.0
        assert_exact_optimum(alloc, p)

    def test_piece_one_float_wide_is_a_jump(self):
        # r_base = s puts both flat-below-kink markets' entry one float above
        # s, so the piece down to s has no float inside it.
        s = 0.009876191989661972
        flat_kink = KinkedIrmParams(s, 0.0, 1.0, 0.75)
        markets = [MarketState(f"k{i}", 10.0, 0.0, 0.945, flat_kink) for i in range(2)]
        p = ProblemInstance.uniform(markets, 1.5, s, 7.5)
        assert event_levels(markets[0], 1.5, s)[0] == math.nextafter(s, 1.0)
        alloc = solve(p)
        assert alloc.exposures == (7.5, 0.0)
        assert_exact_optimum(alloc, p)

    def test_market_response_calls_linear_in_market_count(self, monkeypatch):
        rng = random.Random(300)
        markets = []
        for i in range(300):
            supplied = rng.uniform(500.0, 5000.0)
            markets.append(
                MarketState(
                    f"m{i}",
                    supplied,
                    supplied * rng.uniform(0.3, 0.85),
                    0.945,
                    KinkedIrmParams(
                        rng.uniform(0.0, 0.005),
                        rng.uniform(0.01, 0.04),
                        rng.uniform(0.3, 1.0),
                        rng.uniform(0.8, 0.92),
                    ),
                )
            )
        saturated = math.fsum(market_response(m, 5.0, 0.03, 0.03) for m in markets)
        p = ProblemInstance.uniform(markets, 5.0, 0.03, saturated / 2.0)
        calls = 0
        evaluate = allocator._response

        def counted(*args):
            nonlocal calls
            calls += 1
            return evaluate(*args)

        # One evaluation per market in the saturated try and one at lambda*.
        monkeypatch.setattr(allocator, "_response", counted)
        alloc = solve(p)
        assert alloc.regime == UNSATURATED
        assert calls == 2 * len(markets)

    @pytest.mark.parametrize("case", ["saturated", "unsaturated", "between floats"])
    def test_pieces_built_once_per_market_per_solve(self, case, monkeypatch):
        if case == "between floats":
            markets = [
                MarketState("A", 10000.0, 1000.0, 0.9, LinearIrmParams(0.02, 0.082, 0.9)),
                MarketState("B", 1000.0, 0.0, 0.9, LinearIrmParams(0.044, 0.019, 0.9)),
            ]
            p = ProblemInstance.uniform(markets, 1.0 + 2.0**-50, 0.055, 10.0)
        else:
            p = ProblemInstance.uniform([LIN_A, LIN_B, KINK], 5.0, 0.03, 1e6)
            if case == "unsaturated":
                p = replace(p, budget=math.fsum(solve(p).exposures) / 2.0)
        built, crossed = [], []
        pieces, between = allocator._pieces, allocator._adjacent_floats

        def counted(form, s, *floor):
            built.append(form)
            return pieces(form, s, *floor)

        def spied(*args):
            crossed.append(args)
            return between(*args)

        monkeypatch.setattr(allocator, "_pieces", counted)
        monkeypatch.setattr(allocator, "_adjacent_floats", spied)
        for s in (p.staking_rate, p.staking_rate + 0.001):
            built.clear()
            solved = allocator._solve_at(allocator._table(p.forms, s), p.budget, s)
            alloc = allocator._priced(p, *solved)
            assert built == list(p.forms)
        assert alloc.regime == (SATURATED if case == "saturated" else UNSATURATED)
        assert bool(crossed) == (case == "between floats")

    @pytest.mark.parametrize("case", ["saturated", "unsaturated", "between floats"])
    def test_idle_market_builds_no_pieces(self, case, monkeypatch):
        # The idle market's borrow rate before any new debt, 0.2, is above
        # every staking rate here, so no shadow rate a solve reaches draws it in.
        idle = MarketState("I", 100.0, 50.0, 0.945, LinearIrmParams(0.15, 0.09, 0.9))
        if case == "between floats":
            markets = [
                MarketState("A", 10000.0, 1000.0, 0.9, LinearIrmParams(0.02, 0.082, 0.9)),
                idle,
                MarketState("B", 1000.0, 0.0, 0.9, LinearIrmParams(0.044, 0.019, 0.9)),
            ]
            p = ProblemInstance.uniform(markets, 1.0 + 2.0**-50, 0.055, 10.0)
        else:
            p = ProblemInstance.uniform([LIN_A, idle, LIN_B, KINK], 5.0, 0.03, 1e6)
            if case == "unsaturated":
                p = replace(p, budget=math.fsum(solve(p).exposures) / 2.0)
        built = []
        pieces = allocator._pieces

        def counted(form, s, *floor):
            built.append((form, pieces(form, s, *floor)))
            return built[-1][1]

        monkeypatch.setattr(allocator, "_pieces", counted)
        for s in (p.staking_rate, p.staking_rate + 0.001):
            built.clear()
            table = allocator._table(p.forms, s)
            # Solves of other budgets on the table build nothing more.
            for budget in (p.budget, p.budget / 3.0):
                assert allocator._solve_at(table, budget, s)[0][1] == 0.0
            assert [form for form, _ in built] == list(p.forms)
            assert [bool(market_pieces) for _, market_pieces in built] == [i != 1 for i in range(len(built))]
            assert pieces(p.forms[1], s) and not pieces(p.forms[1], s, s)
        alloc = solve(p)
        assert alloc.regime == (SATURATED if case == "saturated" else UNSATURATED)
        assert verify_kkt(alloc, p, 1e-8).passed


class TestWaterfilling:
    def test_matches_worked_example(self):
        detail = waterfilling_detail(two_linear(3.0))
        assert detail.active_count == 2
        assert detail.fill_thresholds[1] == pytest.approx(2.8125)
        assert detail.allocation.lambda_star == pytest.approx(7.1953125 / 105.46875)

    def test_small_budget_uses_one_market(self):
        detail = waterfilling_detail(two_linear(2.0))
        assert detail.active_count == 1
        assert detail.order[0] == "A"
        assert detail.allocation.lambda_star == pytest.approx(
            (7.734375 - 2.0) / 70.3125
        )
        assert detail.allocation.lambda_star == pytest.approx(0.081556, abs=1e-6)
        assert detail.allocation.exposures[0] == pytest.approx(2.0)
        assert detail.allocation.exposures[1] == 0.0

    def test_single_market_closed_form(self):
        p = ProblemInstance.uniform([LIN_A], 5.0, 0.03, 3.0)
        alloc = waterfilling_detail(p).allocation
        # lambda* = beta - budget / alpha
        assert alloc.lambda_star == pytest.approx(0.11 - 3.0 / 70.3125)

    def test_fill_threshold_rule_holds(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(1, 4)
            markets = []
            for i in range(n):
                markets.append(
                    MarketState(
                        f"m{i}",
                        rng.uniform(20.0, 2000.0),
                        0.0,
                        0.945,
                        LinearIrmParams(
                            rng.uniform(0.0, 0.02), rng.uniform(0.02, 0.08), 0.9
                        ),
                    )
                )
            l_max = rng.uniform(2.0, 6.0)
            s = rng.uniform(0.01, 0.05)
            p = ProblemInstance.uniform(markets, l_max, s, budget=1.0)
            saturated_total = sum(solve(replace(p, budget=1e12)).exposures)
            if saturated_total <= 0.0:
                continue
            budget = saturated_total * rng.uniform(0.05, 0.95)
            p = replace(p, budget=budget)
            detail = waterfilling_detail(p)
            k = detail.active_count
            assert detail.fill_thresholds[k - 1] < budget
            if k < n:
                assert budget <= detail.fill_thresholds[k]
            closed = detail.allocation
            scanned = solve(p)
            assert scanned.regime == UNSATURATED
            for x, y in zip(closed.exposures, scanned.exposures):
                assert y == pytest.approx(x, abs=1e-10 * max(1.0, budget))

    def test_rejects_non_linear_models(self):
        p = ProblemInstance.uniform([KINK], 5.0, 0.03, 1.0)
        with pytest.raises(UnsupportedModelError):
            waterfilling_detail(p)

    def test_rejects_a_binding_liquidity_cap(self):
        # A is nearly drained: its cap of 0.25 binds well below the closed
        # form's exposure, which would price a borrow beyond the pool.
        tight = MarketState("A", 1000.0, 999.0, 0.945, LinearIrmParams(0.0, 0.001, 0.9))
        roomy = MarketState("B", 100.0, 0.0, 0.945, LinearIrmParams(0.01, 0.04, 0.9))
        p = ProblemInstance.uniform([tight, roomy], 5.0, 0.03, 2.0)
        with pytest.raises(UnsupportedModelError, match="market A"):
            waterfilling_detail(p)
        alloc = solve(p)
        assert alloc.exposures == pytest.approx((0.25, 1.75))
        assert verify_kkt(alloc, p, 1e-9).passed

    def test_rejects_a_flat_rate_curve(self):
        flat = MarketState("F", 100.0, 0.0, 0.945, LinearIrmParams(0.01, 0.0, 0.9))
        with pytest.raises(UnsupportedModelError) as exc:
            waterfilling_detail(ProblemInstance.uniform([LIN_A, flat], 5.0, 0.03, 1.0))
        assert str(exc.value) == "market F has a flat rate curve; the closed form needs a positive slope"


class TestYield:
    def test_pure_staking(self):
        p = two_linear(10.0)
        alloc = Allocation.from_position(p.market_ids, [0.0, 0.0], 10.0)
        assert expected_yield(alloc, p) == pytest.approx(0.3)

    def test_carry_decomposition_matches(self):
        p = ProblemInstance.uniform([LIN_A], 5.0, 0.03, 10.0)
        alloc = solve(p)
        assert alloc.expected_yield == pytest.approx(0.525)
        base, carries = yield_breakdown(alloc, p)
        assert base == pytest.approx(0.3)
        assert carries[0] == pytest.approx(22.5 * 0.01)
        assert base + sum(carries) == pytest.approx(alloc.expected_yield)

    def test_optimum_beats_pure_staking_when_carry_positive(self):
        for budget in (0.5, 3.0, 10.0, 50.0):
            p = two_linear(budget)
            assert solve(p).expected_yield >= budget * 0.03 - 1e-12

    def test_infeasible_rejected(self):
        p = two_linear(10.0)
        bad = Allocation.from_position(p.market_ids, [1.0, 1.0], 3.0)
        with pytest.raises(ConstraintError):
            expected_yield(bad, p)
        mismatched = Allocation.from_position(("A",), [1.0], 9.0)
        with pytest.raises(ConstraintError):
            expected_yield(mismatched, p)

    @pytest.mark.parametrize(
        "exposures, unleveraged",
        [([math.nan, 0.0], 10.0), ([0.0, 0.0], math.nan)],
        ids=["nan-exposure", "nan-unleveraged"],
    )
    def test_nan_component_rejected(self, exposures, unleveraged):
        p = two_linear(10.0)
        alloc = Allocation.from_position(p.market_ids, exposures, unleveraged)
        for reader in (expected_yield, yield_breakdown, lambda a, q: verify_kkt(a, q, 1e-8)):
            with pytest.raises(ConstraintError):
                reader(alloc, p)

    def test_negative_exposure_rejected_not_priced(self):
        # inside the budget slack, but a negative debt has no borrow rate
        p = ProblemInstance.uniform([LIN_A], 5.0, 0.03, 1.0)
        alloc = Allocation.from_position(["A"], [-1e-16], 1.0 + 1e-16)
        with pytest.raises(ConstraintError):
            expected_yield(alloc, p)
        with pytest.raises(ConstraintError):
            yield_breakdown(alloc, p)

    def test_exposure_beyond_liquidity_rejected(self):
        # B lends 50 at l_max 5, so it takes an exposure of at most 12.5.
        p = two_linear(20.0)
        with pytest.raises(ConstraintError) as exc:
            expected_yield(Allocation.from_position(p.market_ids, [0.0, 20.0], 0.0), p)
        assert str(exc.value) == "exposure 20.0 exceeds liquidity of market B"


class TestVerifyKkt:
    def test_solver_output_passes_on_random_instances(self):
        rng = random.Random(17)
        for _ in range(100):
            markets, l_maxes, s, budget = random_instance(rng)
            p = ProblemInstance.of(markets, l_maxes, s, budget)
            alloc = solve(p)
            report = verify_kkt(alloc, p, tol=1e-8)
            assert report.passed, (report, p)

    def test_perturbed_allocation_fails(self):
        p = two_linear(3.0)
        alloc = solve(p)
        shift = 0.01 * p.budget
        perturbed = replace(
            alloc,
            exposures=(alloc.exposures[0] - shift, alloc.exposures[1] + shift),
        )
        report = verify_kkt(perturbed, p, tol=1e-8)
        assert not report.passed
        assert max(report.stationarity) > 1e-8

    def test_small_market_inside_huge_budget_still_classified_active(self):
        # activity thresholds scale per market: a 12-unit market allocated a
        # hair of a 1e9 budget is active, not a complementary-slackness case
        small = MarketState(
            "tiny", 12.0, 0.6, 0.945, LinearIrmParams(0.005, 0.05, 0.85)
        )
        big = MarketState(
            "big", 1e6, 0.0, 0.945, LinearIrmParams(0.01, 0.04, 0.9)
        )
        p = ProblemInstance.uniform([small, big], 5.0, 0.05, budget=1.5e9)
        alloc = solve(p)
        assert alloc.regime == SATURATED
        assert 0.0 < alloc.exposures[0] < 3.0
        assert verify_kkt(alloc, p, tol=1e-8).passed

    def test_liquidity_capped_exposure_reconstructs_within_rate_domain(self):
        # x = available/(l_max-1) can overshoot the cap by an ulp when
        # multiplied back; the rate domain must absorb that
        flat = MarketState(
            "flat", 8186.610759337072, 125.19969783198415, 0.945,
            LinearIrmParams(0.0001, 0.0001, 0.9),
        )
        p = ProblemInstance.uniform([flat], 5.0, 0.05, budget=1e7)
        alloc = solve(p)
        assert alloc.exposures[0] == pytest.approx(
            flat.available_liquidity / 4.0, rel=1e-15
        )
        assert verify_kkt(alloc, p, tol=1e-8).passed
        assert expected_yield(alloc, p) == pytest.approx(alloc.expected_yield)

    def test_kink_plateau_passes_by_interval_membership(self):
        p = ProblemInstance.uniform([KINK], 5.0, 0.03, 2.5)
        alloc = solve(p)
        assert alloc.exposures[0] == pytest.approx(2.5)
        report = verify_kkt(alloc, p, tol=1e-8)
        assert report.passed
        # pointwise stationarity would not hold at the kink: the one-sided
        # marginal values straddle lambda*
        assert report.stationarity[0] == 0.0

    def test_zero_exposure_market_complementary_slackness(self):
        p = two_linear(2.0)
        alloc = solve(p)
        assert alloc.exposures[1] == 0.0
        report = verify_kkt(alloc, p, tol=1e-8)
        assert report.passed and report.complementary_ok[1]

    def test_worthwhile_market_left_empty_fails(self):
        # The whole budget in A, at A's marginal value there: its entry level
        # 0.11 less 3 times its slope 2 * (0.04 / 90) * 4**2. B is worth
        # 0.15 - 4 * 0.02 = 0.07 at zero exposure, more than that shadow
        # rate, so leaving it empty is not optimal.
        p = two_linear(3.0)
        lam = 0.11 - 3.0 * 0.04 * 32.0 / 90.0
        alloc = Allocation(p.market_ids, (3.0, 0.0), 0.0, lam, math.nan, "position")
        report = verify_kkt(alloc, p, tol=1e-8)
        assert report.stationarity[0] == pytest.approx(0.0, abs=1e-15)
        assert report.stationarity[1] == pytest.approx(0.07 - lam, rel=1e-12)
        assert not report.complementary_ok[1]
        assert not report.passed


    def test_instance_of_compiled_markets_reads_as_the_public_instance(self):
        # A replay compiles its markets from its columns and calls the one
        # constructor on the forms; that is the instance ``of`` compiles from
        # market states, so each reader gives the same there.
        for markets in ([LIN_A, LIN_B, KINK], [LIN_A, LIN_B]):
            p = ProblemInstance.uniform(markets, 5.0, 0.03, 6.0)
            forms = tuple(
                _compile(m.market_id, m.supplied, m.borrowed, m.max_ltv, m.irm._curve, 5.0)
                for m in markets
            )
            compiled = ProblemInstance(p.market_ids, 0.03, 6.0, forms)
            assert compiled == p
            alloc = solve(compiled)
            assert alloc == solve(p)
            assert verify_kkt(alloc, compiled, 1e-8) == verify_kkt(alloc, p, 1e-8)
            assert verify_kkt(alloc, compiled, 1e-8).passed
            assert expected_yield(alloc, compiled) == expected_yield(alloc, p)
            assert yield_breakdown(alloc, compiled) == yield_breakdown(alloc, p)
        assert waterfilling_detail(compiled) == waterfilling_detail(p)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"budget": math.inf}, "budget must be positive and finite"),
            ({"budget": 0.0}, "budget must be positive and finite"),
            ({"staking_rate": math.nan}, "staking_rate must be finite"),
            ({"market_ids": (), "forms": ()}, "at least one market"),
            ({"market_ids": ("A",)}, "must have the same length"),
            ({"market_ids": ("A", "A")}, "duplicate market id A"),
        ],
        ids=["inf-budget", "zero-budget", "nan-rate", "empty", "lengths", "duplicate"],
    )
    def test_constructor_checks_an_instance_of_forms(self, change, message):
        p = ProblemInstance.uniform([LIN_A, LIN_B], 5.0, 0.03, 6.0)
        with pytest.raises(DomainError, match=message):
            replace(p, **change)

    def test_markets_and_caps_of_different_lengths_rejected(self):
        with pytest.raises(DomainError) as exc:
            ProblemInstance.of([LIN_A, LIN_B], [5.0], 0.03, 6.0)
        assert str(exc.value) == "markets and l_max must have the same length"

    @pytest.mark.parametrize("s", [1e308, -1e308])
    def test_staking_rate_whose_cash_flow_overflows_rejected(self, s):
        with pytest.raises(DomainError) as exc:
            ProblemInstance.uniform([LIN_A, LIN_B], 5.0, s, 3.0)
        assert str(exc.value) == f"staking_rate {s} overflows the cash flow of budget 3.0 at l_max 5.0"
        p = ProblemInstance.uniform([LIN_A, LIN_B], 5.0, s / 1e8, 3.0)
        assert verify_kkt(solve(p), p, 1e-8).passed

    def test_instances_of_different_markets_differ(self):
        def compiled(markets):
            p = ProblemInstance.uniform(markets, 5.0, 0.03, 6.0)
            return ProblemInstance(p.market_ids, 0.03, 6.0, p.forms)

        assert compiled([LIN_A, LIN_B]) == compiled([LIN_A, LIN_B])
        assert compiled([LIN_A, LIN_B]) != compiled([LIN_A, replace(LIN_B, borrowed=10.0)])
        assert compiled([LIN_A, LIN_B]) != compiled([LIN_A, replace(LIN_B, market_id="C")])
        assert ProblemInstance.uniform([LIN_A], 5.0, 0.03, 6.0) != ProblemInstance.uniform(
            [LIN_A], 4.0, 0.03, 6.0
        )


class TestOracleEquivalence:
    def test_solver_matches_simplex_search(self):
        rng = random.Random(2024)
        for _ in range(25):
            markets, l_maxes, s, budget = random_instance(rng)
            p = ProblemInstance.of(markets, l_maxes, s, budget)
            alloc = solve(p)
            oracle_best = simplex_search(markets, l_maxes, s, budget, min_steps=4000)
            assert alloc.expected_yield >= oracle_best - 1e-6 * budget * max(s, 0.01)
            direct = simplex_objective(
                markets, l_maxes, s, list(alloc.exposures), alloc.unleveraged
            )
            assert direct == pytest.approx(alloc.expected_yield, rel=1e-12, abs=1e-12)
