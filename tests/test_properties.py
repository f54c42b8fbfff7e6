"""Property-based checks of the market responses and the allocator on random
mixed instances."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from stakeloop.allocator import ProblemInstance, solve, verify_kkt
from stakeloop.irm import (
    AdaptiveIrmParams,
    KinkedIrmParams,
    LinearIrmParams,
    MarketState,
    market_response,
    response_events,
)


@st.composite
def markets(draw, index: int) -> MarketState:
    supplied = draw(st.floats(10.0, 1e4))
    u_target = draw(st.floats(0.7, 0.95))
    # Up to 99% utilization, so that liquidity caps bind on small pools.
    utilization = draw(st.floats(0.0, 0.99))
    kind = draw(st.sampled_from(("linear", "flat", "kinked", "adaptive")))
    if kind == "linear":
        irm = LinearIrmParams(
            draw(st.floats(0.0, 0.02)), draw(st.floats(1e-5, 0.08)), u_target
        )
    elif kind == "flat":
        irm = LinearIrmParams(draw(st.floats(0.0, 0.06)), 0.0, u_target)
    elif kind == "kinked":
        irm = KinkedIrmParams(
            draw(st.floats(0.0, 0.02)),
            draw(st.one_of(st.just(0.0), st.floats(0.001, 0.04))),
            draw(st.floats(0.1, 1.0)),
            u_target,
        )
    else:
        irm = AdaptiveIrmParams(
            rate_at_target=draw(st.floats(0.005, 0.08)),
            curve_steepness=draw(st.floats(2.0, 6.0)),
            u_target=u_target,
            adjustment_speed=50.0,
            t_last=0.0,
            u_last=utilization,
        )
    return MarketState(f"m{index}", supplied, supplied * utilization, 0.945, irm)


@st.composite
def instances(draw, min_n: int = 1, max_n: int = 50) -> ProblemInstance:
    n = draw(st.integers(min_n, max_n))
    pool = [draw(markets(i)) for i in range(n)]
    l_max = draw(st.floats(1.5, 10.0))
    s = draw(st.floats(0.005, 0.08))
    saturated = math.fsum(market_response(m, l_max, s, s) for m in pool)
    # Mostly below the saturated total, where the shadow rate is swept for.
    share = draw(st.floats(1e-6, 1.2))
    budget = share * saturated if saturated > 0.0 else share
    return ProblemInstance.uniform(pool, l_max, s, budget)


def assert_certified(p: ProblemInstance) -> None:
    alloc = solve(p)
    report = verify_kkt(alloc, p, 1e-8)
    assert report.passed, report
    total = math.fsum(alloc.exposures) + alloc.unleveraged
    assert abs(total - p.budget) <= 1e-12 * p.budget


@settings(derandomize=True, max_examples=200, deadline=None)
@given(instances())
def test_solve_is_certified_and_spends_the_budget(p):
    assert_certified(p)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(instances(min_n=50, max_n=300))
def test_solve_is_certified_with_hundreds_of_markets(p):
    assert_certified(p)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(markets(0), st.floats(1.5, 10.0), st.floats(0.005, 0.08))
def test_events_add_up_to_the_response(market, l_max, s):
    events = response_events(market, l_max, s)
    levels = [level for level, _, _ in events]
    probes = levels + [(hi + lo) / 2.0 for hi, lo in zip(levels, levels[1:])]
    probes.append(levels[-1] - 1.0 if levels else s)
    cap = market.available_liquidity / (l_max - 1.0)
    for lam in probes:
        # Jumps at every level above lam, plus each slope over its piece's
        # width down to lam.
        total = 0.0
        for k, (level, jump, slope) in enumerate(events):
            if level <= lam:
                break
            lo = levels[k + 1] if k + 1 < len(levels) else -math.inf
            total += jump + slope * (level - max(lo, lam))
        assert abs(total - market_response(market, l_max, s, lam)) <= 1e-9 * max(1.0, cap)
