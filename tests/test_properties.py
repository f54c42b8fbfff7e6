"""Property-based checks of the allocator on random mixed instances."""

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
def instances(draw) -> ProblemInstance:
    n = draw(st.integers(1, 50))
    pool = [draw(markets(i)) for i in range(n)]
    l_max = draw(st.floats(1.5, 10.0))
    s = draw(st.floats(0.005, 0.08))
    saturated = math.fsum(market_response(m, l_max, s, s) for m in pool)
    # Mostly below the saturated total, where the shadow rate is swept for.
    share = draw(st.floats(1e-6, 1.2))
    budget = share * saturated if saturated > 0.0 else share
    return ProblemInstance.uniform(pool, l_max, s, budget)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(instances())
def test_solve_is_certified_and_spends_the_budget(p):
    alloc = solve(p)
    report = verify_kkt(alloc, p, 1e-8)
    assert report.passed, report
    total = math.fsum(alloc.exposures) + alloc.unleveraged
    assert abs(total - p.budget) <= 1e-12 * p.budget
