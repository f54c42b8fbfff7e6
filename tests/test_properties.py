"""Property-based checks of the market responses, the allocator and the
fee-aware rebalancer on random mixed instances, and of smoothing, dataset
round trips and per-step equity conservation on random series."""

from __future__ import annotations

import csv
import inspect
import io
import math
import random
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from oracles import (
    best_at_total_exposure,
    exact_marginal_values,
    exact_piece_total,
    exact_response,
    exact_solve,
    fee_penalised_objective,
    grid_best_with_fees,
    market_states_at,
    oracle_rate,
    random_instance,
    replay_per_step,
    staking_join_by_search,
    walked_brackets,
    window_means,
)
from stakeloop.allocator import (
    Allocation,
    ProblemInstance,
    _priced,
    _solve_at,
    _table,
    expected_yield,
    solve,
    verify_kkt,
)
from stakeloop import allocator, backtest
from stakeloop.backtest import (
    DYNAMIC,
    FIXED_FREQUENCY,
    STAKING_ONLY,
    BacktestConfig,
    BacktestResult,
    MarketMeta,
    MarketSnapshot,
    Snapshot,
    SnapshotSeries,
    run_backtest,
    smooth_rates,
)
from stakeloop.data import (
    DatasetManifest,
    _write_csv,
    load_snapshots,
    save_snapshots,
    staking_rates_at,
)
from stakeloop.irm import (
    AdaptiveIrmParams,
    KinkedIrmParams,
    LinearIrmParams,
    MarketState,
    _pieces,
    _state_form,
    borrow_rate,
    market_response,
    response_events,
)
from stakeloop.rebalance import (
    DECREASE,
    HOLD,
    INCREASE,
    FeeModel,
    solve_with_fees,
    total_collateral,
)
from stakeloop.units import SECONDS_PER_DAY, SECONDS_PER_HOUR

T0 = 1735689600


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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    markets(0),
    st.sampled_from(("zero", "below target", "target", "above target", "full")),
    st.integers(-10, 30),
)
def test_borrow_rate_matches_the_oracle_at_the_breakpoints(market, point, log2_supplied):
    u_target = market.irm.u_target
    u = {
        "zero": 0.0,
        "below target": math.nextafter(u_target, 0.0),
        "target": u_target,
        "above target": math.nextafter(u_target, 1.0),
        "full": 1.0,
    }[point]
    # Over a power-of-two pool, borrowed / supplied gives u back exactly.
    supplied = 2.0**log2_supplied
    expected = oracle_rate(market.irm, supplied, u * supplied)
    assert abs(borrow_rate(market.irm, supplied, u * supplied) - expected) <= 1e-15 * expected


@st.composite
def market_instances(draw, min_n: int = 1, max_n: int = 50, shares=st.floats(1e-6, 1.2)):
    """``(markets, instance)``: the market states and the instance they
    compile to, its budget a draw of ``shares`` times the saturated total."""
    n = draw(st.integers(min_n, max_n))
    pool = [draw(markets(i)) for i in range(n)]
    l_max = draw(st.floats(1.5, 10.0))
    s = draw(st.floats(0.005, 0.08))
    saturated = math.fsum(market_response(m, l_max, s, s) for m in pool)
    # Mostly below the saturated total, where the shadow rate is swept for.
    share = draw(shares)
    budget = share * saturated if saturated > 0.0 else share
    return pool, ProblemInstance.uniform(pool, l_max, s, budget)


def instances(min_n: int = 1, max_n: int = 50, shares=st.floats(1e-6, 1.2)):
    return market_instances(min_n, max_n, shares).map(lambda case: case[1])


def assert_certified(p: ProblemInstance) -> None:
    assert p.l_max == tuple(f[0] for f in p.forms)
    alloc = solve(p)
    report = verify_kkt(alloc, p, 1e-8)
    assert report.passed, report
    total = math.fsum(alloc.exposures) + alloc.unleveraged
    assert abs(total - p.budget) <= 1e-12 * p.budget


@settings(derandomize=True, max_examples=200, deadline=None)
@given(instances())
def test_solve_is_certified_and_spends_the_budget(p):
    assert_certified(p)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(instances(max_n=4, shares=st.floats(-40.0, -9.0).map(lambda e: 10.0**e)))
def test_solve_is_certified_and_spends_tiny_budgets(p):
    # Every tolerance scales with what it bounds, so a budget far below one
    # unit is spent to the solver's relative tolerance and certified.
    alloc = solve(p)
    assert verify_kkt(alloc, p, 1e-8).passed
    total = math.fsum(alloc.exposures) + alloc.unleveraged
    assert abs(total - p.budget) <= 1e-9 * p.budget


@settings(derandomize=True, max_examples=30, deadline=None)
@given(instances(min_n=50, max_n=300))
def test_solve_is_certified_with_hundreds_of_markets(p):
    assert_certified(p)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_instance_caps_are_the_caps_its_forms_were_compiled_at(data):
    # No constructor takes caps apart from the forms, so a fee is always
    # priced at the cap a response was compiled at.
    assert "l_max" not in inspect.signature(ProblemInstance).parameters
    pool, p = data.draw(market_instances(max_n=8))
    caps = [data.draw(st.floats(1.5, 10.0)) for _ in pool]
    mixed = ProblemInstance.of(pool, caps, p.staking_rate, p.budget)
    assert mixed.l_max == tuple(caps)
    for q in (p, mixed, replace(mixed, budget=2.0 * p.budget)):
        assert q.l_max == tuple(f[0] for f in q.forms)


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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(instances(), st.floats(-0.5, 0.5))
def test_solve_at_a_shifted_rate_keeps_the_instance(p, offset):
    # The fee-aware rebalancer solves at fee-shifted staking rates.
    s = p.staking_rate + offset
    alloc = _priced(p, *_solve_at(_table(p.forms, s), p.budget, s))
    rebuilt = solve(replace(p, staking_rate=s))
    assert alloc.exposures == rebuilt.exposures
    assert alloc.unleveraged == rebuilt.unleveraged
    assert alloc.lambda_star == rebuilt.lambda_star
    assert alloc.regime == rebuilt.regime
    # ...but the yield is priced at the instance's own rate.
    assert alloc.expected_yield == expected_yield(alloc, p)


@st.composite
def tables_and_budgets(
    draw, max_n: int = 8, regimes=("saturated", "unsaturated", "between floats")
) -> tuple[list[tuple], float, float]:
    """``(forms, s, budget)``: up to ``max_n`` random markets compiled at one
    cap, a staking rate and a budget of a regime drawn: saturated,
    unsaturated, between floats (a cap a hair above 1 and a budget far below
    the saturated total, so that no float shadow rate spends it) or tiny (a
    budget from 2**-30 down to the smallest normal float)."""
    regime = draw(st.sampled_from(regimes))
    pool = [draw(markets(i)) for i in range(draw(st.integers(1, max_n)))]
    if regime == "between floats":
        l_max = 1.0 + 2.0 ** -draw(st.integers(44, 52))
    else:
        l_max = draw(st.floats(1.5, 10.0))
    s = draw(st.floats(0.005, 0.08))
    forms = [_state_form(m, l_max) for m in pool]
    if regime == "tiny":
        return forms, s, draw(st.one_of(
            st.floats(-1022.0, -30.0).map(lambda e: 2.0**e), st.just(sys.float_info.min)
        ))
    share = draw({
        "saturated": st.floats(1.0, 1.2),
        "unsaturated": st.floats(1e-6, 0.999),
        "between floats": st.floats(-18.0, -12.0).map(lambda e: 10.0**e),
    }[regime])
    used = allocator._table(forms, s)[2]
    return forms, s, share * used if used > 0.0 else share


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tables_and_budgets())
def test_idle_markets_without_pieces_solve_as_with_them(case):
    # A table gives a market whose first level is at or below its rate no
    # pieces; the solve on a table that built every market's pieces is the
    # reference.
    forms, s, budget = case
    floored = allocator._table(forms, s)
    with mock.patch.object(allocator, "_pieces", lambda form, s, floor: _pieces(form, s)):
        built = allocator._table(forms, s)
    assert repr(built[1:]) == repr(floored[1:])
    assert repr(allocator._solve_at(built, budget, s)) == repr(allocator._solve_at(floored, budget, s))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tables_and_budgets())
def test_between_floats_bracket_is_the_walk_s_crossing(case):
    # The walk's shadow rate lies at or next to the bracket's lower end; a
    # bisection from s up finds the same pair, and so do steps from a few
    # floats either side.
    forms, s, budget = case
    for steps, folded, references in walked_brackets(allocator._table(forms, s), budget, s):
        assert steps <= 8
        assert all(repr(folded) == repr(reference) for reference in references)


def test_between_floats_bracket_is_the_walk_s_crossing_on_random_instances():
    # Caps from 1 + 2**-40 to 1 + 2**-52 put most random budgets between two
    # adjacent floats of the shadow rate.
    walked = []
    for seed in range(200):
        pool, _, s, budget = random_instance(random.Random(seed))
        for k in range(40, 53):
            forms = [_state_form(m, 1.0 + 2.0**-k) for m in pool]
            walked += walked_brackets(allocator._table(forms, s), budget, s)
    assert len(walked) > 1800
    for steps, folded, references in walked:
        assert steps <= 8
        assert all(repr(folded) == repr(reference) for reference in references)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(tables_and_budgets(30, ("saturated", "unsaturated", "between floats", "tiny")))
def test_solve_is_the_exact_optimum(case):
    # Compiling rounds each market's levels by an ulp or so, and a response
    # as steep as 1e9 per unit of the shadow rate turns that into exposure
    # errors far above 1e-12 of the budget, and a saturated total off by
    # rounding can move an exact shadow rate across a flat stretch. So the
    # solve is held to the exact optimum of a budget within 1e-12 of its
    # own: its shadow rate within 1e-12 of that optimum's, each exposure
    # within 1e-12 of the budget of the exact response at such a rate, and
    # the regime the exact one unless such a rate meets the staking rate.
    forms, s, budget = case
    p = ProblemInstance(tuple(f"m{i}" for i in range(len(forms))), s, budget, tuple(forms))
    with mock.patch.object(allocator, "_adjacent_floats", wraps=allocator._adjacent_floats) as between:
        alloc = solve(p)
    assert abs(math.fsum(alloc.exposures) + alloc.unleveraged - budget) <= 1e-12 * budget
    rho = Fraction(1e-12)
    lam_star, exposures, unleveraged, regime = exact_solve(p, s)
    assert sum(exposures) + unleveraged == Fraction(budget)
    lam_lo = exact_solve(replace(p, budget=budget * (1.0 + 1e-12)), s)[0] * (1 - rho)
    lam_hi = exact_solve(replace(p, budget=budget * (1.0 - 1e-12)), s)[0] * (1 + rho)
    assert lam_lo <= lam_star <= lam_hi
    assert lam_lo <= Fraction(alloc.lambda_star) <= lam_hi
    for x, form in zip(alloc.exposures, forms):
        branches = exact_marginal_values(form, s)
        low, high = exact_response(branches, lam_hi), exact_response(branches, lam_lo, from_below=True)
        assert low - rho * Fraction(budget) <= Fraction(x) <= high + rho * Fraction(budget)
    assert alloc.regime == regime or lam_lo <= s
    if between.called:
        # The exact crossing of the pieces the solver summed lies in the bracket.
        pieces = between.call_args.args[1]
        lo = alloc.lambda_star
        assert exact_piece_total(pieces, lo) >= budget >= exact_piece_total(pieces, math.nextafter(lo, math.inf))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(instances(max_n=20), st.floats(1e-3, 1.0))
def test_solved_value_is_nondecreasing_and_concave_in_the_budget(p, step):
    budgets = [p.budget * (1.0 + k * step) for k in range(3)]
    low, mid, high = (solve(replace(p, budget=b)).expected_yield for b in budgets)
    # Rounding in cash flows of the order of budget * l_max.
    tol = 1e-12 * budgets[-1] * max(p.l_max)
    assert low <= mid + tol
    assert mid <= high + tol
    assert (low + high) / 2.0 <= mid + tol


@st.composite
def positions(draw, p: ProblemInstance) -> Allocation:
    """A holding of the instance's budget within every market's liquidity."""
    weights = [draw(st.floats(0.0, 1.0)) for _ in range(len(p.forms) + 1)]
    total = sum(weights) or 1.0
    # A form's second term is the market's liquidity cap on exposure.
    exposures = [min(w / total * p.budget, form[1]) for w, form in zip(weights, p.forms)]
    return Allocation.from_position(p.market_ids, exposures, p.budget - sum(exposures))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_fee_aware_direction_matches_the_collateral_move(data):
    p = data.draw(instances(max_n=20))
    current = data.draw(positions(p))
    fees = FeeModel(
        data.draw(st.floats(0.0, 0.01)),
        data.draw(st.floats(0.0, 0.01)),
        data.draw(st.floats(1.0, 30.0)) / 365.0,
    )
    plan = solve_with_fees(p, current, fees)
    # Collateral within rounding of the current total is a tie, not a move.
    tie = total_collateral(current, p.l_max) + 1e-12 * p.budget * max(p.l_max)
    after = total_collateral(plan.target, p.l_max)
    if plan.direction == INCREASE:
        assert after > tie
    elif plan.direction == DECREASE:
        assert after <= tie
    else:
        assert plan.target is current and plan.cost == 0.0


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_moving_target_is_the_solve_at_its_shifted_rate(data):
    p = data.draw(instances(max_n=20))
    current = data.draw(positions(p))
    fee = st.one_of(st.just(0.0), st.floats(0.0, 0.01))
    fees = FeeModel(data.draw(fee), data.draw(fee), data.draw(st.floats(1.0, 30.0)) / 365.0)
    plan = solve_with_fees(p, current, fees)
    assume(plan.direction != HOLD)
    if plan.direction == INCREASE:
        s = p.staking_rate - fees.gamma_plus / fees.horizon_years
    else:
        s = p.staking_rate + fees.gamma_minus / fees.horizon_years
    # Every field, the yield priced at the instance's own rate included.
    assert plan.target == _priced(p, *_solve_at(_table(p.forms, s), p.budget, s))


@st.composite
def fee_plans(draw):
    """A one- or two-market instance, a holding of its budget, fees on a log
    scale from negligible to prohibitive, and the fee-aware plan."""
    markets, p = draw(market_instances(max_n=2))
    current = draw(positions(p))
    fees = FeeModel(
        10.0 ** draw(st.floats(-6.0, -2.0)),
        10.0 ** draw(st.floats(-6.0, -2.0)),
        draw(st.floats(1.0, 30.0)) / 365.0,
    )
    return markets, p, current, fees, solve_with_fees(p, current, fees)


def grid_and_line_best(markets, p: ProblemInstance, current: Allocation, fees: FeeModel):
    """The oracle's best fee-penalised cash flow over a grid of every
    allocation of ``p``'s ``markets``, and its best cash flow at the current
    total collateral (where no fee is due)."""
    l_max = list(p.l_max)
    grid = grid_best_with_fees(
        markets, l_max, p.staking_rate, p.budget, total_collateral(current, p.l_max), fees,
        points=2001 if len(markets) == 1 else 81,
    )
    line = best_at_total_exposure(
        markets, l_max[0], p.staking_rate, p.budget, math.fsum(current.exposures)
    )
    return grid, line


@settings(derandomize=True, max_examples=100, deadline=None)
@given(fee_plans())
def test_fee_aware_move_maximises_the_fee_penalised_yield(case):
    markets, p, current, fees, plan = case
    assume(plan.direction != HOLD)
    value = fee_penalised_objective(
        markets, list(p.l_max), p.staking_rate, list(plan.target.exposures),
        plan.target.unleveraged, total_collateral(current, p.l_max), fees,
    )
    grid, line = grid_and_line_best(markets, p, current, fees)
    tol = 1e-9 * p.budget * max(p.l_max)
    assert value >= grid - tol
    assert value >= line - tol


@settings(derandomize=True, max_examples=100, deadline=None)
@given(fee_plans())
def test_fee_aware_hold_has_its_best_at_the_current_collateral(case):
    # Neither fee-shifted branch moves collateral its own way (or the one
    # that does is the current holding): no allocation, at any total
    # collateral, beats the best one at the current total net of fees.
    markets, p, current, fees, plan = case
    assume(plan.direction == HOLD)
    grid, line = grid_and_line_best(markets, p, current, fees)
    assert grid <= line + 1e-9 * p.budget * max(p.l_max)


@st.composite
def series(draw, max_markets: int = 3) -> SnapshotSeries:
    """An hourly series with up to ten minutes of jitter per step and, at
    about one step in ten, a gap of up to two days."""
    metas = tuple(
        MarketMeta(f"m{i}", draw(st.floats(0.5, 0.95)))
        for i in range(draw(st.integers(1, max_markets)))
    )
    adaptive = {m.market_id: draw(st.booleans()) for m in metas}
    snaps = []
    ts = T0
    for _ in range(draw(st.integers(2, 40))):
        markets = {}
        for meta in metas:
            supplied = draw(st.floats(1.0, 1e4))
            markets[meta.market_id] = MarketSnapshot(
                supplied=supplied,
                borrowed=supplied * draw(st.floats(0.0, 1.0)),
                borrow_rate=draw(st.floats(0.0, 0.5)),
                rate_at_target=(
                    draw(st.floats(0.0, 0.5, exclude_min=True)) if adaptive[meta.market_id] else None
                ),
            )
        snaps.append(Snapshot(ts, draw(st.floats(0.0, 0.2)), markets))
        ts += SECONDS_PER_HOUR + draw(st.integers(-600, 600))
        if draw(st.integers(0, 9)) == 0:
            ts += draw(st.integers(1, 48)) * SECONDS_PER_HOUR
    return SnapshotSeries.from_rows(metas, snaps)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_smoothing_is_the_exact_window_mean(data):
    x = data.draw(series())
    window = data.draw(st.integers(x.cadence_seconds, 3 * SECONDS_PER_DAY))
    smoothed = smooth_rates(x, window)
    assert [
        {mid: ms.rate_at_target for mid, ms in snap.markets.items()}
        for snap in smoothed.snapshots
    ] == window_means(x, window)
    for a, b in zip(x.snapshots, smoothed.snapshots):
        assert (a.timestamp, a.staking_rate) == (b.timestamp, b.staking_rate)
        for mid, ms in a.markets.items():
            assert (ms.supplied, ms.borrowed, ms.borrow_rate) == (
                b.markets[mid].supplied, b.markets[mid].borrowed, b.markets[mid].borrow_rate
            )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 50), min_size=1, unique=True).map(sorted),
    st.lists(st.tuples(st.integers(0, 50), st.floats(0.0, 1.0)), min_size=1),
)
def test_staking_join_equals_the_search(grid, observations):
    # Repeated observation times, and grid times before the first observation.
    staking = sorted(observations, key=lambda item: item[0])
    assert staking_rates_at(grid, staking) == staking_join_by_search(grid, staking)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(series())
def test_save_then_load_is_exact(x):
    manifest = DatasetManifest("ethereum", SECONDS_PER_HOUR, "synthetic")
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # gaps are reported, never filled
        save_snapshots(x, manifest, Path(tmp))
        assert load_snapshots(Path(tmp)) == x


# Market ids that the csv module quotes, and the numbers a row can hold.
_HEADER_WORDS = st.text(st.sampled_from('ab ,"\'x1'), min_size=1, max_size=6)
_FIELDS = st.one_of(
    st.none(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308]),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_written_csv_is_the_csv_module_s(data):
    header = ["timestamp", *data.draw(st.lists(_HEADER_WORDS, min_size=1, max_size=5))]
    row = st.tuples(*[_FIELDS] * len(header))
    rows = data.draw(st.lists(row, max_size=20))
    with tempfile.TemporaryDirectory() as tmp:
        written = _write_csv(Path(tmp) / "out.csv", header, iter(rows)).read_bytes()
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(rows)
    assert written == expected.getvalue().encode()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_equity_is_conserved_at_every_step(data):
    x = data.draw(series(max_markets=30))
    assume(len(x.timestamps) >= 3)  # two rebalance intervals of at least the cadence
    cadence = x.cadence_seconds
    span = x.timestamps[-1] - x.timestamps[0]
    cfg = BacktestConfig(
        budget=data.draw(st.floats(1e-3, 1e5)),
        l_max=data.draw(st.floats(1.0, min(1.0 / (1.0 - m.max_ltv) for m in x.markets))),
        rebalance_frequency=data.draw(st.integers(cadence, span // 2)),
        strategy=data.draw(st.sampled_from((FIXED_FREQUENCY, DYNAMIC))),
        threshold=data.draw(st.floats(0.0, 0.01)),
        fees=FeeModel(
            data.draw(st.floats(0.0, 0.01)),
            data.draw(st.floats(0.0, 0.01)),
            data.draw(st.floats(1.0, 30.0)) / 365.0,
        ),
        smoothing_window=data.draw(st.one_of(st.just(0), st.integers(cadence, SECONDS_PER_DAY))),
        irm=LinearIrmParams(0.0, data.draw(st.floats(0.0, 0.2)), 0.9),  # for non-adaptive markets
    )
    r = run_backtest(x, cfg)
    flows = zip(r.equity, r.staking_accrued, r.interest_paid, r.fees_paid, r.equity[1:])
    for equity, staking, interest, fees, after in flows:
        expected = equity + staking - interest - fees
        assert abs(after - expected) <= 1e-9 * max(1.0, abs(after))


@st.composite
def replays(draw) -> tuple[SnapshotSeries, BacktestConfig]:
    """A series and a config to replay: jittered, gappy hourly steps;
    rebalancing every 1 to 5 cadences, not always a multiple of it; budgets
    from 1e-3 to 1e7 on pools of 1 to 1e4, so that the largest debts
    overshoot a pool that shrinks under them; the dynamic gate net or gross
    of costs."""
    x = draw(series())
    assume(len(x.timestamps) >= 3)
    cadence = x.cadence_seconds
    frequency = draw(st.integers(cadence, 5 * cadence))
    assume(x.timestamps[-1] - x.timestamps[0] >= 2 * frequency)
    fees = FeeModel(0.0, 0.0, 1.0 / 365.0)
    if draw(st.booleans()):
        fees = FeeModel(draw(st.floats(0.0, 0.01)), draw(st.floats(0.0, 0.01)), 7.0 / 365.0)
    cfg = BacktestConfig(
        budget=10.0 ** draw(st.floats(-3.0, 7.0)),
        l_max=draw(st.floats(1.0, min(1.0 / (1.0 - m.max_ltv) for m in x.markets))),
        rebalance_frequency=frequency,
        strategy=draw(st.sampled_from((FIXED_FREQUENCY, DYNAMIC, STAKING_ONLY))),
        threshold=draw(st.floats(0.0, 0.01)),
        fees=fees,
        smoothing_window=draw(st.one_of(st.just(0), st.integers(cadence, SECONDS_PER_DAY))),
        irm=draw(st.sampled_from((
            LinearIrmParams(0.0, 0.1, 0.9), KinkedIrmParams(0.01, 0.04, 0.8, 0.85)
        ))),
        gate_net_of_costs=draw(st.booleans()),
    )
    return x, cfg


# No shrink phase: shrinking a failing replay takes minutes, while the
# failure itself is reported in about a second.
@settings(derandomize=True, max_examples=150, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(replays())
def test_stretch_walk_equals_the_per_step_walk(case):
    x, cfg = case
    walked, reference = run_backtest(x, cfg), replay_per_step(x, cfg)
    for f in fields(BacktestResult):  # repr tells every float apart, -0.0 from 0.0 too
        assert repr(getattr(walked, f.name)) == repr(getattr(reference, f.name)), f.name


@settings(derandomize=True, max_examples=100, deadline=None)
@given(replays())
def test_apy_only_replay_equals_the_full_replay(case):
    x, cfg = case
    only_apy = backtest._replay(x, [cfg], False)
    assert repr(only_apy) == repr([run_backtest(x, cfg).apy])


@settings(derandomize=True, max_examples=60, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(replays(), st.data())
def test_lockstep_sweeps_equal_independent_backtests(case, data):
    # Two caps and five budgets walk in lockstep, sharing each due step's
    # compile and tables. 1e6 and 1e7 saturate together on pools of at most
    # 1e4, so they hold the same floats and share their stretches' walks.
    x, cfg = case
    bound = min(1.0 / (1.0 - m.max_ltv) for m in x.markets)
    caps = data.draw(st.lists(st.floats(1.0, bound), min_size=2, max_size=2, unique=True))
    budgets = [*(10.0 ** data.draw(st.floats(-3.0, 7.0)) for _ in range(3)), 1e6, 1e7]
    independent = {
        c: [(b, run_backtest(x, replace(cfg, l_max=c, budget=b)).apy) for b in budgets] for c in caps
    }
    assert repr(backtest.sweep_leverage(x, cfg, caps, budgets)) == repr(independent)


def jittered_series(rng: random.Random, n: int, steps: int) -> SnapshotSeries:
    """``steps`` hourly snapshots, each up to ten minutes off the hour, of
    ``n`` markets, about half of them adaptive and the rest left to the
    fallback rate model."""
    metas = tuple(MarketMeta(f"m{i}", rng.uniform(0.5, 0.95)) for i in range(n))
    adaptive = [rng.random() < 0.5 for _ in metas]
    columns = [([], [], [], [] if is_adaptive else None) for is_adaptive in adaptive]
    timestamps, staking_rates = [], []
    ts = T0
    for _ in range(steps):
        for supplied, borrowed, rates, targets in columns:
            supplied.append(rng.uniform(1.0, 1e4))
            borrowed.append(supplied[-1] * rng.random())
            rates.append(rng.uniform(0.0, 0.5))
            if targets is not None:
                targets.append(rng.uniform(1e-6, 0.5))
        timestamps.append(ts)
        staking_rates.append(rng.uniform(0.0, 0.2))
        ts += SECONDS_PER_HOUR + rng.randint(-600, 600)
    supplied, borrowed, rates, targets = zip(*columns)
    return SnapshotSeries(
        markets=metas,
        timestamps=tuple(timestamps),
        staking_rates=tuple(staking_rates),
        supplied=tuple(map(tuple, supplied)),
        borrowed=tuple(map(tuple, borrowed)),
        borrow_rate=tuple(map(tuple, rates)),
        rate_at_target=tuple(None if c is None else tuple(c) for c in targets),
    )


@st.composite
def wide_series(draw) -> SnapshotSeries:
    """A few jittered hourly steps over 100 to 300 markets, half of them
    adaptive. The values come from one drawn seed: drawing each one, as
    :func:`series` does, overruns hypothesis' data buffer at this width."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return jittered_series(rng, draw(st.integers(100, 300)), draw(st.integers(3, 6)))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.data())
def test_equity_is_conserved_at_every_step_with_hundreds_of_markets(data):
    x = data.draw(wide_series())
    cfg = BacktestConfig(
        budget=10.0 ** data.draw(st.floats(-3.0, 7.0)),
        l_max=data.draw(
            st.floats(1.0, min(1.0 / (1.0 - m.max_ltv) for m in x.markets), exclude_min=True)
        ),
        rebalance_frequency=x.cadence_seconds,
        strategy=data.draw(st.sampled_from((FIXED_FREQUENCY, DYNAMIC))),
        threshold=data.draw(st.floats(0.0, 0.01)),
        # Fees small enough over the horizon that a wide replay does rebalance.
        fees=FeeModel(data.draw(st.floats(0.0, 1e-4)), data.draw(st.floats(0.0, 1e-4)), 30 / 365.0),
        irm=LinearIrmParams(0.0, data.draw(st.floats(0.0, 0.2)), 0.9),  # for non-adaptive markets
    )
    r = run_backtest(x, cfg)
    flows = zip(r.equity, r.staking_accrued, r.interest_paid, r.fees_paid, r.equity[1:])
    for equity, staking, interest, fees, after in flows:
        expected = equity + staking - interest - fees
        assert abs(after - expected) <= 1e-9 * max(1.0, abs(after))


def test_equity_is_conserved_at_every_step_with_thousands_of_markets():
    x = jittered_series(random.Random(2000), 2000, 4)
    cfg = BacktestConfig(
        budget=1e5,
        l_max=1.8,  # below the cap 2 of the loosest max_ltv, 0.5
        rebalance_frequency=x.cadence_seconds,
        fees=FeeModel(1e-5, 2e-5, 30 / 365.0),
        smoothing_window=SECONDS_PER_HOUR,
        irm=KinkedIrmParams(0.0, 0.02, 0.5, 0.9),  # for non-adaptive markets
    )
    r = run_backtest(x, cfg)
    assert r.rebalance_count > 0
    flows = zip(r.equity, r.staking_accrued, r.interest_paid, r.fees_paid, r.equity[1:])
    for equity, staking, interest, fees, after in flows:
        expected = equity + staking - interest - fees
        assert abs(after - expected) <= 1e-9 * max(1.0, abs(after))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
def test_replay_plans_equal_plans_on_public_market_states(data):
    # Each solving step compiles its instance from the series columns; the
    # plan must be the one solve_with_fees gives on the public MarketStates
    # of the same snapshot.
    x = data.draw(wide_series())
    fees = FeeModel(
        10.0 ** data.draw(st.floats(-7.0, -2.0)),
        10.0 ** data.draw(st.floats(-7.0, -2.0)),
        data.draw(st.floats(1.0, 30.0)) / 365.0,
    )
    cfg = BacktestConfig(
        budget=10.0 ** data.draw(st.floats(-3.0, 7.0)),
        l_max=data.draw(
            st.floats(1.0, min(1.0 / (1.0 - m.max_ltv) for m in x.markets), exclude_min=True)
        ),
        rebalance_frequency=x.cadence_seconds,
        strategy=data.draw(st.sampled_from((FIXED_FREQUENCY, DYNAMIC))),
        fees=fees,
        smoothing_window=max(x.cadence_seconds, SECONDS_PER_HOUR),
        irm=LinearIrmParams(0.0, data.draw(st.floats(0.0, 0.2)), 0.9),  # for non-adaptive markets
    )
    step_of = {s: k for k, s in enumerate(x.staking_rates)}
    assume(len(step_of) == len(x.timestamps))  # the staking rate names the step
    plans = []
    plan_of = backtest._plan

    def recording(forms, tables, s, budget, exposures, unleveraged, fees, priced):
        plan = plan_of(forms, tables, s, budget, exposures, unleveraged, fees, priced)
        plans.append((forms, s, budget, exposures, unleveraged, priced, plan))
        return plan

    with mock.patch.object(backtest, "_plan", recording):
        run_backtest(x, cfg)
    assert plans
    smoothed = smooth_rates(x, cfg.smoothing_window)
    for forms, s, budget, exposures, unleveraged, priced, plan in plans:
        states = market_states_at(smoothed, step_of[s], cfg.irm)
        public = ProblemInstance.uniform(states, cfg.l_max, s, budget)
        current = Allocation.from_position(public.market_ids, exposures, unleveraged)
        expected = solve_with_fees(public, current, fees)
        direction, reason, *move = plan
        assert (direction, reason) == (expected.direction, expected.reason)
        if direction == HOLD:
            assert expected.target is current
            continue
        cost, net_gain, target, target_unleveraged, lam, regime, target_yield = move
        b = expected.target
        assert cost == expected.cost
        assert (tuple(target), target_unleveraged, lam) == (b.exposures, b.unleveraged, b.lambda_star)
        # Only the dynamic strategy's gate reads the yields, so only it prices.
        assert priced == (cfg.strategy == DYNAMIC)
        if priced:
            assert (net_gain, target_yield) == (expected.net_gain_rate, b.expected_yield)
        else:
            assert math.isnan(net_gain) and math.isnan(target_yield)
        a = Allocation(public.market_ids, tuple(target), target_unleveraged, lam, b.expected_yield, regime)
        # The target is the optimum at the fee-shifted staking rate it was
        # solved at, certified on the public instance and on the replay's own
        # forms.
        shift = -fees.gamma_plus if direction == INCREASE else fees.gamma_minus
        shifted = s + shift / fees.horizon_years
        assert verify_kkt(b, replace(public, staking_rate=shifted), 1e-8).passed
        own = ProblemInstance(public.market_ids, shifted, budget, forms)
        assert verify_kkt(a, own, 1e-8).passed
