"""Independent reference implementations used to check the closed forms.

Everything here recomputes rates and objectives from the model definitions
directly (piecewise on utilization) and optimizes by brute force, so the
tests never reuse the code paths they are checking.
"""

from __future__ import annotations

import itertools
import math
import random
from operator import sub

from stakeloop import backtest as bt
from stakeloop.allocator import Allocation, ProblemInstance
from stakeloop.irm import (
    AdaptiveIrmParams,
    KinkedIrmParams,
    LinearIrmParams,
    MarketState,
    _rate,
)
from stakeloop.rebalance import HOLD, solve_with_fees
from stakeloop.units import SECONDS_PER_YEAR


def oracle_rate(irm, supplied: float, total_borrowed: float) -> float:
    """Borrow rate at a pool state, written as piecewise utilization formulas."""
    u = total_borrowed / supplied
    if isinstance(irm, LinearIrmParams):
        return irm.r_base + irm.r_slope1 * u / irm.u_target
    if isinstance(irm, KinkedIrmParams):
        if u < irm.u_target:
            return irm.r_base + irm.r_slope1 * u / irm.u_target
        return irm.r_base + irm.r_slope1 + irm.r_slope2 * (u - irm.u_target) / (
            1.0 - irm.u_target
        )
    if isinstance(irm, AdaptiveIrmParams):
        if u < irm.u_target:
            err = (u - irm.u_target) / irm.u_target
            factor = (1.0 - 1.0 / irm.curve_steepness) * err + 1.0
        else:
            err = (u - irm.u_target) / (1.0 - irm.u_target)
            factor = (irm.curve_steepness - 1.0) * err + 1.0
        return irm.rate_at_target * factor
    raise TypeError(type(irm))


def market_term(market: MarketState, l_max: float, s: float, x: float) -> float:
    """Cash flow of exposure x held at the leverage cap in one market."""
    debt = x * (l_max - 1.0)
    rate = oracle_rate(market.irm, market.supplied, market.borrowed + debt)
    return x * l_max * s - debt * rate


def grid_response(
    market: MarketState, l_max: float, s: float, lam: float, points: int = 100_001
) -> float:
    """Arg-max over an x grid of the per-market term net of the shadow rate."""
    cap = (market.supplied - market.borrowed) / (l_max - 1.0)
    best_x = 0.0
    best_v = 0.0
    for k in range(points):
        x = cap * k / (points - 1)
        v = market_term(market, l_max, s, x) - lam * x
        if v > best_v:
            best_v, best_x = v, x
    return best_x


def simplex_objective(
    markets: list[MarketState], l_max: list[float], s: float, x: list[float], x0: float
) -> float:
    total = x0 * s
    for market, l, xi in zip(markets, l_max, x):
        total += market_term(market, l, s, xi)
    return total


def simplex_search(
    markets: list[MarketState],
    l_max: list[float],
    s: float,
    budget: float,
    min_steps: int = 10_000,
) -> float:
    """Projected pairwise coordinate search on the capped budget simplex.

    Slot 0 is the unleveraged holding; slots 1..n are market exposures capped
    at available liquidity. Moves mass between slot pairs with a shrinking
    step, counting every candidate evaluation as one refinement step and
    cycling the schedule until at least ``min_steps`` have run. Returns the
    best cash flow found.
    """
    n = len(markets)
    caps = [(m.supplied - m.borrowed) / (l - 1.0) for m, l in zip(markets, l_max)]

    def term(slot: int, value: float) -> float:
        if slot == 0:
            return value * s
        return market_term(markets[slot - 1], l_max[slot - 1], s, value)

    x = [budget] + [0.0] * n
    terms = [term(i, x[i]) for i in range(n + 1)]
    evals = 0
    floor = 1e-12 * budget

    while evals < min_steps:
        delta = budget / 2.0
        while delta > floor:
            improved = True
            while improved:
                improved = False
                for i in range(n + 1):
                    if x[i] <= 0.0:
                        continue
                    for j in range(n + 1):
                        if i == j:
                            continue
                        room = budget if j == 0 else caps[j - 1] - x[j]
                        step = min(delta, x[i], room)
                        if step <= 0.0:
                            continue
                        new_i = term(i, x[i] - step)
                        new_j = term(j, x[j] + step)
                        evals += 1
                        if new_i + new_j > terms[i] + terms[j] + 1e-16:
                            x[i] -= step
                            x[j] += step
                            terms[i], terms[j] = new_i, new_j
                            improved = True
            delta *= 0.5
    return sum(terms)


def fee_penalised_objective(
    markets: list[MarketState],
    l_max: list[float],
    s: float,
    x: list[float],
    x0: float,
    collateral0: float,
    fees,
) -> float:
    """Cash flow of a holding net of the fee of reaching it from total
    collateral ``collateral0``, amortized over the fee horizon:
    ``f(x) - gamma_pm * |delta C| / horizon``."""
    delta = x0 + sum(xi * l for xi, l in zip(x, l_max)) - collateral0
    gamma = fees.gamma_plus if delta > 0.0 else fees.gamma_minus
    return simplex_objective(markets, l_max, s, x, x0) - gamma * abs(delta) / fees.horizon_years


def grid_best_with_fees(
    markets: list[MarketState],
    l_max: list[float],
    s: float,
    budget: float,
    collateral0: float,
    fees,
    points: int,
) -> float:
    """Largest fee-penalised cash flow over a grid of ``points`` exposures
    per market (one or two markets), each within its liquidity cap and all
    within the budget."""
    if not 1 <= len(markets) <= 2:
        raise ValueError("the grid covers one or two markets")
    axes = [
        [min(budget, (m.supplied - m.borrowed) / (l - 1.0)) * k / (points - 1) for k in range(points)]
        for m, l in zip(markets, l_max)
    ]
    best = -math.inf
    for x in itertools.product(*axes):
        x0 = budget - sum(x)
        if x0 >= 0.0:
            best = max(best, fee_penalised_objective(markets, l_max, s, list(x), x0, collateral0, fees))
    return best


def best_at_total_exposure(
    markets: list[MarketState], l_max: float, s: float, budget: float, total: float
) -> float:
    """Largest cash flow over holdings of one or two markets at one leverage
    cap whose exposures sum to ``total``, which fixes the total collateral
    ``budget + total * (l_max - 1)``. The cash flow is concave along that
    line, so a ternary search finds its maximum."""
    caps = [(m.supplied - m.borrowed) / (l_max - 1.0) for m in markets]
    x0 = budget - total

    def value(x1: float) -> float:
        x = [x1] if len(markets) == 1 else [x1, total - x1]
        return simplex_objective(markets, [l_max] * len(markets), s, x, x0)

    if len(markets) == 1:
        return value(total)
    if len(markets) != 2:
        raise ValueError("the line covers one or two markets")
    lo, hi = max(0.0, total - caps[1]), min(total, caps[0])
    for _ in range(200):
        a, b = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if value(a) < value(b):
            lo = a
        else:
            hi = b
    return max(value(lo), value(hi), value(max(0.0, total - caps[1])), value(min(total, caps[0])))


def random_instance(rng: random.Random, n: int | None = None):
    """Seeded mixed-model instance spanning both solver regimes.

    Returns (markets, l_max list, staking rate, budget).
    """
    from stakeloop.irm import market_response

    n = n if n is not None else rng.randint(1, 4)
    s = rng.uniform(0.01, 0.06)
    markets = []
    l_maxes = []
    for i in range(n):
        supplied = rng.uniform(10.0, 1e4)
        u_target = rng.uniform(0.7, 0.95)
        borrowed = rng.uniform(0.0, 0.95 * supplied * u_target)
        kind = rng.choice(("linear", "kinked", "adaptive"))
        if kind == "linear":
            irm = LinearIrmParams(
                r_base=rng.uniform(0.0, 0.02),
                r_slope1=rng.uniform(0.01, 0.08),
                u_target=u_target,
            )
        elif kind == "kinked":
            irm = KinkedIrmParams(
                r_base=rng.uniform(0.0, 0.02),
                r_slope1=rng.uniform(0.005, 0.04),
                r_slope2=rng.uniform(0.1, 1.0),
                u_target=u_target,
            )
        else:
            irm = AdaptiveIrmParams(
                rate_at_target=rng.uniform(0.005, 0.08),
                curve_steepness=rng.uniform(2.0, 6.0),
                u_target=u_target,
                adjustment_speed=50.0,
                t_last=0.0,
                u_last=borrowed / supplied,
            )
        markets.append(
            MarketState(
                market_id=f"m{i}",
                supplied=supplied,
                borrowed=borrowed,
                max_ltv=rng.uniform(0.9, 0.965),
                irm=irm,
            )
        )
        l_maxes.append(rng.uniform(2.0, 8.0))

    saturated_total = sum(
        market_response(m, l, s, s) for m, l in zip(markets, l_maxes)
    )
    if saturated_total > 0.0:
        budget = saturated_total * rng.uniform(0.2, 2.5)
    else:
        budget = rng.uniform(1.0, 100.0)
    return markets, l_maxes, s, max(budget, 1e-3)


def window_means(series, window: int) -> list[dict[str, tuple[float, float | None]]]:
    """Per snapshot, each market's mean borrow rate and rate-at-target over
    the snapshots in ``(t - window, t]``, each window summed from scratch."""
    out = []
    for snap in series.snapshots:
        span = [
            s
            for s in series.snapshots
            if snap.timestamp - window < s.timestamp <= snap.timestamp
        ]
        means = {}
        for mid, ms in snap.markets.items():
            rate = math.fsum(s.markets[mid].borrow_rate for s in span) / len(span)
            target = (
                None
                if ms.rate_at_target is None
                else math.fsum(s.markets[mid].rate_at_target for s in span) / len(span)
            )
            means[mid] = (rate, target)
        out.append(means)
    return out


def market_states_at(series, k: int, fallback_irm=None) -> list[MarketState]:
    """The public ``MarketState`` of each market at snapshot ``k``: the
    recorded rate-at-target under the deployed adaptive curve (steepness 4,
    target 0.9, the controller pinned to the snapshot), else ``fallback_irm``."""
    states = []
    columns = zip(series.markets, series.supplied, series.borrowed, series.rate_at_target)
    for meta, supplied, borrowed, targets in columns:
        irm = fallback_irm
        if targets is not None:
            irm = AdaptiveIrmParams(
                targets[k], 4.0, 0.9, 50.0, series.timestamps[k], borrowed[k] / supplied[k]
            )
        states.append(MarketState(meta.market_id, supplied[k], borrowed[k], meta.max_ltv, irm))
    return states


def replay_per_step(series, cfg):
    """``run_backtest(series, cfg)`` as a walk over every snapshot in turn:
    mark, maybe plan and trade, then accrue every market over one interval.
    The same expressions in the same order as the replay, which walks whole
    stretches between rebalances instead."""
    bt._check_span(series, cfg.rebalance_frequency)
    rate_at_target = bt._replay_targets(series, cfg.smoothing_window)
    ts = series.timestamps
    ids = series.market_ids
    n = len(ids)
    passive = cfg.strategy == bt.STAKING_ONLY or cfg.l_max <= 1.0
    m = cfg.l_max - 1.0
    fallback = None if cfg.irm is None else cfg.irm._curve
    if not passive:
        bt._check_curves(series, rate_at_target, fallback)
    unit = bt._recorded_curve(1.0)
    curves = [fallback if c is None else unit for c in rate_at_target]
    pools = tuple(zip(series.supplied, series.borrowed, curves, rate_at_target))

    unleveraged = cfg.budget
    collateral = [0.0] * n
    debt = [0.0] * n
    equity_col, fees_col, staking_col, interest_col, unleveraged_col = [], [], [], [], []
    collateral_cols = [[] for _ in ids]
    debt_cols = [[] for _ in ids]
    total_fees = 0.0
    rebalances = 0
    t0 = next_due = ts[0]
    for k, t in enumerate(ts):
        equity = unleveraged + sum(map(sub, collateral, debt))
        fees_here = 0.0
        due = t >= next_due
        if due:
            next_due = t0 + ((t - t0) // cfg.rebalance_frequency + 1) * cfg.rebalance_frequency
        if due and not passive and equity > 0.0:
            forms = bt._forms_at(series, k, rate_at_target, fallback, cfg.l_max)
            p = ProblemInstance(ids, (cfg.l_max,) * n, series.staking_rates[k], equity, forms)
            exposures = [d / m for d in debt]
            current = Allocation.from_position(ids, exposures, equity - sum(exposures))
            plan = solve_with_fees(p, current, cfg.fees)
            if cfg.strategy == bt.DYNAMIC:
                plan = bt._gate(plan, cfg, equity)
            if plan.direction != HOLD:
                target = plan.target
                collateral = [x * cfg.l_max for x in target.exposures]
                debt = [x * m for x in target.exposures]
                fees_here = plan.cost
                unleveraged, collateral, debt = bt._charge_fee(
                    fees_here, target.unleveraged, collateral, debt
                )
                rebalances += 1
                total_fees += fees_here
        equity_col.append(equity)
        fees_col.append(fees_here)
        unleveraged_col.append(unleveraged)
        for column, value in zip(collateral_cols + debt_cols, collateral + debt):
            column.append(value)
        if k == len(ts) - 1:
            break
        dt = (ts[k + 1] - t) / SECONDS_PER_YEAR
        s = series.staking_rates[k]
        interest = 0.0
        for i, (d, (supplied, borrowed, curve, targets)) in enumerate(zip(debt, pools)):
            if d <= 0.0:
                continue
            total = min(borrowed[k] + min(d, supplied[k] - borrowed[k]), supplied[k])
            rate = _rate(curve, total / supplied[k])
            if targets is not None:
                rate *= targets[k]
            interest += d * rate * dt
            debt[i] *= 1.0 + rate * dt
        interest_col.append(interest)
        staking_col.append((unleveraged + sum(collateral)) * s * dt)
        growth = 1.0 + s * dt
        unleveraged *= growth
        collateral = [c * growth for c in collateral]
    staking_col.append(0.0)
    interest_col.append(0.0)
    return bt.BacktestResult(
        market_ids=ids,
        timestamps=ts,
        equity=tuple(equity_col),
        staking_accrued=tuple(staking_col),
        interest_paid=tuple(interest_col),
        fees_paid=tuple(fees_col),
        unleveraged=tuple(unleveraged_col),
        collateral=tuple(map(tuple, collateral_cols)),
        debt=tuple(map(tuple, debt_cols)),
        apy=bt.apy(ts, equity_col),
        total_fees_paid=total_fees,
        rebalance_count=rebalances,
    )
