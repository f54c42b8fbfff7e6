"""Independent reference implementations used to check the closed forms.

Most of what is here recomputes rates and objectives from the model
definitions directly (piecewise on utilization), in floats or exactly, and
optimizes by brute force or by a search of its own, so the tests never
reuse the code paths they are checking. The per-step replay and the
between-floats bisection share the package's evaluation and differ from it
in how they walk or search.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from fractions import Fraction
from functools import reduce
from operator import add, sub
from unittest import mock

from stakeloop import allocator
from stakeloop import backtest as bt
from stakeloop.allocator import Allocation, ProblemInstance
from stakeloop.irm import (
    AdaptiveIrmParams,
    KinkedIrmParams,
    LinearIrmParams,
    MarketState,
    _rate,
)
from stakeloop.rebalance import HOLD, should_rebalance, solve_with_fees
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


def between_floats_by_bisection(budget: float, pieces: list, s: float) -> tuple[float, list[float]]:
    """``(lambda_star, exposures)`` when no float shadow rate spends ``budget``,
    by bisection from ``s`` up to the highest entry level for the adjacent
    floats ``lo < hi`` with the summed response at least the budget at ``lo``
    and below it at ``hi``, then the mix of the two responses that spends
    the budget: the reference for the solver, which steps to the pair from
    its walk's crossing."""
    lo = s
    hi = max(market_pieces[0][0] for market_pieces in pieces if market_pieces)
    while (mid := lo + (hi - lo) / 2) not in (lo, hi):
        if math.fsum(allocator._responses(pieces, mid)) >= budget:
            lo = mid
        else:
            hi = mid
    at_lo, at_hi = allocator._responses(pieces, lo), allocator._responses(pieces, hi)
    over, under = math.fsum(at_lo) - budget, budget - math.fsum(at_hi)
    w_lo, w_hi = under / (over + under), over / (over + under)
    return lo, [w_lo * a + w_hi * b for a, b in zip(at_lo, at_hi)]


def walked_brackets(table: tuple, budget: float, s: float) -> list[tuple[int, tuple, list]]:
    """Solve ``budget`` on ``table`` at staking rate ``s``; for each step onto
    the between-floats path, ``(steps, folded, references)``: how many floats
    lie from the walk's shadow rate to the bracket's lower end, the path's
    ``(lambda_star, exposures)``, and what should equal it: that of
    :func:`between_floats_by_bisection`, and the path's own from three floats
    below and above the walk's shadow rate."""
    walked = []
    between = allocator._adjacent_floats

    def spy(budget, pieces, lam):
        folded = between(budget, pieces, lam)
        steps, at = 0, lam
        while at != folded[0] and steps < 64:
            steps, at = steps + 1, math.nextafter(at, folded[0])
        below, above = lam, lam
        for _ in range(3):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        references = [between_floats_by_bisection(budget, pieces, s)]
        references += [between(budget, pieces, start) for start in (below, above)]
        walked.append((steps, folded, references))
        return folded

    with mock.patch.object(allocator, "_adjacent_floats", spy):
        allocator._solve_at(table, budget, s)
    return walked


def exact_marginal_values(form: tuple, s: float) -> list[tuple]:
    """A market's marginal value of exposure at staking rate ``s`` in exact
    arithmetic, from its rate curve: the floats of ``form``'s cap, curve and
    pool, each taken as the rational it is. One ``(x0, x1, v0, dv)`` per
    branch of the curve that the new debt ``B = x*(l_max-1)`` runs over: the
    value is ``v0 - dv*(x - x0)`` on ``[x0, x1]``, the left side of the
    stationarity condition ``l_max*s - (l_max-1)*(b(T) + B*b'(T)) = lam`` at
    total debt ``T = borrowed + B``, affine in ``x`` on a branch. It drops
    where the debt crosses the kink; the last ``x1`` is the liquidity cap."""
    l_max, (_, scale, u_target, below, above), supplied, borrowed = form[0], *form[6:]
    l_max, scale, supplied, borrowed = map(Fraction, (l_max, scale, supplied, borrowed))
    m = l_max - 1
    kink = supplied * Fraction(u_target)
    spans = []  # (debt from, debt to, branch)
    if below is not above and borrowed < kink:
        spans.append((Fraction(0), kink - borrowed, below))
    spans.append((spans[-1][1] if spans else Fraction(0), supplied - borrowed, above))
    branches = []
    for b0, b1, (a, u0, w, slope) in spans:
        a, u0, w, slope = map(Fraction, (a, u0, w, slope))
        c = scale * slope / (w * supplied)  # the rate's rise per unit of total debt
        rate = scale * (a + ((borrowed + b0) / supplied - u0) / w * slope)
        # b(T) + B*b'(T) is rate + b0*c at B = b0 and rises 2c per unit of B.
        branches.append((b0 / m, b1 / m, l_max * Fraction(s) - m * (rate + b0 * c), 2 * c * m * m))
    return branches


def exact_response(branches: list[tuple], lam: Fraction, from_below: bool = False) -> Fraction:
    """The exposure whose marginal value meets ``lam``: the smallest optimal
    one, the limit from above where the response jumps, or with
    ``from_below`` the largest, the limit from below."""
    for x0, x1, v0, dv in branches:
        if lam > v0 or (lam == v0 and not from_below):
            return x0
        if dv and (x := x0 + (v0 - lam) / dv) < x1:
            return x
    return branches[-1][1]


def exact_solve(p: ProblemInstance, s: float) -> tuple[Fraction, list[Fraction], Fraction, str]:
    """``(lambda_star, exposures, unleveraged, regime)`` of the optimum of
    ``p``'s budget at staking rate ``s``, in exact arithmetic.

    The summed response is non-increasing, and affine between the marginal
    values at the markets' branch ends. A bisection over those levels finds
    the one where the response reaches the budget, or the gap above it
    where the response crosses it. Where it jumps past the budget on a
    level, the jumping markets fill in market order, the solver's rule for
    choosing among optima."""
    budget, floor = Fraction(p.budget), Fraction(s)
    markets = [exact_marginal_values(form, s) for form in p.forms]

    def responses(lam: Fraction, from_below: bool = False) -> list[Fraction]:
        return [exact_response(branches, lam, from_below) for branches in markets]

    if sum(responses(floor)) <= budget:
        exposures = responses(floor)
        return floor, exposures, budget - sum(exposures), "saturated"
    ends = {
        v for branches in markets for x0, x1, v0, dv in branches for v in (v0, v0 - dv * (x1 - x0))
    }
    levels = sorted((v for v in ends if v > floor), reverse=True)
    # The first level from the top whose response from below reaches the budget.
    lo, hi = 0, len(levels)
    while lo < hi:
        mid = (lo + hi) // 2
        if sum(responses(levels[mid], from_below=True)) >= budget:
            hi = mid
        else:
            lo = mid + 1
    if lo < len(levels) and sum(exposures := responses(levels[lo])) <= budget:
        left = budget - sum(exposures)
        for i, x in enumerate(responses(levels[lo], from_below=True)):
            take = min(x - exposures[i], left)
            exposures[i] += take
            left -= take
        return levels[lo], exposures, Fraction(0), "unsaturated"
    # The response is affine in the gap, from its value at the bottom to
    # its value below the top.
    bottom = levels[lo] if lo < len(levels) else floor
    at_bottom, at_top = sum(responses(bottom)), sum(responses(levels[lo - 1], from_below=True))
    lam = bottom + (levels[lo - 1] - bottom) * (at_bottom - budget) / (at_bottom - at_top)
    return lam, responses(lam), Fraction(0), "unsaturated"


def exact_piece_total(pieces: list, lam: float) -> Fraction:
    """The summed response of compiled ``pieces`` at ``lam``, each piece
    evaluated in exact arithmetic."""
    total = Fraction(0)
    for market_pieces in pieces:
        for level, denom, value in reversed(market_pieces):
            if lam < level:
                at = (Fraction(value) - Fraction(lam)) / Fraction(denom) if denom else Fraction(value)
                total += min(at, Fraction(market_pieces[-1][2]))
                break
    return total


def staking_join_by_search(timestamps, staking) -> list[float]:
    """The staking join by search: per timestamp, the rate of the last
    observation at or before it, else the first observation's rate."""
    times = [t for t, _ in staking]
    return [staking[max(bisect.bisect_right(times, ts) - 1, 0)][1] for ts in timestamps]


def window_means(series, window: int) -> list[dict[str, float | None]]:
    """Per snapshot, each market's mean rate-at-target (``None`` where none is
    recorded) over the snapshots in ``(t - window, t]``, each window summed
    from scratch."""
    out = []
    for snap in series.snapshots:
        span = [
            s
            for s in series.snapshots
            if snap.timestamp - window < s.timestamp <= snap.timestamp
        ]
        out.append({
            mid: None if ms.rate_at_target is None
            else math.fsum(s.markets[mid].rate_at_target for s in span) / len(span)
            for mid, ms in snap.markets.items()
        })
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
    rate_at_target = bt._replay_targets(series, cfg.smoothing_window)
    ts = series.timestamps
    ids = series.market_ids
    n = len(ids)
    passive = cfg.strategy == bt.STAKING_ONLY or cfg.l_max <= 1.0
    m = cfg.l_max - 1.0
    fallback = None if cfg.irm is None else cfg.irm._curve
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
        equity = unleveraged + reduce(add, map(sub, collateral, debt), 0.0)
        fees_here = 0.0
        due = t >= next_due
        if due:
            next_due = t0 + ((t - t0) // cfg.rebalance_frequency + 1) * cfg.rebalance_frequency
        if due and not passive and equity > 0.0:
            forms = bt._forms_at(series, k, rate_at_target, fallback, cfg.l_max)
            p = ProblemInstance(ids, series.staking_rates[k], equity, forms)
            exposures = [d / m for d in debt]
            current = Allocation.from_position(ids, exposures, equity - reduce(add, exposures, 0.0))
            plan = solve_with_fees(p, current, cfg.fees)
            moves = plan.direction != HOLD
            if moves and cfg.strategy == bt.DYNAMIC:
                # The gate: the yield gain per unit of equity, net of the
                # amortized cost unless the gate is gross, must beat the threshold.
                gain = plan.net_gain_rate
                if not cfg.gate_net_of_costs:
                    gain += plan.cost / cfg.fees.horizon_years
                moves = should_rebalance(0.0, gain, equity, cfg.threshold)
            if moves:
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
        staking_col.append((unleveraged + reduce(add, collateral, 0.0)) * s * dt)
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
