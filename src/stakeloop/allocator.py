"""Multi-market budget allocation for leveraged staking.

The budget is split across one exposure per market, each held at that
market's leverage cap, plus an aggregated unleveraged remainder. The
objective (instantaneous cash flow) is concave and separable, so the
optimum is characterized by a single shadow rate ``lambda_star``:

* saturated regime: every market is borrowed down to marginal value equal
  to the staking rate and the leftover budget stays unleveraged;
* unsaturated regime: the unleveraged remainder is zero and ``lambda_star``
  rises above the staking rate until the per-market responses exactly
  absorb the budget.

Every market's response is piecewise affine in the shadow rate; compiled
once per ``ProblemInstance``, its events give it in closed form: each
breakpoint (the liquidity cap included) with the jump there and the slope
below it. ``solve`` sorts
all events above the staking rate once and sweeps down from the highest,
keeping running totals of the summed response and its slope, and stops at
the piece or the jump where the total reaches the budget. Inside a piece
``lambda_star`` has a closed form; on a jump it is the breakpoint itself and
the jumping markets share what is left. Where the summed response passes the
budget between two adjacent floats, the exposures mix the responses at both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add, itemgetter, mul
from typing import Sequence

from .errors import ConstraintError, DomainError, UnsupportedModelError
from .irm import (
    MarketState,
    _check_pool_amounts,
    _events,
    _pieces,
    _rate,
    _response,
    _state_form,
    _subgradient,
)

SATURATED = "saturated"
UNSATURATED = "unsaturated"

_REL_BUDGET_TOL = 1e-9


@dataclass(frozen=True)
class ProblemInstance:
    """Markets as their responses at their leverage caps, with the staking
    rate and the budget. ``forms`` holds each market's response compiled once
    (``irm._compile``); every reader of the instance works from those forms.
    ``l_max`` holds the cap each form was compiled at, so a fee is priced at
    the cap its response assumed."""

    market_ids: tuple[str, ...]
    staking_rate: float
    budget: float
    forms: tuple[tuple, ...] = field(repr=False)

    def __post_init__(self) -> None:
        ids = self.market_ids
        if not ids:
            raise DomainError("at least one market is required")
        if len(ids) != len(self.forms):
            raise DomainError("markets and forms must have the same length")
        if len(set(ids)) < len(ids):
            raise DomainError(f"duplicate market id {next(i for i in ids if ids.count(i) > 1)}")
        l_max = tuple(map(itemgetter(0), self.forms))
        _check_budget(self.budget, self.staking_rate, max(l_max))
        object.__setattr__(self, "l_max", l_max)

    @classmethod
    def of(
        cls, markets: Sequence[MarketState], l_max: Sequence, staking_rate: float, budget: float
    ) -> ProblemInstance:
        """Market states, each compiled at its leverage cap."""
        if len(l_max) != len(markets):
            raise DomainError("markets and l_max must have the same length")
        ids = tuple(m.market_id for m in markets)
        return cls(ids, staking_rate, budget, tuple(map(_state_form, markets, l_max)))

    @classmethod
    def uniform(
        cls, markets: Sequence[MarketState], l_max: float, staking_rate: float, budget: float
    ) -> ProblemInstance:
        """Same leverage cap applied to every market."""
        return cls.of(markets, [l_max] * len(markets), staking_rate, budget)


def _check_budget(budget: float, staking_rate: float, l_max: float) -> None:
    """Refuse a budget or staking rate an instance at cap ``l_max`` refuses."""
    if not 0.0 < budget < math.inf:
        raise DomainError(f"budget must be positive and finite, got {budget}")
    if not math.isfinite(staking_rate):
        raise DomainError(f"staking_rate must be finite, got {staking_rate}")
    # No holding's cash flow passes budget · l_max · |s| per year.
    if not math.isfinite(budget * l_max * abs(staking_rate)):
        raise DomainError(
            f"staking_rate {staking_rate} overflows the cash flow of "
            f"budget {budget} at l_max {l_max}"
        )


@dataclass(frozen=True)
class Allocation:
    """Solver output: per-market leveraged exposures plus the unleveraged rest."""

    market_ids: tuple[str, ...]
    exposures: tuple[float, ...]
    unleveraged: float
    lambda_star: float
    expected_yield: float
    regime: str

    @property
    def total(self) -> float:
        return self.unleveraged + reduce(add, self.exposures, 0.0)

    @classmethod
    def from_position(
        cls,
        market_ids: Sequence[str],
        exposures: Sequence[float],
        unleveraged: float,
    ) -> "Allocation":
        """Wrap an existing holding (not a solver result) for comparisons."""
        return cls(
            market_ids=tuple(market_ids),
            exposures=tuple(exposures),
            unleveraged=unleveraged,
            lambda_star=float("nan"),
            expected_yield=float("nan"),
            regime="position",
        )


@dataclass(frozen=True)
class KktReport:
    """Optimality certificate for an allocation at a given shadow rate.

    ``stationarity`` holds, per market, the distance of ``lambda_star`` from
    the admissible marginal-value interval (zero when inside, which covers
    the flat spot at a rate kink). The budget residual is compared against
    ``tol * budget``; all other residuals against ``tol`` directly.
    """

    market_ids: tuple[str, ...]
    stationarity: tuple[float, ...]
    complementary_ok: tuple[bool, ...]
    budget_residual: float
    multiplier_residual: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class WaterfillingDetail:
    """Closed-form solution internals for all-linear instances."""

    allocation: Allocation
    active_count: int
    order: tuple[str, ...]
    fill_thresholds: tuple[float, ...]


def effective_staking_rate(lam: float, s: float, l_max: float) -> float:
    """Staking rate that makes a budget-constrained solve look unconstrained.

    Equals ``s`` at ``lam = s`` and decreases as the shadow rate rises.
    """
    if l_max <= 1.0:
        raise DomainError(f"l_max must exceed 1, got {l_max}")
    return s + (s - lam) / (l_max - 1.0)


def _responses(pieces: list[list[tuple[float, float, float]]], lam: float) -> list[float]:
    return [_response(market_pieces, lam) for market_pieces in pieces]


def _position_yield(
    exposures: Sequence[float],
    unleveraged: float,
    s: float,
    forms: Sequence[tuple],
    clamp_utilization: bool = False,
) -> float:
    """Instantaneous cash flow of a holding on markets compiled as ``forms``
    at staking rate ``s``, without feasibility checks.

    With ``clamp_utilization`` the borrow rate is evaluated at full pool
    utilization when the debt overshoots available liquidity (stale positions
    marked against a shrunk pool).
    """
    total = unleveraged * s
    for x, (l_max, _, _, _, _, _, curve, supplied, borrowed) in zip(exposures, forms):
        debt = x * (l_max - 1.0)
        debt_for_rate = min(debt, supplied - borrowed) if clamp_utilization else debt
        rate = _rate(curve, _check_pool_amounts(supplied, borrowed, debt_for_rate) / supplied)
        total += x * l_max * s - debt * rate
    return total


def expected_yield(alloc: Allocation, p: ProblemInstance) -> float:
    """Instantaneous cash flow of a feasible allocation, per year."""
    _check_alloc_feasible(alloc, p)
    return _position_yield(alloc.exposures, alloc.unleveraged, p.staking_rate, p.forms)


def yield_breakdown(alloc: Allocation, p: ProblemInstance) -> tuple[float, tuple[float, ...]]:
    """Split the cash flow into the all-staking base and per-market carry terms.

    Each carry term is ``debt * (s - borrow_rate)``: what looping adds on top
    of staking the whole budget.
    """
    _check_alloc_feasible(alloc, p)
    base = alloc.total * p.staking_rate
    carries = []
    for x, (l_max, _, _, _, _, _, curve, supplied, borrowed) in zip(alloc.exposures, p.forms):
        debt = x * (l_max - 1.0)
        rate = _rate(curve, _check_pool_amounts(supplied, borrowed, debt) / supplied)
        carries.append(debt * (p.staking_rate - rate))
    return base, tuple(carries)


def _check_alloc_feasible(alloc: Allocation, p: ProblemInstance) -> None:
    if alloc.market_ids != p.market_ids:
        raise ConstraintError(
            f"allocation markets {alloc.market_ids} do not match instance "
            f"markets {p.market_ids}"
        )
    # A negative exposure is a negative debt, which no rate curve can price.
    # Each test is written so that NaN fails it.
    slack = _REL_BUDGET_TOL * p.budget
    if not (alloc.unleveraged >= -slack and all(x >= 0.0 for x in alloc.exposures)):
        raise ConstraintError("allocation has a negative or NaN component")
    if not abs(alloc.total - p.budget) <= slack:
        raise ConstraintError(
            f"allocation total {alloc.total} does not match budget {p.budget}"
        )
    for x, mid, (l_max, *_, supplied, borrowed) in zip(alloc.exposures, p.market_ids, p.forms):
        if not x * (l_max - 1.0) <= supplied - borrowed + slack:
            raise ConstraintError(f"exposure {x} exceeds liquidity of market {mid}")


def _shadow_rate(budget: float, pieces: list, s: float) -> tuple[float, list, list[float]]:
    """Where the summed response crosses ``budget``, by a descending sweep
    over each market's ``pieces`` at staking rate ``s``.

    Returns ``lambda_star``, the markets jumping there with their jump sizes
    (in market order; empty unless the crossing is a jump), and each
    market's slope on the piece just below ``lambda_star``.
    """
    events = sorted(
        (
            (level, i, jump, slope)
            for i, market_pieces in enumerate(pieces)
            for level, jump, slope in _events(market_pieces)
            if level > s
        ),
        key=lambda e: e[0],
        reverse=True,
    )
    slopes = [0.0] * len(pieces)
    # Summed response just below hi, and its slope on the piece below hi.
    total = slope = 0.0
    hi = events[0][0]
    for level, group in itertools.groupby(events, key=lambda e: e[0]):
        at_level = total + slope * (hi - level)
        if at_level >= budget:
            lo = level
            break
        total = at_level
        jumpers = []
        for _, i, jump, market_slope in group:
            total += jump
            slope += market_slope - slopes[i]
            slopes[i] = market_slope
            if jump > 0.0:
                jumpers.append((i, jump))
        hi = level
        if total >= budget:
            return level, jumpers, slopes
    else:
        lo = s  # the saturated responses overshoot the budget
    lam = hi - (budget - total) / slope if slope > 0.0 else hi
    # Strictly below hi, every response is on the crossing piece.
    return min(max(lam, lo), math.nextafter(hi, lo)), [], slopes


def solve(p: ProblemInstance) -> Allocation:
    """Optimal allocation of the budget across markets plus pure staking.

    Tries the saturated regime first; otherwise sweeps the response
    breakpoints for the shadow rate ``lambda_star > s`` at which the summed
    responses equal the budget.
    """
    return _priced(p, *_solve_core(p, p.staking_rate))


def _priced(
    p: ProblemInstance, exposures: list[float], unleveraged: float, lam: float, regime: str
) -> Allocation:
    """The allocation of a solve's columns, its yield priced at ``p.staking_rate``."""
    return Allocation(
        market_ids=p.market_ids,
        exposures=tuple(exposures),
        unleveraged=unleveraged,
        lambda_star=lam,
        expected_yield=_position_yield(exposures, unleveraged, p.staking_rate, p.forms),
        regime=regime,
    )


def _solve_core(p: ProblemInstance, s: float) -> tuple[Sequence[float], float, float, str]:
    """:func:`_solve_at` of the instance's budget on its table at staking rate ``s``."""
    return _solve_at(_table(p.forms, s), p.budget, s)


def _table(forms: Sequence[tuple], s: float) -> tuple[list, tuple[float, ...], float]:
    """What no budget changes of a solve at staking rate ``s``: each market's
    pieces, built once, its saturated response (at ``s``) and their sum.

    Every solve on the table reads responses at shadow rates from ``s`` up,
    so a market whose first level is at or below ``s`` (its borrow cost
    already at or above the staking rate) gets no pieces: it is zero there, as a
    drained pool is."""
    pieces = [_pieces(form, s, s) for form in forms]
    saturated = tuple([_response(market_pieces, s) for market_pieces in pieces])
    return pieces, saturated, reduce(add, saturated, 0.0)


def _solve_at(table: tuple, budget: float, s: float) -> tuple[Sequence[float], float, float, str]:
    """``(exposures, unleveraged, lambda_star, regime)`` of the optimum of
    ``budget`` from the :func:`_table` at staking rate ``s``, unpriced. A
    saturated solve's exposures are the table's own tuple."""
    pieces, saturated, used = table
    if used <= budget:
        return saturated, budget - used, s, SATURATED
    lam_star, jumpers, slopes = _shadow_rate(budget, pieces, s)
    exposures = _responses(pieces, lam_star)
    left = budget - math.fsum(exposures)
    # lambda_star lies inside the marginal-value interval of a market
    # anywhere on its jump, so the jumping markets fill in market order.
    for i, jump in jumpers:
        take = min(jump, left)
        if take <= 0.0:
            break
        exposures[i] += take
        left -= take
    # Rounding leaves a remainder in the budget's last digits. The market
    # with the steepest response below lambda_star takes it, since that moves
    # its marginal value least; a market on a plateau or at its cap has slope
    # zero and takes nothing, and no exposure turns negative.
    open_markets = [
        i for i, slope in enumerate(slopes) if slope > 0.0 and exposures[i] + left >= 0.0
    ]
    if open_markets:
        exposures[max(open_markets, key=slopes.__getitem__)] += left
    # More than rounding left over: no float shadow rate spends the budget.
    if abs(budget - math.fsum(exposures)) > _REL_BUDGET_TOL * budget:
        lam_star, exposures = _between_floats(budget, pieces, s)
    return exposures, 0.0, lam_star, UNSATURATED


def _between_floats(budget: float, pieces: list, s: float) -> tuple[float, list[float]]:
    """``(lambda_star, exposures)`` when no float shadow rate spends ``budget``.

    A response's slope is ``1/(2c(l_max-1)^2)``; with a leverage cap a hair
    above 1 it moves by more than the budget per ulp of the shadow rate, and
    the summed response jumps past the budget between two adjacent floats.
    Bisection finds such floats ``lo < hi``, the summed response at least the
    budget at ``lo`` and below it at ``hi``. The exposures mix the two
    responses with the weights that spend the budget, so every market's
    marginal value lies between ``lo`` and ``hi``.
    """
    lo = s
    hi = max(market_pieces[0][0] for market_pieces in pieces if market_pieces)
    while (mid := lo + (hi - lo) / 2) not in (lo, hi):
        if math.fsum(_responses(pieces, mid)) >= budget:
            lo = mid
        else:
            hi = mid
    at_lo, at_hi = _responses(pieces, lo), _responses(pieces, hi)
    # Each weight comes from its own difference, so neither loses digits to 1 - w.
    over, under = math.fsum(at_lo) - budget, budget - math.fsum(at_hi)
    w_lo, w_hi = under / (over + under), over / (over + under)
    return lo, [w_lo * a + w_hi * b for a, b in zip(at_lo, at_hi)]


def _linear_coefficients(market_id: str, form: tuple, s: float) -> tuple[float, float]:
    """``(alpha, beta)`` of a linear market's response ``alpha*(beta - lam)``."""
    l_max, _, k, denom, _, _, curve, _, _ = form
    if curve[3] is not curve[4]:  # a kink at target
        raise UnsupportedModelError(f"market {market_id} does not use the linear rate model")
    if denom == 0.0:
        raise UnsupportedModelError(
            f"market {market_id} has a flat rate curve; the closed form "
            "needs a positive slope"
        )
    return 1.0 / denom, l_max * s - k


def waterfilling_detail(p: ProblemInstance) -> WaterfillingDetail:
    """Closed-form unsaturated solve for all-linear instances.

    Markets are sorted by marginal value at zero exposure; the active set is
    the smallest prefix whose fill thresholds bracket the budget, and the
    shadow rate follows in closed form. Raises ``UnsupportedModelError`` when
    a market's liquidity cap would bind, since the closed form ignores caps.
    """
    ids = p.market_ids
    coeffs = [_linear_coefficients(mid, form, p.staking_rate) for mid, form in zip(ids, p.forms)]
    order = sorted(range(len(ids)), key=lambda i: (-coeffs[i][1], ids[i]))
    alphas = [coeffs[i][0] for i in order]
    betas = [coeffs[i][1] for i in order]
    n = len(order)

    thresholds = []
    for k in range(1, n + 1):
        beta_k = betas[k - 1]
        thresholds.append(reduce(add, (a * (b - beta_k) for a, b in zip(alphas[:k], betas[:k])), 0.0))

    active = n
    for k in range(1, n + 1):
        upper = thresholds[k] if k < n else math.inf
        if thresholds[k - 1] < p.budget <= upper:
            active = k
            break

    num = reduce(add, map(mul, alphas[:active], betas[:active]), 0.0) - p.budget
    lam_star = num / reduce(add, alphas[:active], 0.0)

    exposures = [0.0] * n
    for rank in range(active):
        exposures[order[rank]] = alphas[rank] * max(betas[rank] - lam_star, 0.0)
    for x, mid, form in zip(exposures, ids, p.forms):
        if x > form[1]:
            raise UnsupportedModelError(
                f"market {mid} caps its exposure at {form[1]} below the "
                f"closed form's {x}; the closed form needs no binding liquidity cap"
            )
    return WaterfillingDetail(
        allocation=_priced(p, exposures, 0.0, lam_star, UNSATURATED),
        active_count=active,
        order=tuple(ids[i] for i in order),
        fill_thresholds=tuple(thresholds),
    )


def verify_kkt(alloc: Allocation, p: ProblemInstance, tol: float) -> KktReport:
    """Check the stationarity, complementarity, and budget conditions.

    Active markets must have ``lambda_star`` inside the marginal-value
    interval induced by the one-sided marginal costs (one-sided only when the
    exposure sits at the liquidity cap); inactive markets must not be worth
    entering; the unleveraged remainder, when positive, pins the shadow rate
    to the staking rate.
    """
    _check_alloc_feasible(alloc, p)
    lam = alloc.lambda_star
    s = p.staking_rate
    budget_slack = tol * p.budget

    stationarity: list[float] = []
    complementary: list[bool] = []
    for x, (l_max, _, _, _, _, _, curve, supplied, borrowed) in zip(alloc.exposures, p.forms):
        m = l_max - 1.0
        available = supplied - borrowed
        # Activity and cap proximity are judged on the market's own scale; a
        # budget-relative threshold would swallow small markets whole when
        # the budget dwarfs them.
        active = x > _REL_BUDGET_TOL * (available / m)
        debt = x * m if active else 0.0
        lo_g, hi_g = _subgradient(curve, supplied, borrowed, debt)
        lo_value = l_max * s - m * hi_g
        hi_value = l_max * s - m * lo_g
        if not active:  # entering must not be worth it
            residual = max(0.0, lo_value - lam)
        elif debt >= available * (1.0 - _REL_BUDGET_TOL):  # at the liquidity cap
            residual = max(0.0, lam - hi_value)
        else:
            residual = max(lo_value - lam, lam - hi_value, 0.0)
        stationarity.append(residual)
        complementary.append(active or residual <= tol)

    if alloc.unleveraged > _REL_BUDGET_TOL * p.budget:
        multiplier_residual = abs(lam - s)
    else:
        multiplier_residual = max(0.0, s - lam)
    budget_residual = abs(alloc.total - p.budget)

    passed = (
        all(r <= tol for r in stationarity)
        and all(complementary)
        and multiplier_residual <= tol
        and budget_residual <= budget_slack
    )
    return KktReport(
        market_ids=p.market_ids,
        stationarity=tuple(stationarity),
        complementary_ok=tuple(complementary),
        budget_residual=budget_residual,
        multiplier_residual=multiplier_residual,
        tol=tol,
        passed=passed,
    )
