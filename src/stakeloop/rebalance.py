"""Fee-aware rebalancing.

Transaction costs are proportional to the change in total collateral, with
separate rates for growing and shrinking it; shuffling collateral across
markets at constant total is free. Amortizing the fee over the expected
holding horizon turns it into a staking-rate adjustment, so the fee-aware
optimum is found by re-solving the allocation problem at the adjusted rate
and keeping the result only when it moves collateral in the direction the
adjustment assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Sequence

from .allocator import Allocation, ProblemInstance, _position_yield, _solve_at, _table
from .errors import ConstraintError, DomainError

INCREASE = "increase"
DECREASE = "decrease"
HOLD = "hold"

# Why a plan holds.
NO_BRANCH = "no_branch"
AT_TARGET = "at_target"
GATED = "gated"

_EQUAL_TOL = 1e-12


@dataclass(frozen=True)
class FeeModel:
    """Proportional fees on total-collateral changes over a holding horizon.

    ``gamma_plus`` applies when total collateral increases, ``gamma_minus``
    when it decreases or stays equal. ``horizon_years`` is the expected
    holding time the fee is amortized over.
    """

    gamma_plus: float
    gamma_minus: float
    horizon_years: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma_plus < 1.0 or not 0.0 <= self.gamma_minus < 1.0:
            raise DomainError("fee rates must be in [0, 1)")
        if not 0.0 < self.horizon_years < math.inf:
            raise DomainError(
                f"horizon_years must be positive and finite, got {self.horizon_years}"
            )
        # The fee per year shifts the staking rate, which must stay finite.
        if not math.isfinite(max(self.gamma_plus, self.gamma_minus) / self.horizon_years):
            raise DomainError(f"fees over horizon_years={self.horizon_years} are not finite per year")


@dataclass(frozen=True)
class RebalancePlan:
    """A move to ``target``, or a hold of the current position.

    ``reason`` says why a plan holds: :data:`NO_BRANCH` when neither
    fee-shifted solve moves collateral the way its shift assumed, and
    :data:`AT_TARGET` when the consistent one is the current position. A
    move's is empty. :data:`GATED` is the verdict of a replay's gate on a
    move, taken on plain values (``backtest._gate``), not a plan's reason.
    """

    target: Allocation
    cost: float
    direction: str
    net_gain_rate: float
    reason: str = ""


def _collateral(exposures: Sequence[float], unleveraged: float, l_max: Sequence[float]) -> float:
    return unleveraged + reduce(add, map(mul, exposures, l_max), 0.0)


def total_collateral(alloc: Allocation, l_max: Sequence[float]) -> float:
    """Unleveraged holding plus per-market collateral at the leverage caps."""
    if len(alloc.exposures) != len(l_max):
        raise DomainError("l_max must have one entry per market")
    return _collateral(alloc.exposures, alloc.unleveraged, l_max)


def _fee(delta: float, fees: FeeModel) -> float:
    """Fee on a change ``delta`` of total collateral."""
    gamma = fees.gamma_plus if delta > 0.0 else fees.gamma_minus
    return gamma * abs(delta)


def rebalance_cost(
    new: Allocation, old: Allocation, fees: FeeModel, l_max: Sequence[float]
) -> float:
    """Fee for moving between two allocations over the same markets."""
    if new.market_ids != old.market_ids:
        raise DomainError(
            f"allocations cover different markets: {new.market_ids} vs {old.market_ids}"
        )
    return _fee(total_collateral(new, l_max) - total_collateral(old, l_max), fees)


def _shifted_rates(s: float, fees: FeeModel) -> tuple[float, float]:
    """The staking rates an increase and a decrease of collateral are solved
    at: ``s`` less the fee per year of growing it, and plus that of shrinking it."""
    return s - fees.gamma_plus / fees.horizon_years, s + fees.gamma_minus / fees.horizon_years


def solve_with_fees(
    p: ProblemInstance, current: Allocation, fees: FeeModel
) -> RebalancePlan:
    """Best reachable allocation net of the cost of getting there: the
    :func:`_plan` of ``current`` on the instance's forms, its target an
    :class:`Allocation` priced at the instance's rate (a hold's, ``current``)."""
    if current.market_ids != p.market_ids:
        raise ConstraintError(
            f"current position markets {current.market_ids} do not match "
            f"instance markets {p.market_ids}"
        )
    direction, reason, *move = _plan(
        p.forms, {}, p.staking_rate, p.budget, current.exposures, current.unleveraged, fees
    )
    if direction == HOLD:
        return RebalancePlan(current, 0.0, HOLD, 0.0, reason)
    cost, net_gain, exposures, unleveraged, lam, regime, target_yield = move
    target = Allocation(p.market_ids, tuple(exposures), unleveraged, lam, target_yield, regime)
    return RebalancePlan(target=target, cost=cost, direction=direction, net_gain_rate=net_gain)


def _plan(
    forms: Sequence[tuple], tables: dict[float, tuple], s: float, budget: float,
    exposures: Sequence[float], unleveraged: float, fees: FeeModel, priced: bool = True,
) -> tuple:
    """The fee-aware plan for a holding of ``budget`` as ``exposures`` and
    ``unleveraged`` on markets compiled as ``forms``, at staking rate ``s``:
    ``(HOLD, reason)``, or a move ``(direction, "", cost, net_gain_rate,
    exposures, unleveraged, lambda_star, regime, expected_yield)``.

    Solves once with the fee-penalized staking rate for growing collateral
    and once for shrinking it, keeping whichever solution is consistent with
    its own direction. When neither is (or the consistent one is the current
    position), holding is optimal. Each solve reads the ``allocator._table``
    at its rate from ``tables``, adding it when missing, so the plans of
    other budgets on ``forms`` share it. Only the kept solution is priced,
    if ``priced`` (else its yields are NaN).
    """
    l_max = [form[0] for form in forms]
    held = _collateral(exposures, unleveraged, l_max)
    # Collateral within rounding of the current total counts as equal, so an
    # ulp in the solver's exposures cannot flip the direction.
    tie = held + _EQUAL_TOL * budget * max(l_max)
    s_up, s_down = _shifted_rates(s, fees)
    (solved, moved), direction = _solved_at(forms, tables, s_up, budget, l_max), INCREASE
    if not moved > tie:
        # Without fees both shifted rates are one float, and so is the solve.
        if s_down != s_up:
            solved, moved = _solved_at(forms, tables, s_down, budget, l_max)
        if not moved <= tie:
            return HOLD, NO_BRANCH
        direction = DECREASE
    x, u, lam, regime = solved
    tol = _EQUAL_TOL * abs(budget)
    if abs(u - unleveraged) <= tol and all(abs(a - b) <= tol for a, b in zip(x, exposures)):
        return HOLD, AT_TARGET

    cost = _fee(moved - held, fees)
    if not priced:
        return direction, "", cost, math.nan, x, u, lam, regime, math.nan
    # Yields compared at the true staking rate, not the fee-adjusted one.
    target_yield = _position_yield(x, u, s, forms)
    current_yield = _position_yield(exposures, unleveraged, s, forms, clamp_utilization=True)
    net_gain = target_yield - current_yield - cost / fees.horizon_years
    return direction, "", cost, net_gain, x, u, lam, regime, target_yield


def _solved_at(
    forms: Sequence[tuple], tables: dict[float, tuple], rate: float, budget: float, l_max: list[float]
) -> tuple[tuple, float]:
    """The solve of ``budget`` on the table at ``rate`` in ``tables`` (built
    and added when missing), and the collateral it holds."""
    table = tables.get(rate)
    if table is None:
        table = tables[rate] = _table(forms, rate)
    solved = _solve_at(table, budget, rate)
    return solved, _collateral(solved[0], solved[1], l_max)


def should_rebalance(
    current_yield: float, candidate_yield: float, budget: float, threshold: float
) -> bool:
    """True when the yield improvement per unit budget strictly exceeds the
    threshold rate."""
    # Written so that NaN fails each test.
    if not budget > 0.0:
        raise DomainError(f"budget must be positive, got {budget}")
    if not threshold >= 0.0:
        raise DomainError(f"threshold must be non-negative, got {threshold}")
    return (candidate_yield - current_yield) / budget > threshold
