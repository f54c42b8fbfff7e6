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
from operator import mul
from typing import Sequence

from .allocator import Allocation, ProblemInstance, _position_yield, _priced, _solve_core
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
    fee-shifted solve moves collateral the way its shift assumed,
    :data:`AT_TARGET` when the consistent one is the current position, and
    :data:`GATED` when a replay's improvement gate turned a move down (that
    plan keeps the move's target and cost). A move's is empty.
    """

    target: Allocation
    cost: float
    direction: str
    net_gain_rate: float
    reason: str = ""


def _collateral(exposures: Sequence[float], unleveraged: float, l_max: Sequence[float]) -> float:
    return unleveraged + sum(map(mul, exposures, l_max))


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


def _is_position(
    exposures: Sequence[float], unleveraged: float, position: Allocation, scale: float
) -> bool:
    tol = _EQUAL_TOL * abs(scale)
    if abs(unleveraged - position.unleveraged) > tol:
        return False
    return all(abs(x - y) <= tol for x, y in zip(exposures, position.exposures))


def solve_with_fees(
    p: ProblemInstance, current: Allocation, fees: FeeModel
) -> RebalancePlan:
    """Best reachable allocation net of the cost of getting there.

    Solves once with the fee-penalized staking rate for growing collateral
    and once for shrinking it, keeping whichever solution is consistent with
    its own direction. When neither is (or the consistent one is the current
    position), holding is optimal. Only the kept solution is priced.
    """
    if current.market_ids != p.market_ids:
        raise ConstraintError(
            f"current position markets {current.market_ids} do not match "
            f"instance markets {p.market_ids}"
        )
    held = total_collateral(current, p.l_max)
    # Collateral within rounding of the current total counts as equal, so an
    # ulp in the solver's exposures cannot flip the direction.
    tie = held + _EQUAL_TOL * p.budget * max(p.l_max)
    s_up = p.staking_rate - fees.gamma_plus / fees.horizon_years
    s_down = p.staking_rate + fees.gamma_minus / fees.horizon_years

    solved, direction = _solve_core(p, s_up), INCREASE
    moved = _collateral(solved[0], solved[1], p.l_max)
    if not moved > tie:
        # Without fees both shifted rates are one float, and so is the solve.
        if s_down != s_up:
            solved = _solve_core(p, s_down)
            moved = _collateral(solved[0], solved[1], p.l_max)
        if not moved <= tie:
            return RebalancePlan(current, 0.0, HOLD, 0.0, NO_BRANCH)
        direction = DECREASE
    exposures, unleveraged, lam, regime = solved
    if _is_position(exposures, unleveraged, current, p.budget):
        return RebalancePlan(current, 0.0, HOLD, 0.0, AT_TARGET)

    target = _priced(p, exposures, unleveraged, lam, regime)
    cost = _fee(moved - held, fees)
    # Yields compared at the true staking rate, not the fee-adjusted one:
    # _priced prices the target at p.staking_rate.
    current_yield = _position_yield(
        current.exposures, current.unleveraged, p, clamp_utilization=True
    )
    net_gain = target.expected_yield - current_yield - cost / fees.horizon_years
    return RebalancePlan(target=target, cost=cost, direction=direction, net_gain_rate=net_gain)


def should_rebalance(
    current_yield: float, candidate_yield: float, budget: float, threshold: float
) -> bool:
    """True when the yield improvement per unit budget strictly exceeds the
    threshold rate."""
    if budget <= 0.0:
        raise DomainError(f"budget must be positive, got {budget}")
    if threshold < 0.0:
        raise DomainError(f"threshold must be non-negative, got {threshold}")
    return (candidate_yield - current_yield) / budget > threshold
