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
from typing import Sequence

from .allocator import Allocation, ProblemInstance, _position_yield, _solve
from .errors import ConstraintError, DomainError

INCREASE = "increase"
DECREASE = "decrease"
HOLD = "hold"

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
    target: Allocation
    cost: float
    direction: str
    net_gain_rate: float


def total_collateral(alloc: Allocation, l_max: Sequence[float]) -> float:
    """Unleveraged holding plus per-market collateral at the leverage caps."""
    if len(alloc.exposures) != len(l_max):
        raise DomainError("l_max must have one entry per market")
    return alloc.unleveraged + sum(x * l for x, l in zip(alloc.exposures, l_max))


def rebalance_cost(
    new: Allocation, old: Allocation, fees: FeeModel, l_max: Sequence[float]
) -> float:
    """Fee for moving between two allocations over the same markets."""
    if new.market_ids != old.market_ids:
        raise DomainError(
            f"allocations cover different markets: {new.market_ids} vs {old.market_ids}"
        )
    delta = total_collateral(new, l_max) - total_collateral(old, l_max)
    gamma = fees.gamma_plus if delta > 0.0 else fees.gamma_minus
    return gamma * abs(delta)


def _allocations_equal(a: Allocation, b: Allocation, scale: float) -> bool:
    tol = _EQUAL_TOL * abs(scale)
    if abs(a.unleveraged - b.unleveraged) > tol:
        return False
    return all(abs(x - y) <= tol for x, y in zip(a.exposures, b.exposures))


def solve_with_fees(
    p: ProblemInstance, current: Allocation, fees: FeeModel
) -> RebalancePlan:
    """Best reachable allocation net of the cost of getting there.

    Solves once with the fee-penalized staking rate for growing collateral
    and once for shrinking it, keeping whichever solution is consistent with
    its own direction. When neither is (or the consistent one is the current
    position), holding is optimal.
    """
    if current.market_ids != p.market_ids:
        raise ConstraintError(
            f"current position markets {current.market_ids} do not match "
            f"instance markets {p.market_ids}"
        )
    # Collateral within rounding of the current total counts as equal, so an
    # ulp in the solver's exposures cannot flip the direction.
    tie = total_collateral(current, p.l_max) + _EQUAL_TOL * p.budget * max(p.l_max)

    candidate: Allocation | None = None
    direction = HOLD
    up = _solve(p, p.staking_rate - fees.gamma_plus / fees.horizon_years)
    if total_collateral(up, p.l_max) > tie:
        candidate = up
        direction = INCREASE
    else:
        down = _solve(p, p.staking_rate + fees.gamma_minus / fees.horizon_years)
        if total_collateral(down, p.l_max) <= tie:
            candidate = down
            direction = DECREASE

    if candidate is None or _allocations_equal(candidate, current, p.budget):
        return RebalancePlan(target=current, cost=0.0, direction=HOLD, net_gain_rate=0.0)

    cost = rebalance_cost(candidate, current, fees, p.l_max)
    # Yields compared at the true staking rate, not the fee-adjusted one:
    # _solve prices the candidate at p.staking_rate.
    current_yield = _position_yield(
        current.exposures, current.unleveraged, p, clamp_utilization=True
    )
    net_gain = candidate.expected_yield - current_yield - cost / fees.horizon_years
    return RebalancePlan(
        target=candidate,
        cost=cost,
        direction=direction,
        net_gain_rate=net_gain,
    )


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
