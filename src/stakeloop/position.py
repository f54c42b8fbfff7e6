"""Position algebra for leveraged staking.

A lending position can be written three equivalent ways: as collateral and
debt ``(C, B)``, as exposure and leverage ``(x, l)`` with ``x = C - B`` and
``l = C / (C - B)``, or as a pair of sub-positions: one unleveraged and one
at a fixed leverage cap. The conversions here are exact bijections on their
stated domains and are what turns the joint exposure-and-leverage allocation
problem into a convex one over exposures alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConstraintError, DomainError, InsolventPositionError


@dataclass(frozen=True)
class CollateralDebt:
    """Deposited collateral value and borrowed value, same numeraire."""

    collateral: float
    debt: float

    def __post_init__(self) -> None:
        if not 0.0 < self.collateral < math.inf:
            raise DomainError(f"collateral must be positive and finite, got {self.collateral}")
        if not 0.0 <= self.debt < math.inf:
            raise DomainError(f"debt must be non-negative and finite, got {self.debt}")

    def ltv_ok(self, max_ltv: float, margin: float = 0.0) -> bool:
        """Strict LTV check with an optional safety margin below the cap."""
        if not 0.0 < max_ltv < 1.0:
            raise DomainError(f"max_ltv must be in (0, 1), got {max_ltv}")
        if not margin >= 0.0:  # NaN fails too
            raise DomainError(f"margin must be non-negative, got {margin}")
        return self.debt / self.collateral < max_ltv - margin


@dataclass(frozen=True)
class ExposureLeverage:
    """Net exposure and leverage multiple; leverage 1 is pure staking."""

    exposure: float
    leverage: float

    def __post_init__(self) -> None:
        if not 0.0 < self.exposure < math.inf:
            raise DomainError(f"exposure must be positive and finite, got {self.exposure}")
        if not 1.0 <= self.leverage < math.inf:
            raise DomainError(f"leverage must be at least 1 and finite, got {self.leverage}")


@dataclass(frozen=True)
class SplitPosition:
    """Decomposition into an unleveraged part and a part at leverage ``l_max``."""

    unleveraged: float
    max_leveraged: float
    l_max: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.unleveraged < math.inf and 0.0 <= self.max_leveraged < math.inf):
            raise DomainError("sub-position exposures must be non-negative and finite")
        if not 1.0 < self.l_max < math.inf:
            raise DomainError(f"l_max must exceed 1 and be finite, got {self.l_max}")


def to_exposure_leverage(cd: CollateralDebt) -> ExposureLeverage:
    """(C, B) -> (x, l) with x = C - B and l = C / (C - B)."""
    if cd.collateral <= cd.debt:
        raise InsolventPositionError(
            f"debt {cd.debt} must be below collateral {cd.collateral}"
        )
    exposure = cd.collateral - cd.debt
    return ExposureLeverage(exposure=exposure, leverage=cd.collateral / exposure)


def to_collateral_debt(el: ExposureLeverage) -> CollateralDebt:
    """(x, l) -> (C, B) with C = x*l and B = x*(l - 1)."""
    return CollateralDebt(
        collateral=el.exposure * el.leverage,
        debt=el.exposure * (el.leverage - 1.0),
    )


def split(el: ExposureLeverage, l_max: float) -> SplitPosition:
    """Split (x, l) into exposures at leverage 1 and at leverage ``l_max``."""
    if not 1.0 < l_max < math.inf:  # NaN fails too
        raise DomainError(f"l_max must exceed 1 and be finite, got {l_max}")
    if el.leverage > l_max:
        raise ConstraintError(
            f"leverage {el.leverage} exceeds the cap l_max={l_max}"
        )
    denom = l_max - 1.0
    return SplitPosition(
        unleveraged=el.exposure * (l_max - el.leverage) / denom,
        max_leveraged=el.exposure * (el.leverage - 1.0) / denom,
        l_max=l_max,
    )


def unsplit(sp: SplitPosition) -> ExposureLeverage:
    """Inverse of :func:`split`; exact on its domain."""
    total = sp.unleveraged + sp.max_leveraged
    if total <= 0.0:
        raise DomainError("cannot recover leverage from an empty position")
    leverage = (sp.unleveraged + sp.l_max * sp.max_leveraged) / total
    return ExposureLeverage(exposure=total, leverage=leverage)


def max_leverage_bound(max_ltv: float) -> float:
    """Largest leverage the LTV cap admits: 1 / (1 - max_ltv)."""
    if not 0.0 < max_ltv < 1.0:
        raise DomainError(f"max_ltv must be in (0, 1), got {max_ltv}")
    return 1.0 / (1.0 - max_ltv)
