"""Interest rate models and the closed-form per-market borrow response.

Three deterministic models map pool utilization (borrowed/supplied) to the
instantaneous borrow rate:

* linear: one slope, rate reaches ``r_base + r_slope1`` at ``u_target``;
* kinked: the slope jumps at ``u_target`` so the rate reaches
  ``r_base + r_slope1 + r_slope2`` at full utilization;
* adaptive: a controller state ``rate_at_target`` multiplied by a
  piecewise-linear curve of utilization (``1/curve_steepness`` at zero
  utilization, 1 at target, ``curve_steepness`` at full), with the
  controller state drifting exponentially while the pool sits off target.

All rates are annual fractions. The module also provides the maximizer of
the per-market leveraged carry given a shadow rate ``lam`` on budget, which
is the building block of the multi-market allocator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

from .errors import (
    ConstraintError,
    DomainError,
    LiquidityExceededError,
    UnsupportedModelError,
)
from .position import max_leverage_bound
from .units import SECONDS_PER_YEAR

# Every check below is written so that NaN fails it, as NaN fails every
# comparison: a field must pass a test, not merely dodge one.

# Each rate model states its curve once, when built: ``(r0, scale, u_target,
# below, above)``. A branch ``(a, u0, w, b)`` gives the rate
# ``scale*(a + (u - u0)/w*b)`` at utilization ``u``; ``below`` applies under
# ``u_target``, else ``above``, and a one-slope curve has both be the same
# object. ``r0`` is the rate at zero utilization. Each curve gives its
# model's own formula float for float: IEEE ``+`` and ``*`` commute,
# ``u - 0.0 == u`` and ``1.0*x == x``.


def _adaptive_curve(rate_at_target: float, steepness: float, u_target: float) -> tuple:
    below = (1.0, u_target, u_target, 1.0 - 1.0 / steepness)
    above = (1.0, u_target, 1.0 - u_target, steepness - 1.0)
    return rate_at_target / steepness, rate_at_target, u_target, below, above


@dataclass(frozen=True)
class LinearIrmParams:
    """Single-slope rate curve. At utilization ``u_target`` the borrow rate
    equals ``r_base + r_slope1``; it keeps the same slope beyond target."""

    r_base: float
    r_slope1: float
    u_target: float

    def __post_init__(self) -> None:
        if not 0.0 < self.u_target < 1.0:
            raise DomainError(f"u_target must be in (0, 1), got {self.u_target}")
        if not (0.0 <= self.r_base < math.inf and 0.0 <= self.r_slope1 < math.inf):
            raise DomainError("r_base and r_slope1 must be non-negative and finite")
        branch = (self.r_base, 0.0, self.u_target, self.r_slope1)
        object.__setattr__(self, "_curve", (self.r_base, 1.0, self.u_target, branch, branch))


@dataclass(frozen=True)
class KinkedIrmParams:
    """Two-slope rate curve with the slope jump at ``u_target``.

    Normalization: the rate is ``r_base + r_slope1`` at target utilization
    and ``r_base + r_slope1 + r_slope2`` at full utilization. Construction
    requires ``r_slope1 < u_target / (1 - u_target) * r_slope2`` so that the
    marginal cost of borrowing increases across the kink.
    """

    r_base: float
    r_slope1: float
    r_slope2: float
    u_target: float

    def __post_init__(self) -> None:
        if not 0.0 < self.u_target < 1.0:
            raise DomainError(f"u_target must be in (0, 1), got {self.u_target}")
        if not all(0.0 <= r < math.inf for r in (self.r_base, self.r_slope1, self.r_slope2)):
            raise DomainError("rate parameters must be non-negative and finite")
        bound = self.u_target / (1.0 - self.u_target) * self.r_slope2
        if not self.r_slope1 < bound:
            raise DomainError(
                f"r_slope1={self.r_slope1} must be below "
                f"u_target/(1-u_target)*r_slope2={bound}"
            )
        below = (self.r_base, 0.0, self.u_target, self.r_slope1)
        above = (self.r_base + self.r_slope1, self.u_target, 1.0 - self.u_target, self.r_slope2)
        object.__setattr__(self, "_curve", (self.r_base, 1.0, self.u_target, below, above))


@dataclass(frozen=True)
class AdaptiveIrmParams:
    """Controller-driven curve around a drifting ``rate_at_target``.

    ``adjustment_speed`` is in 1/year; ``t_last`` is the UTC timestamp of the
    last pool interaction and ``u_last`` the utilization recorded then.
    """

    rate_at_target: float
    curve_steepness: float
    u_target: float
    adjustment_speed: float
    t_last: float
    u_last: float

    def __post_init__(self) -> None:
        if not 0.0 < self.rate_at_target < math.inf:
            raise DomainError(
                f"rate_at_target must be positive and finite, got {self.rate_at_target}"
            )
        if not 1.0 < self.curve_steepness < math.inf:
            raise DomainError(
                f"curve_steepness must exceed 1 and be finite, got {self.curve_steepness}"
            )
        if not 0.0 < self.u_target < 1.0:
            raise DomainError(f"u_target must be in (0, 1), got {self.u_target}")
        if (1.0 - self.u_target) / self.u_target >= self.curve_steepness:
            raise DomainError(
                "curve_steepness must exceed (1 - u_target) / u_target for the "
                "marginal borrow cost to increase across the target"
            )
        if not 0.0 < self.adjustment_speed < math.inf:
            raise DomainError(
                f"adjustment_speed must be positive and finite, got {self.adjustment_speed}"
            )
        if not math.isfinite(self.t_last):
            raise DomainError(f"t_last must be finite, got {self.t_last}")
        if not 0.0 <= self.u_last <= 1.0:
            raise DomainError(f"u_last must be in [0, 1], got {self.u_last}")
        curve = _adaptive_curve(self.rate_at_target, self.curve_steepness, self.u_target)
        object.__setattr__(self, "_curve", curve)


IrmParams = Union[LinearIrmParams, KinkedIrmParams, AdaptiveIrmParams]


@dataclass(frozen=True)
class MarketState:
    """One lending market as seen by a borrower: liquidity, LTV cap, rate model."""

    market_id: str
    supplied: float
    borrowed: float
    max_ltv: float
    irm: IrmParams

    def __post_init__(self) -> None:
        if not 0.0 < self.supplied < math.inf:
            raise DomainError(f"supplied must be positive and finite, got {self.supplied}")
        if not 0.0 <= self.borrowed <= self.supplied:
            raise DomainError(f"borrowed {self.borrowed} outside [0, supplied {self.supplied}]")
        if not 0.0 < self.max_ltv < 1.0:
            raise DomainError(f"max_ltv must be in (0, 1), got {self.max_ltv}")
        _curve_of(self.irm)

    @property
    def available_liquidity(self) -> float:
        return self.supplied - self.borrowed


def _curve_of(irm: IrmParams) -> tuple:
    """The curve of a rate model; any other object is refused."""
    try:
        return irm._curve
    except AttributeError:
        raise UnsupportedModelError(f"unknown rate model {type(irm).__name__}") from None


def _rate(curve: tuple, u: float) -> float:
    _, scale, u_target, below, above = curve
    a, u0, w, b = below if u < u_target else above
    return scale * (a + (u - u0) / w * b)


def _kinked_form(curve: tuple) -> tuple[float, float, float, float]:
    """``(r_base, r_slope1, r_slope2, u_target)`` of the kinked curve equal to
    a two-branch ``curve`` (at a frozen controller state when the model is
    adaptive). ``r_base`` holds for a one-branch curve too."""
    r0, scale, u_target, below, above = curve
    return r0, scale * below[3], scale * above[3], u_target


def kinked_equivalent(irm: AdaptiveIrmParams) -> KinkedIrmParams:
    """Kinked parameterization producing the same rate curve as ``irm`` at a
    frozen controller state."""
    return KinkedIrmParams(*_kinked_form(_curve_of(irm)))


def _check_pool_amounts(supplied: float, borrowed: float, delta_borrow: float) -> float:
    if not 0.0 < supplied < math.inf:
        raise DomainError(f"supplied must be positive and finite, got {supplied}")
    if not 0.0 <= borrowed < math.inf:
        raise DomainError(f"borrowed must be non-negative and finite, got {borrowed}")
    total = borrowed + delta_borrow
    if not 0.0 <= total < math.inf:
        raise DomainError(f"total borrowed must be non-negative and finite, got {total}")
    if total > supplied:
        # Liquidity-capped exposures reconstruct the borrow amount as
        # x * (l_max - 1), which can overshoot the cap by rounding noise.
        if total <= supplied * (1.0 + 1e-12):
            return supplied
        raise LiquidityExceededError(
            f"borrowing {delta_borrow} on top of {borrowed} exceeds supplied {supplied}"
        )
    return total


def borrow_rate(
    irm: IrmParams, supplied: float, borrowed: float, delta_borrow: float = 0.0
) -> float:
    """Borrow rate after adding ``delta_borrow`` to the pool's borrowed amount.

    Continuous and non-decreasing in ``delta_borrow``; raises
    ``LiquidityExceededError`` when the post-trade utilization would exceed 1.
    """
    curve = _curve_of(irm)
    return _rate(curve, _check_pool_amounts(supplied, borrowed, delta_borrow) / supplied)


def _slopes(curve: tuple, supplied: float) -> tuple[float, float]:
    """Rate-per-borrowed-unit slopes (below target, above target)."""
    _, scale, _, (_, _, w1, b1), (_, _, w2, b2) = curve
    return scale * b1 / (supplied * w1), scale * b2 / (supplied * w2)


def marginal_cost_subgradient(
    irm: IrmParams, supplied: float, borrowed: float, borrow_amount: float
) -> tuple[float, float]:
    """One-sided derivatives [lo, hi] of ``B * rate(B)`` at ``B = borrow_amount``.

    ``borrow_amount`` is new borrowing on top of the pool's ``borrowed``. The
    interval is degenerate (lo == hi) wherever the rate curve is smooth and
    spans the left/right derivatives exactly at the kink.
    """
    return _subgradient(_curve_of(irm), supplied, borrowed, borrow_amount)


def _subgradient(
    curve: tuple, supplied: float, borrowed: float, borrow_amount: float
) -> tuple[float, float]:
    """:func:`marginal_cost_subgradient` of a rate curve."""
    total = _check_pool_amounts(supplied, borrowed, borrow_amount)
    rate = _rate(curve, total / supplied)
    lo_slope, hi_slope = _slopes(curve, supplied)
    target_amount = supplied * curve[2]
    # Amounts derived from the kink exposure can miss it by a few ulps; treat
    # anything that close as sitting on the kink.
    kink_snap = 1e-12 * target_amount
    lo, hi = rate + borrow_amount * lo_slope, rate + borrow_amount * hi_slope
    if abs(total - target_amount) <= kink_snap:
        return lo, hi
    return (lo, lo) if total < target_amount else (hi, hi)


def _compile(
    market_id: str, supplied: float, borrowed: float, max_ltv: float, curve: tuple, l_max: float
) -> tuple:
    """``(l_max, cap, k, denom, drop, kink, curve, supplied, borrowed)``: the
    terms of a market's response at ``l_max`` that are free of the staking
    rate ``s``, then what pricing a debt reads. It refuses a cap the LLTV does
    not allow and a pool too small for its curve's slopes; the caller has
    checked the values as ``MarketState`` does. A branch has level
    and value ``l_max*s - k`` and slope ``1/denom``: a linear curve's only
    branch, or the steep one above a kink. ``kink``, when there is room to
    borrow below it, holds ``(k, denom, k_in, plateau, k_out)`` of the gentle
    branch and plateau; ``cap`` starts ``drop`` below the last branch."""
    bound = max_leverage_bound(max_ltv)
    if not 1.0 < l_max <= bound:
        raise ConstraintError(
            f"l_max={l_max} outside (1, {bound:.6g}] allowed by "
            f"max_ltv={max_ltv} of market {market_id}"
        )
    m = l_max - 1.0
    cap = (supplied - borrowed) / m
    try:
        c1, c2 = _slopes(curve, supplied)
    except ZeroDivisionError:  # supplied times a branch width underflows to 0
        raise DomainError(
            f"supplied {supplied} of market {market_id} is too small to price its rate curve"
        ) from None
    r0, r_slope1, _, u_target = _kinked_form(curve)
    k, c, kink = m * (r0 + borrowed * c1), c1, None
    if curve[3] is not curve[4]:  # a kink at target
        headroom = supplied * u_target - borrowed
        if headroom > 0.0:
            k_in = m * (r0 + r_slope1 + headroom * c1)
            k_out = m * (r0 + r_slope1 + headroom * c2)
            kink = (k, 2.0 * c1 * m * m, k_in, headroom / m, k_out)
        k, c = m * (r0 + r_slope1 - headroom * c2), c2
    denom = 2.0 * c * m * m
    return l_max, cap, k, denom, denom * cap, kink, curve, supplied, borrowed


def _pieces(form: tuple, s: float, floor: float = -math.inf) -> list[tuple[float, float, float]]:
    """The compiled response at staking rate ``s`` as ``(level, denom,
    value)`` pieces, highest first.

    Below ``level``, down to the next piece's level, the response is the
    affine ``(value - lam) / denom``, or the constant ``value`` where
    ``denom`` is 0: the kink plateau, or the liquidity cap, which is always
    the last piece. The response is zero from the first level up. A piece
    not wider than one float gives way to the piece below it, which then
    starts at its level. A pool with no liquidity left has no pieces, nor
    has a market whose first level is at or below ``floor``: for a reader
    that asks only at ``lam >= floor`` it is zero, as it is with no pieces.
    """
    l_max, cap, k, denom, drop, kink, _, _, _ = form
    if cap <= 0.0:
        return []
    ls = l_max * s
    beta = ls - k
    if kink is None:
        if beta <= floor:
            return []
        forms = (beta, denom, beta), (beta - drop, 0.0, cap)
    else:
        # Below target: the gentle branch, then the plateau pinned at the
        # kink while lam crosses the jump in marginal cost.
        k1, denom1, k_in, plateau, k_out = kink
        beta1 = ls - k1
        if beta1 <= floor:
            return []
        forms = (
            (beta1, denom1, beta1),
            (ls - k_in, 0.0, plateau),
            (ls - k_out, denom, beta),
            (beta - drop, 0.0, cap),
        )
    pieces = [forms[0]]
    for level, denom, value in forms[1:]:
        if level >= math.nextafter(pieces[-1][0], -math.inf):
            level = pieces.pop()[0]  # the piece above is not wider than one float
        pieces.append((level, denom, value))
    return pieces


def _piece_at(denom: float, value: float, lam: float) -> float:
    return (value - lam) / denom if denom else value


def _response(pieces: list[tuple[float, float, float]], lam: float) -> float:
    """:func:`market_response` of a market's pieces; the last one's value is
    the liquidity cap."""
    for level, denom, value in reversed(pieces):
        if lam < level:
            return min(_piece_at(denom, value, lam), pieces[-1][2])
    return 0.0


def _events(pieces: list[tuple[float, float, float]]) -> list[tuple[float, float, float]]:
    """:func:`response_events` of a market's pieces."""
    events = []
    above = (0.0, 0.0)  # the constant zero above the first level
    for level, denom, value in pieces:
        # The response is monotone, so a negative jump is rounding.
        jump = _piece_at(denom, value, level) - _piece_at(*above, level)
        events.append((level, max(0.0, jump), 1.0 / denom if denom else 0.0))
        above = (denom, value)
    return events


def _state_form(m: MarketState, l_max: float) -> tuple:
    """:func:`_compile` of a market's public state."""
    return _compile(m.market_id, m.supplied, m.borrowed, m.max_ltv, m.irm._curve, l_max)


def market_response(market: MarketState, l_max: float, s: float, lam: float) -> float:
    """Exposure maximizing the leveraged carry of one market at shadow rate ``lam``.

    Solves the stationarity condition
    ``l_max*s - (l_max-1)*(b(B) + B*b'(B)) = lam`` for the new borrowing
    ``B = x*(l_max-1)``, handling the kink by pinning the exposure at the
    target-utilization boundary whenever ``lam`` falls inside the flat spot of
    the marginal cost. The result is clipped at available pool liquidity and
    is non-increasing in ``lam``. Where it jumps (a flat stretch of the rate
    curve), the value at the breakpoint is the limit from above.
    """
    if not math.isfinite(lam):
        raise DomainError(f"lam must be finite, got {lam}")
    return _response(_pieces(_state_form(market, l_max), s), lam)


def response_events(
    market: MarketState, l_max: float, s: float
) -> list[tuple[float, float, float]]:
    """``(level, jump, slope)`` for each piece of the market's response.

    Levels are sorted descending: the response is zero from the first one
    up, equal to the liquidity cap below the last, and affine in between.
    ``jump`` is what the response gains as the shadow rate crosses ``level``
    from above; ``slope`` is its gain per unit fall of the rate on the piece
    below ``level``.
    """
    return _events(_pieces(_state_form(market, l_max), s))


def advance_adaptive_rate(
    irm: AdaptiveIrmParams, u_now: float, t_now: float
) -> AdaptiveIrmParams:
    """Roll the controller state forward to ``t_now``.

    ``rate_at_target`` is multiplied by
    ``exp(adjustment_speed * error(u_last) * elapsed_years)``; the new state
    records ``u_now`` and ``t_now`` for the next interaction.
    """
    if t_now < irm.t_last:
        raise DomainError(f"t_now={t_now} precedes t_last={irm.t_last}")
    if not 0.0 <= u_now <= 1.0:
        raise DomainError(f"u_now must be in [0, 1], got {u_now}")
    elapsed_years = (t_now - irm.t_last) / SECONDS_PER_YEAR
    _, _, u_target, below, above = irm._curve
    _, u0, w, _ = below if irm.u_last < u_target else above
    err = (irm.u_last - u0) / w
    factor = math.exp(irm.adjustment_speed * err * elapsed_years)
    return replace(
        irm,
        rate_at_target=irm.rate_at_target * factor,
        t_last=t_now,
        u_last=u_now,
    )
