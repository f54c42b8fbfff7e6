"""Time-stepped backtesting of looping strategies on recorded market data.

The recorded pool states are treated as exogenous; the strategy's own
borrowing is superimposed on them, so larger positions push utilization and
borrow costs up (the size effect). Collateral-side deposits back isolated
positions and do not add to pool supply. Accrual is simple within a step and
compounds at step boundaries; the step is the data cadence, independent of
the rebalancing frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .allocator import Allocation, ProblemInstance
from .errors import DataError, DomainError, ValidationError
from .irm import AdaptiveIrmParams, IrmParams, MarketState, borrow_rate
from .rebalance import HOLD, FeeModel, should_rebalance, solve_with_fees
from .units import SECONDS_PER_DAY, SECONDS_PER_YEAR

FIXED_FREQUENCY = "fixed_frequency"
DYNAMIC = "dynamic"
STAKING_ONLY = "staking_only"
STRATEGIES = (FIXED_FREQUENCY, DYNAMIC, STAKING_ONLY)

# Controller constants of the deployed adaptive-curve markets; used to turn a
# recorded rate-at-target into a full rate model.
ADAPTIVE_CURVE_STEEPNESS = 4.0
ADAPTIVE_TARGET_UTILIZATION = 0.9
# market_state_at pins each curve's t_last to its own snapshot, so no time
# elapses inside the controller and this speed never changes a backtest result.
ADAPTIVE_ADJUSTMENT_SPEED = 50.0  # 1/year


@dataclass(frozen=True)
class MarketMeta:
    market_id: str
    max_ltv: float

    def __post_init__(self) -> None:
        if not 0.0 < self.max_ltv < 1.0:
            raise DomainError(f"max_ltv must be in (0, 1), got {self.max_ltv}")


@dataclass(frozen=True)
class MarketSnapshot:
    """One market's pool state at one timestamp, in loan-asset units."""

    supplied: float
    borrowed: float
    borrow_rate: float
    rate_at_target: float | None = None


@dataclass(frozen=True)
class Snapshot:
    timestamp: int
    staking_rate: float
    markets: Mapping[str, MarketSnapshot]


@dataclass(frozen=True)
class SnapshotSeries:
    markets: tuple[MarketMeta, ...]
    snapshots: tuple[Snapshot, ...]

    def __post_init__(self) -> None:
        if not self.markets:
            raise ValidationError("series has no markets")
        if not self.snapshots:
            raise ValidationError("series has no snapshots")
        ids = {m.market_id for m in self.markets}
        problems: list[str] = []
        prev_ts: int | None = None
        for snap in self.snapshots:
            if prev_ts is not None and snap.timestamp <= prev_ts:
                problems.append(f"timestamp {snap.timestamp} not increasing")
            prev_ts = snap.timestamp
            if set(snap.markets) != ids:
                problems.append(
                    f"t={snap.timestamp}: markets {sorted(snap.markets)} do not "
                    f"match series markets {sorted(ids)}"
                )
                continue
            # The records a dataset load rejects, so no writer can save one.
            for mid, ms in snap.markets.items():
                where = f"t={snap.timestamp} market {mid}"
                if ms.supplied <= 0.0:
                    problems.append(f"{where}: supplied {ms.supplied} must be positive")
                if not 0.0 <= ms.borrowed <= ms.supplied:
                    problems.append(f"{where}: borrowed {ms.borrowed} outside [0, supplied]")
                if ms.borrow_rate < 0.0 or (
                    ms.rate_at_target is not None and ms.rate_at_target < 0.0
                ):
                    problems.append(f"{where}: negative rate")
        if not problems:
            for mid in ids:
                with_target = sum(
                    1
                    for snap in self.snapshots
                    if snap.markets[mid].rate_at_target is not None
                )
                if 0 < with_target < len(self.snapshots):
                    problems.append(
                        f"market {mid}: rate_at_target present in {with_target} of "
                        f"{len(self.snapshots)} snapshots; must be all or none"
                    )
        if problems:
            raise ValidationError(
                f"snapshot series failed validation ({len(problems)} records)",
                records=problems,
            )

    @property
    def market_ids(self) -> tuple[str, ...]:
        return tuple(m.market_id for m in self.markets)

    @property
    def cadence_seconds(self) -> int:
        if len(self.snapshots) < 2:
            return 0
        return min(
            b.timestamp - a.timestamp
            for a, b in zip(self.snapshots, self.snapshots[1:])
        )


@dataclass(frozen=True)
class BacktestConfig:
    budget: float
    l_max: float = 5.0
    rebalance_frequency: int = 3600
    strategy: str = FIXED_FREQUENCY
    threshold: float = 0.0  # rate/year gate for the dynamic strategy
    fees: FeeModel = field(default_factory=lambda: FeeModel(0.0, 0.0, 1.0 / 365.0))
    smoothing_window: int = SECONDS_PER_DAY
    gate_net_of_costs: bool = True
    irm: IrmParams | None = None  # fallback when snapshots lack rate_at_target

    def __post_init__(self) -> None:
        if self.budget <= 0.0:
            raise DomainError(f"budget must be positive, got {self.budget}")
        if self.l_max < 1.0:
            raise DomainError(f"l_max must be at least 1, got {self.l_max}")
        if self.rebalance_frequency <= 0:
            raise DomainError("rebalance_frequency must be positive")
        if self.strategy not in STRATEGIES:
            raise DomainError(f"unknown strategy {self.strategy!r}")
        if self.threshold < 0.0:
            raise DomainError(f"threshold must be non-negative, got {self.threshold}")
        if self.smoothing_window < 0:
            raise DomainError("smoothing_window must be non-negative")


@dataclass(frozen=True)
class StepRecord:
    """Equity mark at a timestamp plus the flows to the next one.

    ``equity`` is marked before any trade at this timestamp; ``fees_paid`` is
    charged by the trade made right after the mark; the accruals cover the
    interval up to the next snapshot. Hence
    ``equity[k+1] = equity[k] + staking_accrued[k] - interest_paid[k] - fees_paid[k]``.
    """

    timestamp: int
    equity: float
    staking_accrued: float
    interest_paid: float
    fees_paid: float


@dataclass(frozen=True)
class PositionRecord:
    """Post-trade holdings at a timestamp."""

    timestamp: int
    unleveraged: float
    collateral: tuple[float, ...]
    debt: tuple[float, ...]


@dataclass(frozen=True)
class BacktestResult:
    market_ids: tuple[str, ...]
    steps: tuple[StepRecord, ...]
    positions: tuple[PositionRecord, ...]
    apy: float
    total_fees_paid: float
    rebalance_count: int

    @property
    def equity_curve(self) -> tuple[tuple[int, float], ...]:
        return tuple((s.timestamp, s.equity) for s in self.steps)


def smooth_rates(series: SnapshotSeries, window: int) -> SnapshotSeries:
    """Trailing moving average of the borrow rates over ``(t - window, t]``.

    Applies to the observed borrow rate and, when present, the recorded
    rate-at-target; pool amounts and the staking rate pass through unchanged.
    A window of one sample period is the identity.
    """
    if window <= 0:
        raise DomainError(f"window must be positive, got {window}")
    cadence = series.cadence_seconds
    if cadence and window < cadence:
        raise DomainError(
            f"window {window}s is shorter than the data cadence {cadence}s"
        )
    snaps = series.snapshots
    rates = {mid: [s.markets[mid].borrow_rate for s in snaps] for mid in series.market_ids}
    targets = {mid: [s.markets[mid].rate_at_target for s in snaps] for mid in series.market_ids}
    out: list[Snapshot] = []
    start = 0
    for k, snap in enumerate(snaps):
        # window is (t - window, t]: a one-sample-period window is the identity
        while snaps[start].timestamp <= snap.timestamp - window:
            start += 1
        span = slice(start, k + 1)
        count = k + 1 - start
        markets = {}
        for mid in series.market_ids:
            ms = snap.markets[mid]
            target = None if ms.rate_at_target is None else math.fsum(targets[mid][span]) / count
            markets[mid] = MarketSnapshot(
                ms.supplied, ms.borrowed, math.fsum(rates[mid][span]) / count, target
            )
        out.append(Snapshot(snap.timestamp, snap.staking_rate, markets))
    return SnapshotSeries(markets=series.markets, snapshots=tuple(out))


def apy(equity_curve: Sequence[tuple[int, float]]) -> float:
    """Annualized compounded return between the curve's endpoints."""
    if len(equity_curve) < 2:
        raise DomainError("equity curve needs at least two points")
    (t0, v0), (t1, v1) = equity_curve[0], equity_curve[-1]
    if v0 <= 0.0 or v1 <= 0.0:
        raise DomainError("equity values must be positive")
    if t1 <= t0:
        raise DomainError("equity curve must span positive time")
    years = (t1 - t0) / SECONDS_PER_YEAR
    return (v1 / v0) ** (1.0 / years) - 1.0


def market_state_at(
    meta: MarketMeta, ms: MarketSnapshot, timestamp: int, fallback_irm: IrmParams | None
) -> MarketState:
    """Pool state plus a rate model, preferring the recorded rate-at-target."""
    if ms.rate_at_target is not None:
        irm: IrmParams = AdaptiveIrmParams(
            rate_at_target=ms.rate_at_target,
            curve_steepness=ADAPTIVE_CURVE_STEEPNESS,
            u_target=ADAPTIVE_TARGET_UTILIZATION,
            adjustment_speed=ADAPTIVE_ADJUSTMENT_SPEED,
            t_last=timestamp,
            u_last=ms.borrowed / ms.supplied if ms.supplied > 0 else 0.0,
        )
    elif fallback_irm is not None:
        irm = fallback_irm
    else:
        raise DataError(
            f"market {meta.market_id} has no rate_at_target and no fallback "
            "rate model is configured"
        )
    return MarketState(
        market_id=meta.market_id,
        supplied=ms.supplied,
        borrowed=ms.borrowed,
        max_ltv=meta.max_ltv,
        irm=irm,
    )


def _accrual_rate(market: MarketState, own_debt: float) -> float:
    # Stale positions can overshoot a shrinking pool; price them at full
    # utilization rather than extrapolating beyond it.
    delta = min(own_debt, market.available_liquidity)
    return borrow_rate(market.irm, market.supplied, market.borrowed, delta)


def run_backtest(series: SnapshotSeries, cfg: BacktestConfig) -> BacktestResult:
    """Replay the strategy over the series and account every flow.

    At each rebalance time the optimizer sees the recorded (smoothed) pool
    without the strategy's own footprint; accrual between steps prices the
    debt at the pool rate including the footprint.
    """
    snaps = series.snapshots
    if len(snaps) < 2:
        raise DomainError("series needs at least two snapshots")
    cadence = series.cadence_seconds
    if cfg.rebalance_frequency < cadence:
        raise DomainError(
            f"rebalance frequency {cfg.rebalance_frequency}s is below the data "
            f"cadence {cadence}s"
        )
    span = snaps[-1].timestamp - snaps[0].timestamp
    if span < 2 * cfg.rebalance_frequency:
        raise DomainError("series must cover at least two rebalance intervals")

    if cfg.smoothing_window:
        series = smooth_rates(series, cfg.smoothing_window)
        snaps = series.snapshots

    ids = series.market_ids
    n = len(ids)
    passive = cfg.strategy == STAKING_ONLY or cfg.l_max <= 1.0
    m = cfg.l_max - 1.0

    unleveraged = cfg.budget
    collateral = [0.0] * n
    debt = [0.0] * n

    steps: list[StepRecord] = []
    positions: list[PositionRecord] = []
    total_fees = 0.0
    rebalances = 0
    t0 = next_due = snaps[0].timestamp

    for k, snap in enumerate(snaps):
        equity = unleveraged + sum(c - d for c, d in zip(collateral, debt))
        fees_here = 0.0
        # Due at the first snapshot at or after each point t0 + j * frequency;
        # a gap over several points gives one rebalance.
        due = snap.timestamp >= next_due
        if due:
            elapsed = (snap.timestamp - t0) // cfg.rebalance_frequency
            next_due = t0 + (elapsed + 1) * cfg.rebalance_frequency
        solving = due and not passive and equity > 0.0
        # Every market when solving, else only the indebted ones for accrual.
        markets = [
            market_state_at(meta, snap.markets[meta.market_id], snap.timestamp, cfg.irm)
            if solving or d > 0.0
            else None
            for meta, d in zip(series.markets, debt)
        ]
        if solving:
            p = ProblemInstance.uniform(
                markets, cfg.l_max, snap.staking_rate, budget=equity
            )
            exposures = [d / m for d in debt]
            current = Allocation.from_position(
                ids, exposures, equity - sum(exposures)
            )
            plan = solve_with_fees(p, current, cfg.fees)
            if plan.direction != HOLD and cfg.strategy == DYNAMIC:
                improvement = plan.net_gain_rate
                if not cfg.gate_net_of_costs:
                    improvement += plan.cost / cfg.fees.horizon_years
                if not should_rebalance(0.0, improvement, equity, cfg.threshold):
                    plan = replace(plan, direction=HOLD)
            if plan.direction != HOLD:
                target = plan.target
                collateral = [x * cfg.l_max for x in target.exposures]
                debt = [x * m for x in target.exposures]
                unleveraged = target.unleveraged
                fees_here = plan.cost
                unleveraged, collateral, debt = _charge_fee(
                    fees_here, unleveraged, collateral, debt
                )
                rebalances += 1
                total_fees += fees_here

        positions.append(
            PositionRecord(
                timestamp=snap.timestamp,
                unleveraged=unleveraged,
                collateral=tuple(collateral),
                debt=tuple(debt),
            )
        )

        staking_accrued = 0.0
        interest_paid = 0.0
        if k + 1 < len(snaps):
            dt = (snaps[k + 1].timestamp - snap.timestamp) / SECONDS_PER_YEAR
            s = snap.staking_rate
            for i, market in enumerate(markets):
                if debt[i] <= 0.0:
                    continue
                rate = _accrual_rate(market, debt[i])
                interest_paid += debt[i] * rate * dt
                debt[i] *= 1.0 + rate * dt
            staking_accrued = (unleveraged + sum(collateral)) * s * dt
            unleveraged *= 1.0 + s * dt
            collateral = [c * (1.0 + s * dt) for c in collateral]

        steps.append(
            StepRecord(
                timestamp=snap.timestamp,
                equity=equity,
                staking_accrued=staking_accrued,
                interest_paid=interest_paid,
                fees_paid=fees_here,
            )
        )

    curve = [(s.timestamp, s.equity) for s in steps]
    return BacktestResult(
        market_ids=ids,
        steps=tuple(steps),
        positions=tuple(positions),
        apy=apy(curve),
        total_fees_paid=total_fees,
        rebalance_count=rebalances,
    )


def _charge_fee(
    cost: float, unleveraged: float, collateral: list[float], debt: list[float]
) -> tuple[float, list[float], list[float]]:
    """Pay the fee from the unleveraged holding, unwinding exposure only when
    it does not cover the cost."""
    if cost <= unleveraged:
        return unleveraged - cost, collateral, debt
    shortfall = cost - unleveraged
    exposure = sum(c - d for c, d in zip(collateral, debt))
    if exposure <= shortfall:
        raise DomainError("rebalance fee exceeds portfolio equity")
    scale = (exposure - shortfall) / exposure
    return (
        0.0,
        [c * scale for c in collateral],
        [d * scale for d in debt],
    )


def sweep_budgets(
    series: SnapshotSeries, cfg: BacktestConfig, budgets: Sequence[float]
) -> list[tuple[float, float]]:
    """APY per starting budget, in budget order: the series is smoothed once,
    then the backtests run serially (pure-Python work that threads cannot
    overlap)."""
    if not budgets:
        raise DomainError("budget list must not be empty")
    if cfg.smoothing_window:
        series = smooth_rates(series, cfg.smoothing_window)
        cfg = replace(cfg, smoothing_window=0)
    return [(b, run_backtest(series, replace(cfg, budget=b)).apy) for b in budgets]


def sweep_leverage(
    series: SnapshotSeries,
    cfg: BacktestConfig,
    l_max_values: Sequence[float],
    budgets: Sequence[float],
) -> dict[float, list[tuple[float, float]]]:
    """Budget sweeps repeated per leverage cap over one smoothed series."""
    if not l_max_values:
        raise DomainError("l_max list must not be empty")
    if cfg.smoothing_window:
        series = smooth_rates(series, cfg.smoothing_window)
        cfg = replace(cfg, smoothing_window=0)
    return {
        l: sweep_budgets(series, replace(cfg, l_max=l), budgets)
        for l in l_max_values
    }
