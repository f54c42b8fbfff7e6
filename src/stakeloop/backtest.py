"""Time-stepped backtesting of looping strategies on recorded market data.

The recorded pool states are treated as exogenous; the strategy's own
borrowing is superimposed on them, so larger positions push utilization and
borrow costs up (the size effect). Collateral-side deposits back isolated
positions and do not add to pool supply. Accrual is simple within a step and
compounds at step boundaries; the step is the data cadence, independent of
the rebalancing frequency.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections import Counter
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field, replace
from functools import reduce
from itertools import accumulate, repeat
from operator import add, mul, sub, truediv
from typing import Callable, Mapping

from .allocator import _check_budget
from .errors import DataError, DomainError, ValidationError
from .irm import IrmParams, _adaptive_curve, _compile, _curve_of
from .rebalance import GATED, HOLD, FeeModel, _plan, should_rebalance
from .units import SECONDS_PER_DAY, SECONDS_PER_YEAR

FIXED_FREQUENCY = "fixed_frequency"
DYNAMIC = "dynamic"
STAKING_ONLY = "staking_only"
STRATEGIES = (FIXED_FREQUENCY, DYNAMIC, STAKING_ONLY)

# Controller constants of the deployed adaptive-curve markets; used to turn a
# recorded rate-at-target into a rate curve.
ADAPTIVE_CURVE_STEEPNESS = 4.0
ADAPTIVE_TARGET_UTILIZATION = 0.9


@dataclass(frozen=True)
class MarketMeta:
    market_id: str
    max_ltv: float
    creation_date: str = ""

    def __post_init__(self) -> None:
        # The id names the market's file in a dataset directory.
        if not (mid := str(self.market_id)) or "/" in mid or "\\" in mid:
            raise DomainError(
                f"market id {self.market_id!r} must be non-empty and hold no '/' or '\\'"
            )
        if not 0.0 < self.max_ltv < 1.0:
            raise DomainError(f"max_ltv must be in (0, 1), got {self.max_ltv}")


@dataclass(frozen=True)
class MarketSnapshot:
    """One market's pool state at one timestamp, in loan-asset units (a row)."""

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
    """Pool states of markets on one timestamp grid, as one column per market
    (``None`` for a rate-at-target never recorded), checked once when built.

    ``origin`` titles a failed check and locates snapshot ``k`` of market
    ``i`` (``None`` for the snapshot itself); the default is ``t=<timestamp>``.
    """

    markets: tuple[MarketMeta, ...]
    timestamps: tuple[int, ...]
    staking_rates: tuple[float, ...]
    supplied: tuple[tuple[float, ...], ...]
    borrowed: tuple[tuple[float, ...], ...]
    borrow_rate: tuple[tuple[float, ...], ...]
    rate_at_target: tuple[tuple[float, ...] | None, ...]
    origin: InitVar[tuple[str, Callable[[int, int | None], str]] | None] = None

    def __post_init__(self, origin) -> None:
        if not self.markets:
            raise ValidationError("series has no markets")
        if not self.timestamps:
            raise ValidationError("series has no snapshots")
        title, where = origin or ("snapshot series", self._at)
        try:
            problems = self._problems(where)
        except ValueError as exc:  # from zip(strict=True)
            raise ValidationError("series columns do not match markets and timestamps") from exc
        if problems:
            raise ValidationError(
                f"{title} failed validation ({len(problems)} records)", records=problems
            )

    def _at(self, k: int, i: int | None) -> str:
        market = "" if i is None else f" market {self.markets[i].market_id}"
        return f"t={self.timestamps[k]}{market}"

    def _problems(self, where: Callable[[int, int | None], str]) -> list[str]:
        """The record check: distinct market ids, increasing integer
        timestamps and finite values, with supplied > 0, borrowed in
        [0, supplied], no negative rate and a positive rate-at-target at every
        snapshot or at none."""
        ts = self.timestamps
        ids = Counter(m.market_id for m in self.markets)
        problems = [f"market {mid}: listed {count} times" for mid, count in ids.items() if count > 1]
        for k, (t, s) in enumerate(zip(ts, self.staking_rates, strict=True)):
            if not isinstance(t, int):
                problems.append(f"{where(k, None)}: timestamp {t!r} is not an integer")
            elif k and t <= ts[k - 1]:
                problems.append(f"{where(k, None)}: timestamp {t} out of order")
            if not 0.0 <= s < math.inf:
                bad = "negative staking rate" if s < 0.0 else f"staking_rate {s} is not finite"
                problems.append(f"{where(k, None)}: {bad}")
        per_market = (self.supplied, self.borrowed, self.borrow_rate, self.rate_at_target)
        for i, (meta, *columns, targets) in enumerate(zip(self.markets, *per_market, strict=True)):
            if targets is not None and None in targets:
                problems.append(
                    f"market {meta.market_id}: rate_at_target present in "
                    f"{len(targets) - targets.count(None)} of {len(targets)} snapshots; "
                    "must be all or none"
                )
            records = zip(ts, *columns, targets or (None,) * len(ts), strict=True)
            for k, (_, s, b, r, t) in enumerate(records):
                # NaN fails every comparison, so only good records pass this test.
                if (0.0 < s < math.inf and 0.0 <= b <= s and 0.0 <= r < math.inf
                        and (t is None or 0.0 < t < math.inf)):
                    continue
                named = {"supplied": s, "borrowed": b, "borrow_rate": r, "rate_at_target": t or 0.0}
                bad = [f"{n} {v} is not finite" for n, v in named.items() if not math.isfinite(v)]
                if not bad:
                    if s <= 0.0:
                        bad.append(f"supplied {s} must be positive")
                    if not 0.0 <= b <= s:
                        bad.append(f"borrowed {b} outside [0, supplied]")
                    if r < 0.0 or (t is not None and t < 0.0):
                        bad.append("negative rate")
                    elif t == 0.0:
                        bad.append("rate_at_target 0.0 must be positive")
                problems += (f"{where(k, i)}: {p}" for p in bad)
        return problems

    @classmethod
    def from_rows(cls, markets: Sequence[MarketMeta], rows: Sequence[Snapshot]) -> SnapshotSeries:
        """Transpose rows, each holding a record for every market, into a series."""
        records = [[row.markets[m.market_id] for row in rows] for m in markets]

        def columns(name: str) -> tuple:
            return tuple(tuple(getattr(ms, name) for ms in c) for c in records)

        return cls(
            markets=tuple(markets),
            timestamps=tuple(row.timestamp for row in rows),
            staking_rates=tuple(row.staking_rate for row in rows),
            supplied=columns("supplied"),
            borrowed=columns("borrowed"),
            borrow_rate=columns("borrow_rate"),
            rate_at_target=tuple(map(_optional_column, columns("rate_at_target"))),
        )

    @property
    def snapshots(self) -> Sequence[Snapshot]:
        """A read-only view of the series as rows, each built when it is read."""
        return _Rows(self)

    @property
    def market_ids(self) -> tuple[str, ...]:
        return tuple(m.market_id for m in self.markets)

    @property
    def cadence_seconds(self) -> int:
        ts = self.timestamps
        return min((b - a for a, b in zip(ts, ts[1:])), default=0)


class _Rows(Sequence):
    def __init__(self, series: SnapshotSeries) -> None:
        self._series = series

    def __len__(self) -> int:
        return len(self._series.timestamps)

    def __getitem__(self, k):
        ks = range(len(self))[k]  # negative indices and slices as for a tuple
        return tuple(map(self._row, ks)) if isinstance(k, slice) else self._row(ks)

    def _row(self, k: int) -> Snapshot:
        x = self._series
        columns = zip(x.markets, x.supplied, x.borrowed, x.borrow_rate, x.rate_at_target)
        markets = {
            m.market_id: MarketSnapshot(s[k], b[k], r[k], None if t is None else t[k])
            for m, s, b, r, t in columns
        }
        return Snapshot(x.timestamps[k], x.staking_rates[k], markets)


def _optional_column(values: tuple) -> tuple | None:
    """A rate-at-target column, or ``None`` when no snapshot records one."""
    return None if all(v is None for v in values) else values


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
        if not 0.0 < self.budget < math.inf:
            raise DomainError(f"budget must be positive and finite, got {self.budget}")
        # A step's growth is below one ulp of a subnormal equity, which then never grows.
        if self.budget < sys.float_info.min:
            raise DomainError(f"budget {self.budget} is below {sys.float_info.min}, the smallest normal float")
        # An int budget replays, and is reported, as the float it stands for.
        object.__setattr__(self, "budget", float(self.budget))
        if not 1.0 <= self.l_max < math.inf:
            raise DomainError(f"l_max must be at least 1 and finite, got {self.l_max}")
        if self.rebalance_frequency <= 0:
            raise DomainError("rebalance_frequency must be positive")
        if self.strategy not in STRATEGIES:
            raise DomainError(f"unknown strategy {self.strategy!r}")
        if not 0.0 <= self.threshold < math.inf:
            raise DomainError(f"threshold must be non-negative and finite, got {self.threshold}")
        if self.smoothing_window < 0:
            raise DomainError("smoothing_window must be non-negative")
        if self.irm is not None:
            _curve_of(self.irm)


@dataclass(frozen=True)
class BacktestResult:
    """A replay as columns with one entry per snapshot of ``timestamps``.

    ``equity`` is marked before any trade at a timestamp; ``fees_paid`` is
    charged by the trade made right after the mark; the accruals cover the
    interval up to the next snapshot. Hence
    ``equity[k+1] = equity[k] + staking_accrued[k] - interest_paid[k] - fees_paid[k]``.
    ``unleveraged`` and, per market in ``market_ids`` order, ``collateral``
    and ``debt`` are the holdings after that trade.
    """

    market_ids: tuple[str, ...]
    timestamps: tuple[int, ...]
    equity: tuple[float, ...]
    staking_accrued: tuple[float, ...]
    interest_paid: tuple[float, ...]
    fees_paid: tuple[float, ...]
    unleveraged: tuple[float, ...]
    collateral: tuple[tuple[float, ...], ...]
    debt: tuple[tuple[float, ...], ...]
    apy: float
    total_fees_paid: float
    rebalance_count: int


def smooth_rates(series: SnapshotSeries, window: int) -> SnapshotSeries:
    """The series as a replay smoothed over ``window`` reads it: each recorded
    rate-at-target is its trailing mean over ``(t - window, t]``.

    Pool amounts, the observed borrow rate (which no replay reads) and the
    staking rate pass through unchanged. A window of 0 or of one sample
    period is the identity.
    """
    return replace(series, rate_at_target=_replay_targets(series, window))


def _replay_targets(series: SnapshotSeries, window: int) -> tuple:
    """The rate-at-target columns of :func:`smooth_rates`, without building a
    series: each recorded column's trailing mean over ``(t - window, t]`` on
    the series' grid, after checking the window against the data cadence."""
    if not window:
        return series.rate_at_target
    if window < 0:
        raise DomainError(f"window must be positive, got {window}")
    cadence = series.cadence_seconds
    if cadence and window < cadence:
        raise DomainError(
            f"window {window}s is shorter than the data cadence {cadence}s"
        )
    ts = series.timestamps
    # Window k is (t_k - window, t_k]: a one-sample-period window is the identity.
    starts = [bisect.bisect_right(ts, t - window) for t in ts]

    def means(column: tuple[float, ...]) -> tuple[float, ...]:
        return tuple(math.fsum(column[a : k + 1]) / (k + 1 - a) for k, a in enumerate(starts))

    return tuple(None if c is None else means(c) for c in series.rate_at_target)


def apy(timestamps: Sequence[int], equity: Sequence[float]) -> float:
    """Annualized compounded return between the first and last equity marks."""
    if len(timestamps) != len(equity):
        raise DomainError("equity curve needs one mark per timestamp")
    if len(equity) < 2:
        raise DomainError("equity curve needs at least two points")
    t0, t1, v0, v1 = timestamps[0], timestamps[-1], equity[0], equity[-1]
    if v0 <= 0.0 or v1 <= 0.0:
        raise DomainError("equity values must be positive")
    if t1 <= t0:
        raise DomainError("equity curve must span positive time")
    years = (t1 - t0) / SECONDS_PER_YEAR
    try:
        return (v1 / v0) ** (1.0 / years) - 1.0
    except OverflowError:
        raise DomainError(
            f"growth factor {v1 / v0!r} over {t1 - t0} s overflows when annualized"
        ) from None


def run_backtest(series: SnapshotSeries, cfg: BacktestConfig) -> BacktestResult:
    """Replay the strategy over the series and account every flow.

    At each rebalance time the optimizer sees the recorded (smoothed) pool
    without the strategy's own footprint; accrual between steps prices the
    debt at the pool rate including the footprint.
    """
    return _replay(series, [cfg], *_prepare(series, cfg, [cfg]), True)


def _prepare(
    series: SnapshotSeries, cfg: BacktestConfig, runs: Sequence[BacktestConfig]
) -> tuple[tuple, tuple]:
    """``(rate_at_target, steps)`` of the ``runs``, replays that share the
    window, frequency and fallback rate model of ``cfg``, after every check of
    theirs in one order: the window, the span, then, when any run plans, the
    curves. ``steps`` holds each interval's length in years, the staking
    growth ``1 + s·dt`` over it, and the due steps."""
    targets = _replay_targets(series, cfg.smoothing_window)
    ts = series.timestamps
    frequency = cfg.rebalance_frequency
    if len(ts) < 2:
        raise DomainError("series needs at least two snapshots")
    cadence = series.cadence_seconds
    if frequency < cadence:
        raise DomainError(
            f"rebalance frequency {frequency}s is below the data cadence {cadence}s"
        )
    if ts[-1] - ts[0] < 2 * frequency:
        raise DomainError("series must cover at least two rebalance intervals")
    if not all(map(_passive, runs)):
        _check_curves(series, targets, None if cfg.irm is None else cfg.irm._curve)

    dt = tuple(map(truediv, map(sub, ts[1:], ts), repeat(SECONDS_PER_YEAR)))
    growth = tuple(map(add, repeat(1.0), map(mul, series.staking_rates, dt)))
    t0, due, k = ts[0], [], 0
    while k < len(ts):
        due.append(k)
        # Due at the first snapshot at or after each point t0 + j * frequency;
        # a gap over several points gives one rebalance.
        k = bisect.bisect_left(ts, t0 + ((ts[k] - t0) // frequency + 1) * frequency, k + 1)
    return targets, (dt, growth, tuple(due))


def _passive(cfg: BacktestConfig) -> bool:
    """Whether the strategy never borrows, and so never plans."""
    return cfg.strategy == STAKING_ONLY or cfg.l_max <= 1.0


def _replay(
    series: SnapshotSeries, runs: Sequence[BacktestConfig], rate_at_target: tuple, steps: tuple, record: bool
) -> BacktestResult | list[float]:
    """:func:`run_backtest` of each of ``runs`` (which share all but their
    caps and budgets) on what :func:`_prepare` checked and built for them,
    reading ``rate_at_target`` for the series' own column.

    The replay walks stretches, each from one due step to the next, every
    run through a stretch before the next. At its start a stretch marks each
    run's equity and plans on plain values. The runs at a cap share the step's
    compile and each table a plan builds (``rebalance._plan``); none outlives
    the step. Then the holdings only accrue, and the markets are independent,
    so each market accrues over the whole stretch in one loop. Every float is
    the one a step-by-step walk of one run gives: the same expressions in the
    same order.

    With ``record`` the walk of one run keeps each step's holdings and
    interest and returns the :class:`BacktestResult`. Without it, as a sweep
    asks, the walk appends nothing, carries the holdings by the same products
    and returns each run's APY, from the first and last equity marks, the
    floats ``equity`` would hold.
    """
    ts = series.timestamps
    ids = series.market_ids
    n = len(ids)

    fallback = None if runs[0].irm is None else runs[0].irm._curve
    # The accrual's curves: rate_at_target[i][k] times the unit recorded curve
    # is, float for float, the rate of the curve a solve compiles.
    unit = _recorded_curve(1.0)
    curves = [fallback if c is None else unit for c in rate_at_target]
    dt, growth, due = steps
    size = len(ts)
    last = size - 1

    # Each run's holdings (unleveraged, then per market collateral and debt)
    # and the equity of each step at which it traded, marked before its trade.
    holdings = [[cfg.budget, [0.0] * n, [0.0] * n, {}] for cfg in runs]
    # The holdings columns of a recorded run, filled a stretch at a time;
    # the interest of each interval, summed in market order; the fee of each
    # step that traded.
    unleveraged_col: list[float] = []
    collateral_cols: list[list[float]] = [[] for _ in ids]
    debt_cols: list[list[float]] = [[] for _ in ids]
    interest = [0.0] * last
    fees: dict[int, float] = {}
    total_fees = 0.0

    columns = tuple(zip(collateral_cols, debt_cols, series.supplied, series.borrowed, curves, rate_at_target))
    for a, end in zip(due, (*due[1:], last)):
        s = series.staking_rates[a]
        # Per cap, the forms at this step and their tables by staking rate.
        compiled: dict[float, tuple[tuple, dict]] = {}
        g = growth[a:end]
        for cfg, holding in zip(runs, holdings):
            unleveraged, collateral, debt, marks = holding
            equity = unleveraged + reduce(add, map(sub, collateral, debt), 0.0)
            if not _passive(cfg) and equity > 0.0:
                l_max = cfg.l_max
                if l_max not in compiled:
                    compiled[l_max] = _forms_at(series, a, rate_at_target, fallback, l_max), {}
                _check_budget(equity, s, l_max)
                m = l_max - 1.0
                exposures = [d / m for d in debt]
                # Only the dynamic strategy's gate reads a move's yields.
                gated = cfg.strategy == DYNAMIC
                rest = equity - reduce(add, exposures, 0.0)
                plan = _plan(*compiled[l_max], s, equity, exposures, rest, cfg.fees, gated)
                if gated:
                    plan = _gate(plan, cfg, equity)
                if plan[0] != HOLD:
                    _, _, cost, _, target, unleveraged, *_ = plan
                    collateral = [x * l_max for x in target]
                    debt = [x * m for x in target]
                    unleveraged, collateral, debt = _charge_fee(cost, unleveraged, collateral, debt)
                    marks[a] = equity
                    if record:
                        fees[a] = cost
                        total_fees += cost

            # Accrue the intervals from a to the next due step, or to the last
            # snapshot; the columns take the values at a..end-1. What grows at
            # the staking rate grows by one product over the stretch; only
            # the debt, priced on its own pool, walks step by step.
            if record:
                unleveraged_col += accumulate(g, mul, initial=unleveraged)
                unleveraged = unleveraged_col.pop()
            else:
                unleveraged = reduce(mul, g, unleveraged)
            for i, (c_col, d_col, supplied, borrowed, curve, targets) in enumerate(columns):
                if record:
                    c_col += accumulate(g, mul, initial=collateral[i])
                    collateral[i] = c_col.pop()
                else:
                    collateral[i] = reduce(mul, g, collateral[i])
                d = debt[i]
                if d > 0.0:
                    _, scale, u_target, below, above = curve
                    for k in range(a, end):
                        # Stale positions can overshoot a shrinking pool; price
                        # them at full utilization rather than beyond it. The
                        # record check keeps borrowed in [0, supplied], so the sum
                        # passes supplied by rounding only. Each conditional picks
                        # what min would, ties included.
                        s_k, b = supplied[k], borrowed[k]
                        room = s_k - b
                        u = b + (room if room < d else d)
                        u = (s_k if s_k < u else u) / s_k
                        # irm._rate, inlined.
                        level, u0, width, slope = below if u < u_target else above
                        rate = scale * (level + (u - u0) / width * slope)
                        if targets is not None:
                            rate *= targets[k]
                        step = dt[k]
                        if record:
                            d_col.append(d)
                            interest[k] += d * rate * step
                        d *= 1.0 + rate * step
                    debt[i] = d
                elif record:
                    d_col += repeat(d, end - a)
            holding[:3] = unleveraged, collateral, debt
    if not record:
        # The first mark is the budget, all that is held; a trade at the last
        # snapshot leaves its pre-trade mark, as in the column below.
        return [
            apy((ts[0], ts[last]), (cfg.budget, marks.get(last, u + reduce(add, map(sub, c, d), 0.0))))
            for cfg, (u, c, d, marks) in zip(runs, holdings)
        ]
    # The holdings at the last snapshot, which no flow follows.
    ((unleveraged, collateral, debt, marks),) = holdings
    unleveraged_col.append(unleveraged)
    for c_col, d_col, c, d in zip(collateral_cols, debt_cols, collateral, debt):
        c_col.append(c)
        d_col.append(d)

    # A step that traded keeps its mark from before the trade; any other
    # step is marked on the holdings it kept.
    # Each step's totals over the markets: the walk's left fold, row by row.
    exposure = zip(*[map(sub, c, d) for c, d in zip(collateral_cols, debt_cols)])
    marked = map(add, unleveraged_col, map(reduce, repeat(add), exposure, repeat(0.0)))
    equity_col = tuple(map(marks.get, range(size), marked))
    held = map(add, unleveraged_col, map(reduce, repeat(add), zip(*collateral_cols), repeat(0.0)))
    return BacktestResult(
        market_ids=ids,
        timestamps=ts,
        equity=equity_col,
        staking_accrued=(*map(mul, map(mul, held, series.staking_rates), dt), 0.0),
        interest_paid=(*interest, 0.0),
        fees_paid=tuple(map(fees.get, range(size), repeat(0.0))),
        unleveraged=tuple(unleveraged_col),
        collateral=tuple(map(tuple, collateral_cols)),
        debt=tuple(map(tuple, debt_cols)),
        apy=apy(ts, equity_col),
        total_fees_paid=total_fees,
        rebalance_count=len(marks),
    )


# The two branches of every deployed adaptive-curve market's curve, which
# its rate-at-target only scales, built once.
*_, _BELOW, _ABOVE = _adaptive_curve(1.0, ADAPTIVE_CURVE_STEEPNESS, ADAPTIVE_TARGET_UTILIZATION)


def _recorded_curve(rate_at_target: float) -> tuple:
    """The rate curve of a deployed adaptive-curve market at ``rate_at_target``,
    :func:`irm._adaptive_curve`'s float for float."""
    return (
        rate_at_target / ADAPTIVE_CURVE_STEEPNESS, rate_at_target, ADAPTIVE_TARGET_UTILIZATION,
        _BELOW, _ABOVE,
    )


def _check_curves(series: SnapshotSeries, rate_at_target: tuple, fallback: tuple | None) -> None:
    """Refuse a market with neither a ``rate_at_target`` column nor a ``fallback`` curve."""
    if fallback is None and None in rate_at_target:
        missing = series.market_ids[rate_at_target.index(None)]
        raise DataError(
            f"market {missing} has no rate_at_target and no fallback rate model is configured"
        )


def _forms_at(
    series: SnapshotSeries, k: int, rate_at_target: tuple, fallback: tuple | None, l_max: float
) -> tuple[tuple, ...]:
    """Each market of ``series`` at snapshot ``k``, compiled at ``l_max`` on its
    recorded rate-at-target's curve, or else on ``fallback``. The record
    check has checked the columns as ``MarketState`` would."""
    return tuple(
        _compile(m.market_id, s[k], b[k], m.max_ltv, _recorded_curve(t[k]) if t else fallback, l_max)
        for m, s, b, t in zip(series.markets, series.supplied, series.borrowed, rate_at_target)
    )


def _gate(plan: tuple, cfg: BacktestConfig, equity: float) -> tuple:
    """The dynamic strategy's verdict on a ``rebalance._plan``: a move whose yield
    gain per unit of equity (net of its amortized cost, unless the gate is gross)
    does not beat the threshold becomes a :data:`GATED` hold that keeps its values."""
    if plan[0] == HOLD:
        return plan
    _, _, cost, improvement, *_ = plan
    if not cfg.gate_net_of_costs:
        improvement += cost / cfg.fees.horizon_years
    if should_rebalance(0.0, improvement, equity, cfg.threshold):
        return plan
    return (HOLD, GATED, *plan[2:])


def _charge_fee(
    cost: float, unleveraged: float, collateral: list[float], debt: list[float]
) -> tuple[float, list[float], list[float]]:
    """Pay the fee from the unleveraged holding, unwinding exposure only when
    it does not cover the cost."""
    if cost <= unleveraged:
        return unleveraged - cost, collateral, debt
    shortfall = cost - unleveraged
    exposure = reduce(add, map(sub, collateral, debt), 0.0)
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
    """APY per starting budget, in budget order: the rates are smoothed once,
    then every budget replays in one lockstep walk."""
    return sweep_leverage(series, cfg, [cfg.l_max], budgets)[cfg.l_max]


def sweep_leverage(
    series: SnapshotSeries,
    cfg: BacktestConfig,
    l_max_values: Sequence[float],
    budgets: Sequence[float],
) -> dict[float, list[tuple[float, float]]]:
    """Budget sweeps repeated per leverage cap over rates smoothed once."""
    if not l_max_values:
        raise DomainError("l_max list must not be empty")
    if not budgets:
        raise DomainError("budget list must not be empty")
    # Every cap, then every budget, is checked as a number before a replay;
    # then what run_backtest checks, once for every run.
    caps = [replace(cfg, l_max=l) for l in l_max_values]
    runs = [replace(c, budget=b) for c in caps for b in budgets]
    targets, steps = _prepare(series, cfg, caps)
    # A cap above a market's LLTV bound fails here, with the error the first
    # replay at that cap raises when it compiles its first step.
    fallback = None if cfg.irm is None else cfg.irm._curve
    for c in caps:
        if not _passive(c):
            _forms_at(series, 0, targets, fallback, c.l_max)
    apys = iter(_replay(series, runs, targets, steps, False))
    return {c.l_max: [(float(b), next(apys)) for b in budgets] for c in caps}

