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
import struct
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
    return _replay(series, [cfg], True)


def _replay(
    series: SnapshotSeries, runs: Sequence[BacktestConfig], record: bool
) -> BacktestResult | list[float]:
    """:func:`run_backtest` of each of ``runs`` in one lockstep walk over
    stretches, each from one due step to the next: every planning run trades
    at the stretch's start (:func:`_trade`), then every run accrues over it
    (:func:`_accrue`). With ``record`` (one run) it returns what
    :func:`_result` assembles; without, as a sweep asks, each run's APY from
    its first and last equity marks. Every float is the one a step-by-step
    walk of one run gives: the same expressions in the same order."""
    n = len(series.markets)
    # Each run's holdings (unleveraged, then per market collateral and debt)
    # and the equity of each step at which it traded, marked before its trade.
    holdings = [[cfg.budget, [0.0] * n, [0.0] * n, {}] for cfg in runs]
    planners = [(c, h) for c, h in zip(runs, holdings) if c.strategy != STAKING_ONLY and c.l_max > 1.0]
    rate_at_target, fallback, dt, growth, due = _schedule(series, runs[0], bool(planners))
    last = len(dt)
    # The accrual's curves: rate_at_target[i][k] times the unit recorded curve
    # is, float for float, the rate of the curve a solve compiles.
    curves = [fallback if c is None else _recorded_curve(1.0) for c in rate_at_target]
    debt_cols = [[] if record else None for _ in curves]
    columns = tuple(zip(debt_cols, series.supplied, series.borrowed, curves, rate_at_target))
    # A recorded run's holdings where their growth starts over (step 0 and
    # after each trade) with the fee paid there, and each interval's interest.
    trades = {0: (0.0, (runs[0].budget, *[0.0] * n))} if record else None
    interest = [0.0] * last if record else None
    pack = struct.Struct(f"{2 * n}d").pack
    for a, end in zip(due, (*due[1:], last)):
        # Per cap, the forms at this step and their tables by staking rate.
        compiled: dict[float, tuple[tuple, dict]] = {}
        for cfg, holding in planners:
            _trade(series, rate_at_target, fallback, trades, cfg, holding, compiled, a)
        g = growth[a:end]
        # A recorded run is alone, and over one step a look-up costs about a walk.
        walked = None if record or end - a < 2 else {}
        for holding in holdings:
            _accrue(columns, dt, interest, pack, holding, g, a, end, walked)
    if record:
        return _result(series, dt, growth, holdings[0], trades, debt_cols, interest)
    # The first mark is the budget, all that is held; a trade at the last
    # snapshot leaves its pre-trade mark, as in the recorded column.
    ts = series.timestamps
    return [
        apy((ts[0], ts[last]), (cfg.budget, marks.get(last, u + reduce(add, map(sub, c, d), 0.0))))
        for cfg, (u, c, d, marks) in zip(runs, holdings)
    ]


def _schedule(series: SnapshotSeries, shared: BacktestConfig, plans: bool) -> tuple:
    """A replay's set-up, once for all its runs, which share the window,
    frequency and fallback of ``shared``: the smoothed rate-at-target columns
    and the fallback curve, after checking the window, the span and, if a
    run ``plans``, the curves; each interval's length in years and staking
    growth ``1 + s·dt``; and the due steps."""
    rate_at_target = _replay_targets(series, shared.smoothing_window)
    ts = series.timestamps
    size = len(ts)
    frequency = shared.rebalance_frequency
    if size < 2:
        raise DomainError("series needs at least two snapshots")
    cadence = series.cadence_seconds
    if frequency < cadence:
        raise DomainError(f"rebalance frequency {frequency}s is below the data cadence {cadence}s")
    if ts[-1] - ts[0] < 2 * frequency:
        raise DomainError("series must cover at least two rebalance intervals")
    fallback = None if shared.irm is None else shared.irm._curve
    if plans:
        _check_curves(series, rate_at_target, fallback)
    dt = tuple(map(truediv, map(sub, ts[1:], ts), repeat(SECONDS_PER_YEAR)))
    growth = tuple(map(add, repeat(1.0), map(mul, series.staking_rates, dt)))
    t0, due, k = ts[0], [], 0
    while k < size:
        due.append(k)
        # Due at the first snapshot at or after each point t0 + j * frequency;
        # a gap over several points gives one rebalance.
        k = bisect.bisect_left(ts, t0 + ((ts[k] - t0) // frequency + 1) * frequency, k + 1)
    return rate_at_target, fallback, dt, growth, due


def _trade(
    series: SnapshotSeries, rate_at_target: tuple, fallback: tuple | None, trades: dict | None,
    cfg: BacktestConfig, holding: list, compiled: dict, a: int,
) -> None:
    """A run's decision at due step ``a``: mark its equity and, if there is
    any, plan (``rebalance._plan``), gate and trade, paying the fee, which
    ``trades`` keeps with the holdings after it. The runs at a cap share the
    step's compile and each table a plan builds, through ``compiled``."""
    unleveraged, collateral, debt, marks = holding
    equity = unleveraged + reduce(add, map(sub, collateral, debt), 0.0)
    if not equity > 0.0:
        return
    l_max = cfg.l_max
    if l_max not in compiled:
        compiled[l_max] = _forms_at(series, a, rate_at_target, fallback, l_max), {}
    s = series.staking_rates[a]
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
        held = _charge_fee(cost, unleveraged, [x * l_max for x in target], [x * m for x in target])
        holding[:3] = held
        marks[a] = equity
        if trades is not None:
            trades[a] = cost, (held[0], *held[1])


def _accrue(
    columns: tuple, dt: tuple, interest: list[float] | None, pack: Callable[..., bytes],
    holding: list, g: tuple, a: int, end: int, walked: dict[bytes, tuple] | None,
) -> None:
    """Accrue a run's holdings from due step ``a`` to ``end``. What grows at
    the staking rate grows by one product of ``g``; only the debt, priced on
    its own pool, walks step by step, a market at a time, filling a recorded
    run's debt column and interest. With ``walked`` (a sweep's stretch of
    several steps), a holding whose collateral and debt are, byte for byte,
    those of one walked before takes that walk's end: the walk reads only
    them, ``g`` and the market columns."""
    unleveraged, collateral, debt, _ = holding
    holding[0] = reduce(mul, g, unleveraged)
    if walked is not None:
        # Bytes tell -0.0 from 0.0, which compare equal as floats.
        key = pack(*collateral, *debt)
        if key in walked:
            holding[1:3] = map(list, walked[key])
            return
    for i, (d_col, supplied, borrowed, curve, targets) in enumerate(columns):
        collateral[i] = reduce(mul, g, collateral[i])
        d = debt[i]
        if d > 0.0:
            _, scale, u_target, below, above = curve
            for k in range(a, end):
                # Stale positions can overshoot a shrinking pool; price them at full
                # utilization rather than beyond it. The record check keeps borrowed in
                # [0, supplied], so the sum passes supplied by rounding only. Each
                # conditional picks what min would, ties included.
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
                if d_col is not None:
                    d_col.append(d)
                    interest[k] += d * rate * step
                d *= 1.0 + rate * step
            debt[i] = d
        elif d_col is not None:
            d_col += repeat(d, end - a)
    if walked is not None:
        walked[key] = collateral, debt


def _result(
    series: SnapshotSeries, dt: tuple, growth: tuple, holding: list,
    trades: dict[int, tuple], debt_cols: list[list[float]], interest: list[float],
) -> BacktestResult:
    """A recorded replay's :class:`BacktestResult`. The unleveraged and
    collateral columns grow from each start in ``trades`` up to the next by
    the walk's own left fold of the staking growth, kept at every step."""
    ts = series.timestamps
    size = len(ts)
    _, _, debt, marks = holding
    starts = [*trades, size]
    grown: list[list[float]] = [[] for _ in trades[0][1]]
    for a, b in zip(starts, starts[1:]):
        g = growth[a : b - 1]
        for column, x in zip(grown, trades[a][1]):
            column += accumulate(g, mul, initial=x)
    unleveraged_col, *collateral_cols = grown
    # The debt at the last snapshot, which no flow follows.
    for column, d in zip(debt_cols, debt):
        column.append(d)
    # A step that traded keeps its mark from before the trade; any other
    # step is marked on the holdings it kept.
    # Each step's totals over the markets: the walk's left fold, row by row.
    exposure = zip(*[map(sub, c, d) for c, d in zip(collateral_cols, debt_cols)])
    marked = map(add, unleveraged_col, map(reduce, repeat(add), exposure, repeat(0.0)))
    equity_col = tuple(map(marks.get, range(size), marked))
    held = map(add, unleveraged_col, map(reduce, repeat(add), zip(*collateral_cols), repeat(0.0)))
    fees = {a: cost for a, (cost, _) in trades.items()}
    return BacktestResult(
        market_ids=series.market_ids,
        timestamps=ts,
        equity=equity_col,
        staking_accrued=(*map(mul, map(mul, held, series.staking_rates), dt), 0.0),
        interest_paid=(*interest, 0.0),
        fees_paid=tuple(map(fees.get, range(size), repeat(0.0))),
        unleveraged=tuple(unleveraged_col),
        collateral=tuple(map(tuple, collateral_cols)),
        debt=tuple(map(tuple, debt_cols)),
        apy=apy(ts, equity_col),
        total_fees_paid=reduce(add, fees.values(), 0.0),
        rebalance_count=len(marks),
    )


def _recorded_curve(rate_at_target: float) -> tuple:
    """The rate curve of a deployed adaptive-curve market at ``rate_at_target``."""
    return _adaptive_curve(rate_at_target, ADAPTIVE_CURVE_STEEPNESS, ADAPTIVE_TARGET_UTILIZATION)


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
    # then what run_backtest checks, once for every run. A cap above a
    # market's LLTV bound fails when a run at that cap compiles due step 0.
    caps = [replace(cfg, l_max=l) for l in l_max_values]
    runs = [replace(c, budget=b) for c in caps for b in budgets]
    apys = iter(_replay(series, runs, False))
    return {c.l_max: [(float(b), next(apys)) for b in budgets] for c in caps}

