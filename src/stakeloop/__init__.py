"""Optimal capital allocation and backtesting for leveraged staking."""

from .allocator import (
    SATURATED,
    UNSATURATED,
    Allocation,
    KktReport,
    ProblemInstance,
    WaterfillingDetail,
    expected_yield,
    solve,
    verify_kkt,
    waterfilling_detail,
    yield_breakdown,
)
from .backtest import (
    BacktestConfig,
    BacktestResult,
    MarketMeta,
    MarketSnapshot,
    Snapshot,
    SnapshotSeries,
    apy,
    run_backtest,
    smooth_rates,
    sweep_budgets,
    sweep_leverage,
)
from .errors import (
    ConstraintError,
    DataError,
    DomainError,
    InsolventPositionError,
    LiquidityExceededError,
    StakeloopError,
    UnsupportedModelError,
    ValidationError,
)
from .irm import (
    AdaptiveIrmParams,
    IrmParams,
    KinkedIrmParams,
    LinearIrmParams,
    MarketState,
    advance_adaptive_rate,
    borrow_rate,
    kinked_equivalent,
    marginal_cost_subgradient,
    market_response,
    response_events,
)
from .position import (
    CollateralDebt,
    ExposureLeverage,
    SplitPosition,
    max_leverage_bound,
    split,
    to_collateral_debt,
    to_exposure_leverage,
    unsplit,
)
from .rebalance import (
    AT_TARGET,
    DECREASE,
    GATED,
    HOLD,
    INCREASE,
    NO_BRANCH,
    FeeModel,
    RebalancePlan,
    rebalance_cost,
    should_rebalance,
    solve_with_fees,
    total_collateral,
)

__version__ = "0.1.0"
