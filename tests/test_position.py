from __future__ import annotations

import math
import random

import pytest

from oracles import market_term
from stakeloop.errors import ConstraintError, DomainError, InsolventPositionError
from stakeloop.irm import LinearIrmParams, MarketState
from stakeloop.position import (
    CollateralDebt,
    ExposureLeverage,
    SplitPosition,
    max_leverage_bound,
    split,
    to_collateral_debt,
    to_exposure_leverage,
    unsplit,
)


class TestConversions:
    def test_collateral_debt_to_exposure_leverage(self):
        el = to_exposure_leverage(CollateralDebt(5.0, 4.0))
        assert (el.exposure, el.leverage) == (1.0, 5.0)

    def test_unleveraged(self):
        el = to_exposure_leverage(CollateralDebt(1.0, 0.0))
        assert (el.exposure, el.leverage) == (1.0, 1.0)

    def test_two_times(self):
        el = to_exposure_leverage(CollateralDebt(10.0, 5.0))
        assert (el.exposure, el.leverage) == (5.0, 2.0)

    def test_inverse(self):
        cd = to_collateral_debt(ExposureLeverage(1.0, 5.0))
        assert (cd.collateral, cd.debt) == (5.0, 4.0)
        cd = to_collateral_debt(ExposureLeverage(1.0, 1.0))
        assert (cd.collateral, cd.debt) == (1.0, 0.0)

    def test_insolvent_rejected(self):
        with pytest.raises(InsolventPositionError):
            to_exposure_leverage(CollateralDebt(4.0, 4.0))
        with pytest.raises(InsolventPositionError):
            to_exposure_leverage(CollateralDebt(4.0, 5.0))

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(1000):
            collateral = rng.uniform(0.1, 1e6)
            debt = collateral * rng.uniform(0.0, 0.99)
            cd = CollateralDebt(collateral, debt)
            back = to_collateral_debt(to_exposure_leverage(cd))
            assert back.collateral == pytest.approx(collateral, rel=1e-12)
            assert back.debt == pytest.approx(debt, rel=1e-12, abs=1e-12)

    def test_ltv_check_strict_with_margin(self):
        cd = CollateralDebt(100.0, 94.5)
        assert not cd.ltv_ok(0.945)  # strict inequality
        assert CollateralDebt(100.0, 94.4).ltv_ok(0.945)
        assert not CollateralDebt(100.0, 94.4).ltv_ok(0.945, margin=0.01)

    @pytest.mark.parametrize("margin", [-0.01, math.nan], ids=["negative", "nan"])
    def test_bad_margin_rejected(self, margin):
        with pytest.raises(DomainError) as exc:
            CollateralDebt(5.0, 4.0).ltv_ok(0.9, margin)
        assert str(exc.value) == f"margin must be non-negative, got {margin}"

    @pytest.mark.parametrize("max_ltv", [0.0, 1.0, math.nan], ids=["zero", "one", "nan"])
    def test_bad_max_ltv_rejected(self, max_ltv):
        with pytest.raises(DomainError) as exc:
            CollateralDebt(5.0, 4.0).ltv_ok(max_ltv)
        assert str(exc.value) == f"max_ltv must be in (0, 1), got {max_ltv}"


class TestSplit:
    def test_fully_leveraged(self):
        sp = split(ExposureLeverage(1.0, 5.0), l_max=5.0)
        assert (sp.unleveraged, sp.max_leveraged) == (0.0, 1.0)

    def test_pure_staking(self):
        sp = split(ExposureLeverage(1.0, 1.0), l_max=5.0)
        assert (sp.unleveraged, sp.max_leveraged) == (1.0, 0.0)

    def test_interior_example(self):
        sp = split(ExposureLeverage(4.0, 3.0), l_max=5.0)
        assert sp.unleveraged == pytest.approx(2.0)
        assert sp.max_leveraged == pytest.approx(2.0)

    def test_preserves_total_exposure(self):
        rng = random.Random(5)
        for _ in range(200):
            l_max = rng.uniform(1.5, 10.0)
            el = ExposureLeverage(rng.uniform(0.1, 100.0), rng.uniform(1.0, l_max))
            sp = split(el, l_max)
            assert sp.unleveraged + sp.max_leveraged == pytest.approx(el.exposure)

    def test_over_cap_rejected(self):
        with pytest.raises(ConstraintError):
            split(ExposureLeverage(1.0, 6.0), l_max=5.0)

    @pytest.mark.parametrize("l_max", [1.0, math.nan, math.inf], ids=["one", "nan", "inf"])
    def test_bad_cap_rejected_by_name(self, l_max):
        with pytest.raises(DomainError) as exc:
            split(ExposureLeverage(1.0, 1.0), l_max)
        assert str(exc.value) == f"l_max must exceed 1 and be finite, got {l_max}"

    def test_unsplit_example(self):
        el = unsplit(SplitPosition(2.0, 2.0, l_max=5.0))
        assert el.exposure == pytest.approx(4.0)
        assert el.leverage == pytest.approx(3.0)
        el = unsplit(SplitPosition(0.0, 1.0, l_max=5.0))
        assert (el.exposure, el.leverage) == (1.0, 5.0)

    def test_unsplit_of_empty_rejected(self):
        with pytest.raises(DomainError):
            unsplit(SplitPosition(0.0, 0.0, l_max=5.0))

    def test_bijection_round_trips(self):
        rng = random.Random(23)
        for _ in range(1000):
            l_max = rng.uniform(1.2, 12.0)
            el = ExposureLeverage(rng.uniform(0.01, 1e5), rng.uniform(1.0, l_max))
            back = unsplit(split(el, l_max))
            assert back.exposure == pytest.approx(el.exposure, rel=1e-12)
            assert back.leverage == pytest.approx(el.leverage, rel=1e-12)

            sp = SplitPosition(rng.uniform(0.0, 50.0), rng.uniform(1e-6, 50.0), l_max)
            back_sp = split(unsplit(sp), l_max)
            assert back_sp.unleveraged == pytest.approx(sp.unleveraged, rel=1e-12, abs=1e-12)
            assert back_sp.max_leveraged == pytest.approx(sp.max_leveraged, rel=1e-12, abs=1e-12)


FIELDS = [
    pytest.param(lambda v: CollateralDebt(v, 0.0), id="collateral"),
    pytest.param(lambda v: CollateralDebt(1.0, v), id="debt"),
    pytest.param(lambda v: ExposureLeverage(v, 2.0), id="exposure"),
    pytest.param(lambda v: ExposureLeverage(1.0, v), id="leverage"),
    pytest.param(lambda v: SplitPosition(v, 1.0, 5.0), id="unleveraged"),
    pytest.param(lambda v: SplitPosition(1.0, v, 5.0), id="max_leveraged"),
    pytest.param(lambda v: SplitPosition(1.0, 1.0, v), id="l_max"),
]


class TestFieldRefusals:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("build", FIELDS)
    def test_nan_infinite_and_negative_fields_rejected(self, build, bad):
        with pytest.raises(DomainError):
            build(bad)

    @pytest.mark.parametrize("build, bound", [
        pytest.param(lambda v: CollateralDebt(v, 0.0), 0.0, id="collateral"),
        pytest.param(lambda v: ExposureLeverage(v, 2.0), 0.0, id="exposure"),
        pytest.param(lambda v: SplitPosition(1.0, 1.0, v), 1.0, id="l_max"),
    ])
    def test_open_lower_bounds_rejected(self, build, bound):
        with pytest.raises(DomainError):
            build(bound)
        build(math.nextafter(bound, math.inf))


class TestLeverageBound:
    def test_typical_lltv(self):
        assert max_leverage_bound(0.945) == pytest.approx(18.1818, abs=1e-3)
        assert max_leverage_bound(0.945) > 18.0

    def test_half(self):
        assert max_leverage_bound(0.5) == pytest.approx(2.0)

    def test_high_lltv(self):
        assert max_leverage_bound(0.965) == pytest.approx(1.0 / 0.035)

    def test_out_of_range(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                max_leverage_bound(bad)


MARKET = MarketState(
    "m", 100.0, 20.0, 0.945, LinearIrmParams(r_base=0.01, r_slope1=0.05, u_target=0.9)
)


def direct_cash_flow(exposure: float, leverage: float, s: float) -> float:
    """Cash flow of (x, l) computed straight from the pool rate."""
    debt = exposure * (leverage - 1.0)
    from oracles import oracle_rate

    rate = oracle_rate(MARKET.irm, MARKET.supplied, MARKET.borrowed + debt)
    return exposure * leverage * s - debt * rate


class TestYieldEquivalence:
    def test_split_image_preserves_cash_flow(self):
        rng = random.Random(41)
        s, l_max = 0.03, 5.0
        for _ in range(300):
            el = ExposureLeverage(rng.uniform(0.1, 10.0), rng.uniform(1.0, l_max))
            sp = split(el, l_max)
            direct = direct_cash_flow(el.exposure, el.leverage, s)
            via_split = sp.unleveraged * s + market_term(MARKET, l_max, s, sp.max_leveraged)
            assert via_split == pytest.approx(direct, abs=1e-10)

    def test_grid_maxima_agree(self):
        # single market, fixed budget: max over leverage equals max over the split
        s, l_max, budget = 0.03, 5.0, 6.0
        points = 2001
        best_direct = max(
            direct_cash_flow(budget, 1.0 + (l_max - 1.0) * k / (points - 1), s)
            for k in range(points)
        )
        best_split = max(
            (budget - x1) * s + market_term(MARKET, l_max, s, x1)
            for k in range(points)
            for x1 in [budget * k / (points - 1)]
        )
        assert best_split == pytest.approx(best_direct, abs=1e-6)
