import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridecon.datasets import REFERENCES
from gridecon.finance import (
    ConversionContext,
    Currency,
    FinancialAssumptions,
    MoneyAmount,
    annualized_cost,
    capital_recovery_factor,
    normalize_currency,
)


def annuity_residual(rate: float, years: int) -> float:
    """Independent oracle: a correct CRF pays back exactly 1 in present value."""
    crf = capital_recovery_factor(rate, years)
    return sum(crf / (1.0 + rate) ** t for t in range(1, years + 1)) - 1.0


def test_crf_reference_case():
    crf = capital_recovery_factor(0.03, 40)
    assert crf == pytest.approx(0.0432624, abs=5e-8)
    assert abs(annuity_residual(0.03, 40)) < 1e-12


def test_crf_zero_rate_is_straight_line():
    assert capital_recovery_factor(0.0, 10) == pytest.approx(0.1, abs=0)
    assert capital_recovery_factor(0.0, 40) == pytest.approx(1 / 40)


def test_crf_five_percent():
    assert capital_recovery_factor(0.05, 40) == pytest.approx(0.0582782, abs=5e-8)


def test_crf_rejects_bad_inputs():
    with pytest.raises(ValueError):
        capital_recovery_factor(0.03, 0)
    with pytest.raises(ValueError):
        capital_recovery_factor(-1.0, 10)
    with pytest.raises(ValueError):
        capital_recovery_factor(-1.5, 10)


@settings(max_examples=200, deadline=None)
@given(
    rate=st.floats(min_value=0.001, max_value=0.2),
    years=st.integers(min_value=1, max_value=100),
)
def test_crf_annuity_identity(rate, years):
    assert abs(annuity_residual(rate, years)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    rate=st.floats(min_value=0.001, max_value=0.2),
    bump=st.floats(min_value=1e-4, max_value=0.1),
    years=st.integers(min_value=1, max_value=100),
)
def test_crf_strictly_increasing_in_rate(rate, bump, years):
    assert capital_recovery_factor(rate + bump, years) > capital_recovery_factor(rate, years)


@settings(max_examples=200, deadline=None)
@given(
    rate=st.floats(min_value=0.001, max_value=0.2),
    years=st.integers(min_value=1, max_value=99),
    extra=st.integers(min_value=1, max_value=50),
)
def test_crf_strictly_decreasing_in_lifetime(rate, years, extra):
    assert capital_recovery_factor(rate, years + extra) < capital_recovery_factor(rate, years)


def test_annualized_cost_reference_case():
    fin = FinancialAssumptions(discount_rate=0.03, lifetime_years=40, om_rate=0.0)
    assert annualized_cost(6925.0, fin) == pytest.approx(299.592, abs=5e-4)


def test_annualized_cost_zero_capex():
    fin = FinancialAssumptions(0.05, 20, om_rate=0.01)
    assert annualized_cost(0.0, fin) == 0.0


def test_annualized_cost_with_om():
    # capex * (CRF(3%, 40y) + 0.005)
    fin = FinancialAssumptions(0.03, 40, om_rate=0.005)
    assert annualized_cost(2763.05, fin) == pytest.approx(133.3514, abs=5e-4)


def test_annualized_cost_rejects_negative_capex():
    fin = FinancialAssumptions(0.03, 40)
    with pytest.raises(ValueError):
        annualized_cost(-1.0, fin)


def test_financial_assumptions_validation():
    with pytest.raises(ValueError):
        FinancialAssumptions(-0.01, 40)
    with pytest.raises(ValueError):
        FinancialAssumptions(0.03, 0)
    with pytest.raises(ValueError):
        FinancialAssumptions(0.03, 40, om_rate=1.0)


def test_normalize_reference_cable_cost():
    # 126.7 MUSD in 1997 prices to EUR 2007: x 0.8587, 10 years at 2.24%
    amount = MoneyAmount(126.7, Currency.USD, 1997)
    ctx = ConversionContext(fx_rate=0.8587, inflation_rate=0.0224, target_currency=Currency.EUR)
    result = normalize_currency(amount, ctx, 2007)
    assert result.currency is Currency.EUR
    assert result.price_year == 2007
    assert result.value == pytest.approx(135.77709, abs=1e-4)
    assert result.value / 100.0 == pytest.approx(1.36, abs=0.005)  # per km of the 100 km line


def test_normalize_identity():
    amount = MoneyAmount(42.5, Currency.GBP, 2010)
    ctx = ConversionContext(fx_rate=1.0, inflation_rate=0.0, target_currency=Currency.GBP)
    assert normalize_currency(amount, ctx, 2010).value == 42.5


def test_normalize_eur_to_usd_inverse_quote():
    # quote is 1 USD = 0.7119 EUR, so EUR -> USD divides by it
    ctx = ConversionContext(
        fx_rate=1.0 / 0.7119, inflation_rate=0.0, target_currency=Currency.USD
    )
    low_eur, _ = REFERENCES[("link_lcoe", 5500.0, 3000.0, "low")]
    high_eur, _ = REFERENCES[("link_lcoe", 5500.0, 3000.0, "high")]
    low = normalize_currency(MoneyAmount(low_eur, Currency.EUR, 2011), ctx, 2011)
    high = normalize_currency(MoneyAmount(high_eur, Currency.EUR, 2011), ctx, 2011)
    assert low.value == pytest.approx(0.0233, abs=5e-5)
    assert high.value == pytest.approx(0.0353, abs=5e-5)


def test_normalize_rejects_deflation():
    amount = MoneyAmount(10.0, Currency.EUR, 2007)
    ctx = ConversionContext(1.0, 0.02, Currency.EUR)
    with pytest.raises(ValueError):
        normalize_currency(amount, ctx, 1997)


def test_money_amount_validation():
    with pytest.raises(ValueError):
        MoneyAmount(math.inf, Currency.EUR, 2000)
    with pytest.raises(ValueError):
        MoneyAmount(1.0, Currency.EUR, 1850)
    with pytest.raises(ValueError):
        ConversionContext(0.0, 0.0, Currency.EUR)
    with pytest.raises(ValueError):
        ConversionContext(1.0, -1.0, Currency.EUR)


@settings(max_examples=200, deadline=None)
@given(
    value=st.floats(min_value=-1e6, max_value=1e6),
    year=st.integers(min_value=1950, max_value=2050),
)
def test_normalize_identity_property(value, year):
    amount = MoneyAmount(value, Currency.EUR, year)
    ctx = ConversionContext(1.0, 0.0, Currency.EUR)
    assert normalize_currency(amount, ctx, year).value == value


@settings(max_examples=200, deadline=None)
@given(
    value=st.floats(min_value=0.01, max_value=1e6),
    y1=st.integers(min_value=1950, max_value=2000),
    gap1=st.integers(min_value=0, max_value=30),
    gap2=st.integers(min_value=0, max_value=30),
    fx1=st.floats(min_value=0.1, max_value=10.0),
    fx2=st.floats(min_value=0.1, max_value=10.0),
    inflation=st.floats(min_value=0.0, max_value=0.1),
)
def test_normalize_composes_across_years(value, y1, gap1, gap2, fx1, fx2, inflation):
    y2, y3 = y1 + gap1, y1 + gap1 + gap2
    amount = MoneyAmount(value, Currency.USD, y1)
    step1 = normalize_currency(
        amount, ConversionContext(fx1, inflation, Currency.EUR), y2
    )
    via = normalize_currency(step1, ConversionContext(fx2, inflation, Currency.GBP), y3)
    direct = normalize_currency(
        amount, ConversionContext(fx1 * fx2, inflation, Currency.GBP), y3
    )
    assert via.value == pytest.approx(direct.value, rel=1e-12)
