"""Capital annuitization, levelized cost and currency normalization.

Every cost computation in the package funnels through these primitives:
capex is converted to a constant annual payment with a capital recovery
factor, every cost per delivered kWh is that payment over the delivered
energy (``levelized_cost``), and monetary values carry an explicit currency
and price year so figures from different sources can be compared on one
basis.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

from .checks import require


class Currency(Enum):
    EUR = "EUR"
    USD = "USD"
    GBP = "GBP"


@dataclass(frozen=True)
class FinancialAssumptions:
    """Discount rate, asset lifetime, and fixed O&M rate.

    om_rate is a fraction of capex charged every year on top of the
    annuity (0 disables it).
    """

    discount_rate: float  # fraction per year
    lifetime_years: int
    om_rate: float = 0.0  # fraction of capex per year

    def __post_init__(self) -> None:
        rate, years = self.discount_rate, self.lifetime_years
        require(0 <= rate < math.inf, "discount_rate", "finite and >= 0", rate)
        require(1 <= years < math.inf, "lifetime_years", "finite and >= 1", years)
        require(isinstance(years, numbers.Integral), "lifetime_years", "a whole number", years)
        require(0.0 <= self.om_rate < 1.0, "om_rate", "in [0, 1)", self.om_rate)


@dataclass(frozen=True)
class MoneyAmount:
    value: float
    currency: Currency
    price_year: int

    def __post_init__(self) -> None:
        require(math.isfinite(self.value), "value", "finite", self.value)
        year = self.price_year
        require(1900 <= year <= 2100, "price_year", "in [1900, 2100]", year)


@dataclass(frozen=True)
class ConversionContext:
    """Exchange rate and inflation path for normalizing a money amount.

    fx_rate is expressed as target-currency units per source unit; use the
    reciprocal quote when converting in the opposite direction.
    """

    fx_rate: float  # target units per source unit
    inflation_rate: float  # fraction per year, applied after conversion
    target_currency: Currency

    def __post_init__(self) -> None:
        require(0 < self.fx_rate < math.inf, "fx_rate", "finite and > 0", self.fx_rate)
        inflation = self.inflation_rate
        require(-1 < inflation < math.inf, "inflation_rate", "finite and > -1", inflation)


def capital_recovery_factor(rate: float, years: int) -> float:
    """Annuity fraction converting capex into a constant annual payment.

    Standard end-of-period formula r(1+r)^N / ((1+r)^N - 1); the zero-rate
    limit is straight-line 1/N so sensitivity sweeps can pass rate 0.
    """
    require(1 <= years < math.inf, "years", "finite and >= 1", years)
    require(-1 < rate < math.inf, "rate", "finite and > -1", rate)
    if rate == 0.0:
        return 1.0 / years
    growth = (1.0 + rate) ** years
    return rate * growth / (growth - 1.0)


def annualized_cost(capex: float, fin: FinancialAssumptions) -> float:
    """Annual payment for a capex: capex * (CRF + om_rate), same unit as capex."""
    require(0 <= capex, "capex", ">= 0", capex)
    crf = capital_recovery_factor(fin.discount_rate, fin.lifetime_years)
    return capex * (crf + fin.om_rate)


def levelized_cost(capex: float, fin: FinancialAssumptions, delivered_gwh: float) -> float:
    """Annualized cost of ``capex`` (MEUR) per delivered kWh, EUR/kWh."""
    require(0 < delivered_gwh, "delivered_gwh", "> 0", delivered_gwh)
    return annualized_cost(capex, fin) / delivered_gwh


def normalize_currency(
    amount: MoneyAmount, ctx: ConversionContext, target_year: int
) -> MoneyAmount:
    """Convert an amount to the context's currency and inflate it to target_year.

    value * fx_rate * (1 + inflation_rate)^(target_year - price_year).
    Deflating to an earlier year is not modeled and is rejected.
    """
    start = amount.price_year
    require(start <= target_year <= 2100, "target_year", f"in [{start}, 2100]", target_year)
    years = target_year - amount.price_year
    value = amount.value * ctx.fx_rate * (1.0 + ctx.inflation_rate) ** years
    return MoneyAmount(value=value, currency=ctx.target_currency, price_year=target_year)
