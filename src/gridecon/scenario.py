"""Generation-connection scenarios over one or two transmission paths.

A remote generation source is tied to one market, or to two markets in
different time zones. The paths decide how it sells: over one path it
sells everything to its only market; over two it chases the peak, selling
into whichever market is currently at its daily peak window and splitting
the annual energy 50/50 between them, and the capacity left over on the
corridor can carry inter-market trade (``trade_potential``,
``trade_inclusive_lcoe``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .checks import require
from .finance import FinancialAssumptions, levelized_cost
from .transmission import (
    HOURS_PER_YEAR,
    TransmissionLink,
    deliverable_energy,
    delivered_from_injection,
    link_capex,
    route_efficiency,
    utilization_factor,
)


@dataclass(frozen=True)
class GenerationSource:
    capacity_mw: float
    capacity_factor: float
    lcoe_eur_per_kwh: float = 0.0  # generation-only cost

    def __post_init__(self) -> None:
        capacity, factor = self.capacity_mw, self.capacity_factor
        require(0 < capacity < math.inf, "capacity_mw", "finite and > 0", capacity)
        require(0.0 < factor <= 1.0, "capacity_factor", "in (0, 1]", factor)
        lcoe = self.lcoe_eur_per_kwh
        require(0 <= lcoe < math.inf, "lcoe_eur_per_kwh", "finite and >= 0", lcoe)


@dataclass(frozen=True)
class PriceModel:
    """Two-level daily price: peak for a window of hours, a ratio of it off-peak."""

    peak_eur_per_kwh: float
    offpeak_ratio: float = 0.5
    peak_window_hours: float = 12.0

    def __post_init__(self) -> None:
        peak, ratio, window = self.peak_eur_per_kwh, self.offpeak_ratio, self.peak_window_hours
        require(0 < peak < math.inf, "peak_eur_per_kwh", "finite and > 0", peak)
        require(0.0 <= ratio <= 1.0, "offpeak_ratio", "in [0, 1]", ratio)
        require(0.0 < window <= 24.0, "peak_window_hours", "in (0, 24]", window)


@dataclass(frozen=True)
class ConnectionPath:
    link: TransmissionLink
    market: str
    tz_offset_hours: int = 0

    def __post_init__(self) -> None:
        offset = self.tz_offset_hours
        require(isinstance(offset, numbers.Integral), "tz_offset_hours", "a whole number", offset)


@dataclass(frozen=True)
class ConnectionScenario:
    """A source selling over one path, or chasing the peak over two."""

    source: GenerationSource
    paths: tuple[ConnectionPath, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", tuple(self.paths))
        count = len(self.paths)
        require(1 <= count <= 2, "len(paths)", "1 or 2", count)
        if count == 2:
            a, b = self.paths
            if a.market == b.market:
                raise ValueError(f"two paths must serve distinct markets, got {a.market!r} twice")
            # Offsets 24 h apart read the same local clock (Region.demand_at).
            a_tz, b_tz = a.tz_offset_hours, b.tz_offset_hours
            if a_tz % 24 == b_tz % 24:
                got = f"{a_tz} twice" if a_tz == b_tz else f"{a_tz} and {b_tz}, equal modulo 24"
                raise ValueError(
                    "two paths must serve markets in different time zones (peak windows "
                    f"would coincide), got tz_offset_hours {got}"
                )
        for path in self.paths:
            if path.link.capacity_mw < self.source.capacity_mw:
                raise ValueError(
                    f"path {path.market!r} capacity {path.link.capacity_mw} MW is below "
                    f"source capacity {self.source.capacity_mw} MW"
                )


@dataclass(frozen=True)
class ScenarioResult:
    production_gwh: float
    delivered_per_path_gwh: tuple[float, ...]
    total_capex_meur: float
    scenario_lcoe_eur_per_kwh: float
    total_delivered_gwh: float


@dataclass(frozen=True)
class RevenueResult:
    annual_revenue_eur: float
    uplift: float  # fraction vs the all-to-first-path baseline


@dataclass(frozen=True)
class TradeResult:
    trade_delivered_gwh: float
    wind_delivered_gwh: float
    total_delivered_gwh: float


def annual_production(source: GenerationSource) -> float:
    """Expected annual output in GWh: capacity * 8760 * capacity factor."""
    return source.capacity_mw * HOURS_PER_YEAR * source.capacity_factor / 1000.0


def path_injections(scenario: ConnectionScenario) -> tuple[float, ...]:
    """Annual energy injected into each path, GWh.

    One path carries all of it. Two paths chase the peak, alternating in
    12 h blocks; the source output is assumed uncorrelated with the hour of
    day, so the split is exactly 50/50.
    """
    production = annual_production(scenario.source)
    return tuple(production / len(scenario.paths) for _ in scenario.paths)


def path_deliveries(scenario: ConnectionScenario) -> tuple[float, ...]:
    """Annual source energy each path delivers, GWh."""
    return tuple(
        delivered_from_injection(path.link, injected)
        for path, injected in zip(scenario.paths, path_injections(scenario))
    )


def evaluate_connection(
    scenario: ConnectionScenario, fin: FinancialAssumptions
) -> ScenarioResult:
    """Deliveries and levelized transmission cost of the delivered source energy."""
    delivered = path_deliveries(scenario)
    capex = _capex(scenario)
    total_delivered = sum(delivered)
    return ScenarioResult(
        production_gwh=annual_production(scenario.source),
        delivered_per_path_gwh=delivered,
        total_capex_meur=capex,
        scenario_lcoe_eur_per_kwh=levelized_cost(capex, fin, total_delivered),
        total_delivered_gwh=total_delivered,
    )


def trade_inclusive_lcoe(scenario: ConnectionScenario, fin: FinancialAssumptions) -> float:
    """Levelized transmission cost per delivered kWh of source energy plus trade, EUR/kWh."""
    delivered = trade_potential(scenario).total_delivered_gwh
    return levelized_cost(_capex(scenario), fin, delivered)


def _capex(scenario: ConnectionScenario) -> float:
    return sum(link_capex(path.link) for path in scenario.paths)


def revenue(scenario: ConnectionScenario, prices: PriceModel) -> RevenueResult:
    """Annual sales revenue and the uplift over selling everything on path 1.

    Two paths chase the peak and sell every delivered kWh at peak price.
    One path, the baseline, sells at peak only during the peak window, at
    ratio * peak for the rest of the day.
    """
    w = prices.peak_window_hours
    blended = (w + (24.0 - w) * prices.offpeak_ratio) / 24.0

    single_delivered = delivered_from_injection(
        scenario.paths[0].link, annual_production(scenario.source)
    )
    single_revenue = single_delivered * 1e6 * prices.peak_eur_per_kwh * blended

    if len(scenario.paths) == 2:
        annual = sum(path_deliveries(scenario)) * 1e6 * prices.peak_eur_per_kwh
    else:
        annual = single_revenue
    return RevenueResult(
        annual_revenue_eur=annual,
        uplift=annual / single_revenue - 1.0,
    )


def trade_potential(scenario: ConnectionScenario) -> TradeResult:
    """Inter-market trade the corridor can carry on top of the source flows.

    The source is taken at its constant expected output cf * capacity, so
    each path keeps a residual of (path capacity - source output); trade
    runs through both links in series and pays both links' losses, both
    availabilities, and the ramping duty cycle of the corridor.
    """
    if len(scenario.paths) != 2:
        raise ValueError("trade requires exactly two paths")
    wind_flow = scenario.source.capacity_mw * scenario.source.capacity_factor
    # Never negative: a path's capacity covers the source's, and so its output.
    residual = min(path.link.capacity_mw - wind_flow for path in scenario.paths)
    sent = residual * HOURS_PER_YEAR / 1000.0
    first, second = scenario.paths
    delivered = (
        sent
        * utilization_factor(first.link.utilization)
        * first.link.availability
        * second.link.availability
        * route_efficiency(first.link)
        * route_efficiency(second.link)
    )
    wind_delivered = sum(path_deliveries(scenario))
    return TradeResult(
        trade_delivered_gwh=delivered,
        wind_delivered_gwh=wind_delivered,
        total_delivered_gwh=wind_delivered + delivered,
    )


def delivered_cost_increase(
    gen_lcoe_eur_per_kwh: float, single: ScenarioResult, dual: ScenarioResult
) -> float:
    """Relative increase in cost per delivered kWh when adding the second path."""
    return (gen_lcoe_eur_per_kwh + dual.scenario_lcoe_eur_per_kwh) / (
        gen_lcoe_eur_per_kwh + single.scenario_lcoe_eur_per_kwh
    ) - 1.0


def revenue_per_delivered_kwh(
    revenue_eur: float, link: TransmissionLink, period_hours: float
) -> float:
    """Revenue divided by the energy the link delivers over the period."""
    require(0 <= revenue_eur < math.inf, "revenue_eur", "finite and >= 0", revenue_eur)
    delivered_gwh = deliverable_energy(link, period_hours)
    require(0 < delivered_gwh, "delivered_gwh", "> 0", delivered_gwh)
    return revenue_eur / (delivered_gwh * 1e6)


def import_competitiveness(
    remote_gen_cost: float, link_lcoe: float, local_cost: float
) -> float:
    """Signed margin of importing remote power over generating locally.

    (local - (remote + link)) / local; positive means importing is cheaper.
    All three inputs must be in the same currency unit.
    """
    require(0 < local_cost < math.inf, "local_cost", "finite and > 0", local_cost)
    return (local_cost - (remote_gen_cost + link_lcoe)) / local_cost
