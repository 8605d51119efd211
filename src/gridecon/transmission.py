"""Physical and cost model of a long HVDC route.

A link is an ordered list of cable / overhead-line segments plus converter
terminals. Losses, outage availability, and the ramping-interval duty cycle
derate the energy a link can deliver; the levelized transmission cost is
the annualized capex divided by that delivered energy.

Unit conventions: lengths km, costs M EUR, capacity MW, energy GWh/yr.
M EUR per GWh equals EUR per kWh, so LCOE values come out in EUR/kWh.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

from .checks import require
from .finance import FinancialAssumptions, levelized_cost

HOURS_PER_YEAR = 8760


class SegmentKind(Enum):
    SUBMARINE_CABLE = "submarine_cable"
    OVERHEAD_LINE = "overhead_line"


class LossComposition(Enum):
    LINEAR = "linear"
    COMPOUND = "compound"


@dataclass(frozen=True)
class Segment:
    kind: SegmentKind
    length_km: float
    unit_cost_meur_per_km: float

    def __post_init__(self) -> None:
        length, cost = self.length_km, self.unit_cost_meur_per_km
        require(0 < length < math.inf, "length_km", "finite and > 0", length)
        require(0 <= cost < math.inf, "unit_cost_meur_per_km", "finite and >= 0", cost)


@dataclass(frozen=True)
class LossModel:
    """Line loss per 1000 km plus a fixed loss at each converter terminal."""

    line_loss_per_1000km: float = 0.03
    terminal_loss: float = 0.006
    composition: LossComposition = LossComposition.LINEAR

    def __post_init__(self) -> None:
        line, terminal = self.line_loss_per_1000km, self.terminal_loss
        require(0.0 <= line < 1.0, "line_loss_per_1000km", "in [0, 1)", line)
        require(0.0 <= terminal < 1.0, "terminal_loss", "in [0, 1)", terminal)


@dataclass(frozen=True)
class UtilizationModel:
    """Daily duty cycle around flow reversals.

    For reduced_hours per day the link runs at reduced_fraction of rated
    capacity (the ramping constraint interval of current-source converter
    links); the rest of the day it runs at full rating.
    """

    reduced_hours: float = 0.0
    reduced_fraction: float = 1.0

    def __post_init__(self) -> None:
        hours, fraction = self.reduced_hours, self.reduced_fraction
        require(0.0 <= hours <= 24.0, "reduced_hours", "in [0, 24]", hours)
        require(0.0 <= fraction <= 1.0, "reduced_fraction", "in [0, 1]", fraction)


@dataclass(frozen=True)
class TransmissionLink:
    segments: tuple[Segment, ...]
    terminal_count: int
    terminal_unit_cost_meur: float
    capacity_mw: float
    availability: float = 0.99
    loss_model: LossModel = field(default_factory=LossModel)
    utilization: UtilizationModel = field(default_factory=UtilizationModel)

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        require(len(self.segments) >= 1, "len(segments)", ">= 1", len(self.segments))
        count, cost = self.terminal_count, self.terminal_unit_cost_meur
        require(0 <= count < math.inf, "terminal_count", "finite and >= 0", count)
        require(isinstance(count, numbers.Integral), "terminal_count", "a whole number", count)
        require(0 <= cost < math.inf, "terminal_unit_cost_meur", "finite and >= 0", cost)
        capacity, availability = self.capacity_mw, self.availability
        require(0 <= capacity < math.inf, "capacity_mw", "finite and >= 0", capacity)
        require(0.0 < availability <= 1.0, "availability", "in (0, 1]", availability)
        route_efficiency(self)  # force the positive-efficiency invariant eagerly

    @property
    def total_length_km(self) -> float:
        return sum(s.length_km for s in self.segments)


def link_capex(link: TransmissionLink) -> float:
    """Total capital cost in M EUR: segments at their unit costs plus terminals."""
    segment_cost = sum(s.length_km * s.unit_cost_meur_per_km for s in link.segments)
    return segment_cost + link.terminal_count * link.terminal_unit_cost_meur


def route_efficiency(link: TransmissionLink) -> float:
    """Fraction of injected power that survives line and terminal losses.

    Linear composition stacks losses additively per leg before multiplying
    the line and terminal factors; compound composition exponentiates the
    per-1000-km and per-terminal survival rates.
    """
    lm = link.loss_model
    thousands = link.total_length_km / 1000.0
    if lm.composition is LossComposition.LINEAR:
        line_factor = 1.0 - lm.line_loss_per_1000km * thousands
        terminal_factor = 1.0 - lm.terminal_loss * link.terminal_count
        if line_factor <= 0.0 or terminal_factor <= 0.0:
            raise ValueError(
                "linear loss composition gives non-positive efficiency for "
                f"{link.total_length_km:g} km / {link.terminal_count} terminals"
            )
        return line_factor * terminal_factor
    return (1.0 - lm.line_loss_per_1000km) ** thousands * (
        1.0 - lm.terminal_loss
    ) ** link.terminal_count


def utilization_factor(u: UtilizationModel) -> float:
    """Average usable fraction of rated capacity over a day."""
    return ((24.0 - u.reduced_hours) + u.reduced_hours * u.reduced_fraction) / 24.0


def deliverable_energy(link: TransmissionLink, period_hours: float = HOURS_PER_YEAR) -> float:
    """Energy the link delivers running at its rating over ``period_hours``, GWh.

    capacity * period * utilization * availability * efficiency: the energy
    left after the ramping duty cycle, outages and losses. Over the default
    period of a year it is the capacity-based deliverable of interconnector
    LCOE and trade; over a shorter period, the denominator of revenue per
    delivered kWh. For a generator feeding the link see
    delivered_from_injection, which does not apply the ramping utilization.
    """
    require(0 < period_hours < math.inf, "period_hours", "finite and > 0", period_hours)
    return (
        link.capacity_mw
        * period_hours
        * utilization_factor(link.utilization)
        * link.availability
        * route_efficiency(link)
        / 1000.0
    )


def delivered_from_injection(link: TransmissionLink, injected_gwh: float) -> float:
    """Energy arriving at the far end for a given annual injection, GWh/yr."""
    require(0 <= injected_gwh, "injected_gwh", ">= 0", injected_gwh)
    physical_max = link.capacity_mw * HOURS_PER_YEAR * link.availability / 1000.0
    if injected_gwh > physical_max * (1.0 + 1e-12):
        raise ValueError(
            f"injected {injected_gwh:.1f} GWh exceeds the link's physical annual "
            f"maximum of {physical_max:.1f} GWh"
        )
    return injected_gwh * link.availability * route_efficiency(link)


def transmission_lcoe(
    link: TransmissionLink, fin: FinancialAssumptions, delivered_gwh: float
) -> float:
    """Levelized transmission cost in EUR per delivered kWh."""
    return levelized_cost(link_capex(link), fin, delivered_gwh)
