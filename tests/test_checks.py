"""Every range-checked field and argument rejects NaN, infinity and an
out-of-range value, and every field with a rule on its kind of value (a
whole number, a non-empty name) rejects a value of the wrong kind."""

import math
import re

import pytest

from gridecon.checks import lookup
from gridecon.datasets import load_bundled_scenario, long_submarine_link
from gridecon.dispatch import (
    DispatchNetwork,
    Interconnector,
    Region,
    min_cost_flow,
    reserve_requirements,
    simulate,
    sinusoid_profile,
)
from gridecon.finance import (
    ConversionContext,
    Currency,
    FinancialAssumptions,
    MoneyAmount,
    annualized_cost,
    capital_recovery_factor,
    levelized_cost,
    normalize_currency,
)
from gridecon.profiles import get_profile
from gridecon.projects import ProjectRecord, implied_cable_cost_per_km
from gridecon.scenario import (
    ConnectionPath,
    GenerationSource,
    PriceModel,
    import_competitiveness,
    revenue_per_delivered_kwh,
)
from gridecon.transmission import (
    LossModel,
    Segment,
    SegmentKind,
    TransmissionLink,
    UtilizationModel,
    deliverable_energy,
    delivered_from_injection,
    transmission_lcoe,
)

NAN, INF = math.nan, math.inf
FIN = FinancialAssumptions(0.03, 40)
CABLE = SegmentKind.SUBMARINE_CABLE
FLAT = (1.0,) * 24


def link(**fields):
    values = dict(
        segments=(Segment(CABLE, 100.0, 1.0),),
        terminal_count=2,
        terminal_unit_cost_meur=100.0,
        capacity_mw=1000.0,
    )
    return TransmissionLink(**{**values, **fields})


def project(**fields):
    values = dict(
        name="X", voltage_kv="300", capacity_mw=700.0, length_km=100.0,
        max_depth_m=None, total_cost_meur=500.0,
    )
    return ProjectRecord(**{**values, **fields})


def one_region():
    return DispatchNetwork((Region("a", 0, FLAT, ((2.0, 1.0),)),))


# (id, build(value), field as named in the message, accepted range, out-of-range value)
ROWS = [
    ("FinancialAssumptions.discount_rate", lambda v: FinancialAssumptions(v, 40),
     "discount_rate", "finite and >= 0", -0.01),
    ("FinancialAssumptions.lifetime_years", lambda v: FinancialAssumptions(0.03, v),
     "lifetime_years", "finite and >= 1", 0),
    ("FinancialAssumptions.om_rate", lambda v: FinancialAssumptions(0.03, 40, om_rate=v),
     "om_rate", "in [0, 1)", 1.0),
    ("MoneyAmount.value", lambda v: MoneyAmount(v, Currency.EUR, 2000),
     "value", "finite", -INF),
    ("MoneyAmount.price_year", lambda v: MoneyAmount(1.0, Currency.EUR, v),
     "price_year", "in [1900, 2100]", 1850),
    ("ConversionContext.fx_rate", lambda v: ConversionContext(v, 0.0, Currency.EUR),
     "fx_rate", "finite and > 0", 0.0),
    ("ConversionContext.inflation_rate", lambda v: ConversionContext(1.0, v, Currency.EUR),
     "inflation_rate", "finite and > -1", -1.0),
    ("capital_recovery_factor.years", lambda v: capital_recovery_factor(0.03, v),
     "years", "finite and >= 1", 0),
    ("capital_recovery_factor.rate", lambda v: capital_recovery_factor(v, 40),
     "rate", "finite and > -1", -1.0),
    ("annualized_cost.capex", lambda v: annualized_cost(v, FIN),
     "capex", ">= 0", -1.0),
    ("levelized_cost.delivered_gwh", lambda v: levelized_cost(100.0, FIN, v),
     "delivered_gwh", "> 0", 0.0),
    ("normalize_currency.target_year",
     lambda v: normalize_currency(
         MoneyAmount(10.0, Currency.EUR, 2007), ConversionContext(1.0, 0.02, Currency.EUR), v
     ),
     "target_year", "in [2007, 2100]", 1997),
    ("Segment.length_km", lambda v: Segment(CABLE, v, 1.0),
     "length_km", "finite and > 0", 0.0),
    ("Segment.unit_cost_meur_per_km", lambda v: Segment(CABLE, 100.0, v),
     "unit_cost_meur_per_km", "finite and >= 0", -1.0),
    ("LossModel.line_loss_per_1000km", lambda v: LossModel(line_loss_per_1000km=v),
     "line_loss_per_1000km", "in [0, 1)", 1.0),
    ("LossModel.terminal_loss", lambda v: LossModel(terminal_loss=v),
     "terminal_loss", "in [0, 1)", 1.0),
    ("UtilizationModel.reduced_hours", lambda v: UtilizationModel(reduced_hours=v),
     "reduced_hours", "in [0, 24]", 25.0),
    ("UtilizationModel.reduced_fraction", lambda v: UtilizationModel(reduced_fraction=v),
     "reduced_fraction", "in [0, 1]", 1.5),
    ("TransmissionLink.terminal_count", lambda v: link(terminal_count=v),
     "terminal_count", "finite and >= 0", -1),
    ("TransmissionLink.terminal_unit_cost_meur", lambda v: link(terminal_unit_cost_meur=v),
     "terminal_unit_cost_meur", "finite and >= 0", -1.0),
    ("TransmissionLink.capacity_mw", lambda v: link(capacity_mw=v),
     "capacity_mw", "finite and >= 0", -1.0),
    ("TransmissionLink.availability", lambda v: link(availability=v),
     "availability", "in (0, 1]", 0.0),
    ("deliverable_energy.period_hours", lambda v: deliverable_energy(link(), v),
     "period_hours", "finite and > 0", 0.0),
    ("delivered_from_injection.injected_gwh", lambda v: delivered_from_injection(link(), v),
     "injected_gwh", ">= 0", -1.0),
    ("transmission_lcoe.delivered_gwh", lambda v: transmission_lcoe(link(), FIN, v),
     "delivered_gwh", "> 0", 0.0),
    ("ConnectionPath.tz_offset_hours", lambda v: ConnectionPath(link(), "m", v),
     "tz_offset_hours", "a whole number", 0.5),
    ("GenerationSource.capacity_mw", lambda v: GenerationSource(v, 0.5),
     "capacity_mw", "finite and > 0", 0.0),
    ("GenerationSource.capacity_factor", lambda v: GenerationSource(100.0, v),
     "capacity_factor", "in (0, 1]", 0.0),
    ("GenerationSource.lcoe_eur_per_kwh", lambda v: GenerationSource(100.0, 0.5, v),
     "lcoe_eur_per_kwh", "finite and >= 0", -0.01),
    ("PriceModel.peak_eur_per_kwh", lambda v: PriceModel(v),
     "peak_eur_per_kwh", "finite and > 0", 0.0),
    ("PriceModel.offpeak_ratio", lambda v: PriceModel(0.1, offpeak_ratio=v),
     "offpeak_ratio", "in [0, 1]", 1.5),
    ("PriceModel.peak_window_hours", lambda v: PriceModel(0.1, peak_window_hours=v),
     "peak_window_hours", "in (0, 24]", 0.0),
    ("revenue_per_delivered_kwh.period_hours",
     lambda v: revenue_per_delivered_kwh(1e6, link(), v),
     "period_hours", "finite and > 0", 0.0),
    ("revenue_per_delivered_kwh.revenue_eur",
     lambda v: revenue_per_delivered_kwh(v, link(), 1464.0),
     "revenue_eur", "finite and >= 0", -1.0),
    ("import_competitiveness.local_cost", lambda v: import_competitiveness(0.05, 0.03, v),
     "local_cost", "finite and > 0", 0.0),
    ("ProjectRecord.capacity_mw", lambda v: project(capacity_mw=v),
     "X: capacity", "finite and > 0", 0.0),
    ("ProjectRecord.length_km", lambda v: project(length_km=v),
     "X: length", "finite and > 0", 0.0),
    ("ProjectRecord.total_cost_meur", lambda v: project(total_cost_meur=v),
     "X: total cost", "finite and > 0", 0.0),
    ("ProjectRecord.cost_range_frac", lambda v: project(cost_range_frac=v),
     "X: cost_range_frac", "in [0, 1)", 1.0),
    ("ProjectRecord.max_depth_m", lambda v: project(max_depth_m=v),
     "X: max_depth_m", "finite and >= 0", -1.0),
    ("ProjectRecord.known_cable_cost_meur", lambda v: project(known_cable_cost_meur=v),
     "X: known_cable_cost_meur", "finite and >= 0", -1.0),
    ("ProjectRecord.converter_count", lambda v: project(converter_count=v),
     "X: converter_count", "finite and >= 0", -1),
    ("implied_cable_cost_per_km.converter_cost_assumption_meur",
     lambda v: implied_cable_cost_per_km(project(), v),
     "converter cost assumption", "finite and >= 0", -100.0),
    ("Region.demand_profile_mw", lambda v: Region("a", 0, (1.0,) * 23 + (v,)),
     "a: demand_profile_mw", "finite and >= 0", -1.0),
    ("Region.generators.capacity", lambda v: Region("a", 0, FLAT, ((v, 1.0),)),
     "a: generators", "finite and >= 0 in capacity and cost", -1.0),
    ("Region.generators.cost", lambda v: Region("a", 0, FLAT, ((1.0, v),)),
     "a: generators", "finite and >= 0 in capacity and cost", -1.0),
    ("Interconnector.capacity_mw", lambda v: Interconnector("a", "b", v),
     "capacity_mw", "finite and >= 0", -1.0),
    ("Interconnector.efficiency", lambda v: Interconnector("a", "b", 10.0, v),
     "efficiency", "in (0, 1]", 0.0),
    ("DispatchNetwork.unserved_penalty_eur_per_mwh",
     lambda v: DispatchNetwork((Region("a"),), unserved_penalty_eur_per_mwh=v),
     "unserved_penalty_eur_per_mwh", "finite and > 0", 0.0),
    ("sinusoid_profile.peak_mw", lambda v: sinusoid_profile(v),
     "peak_mw", "finite and >= 0", -1.0),
    ("sinusoid_profile.trough_fraction", lambda v: sinusoid_profile(100.0, v),
     "trough_fraction", "in [0, 1]", 1.5),
    ("min_cost_flow.demand_mw", lambda v: min_cost_flow(one_region(), (v,)),
     "demand_mw", "finite and >= 0 in every region", -1.0),
    ("simulate.hours", lambda v: simulate(one_region(), v),
     "hours", "finite and >= 1", 0),
    ("reserve_requirements.alpha", lambda v: reserve_requirements(one_region(), v),
     "alpha", "in (0, 1]", 0.0),
]

# Computed energies and costs overflow to +inf on huge but valid inputs, and
# the CLI reports that at the report row it reaches, so these arguments
# accept +inf.
ACCEPT_INF = {
    "annualized_cost.capex",
    "levelized_cost.delivered_gwh",
    "delivered_from_injection.injected_gwh",
    "transmission_lcoe.delivered_gwh",
}

# (id, build(value), field as named in the message, rule, a value of the
# wrong kind). NaN and infinity meet the field's range rule first, in ROWS.
KIND_ROWS = [
    ("FinancialAssumptions.lifetime_years", lambda v: FinancialAssumptions(0.03, v),
     "lifetime_years", "a whole number", 40.7),
    ("TransmissionLink.terminal_count", lambda v: link(terminal_count=v),
     "terminal_count", "a whole number", 1.5),
    ("ProjectRecord.converter_count", lambda v: project(converter_count=v),
     "X: converter_count", "a whole number", 2.7),
    ("ProjectRecord.name", lambda v: project(name=v), "name", "non-empty", ""),
]

CASES = [
    pytest.param(build, name, rule, value, id=f"{row_id}={value}")
    for row_id, build, name, rule, bad in ROWS
    for value in ((NAN, bad) if row_id in ACCEPT_INF else (NAN, INF, bad))
] + [
    pytest.param(build, name, rule, bad, id=f"{row_id}={bad!r}")
    for row_id, build, name, rule, bad in KIND_ROWS
]


@pytest.mark.parametrize("build, name, rule, value", CASES)
def test_out_of_range_value_is_rejected(build, name, rule, value):
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be {rule}, got ")):
        build(value)


def test_network_without_regions_is_rejected():
    with pytest.raises(ValueError, match=r"^len\(regions\) must be >= 1, got 0$"):
        DispatchNetwork(regions=())


def test_link_without_segments_is_rejected():
    with pytest.raises(ValueError, match=r"^len\(segments\) must be >= 1, got 0$"):
        link(segments=())


def test_unknown_name_lists_the_table():
    assert lookup({"a": 1, "b": 2}, "b", "letter") == 2
    with pytest.raises(ValueError, match="^unknown letter 'c'; expected one of a, b$"):
        lookup({"a": 1, "b": 2}, "c", "letter")
    # each table's rejection goes through lookup, its message word for word
    for build, message in (
        (lambda: get_profile("x"),
         "unknown profile 'x'; expected one of paper-appendix-A, appendix-B-reconciled, norned"),
        (lambda: long_submarine_link(case="x"), "unknown cost case 'x'; expected one of low, high"),
        (lambda: load_bundled_scenario("x"),
         "unknown bundled scenario 'x'; expected one of greenland, smoothing"),
    ):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            build()
