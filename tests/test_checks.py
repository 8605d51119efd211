"""Every range-checked field and argument rejects NaN, infinity, an
out-of-range value and any value that is not a number (``True``,
``np.True_``, a string), and accepts an in-range NumPy number or
``Fraction`` wherever it accepts a Python one. Every field with a rule on
its kind of value (a whole number, a string) rejects a value of the wrong
kind and ``True``: a bool is not a number. Every range rule in the source is
one ``require_range`` call, and each interval it is written with prints a
pinned rule text."""

import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gridecon
from gridecon.checks import lookup, require_range
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


# (id, build(value), field as named in the message, accepted range,
# out-of-range value, in-range whole number)
ROWS = [
    ("FinancialAssumptions.discount_rate", lambda v: FinancialAssumptions(v, 40),
     "discount_rate", "finite and >= 0", -0.01, 0),
    ("FinancialAssumptions.lifetime_years", lambda v: FinancialAssumptions(0.03, v),
     "lifetime_years", "finite and >= 1", 0, 40),
    ("FinancialAssumptions.om_rate", lambda v: FinancialAssumptions(0.03, 40, om_rate=v),
     "om_rate", "in [0, 1)", 1.0, 0),
    ("MoneyAmount.value", lambda v: MoneyAmount(v, Currency.EUR, 2000),
     "value", "finite", -INF, 1),
    ("MoneyAmount.price_year", lambda v: MoneyAmount(1.0, Currency.EUR, v),
     "price_year", "in [1900, 2100]", 1850, 2000),
    ("ConversionContext.fx_rate", lambda v: ConversionContext(v, 0.0, Currency.EUR),
     "fx_rate", "finite and > 0", 0.0, 1),
    ("ConversionContext.inflation_rate", lambda v: ConversionContext(1.0, v, Currency.EUR),
     "inflation_rate", "finite and > -1", -1.0, 0),
    ("capital_recovery_factor.years", lambda v: capital_recovery_factor(0.03, v),
     "years", "finite and >= 1", 0, 40),
    ("capital_recovery_factor.rate", lambda v: capital_recovery_factor(v, 40),
     "rate", "finite and > -1", -1.0, 0),
    ("annualized_cost.capex", lambda v: annualized_cost(v, FIN),
     "capex", ">= 0", -1.0, 100),
    ("levelized_cost.delivered_gwh", lambda v: levelized_cost(100.0, FIN, v),
     "delivered_gwh", "> 0", 0.0, 1000),
    ("normalize_currency.target_year",
     lambda v: normalize_currency(
         MoneyAmount(10.0, Currency.EUR, 2007), ConversionContext(1.0, 0.02, Currency.EUR), v
     ),
     "target_year", "in [2007, 2100]", 1997, 2010),
    ("Segment.length_km", lambda v: Segment(CABLE, v, 1.0),
     "length_km", "finite and > 0", 0.0, 100),
    ("Segment.unit_cost_meur_per_km", lambda v: Segment(CABLE, 100.0, v),
     "unit_cost_meur_per_km", "finite and >= 0", -1.0, 1),
    ("LossModel.line_loss_per_1000km", lambda v: LossModel(line_loss_per_1000km=v),
     "line_loss_per_1000km", "in [0, 1)", 1.0, 0),
    ("LossModel.terminal_loss", lambda v: LossModel(terminal_loss=v),
     "terminal_loss", "in [0, 1)", 1.0, 0),
    ("UtilizationModel.reduced_hours", lambda v: UtilizationModel(reduced_hours=v),
     "reduced_hours", "in [0, 24]", 25.0, 2),
    ("UtilizationModel.reduced_fraction", lambda v: UtilizationModel(reduced_fraction=v),
     "reduced_fraction", "in [0, 1]", 1.5, 1),
    ("TransmissionLink.terminal_count", lambda v: link(terminal_count=v),
     "terminal_count", "finite and >= 0", -1, 2),
    ("TransmissionLink.terminal_unit_cost_meur", lambda v: link(terminal_unit_cost_meur=v),
     "terminal_unit_cost_meur", "finite and >= 0", -1.0, 100),
    ("TransmissionLink.capacity_mw", lambda v: link(capacity_mw=v),
     "capacity_mw", "finite and >= 0", -1.0, 1000),
    ("TransmissionLink.availability", lambda v: link(availability=v),
     "availability", "in (0, 1]", 0.0, 1),
    ("deliverable_energy.period_hours", lambda v: deliverable_energy(link(), v),
     "period_hours", "finite and > 0", 0.0, 8760),
    ("delivered_from_injection.injected_gwh", lambda v: delivered_from_injection(link(), v),
     "injected_gwh", ">= 0", -1.0, 1000),
    ("transmission_lcoe.delivered_gwh", lambda v: transmission_lcoe(link(), FIN, v),
     "delivered_gwh", "> 0", 0.0, 1000),
    ("ConnectionPath.tz_offset_hours", lambda v: ConnectionPath(link(), "m", v),
     "tz_offset_hours", "a whole number", 0.5, -5),
    ("GenerationSource.capacity_mw", lambda v: GenerationSource(v, 0.5),
     "capacity_mw", "finite and > 0", 0.0, 100),
    ("GenerationSource.capacity_factor", lambda v: GenerationSource(100.0, v),
     "capacity_factor", "in (0, 1]", 0.0, 1),
    ("GenerationSource.lcoe_eur_per_kwh", lambda v: GenerationSource(100.0, 0.5, v),
     "lcoe_eur_per_kwh", "finite and >= 0", -0.01, 0),
    ("PriceModel.peak_eur_per_kwh", lambda v: PriceModel(v),
     "peak_eur_per_kwh", "finite and > 0", 0.0, 1),
    ("PriceModel.offpeak_ratio", lambda v: PriceModel(0.1, offpeak_ratio=v),
     "offpeak_ratio", "in [0, 1]", 1.5, 1),
    ("PriceModel.peak_window_hours", lambda v: PriceModel(0.1, peak_window_hours=v),
     "peak_window_hours", "in (0, 24]", 0.0, 12),
    ("revenue_per_delivered_kwh.period_hours",
     lambda v: revenue_per_delivered_kwh(1e6, link(), v),
     "period_hours", "finite and > 0", 0.0, 1464),
    ("revenue_per_delivered_kwh.revenue_eur",
     lambda v: revenue_per_delivered_kwh(v, link(), 1464.0),
     "revenue_eur", "finite and >= 0", -1.0, 1000000),
    ("import_competitiveness.local_cost", lambda v: import_competitiveness(0.05, 0.03, v),
     "local_cost", "finite and > 0", 0.0, 1),
    ("ProjectRecord.capacity_mw", lambda v: project(capacity_mw=v),
     "X: capacity", "finite and > 0", 0.0, 700),
    ("ProjectRecord.length_km", lambda v: project(length_km=v),
     "X: length", "finite and > 0", 0.0, 100),
    ("ProjectRecord.total_cost_meur", lambda v: project(total_cost_meur=v),
     "X: total cost", "finite and > 0", 0.0, 500),
    ("ProjectRecord.cost_range_frac", lambda v: project(cost_range_frac=v),
     "X: cost_range_frac", "in [0, 1)", 1.0, 0),
    ("ProjectRecord.max_depth_m", lambda v: project(max_depth_m=v),
     "X: max_depth_m", "finite and >= 0", -1.0, 50),
    ("ProjectRecord.known_cable_cost_meur", lambda v: project(known_cable_cost_meur=v),
     "X: known_cable_cost_meur", "finite and >= 0", -1.0, 20),
    ("ProjectRecord.converter_count", lambda v: project(converter_count=v),
     "X: converter_count", "finite and >= 0", -1, 2),
    ("implied_cable_cost_per_km.converter_cost_assumption_meur",
     lambda v: implied_cable_cost_per_km(project(), v),
     "converter cost assumption", "finite and >= 0", -100.0, 100),
    ("Region.demand_profile_mw", lambda v: Region("a", 0, (1.0,) * 23 + (v,)),
     "a: demand_profile_mw[23]", "finite and >= 0", -1.0, 1),
    ("Region.generators.capacity", lambda v: Region("a", 0, FLAT, ((1.0, 1.0), (v, 1.0))),
     "a: generators[1]", "finite and >= 0 in capacity and cost", -1.0, 1),
    ("Region.generators.cost", lambda v: Region("a", 0, FLAT, ((1.0, v),)),
     "a: generators[0]", "finite and >= 0 in capacity and cost", -1.0, 1),
    ("Region.tz_offset_hours", lambda v: Region("a", v),
     "a: tz_offset_hours", "a whole number", 0.5, 1),
    ("Interconnector.capacity_mw", lambda v: Interconnector("a", "b", v),
     "capacity_mw", "finite and >= 0", -1.0, 10),
    ("Interconnector.efficiency", lambda v: Interconnector("a", "b", 10.0, v),
     "efficiency", "in (0, 1]", 0.0, 1),
    ("DispatchNetwork.unserved_penalty_eur_per_mwh",
     lambda v: DispatchNetwork((Region("a"),), unserved_penalty_eur_per_mwh=v),
     "unserved_penalty_eur_per_mwh", "finite and > 0", 0.0, 10000),
    ("sinusoid_profile.peak_mw", lambda v: sinusoid_profile(v),
     "peak_mw", "finite and >= 0", -1.0, 100),
    ("sinusoid_profile.trough_fraction", lambda v: sinusoid_profile(100.0, v),
     "trough_fraction", "in [0, 1]", 1.5, 1),
    ("sinusoid_profile.peak_hour", lambda v: sinusoid_profile(100.0, 0.5, v),
     "peak_hour", "finite", -INF, 12),
    ("min_cost_flow.demand_mw", lambda v: min_cost_flow(one_region(), (v,)),
     "demand_mw", "finite and >= 0 in every region", -1.0, 1),
    ("simulate.hours", lambda v: simulate(one_region(), v),
     "hours", "finite and >= 1", 0, 24),
    ("reserve_requirements.alpha", lambda v: reserve_requirements(one_region(), v),
     "alpha", "in (0, 1]", 0.0, 1),
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
    ("MoneyAmount.price_year", lambda v: MoneyAmount(1.0, Currency.EUR, v),
     "price_year", "a whole number", 2000.5),
    ("normalize_currency.target_year",
     lambda v: normalize_currency(
         MoneyAmount(10.0, Currency.EUR, 2007), ConversionContext(1.0, 0.02, Currency.EUR), v
     ),
     "target_year", "a whole number", 2007.5),
    ("ProjectRecord.name", lambda v: project(name=v), "name", "non-empty", ""),
    ("ConnectionPath.market", lambda v: ConnectionPath(link(), v), "market", "a string", 5),
]

# A field with a range rule meets True there first, in ROWS.
RANGED = {row[0] for row in ROWS}

# Values that fail every number rule and every string rule, by test id.
NEITHER = {"np.True_": np.True_, "None": None}

CASES = [
    pytest.param(build, name, rule, value, id=f"{row_id}={value}")
    for row_id, build, name, rule, bad, _ in ROWS
    for value in ((NAN, bad, True) if row_id in ACCEPT_INF else (NAN, INF, bad, True))
] + [
    pytest.param(build, name, rule, value, id=f"{row_id}={label}")
    for row_id, build, name, rule, *_ in ROWS
    for label, value in (("np.True_", np.True_), ("'1'", "1"))
] + [
    pytest.param(build, name, rule, value, id=f"{row_id}={value!r}")
    for row_id, build, name, rule, bad in KIND_ROWS
    for value in ((bad,) if row_id in RANGED else (bad, True))
] + [
    pytest.param(build, name, rule, value, id=f"{row_id}={label}")
    for row_id, build, name, rule, _ in KIND_ROWS
    if row_id not in RANGED
    for label, value in NEITHER.items()
]


@pytest.mark.parametrize("build, name, rule, value", CASES)
def test_out_of_range_value_is_rejected(build, name, rule, value):
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be {rule}, got ")):
        build(value)


# Values of every kind that is not a real number, each drawn small.
NOT_NUMBERS = st.one_of(
    st.text(max_size=3),
    st.none(),
    st.decimals(places=2),
    st.complex_numbers(max_magnitude=1e3),
    st.binary(max_size=3),
    st.booleans().map(np.bool_),
    st.floats(0, 1).map(lambda x: np.array([x])),
)


# Fields that take None for "not published".
OPTIONAL = {"ProjectRecord.max_depth_m", "ProjectRecord.known_cable_cost_meur"}


@settings(max_examples=200, deadline=None)
@given(row=st.sampled_from(ROWS), value=NOT_NUMBERS)
def test_a_value_that_is_not_a_number_is_rejected_under_its_name(row, value):
    row_id, build, name, rule, *_ = row
    assume(value is not None or row_id not in OPTIONAL)
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be {rule}, got ")):
        build(value)


def _builds(build, value) -> bool:
    try:
        build(value)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_numpy_and_fraction_numbers_build_where_python_numbers_do(row):
    _, build, *_, good = row
    assert _builds(build, good)
    build(np.int64(good))
    if _builds(build, float(good)):  # a whole-number field takes no float
        build(np.float64(good))
        build(Fraction(good))


def test_a_numpy_bool_array_is_not_demand():
    message = "demand_mw must be finite and >= 0 in every region, got ("
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        min_cost_flow(one_region(), np.array([True]))


def test_region_checks_a_generator_before_reading_it_as_a_number():
    message = "a: generators[0] must be finite and >= 0 in capacity and cost, got ('3', '2')"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        Region("a", 0, FLAT, (("3", "2"),))
    message = "a: generators[0] must be finite and >= 0 in capacity and cost, got (True, False)"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        Region("a", 0, FLAT, ((True, False),))


# Every interval written as a literal in the source: (the rule text it
# prints, values it accepts, values it rejects besides NaN).
INTERVALS = {
    "[0, inf)": ("finite and >= 0", (0, 1e308), (-1e-300, INF)),
    "(0, inf)": ("finite and > 0", (5e-324,), (0, INF)),
    "[1, inf)": ("finite and >= 1", (1,), (0.999, INF)),
    "(-1, inf)": ("finite and > -1", (-0.999,), (-1, -INF, INF)),
    "[0, inf]": (">= 0", (0, INF), (-1e-300, -INF)),
    "(0, inf]": ("> 0", (5e-324, INF), (0,)),
    "[1, inf]": (">= 1", (1, INF), (0,)),
    "(-inf, inf)": ("finite", (-1e308, 0, 1e308), (-INF, INF)),
    "[0, 1)": ("in [0, 1)", (0, 0.999), (-1e-300, 1)),
    "[0, 1]": ("in [0, 1]", (0, 1), (-1e-300, 1.001)),
    "(0, 1]": ("in (0, 1]", (5e-324, 1), (0, 1.001)),
    "[0, 24]": ("in [0, 24]", (0, 24), (-1e-300, 24.001)),
    "(0, 24]": ("in (0, 24]", (5e-324, 24), (0, 24.001)),
    "[1900, 2100]": ("in [1900, 2100]", (1900, 2100), (1899, 2101)),
}
SOURCE = Path(gridecon.__file__).parent


def _calls(function: str):
    """Every call of ``function`` by name in the package source, with its file."""
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == function:
                yield path.name, node


def test_no_range_rule_is_written_as_a_verdict():
    """A ``require`` whose rule text reads as a range would compare the value
    before any number check; such a rule belongs to ``require_range``."""
    shaped = []
    for file, node in _calls("require"):
        rules = node.args[2:3] + [k.value for k in node.keywords if k.arg == "rule"]
        for rule in rules:
            if isinstance(rule, ast.Constant) and rule.value.startswith(
                ("finite", "in [", "in (", ">", "<")
            ):
                shaped.append(f"{file}:{node.lineno} {rule.value!r}")
    assert shaped == []


def test_every_interval_literal_prints_its_pinned_rule():
    literals = {
        node.args[2].value
        for _, node in _calls("require_range")
        if isinstance(node.args[2], ast.Constant)
    }
    assert literals == set(INTERVALS)
    for interval, (rule, accepted, rejected) in INTERVALS.items():
        for value in accepted:
            require_range(value, "x", interval)
        for value in (NAN,) + rejected:
            message = f"x must be {rule}, got {value}"
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                require_range(value, "x", interval)


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
