import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridecon.datasets import within_reference
from gridecon.finance import FinancialAssumptions
from gridecon.transmission import (
    LossComposition,
    LossModel,
    Segment,
    SegmentKind,
    TransmissionLink,
    UtilizationModel,
    deliverable_energy,
    delivered_from_injection,
    link_capex,
    route_efficiency,
    transmission_lcoe,
    utilization_factor,
)

FIN_3PC_40Y = FinancialAssumptions(discount_rate=0.03, lifetime_years=40, om_rate=0.0)
REDUCED_TO_ZERO = UtilizationModel(reduced_hours=4, reduced_fraction=0.0)
REDUCED_TO_HALF = UtilizationModel(reduced_hours=4, reduced_fraction=0.5)


def cable(km: float, cost: float = 1.15) -> Segment:
    return Segment(SegmentKind.SUBMARINE_CABLE, km, cost)


def ohl(km: float, cost: float = 0.6) -> Segment:
    return Segment(SegmentKind.OVERHEAD_LINE, km, cost)


def make_link(
    segments,
    terminals: int = 2,
    capacity_mw: float = 3000.0,
    composition: LossComposition = LossComposition.LINEAR,
    utilization: UtilizationModel = REDUCED_TO_ZERO,
    availability: float = 0.99,
) -> TransmissionLink:
    return TransmissionLink(
        segments=tuple(segments),
        terminal_count=terminals,
        terminal_unit_cost_meur=300.0,
        capacity_mw=capacity_mw,
        availability=availability,
        loss_model=LossModel(composition=composition),
        utilization=utilization,
    )


LONG_LOW = make_link([cable(5500)])
LONG_HIGH = make_link([cable(5500, 1.8)])
UK_ROUTE = make_link([cable(770), ohl(387), cable(452), cable(457)])
QUEBEC_ROUTE = make_link([ohl(667), cable(550), cable(510), ohl(1542)])
NORNED = TransmissionLink(
    segments=(cable(580, 0.52),),
    terminal_count=2,
    terminal_unit_cost_meur=150.0,
    capacity_mw=700.0,
    availability=0.99,
    loss_model=LossModel(),
    utilization=REDUCED_TO_HALF,
)


class TestLinkCapex:
    def test_long_cable_low_case(self):
        assert link_capex(LONG_LOW) == pytest.approx(6925.0)

    def test_free_segments_without_terminals_cost_nothing(self):
        free = TransmissionLink(
            segments=(cable(100, 0.0),), terminal_count=0, terminal_unit_cost_meur=0.0, capacity_mw=0.0
        )
        assert link_capex(free) == 0.0

    def test_mixed_route(self):
        # 1679 km of cable at 1.15, 387 km OHL at 0.6, two terminals
        assert link_capex(UK_ROUTE) == pytest.approx(2763.05)


class TestRouteEfficiency:
    def test_long_line_without_terminals(self):
        line = make_link([cable(6000)], terminals=0)
        assert route_efficiency(line) == pytest.approx(0.82)

    def test_lossless_line_without_terminals_keeps_everything(self):
        lossless = TransmissionLink(
            segments=(cable(100),),
            terminal_count=0,
            terminal_unit_cost_meur=0.0,
            capacity_mw=0.0,
            loss_model=LossModel(line_loss_per_1000km=0.0),
        )
        assert route_efficiency(lossless) == 1.0

    def test_uk_route(self):
        # (1 - 0.03 * 2.066) * (1 - 0.012); reproduces the 4822 GWh delivery below
        assert route_efficiency(UK_ROUTE) == pytest.approx(0.9267638, abs=1e-6)

    def test_rejects_total_loss(self):
        with pytest.raises(ValueError):
            make_link([cable(40000)])

    def test_compound_composition(self):
        linear = make_link([cable(5500)])
        compound = make_link([cable(5500)], composition=LossComposition.COMPOUND)
        assert route_efficiency(compound) == pytest.approx(0.97**5.5 * 0.994**2)
        assert route_efficiency(compound) > route_efficiency(linear)


class TestUtilizationFactor:
    def test_four_hours_off(self):
        assert utilization_factor(REDUCED_TO_ZERO) == pytest.approx(5 / 6)

    def test_always_full(self):
        assert utilization_factor(UtilizationModel(0, 0.3)) == 1.0

    def test_four_hours_at_half(self):
        assert utilization_factor(REDUCED_TO_HALF) == pytest.approx(11 / 12)


class TestDeliverableEnergy:
    def test_long_cable(self):
        assert deliverable_energy(LONG_LOW) == pytest.approx(17886.39, abs=0.01)

    def test_zero_capacity(self):
        link = dataclasses.replace(LONG_LOW, capacity_mw=0.0)
        assert deliverable_energy(link) == 0.0

    def test_norned_annual(self):
        # 700 * 8760 * 11/12 * 0.99 * 0.9708088 / 1000
        assert deliverable_energy(NORNED) == pytest.approx(5402.347, abs=1e-3)

    def test_norned_two_months(self):
        # the annual energy scaled to 61 days: 5402.347 * 61 * 24 / 8760
        assert deliverable_energy(NORNED, 61 * 24) == pytest.approx(902.858, abs=1e-3)


class TestDeliveredFromInjection:
    def test_uk_route_delivery(self):
        assert delivered_from_injection(UK_ROUTE, 5256.0) == pytest.approx(4822.36, abs=0.01)

    def test_quebec_route_delivery(self):
        assert delivered_from_injection(QUEBEC_ROUTE, 5256.0) == pytest.approx(4636.82, abs=0.01)

    def test_zero_injection(self):
        assert delivered_from_injection(UK_ROUTE, 0.0) == 0.0

    def test_rejects_injection_over_physical_max(self):
        max_gwh = UK_ROUTE.capacity_mw * 8760 * UK_ROUTE.availability / 1000.0
        with pytest.raises(ValueError):
            delivered_from_injection(UK_ROUTE, max_gwh * 1.01)


class TestTransmissionLcoe:
    def test_low_case(self):
        delivered = deliverable_energy(LONG_LOW)
        value = transmission_lcoe(LONG_LOW, FIN_3PC_40Y, delivered)
        assert value == pytest.approx(0.0167497, abs=1e-6)

    def test_high_case(self):
        delivered = deliverable_energy(LONG_HIGH)
        value = transmission_lcoe(LONG_HIGH, FIN_3PC_40Y, delivered)
        assert value == pytest.approx(0.0253967, abs=1e-6)

    def test_shorter_line(self):
        link = make_link([cable(4400)])
        value = transmission_lcoe(link, FIN_3PC_40Y, deliverable_energy(link))
        assert value == pytest.approx(0.0131695, abs=1e-6)
        assert within_reference(("link_lcoe", 4400.0, "low"), value)

    def test_rejects_zero_delivery(self):
        with pytest.raises(ValueError):
            transmission_lcoe(LONG_LOW, FIN_3PC_40Y, 0.0)


lengths = st.floats(min_value=1.0, max_value=20000.0)
terminal_counts = st.integers(min_value=0, max_value=12)
compositions = st.sampled_from(list(LossComposition))


@settings(max_examples=200, deadline=None)
@given(km=lengths, extra=st.floats(min_value=1.0, max_value=5000.0), terminals=terminal_counts, composition=compositions)
def test_efficiency_strictly_decreasing_in_length(km, extra, terminals, composition):
    short = make_link([cable(km)], terminals=terminals, composition=composition)
    longer = make_link([cable(km + extra)], terminals=terminals, composition=composition)
    assert 0.0 < route_efficiency(longer) < route_efficiency(short) <= 1.0


@settings(max_examples=200, deadline=None)
@given(km=lengths, terminals=st.integers(min_value=0, max_value=11), composition=compositions)
def test_efficiency_strictly_decreasing_in_terminals(km, terminals, composition):
    fewer = make_link([cable(km)], terminals=terminals, composition=composition)
    more = make_link([cable(km)], terminals=terminals + 1, composition=composition)
    assert route_efficiency(more) < route_efficiency(fewer)


# For lines under 1000 km the per-1000-km exponent is fractional and
# (1 - r)^x < 1 - r*x, so compound composition only dominates linear at the
# multi-1000-km scale the model is meant for.
@settings(max_examples=200, deadline=None)
@given(km=st.floats(min_value=1000.0, max_value=20000.0), terminals=terminal_counts)
def test_compound_never_below_linear_at_scale(km, terminals):
    linear = make_link([cable(km)], terminals=terminals)
    compound = make_link([cable(km)], terminals=terminals, composition=LossComposition.COMPOUND)
    assert route_efficiency(compound) >= route_efficiency(linear)
    # Just above 1000 km the two efficiencies differ by less than one ulp.
    if km >= 1001.0:
        assert route_efficiency(compound) > route_efficiency(linear)


@settings(max_examples=200, deadline=None)
@given(
    km=st.floats(min_value=1.0, max_value=20000.0),
    injected=st.floats(min_value=0.0, max_value=20000.0),
    composition=compositions,
)
def test_delivery_never_exceeds_injection(km, injected, composition):
    link = make_link([cable(km)], composition=composition)
    assert delivered_from_injection(link, injected) <= injected
    assert deliverable_energy(link) <= link.capacity_mw * 8760 / 1000.0


@settings(max_examples=100, deadline=None)
@given(
    scale=st.floats(min_value=0.1, max_value=10.0),
    energy_scale=st.floats(min_value=0.1, max_value=10.0),
)
def test_lcoe_homogeneity(scale, energy_scale):
    base = transmission_lcoe(LONG_LOW, FIN_3PC_40Y, 17886.0)
    scaled_link = make_link([cable(5500, 1.15 * scale)])
    scaled_link = dataclasses.replace(
        scaled_link, terminal_unit_cost_meur=300.0 * scale
    )
    assert transmission_lcoe(scaled_link, FIN_3PC_40Y, 17886.0) == pytest.approx(
        base * scale, rel=1e-12
    )
    assert transmission_lcoe(LONG_LOW, FIN_3PC_40Y, 17886.0 * energy_scale) == pytest.approx(
        base / energy_scale, rel=1e-12
    )


@settings(max_examples=200, deadline=None)
@given(
    km1=st.floats(min_value=1.0, max_value=8000.0),
    km2=st.floats(min_value=1.0, max_value=8000.0),
    t1=st.integers(min_value=0, max_value=6),
    t2=st.integers(min_value=0, max_value=6),
)
def test_concatenation_composition(km1, km2, t1, t2):
    def eff(km, t, composition):
        return route_efficiency(make_link([cable(km)], terminals=t, composition=composition))

    compound_joint = eff(km1 + km2, t1 + t2, LossComposition.COMPOUND)
    compound_parts = eff(km1, t1, LossComposition.COMPOUND) * eff(km2, t2, LossComposition.COMPOUND)
    assert compound_joint == pytest.approx(compound_parts, rel=1e-12)

    linear_joint = eff(km1 + km2, t1 + t2, LossComposition.LINEAR)
    linear_parts = eff(km1, t1, LossComposition.LINEAR) * eff(km2, t2, LossComposition.LINEAR)
    assert linear_joint <= linear_parts + 1e-12


def test_validation_errors():
    with pytest.raises(ValueError):
        Segment(SegmentKind.SUBMARINE_CABLE, 0.0, 1.0)
    with pytest.raises(ValueError):
        Segment(SegmentKind.SUBMARINE_CABLE, 100.0, -1.0)
    with pytest.raises(ValueError):
        LossModel(line_loss_per_1000km=1.0)
    with pytest.raises(ValueError):
        UtilizationModel(reduced_hours=25)
    with pytest.raises(ValueError):
        UtilizationModel(reduced_hours=4, reduced_fraction=1.5)
    with pytest.raises(ValueError):
        make_link([cable(100)], availability=0.0)
    with pytest.raises(ValueError):
        TransmissionLink(
            segments=(cable(100),),
            terminal_count=-1,
            terminal_unit_cost_meur=300.0,
            capacity_mw=1000.0,
        )
