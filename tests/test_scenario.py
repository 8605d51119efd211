import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridecon.datasets import load_bundled_scenario, within_reference
from gridecon.profiles import get_profile
from gridecon.scenario import (
    ConnectionPath,
    ConnectionScenario,
    GenerationSource,
    PriceModel,
    annual_production,
    delivered_cost_increase,
    evaluate_connection,
    import_competitiveness,
    revenue,
    revenue_per_delivered_kwh,
    trade_inclusive_lcoe,
    trade_potential,
)
from gridecon.transmission import (
    LossModel,
    Segment,
    SegmentKind,
    TransmissionLink,
    UtilizationModel,
    deliverable_energy,
)

RECONCILED = get_profile("appendix-B-reconciled")
FIN_OM = RECONCILED.finance()
FIN_ZERO_OM = get_profile("paper-appendix-A").finance()
WIND_3GW = GenerationSource(capacity_mw=3000.0, capacity_factor=0.4, lcoe_eur_per_kwh=0.06)
PRICES = PriceModel(peak_eur_per_kwh=0.1, offpeak_ratio=0.5, peak_window_hours=12.0)


def greenland(case: str = "low") -> ConnectionScenario:
    return RECONCILED.apply_to_scenario(load_bundled_scenario("greenland", case).scenario)


def dual(case: str = "low") -> ConnectionScenario:
    return greenland(case)


def single(case: str = "low") -> ConnectionScenario:
    scenario = greenland(case)
    return dataclasses.replace(scenario, paths=scenario.paths[:1])


def simple_link(capacity_mw: float = 3000.0, km: float = 1000.0) -> TransmissionLink:
    return TransmissionLink(
        segments=(Segment(SegmentKind.SUBMARINE_CABLE, km, 1.0),),
        terminal_count=2,
        terminal_unit_cost_meur=300.0,
        capacity_mw=capacity_mw,
        availability=0.99,
        loss_model=LossModel(),
        utilization=UtilizationModel(4, 0.0),
    )


class TestAnnualProduction:
    def test_three_gw_wind_farm(self):
        assert annual_production(WIND_3GW) == pytest.approx(10512.0)

    def test_full_duty_bound(self):
        source = GenerationSource(1234.0, 1.0)
        assert annual_production(source) == pytest.approx(1234.0 * 8.76)

    def test_small_wind_farm(self):
        assert annual_production(GenerationSource(700.0, 0.4)) == pytest.approx(2452.8)


class TestEvaluateConnection:
    def test_single_connection_low_cost(self):
        result = evaluate_connection(single(), FIN_ZERO_OM)
        assert result.delivered_per_path_gwh[0] == pytest.approx(9644.72, abs=0.01)
        assert result.scenario_lcoe_eur_per_kwh == pytest.approx(0.0123939, abs=1e-6)
        reconciled = evaluate_connection(single(), FIN_OM)
        assert reconciled.scenario_lcoe_eur_per_kwh == pytest.approx(0.0138264, abs=1e-6)

    def test_dual_connection_high_cost(self):
        result = evaluate_connection(dual("high"), FIN_OM)
        assert result.scenario_lcoe_eur_per_kwh == pytest.approx(0.0392245, abs=1e-6)

    def test_dual_split_is_even(self):
        result = evaluate_connection(dual(), FIN_OM)
        assert result.production_gwh == pytest.approx(10512.0)
        assert result.delivered_per_path_gwh[0] == pytest.approx(4822.36, abs=0.01)
        assert result.delivered_per_path_gwh[1] == pytest.approx(4636.82, abs=0.01)
        assert result.total_delivered_gwh == pytest.approx(sum(result.delivered_per_path_gwh))
        assert result.total_delivered_gwh < result.production_gwh

    def test_free_paths_have_zero_lcoe(self):
        free_link = TransmissionLink(
            segments=(Segment(SegmentKind.SUBMARINE_CABLE, 100.0, 0.0),),
            terminal_count=0,
            terminal_unit_cost_meur=0.0,
            capacity_mw=3000.0,
        )
        scenario = ConnectionScenario(
            source=WIND_3GW,
            paths=(ConnectionPath(free_link, "somewhere"),),
        )
        result = evaluate_connection(scenario, FIN_OM)
        assert result.total_capex_meur == 0.0
        assert result.scenario_lcoe_eur_per_kwh == 0.0

    def test_two_paths_need_distinct_markets_in_different_time_zones(self):
        link = simple_link()
        rejected = {
            "two paths must serve distinct markets, got 'a' twice": (("a", 0), ("a", 12)),
            "two paths must serve markets in different time zones (peak windows "
            "would coincide), got tz_offset_hours 3 twice": (("a", 3), ("b", 3)),
            # Offsets 24 h apart read the same local clock.
            "two paths must serve markets in different time zones (peak windows "
            "would coincide), got tz_offset_hours 0 and 24, equal modulo 24": (("a", 0), ("b", 24)),
            "two paths must serve markets in different time zones (peak windows "
            "would coincide), got tz_offset_hours -5 and 19, equal modulo 24": (("a", -5), ("b", 19)),
        }
        for message, paths in rejected.items():
            with pytest.raises(ValueError) as error:
                ConnectionScenario(
                    source=WIND_3GW,
                    paths=tuple(ConnectionPath(link, market, tz) for market, tz in paths),
                )
            assert str(error.value) == message
        accepted = ConnectionScenario(
            source=WIND_3GW, paths=(ConnectionPath(link, "a", 0), ConnectionPath(link, "b", 12))
        )
        assert [path.tz_offset_hours for path in accepted.paths] == [0, 12]

    def test_path_capacity_must_cover_source(self):
        with pytest.raises(ValueError, match="below"):
            ConnectionScenario(
                source=WIND_3GW,
                paths=(ConnectionPath(simple_link(capacity_mw=1000.0), "a"),),
            )

    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError, match=r"^len\(paths\) must be 1 or 2, got 0$"):
            ConnectionScenario(source=WIND_3GW, paths=())


class TestRevenue:
    def test_idealized_uplift_is_one_third(self):
        link = simple_link()
        scenario = ConnectionScenario(
            source=WIND_3GW,
            paths=(
                ConnectionPath(link, "west", tz_offset_hours=0),
                ConnectionPath(link, "east", tz_offset_hours=12),
            ),
        )
        result = revenue(scenario, PRICES)
        assert result.uplift == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_one_path_sells_at_the_blended_price(self):
        # (12 h at peak + 12 h at half of it) / 24 h
        result = revenue(single(), PRICES)
        delivered = evaluate_connection(single(), FIN_OM).total_delivered_gwh
        assert result.uplift == 0.0
        assert result.annual_revenue_eur == pytest.approx(delivered * 1e6 * 0.1 * 0.75, rel=1e-12)

    def test_case_study_uplift(self):
        result = revenue(dual(), PRICES)
        assert result.uplift == pytest.approx(0.307684, abs=1e-5)
        assert within_reference("revenue_uplift", result.uplift)

    def test_uniform_prices_reduce_uplift_to_energy_ratio(self):
        flat = PriceModel(peak_eur_per_kwh=0.1, offpeak_ratio=1.0)
        result = revenue(dual(), flat)
        assert result.uplift == pytest.approx(-0.0192373, abs=1e-6)

    @pytest.mark.parametrize("ratio", [0.0, 0.25, 0.5, 1.0])
    def test_equal_path_uplift_formula(self, ratio):
        link = simple_link()
        scenario = ConnectionScenario(
            source=WIND_3GW,
            paths=(
                ConnectionPath(link, "west", 0),
                ConnectionPath(link, "east", 12),
            ),
        )
        prices = PriceModel(peak_eur_per_kwh=0.08, offpeak_ratio=ratio)
        assert revenue(scenario, prices).uplift == pytest.approx(
            2.0 / (1.0 + ratio) - 1.0, rel=1e-12
        )

    @settings(max_examples=100, deadline=None)
    @given(scale=st.floats(min_value=0.01, max_value=100.0))
    def test_price_scaling_invariance(self, scale):
        base_prices = PRICES
        scaled = PriceModel(
            peak_eur_per_kwh=PRICES.peak_eur_per_kwh * scale,
            offpeak_ratio=PRICES.offpeak_ratio,
            peak_window_hours=PRICES.peak_window_hours,
        )
        base = revenue(dual(), base_prices)
        scaled_result = revenue(dual(), scaled)
        assert scaled_result.annual_revenue_eur == pytest.approx(
            base.annual_revenue_eur * scale, rel=1e-12
        )
        assert scaled_result.uplift == pytest.approx(base.uplift, rel=1e-12)


class TestTradePotential:
    def test_case_study_trade(self):
        result = trade_potential(greenland())
        assert result.trade_delivered_gwh == pytest.approx(10635.66, abs=0.01)
        assert result.total_delivered_gwh == pytest.approx(20094.84, abs=0.01)

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.floats(min_value=1e-3, max_value=1e7),
        factor=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        headroom=st.sampled_from([1.0, 1.0 + 2**-52, 1.5, 4.0]),
    )
    def test_trade_is_never_negative(self, capacity, factor, headroom):
        # A path covers the source's capacity, and capacity * factor with the
        # factor in (0, 1] never exceeds that capacity, so no residual is negative.
        link = simple_link(capacity_mw=capacity * headroom)
        scenario = ConnectionScenario(
            source=GenerationSource(capacity, factor),
            paths=(ConnectionPath(link, "west", 0), ConnectionPath(link, "east", 12)),
        )
        assert trade_potential(scenario).trade_delivered_gwh >= 0.0

    def test_full_capacity_factor_leaves_no_residual(self):
        scenario = greenland()
        saturated = dataclasses.replace(
            scenario, source=GenerationSource(3000.0, 1.0, 0.06)
        )
        assert trade_potential(saturated).trade_delivered_gwh == 0.0

    def test_corridor_deliverable_is_about_twenty_twh(self):
        uk_link = greenland().paths[0].link
        assert deliverable_energy(uk_link) == pytest.approx(20093.17, abs=0.01)

    def test_trade_requires_flag_and_two_paths(self):
        with pytest.raises(ValueError, match=r"^trade requires exactly two paths$"):
            trade_potential(single())

    def test_trade_inclusive_lcoe(self):
        assert trade_inclusive_lcoe(greenland(), FIN_OM) == pytest.approx(0.0141881, abs=1e-6)
        assert trade_potential(greenland()).total_delivered_gwh <= sum(
            deliverable_energy(p.link) for p in greenland().paths
        )


class TestDeliveredCostIncrease:
    def test_low_case(self):
        increase = delivered_cost_increase(
            0.06, evaluate_connection(single(), FIN_OM), evaluate_connection(dual(), FIN_OM)
        )
        assert increase == pytest.approx(0.220984, abs=1e-5)

    def test_high_case(self):
        increase = delivered_cost_increase(
            0.06,
            evaluate_connection(single("high"), FIN_OM),
            evaluate_connection(dual("high"), FIN_OM),
        )
        assert increase == pytest.approx(0.251452, abs=1e-5)

    def test_equal_results_mean_no_increase(self):
        result = evaluate_connection(single(), FIN_OM)
        assert delivered_cost_increase(0.06, result, result) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        gen=st.floats(min_value=0.01, max_value=0.2),
        single_lcoe=st.floats(min_value=0.001, max_value=0.05),
        dual_lcoe=st.floats(min_value=0.001, max_value=0.05),
        bump=st.floats(min_value=1e-4, max_value=0.05),
    )
    def test_monotonicity(self, gen, single_lcoe, dual_lcoe, bump):
        def result(lcoe):
            return dataclasses.replace(
                evaluate_connection(single(), FIN_OM), scenario_lcoe_eur_per_kwh=lcoe
            )

        base = delivered_cost_increase(gen, result(single_lcoe), result(dual_lcoe))
        assert delivered_cost_increase(gen, result(single_lcoe), result(dual_lcoe + bump)) > base
        assert delivered_cost_increase(gen, result(single_lcoe + bump), result(dual_lcoe)) < base


class TestRevenuePerDeliveredKwh:
    def test_norned_two_months(self):
        link = get_profile("norned").apply_to_link(
            TransmissionLink(
                segments=(Segment(SegmentKind.SUBMARINE_CABLE, 580.0, 0.52),),
                terminal_count=2,
                terminal_unit_cost_meur=150.0,
                capacity_mw=700.0,
                availability=0.99,
            )
        )
        value = revenue_per_delivered_kwh(50e6, link, 61 * 24)
        assert value == pytest.approx(0.0553797, abs=1e-6)
        sensitivity = revenue_per_delivered_kwh(50e6, link, 60 * 24)
        assert sensitivity == pytest.approx(0.0563027, abs=1e-6)

    def test_zero_revenue(self):
        assert revenue_per_delivered_kwh(0.0, simple_link(), 1464) == 0.0

    def test_rejects_zero_period(self):
        with pytest.raises(ValueError):
            revenue_per_delivered_kwh(1e6, simple_link(), 0.0)

    def test_rejects_zero_delivery(self):
        dead_link = dataclasses.replace(simple_link(), capacity_mw=0.0)
        with pytest.raises(ValueError):
            revenue_per_delivered_kwh(1e6, dead_link, 1464)


class TestImportCompetitiveness:
    def test_cheap_remote_beats_local_fossil(self):
        assert import_competitiveness(0.04, 0.023, 0.08) == pytest.approx(0.2125)

    def test_expensive_remote_loses(self):
        assert import_competitiveness(0.13, 0.035, 0.14) == pytest.approx(-0.1785714, abs=1e-6)

    def test_break_even(self):
        assert import_competitiveness(0.05, 0.03, 0.08) == 0.0

    def test_rejects_nonpositive_local_cost(self):
        with pytest.raises(ValueError):
            import_competitiveness(0.05, 0.03, 0.0)
