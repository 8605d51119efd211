import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridecon.dispatch import (
    DispatchNetwork,
    Interconnector,
    Region,
    curtailment_metrics,
    min_cost_flow,
    reserve_requirements,
    simulate,
    sinusoid_profile,
)

from dispatch_oracles import (
    PENALTY,
    energy_balance_residual,
    enumeration_oracle,
    lp_oracle,
    network,
    random_network,
    region,
)


# ---------------------------------------------------------------------------
# single-hour dispatch
# ---------------------------------------------------------------------------

class TestMinCostFlow:
    def test_single_region_single_generator(self):
        net = network([region("a", 5, [(10, 1.0)])])
        hour = min_cost_flow(net, [5])
        assert hour.generation_mw[0][0] == pytest.approx(5.0)
        assert hour.cost_eur == pytest.approx(5.0)
        assert hour.unserved_mw[0] == 0.0

    def test_merit_order_between_parallel_units(self):
        net = network([region("a", 5, [(3, 1.0), (3, 2.0)])])
        hour = min_cost_flow(net, [5])
        assert hour.generation_mw[0][0] == pytest.approx(3.0)
        assert hour.generation_mw[0][1] == pytest.approx(2.0)
        assert hour.cost_eur == pytest.approx(7.0)
        assert hour.prices_eur_per_mwh[0] == pytest.approx(2.0)

    def test_price_of_region_whose_unit_runs_at_its_rating(self):
        # The LP's dual is any price in [3, 20]; one more MWh costs 20.
        net = network([region("a", 5, [(5, 3.0), (4, 20.0)])])
        hour = min_cost_flow(net, [5])
        assert hour.generation_mw[0] == pytest.approx((5.0, 0.0))
        assert hour.prices_eur_per_mwh[0] == pytest.approx(20.0)

    def test_zero_demand_means_zero_flow(self):
        net = network(
            [region("a", 0, [(10, 1.0)]), region("b", 0, [(10, 2.0)])],
            [Interconnector("a", "b", 5, 0.95)],
        )
        hour = min_cost_flow(net, [0, 0])
        assert hour.flows_mw == (0.0,)
        assert hour.cost_eur == 0.0

    def test_shedding_at_penalty(self):
        net = network([region("a", 10, [(4, 1.0)])])
        hour = min_cost_flow(net, [10])
        assert hour.unserved_mw[0] == pytest.approx(6.0)
        assert hour.cost_eur == pytest.approx(4.0 + 6.0 * PENALTY)
        assert hour.prices_eur_per_mwh[0] == pytest.approx(PENALTY)

    def test_import_over_lossy_link(self):
        net = network(
            [region("a", 0, [(10, 0.0)]), region("b", 9, [(20, 100.0)])],
            [Interconnector("a", "b", 10, 0.9)],
        )
        hour = min_cost_flow(net, [0, 9])
        assert hour.flows_mw[0] == pytest.approx(10.0)  # sent
        assert hour.flows_mw[0] * 0.9 == pytest.approx(9.0)  # delivered
        assert hour.loss_mw == pytest.approx(1.0)
        assert sum(hour.generation_mw[1]) == pytest.approx(0.0)

    def test_flow_respects_capacity(self):
        net = network(
            [region("a", 0, [(10, 0.0)]), region("b", 9, [(20, 100.0)])],
            [Interconnector("a", "b", 5, 1.0)],
        )
        hour = min_cost_flow(net, [0, 9])
        assert hour.flows_mw[0] == pytest.approx(5.0)
        assert sum(hour.generation_mw[1]) == pytest.approx(4.0)

    def test_curtailment_counts_idle_res(self):
        net = network([region("a", 3, [(10, 0.0), (5, 50.0)])])
        hour = min_cost_flow(net, [3])
        assert hour.curtailed_res_mw[0] == pytest.approx(7.0)

    def test_import_price_includes_losses(self):
        net = network(
            [region("a", 0, [(100, 40.0)]), region("b", 9, [(20, 100.0)])],
            [Interconnector("a", "b", 50, 0.8)],
        )
        hour = min_cost_flow(net, [0, 9])
        assert hour.prices_eur_per_mwh[1] == pytest.approx(50.0)  # 40 / 0.8


class TestOracleEquivalence:
    def test_exhaustive_two_region_family(self):
        # every two-region network with one unit each, small integer grid
        for d1, d2, cap1, cost2, link_cap in itertools.product(
            range(0, 5, 2), range(0, 5, 2), range(0, 7, 3), (1, 4), range(0, 5, 2)
        ):
            net = network(
                [region("a", d1, [(cap1, 1.0)]), region("b", d2, [(4, float(cost2))])],
                [Interconnector("a", "b", link_cap, 1.0)],
            )
            hour = min_cost_flow(net, [d1, d2])
            expected = enumeration_oracle(net, [d1, d2])
            assert hour.cost_eur == pytest.approx(expected, abs=1e-9)

    def test_randomized_integer_fixtures(self):
        rng = random.Random(1234)
        for _ in range(200):
            net = random_network(rng, max_regions=3, integer=True, max_links=2)
            demands = [r.demand_profile_mw[0] for r in net.regions]
            hour = min_cost_flow(net, demands)
            expected = enumeration_oracle(net, demands)
            assert hour.cost_eur == pytest.approx(expected, abs=1e-9)

    def test_randomized_lossy_fixtures_match_lp(self):
        rng = random.Random(99)
        for _ in range(200):
            net = random_network(rng)
            demands = [r.demand_profile_mw[0] for r in net.regions]
            hour = min_cost_flow(net, demands)
            expected = lp_oracle(net, demands)
            assert hour.cost_eur == pytest.approx(expected, rel=1e-9, abs=1e-6)


class TestSimulate:
    def test_isolated_identical_regions_self_dispatch(self):
        regions = [
            region("a", sinusoid_profile(100), [(200, 10.0)]),
            region("b", sinusoid_profile(100), [(200, 10.0)]),
        ]
        result = simulate(network(regions), 24)
        for hour in result.hourly:
            assert hour.flows_mw == ()
            for ri in range(2):
                assert sum(hour.generation_mw[ri]) == pytest.approx(hour.demand_mw[ri])

    def test_interconnection_displaces_remote_peaker(self):
        def build(link_cap):
            regions = [
                region("wind", sinusoid_profile(1000), [(2600, 0.0)], tz=0),
                region("peak", sinusoid_profile(1000), [(600, 30.0), (500, 90.0)], tz=12),
            ]
            return network(regions, [Interconnector("wind", "peak", link_cap, 0.94)])

        linked = simulate(build(800.0), 24)
        isolated = simulate(build(0.0), 24)
        peaker_linked = sum(h.generation_mw[1][1] for h in linked.hourly)
        peaker_isolated = sum(h.generation_mw[1][1] for h in isolated.hourly)
        assert peaker_linked < peaker_isolated
        assert linked.total_cost_eur < isolated.total_cost_eur

    def test_delivered_equals_sent_times_efficiency(self):
        regions = [
            region("a", 0, [(50, 0.0)]),
            region("b", 30, [(100, 80.0)]),
        ]
        result = simulate(network(regions, [Interconnector("a", "b", 40, 0.9)]), 6)
        for hour in result.hourly:
            sent = hour.flows_mw[0]
            delivered = sent * 0.9
            assert hour.served_mw[1] == pytest.approx(
                delivered + sum(hour.generation_mw[1]), abs=1e-6
            )

    def test_timezone_offset_shifts_profile(self):
        shifted = region("x", sinusoid_profile(100), [(200, 1.0)], tz=12)
        assert shifted.demand_at(0) == pytest.approx(sinusoid_profile(100)[12])
        assert shifted.demand_at(12) == pytest.approx(sinusoid_profile(100)[0])

    def test_rejects_empty_horizon(self):
        with pytest.raises(ValueError):
            simulate(network([region("a", 1, [(1, 1.0)])]), 0)


class TestEnergyBalance:
    def test_balance_on_randomized_fixtures(self):
        rng = random.Random(7)
        for _ in range(200):
            net = random_network(rng)
            demands = [r.demand_profile_mw[0] for r in net.regions]
            hour = min_cost_flow(net, demands)
            assert abs(energy_balance_residual(hour)) < 1e-6
            for flow, ic in zip(hour.flows_mw, net.interconnectors):
                assert abs(flow) <= ic.capacity_mw + 1e-6
            for units, reg in zip(hour.generation_mw, net.regions):
                for produced, (cap, _) in zip(units, reg.generators):
                    assert -1e-9 <= produced <= cap + 1e-6
                assert all(c >= -1e-9 for c in hour.curtailed_res_mw)


class TestPriceComplementarySlackness:
    """Prices against the LP optimality conditions, not against the label code:
    a unit, link or shedding variable strictly inside its bounds fixes a price."""

    INTERIOR = 1e-6  # MW kept from either bound before a variable counts as interior

    def interior(self, value, upper):
        return self.INTERIOR < value < upper - self.INTERIOR

    def test_interior_variables_fix_prices(self):
        rng = random.Random(4242)
        settings = [
            {},
            {"max_regions": 3, "integer": True, "max_links": 2},
            {"max_regions": 6, "max_links": 10},
        ]
        checks = 0
        for kwargs in settings:
            for _ in range(400):
                net = random_network(rng, **kwargs)
                demands = [r.demand_profile_mw[0] for r in net.regions]
                hour = min_cost_flow(net, demands)
                price = dict(zip((r.name for r in net.regions), hour.prices_eur_per_mwh))
                for reg, units, shed, demand in zip(
                    net.regions, hour.generation_mw, hour.unserved_mw, demands
                ):
                    for (cap, cost), produced in zip(reg.generators, units):
                        if self.interior(produced, cap):
                            assert price[reg.name] == pytest.approx(cost, rel=1e-6, abs=1e-6)
                            checks += 1
                    if self.interior(shed, demand):
                        assert price[reg.name] == pytest.approx(PENALTY, rel=1e-6, abs=1e-6)
                        checks += 1
                for ic, flow in zip(net.interconnectors, hour.flows_mw):
                    if self.interior(abs(flow), ic.capacity_mw):
                        sender, receiver = (
                            (ic.region_a, ic.region_b) if flow > 0 else (ic.region_b, ic.region_a)
                        )
                        assert price[receiver] * ic.efficiency == pytest.approx(
                            price[sender], rel=1e-6, abs=1e-6
                        )
                        checks += 1
        assert checks > 1000


class TestMonotonicityProperties:
    def test_adding_capacity_never_increases_cost(self):
        rng = random.Random(2024)
        for _ in range(200):
            net = random_network(rng, max_regions=3, max_links=2)
            if not net.interconnectors:
                continue
            demands = [r.demand_profile_mw[0] for r in net.regions]
            base_cost = min_cost_flow(net, demands).cost_eur
            grown = DispatchNetwork(
                regions=net.regions,
                interconnectors=tuple(
                    Interconnector(ic.region_a, ic.region_b, ic.capacity_mw + 5.0, ic.efficiency)
                    for ic in net.interconnectors
                ),
                unserved_penalty_eur_per_mwh=net.unserved_penalty_eur_per_mwh,
            )
            assert min_cost_flow(grown, demands).cost_eur <= base_cost + 1e-6

    def test_cost_scaling_leaves_dispatch_unchanged(self):
        rng = random.Random(55)
        for _ in range(200):
            net = random_network(rng, max_regions=3, max_links=3)
            demands = [r.demand_profile_mw[0] for r in net.regions]
            factor = rng.choice([0.25, 2.5, 10.0])
            scaled_net = DispatchNetwork(
                regions=tuple(
                    Region(
                        name=r.name,
                        tz_offset_hours=r.tz_offset_hours,
                        demand_profile_mw=r.demand_profile_mw,
                        generators=tuple((cap, cost * factor) for cap, cost in r.generators),
                    )
                    for r in net.regions
                ),
                interconnectors=net.interconnectors,
                unserved_penalty_eur_per_mwh=net.unserved_penalty_eur_per_mwh * factor,
            )
            base = min_cost_flow(net, demands)
            scaled = min_cost_flow(scaled_net, demands)
            assert scaled.cost_eur == pytest.approx(base.cost_eur * factor, rel=1e-9, abs=1e-6)
            for a, b in zip(base.flows_mw, scaled.flows_mw):
                assert b == pytest.approx(a, abs=1e-6)
            for a_units, b_units in zip(base.generation_mw, scaled.generation_mw):
                for a, b in zip(a_units, b_units):
                    assert b == pytest.approx(a, abs=1e-6)


class TestCurtailmentMetrics:
    def night_wind_networks(self, link_cap):
        regions = [
            region("wind", 2, [(10, 0.0)]),
            region("load", 10, [(12, 50.0)]),
        ]
        return network(regions, [Interconnector("wind", "load", link_cap, 0.95)])

    def test_unconstrained_link_ends_curtailment(self):
        baseline = simulate(self.night_wind_networks(0.0), 24)
        linked = simulate(self.night_wind_networks(100.0), 24)
        metrics = curtailment_metrics(linked, baseline)
        assert metrics.baseline_curtailed_gwh > 0
        assert metrics.curtailed_gwh == pytest.approx(0.0, abs=1e-9)
        assert metrics.curtailment_reduction_pct == pytest.approx(100.0)
        assert metrics.cost_reduction_pct > 0

    def test_identical_runs_have_zero_deltas(self):
        result = simulate(self.night_wind_networks(50.0), 12)
        metrics = curtailment_metrics(result, result)
        assert metrics.curtailment_reduction_pct == 0.0
        assert metrics.cost_reduction_pct == 0.0
        assert metrics.mean_price_spread_eur_per_mwh == metrics.baseline_mean_price_spread_eur_per_mwh

    def test_link_narrows_price_spread(self):
        rng = random.Random(31)
        for _ in range(100):
            n_regions = rng.randint(2, 3)
            names = [f"r{i}" for i in range(n_regions)]
            regions = [
                region(
                    name,
                    sinusoid_profile(rng.uniform(5, 10)),
                    [(rng.uniform(0, 10), rng.choice([0.0, rng.uniform(1, 100)])) for _ in range(2)],
                    tz=rng.choice([0, 6, 12]),
                )
                for name in names
            ]
            a, b = rng.sample(names, 2)
            base_net = network(regions, [Interconnector(a, b, 0.0, 0.9)], penalty=1000.0)
            link_net = network(regions, [Interconnector(a, b, rng.uniform(1, 8), 0.9)], penalty=1000.0)
            baseline = simulate(base_net, 8)
            linked = simulate(link_net, 8)
            metrics = curtailment_metrics(linked, baseline)
            assert (
                metrics.mean_price_spread_eur_per_mwh
                <= metrics.baseline_mean_price_spread_eur_per_mwh + 1e-6
            )

    def test_rejects_mismatched_horizons(self):
        result = simulate(self.night_wind_networks(10.0), 4)
        baseline = simulate(self.night_wind_networks(0.0), 8)
        with pytest.raises(ValueError, match="horizons"):
            curtailment_metrics(result, baseline)


class TestReserveRequirements:
    def test_antiphase_peaks_share_reserves(self):
        regions = [
            region("a", sinusoid_profile(1000), [(2000, 10.0)], tz=0),
            region("b", sinusoid_profile(1000), [(2000, 10.0)], tz=12),
        ]
        req = reserve_requirements(network(regions), alpha=0.1)
        assert req.isolated_total_mw == pytest.approx(200.0)
        assert req.shared_mw == pytest.approx(150.0)  # coincident peak is 1500 MW
        assert req.shared_mw < req.isolated_total_mw

    def test_single_region_shares_nothing(self):
        regions = [region("a", sinusoid_profile(1000), [(2000, 10.0)])]
        req = reserve_requirements(network(regions), alpha=0.1)
        assert req.shared_mw == pytest.approx(req.isolated_total_mw)

    def test_identical_phase_gives_no_benefit(self):
        regions = [
            region("a", sinusoid_profile(1000), [(2000, 10.0)]),
            region("b", sinusoid_profile(800), [(2000, 10.0)]),
        ]
        req = reserve_requirements(network(regions), alpha=0.1)
        assert req.shared_mw == pytest.approx(req.isolated_total_mw)

    def test_no_credit_means_isolated_sum(self):
        regions = [
            region("a", sinusoid_profile(1000), [(2000, 10.0)], tz=0),
            region("b", sinusoid_profile(1000), [(2000, 10.0)], tz=12),
        ]
        req = reserve_requirements(network(regions), alpha=0.1, link_headroom_credit=False)
        assert req.shared_mw == pytest.approx(req.isolated_total_mw)

    def test_shared_never_exceeds_isolated_sum(self):
        rng = random.Random(17)
        for _ in range(200):
            n_regions = rng.randint(1, 4)
            regions = [
                region(
                    f"r{i}",
                    sinusoid_profile(rng.uniform(1, 1000), trough_fraction=rng.uniform(0, 1)),
                    [(10, 1.0)],
                    tz=rng.randrange(24),
                )
                for i in range(n_regions)
            ]
            alpha = rng.uniform(0.01, 1.0)
            req = reserve_requirements(network(regions), alpha=alpha)
            assert req.shared_mw <= req.isolated_total_mw + 1e-9

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            reserve_requirements(network([region("a", 1, [(1, 1.0)])]), alpha=0.0)


class TestSinusoidProfile:
    def test_shape(self):
        profile = sinusoid_profile(1000.0)
        assert len(profile) == 24
        assert max(profile) == pytest.approx(1000.0)
        assert profile[12] == pytest.approx(1000.0)
        assert profile[0] == pytest.approx(500.0)  # trough at half of peak

    @settings(max_examples=100, deadline=None)
    @given(
        peak=st.floats(min_value=0.0, max_value=1e5),
        trough=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_bounds(self, peak, trough):
        profile = sinusoid_profile(peak, trough_fraction=trough)
        assert all(peak * trough - 1e-9 <= v <= peak + 1e-9 for v in profile)


def test_validation_errors():
    with pytest.raises(ValueError):
        Region("a", 0, (1.0,) * 23, ((1, 1),))
    with pytest.raises(ValueError):
        Region("a", 0, (-1.0,) * 24, ((1, 1),))
    with pytest.raises(ValueError):
        Interconnector("a", "a", 10, 1.0)
    with pytest.raises(ValueError):
        Interconnector("a", "b", 10, 0.0)
    with pytest.raises(ValueError):
        network([region("a", 1, [(1, 1)]), region("a", 1, [(1, 1)])])
    with pytest.raises(ValueError):
        network([region("a", 1, [(1, 1)])], [Interconnector("a", "b", 1, 1.0)])
    with pytest.raises(ValueError):
        min_cost_flow(network([region("a", 1, [(1, 1)])]), (1.0, 2.0))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: Region("a", 0, (math.nan,) * 24), id="nan-demand"),
        pytest.param(lambda: Region("a", 0, (1.0,) * 23 + (math.inf,)), id="inf-demand"),
        pytest.param(lambda: Region("a", 0, (1.0,) * 24, ((math.nan, 1.0),)), id="nan-generator-capacity"),
        pytest.param(lambda: Region("a", 0, (1.0,) * 24, ((math.inf, 0.0),)), id="inf-generator-capacity"),
        pytest.param(lambda: Region("a", 0, (1.0,) * 24, ((1.0, math.nan),)), id="nan-generator-cost"),
        pytest.param(lambda: Region("a", 0, (1.0,) * 24, ((1.0, math.inf),)), id="inf-generator-cost"),
        pytest.param(lambda: Interconnector("a", "b", math.nan), id="nan-link-capacity"),
        pytest.param(lambda: Interconnector("a", "b", math.inf), id="inf-link-capacity"),
        pytest.param(
            lambda: DispatchNetwork((Region("a"),), unserved_penalty_eur_per_mwh=math.nan), id="nan-penalty"
        ),
        pytest.param(
            lambda: DispatchNetwork((Region("a"),), unserved_penalty_eur_per_mwh=math.inf), id="inf-penalty"
        ),
        pytest.param(lambda: sinusoid_profile(math.nan), id="nan-peak"),
        pytest.param(lambda: sinusoid_profile(math.inf), id="inf-peak"),
    ],
)
def test_non_finite_values_are_rejected(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()
