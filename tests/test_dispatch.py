import ast
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridecon import _highs, cli, dispatch
from gridecon.datasets import load_bundled_scenario
from gridecon.dispatch import (
    DispatchNetwork,
    DispatchResult,
    HourlyDispatch,
    Interconnector,
    Region,
    curtailment_metrics,
    export_csv,
    min_cost_flow,
    reserve_requirements,
    simulate,
    sinusoid_profile,
)

from dispatch_oracles import (
    PENALTY,
    ArcListProblem,
    crash_statuses,
    delivery_price_labels,
    energy_balance_residual,
    enumeration_oracle,
    hourly_demand,
    lp_oracle,
    network,
    random_network,
    reference_decode,
    region,
    ring_network,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
REPO = Path(__file__).parents[1]


def printed(net, hours):
    """The export_csv text of ``hours``, hours of ``net`` in that order."""
    return export_csv(DispatchResult(net, tuple(hours)))


def large_ring(seed):
    """A seeded ring whose LP is large enough for simulate's thread pool:
    8 columns per region (3 units, 2 links each way, shedding)."""
    n_regions = dispatch._THREADED_MIN_ARCS // 8 + 1
    return ring_network(seed, n_regions, n_chords=n_regions)


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

    def test_curtailment_is_a_float_in_every_region(self):
        # Region b has no zero-cost unit, so nothing is ever curtailed there.
        net = network(
            [region("a", 2, [(10, 0.0)]), region("b", 2, [(10, 1.0)])],
            [Interconnector("a", "b", 5, 0.95)],
        )
        hour = min_cost_flow(net, [2, 2])
        assert [type(value) for value in hour.curtailed_res_mw] == [float, float]
        assert hour.curtailed_res_mw[1] == 0.0

    def test_shedding_at_penalty(self):
        net = network([region("a", 10, [(4, 1.0)])])
        hour = min_cost_flow(net, [10])
        assert hour.unserved_mw[0] == pytest.approx(6.0)
        assert hour.cost_eur == pytest.approx(4.0 + 6.0 * PENALTY)
        assert hour.prices_eur_per_mwh[0] == pytest.approx(PENALTY)

    def test_unit_priced_above_the_penalty_stays_idle(self):
        net = network([region("a", 5, [(10, 2 * PENALTY)])])
        hour = min_cost_flow(net, [5])
        assert hour.generation_mw[0] == pytest.approx((0.0,), abs=1e-9)
        assert hour.unserved_mw[0] == pytest.approx(5.0)
        assert hour.prices_eur_per_mwh[0] == PENALTY

    def test_unit_priced_far_above_the_penalty_changes_nothing(self):
        # A unit that never runs (shedding is cheaper) must not push every other
        # cost below HiGHS's dual tolerance: however high windland's 60 EUR unit
        # is repriced above the penalty, the demo prints the same.
        demo = load_bundled_scenario("smoothing").require("network")
        windland, *others = demo.regions
        texts = []
        for price in (1e5, 1e12, 1e300):
            units = tuple((cap, price if cost == 60.0 else cost) for cap, cost in windland.generators)
            repriced = dataclasses.replace(windland, generators=units)
            texts.append(export_csv(simulate(dataclasses.replace(demo, regions=(repriced, *others)), 24)))
        assert texts[1:] == texts[:1] * 2

    @pytest.mark.parametrize("demand", [1e20, 1e308])
    def test_demand_that_highs_reads_as_infinite_fails(self, demand):
        # HiGHS takes any bound of 1e20 or more for infinity and rejects the
        # model; a solve must not go on with whatever model it holds.
        net = network([region("a", 5, [(10, 1.0)])])
        with pytest.raises(ValueError, match="^dispatch LP failed"):
            min_cost_flow(net, [demand])

    def test_demand_just_below_highs_infinity_is_shed(self):
        net = network([region("a", 5, [(10, 1.0)])])
        hour = min_cost_flow(net, [1e19])
        assert hour.generation_mw[0] == pytest.approx((10.0,))
        assert hour.unserved_mw[0] == 1e19
        assert hour.prices_eur_per_mwh[0] == PENALTY

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

    @pytest.mark.parametrize("hours", [2.5, 2.0])
    def test_rejects_fractional_horizon(self, hours):
        with pytest.raises(ValueError, match=f"^hours must be a whole number, got {hours}$"):
            simulate(network([region("a", 1, [(1, 1.0)])]), hours)

    def test_rejects_horizon_past_the_largest_tuple(self):
        # No tuple holds more than sys.maxsize hours; the bound is checked
        # before any hour is solved.
        hours = sys.maxsize + 1
        with pytest.raises(ValueError, match=f"^hours must be <= {sys.maxsize}, got {hours}$"):
            simulate(network([region("a", 1, [(1, 1.0)])]), hours)


class TestRepeatedHours:
    """simulate solves each distinct demand vector once and reuses the result."""

    @pytest.fixture
    def smoothing(self):
        return load_bundled_scenario("smoothing").require("network")

    def test_each_distinct_hour_is_solved_once(self, smoothing, monkeypatch):
        solve, demands = _highs._solve_hour, []

        def counting(problem, demand):
            demands.append(tuple(demand))
            return solve(problem, demand)

        monkeypatch.setattr(_highs, "_solve_hour", counting)
        result = simulate(smoothing, 168)
        assert len(demands) == len(set(demands)) == 13
        for t, hour in enumerate(result.hourly):
            demand = tuple(region.demand_at(t) for region in smoothing.regions)
            assert hour == min_cost_flow(smoothing, demand)

    def test_year_repeats_the_first_day(self, smoothing):
        result = simulate(smoothing, 8760)
        assert all(hour is result.hourly[t % 24] for t, hour in enumerate(result.hourly))
        golden = GOLDEN_DIR / "simulate_24h.txt"
        first_day = golden.read_text(encoding="utf-8").splitlines()[:49]
        assert export_csv(result).splitlines()[:49] == first_day

    @pytest.mark.parametrize("hours", [1, 23, 24, 25, 47, 49, 8760])
    def test_hours_share_the_object_of_their_first_demand(self, hours):
        # Every hour is the object solved for the first hour with its demand,
        # on the tiled horizon and on a part of a day alike.
        net = ring_network("25:1", n_regions=6, n_chords=3)
        result = simulate(net, hours)
        demands = [hourly_demand(net, t) for t in range(hours)]
        first = {}
        for t, demand in enumerate(demands):
            first.setdefault(demand, t)
        assert result.n_hours == hours
        assert all(hour is result.hourly[first[d]] for hour, d in zip(result.hourly, demands))
        assert all(hour.demand_mw == d for hour, d in zip(result.hourly, demands))

    def test_a_year_reads_one_day_of_demand(self, monkeypatch):
        # Demand repeats every 24 h, so a year reads at most one day of it.
        net = ring_network("25:2", n_regions=5, n_chords=2)
        calls = []
        demand_at = Region.demand_at

        def counting(region, hour):
            calls.append(hour)
            return demand_at(region, hour)

        monkeypatch.setattr(Region, "demand_at", counting)
        simulate(net, 8760)
        assert len(calls) <= 24 * len(net.regions)
        calls.clear()
        reserve_requirements(net, 0.1)
        assert len(calls) <= 24 * len(net.regions)

    def test_first_day_rotates_each_profile(self):
        # Offsets from -50 to 50, each region with a profile of its own; the
        # day holds the very values demand_at reads.
        regions = [Region(f"r{o}", o, tuple(float((o + 50) * 100 + h) for h in range(24))) for o in range(-50, 51)]
        net = DispatchNetwork(tuple(regions))
        for hours in range(1, 31):
            expected = [tuple(r.demand_at(t) for r in regions) for t in range(min(hours, 24))]
            day = dispatch._first_day(net, hours)
            assert day == expected
            assert all(map(operator.is_, itertools.chain(*day), itertools.chain(*expected)))

    def test_benchmark_tracer_counts_one_solve_per_distinct_hour(self):
        # Under the benchmark's tracer the memo holds: one engine solve per
        # distinct demand vector, none through min_cost_flow, and tracing
        # leaves the output as it is. Run in a child: the tracer rewires
        # gridecon's modules.
        code = textwrap.dedent(
            """
            import json
            import gridecon.dispatch as dispatch
            from gridecon import _highs, datasets
            from tracer import Tracer

            network = datasets.load_bundled_scenario("smoothing").require("network")
            distinct = {tuple(r.demand_at(t) for r in network.regions) for t in range(48)}
            plain = dispatch.export_csv(dispatch.simulate(network, 48))
            tracer = Tracer()
            tracer.install()
            solve, solves = _highs._solve_hour, []

            def counting(problem, demand):
                solves.append(demand)
                return solve(problem, demand)

            _highs._solve_hour = counting
            traced = dispatch.export_csv(dispatch.simulate(network, 48))
            tracer.end_op()
            print(json.dumps({"same": plain == traced, "distinct": len(distinct), "solves": len(solves),
                              **tracer.totals()}))
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(REPO / "src"), str(REPO / "bench"))))
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        totals = json.loads(child.stdout)
        assert totals["same"]
        assert totals["solves"] == totals["distinct"] == 13
        assert "dispatch.min_cost_flow" not in totals["calls"]

    def test_one_highs_solve_per_distinct_hour(self, smoothing, monkeypatch):
        solve = _highs._solve_hour
        demands = []

        def counting(problem, demand):
            demands.append(demand)
            return solve(problem, demand)

        monkeypatch.setattr(_highs, "_solve_hour", counting)
        simulate(smoothing, 48)
        assert len(demands) == len(set(demands)) == 13


@st.composite
def small_networks(draw):
    """Networks of up to 5 regions and 6 links: regions without units, free
    units, units priced above the penalty, efficiency-1, parallel and
    reversed links, and no links at all."""
    penalty = draw(st.sampled_from([PENALTY, 50.0]))
    names = [f"r{i}" for i in range(draw(st.integers(1, 5)))]
    cost = st.one_of(st.just(0.0), st.floats(0.01, 100.0), st.floats(penalty, 3 * penalty))
    units = st.lists(st.tuples(st.floats(0.0, 100.0), cost), max_size=3)
    regions = [Region(name, generators=draw(units)) for name in names]
    ends = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True) if len(names) > 1 else st.nothing()
    efficiency = st.one_of(st.just(1.0), st.floats(0.5, 1.0, exclude_min=True))
    capacity = st.one_of(st.floats(0.0, 100.0), st.integers(0, 100))
    links = st.builds(lambda ends, cap, eff: Interconnector(*ends, cap, eff), ends, capacity, efficiency)
    return network(regions, draw(st.lists(links, max_size=6)), penalty)


def float_bits(value):
    """Each number in ``value`` as its type and ``float.hex``, through any
    nesting of tuples."""
    if isinstance(value, tuple):
        return tuple(map(float_bits, value))
    return type(value), float(value).hex()


class TestCompiledProblem:
    """Each network builds its LP once, on its first solve, and keeps it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []

        class Counting(_highs._Problem):
            def __init__(self, net):
                built.append(net)
                super().__init__(net)

        monkeypatch.setattr(_highs, "_Problem", Counting)
        return built

    def test_repeated_solves_build_one_problem(self, builds):
        # The first solve starts cold, the others from its basis: the same
        # optimum, in the printed text.
        net = ring_network("10:41", n_regions=10, n_chords=10)
        demand = hourly_demand(net, 13)
        first, *again = [printed(net, [min_cost_flow(net, demand)]) for _ in range(3)]
        simulate(net, 24)
        assert builds == [net]
        assert again == [first, first]

    def test_replaced_network_gets_its_own_problem(self, builds):
        link = Interconnector("a", "b", 40.0, 0.9)
        net = network([region("a", 0, [(100, 0.0)]), region("b", 30, [(100, 80.0)])], [link])
        wide = min_cost_flow(net, (0.0, 30.0))
        narrow_net = dataclasses.replace(net, interconnectors=(dataclasses.replace(link, capacity_mw=10.0),))
        narrow = min_cost_flow(narrow_net, (0.0, 30.0))
        assert builds == [net, narrow_net]
        assert wide.flows_mw == pytest.approx((30.0 / 0.9,))
        assert narrow.flows_mw == pytest.approx((10.0,))
        assert narrow == min_cost_flow(network(narrow_net.regions, narrow_net.interconnectors), (0.0, 30.0))
        assert min_cost_flow(net, (0.0, 30.0)) == wide

    def test_concurrent_hours_build_one_problem(self, builds, monkeypatch):
        monkeypatch.setattr(dispatch, "_cpu_count", lambda: 2)
        net = large_ring("76:5")
        simulate(net, 24)
        assert builds == [net]

    @settings(max_examples=200, deadline=None)
    @given(small_networks())
    @example(network(
        # A region without units, a free unit, one priced above the penalty,
        # efficiency-1 links, parallel links and one with reversed endpoints.
        [region("a", 1, []), region("b", 2, [(5, 0.0), (3, 2 * PENALTY)]), region("c", 0, [(4, 1.0)])],
        [Interconnector("a", "b", 3, 1.0), Interconnector("b", "a", 2.5, 0.9), Interconnector("a", "b", 1, 0.8),
         Interconnector("c", "b", 7, 1.0)],
    ))
    @example(network([region("a", 1, [(5, 0.0)])]))
    def test_array_build_equals_the_arc_list_build(self, net):
        problem, reference = _highs._Problem(net), ArcListProblem(net)
        # repr tells each float apart to the bit, -0.0 from 0.0, and an int from a float.
        for name in ("costs", "objective", "capacities", "heads", "tails", "gains", "link_columns", "loss_share"):
            assert repr(getattr(problem, name).tolist()) == repr(getattr(reference, name).tolist()), name
        for name in ("unit_counts", "free_units", "first_shed", "n_arcs", "penalty", "lower"):
            assert repr(getattr(problem, name)) == repr(getattr(reference, name)), name
        balance = problem.balance
        assert (balance.num_col_, balance.num_row_) == (reference.n_arcs, len(net.regions))
        assert balance.start_ == reference.start_ and balance.index_ == reference.index_
        assert repr(balance.value_) == repr(list(map(float, reference.value_)))
        # The decode's views of the same columns.
        columns = list(range(reference.n_arcs))
        assert [columns[s] for s in problem.unit_slices] == [
            columns[j : j + n] for j, n in zip(itertools.accumulate([0, *reference.unit_counts]), reference.unit_counts)
        ]
        assert columns[problem.first_link : problem.first_shed : 2] == [j for j, _ in reference.links]
        assert repr(problem.link_losses) == repr([lost for _, lost in reference.links])
        assert repr(problem.fixed_upper) == repr(reference.capacities[: reference.first_shed].tolist())

    @pytest.mark.parametrize(
        "build, past_demand",
        [
            pytest.param(lambda: ring_network("32:1", n_regions=12, n_chords=12), 0.0, id="ring-12"),
            pytest.param(lambda: ring_network("32:2", n_regions=20, n_chords=5), 0.0, id="ring-20"),
            pytest.param(lambda: large_ring("32:3"), 0.0, id="ring-51"),
            pytest.param(lambda: load_bundled_scenario("smoothing").require("network"), 0.0, id="demo"),
            pytest.param(lambda: network(
                [region("a", tuple(range(0, 2400, 100)), [(900, 0.0), (600, 40.0)]),
                 region("b", (10**7,) * 12 + (0,) * 12, [(1500, 25.0)], tz=5)],
                [Interconnector("a", "b", 400, 0.9)],
            ), 0.0, id="integer-demand"),
            # Every region sheds a little past its demand, as HiGHS may within
            # its tolerance: unserved is capped at demand, the cost is not.
            pytest.param(lambda: ring_network("32:4", n_regions=10, n_chords=5), 1e-6, id="shedding-past-demand"),
        ],
    )
    def test_decode_equals_the_reference_decode(self, build, past_demand, monkeypatch):
        # Every field of every hour, to the bit, from the same LP columns.
        net = build()
        solve, solved = _highs._solve_hour, []

        def recording(problem, demand):
            x, prices = solve(problem, demand)
            if past_demand:
                x[problem.first_shed :] = np.add(demand, past_demand)
            solved.append((x.copy(), prices))
            return x, prices

        monkeypatch.setattr(_highs, "_solve_hour", recording)
        for demand in dispatch._first_day(net, 24):
            hour = min_cost_flow(net, demand)
            reference = reference_decode(net, demand, *solved.pop())
            for field in dataclasses.fields(HourlyDispatch):
                new, old = getattr(hour, field.name), getattr(reference, field.name)
                assert new == old and float_bits(new) == float_bits(old), field.name

    def test_tabulate_gives_the_bits_of_decode(self):
        # What a simulate result's totals and export read of its hours, to
        # the bit, against the fields decode gives the same columns. Region
        # a's three free units add up to other bits in any other order, and
        # shedding runs past demand in some hours.
        net = network(
            [region("a", 3, [(1e16, 0.0), (1.0, 0.0), (1.0, 0.0)]),
             region("b", 2, [(1.0, 0.0), (1e16, 0.0), (5.0, 3.0)]), region("c", 1, [])],
            [Interconnector("a", "b", 4.0, 0.9), Interconnector("c", "b", 1.0, 0.8)],
        )
        problem, rng = net._problem, random.Random(38)
        demands = [(3.0, 2.0, 1.0), (0, 7, 0.25), (1e-9, 0.0, 2.5), (0.5, 1, 3)]
        values = np.array([[rng.choice([0.0, 0.25, 1.0, 3e-17, 1e16, 2.5]) for _ in range(problem.n_arcs)]
                           for _ in demands])
        values[0, :3] = 0.0
        idle = [1e16, 1.0, 1.0]  # region a's idle capacity in hour 0
        assert ((0.0 + idle[0]) + idle[1]) + idle[2] != ((0.0 + idle[2]) + idle[1]) + idle[0]
        generation, curtailed, unserved, sums = problem.tabulate(demands, values)
        for k, demand in enumerate(demands):
            hour = HourlyDispatch(demand_mw=demand, **problem.decode(demand, values[k], [0.0] * 3))
            expected = [list(map(sum, hour.generation_mw)), hour.curtailed_res_mw, hour.unserved_mw,
                        (hour.cost_eur, sum(hour.curtailed_res_mw), sum(hour.unserved_mw))]
            got = [generation[k], curtailed[k], unserved[k], sums[:, k]]
            for name, new, old in zip(("generation", "curtailed", "unserved", "sums"), got, expected):
                assert [v.hex() for v in new.tolist()] == [float(v).hex() for v in old], (k, name)

    def test_equal_networks_give_equal_results(self):
        one = ring_network("20:1", n_regions=20, n_chords=20)
        other = ring_network("20:1", n_regions=20, n_chords=20)
        assert one == other and one is not other
        assert simulate(one, 24).hourly == simulate(other, 24).hourly
        assert one._problem is not other._problem
        assert hash(one) == hash(other)


class TestConcurrentHours:
    """A network of at least dispatch._THREADED_MIN_ARCS LP columns solves its
    distinct hours in one run per CPU, the first on the calling thread and
    each other on a thread of its own, with the results and errors of the
    serial loop; a smaller one stays on the calling thread."""

    WORKER = "gridecon-simulate-run-{}"  # the name simulate gives the thread of run k

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(dispatch, "_cpu_count", lambda: 2)

    @staticmethod
    def record_threads(monkeypatch):
        solve, threads = _highs._solve_hour, []

        def recording(problem, demand):
            threads.append((threading.current_thread(), tuple(demand)))
            return solve(problem, demand)

        monkeypatch.setattr(_highs, "_solve_hour", recording)
        return threads

    def test_hours_equal_single_hour_solves(self, monkeypatch):
        # The calling thread solves exactly the first run, hours 0-11.
        net = large_ring("76:3")
        threads = self.record_threads(monkeypatch)
        result = simulate(net, 48)
        caller, day = threading.current_thread(), [hourly_demand(net, t) for t in range(24)]
        assert len(threads) == 24 and len({thread for thread, _ in threads}) == 2
        assert [day.index(demand) for thread, demand in threads if thread is caller] == list(range(12))
        assert export_csv(result) == printed(net, [min_cost_flow(net, hourly_demand(net, t)) for t in range(48)])

    @staticmethod
    def record_runs(monkeypatch, cpus):
        """Each thread's hours of a 24 h simulate on ``cpus`` CPUs, in the
        order it solved them."""
        monkeypatch.setattr(dispatch, "_cpu_count", lambda: cpus)
        net = large_ring("76:3")
        hour_of = {hourly_demand(net, t): t for t in range(24)}
        solve, runs = _highs._solve_hour, {}

        def recording(problem, demand):
            # By thread object: a finished thread's ident can be reused.
            runs.setdefault(threading.current_thread(), []).append(hour_of[tuple(demand)])
            return solve(problem, demand)

        monkeypatch.setattr(_highs, "_solve_hour", recording)
        simulate(net, 24)
        return sorted(runs.values())

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_each_thread_solves_one_run_of_hours_in_time_order(self, cpus, monkeypatch):
        size = 24 // cpus
        assert self.record_runs(monkeypatch, cpus) == [list(range(k, k + size)) for k in range(0, 24, size)]

    def test_a_thread_that_starts_late_still_gets_a_run(self, monkeypatch):
        # The thread of the third run starts long after the second has solved
        # its run, and no other thread may take the third run meanwhile.
        start, delayed = threading.Thread.start, []

        def late_third(thread):
            if thread.name == self.WORKER.format(2):
                delayed.append(thread.name)
                time.sleep(0.5)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", late_third)
        assert self.record_runs(monkeypatch, 3) == [list(range(k, k + 8)) for k in range(0, 24, 8)]
        assert delayed == [self.WORKER.format(2)]

    def test_a_thread_that_cannot_start_fails_without_hanging(self, monkeypatch):
        # The thread of the second run never starts; the call ends with its error.
        start, refused = threading.Thread.start, []

        def failing_second(thread):
            if thread.name == self.WORKER.format(1):
                refused.append(thread.name)
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", failing_second)
        net, failures = large_ring("76:3"), []

        def solve():
            try:
                simulate(net, 24)
            except RuntimeError as exc:
                failures.append(str(exc))

        caller = threading.Thread(target=solve)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert failures == ["can't start new thread"]
        assert refused == [self.WORKER.format(1)]

    def test_earliest_failing_hour_is_named(self, monkeypatch):
        net = large_ring("76:3")
        solve = _highs._solve_hour
        early, late = hourly_demand(net, 5), hourly_demand(net, 17)
        late_failed = threading.Event()

        def fail(problem, demand):
            if demand == early:
                late_failed.wait(timeout=10)  # hour 5 fails after hour 17 has
            elif demand == late:
                late_failed.set()
            else:
                return solve(problem, demand)
            raise ValueError("dispatch LP failed: injected")

        monkeypatch.setattr(_highs, "_solve_hour", fail)
        with pytest.raises(ValueError, match="^hour 5: dispatch LP failed: injected$"):
            simulate(net, 24)
        assert late_failed.is_set()

    def test_a_failure_in_a_started_threads_run_is_raised(self, monkeypatch):
        # Only hour 17 fails, on the thread of the second run; the calling
        # thread's run solves, and simulate raises once that thread is joined.
        net = large_ring("76:3")
        solve, failing, failed_on = _highs._solve_hour, hourly_demand(net, 17), []

        def fail_late(problem, demand):
            if demand == failing:
                failed_on.append(threading.current_thread().name)
                raise ValueError("dispatch LP failed: injected")
            return solve(problem, demand)

        monkeypatch.setattr(_highs, "_solve_hour", fail_late)
        with pytest.raises(ValueError, match="^hour 17: dispatch LP failed: injected$"):
            simulate(net, 24)
        assert failed_on == [self.WORKER.format(1)]
        assert not any(thread.name.startswith("gridecon-simulate-run-") for thread in threading.enumerate())

    def test_small_network_solves_on_the_calling_thread(self, monkeypatch):
        smoothing = load_bundled_scenario("smoothing").require("network")
        threads = self.record_threads(monkeypatch)
        simulate(smoothing, 48)
        assert [thread for thread, _ in threads] == [threading.current_thread()] * 13

    def test_started_threads_are_joined_when_the_first_run_fails(self, monkeypatch):
        # Hour 0, on the calling thread, fails at once; the thread of the
        # second run has finished its hours before simulate raises.
        net = large_ring("76:3")
        solve, solved = _highs._solve_hour, []
        first = hourly_demand(net, 0)

        def fail_first(problem, demand):
            if demand == first:
                raise ValueError("dispatch LP failed: injected")
            result = solve(problem, demand)
            solved.append(demand)
            return result

        monkeypatch.setattr(_highs, "_solve_hour", fail_first)
        with pytest.raises(ValueError, match="^hour 0: dispatch LP failed: injected$"):
            simulate(net, 24)
        assert sorted(solved) == sorted(hourly_demand(net, t) for t in range(12, 24))
        assert not any(thread.name.startswith("gridecon-simulate-run-") for thread in threading.enumerate())

    def test_threaded_hours_leave_concurrent_futures_unimported(self):
        # In a fresh process, the demo's hours on two threads: no module of
        # concurrent.futures loads, and each run's first hour starts from the
        # crash basis.
        code = textwrap.dedent(
            """
            import json, sys, threading
            from gridecon import _highs, dispatch
            from gridecon.datasets import load_bundled_scenario

            dispatch._THREADED_MIN_ARCS = 0
            dispatch._cpu_count = lambda: 2
            solve, crash, threads, crashes = _highs._solve_hour, _highs._Problem.crash_basis, set(), []

            def recording(problem, demand):
                threads.add(threading.get_ident())
                return solve(problem, demand)

            def counting(problem, demand):
                crashes.append(demand)
                return crash(problem, demand)

            _highs._solve_hour, _highs._Problem.crash_basis = recording, counting
            dispatch.simulate(load_bundled_scenario("smoothing").require("network"), 24)
            print(json.dumps({"futures": sorted(m for m in sys.modules if m.startswith("concurrent")),
                              "threads": len(threads), "crashes": len(crashes)}))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == {"futures": [], "threads": 2, "crashes": 2}


class TestChainedHours:
    """Each hour starts from the optimal basis of the last hour its thread
    solved for the same network, from the crash basis after another network
    or none."""

    @staticmethod
    def starts(monkeypatch):
        """How each hour's first stage starts ("chain" from the thread's
        previous hour, "crash" from the problem's crash basis), and its
        iterations."""
        run, crash, starts, crashes = _highs._run, _highs._Problem.crash_basis, [], []

        def crashing(problem, demand):
            crashes.append(crash(problem, demand))
            return crashes[-1]

        def recording(problem, rows, lower, upper, basis=None):
            highs = run(problem, rows, lower, upper, basis)
            if lower is problem.lower:  # not a cone LP
                start = "crash" if any(basis is b for b in crashes) else "chain" if basis is not None else "slack"
                starts.append((start, highs.getInfo().simplex_iteration_count))
            return highs

        monkeypatch.setattr(_highs._Problem, "crash_basis", crashing)
        monkeypatch.setattr(_highs, "_run", recording)
        return starts

    def test_an_hour_starts_from_the_threads_previous_hour_of_its_network(self, monkeypatch):
        net, other = ring_network("10:41", n_regions=10, n_chords=10), ring_network("20:1", 20, 20)
        _highs._thread.chain = None
        starts = self.starts(monkeypatch)
        for which, t in ((net, 0), (net, 1), (other, 0), (net, 2), (net, 3)):
            min_cost_flow(which, hourly_demand(which, t))
        assert [start for start, _ in starts] == ["crash", "chain", "crash", "crash", "chain"]
        chain_problem, _ = _highs._thread.chain
        assert chain_problem is net._problem

    def test_chained_hours_save_simplex_iterations(self, monkeypatch):
        net = ring_network("101:0", 200, 200)
        starts = self.starts(monkeypatch)

        def solve_day(unchained):
            hours = []
            for t in range(24):
                if unchained:
                    _highs._thread.chain = None
                hours.append(min_cost_flow(net, hourly_demand(net, t)))
            return printed(net, hours)

        _highs._thread.chain = None
        chained_text = solve_day(unchained=False)
        chained = sum(iterations for _, iterations in starts)
        assert [start for start, _ in starts] == ["crash"] + ["chain"] * 23
        starts.clear()
        crashed_text = solve_day(unchained=True)
        crashed = sum(iterations for _, iterations in starts)
        assert [start for start, _ in starts] == ["crash"] * 24
        assert chained < crashed / 2
        assert chained_text == crashed_text

    def test_threads_keep_chains_of_their_own(self):
        # More threads than CPUs, switching often, each solving the day of one
        # network in its own order: each thread chains only its own hours, so
        # every order prints the day as a serial solve does.
        net = ring_network("10:58", n_regions=10, n_chords=10)
        expected = printed(net, [min_cost_flow(net, hourly_demand(net, t)) for t in range(24)])
        texts, errors = [], []

        def solve_day(order):
            try:
                hours = {t: min_cost_flow(net, hourly_demand(net, t)) for t in order}
                texts.append(printed(net, [hours[t] for t in range(24)]))
            except Exception as exc:
                errors.append(repr(exc))

        orders = [list(range(24)), list(reversed(range(24))), list(range(0, 24, 2)) + list(range(1, 24, 2))]
        threads = [threading.Thread(target=solve_day, args=(orders[k % 3],)) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and texts == [expected] * 6

    def test_demand_highs_reads_as_infinite_fails_after_a_chained_hour(self):
        # Hours 0-4 chain from one another; hour 5's model is rejected at load
        # instead of running the hour before it again.
        profile = list(sinusoid_profile(420.0, 0.5, 3))
        profile[5] = 1e20
        a = Region("a", 0, tuple(profile), ((150.0, 0.0), (100.0, 40.0)))
        b = Region("b", 0, sinusoid_profile(200.0, 0.4, 2), ((250.0, 0.0), (100.0, 90.0)))
        net = DispatchNetwork((a, b), (Interconnector("a", "b", 80.0, 0.9),))
        with pytest.raises(ValueError, match="^hour 5: dispatch LP failed: HiGHS rejected the model$"):
            simulate(net, 6)
        # The rejected hour left the chain at hour 4, which still solves.
        assert _highs._thread.chain[0] is net._problem
        assert printed(net, [min_cost_flow(net, hourly_demand(net, 4))]) == printed(net, simulate(net, 5).hourly[4:])

    def test_demand_highs_rejects_leaves_other_hours_as_pinned(self):
        # Demand in "a" reaches 2.4e21 MW at hour 5, which HiGHS reads as
        # infinite: hours 0-4 print as pinned, and hour 5 itself fails.
        profile = list(sinusoid_profile(420.0, 0.5, 3))
        profile[5] = 2.4e21
        a = Region("a", 0, tuple(profile), ((150.0, 0.0), (100.0, 40.0)))
        b = Region("b", 0, sinusoid_profile(200.0, 0.4, 2), ((250.0, 0.0), (100.0, 90.0)))
        net = DispatchNetwork((a, b), (Interconnector("a", "b", 80.0, 0.9),))
        assert export_csv(simulate(net, 5)).splitlines()[1:11] == [
            "0,a,389.246,322,250,0,67.2462,10000",
            "0,b,191.962,191.962,271.962,0,0,90",
            "1,a,405.933,322,250,0,83.9327,10000",
            "1,b,197.956,197.956,277.956,0,0,90",
            "2,a,416.422,322,250,0,94.4222,10000",
            "2,b,200,200,280,0,0,90",
            "3,a,420,322,250,0,98,10000",
            "3,b,197.956,197.956,277.956,0,0,90",
            "4,a,416.422,322,250,0,94.4222,10000",
            "4,b,191.962,191.962,271.962,0,0,90",
        ]
        with pytest.raises(ValueError, match="^hour 5: dispatch LP failed: HiGHS rejected the model$"):
            simulate(net, 6)


def untied_network(rng):
    """A random network of up to 4 regions whose unit costs, capacities and
    link efficiencies are drawn from continuous ranges, with no free unit:
    two dispatches of least cost and least loss tie with probability 0."""
    names = [f"r{i}" for i in range(rng.randint(1, 4))]
    regions = [
        region(name, rng.uniform(0, 12), [(rng.uniform(0, 10), rng.uniform(1, 100)) for _ in range(rng.randint(0, 3))])
        for name in names
    ]
    links = []
    if len(names) > 1:
        links = [Interconnector(*rng.sample(names, 2), rng.uniform(0, 8), rng.uniform(0.5, 0.99))
                 for _ in range(rng.randint(0, 4))]
    return network(regions, links)


class TestCrashBasis:
    """An hour without a chain starts from the crash basis of its problem:
    each region served alone in its own merit order."""

    # A region without demand, one without units, tied costs, a unit of no
    # capacity, one priced above the penalty, a region its units cannot
    # serve and a unit that covers demand exactly.
    HAND_BUILT = network(
        [region("idle", 0, [(5, 3.0), (2, 1.0)]), region("bare", 4, []),
         region("tied", 6, [(4, 2.0), (3, 2.0), (10, 3 * PENALTY), (0, 0.0)]),
         region("short", 9, [(2, 5.0)]), region("exact", 5, [(5, 1.0), (3, 2.0)])],
        [Interconnector("idle", "bare", 3, 0.9), Interconnector("tied", "short", 2, 1.0),
         Interconnector("exact", "idle", 1, 0.8)],
    )

    @pytest.mark.parametrize(
        "build, hours",
        [
            pytest.param(lambda: ring_network("34:1", n_regions=12, n_chords=12), range(24), id="ring-12"),
            pytest.param(lambda: large_ring("34:2"), (0, 7, 12, 19), id="ring-51"),
            pytest.param(lambda: TestCrashBasis.HAND_BUILT, (0,), id="hand-built"),
            pytest.param(lambda: load_bundled_scenario("smoothing").require("network"), range(24), id="demo"),
        ],
    )
    def test_one_basic_column_per_region_its_covering_column(self, build, hours):
        net = build()
        problem = net._problem
        for t in hours:
            demand = hourly_demand(net, t)
            basis = problem.crash_basis(demand)
            status = [s.name for s in basis.col_status]
            assert status == crash_statuses(net, demand), t
            assert basis.valid and not basis.alien
            # Exactly one basic column per region, in that region's row; every
            # link column and every row nonbasic.
            basic = [j for j, s in enumerate(status) if s == "kBasic"]
            assert sorted(problem.heads[basic].tolist()) == list(range(len(net.regions)))
            assert all(problem.tails[j] == len(net.regions) for j in basic)
            assert set(status[problem.first_link : problem.first_shed]) <= {"kLower"}
            assert [s.name for s in basis.row_status] == ["kLower"] * len(net.regions)

    def test_hand_built_columns(self):
        # The statuses of HAND_BUILT spelled out: units region by region,
        # then the links, then shedding.
        net = self.HAND_BUILT
        status = [s.name for s in net._problem.crash_basis(hourly_demand(net, 0)).col_status]
        U, B, L = "kUpper", "kBasic", "kLower"
        assert status == [
            L, B,  # idle: no demand, so its cheapest unit is basic at 0
            U, B, L, U,  # tied: the free 0 MW unit, then the 2 EUR units by column
            U,  # short
            B, L,  # exact: the first unit covers demand at its rating
            L, L, L, L, L, L,  # the links, both ways
            L, B, L, B, L,  # shedding: basic where no unit covers demand
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_crash_start_matches_the_oracles_and_the_chained_text(self, seed):
        rng = random.Random(seed)
        exact, lossy, untied = random_network(rng, 3, True, 2), random_network(rng), untied_network(rng)
        for net, oracle, tolerance in ((exact, enumeration_oracle, {"abs": 1e-9}),
                                       (lossy, lp_oracle, {"rel": 1e-9, "abs": 1e-6}),
                                       (untied, lp_oracle, {"rel": 1e-9, "abs": 1e-6})):
            demand = [r.demand_profile_mw[0] for r in net.regions]
            _highs._thread.chain = None
            assert min_cost_flow(net, demand).cost_eur == pytest.approx(oracle(net, demand), **tolerance)
        # From the optimal basis of another hour, the same text. Only where
        # the least-loss dispatch is unique: where two tie, the start picks
        # one (ROADMAP item 7), as in about 1 in 600 draws of the other two.
        demand = [r.demand_profile_mw[0] for r in untied.regions]
        _highs._thread.chain = None
        crashed = printed(untied, [min_cost_flow(untied, demand)])
        min_cost_flow(untied, [d / 2 + 1 for d in demand])
        assert _highs._thread.chain[0] is untied._problem
        assert printed(untied, [min_cost_flow(untied, demand)]) == crashed

    def test_crash_start_saves_iterations_on_a_ring(self):
        # The first stage of hours 0 and 12 of ring 101:0, from the crash
        # basis and from HiGHS's slack basis; the counts repeat exactly.
        net = ring_network("101:0", 200, 200)
        problem = net._problem

        def iterations(demand, basis):
            upper = problem.fixed_upper + list(demand)
            return _highs._run(problem, demand, problem.lower, upper, basis).getInfo().simplex_iteration_count

        hours = [hourly_demand(net, 0), hourly_demand(net, 12)]
        days = [[(iterations(d, problem.crash_basis(d)), iterations(d, None)) for d in hours] for _ in range(2)]
        assert days[0] == days[1]
        assert all(crash < slack for crash, slack in days[0]), days[0]


class TestReducedCosts:
    """The least-loss stage reads each column's reduced cost off HiGHS's
    column duals: the normalized cost less the column's balance entries
    times the row duals, and exactly 0 on every basic column."""

    def test_column_duals_are_the_recomputed_reduced_costs(self, monkeypatch):
        stage, seen = _highs._least_loss, []

        def checking(highs, problem, value, rc, upper):
            y = np.append(highs.getSolution().row_dual, 0.0)
            recomputed = problem.objective - problem.gains * y[problem.heads] + y[problem.tails]
            _, basic = highs.getBasicVariables()
            seen.append((float(np.max(np.abs(rc - recomputed))), rc[basic[basic >= 0]].tolist()))
            return stage(highs, problem, value, rc, upper)

        monkeypatch.setattr(_highs, "_least_loss", checking)
        monkeypatch.setattr(dispatch, "_cpu_count", lambda: 2)
        for net in [ring_network(f"38:{k}", n_regions=20, n_chords=20) for k in range(5)] + [
            large_ring("38:5"), load_bundled_scenario("smoothing").require("network")
        ]:
            simulate(net, 24)
        rng = random.Random(38)
        for _ in range(200):
            net = random_network(rng, max_regions=6, max_links=10)
            min_cost_flow(net, [r.demand_profile_mw[0] for r in net.regions])
        assert len(seen) == 6 * 24 + 13 + 200
        assert max(difference for difference, _ in seen) <= 1e-15
        assert all(value == 0.0 for _, basic in seen for value in basic)


class TestCanonicalDispatch:
    """Among the cost-optimal dispatches an hour takes the one with the least
    transmission loss, so the printed result does not depend on the order of
    the network's regions and links, on the hours solved before or on the
    thread."""

    @staticmethod
    def by_region(result):
        """Each hour's curtailment and generation, keyed by region name."""
        return [
            {reg.name: (curtailed, sum(units))
             for reg, curtailed, units in zip(result.network.regions, hour.curtailed_res_mw, hour.generation_mw)}
            for hour in result.hourly
        ]

    @pytest.mark.parametrize("n_regions", [10, 20, 40])
    def test_reordered_network_curtails_the_same(self, n_regions):
        # Before the least-loss stage, 12 of these 60 rings curtailed in other
        # regions once reordered, by up to 8.7% of the total.
        for s in range(20):
            net = ring_network(f"{n_regions}:{s}", n_regions, n_regions)
            rng = random.Random(s)
            regions, links = list(net.regions), list(net.interconnectors)
            rng.shuffle(regions)
            rng.shuffle(links)
            shuffled = DispatchNetwork(tuple(regions), tuple(links))
            expected = self.by_region(simulate(net, 24))
            for t, hour in enumerate(self.by_region(simulate(shuffled, 24))):
                for name, values in hour.items():
                    assert values == pytest.approx(expected[t][name], rel=1e-6, abs=1e-6), (s, t, name)

    @pytest.mark.parametrize("seed, n_regions", [("76:3", 51), ("101:10", 200), ("1:12", 200)])
    def test_simulate_prints_as_single_hours(self, seed, n_regions, monkeypatch):
        net = ring_network(seed, n_regions, n_regions)
        demands = [hourly_demand(net, t) for t in range(24)]
        forward = printed(net, [min_cost_flow(net, d) for d in demands])
        backward = printed(net, [min_cost_flow(net, d) for d in reversed(demands)][::-1])
        assert backward == forward
        for cpus in (1, 2, 3):
            monkeypatch.setattr(dispatch, "_cpu_count", lambda: cpus)
            assert export_csv(simulate(net, 24)) == forward, cpus

    def test_least_loss_stage_runs_only_where_the_loss_can_fall(self, monkeypatch):
        # Ring 101:10 has an hour whose first stage can end at a dispatch that
        # loses more than the least; the second stage runs there, on no other
        # hour, and cuts the loss at the same cost.
        net = ring_network("101:10", 200, 200)
        stage, stages = _highs._least_loss, []

        def recording(highs, problem, value, rc, upper):
            x = stage(highs, problem, value, rc, upper)
            if x is not value:
                stages.append((problem.loss_share @ value, problem.loss_share @ x,
                               problem.objective @ value, problem.objective @ x))
            return x

        monkeypatch.setattr(_highs, "_least_loss", recording)
        monkeypatch.setattr(dispatch, "_cpu_count", lambda: 1)
        _highs._thread.chain = None
        simulate(net, 24)
        assert 1 <= len(stages) <= 3
        for loss_before, loss, cost_before, cost in stages:
            assert loss < loss_before - 1e-6
            assert cost == pytest.approx(cost_before, rel=1e-12, abs=1e-12)

    def test_tied_least_loss_prints_one_of_the_tied_dispatches(self):
        # Two free 100 MW units in "a" and "b" can each feed the 50 MW of "c"
        # over a 90% link: every split costs 0 and loses 5.56 MW, so least loss
        # does not pick one, and the start basis decides which unit HiGHS
        # runs. From the crash basis it is a's unit in either region order.
        a, b = region("a", 0, [(100, 0.0)]), region("b", 0, [(100, 0.0)])
        c = region("c", 50, [])
        links = (Interconnector("a", "c", 80.0, 0.9), Interconnector("b", "c", 80.0, 0.9))
        first, swapped = simulate(network([a, b, c], links), 1), simulate(network([b, a, c], links), 1)
        assert export_csv(first).splitlines()[1:4] == [
            "0,a,0,0,55.5556,44.4444,0,0", "0,b,0,0,0,100,0,0", "0,c,50,50,0,0,0,0"]
        assert export_csv(swapped).splitlines()[1:4] == [
            "0,b,0,0,0,100,0,0", "0,a,0,0,55.5556,44.4444,0,0", "0,c,50,50,0,0,0,0"]
        # Either printed dispatch costs and loses the same.
        for one, other in zip(first.hourly, swapped.hourly):
            assert one.cost_eur == other.cost_eur == 0.0
            assert one.loss_mw == pytest.approx(other.loss_mw, rel=1e-12) == 50.0 / 0.9 - 50.0


def cell_text(value):
    """One cell's text by the per-value rule that export_csv's batch
    formatter replaced, kept here verbatim as its oracle."""
    rounded = round(value, 6)
    if rounded == int(rounded) and abs(rounded) < 2**53:
        return str(int(rounded))
    return format(rounded, "g")


class TestExportCsv:
    """export_csv formats each distinct value once, in one batch, and renders
    each distinct hour's rows once; the text is that of formatting every cell
    on its own."""

    @staticmethod
    def plain(result):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["hour", "region", "demand_mw", "served_mw", "generation_mw",
                         "curtailed_mw", "unserved_mw", "price_eur_per_mwh"])
        for t, hour in enumerate(result.hourly):
            for ri, reg in enumerate(result.network.regions):
                cells = (hour.demand_mw[ri], hour.served_mw[ri], sum(hour.generation_mw[ri]),
                         hour.curtailed_res_mw[ri], hour.unserved_mw[ri], hour.prices_eur_per_mwh[ri])
                writer.writerow([t, reg.name, *map(cell_text, cells)])
        # The totals by their per-hour formulas, not DispatchResult's own.
        totals = per_hour_totals(result.hourly)
        writer.writerow([])
        writer.writerow(["metric", "value"])
        writer.writerow(["hours", len(result.hourly)])
        for metric, value in totals.items():
            writer.writerow([metric, cell_text(value)])
        return out.getvalue()

    def test_seeded_ring(self):
        # A small ring solved serially and a 200-region ring solved on the
        # thread pool.
        for net in (ring_network("10:58", n_regions=10, n_chords=10), ring_network("101:10", 200, 200)):
            result = simulate(net, 24)
            assert export_csv(result) == self.plain(result)

    def test_equal_zeros_and_near_values(self):
        # 0, 0.0 and -0.0 are one memo key; values that differ below the
        # sixth decimal are distinct keys with the same text.
        net = network([region(name, 0, []) for name in "abc"])
        hour = HourlyDispatch(
            demand_mw=(0, 0.0, -0.0),
            generation_mw=((), (0.0, -0.0), (2.5, 1e-7)),
            flows_mw=(),
            unserved_mw=(-0.0, 2.5000001, -1e-7),
            curtailed_res_mw=(0, -0.0, 0.0),
            prices_eur_per_mwh=(2.5, 2.4999999, 1e-9),
            loss_mw=0.0,
            cost_eur=-0.0,
        )
        result = DispatchResult(net, (hour, dataclasses.replace(hour, demand_mw=(-0.0, 0, 0.0))))
        text = export_csv(result)
        assert text == self.plain(result)
        assert text.splitlines()[1:4] == ["0,a,0,0,0,0,0,2.5", "0,b,0,-2.5,0,0,2.5,2.5", "0,c,0,0,2.5,0,0,0"]

    @pytest.mark.parametrize("hours", [168, 8760])
    def test_smoothing_week_and_year(self, hours):
        # Every hour of the demo repeats one of 13 distinct results.
        smoothing = load_bundled_scenario("smoothing").require("network")
        result = simulate(smoothing, hours)
        assert export_csv(result) == self.plain(result)

    @pytest.mark.parametrize("hours", [1, 23, 25])
    def test_smoothing_part_days(self, hours):
        # Less than a day, and a day and an hour.
        smoothing = load_bundled_scenario("smoothing").require("network")
        result = simulate(smoothing, hours)
        assert export_csv(result) == self.plain(result)

    def test_seeded_ring_year(self):
        # 24 distinct hours of 20 regions, each repeated 365 times.
        result = simulate(ring_network("25:4", n_regions=20, n_chords=10), 8760)
        assert export_csv(result) == self.plain(result)

    def test_price_spread_comes_from_the_price_cells_to_the_bit(self, monkeypatch):
        # export_csv takes the mean price spread from the price cells it has
        # read, never through the result's property, and gets the property's
        # bits: on 20 seeded rings and the 168 h demo.
        results = [simulate(ring_network(f"34:{k}", n_regions=20, n_chords=20), 24) for k in range(20)]
        results.append(simulate(load_bundled_scenario("smoothing").require("network"), 168))
        expected = [result.mean_price_spread_eur_per_mwh.hex() for result in results]
        fmt, spreads = dispatch._fmt, []

        def capturing(values):
            spreads.append(float(values[-1]).hex())
            return fmt(values)

        monkeypatch.setattr(dispatch, "_fmt", capturing)
        monkeypatch.setattr(DispatchResult, "mean_price_spread_eur_per_mwh", property(lambda _: pytest.fail("read")))
        for result in results:
            export_csv(result)
        assert spreads == expected

    def test_equal_hours_that_are_distinct_objects_and_quoted_names(self):
        # Names that need CSV quoting, and repeats of an hour that are equal
        # but distinct objects, placed between other hours.
        names = ["a,b", 'say "hi"', "two\nlines"]
        net = network([region(name, 1, [(5, 0.0)]) for name in names])
        first = HourlyDispatch(
            demand_mw=(1.0, 2.5, 0.0),
            generation_mw=((1.0,), (2.5,), (0.0,)),
            flows_mw=(),
            unserved_mw=(0.0, 0.0, 0.0),
            curtailed_res_mw=(4.0, 2.5, 5.0),
            prices_eur_per_mwh=(0.0, 0.0, 0.0),
            loss_mw=0.0,
            cost_eur=0.0,
        )
        second = dataclasses.replace(first, unserved_mw=(0.5, 0.0, 1e-7), prices_eur_per_mwh=(PENALTY, 0.0, 1.25))
        copy = dataclasses.replace(first)
        assert copy == first and copy is not first
        result = DispatchResult(net, (first, second, copy, second, dataclasses.replace(first)))
        text = export_csv(result)
        assert text == self.plain(result)
        assert text.splitlines()[1:3] == ['0,"a,b",1,1,1,4,0,0', '0,"say ""hi""",2.5,2.5,2.5,2.5,0,0']

    def test_huge_values_print_in_exponent_form(self):
        # Floats hold integers exactly only below 2**53; 1e300 as an integer
        # would print 301 digits, most of them noise.
        net = network([region("a", 5, [(1, 1.0)])], penalty=1e300)
        text = export_csv(simulate(net, 1))
        assert text.splitlines()[1] == "0,a,5,1,1,0,4,1e+300"
        assert "\ntotal_cost_eur,4e+300\n" in text
        assert dispatch._fmt([2.0**53 - 1]) == ["9007199254740991"]
        assert dispatch._fmt([2.0**53]) == ["9.0072e+15"]

    def test_non_finite_cell_raises_from_the_formatter(self):
        # No summary total sees demand, so only the cell formatter can stop
        # this inf from being written.
        net = network([region("a", 1, [(1, 1.0)])])
        hour = HourlyDispatch(
            demand_mw=(math.inf,),
            generation_mw=((1.0,),),
            flows_mw=(),
            unserved_mw=(0.0,),
            curtailed_res_mw=(0.0,),
            prices_eur_per_mwh=(1.0,),
            loss_mw=0.0,
            cost_eur=1.0,
        )
        result = DispatchResult(net, (hour,))
        assert math.isfinite(result.total_curtailed_mwh) and math.isfinite(result.total_cost_eur)
        with pytest.raises(OverflowError) as caught:
            export_csv(result)
        assert cli._failed_step(caught.value) == "dispatch._fmt"

    def test_integer_demand_profiles(self):
        # A scenario file's integer literals reach the profiles as Python
        # ints, and zero and integral demands give int cells; 10**7 MW is
        # past the integers that %g writes in full.
        regions = [
            region("a", tuple(range(0, 2400, 100)), [(900, 0.0), (600, 40.0)]),
            region("b", (10**7,) * 12 + (0,) * 12, [(1500, 25.0)], tz=5),
        ]
        result = simulate(network(regions, [Interconnector("a", "b", 400, 0.9)]), 24)
        assert {type(d) for hour in result.hourly for d in hour.demand_mw} == {int}
        text = export_csv(result)
        assert text == self.plain(result)
        assert ",b,10000000," in text

    # Both a NaN and an infinite cell: the first one in the order the cells
    # are read, hour, then column (demand, served, generation, curtailed,
    # unserved, price), then region, decides the exception, as int() raises
    # on it: ValueError for NaN, OverflowError for an infinity.
    @pytest.mark.parametrize(
        "first_hour, second_hour, error",
        [
            ({"demand_mw": (1.0, math.nan)}, {"prices_eur_per_mwh": (math.inf, 1.0)}, ValueError),
            ({"prices_eur_per_mwh": (math.inf, 1.0)}, {"demand_mw": (1.0, math.nan)}, OverflowError),
            ({"curtailed_res_mw": (0.0, -math.inf), "prices_eur_per_mwh": (math.nan, 1.0)}, {}, OverflowError),
            ({"generation_mw": ((math.nan,), (math.inf,))}, {}, ValueError),
            ({"generation_mw": ((math.inf,), (math.nan,))}, {}, OverflowError),
            # Served is demand less unserved: 1 - inf.
            ({"unserved_mw": (0.0, math.inf), "curtailed_res_mw": (math.nan, 0.0)}, {}, OverflowError),
        ],
    )
    def test_first_non_finite_cell_decides_the_exception(self, first_hour, second_hour, error):
        net = network([region(name, 1, [(1, 1.0)]) for name in "ab"])
        hour = HourlyDispatch(
            demand_mw=(1.0, 1.0),
            generation_mw=((1.0,), (1.0,)),
            flows_mw=(),
            unserved_mw=(0.0, 0.0),
            curtailed_res_mw=(0.0, 0.0),
            prices_eur_per_mwh=(1.0, 1.0),
            loss_mw=0.0,
            cost_eur=2.0,
        )
        hours = (dataclasses.replace(hour, **first_hour), dataclasses.replace(hour, **second_hour))
        with pytest.raises(error) as caught:
            export_csv(DispatchResult(net, hours))
        assert cli._failed_step(caught.value) == "dispatch._fmt"


class TestResultShape:
    """A DispatchResult holds at least one hour, and each hour holds one entry
    per region in every per-region field, or it is rejected on creation."""

    @staticmethod
    def hour(values):
        return HourlyDispatch(
            demand_mw=(1.0,) * values,
            generation_mw=((1.0,),) * values,
            flows_mw=(),
            unserved_mw=(0.0,) * values,
            curtailed_res_mw=(2.0,) * values,
            prices_eur_per_mwh=(0.0,) * values,
            loss_mw=0.0,
            cost_eur=0.0,
        )

    net = network([region(name, 1, [(3, 0.0)]) for name in "abc"])

    def test_no_hours(self):
        with pytest.raises(ValueError, match=r"^len\(hourly\) must be >= 1, got 0$"):
            DispatchResult(self.net, ())

    def test_too_few_values(self):
        with pytest.raises(ValueError, match=r"^hour 0: len\(demand_mw\) must be 3, one entry per region, got 2$"):
            DispatchResult(self.net, (self.hour(2),))

    def test_too_many_values(self):
        with pytest.raises(ValueError, match=r"^hour 0: len\(demand_mw\) must be 3, one entry per region, got 4$"):
            DispatchResult(self.net, (self.hour(4),))

    @pytest.mark.parametrize("field", ["demand_mw", "unserved_mw", "curtailed_res_mw", "prices_eur_per_mwh",
                                       "generation_mw"])
    def test_each_field_names_its_first_hour(self, field):
        good = self.hour(3)
        bad = dataclasses.replace(good, **{field: getattr(good, field)[:2]})
        message = rf"^hour 2: len\({field}\) must be 3, one entry per region, got 2$"
        with pytest.raises(ValueError, match=message):
            DispatchResult(self.net, (good, good, bad, good, bad))


# Zero's sign, the rounding boundary at the sixth decimal, the last integer a
# float holds exactly, huge values, and a value rounded twice: to 1.234565
# (stored just below it), then by %g to 1.23456.
EDGE_VALUES = [-0.0, 5e-7, -5e-7, 4.9999999e-7, -4.9999999e-7, 2.0**53 - 1, 2.0**53, 1e300, -1e300, 1.2345649]


def ulps_from(value, steps):
    """``value`` moved ``steps`` doubles up (or down, if negative)."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


NEAR = st.integers(-4, 4)  # ulps
ROUNDING_EDGES = st.one_of(
    # Sixth-decimal half-points (2k+1)/2e6 and their neighbours, up to where
    # the scaled value passes 2**49.
    st.builds(lambda k, steps: ulps_from((2 * k + 1) / 2e6, steps), st.integers(-(2**50), 2**50), NEAR),
    # Exact binary ties: v * 1e6 is a half-integer exactly when v is an odd
    # multiple of 2**-7.
    st.builds(lambda k: (2 * k + 1) * 2.0**-7, st.integers(-(2**45), 2**45)),
    # Around the largest scaled value that rint keeps exact, the end of the
    # fast path, the integer rewrite's ends, and the top of the float range.
    st.builds(
        lambda base, sign, steps: ulps_from(sign * base, steps),
        st.sampled_from([2**52 / 1e6, 2**49 / 1e6, 1e6, 2.0**53, 1e308]),
        st.sampled_from([1.0, -1.0]),
        NEAR,
    ),
    st.sampled_from([sys.float_info.max, -sys.float_info.max]),
    # -0.0 and negatives that round to -0.
    st.floats(-5e-7, -0.0),
)


class TestFormatter:
    """dispatch._fmt rounds and formats a batch of values in one pass each;
    every value's text is that of the per-value rule."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)))
    @example([])
    @example(EDGE_VALUES)
    def test_any_finite_floats(self, values):
        assert dispatch._fmt(values) == list(map(cell_text, values))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ROUNDING_EDGES))
    @example([2.0**-7, -(2.0**-7), 3 * 2.0**-7, 5e-7, -5e-7, 2.5e-6, 2**52 / 1e6, 2**49 / 1e6, 1e308, -1e308])
    def test_rounding_edges(self, values):
        # Where rint(v * 1e6) / 1e6 may not be round(v, 6), and where the
        # integer rewrite starts and stops.
        assert dispatch._fmt(values) == list(map(cell_text, values))

    @pytest.mark.parametrize("value, error", [(math.inf, OverflowError), (-math.inf, OverflowError),
                                              (math.nan, ValueError)])
    def test_non_finite_values_raise(self, value, error):
        with pytest.raises(error):
            cell_text(value)
        with pytest.raises(error):
            dispatch._fmt([1.0, value, 2.5])


class TestLargeRingOutput:
    """The export of a 24 h simulate of a 200-region, 200-chord ring (1600 LP
    columns, solved on the thread pool), pinned byte for byte. Ring 101:10
    has an hour whose cost-optimal curtailment is not unique (hour 9, where
    r111 and r113 can trade free energy); it prints the least-loss one. So
    are twenty more rings, in one digest, and the demo's week."""

    @pytest.mark.parametrize(
        "seed, digest",
        [
            ("101:0", "0027d09b553c0ddd363f0512ccf6e34058c5cd3d989d127cd8372d408b50f909"),
            ("101:10", "ab72f6abf532b10407c7a90182fefb455b2905462682369da8eae8e5a235cb48"),
        ],
    )
    def test_export_digest(self, seed, digest):
        text = export_csv(simulate(ring_network(seed, 200, 200), 24))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_twenty_rings_digest(self):
        # One sha256 over the exports of rings 38:0 to 38:19, in that order.
        digest = hashlib.sha256()
        for k in range(20):
            digest.update(export_csv(simulate(ring_network(f"38:{k}", 200, 200), 24)).encode())
        assert digest.hexdigest() == "c9a6c4c27a5b408c494d9b853a38e8576ae62b1b01cbd7804eb503f7b9f78a5a"

    def test_periodic_week_digest(self):
        # The week of the bundled demo that the benchmark's dispatch-periodic
        # workload exports, with the digest it pins.
        text = export_csv(simulate(load_bundled_scenario("smoothing").require("network"), 168))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "02814964943335857a4ea99a5aab9e726c01ae561131cd76abf0215270fee90e"
        )


class TestHighsBinding:
    """Every name the dispatch LP engine uses of scipy's bundled HiGHS
    binding, a private module, loaded as ``gridecon._highs`` loads it: a scipy
    release that moves the extension file or one of these names fails here
    by name."""

    @pytest.fixture(scope="class")
    def core(self):
        from gridecon._highs import core

        return core

    USED = {
        "_core": ["_Highs", "HighsLp", "HighsSparseMatrix", "HighsOptions", "HighsSolution",
                  "HighsBasis", "HighsBasisStatus", "MatrixFormat", "HighsStatus", "HighsModelStatus"],
        "_Highs": ["passOptions", "passModel", "setBasis", "run", "getModelStatus",
                   "modelStatusToString", "getSolution", "getBasis", "getOptionValue",
                   "getBasicVariables", "getBasisTransposeSolve", "changeColsBounds", "changeColsCost"],
        "HighsLp": ["num_col_", "num_row_", "a_matrix_", "col_cost_", "col_lower_", "col_upper_",
                    "row_lower_", "row_upper_"],
        "HighsSparseMatrix": ["format_", "num_col_", "num_row_", "start_", "index_", "value_"],
        "HighsSolution": ["col_value", "col_dual", "row_dual"],
        "HighsBasis": ["valid", "alien", "col_status", "row_status"],
        "HighsBasisStatus": ["kLower", "kBasic", "kUpper"],
        "MatrixFormat": ["kColwise"],
        "HighsStatus": ["kError"],
        "HighsModelStatus": ["kOptimal"],
    }

    @pytest.mark.parametrize("owner", USED)
    def test_names_exist(self, core, owner):
        scope = core if owner == "_core" else getattr(core, owner)
        assert [name for name in self.USED[owner] if not hasattr(scope, name)] == []

    def test_lists_every_name_the_engine_reads_off_the_binding(self):
        tree = ast.parse(Path(_highs.__file__).read_text(encoding="utf-8"))
        read = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "core"
        }
        assert read - set(self.USED["_core"]) == set()

    def test_options_take_their_values(self, core):
        options = core.HighsOptions()
        for name, value in _highs._HIGHS_OPTIONS.items():
            setattr(options, name, value)
            assert getattr(options, name) == value

    def test_each_threads_instance_keeps_the_options(self, core, monkeypatch):
        # Checked on the instance of the thread that solved each hour: after
        # serial and threaded hours, a model HiGHS rejects and a cone LP.
        solve, cone = _highs._solve_hour, _highs._cone_duals
        threads, cones = set(), []

        def checking(problem, demand):
            try:
                return solve(problem, demand)
            finally:
                highs = _highs._thread.highs
                for name, value in _highs._HIGHS_OPTIONS.items():
                    assert highs.getOptionValue(name) == (core.HighsStatus.kOk, value), name
                threads.add(threading.get_ident())

        def counting_cone(*args):
            cones.append(args)
            return cone(*args)

        monkeypatch.setattr(_highs, "_solve_hour", checking)
        monkeypatch.setattr(_highs, "_cone_duals", counting_cone)
        monkeypatch.setattr(dispatch, "_cpu_count", lambda: 2)
        simulate(load_bundled_scenario("smoothing").require("network"), 24)
        simulate(large_ring("76:3"), 24)
        assert threading.get_ident() in threads and len(threads) > 1
        one_region = network([region("a", 5, [(10, 1.0)])])
        with pytest.raises(ValueError, match="^dispatch LP failed: HiGHS rejected the model$"):
            min_cost_flow(one_region, [1e20])
        assert cones == []
        assert min_cost_flow(one_region, [0.0]).prices_eur_per_mwh == (1.0,)
        assert len(cones) == 1

    def test_each_thread_keeps_one_instance(self):
        # The calling thread's instance serves every call it makes; a second
        # thread solves on an instance of its own.
        highs = _highs._thread.highs
        one_region = network([region("a", 5, [(10, 1.0)])])
        simulate(load_bundled_scenario("smoothing").require("network"), 24)
        simulate(ring_network("10:41", n_regions=10, n_chords=10), 24)
        min_cost_flow(one_region, [5.0])
        assert _highs._thread.highs is highs
        seen = []

        def solve():
            min_cost_flow(one_region, [5.0])
            seen.append(_highs._thread.highs)

        thread = threading.Thread(target=solve)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(seen) == 1 and seen[0] is not highs and type(seen[0]) is type(highs)

    def test_run_that_ends_non_optimal_fails(self, monkeypatch):
        # A thread's instance takes _HIGHS_OPTIONS on the thread's first
        # solve, so only a fresh thread sees the iteration limit.
        options = {**_highs._HIGHS_OPTIONS, "simplex_iteration_limit": 0}
        monkeypatch.setattr(_highs, "_HIGHS_OPTIONS", options)
        network = load_bundled_scenario("smoothing").require("network")
        failures = []

        def solve():
            try:
                simulate(network, 24)
            except ValueError as exc:
                failures.append(str(exc))

        thread = threading.Thread(target=solve)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert failures == ["hour 0: dispatch LP failed: Iteration limit reached"]


class TestHighsLoader:
    """gridecon._highs loads scipy's HiGHS extension by its file, without
    running scipy.optimize's package init, and only the first solve imports
    it. Each case runs in a fresh interpreter, since the import system's
    state is what it checks."""

    PRELUDE = """
        import json, sys, threading
        NAME = "scipy.optimize._highspy._core"

        def demo():
            from gridecon.datasets import load_bundled_scenario

            return load_bundled_scenario("smoothing").require("network")
    """

    def run(self, code):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        script = textwrap.dedent(self.PRELUDE) + textwrap.dedent(code)
        child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        return json.loads(child.stdout)

    def test_scipy_optimize_imported_after_dispatch_reuses_the_extension(self):
        seen = self.run(
            """
            from gridecon import dispatch
            from gridecon._highs import core

            dispatch.simulate(demo(), 24)
            before = "scipy.optimize" in sys.modules
            from scipy.optimize import linprog

            res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-3.0])
            print(json.dumps({"before": before, "status": res.status, "x": res.x.tolist(),
                              "same": sys.modules[NAME] is core}))
            """
        )
        assert seen == {"before": False, "status": 0, "x": [3.0, 0.0], "same": True}

    def test_dispatch_reuses_the_extension_scipy_optimize_loaded(self):
        seen = self.run(
            """
            import scipy.optimize

            loaded = sys.modules[NAME]
            from gridecon import _highs, dispatch

            dispatch.simulate(demo(), 24)
            print(json.dumps({"same": _highs.core is loaded,
                              "instance": type(_highs._thread.highs) is loaded._Highs}))
            """
        )
        assert seen == {"same": True, "instance": True}

    def test_extension_missing_from_its_directory_fails_naming_it(self):
        seen = self.run(
            """
            import os
            import scipy

            scipy.__file__ = os.path.join(os.path.dirname(scipy.__file__), "moved", "__init__.py")
            try:
                import gridecon._highs
            except ImportError as exc:
                print(json.dumps({"error": str(exc), "loaded": NAME in sys.modules}))
            """
        )
        assert seen["error"].endswith(os.path.join("scipy", "moved", "optimize", "_highspy"))
        assert seen["error"].startswith("scipy's HiGHS extension _core not found in ")
        assert not seen["loaded"]

    def test_two_threads_solving_first_load_the_extension_once(self):
        seen = self.run(
            """
            import dataclasses, importlib.machinery

            loader = importlib.machinery.ExtensionFileLoader
            create, created = loader.create_module, []

            def counting(self, spec):
                if spec.name == NAME:
                    created.append(threading.get_ident())
                return create(self, spec)

            loader.create_module = counting
            sys.setswitchinterval(1e-6)
            from gridecon.dispatch import min_cost_flow

            net = demo()
            fresh = [dataclasses.replace(net) for _ in range(2)]
            start, errors = threading.Barrier(2), []

            def first_solve(network):
                start.wait(timeout=60)
                try:
                    min_cost_flow(network, [r.demand_at(0) for r in network.regions])
                except Exception as exc:
                    errors.append(repr(exc))

            threads = [threading.Thread(target=first_solve, args=(n,)) for n in fresh]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            print(json.dumps({"alive": any(t.is_alive() for t in threads), "errors": errors,
                              "created": len(created)}))
            """
        )
        assert seen == {"alive": False, "errors": [], "created": 1}

    def test_building_a_network_loads_neither_numpy_nor_the_engine(self):
        seen = self.run(
            """
            net = demo()
            print(json.dumps({"network": type(net).__name__,
                              "loaded": [m for m in ("numpy", "gridecon._highs", NAME) if m in sys.modules]}))
            """
        )
        assert seen == {"network": "DispatchNetwork", "loaded": []}


class TestEngineBoundary:
    """``gridecon._highs`` is the one module under ``src/gridecon/`` that
    touches scipy's HiGHS binding, and no other module imports numpy, scipy
    or the engine when it is imported itself: a report, or a network that is
    built and not solved, loads none of them."""

    OTHERS = sorted(path for path in Path(_highs.__file__).parent.glob("*.py") if path.name != "_highs.py")

    @staticmethod
    def identifiers(tree):
        """Each identifier of ``tree`` with its line: names, attributes,
        arguments, definitions and every part of an imported name."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.arg):
                names = [node.arg]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.alias):
                names = [*node.name.split("."), node.asname]
            elif isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".")
            else:
                continue
            yield from ((node.lineno, name) for name in names if name)

    @staticmethod
    def import_time_imports(tree):
        """Each import that runs when its module is imported (any import
        outside a function body), with its line and the names it imports."""
        pending = [tree]
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node.lineno, [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
            pending.extend(ast.iter_child_nodes(node))

    def test_no_other_module_names_the_binding(self):
        named = [
            f"{path.name}:{line} {name}"
            for path in self.OTHERS
            for line, name in self.identifiers(ast.parse(path.read_text(encoding="utf-8")))
            if name in ("core", "_core", "_highspy") or name.startswith("Highs")
        ]
        assert named == []

    def test_no_other_module_imports_numpy_scipy_or_the_engine_at_import(self):
        imported = [
            f"{path.name}:{line} {name}"
            for path in self.OTHERS
            for line, names in self.import_time_imports(ast.parse(path.read_text(encoding="utf-8")))
            for name in names
            if name.split(".")[0] in ("numpy", "scipy") or "_highs" in name.split(".")
        ]
        assert imported == []


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


class TestPricesMatchLabelOracle:
    """Prices against the residual-network label queue, which reads no dual,
    on nondegenerate hours (HiGHS's own dual) and degenerate ones (the cone
    LP) alike."""

    @staticmethod
    def with_extremes(rng, net):
        """``net`` and an hour's demand, each at random with one region's
        demand set to zero and with a region added behind a link of capacity
        0 whose only unit is priced above the penalty, so that it sheds all
        its demand."""
        demands = [r.demand_profile_mw[0] for r in net.regions]
        if rng.random() < 0.3:
            demands[rng.randrange(len(demands))] = 0.0
        if rng.random() < 0.3:
            shed = region("shed", 1, [(5.0, 3 * PENALTY)])
            link = Interconnector(rng.choice(net.regions).name, "shed", 0.0)
            net = network(net.regions + (shed,), net.interconnectors + (link,))
            demands.append(rng.uniform(0, 5))
        return net, demands

    def test_prices_equal_delivery_labels(self, monkeypatch):
        solve, cone = _highs._solve_hour, _highs._cone_duals
        columns, cone_solves = [], []

        def recording_solve(problem, demand):
            x, prices = solve(problem, demand)
            columns.append(x)
            return x, prices

        def recording_cone(*args):
            cone_solves.append(len(columns))  # the hour it prices
            return cone(*args)

        monkeypatch.setattr(_highs, "_solve_hour", recording_solve)
        monkeypatch.setattr(_highs, "_cone_duals", recording_cone)
        rng = random.Random(2100)
        settings = [
            {},
            {"max_regions": 3, "integer": True, "max_links": 2},
            {"max_regions": 6, "max_links": 10},
        ]
        shed_everything = 0
        for kwargs in settings:
            for _ in range(400):
                net, demands = self.with_extremes(rng, random_network(rng, **kwargs))
                hour = min_cost_flow(net, demands)
                labels = delivery_price_labels(net, columns[-1])
                assert hour.prices_eur_per_mwh == pytest.approx(labels, rel=1e-9, abs=1e-9)
                shed_everything += any(0 < u == d for u, d in zip(hour.unserved_mw, demands))
        assert len(cone_solves) >= 100 and len(columns) - len(cone_solves) >= 100
        assert shed_everything >= 100


class TestPricesAreMarginalCosts:
    """A region's price is the cost of one more MWh there: the right finite
    difference of the hour's cost, wherever the difference is steady."""

    DELTA = 1e-2  # MW; checked against DELTA / 10, so a breakpoint is skipped

    def test_free_hour_of_a_ring_is_priced_at_zero(self):
        # Free units cover this hour everywhere, over a residual cycle of
        # lossy links that a pass-bounded relaxation left at 18-21 EUR/MWh.
        net = ring_network("10:41", n_regions=10, n_chords=10)
        hour = min_cost_flow(net, hourly_demand(net, 13))
        assert hour.cost_eur == 0.0
        assert hour.prices_eur_per_mwh == (0.0,) * 10

    def test_free_hour_of_a_20_region_ring_is_priced_at_zero(self):
        # Free units cover this hour everywhere, over a residual cycle of
        # lossy links that a label queue can only close at its fixed point 0.
        net = ring_network("20:1", n_regions=20, n_chords=20)
        hour = min_cost_flow(net, hourly_demand(net, 9))
        assert hour.cost_eur == 0.0
        assert hour.prices_eur_per_mwh == (0.0,) * 20

    def test_simulate_names_the_hour_that_fails(self, monkeypatch):
        # The second distinct demand fails; it first appears in hour 2.
        solve = _highs._solve_hour
        solves = []

        def fail(problem, demand):
            solves.append(demand)
            if len(solves) == 2:
                raise ValueError("dispatch LP failed: injected")
            return solve(problem, demand)

        monkeypatch.setattr(_highs, "_solve_hour", fail)
        net = network([region("a", [5, 5] + [6] * 22, [(10, 1.0)])])
        with pytest.raises(ValueError, match="^hour 2: dispatch LP failed: injected$"):
            simulate(net, 24)

    def test_cone_lp_failure_names_its_hour(self, monkeypatch):
        # Hours 0 and 1 run the unit inside its bounds, a nondegenerate
        # vertex; hour 2 has no demand, so no column is inside its bounds and
        # the price takes the cone LP, the one LP with bounds of its own.
        net = network([region("a", [5, 5] + [0] * 22, [(10, 1.0)])])
        run = _highs._run

        def fail_cone(problem, rows, lower, upper, basis=None):
            if lower is not problem.lower:
                raise ValueError("dispatch LP failed: Infeasible")
            return run(problem, rows, lower, upper, basis)

        monkeypatch.setattr(_highs, "_run", fail_cone)
        assert simulate(net, 2).hourly[0].prices_eur_per_mwh == (1.0,)
        with pytest.raises(ValueError, match="^hour 2: dispatch LP failed: Infeasible$"):
            simulate(net, 3)

    def checked_regions(self, net, demand):
        """Regions whose price matches a steady finite difference; raises on a mismatch."""
        hour = min_cost_flow(net, demand)
        checked = 0
        for i, price in enumerate(hour.prices_eur_per_mwh):
            slopes = []
            for delta in (self.DELTA, self.DELTA / 10):
                more = list(demand)
                more[i] += delta
                slopes.append((min_cost_flow(net, more).cost_eur - hour.cost_eur) / delta)
            if slopes[0] == pytest.approx(slopes[1], rel=1e-6, abs=1e-6):
                assert price == pytest.approx(slopes[0], rel=1e-6, abs=1e-6), (i, slopes)
                checked += 1
        return checked

    @pytest.mark.parametrize(
        "seed, n_regions, hour",
        [("10:58", 10, 12), ("20:1", 20, 9), ("40:26", 40, 20)],
    )
    def test_ring_prices_match_finite_differences(self, seed, n_regions, hour):
        net = ring_network(seed, n_regions, n_chords=n_regions)
        assert self.checked_regions(net, hourly_demand(net, hour)) >= n_regions // 2

    def test_random_network_prices_match_finite_differences(self):
        rng = random.Random(314)
        settings = [
            {},
            {"max_regions": 3, "integer": True, "max_links": 2},
            {"max_regions": 6, "max_links": 10},
        ]
        checks = 0
        for kwargs in settings:
            for _ in range(40):
                net = random_network(rng, **kwargs)
                checks += self.checked_regions(net, [r.demand_profile_mw[0] for r in net.regions])
        assert checks > 200


class TestMonotonicityProperties:
    def test_adding_capacity_never_increases_cost(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 200:
            net = random_network(rng, max_regions=3, max_links=2)
            if not net.interconnectors:
                continue
            checked += 1
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


def per_hour_totals(hourly):
    """The four totals of a result's hours, each by its formula over every hour."""
    prices = np.array([h.prices_eur_per_mwh for h in hourly])
    return {
        "total_cost_eur": sum(h.cost_eur for h in hourly),
        "total_curtailed_mwh": sum(sum(h.curtailed_res_mw) for h in hourly),
        "total_unserved_mwh": sum(sum(h.unserved_mw) for h in hourly),
        "mean_price_spread_eur_per_mwh": float(np.mean(prices.max(axis=1) - prices.min(axis=1))),
    }


class TestTotals:
    """Each total works once per distinct hour, yet equals its formula over
    every hour bit for bit: the same floats, added in the same order."""

    @staticmethod
    def assert_per_hour(result):
        expected = per_hour_totals(result.hourly)
        actual = {name: getattr(result, name) for name in expected}
        assert actual == expected
        # == does not tell 0.0 from -0.0; the hex form does.
        assert {k: v.hex() for k, v in actual.items()} == {k: v.hex() for k, v in expected.items()}

    def test_tiled_year_of_the_demo(self):
        smoothing = load_bundled_scenario("smoothing").require("network")
        self.assert_per_hour(simulate(smoothing, 8760))

    def test_equal_hours_that_are_distinct_objects(self):
        # Costs and curtailment far apart in scale, so that adding them in any
        # other order, or once per distinct hour times its count, changes the
        # bits; a zero price spread written with -0.0.
        net = network([region(name, 1, [(5, 0.0)]) for name in "ab"])
        first = HourlyDispatch(
            demand_mw=(1.0, 2.0),
            generation_mw=((1.0,), (2.0,)),
            flows_mw=(),
            unserved_mw=(0.1, 0.2),
            curtailed_res_mw=(1e16, 1.0),
            prices_eur_per_mwh=(0.0, -0.0),
            loss_mw=0.0,
            cost_eur=1e16,
        )
        second = dataclasses.replace(first, unserved_mw=(0.3, 1e-17), curtailed_res_mw=(1.0, 3.0),
                                     prices_eur_per_mwh=(2.5, 1.0), cost_eur=1.0)
        copy = dataclasses.replace(first)
        assert copy == first and copy is not first
        result = DispatchResult(net, (first, second, copy, second, second, dataclasses.replace(first)))
        self.assert_per_hour(result)

    def test_totals_and_export_decode_no_hour(self):
        # simulate's result decodes its hours on first access to hourly, and
        # the totals and the export never ask for them.
        result = simulate(load_bundled_scenario("smoothing").require("network"), 48)
        names = ("total_cost_eur", "total_curtailed_mwh", "total_unserved_mwh", "mean_price_spread_eur_per_mwh")
        totals = {name: getattr(result, name).hex() for name in names}
        text = export_csv(result)
        assert "hourly" not in vars(result)
        hourly = result.hourly
        self.assert_per_hour(result)
        assert result.hourly is hourly and export_csv(result) == text
        assert totals == {name: getattr(result, name).hex() for name in names}


def day_network(rng):
    """An ``untied_network`` with a day of demand of its own in every region,
    plus a region with no free unit and one with two, each linked to the
    first region."""
    base = untied_network(rng)

    def day():
        return sinusoid_profile(rng.uniform(1, 12), rng.uniform(0.2, 0.9), rng.randrange(24))

    regions = [dataclasses.replace(r, demand_profile_mw=day(), tz_offset_hours=rng.randint(-11, 12))
               for r in base.regions]
    regions.append(Region("priced", rng.randint(-11, 12), day(), ((rng.uniform(0, 10), rng.uniform(1, 100)),)))
    regions.append(Region("free", rng.randint(-11, 12), day(), ((rng.uniform(0, 10), 0.0), (rng.uniform(0, 10), 0.0))))
    links = [Interconnector(regions[0].name, name, rng.uniform(0, 8), rng.uniform(0.5, 0.99)) for name in ("priced", "free")]
    return network(regions, base.interconnectors + tuple(links))


class TestTwoConstructors:
    """A result that simulate builds from its LP columns and one built by
    hand from min_cost_flow's hours of the same solves print the same text
    and give the same totals, to the bit."""

    TOTALS = ("total_cost_eur", "total_curtailed_mwh", "total_unserved_mwh", "mean_price_spread_eur_per_mwh")

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_simulate_equals_the_hand_built_result(self, seed):
        net = day_network(random.Random(seed))
        for hours in (1, 23, 25, 49, 8760):
            # Each copy has a problem of its own, so that its first hour
            # starts from the crash basis, and min_cost_flow solves the
            # distinct hours in simulate's order: the same solves.
            simulated = simulate(dataclasses.replace(net), hours)
            fresh = dataclasses.replace(net)
            solved = {d: min_cost_flow(fresh, d) for d in dict.fromkeys(dispatch._first_day(fresh, hours))}
            hourly = tuple(solved[hourly_demand(fresh, t % 24)] for t in range(hours))
            built = DispatchResult(fresh, hourly)
            assert export_csv(simulated) == export_csv(built), hours
            for name in self.TOTALS:
                assert getattr(simulated, name).hex() == getattr(built, name).hex(), (hours, name)
            assert all(hour is simulated.hourly[t % 24] for t, hour in enumerate(simulated.hourly))
            assert simulated.hourly == hourly


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

    def test_rejects_different_region_sets(self):
        result = simulate(self.night_wind_networks(10.0), 4)
        baseline = simulate(network([region("wind", 2, [(10, 0.0)])]), 4)
        with pytest.raises(ValueError, match="^results cover different region sets$"):
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

    @pytest.mark.parametrize("hours", [24, 25, 8760])
    @pytest.mark.parametrize("credit", [True, False])
    def test_equals_the_peaks_over_every_hour(self, hours, credit):
        # The reserve of the network's day is that of every horizon of a day or more.
        alpha = 0.15
        demo = load_bundled_scenario("smoothing").require("network")
        for net in (ring_network("25:3", n_regions=7, n_chords=3), demo):
            isolated = {
                region.name: alpha * max(region.demand_at(t) for t in range(hours))
                for region in net.regions
            }
            if credit:
                system_peak = max(sum(region.demand_at(t) for region in net.regions) for t in range(hours))
                shared = min(alpha * system_peak, sum(isolated.values()))
            else:
                shared = sum(isolated.values())
            req = reserve_requirements(net, alpha, link_headroom_credit=credit)
            assert req.isolated_mw == isolated
            assert req.shared_mw == shared

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
    with pytest.raises(ValueError, match="^region names must be unique$"):
        network([region("a", 1, [(1, 1)]), region("a", 1, [(1, 1)])])
    with pytest.raises(ValueError, match=r"^interconnectors\[0\] references unknown region 'b'$"):
        network([region("a", 1, [(1, 1)])], [Interconnector("a", "b", 1, 1.0)])
    with pytest.raises(ValueError):
        min_cost_flow(network([region("a", 1, [(1, 1)])]), (1.0, 2.0))
    with pytest.raises(ValueError, match="^a: tz_offset_hours must be a whole number, got 0.5$"):
        Region("a", 0.5, (10.0,) * 24, ((20.0, 1.0),))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Region(1), "^name must be a string, got 1$"),
        (lambda: Interconnector(None, "b", 1.0), "^region_a must be a string, got None$"),
        (lambda: Interconnector("a", b"b", 1.0), "^region_b must be a string, got b'b'$"),
    ],
    ids=["Region.name", "Interconnector.region_a", "Interconnector.region_b"],
)
def test_region_names_are_strings(build, message):
    # A scenario file's names are strings already; a library caller's 1 and
    # "1" would otherwise both print as 1, and None as an empty name.
    with pytest.raises(ValueError, match=message):
        build()


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
