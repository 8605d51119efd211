"""Seeded synthetic ring networks for the large-network dispatch workload.

A ring of regions, each tied to its neighbour, plus random chords between
non-adjacent regions. Every region gets a random time-zone offset, a
sinusoidal daily demand curve and a three-unit merit order (free
renewables, a mid-merit and a peaking unit); every link gets a random
rating and efficiency. The time-zone offsets make the 24 hourly demand
vectors distinct, so reusing solved hours gains nothing on these inputs.

``reference_total_cost`` is an independent check of the dispatch result:
it solves all 24 hours as one sparse block-diagonal LP, whose optimum must
equal the sum of the hourly optima.
"""

from __future__ import annotations

import random

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from gridecon.dispatch import DispatchNetwork, Interconnector, Region, sinusoid_profile

N_REGIONS = 200
N_CHORDS = 200
HOURS = 24


def make_ring(seed: str, n_regions: int = N_REGIONS, n_chords: int = N_CHORDS) -> DispatchNetwork:
    """Ring of ``n_regions`` plus ``n_chords`` distinct chords, drawn from ``seed``."""
    rng = random.Random(seed)
    names = [f"r{i:03d}" for i in range(n_regions)]
    regions = []
    for name in names:
        peak = round(rng.uniform(500.0, 3000.0), 1)
        profile = sinusoid_profile(peak, round(rng.uniform(0.3, 0.8), 3), rng.randrange(24))
        generators = (
            (round(rng.uniform(0.2, 1.2) * peak, 1), 0.0),
            (round(rng.uniform(0.3, 0.8) * peak, 1), round(rng.uniform(20.0, 60.0), 2)),
            (round(rng.uniform(0.2, 0.6) * peak, 1), round(rng.uniform(80.0, 200.0), 2)),
        )
        regions.append(Region(name, rng.randint(-11, 12), profile, generators))

    def link(a: int, b: int, min_eff: float) -> Interconnector:
        return Interconnector(
            names[a], names[b], round(rng.uniform(200.0, 1500.0), 1), round(rng.uniform(min_eff, 0.99), 4)
        )

    links = [link(i, (i + 1) % n_regions, 0.9) for i in range(n_regions)]
    taken = {frozenset((i, (i + 1) % n_regions)) for i in range(n_regions)}
    while len(links) < n_regions + n_chords:
        a, b = rng.randrange(n_regions), rng.randrange(n_regions)
        if a != b and frozenset((a, b)) not in taken:
            taken.add(frozenset((a, b)))
            links.append(link(a, b, 0.85))
    network = DispatchNetwork(tuple(regions), tuple(links))
    demands = {hourly_demand(network, t) for t in range(HOURS)}
    if len(demands) != HOURS:
        raise AssertionError(f"ring {seed!r}: {len(demands)} distinct hourly demand vectors, want {HOURS}")
    return network


def hourly_demand(network: DispatchNetwork, hour: int) -> tuple[float, ...]:
    return tuple(region.demand_at(hour) for region in network.regions)


def network_size(network: DispatchNetwork) -> dict[str, int]:
    """Region, link and per-hour LP-variable counts of a dispatch network."""
    n_gens = sum(len(region.generators) for region in network.regions)
    n_links = len(network.interconnectors)
    n_regions = len(network.regions)
    return {
        "regions": n_regions,
        "links": n_links,
        "lp_variables": n_gens + 2 * n_links + n_regions,
    }


def reference_total_cost(network: DispatchNetwork, hours: int = HOURS) -> float:
    """Optimal dispatch cost over ``hours``, solved as one block-diagonal LP.

    Per hour the variables are every generator, both directions of every
    link and one unserved-demand slack per region, with the same bounds and
    costs as the hourly dispatch problem.
    """
    index = {region.name: i for i, region in enumerate(network.regions)}
    n_regions = len(network.regions)
    cost, upper, rows, cols, vals = [], [], [], [], []

    def var(row: int, coef: float, c: float, ub: float) -> None:
        rows.append(row)
        cols.append(len(cost))
        vals.append(coef)
        cost.append(c)
        upper.append(ub)

    demand = []
    for t in range(hours):
        base = t * n_regions
        for ri, region in enumerate(network.regions):
            for cap, c in region.generators:
                var(base + ri, 1.0, c, cap)
        for ic in network.interconnectors:
            a, b = base + index[ic.region_a], base + index[ic.region_b]
            for tail, head in ((a, b), (b, a)):
                j = len(cost)
                rows.extend((tail, head))
                cols.extend((j, j))
                vals.extend((-1.0, ic.efficiency))
                cost.append(0.0)
                upper.append(ic.capacity_mw)
        hour_demand = hourly_demand(network, t)
        for ri in range(n_regions):
            var(base + ri, 1.0, network.unserved_penalty_eur_per_mwh, hour_demand[ri])
        demand.extend(hour_demand)
    a_eq = sparse.csr_matrix((vals, (rows, cols)), shape=(hours * n_regions, len(cost)))
    solution = linprog(
        np.array(cost),
        A_eq=a_eq,
        b_eq=np.array(demand),
        bounds=np.column_stack((np.zeros(len(upper)), np.array(upper))),
        method="highs",
    )
    if solution.status != 0:
        raise RuntimeError(f"reference LP failed: {solution.message}")
    return float(solution.fun)
