"""Shared dispatch fixtures and independent oracles for the test suite."""

import collections
import itertools
import math
import random

import numpy as np
from scipy.optimize import linprog

from gridecon.dispatch import DispatchNetwork, HourlyDispatch, Interconnector, Region, sinusoid_profile

PENALTY = 10000.0


def flat(value: float) -> tuple[float, ...]:
    return (float(value),) * 24


def region(name, demand, gens, tz=0):
    profile = flat(demand) if isinstance(demand, (int, float)) else tuple(demand)
    return Region(name=name, tz_offset_hours=tz, demand_profile_mw=profile, generators=tuple(gens))


def network(regions, ics=(), penalty=PENALTY):
    return DispatchNetwork(
        regions=tuple(regions), interconnectors=tuple(ics), unserved_penalty_eur_per_mwh=penalty
    )


def region_index(net, name):
    for i, r in enumerate(net.regions):
        if r.name == name:
            return i
    raise KeyError(name)


def merit_order_cost(gens, need, penalty):
    """Cheapest way to produce ``need`` MW from a generator stack."""
    remaining = need
    cost = 0.0
    for cap, unit_cost in sorted(gens, key=lambda g: g[1]):
        take = min(cap, remaining)
        cost += take * unit_cost
        remaining -= take
    return cost + remaining * penalty


def enumeration_oracle(net, demands):
    """Exhaustive search over integer link flows; exact for efficiency-1
    integer networks, where an integral optimum exists."""
    assert all(ic.efficiency == 1.0 for ic in net.interconnectors)
    ranges = [range(-int(ic.capacity_mw), int(ic.capacity_mw) + 1) for ic in net.interconnectors]
    best = math.inf
    for flows in itertools.product(*ranges):
        need = list(demands)
        for flow, ic in zip(flows, net.interconnectors):
            need[region_index(net, ic.region_a)] += flow
            need[region_index(net, ic.region_b)] -= flow
        if any(n < 0 for n in need):
            continue
        cost = sum(
            merit_order_cost(r.generators, n, net.unserved_penalty_eur_per_mwh)
            for r, n in zip(net.regions, need)
        )
        best = min(best, cost)
    return best


def lp_oracle(net, demands):
    """Independent LP formulation solved directly with scipy."""
    gens = [(ri, cap, cost) for ri, r in enumerate(net.regions) for cap, cost in r.generators]
    n_regions, n_links = len(net.regions), len(net.interconnectors)
    n = len(gens) + 2 * n_links + n_regions
    c = [g[2] for g in gens] + [0.0] * (2 * n_links) + [net.unserved_penalty_eur_per_mwh] * n_regions
    eq = np.zeros((n_regions, n))
    for j, (ri, cap, cost) in enumerate(gens):
        eq[ri, j] = 1.0
    for li, ic in enumerate(net.interconnectors):
        a, b = region_index(net, ic.region_a), region_index(net, ic.region_b)
        jf = len(gens) + 2 * li
        eq[a, jf] -= 1.0
        eq[b, jf] += ic.efficiency
        eq[b, jf + 1] -= 1.0
        eq[a, jf + 1] += ic.efficiency
    for ri in range(n_regions):
        eq[ri, len(gens) + 2 * n_links + ri] = 1.0
    bounds = (
        [(0, cap) for _, cap, _ in gens]
        + [(0, ic.capacity_mw) for ic in net.interconnectors for _ in range(2)]
        + [(0, None)] * n_regions
    )
    res = linprog(c, A_eq=eq, b_eq=list(demands), bounds=bounds, method="highs")
    assert res.status == 0
    return res.fun


def random_network(rng, max_regions=4, integer=False, max_links=4):
    n_regions = rng.randint(1, max_regions)
    names = [f"r{i}" for i in range(n_regions)]
    regions = []
    for name in names:
        gens = []
        for _ in range(rng.randint(1, 3)):
            cap = rng.randint(0, 10) if integer else rng.uniform(0, 10)
            cost = rng.choice([0, rng.randint(1, 10)]) if integer else rng.choice(
                [0.0, rng.uniform(1, 100)]
            )
            gens.append((cap, cost))
        demand = rng.randint(0, 10) if integer else rng.uniform(0, 12)
        regions.append(region(name, demand, gens))
    ics = []
    if n_regions > 1:
        for _ in range(rng.randint(0, max_links)):
            a, b = rng.sample(names, 2)
            cap = rng.randint(0, 10) if integer else rng.uniform(0, 8)
            eff = 1.0 if integer else rng.choice([1.0, rng.uniform(0.5, 1.0)])
            ics.append(Interconnector(a, b, cap, eff))
    return network(regions, ics)


def energy_balance_residual(hour):
    generated = sum(sum(units) for units in hour.generation_mw)
    return generated - sum(hour.served_mw) - hour.loss_mw


def ring_network(seed, n_regions, n_chords):
    """Seeded ring of regions plus random chords, with lossy links and a
    three-unit merit order per region; the same draws as the benchmark's
    ring generator, so a seed names the same network in both."""
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

    def link(a, b, min_eff):
        capacity = round(rng.uniform(200.0, 1500.0), 1)
        return Interconnector(names[a], names[b], capacity, round(rng.uniform(min_eff, 0.99), 4))

    links = [link(i, (i + 1) % n_regions, 0.9) for i in range(n_regions)]
    taken = {frozenset((i, (i + 1) % n_regions)) for i in range(n_regions)}
    while len(links) < n_regions + n_chords:
        a, b = rng.randrange(n_regions), rng.randrange(n_regions)
        if a != b and frozenset((a, b)) not in taken:
            taken.add(frozenset((a, b)))
            links.append(link(a, b, 0.85))
    return DispatchNetwork(tuple(regions), tuple(links))


def hourly_demand(net, hour):
    return tuple(r.demand_at(hour) for r in net.regions)


def delivery_price_labels(net, columns):
    """Cheapest cost of delivering one more MWh in each region, by label-correcting
    shortest paths on the residual network of the LP column values ``columns``.

    An independent price oracle, which reads no dual. Each region starts at
    its cheapest arc from outside (a unit or its shedding) with spare
    capacity. Links cost nothing, so a residual link only scales a label:
    sending one more unit forward costs ``1 / efficiency`` of the sender's
    label, taking back one unit already sent refunds ``efficiency`` of it.
    Regions are corrected from a FIFO queue; a relaxation must improve a
    label by more than 1e-7, and a column within 1e-7 of a bound is at it. A residual cycle of lossy links would lower
    its labels geometrically without end, so a region queued ``n`` times
    after the seeding has its predecessor cycle closed at the fixed point 0
    (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 15). Columns must
    be solved at tight tolerances: a flow left at tolerance level makes a
    residual cycle that the optimum does not have.
    """
    eps = 1e-7
    arcs = ArcListProblem(net).arcs
    n = len(net.regions)
    dist = [math.inf] * n
    residual = [[] for _ in range(n)]
    for (tail, head, cap, gain, cost), flow in zip(arcs, columns):
        flow = min(max(flow, 0.0), cap)
        if tail is None:
            if cap - flow > eps and cost < dist[head] - eps:
                dist[head] = cost
            continue
        if cap - flow > eps:
            residual[tail].append((head, 1.0 / gain))
        if flow > eps:
            residual[head].append((tail, gain))
    pred = [None] * n
    enqueued = [0] * n
    queued = [True] * n
    queue = collections.deque(range(n))
    while queue:
        tail = queue.popleft()
        queued[tail] = False
        for head, m in residual[tail]:
            cand = dist[tail] * m
            if cand >= dist[head] - eps:
                continue
            dist[head] = cand
            pred[head] = (tail, m)
            if queued[head]:
                continue
            queued[head] = True
            queue.append(head)
            enqueued[head] += 1
            if enqueued[head] == n:
                node = _close_gain_cycle(dist, pred, head, eps)
                enqueued = [0] * n
                if not queued[node]:
                    queued[node] = True
                    queue.append(node)
    return dist


def _close_gain_cycle(dist, pred, start, eps):
    """Set a region of the predecessor cycle behind ``start`` to 0 and return it;
    raise AssertionError unless that cycle shrinks labels toward 0."""
    node = start
    for _ in range(len(dist)):  # past any tail of the predecessor graph
        assert pred[node] is not None, "price labels: no residual cycle to close"
        node = pred[node][0]
    slope, at = 1.0, node
    while True:
        at, m = pred[at]
        slope *= m
        if at == node:
            break
    assert slope < 1.0 and dist[node] > eps, f"price labels: cycle maps p to {slope} * p"
    dist[node] = 0.0
    return node


def crash_statuses(net, demand):
    """Each LP column's status name in the crash basis of ``demand``, by a
    walk over each region's own columns (its units and its shedding) in
    order of normalized objective, then column: each runs at its upper
    bound until the running total of capacity, shedding's being the demand,
    covers the region's demand; that column is basic, and the others stay at
    their lower bound, as every link does."""
    problem = ArcListProblem(net)
    status = ["kLower"] * problem.n_arcs
    for ri, need in enumerate(demand):
        own = [j for j, (tail, head, *_) in enumerate(problem.arcs) if tail is None and head == ri]
        total = 0.0
        for j in sorted(own, key=lambda j: (problem.objective[j], j)):
            total += need if j >= problem.first_shed else problem.arcs[j][2]
            if total >= need:
                status[j] = "kBasic"
                break
            status[j] = "kUpper"
    return status


class ArcListProblem:
    """The fields of ``_highs._Problem``, built arc by arc from one arc list:
    the reference for its array build.

    One arc (tail, head, capacity, gain, cost) per LP column, in the engine's
    column order: units region by region, each link forward then backward,
    one shedding arc per region. A unit or shedding arc comes from outside
    the network, so its tail is None in ``arcs``; in ``tails`` it is the
    number of regions. ``start_``, ``index_`` and ``value_`` are the balance
    matrix's columns, rows ascending within each.
    """

    def __init__(self, net):
        n_regions = len(net.regions)
        penalty = net.unserved_penalty_eur_per_mwh
        arcs = [(None, ri, cap, 1.0, cost) for ri, r in enumerate(net.regions) for cap, cost in r.generators]
        self.unit_counts = [len(r.generators) for r in net.regions]
        self.free_units = [(j, head, cap) for j, (_, head, cap, _, cost) in enumerate(arcs) if cost == 0.0]
        index = {r.name: ri for ri, r in enumerate(net.regions)}
        self.links = []
        for ic in net.interconnectors:
            a, b = index[ic.region_a], index[ic.region_b]
            self.links.append((len(arcs), 1.0 - ic.efficiency))
            arcs.append((a, b, ic.capacity_mw, ic.efficiency, 0.0))
            arcs.append((b, a, ic.capacity_mw, ic.efficiency, 0.0))
        self.first_shed = len(arcs)
        arcs.extend((None, ri, math.inf, 1.0, penalty) for ri in range(n_regions))
        self.arcs = arcs
        self.n_arcs = len(arcs)
        self.penalty = penalty
        self.costs = np.array([cost for *_, cost in arcs], dtype=float)
        self.objective = np.minimum(self.costs / penalty, 2.0)
        self.start_, self.index_, self.value_ = [0], [], []
        for tail, head, _, gain, _ in arcs:
            column = [(head, gain)] if tail is None else sorted(((tail, -1.0), (head, gain)))
            for row, entry in column:
                self.index_.append(row)
                self.value_.append(entry)
            self.start_.append(len(self.index_))
        self.capacities = np.array([cap for _, _, cap, _, _ in arcs])
        self.lower = [0.0] * len(arcs)
        self.heads = np.array([head for _, head, *_ in arcs])
        self.tails = np.array([n_regions if tail is None else tail for tail, *_ in arcs])
        self.gains = np.array([gain for _, _, _, gain, _ in arcs])
        self.link_columns = np.array([j + k for j, _ in self.links for k in (0, 1)], dtype=np.int32)
        self.loss_share = np.zeros(len(arcs))
        self.loss_share[self.link_columns] = [lost for _, lost in self.links for _ in (0, 1)]


def reference_decode(net, demand, x, prices):
    """The ``HourlyDispatch`` of an hour of ``net`` with ``demand``, decoded
    column by column from its LP column values ``x`` (clipped at 0) and its
    ``prices``: the reference for the decode of
    ``_highs._Problem.dispatch_hour``. Unserved is each region's shedding
    capped at its demand, ``min(x, d)``."""
    problem = ArcListProblem(net)
    xs = x.tolist()
    generation = []
    start = 0
    for count in problem.unit_counts:
        generation.append(tuple(xs[start : start + count]))
        start += count
    curtailed = [0.0] * len(net.regions)
    for j, ri, cap in problem.free_units:
        curtailed[ri] += cap - xs[j]
    return HourlyDispatch(
        demand_mw=tuple(demand),
        generation_mw=tuple(generation),
        flows_mw=tuple(xs[j] - xs[j + 1] for j, _ in problem.links),
        unserved_mw=tuple(map(min, xs[problem.first_shed :], demand)),
        curtailed_res_mw=tuple(curtailed),
        prices_eur_per_mwh=tuple(prices),
        loss_mw=float(sum((xs[j] + xs[j + 1]) * lost for j, lost in problem.links)),
        cost_eur=float(np.dot(problem.costs, x)),
    )
