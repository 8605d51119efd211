"""Hourly multi-region economic dispatch over an interconnection graph.

Each region has a 24-hour demand profile (shifted by its time-zone offset),
a stack of generators, and interconnectors to other regions that lose a
fixed fraction of whatever is sent through them. Every hour is dispatched
independently at minimum cost: generation is free to move between regions
as long as interconnector ratings are respected, and demand that cannot be
served is shed at a penalty price well above any generator.

The per-hour problem is a min-cost flow with lossy arcs (a unit sent
arrives as ``efficiency`` units). Successive shortest augmenting paths are
not exact once arcs have unequal gains, so the flow is solved as a small
exact linear program instead; costs are normalized before the solve, which
keeps the dispatched flows invariant under uniform price scaling. Each LP
column is one arc of a single arc list (a generator, one direction of an
interconnector, or a region's shedding). Marginal prices come from
per-unit-delivered shortest-path labels that walk the same arcs, as the
residual network of the optimal flow, so a region's price is the cost of
serving one more MWh there. Where the LP's dual is not unique (a unit
running exactly at its rating), that is the upper end of the dual range.

numpy and scipy are imported by the first solve, not by this module, so
that importing gridecon and every report that does not dispatch stay clear
of their half-second import.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .checks import require

DEFAULT_UNSERVED_PENALTY = 10000.0  # EUR/MWh, far above any generator

_EPS_FLOW = 1e-7  # residual capacities below this count as saturated
_EPS_IMPROVE = 1e-7  # label must improve by this much to relax

# scipy.optimize.linprog, bound by the first solve. Solves call it through
# this module global, so that it can be wrapped from outside.
linprog = None


@dataclass(frozen=True)
class Region:
    """A demand node; one left without demand or generators only passes power on."""

    name: str
    tz_offset_hours: int = 0
    demand_profile_mw: tuple[float, ...] = (0.0,) * 24
    generators: tuple[tuple[float, float], ...] = ()  # (capacity MW, marginal cost EUR/MWh)

    def __post_init__(self) -> None:
        object.__setattr__(self, "demand_profile_mw", tuple(self.demand_profile_mw))
        object.__setattr__(
            self, "generators", tuple((float(c), float(m)) for c, m in self.generators)
        )
        hours = len(self.demand_profile_mw)
        require(hours == 24, f"{self.name}: len(demand_profile_mw)", "24", hours)
        label = f"{self.name}: demand_profile_mw"
        for demand in self.demand_profile_mw:
            require(0 <= demand < math.inf, label, "finite and >= 0", demand)
        label = f"{self.name}: generators"
        for cap, cost in self.generators:
            ok = 0 <= cap < math.inf and 0 <= cost < math.inf
            require(ok, label, "finite and >= 0 in capacity and cost", (cap, cost))

    def demand_at(self, hour: int) -> float:
        """Demand at global hour ``hour``; the profile is read in local time."""
        return self.demand_profile_mw[(hour + self.tz_offset_hours) % 24]


@dataclass(frozen=True)
class Interconnector:
    region_a: str
    region_b: str
    capacity_mw: float
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.region_a == self.region_b:
            raise ValueError(f"interconnector endpoints must differ, got {self.region_a!r}")
        capacity, efficiency = self.capacity_mw, self.efficiency
        require(0 <= capacity < math.inf, "capacity_mw", "finite and >= 0", capacity)
        require(0.0 < efficiency <= 1.0, "efficiency", "in (0, 1]", efficiency)


@dataclass(frozen=True)
class DispatchNetwork:
    regions: tuple[Region, ...]
    interconnectors: tuple[Interconnector, ...] = ()
    unserved_penalty_eur_per_mwh: float = DEFAULT_UNSERVED_PENALTY

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "interconnectors", tuple(self.interconnectors))
        names = [r.name for r in self.regions]
        if len(set(names)) != len(names):
            raise ValueError("region names must be unique")
        for i, ic in enumerate(self.interconnectors):
            for endpoint in (ic.region_a, ic.region_b):
                if endpoint not in names:
                    raise ValueError(
                        f"interconnectors[{i}] references unknown region {endpoint!r}"
                    )
        penalty = self.unserved_penalty_eur_per_mwh
        require(0 < penalty < math.inf, "unserved_penalty_eur_per_mwh", "finite and > 0", penalty)


def sinusoid_profile(
    peak_mw: float, trough_fraction: float = 0.5, peak_hour: int = 12
) -> tuple[float, ...]:
    """Daily demand curve peaking at peak_hour with trough = fraction * peak."""
    require(0 <= peak_mw < math.inf, "peak_mw", "finite and >= 0", peak_mw)
    require(0.0 <= trough_fraction <= 1.0, "trough_fraction", "in [0, 1]", trough_fraction)
    mid = (1.0 + trough_fraction) / 2.0
    amp = (1.0 - trough_fraction) / 2.0
    return tuple(
        peak_mw * (mid + amp * math.cos(2.0 * math.pi * (h - peak_hour) / 24.0))
        for h in range(24)
    )


@dataclass(frozen=True)
class HourlyDispatch:
    demand_mw: tuple[float, ...]
    generation_mw: tuple[tuple[float, ...], ...]  # [region][unit]
    flows_mw: tuple[float, ...]  # signed, positive = region_a -> region_b (sent side)
    unserved_mw: tuple[float, ...]
    curtailed_res_mw: tuple[float, ...]  # idle capacity on zero-cost units
    prices_eur_per_mwh: tuple[float, ...]
    loss_mw: float
    cost_eur: float

    @property
    def served_mw(self) -> tuple[float, ...]:
        return tuple(d - u for d, u in zip(self.demand_mw, self.unserved_mw))


def _delivery_price_labels(
    arcs: list[tuple[int, int, float, float, float]], flows: list[float], n_nodes: int
) -> list[float]:
    """Cheapest cost of delivering one more unit at each node, from source node 0.

    Bellman-Ford on the residual network of ``arcs`` carrying ``flows``;
    traversing an arc forward maps a label p to (p + cost) / gain,
    traversing it backward refunds to p * gain - cost. Relaxation passes are
    bounded so that zero-cost residual loops (degenerate all-free networks)
    terminate; labels are clamped at zero since no cost is negative.
    """
    dist = [math.inf] * n_nodes
    dist[0] = 0.0
    for _ in range(n_nodes + 40):
        improved = False
        for (tail, head, cap, gain, cost), flow in zip(arcs, flows):
            if cap - flow > _EPS_FLOW and dist[tail] < math.inf:
                cand = max(0.0, (dist[tail] + cost) / gain)
                if cand < dist[head] - _EPS_IMPROVE:
                    dist[head] = cand
                    improved = True
            if flow > _EPS_FLOW and dist[head] < math.inf:
                cand = max(0.0, dist[head] * gain - cost)
                if cand < dist[tail] - _EPS_IMPROVE:
                    dist[tail] = cand
                    improved = True
        if not improved:
            break
    return dist


def min_cost_flow(network: DispatchNetwork, demand_mw) -> HourlyDispatch:
    """Cost-minimal generation and flows for one hour, given each region's demand.

    Demand that cannot be met is absorbed by a penalty variable priced at
    the network's unserved penalty, so the problem is always feasible.
    """
    demand = tuple(demand_mw)
    n_regions = len(network.regions)
    rule = f"{n_regions}, one value per region"
    require(len(demand) == n_regions, "len(demand_mw)", rule, len(demand))
    ok = all(0 <= d < math.inf for d in demand)
    require(ok, "demand_mw", "finite and >= 0 in every region", demand)
    global linprog
    if linprog is None:
        from scipy.optimize import linprog
    import numpy as np

    penalty = network.unserved_penalty_eur_per_mwh
    # One arc (tail, head, capacity, gain, cost) per LP column: generators
    # region by region, each interconnector forward then backward, then one
    # shedding arc per region. Node 0 is the source, region i is node i + 1.
    arcs = [
        (0, ri + 1, cap, 1.0, cost)
        for ri, region in enumerate(network.regions)
        for cap, cost in region.generators
    ]
    first_link = len(arcs)
    node = {region.name: ri + 1 for ri, region in enumerate(network.regions)}
    for ic in network.interconnectors:
        a, b = node[ic.region_a], node[ic.region_b]
        arcs.append((a, b, ic.capacity_mw, ic.efficiency, 0.0))
        arcs.append((b, a, ic.capacity_mw, ic.efficiency, 0.0))
    first_shed = len(arcs)
    arcs.extend((0, ri + 1, math.inf, 1.0, penalty) for ri in range(n_regions))

    costs = np.array([cost for *_, cost in arcs], dtype=float)
    balance = np.zeros((n_regions, len(arcs)))
    for j, (tail, head, _, gain, _) in enumerate(arcs):
        if tail:
            balance[tail - 1, j] -= 1.0
        balance[head - 1, j] += gain
    # Capping shedding at local demand rules out degenerate optima that
    # route penalty power over cost-tied efficiency-1 links.
    bounds = [(0.0, cap) for _, _, cap, _, _ in arcs[:first_shed]]
    bounds.extend((0.0, d) for d in demand)

    # Normalizing the objective keeps the chosen vertex invariant when all
    # marginal costs are scaled by a constant.
    scale = float(costs.max())
    objective = costs / scale if scale > 0 else costs
    solution = linprog(
        objective,
        A_eq=balance,
        b_eq=np.array(demand),
        bounds=bounds,
        method="highs",
    )
    if solution.status != 0:
        # The LP is feasible by construction, so a failure means inputs too
        # large (or too far apart in scale) for the solver: an input error.
        raise ValueError(f"dispatch LP failed: {solution.message}")
    x = np.clip(solution.x, 0.0, None)
    xs = x.tolist()

    generation = [[] for _ in range(n_regions)]
    curtailed = [0] * n_regions
    for (_, head, cap, _, cost), sent in zip(arcs[:first_link], xs):
        generation[head - 1].append(sent)
        if cost == 0.0:
            curtailed[head - 1] += cap - sent
    link_pairs = range(first_link, first_shed, 2)
    flows = tuple(xs[j] - xs[j + 1] for j in link_pairs)
    loss = float(sum((xs[j] + xs[j + 1]) * (1.0 - arcs[j][3]) for j in link_pairs))
    unserved = tuple(min(xs[first_shed + ri], demand[ri]) for ri in range(n_regions))
    labels = _delivery_price_labels(
        arcs, [min(sent, arc[2]) for sent, arc in zip(xs, arcs)], 1 + n_regions
    )
    return HourlyDispatch(
        demand_mw=demand,
        generation_mw=tuple(map(tuple, generation)),
        flows_mw=flows,
        unserved_mw=unserved,
        curtailed_res_mw=tuple(curtailed),
        prices_eur_per_mwh=tuple(min(labels[ri + 1], penalty) for ri in range(n_regions)),
        loss_mw=loss,
        cost_eur=float(np.dot(costs, x)),
    )


@dataclass(frozen=True)
class DispatchResult:
    network: DispatchNetwork
    hourly: tuple[HourlyDispatch, ...]

    @property
    def n_hours(self) -> int:
        return len(self.hourly)

    @property
    def total_cost_eur(self) -> float:
        return sum(h.cost_eur for h in self.hourly)

    @property
    def total_curtailed_mwh(self) -> float:
        return sum(sum(h.curtailed_res_mw) for h in self.hourly)

    @property
    def total_unserved_mwh(self) -> float:
        return sum(sum(h.unserved_mw) for h in self.hourly)

    @property
    def mean_price_spread_eur_per_mwh(self) -> float:
        import numpy as np

        prices = np.array([h.prices_eur_per_mwh for h in self.hourly])
        return float(np.mean(prices.max(axis=1) - prices.min(axis=1)))


def simulate(network: DispatchNetwork, hours: int) -> DispatchResult:
    """Dispatch ``hours`` consecutive hours; hours are independent (no storage)."""
    require(1 <= hours < math.inf, "hours", "finite and >= 1", hours)
    hourly = []
    for t in range(hours):
        demand = tuple(region.demand_at(t) for region in network.regions)
        hourly.append(min_cost_flow(network, demand))
    return DispatchResult(network=network, hourly=tuple(hourly))


@dataclass(frozen=True)
class CurtailmentMetrics:
    curtailed_gwh: float
    baseline_curtailed_gwh: float
    curtailment_reduction_pct: float
    cost_reduction_pct: float
    mean_price_spread_eur_per_mwh: float
    baseline_mean_price_spread_eur_per_mwh: float


def curtailment_metrics(
    result: DispatchResult, baseline: DispatchResult
) -> CurtailmentMetrics:
    """Deltas of a run against a baseline differing only in interconnectors."""
    if result.n_hours != baseline.n_hours:
        raise ValueError(
            f"horizons differ: {result.n_hours} vs {baseline.n_hours} hours"
        )
    result_names = [r.name for r in result.network.regions]
    baseline_names = [r.name for r in baseline.network.regions]
    if result_names != baseline_names:
        raise ValueError("results cover different region sets")

    def reduction(base: float, new: float) -> float:
        if base == 0.0:
            return 0.0
        return (base - new) / base * 100.0

    return CurtailmentMetrics(
        curtailed_gwh=result.total_curtailed_mwh / 1000.0,
        baseline_curtailed_gwh=baseline.total_curtailed_mwh / 1000.0,
        curtailment_reduction_pct=reduction(
            baseline.total_curtailed_mwh, result.total_curtailed_mwh
        ),
        cost_reduction_pct=reduction(baseline.total_cost_eur, result.total_cost_eur),
        mean_price_spread_eur_per_mwh=result.mean_price_spread_eur_per_mwh,
        baseline_mean_price_spread_eur_per_mwh=baseline.mean_price_spread_eur_per_mwh,
    )


@dataclass(frozen=True)
class ReserveRequirements:
    isolated_mw: dict[str, float]
    shared_mw: float

    @property
    def isolated_total_mw(self) -> float:
        return sum(self.isolated_mw.values())


def reserve_requirements(
    network: DispatchNetwork,
    alpha: float,
    link_headroom_credit: bool = True,
    hours: int = 24,
) -> ReserveRequirements:
    """Reserve margins as a fraction of peak demand, isolated vs pooled.

    Isolated regions each hold alpha times their own peak. With the
    headroom credit the system holds alpha times the coincident system
    peak, which is never more than the sum of the individual requirements.
    """
    require(0.0 < alpha <= 1.0, "alpha", "in (0, 1]", alpha)
    require(1 <= hours < math.inf, "hours", "finite and >= 1", hours)
    isolated = {
        region.name: alpha * max(region.demand_at(t) for t in range(hours))
        for region in network.regions
    }
    if link_headroom_credit:
        system_peak = max(
            sum(region.demand_at(t) for region in network.regions) for t in range(hours)
        )
        shared = min(alpha * system_peak, sum(isolated.values()))
    else:
        shared = sum(isolated.values())
    return ReserveRequirements(isolated_mw=isolated, shared_mw=shared)


def export_csv(result: DispatchResult) -> str:
    """Hour-by-region rows followed by a summary block, RFC-4180 style."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        [
            "hour",
            "region",
            "demand_mw",
            "served_mw",
            "generation_mw",
            "curtailed_mw",
            "unserved_mw",
            "price_eur_per_mwh",
        ]
    )
    for t, hour in enumerate(result.hourly):
        served = hour.served_mw
        for ri, region in enumerate(result.network.regions):
            writer.writerow(
                [
                    t,
                    region.name,
                    _fmt(hour.demand_mw[ri]),
                    _fmt(served[ri]),
                    _fmt(sum(hour.generation_mw[ri])),
                    _fmt(hour.curtailed_res_mw[ri]),
                    _fmt(hour.unserved_mw[ri]),
                    _fmt(hour.prices_eur_per_mwh[ri]),
                ]
            )
    writer.writerow([])
    writer.writerow(["metric", "value"])
    writer.writerow(["hours", result.n_hours])
    writer.writerow(["total_cost_eur", _fmt(result.total_cost_eur)])
    writer.writerow(["total_curtailed_mwh", _fmt(result.total_curtailed_mwh)])
    writer.writerow(["total_unserved_mwh", _fmt(result.total_unserved_mwh)])
    writer.writerow(["mean_price_spread_eur_per_mwh", _fmt(result.mean_price_spread_eur_per_mwh)])
    return out.getvalue()


def _fmt(value: float) -> str:
    rounded = round(value, 6)
    if rounded == int(rounded):
        return str(int(rounded))
    return format(rounded, "g")
