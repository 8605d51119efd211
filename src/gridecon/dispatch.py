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
exact linear program instead; costs are divided by the unserved penalty
before the solve, which keeps the dispatched flows invariant under uniform
price scaling, and a unit priced above the penalty, which never runs, goes
in at twice the penalty so that it cannot shrink the others. Each LP
column is one arc of a single arc list (a generator, one direction of an
interconnector, or a region's shedding). Marginal prices come from
per-unit-delivered shortest-path labels, one per region, over the residual
network of the optimal flow, so a region's price is the cost of serving one
more MWh there. Where the LP's dual is not unique (a unit running exactly
at its rating), that is the upper end of the dual range. Only generators
and shedding cost anything, and they enter a region from outside the
network: a label starts at the cheapest of them with spare capacity, and a
residual link only multiplies it, by ``1 / efficiency`` forward and by
``efficiency`` back.

The labels are corrected from a FIFO queue of regions, with no bound on
the number of passes. A residual cycle of lossy links multiplies its labels
by a constant factor below 1 per round, without end, so such a cycle is
closed in one step at its fixed point 0, as generalized shortest-path
labels are (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 15). A
cycle that cannot close this way raises ``ValueError``, which ``simulate``
prefixes with the hour; its labels are never returned as prices. HiGHS
solves at feasibility tolerances of 1e-9, not its default 1e-7: flows left
at the default tolerance make residual cycles that the optimum does not
have, and labels that follow them to their fixed point undercut the cost
of one more MWh.

Each hour is solved through the HiGHS binding that scipy bundles
(``scipy.optimize._highspy._core``, loaded by ``gridecon._highs`` from its
file, without ``scipy.optimize``): dual simplex, presolve off, no output,
as ``scipy.optimize.linprog`` sets them. ``linprog`` itself checks every
option on every call and builds bound marginals that nothing here reads,
which costs about as much as HiGHS. Every binding call's status is checked,
and the model must end optimal; anything else raises ``ValueError("dispatch
LP failed: ...")``. HiGHS reads a bound of 1e20 or more as infinite and
rejects such a model, and a run after a rejected load would solve whatever
model it held. The balance constraints go to HiGHS as a sparse column
matrix, one column per arc with at most two entries (leaving one region,
arriving in another). ``simulate`` solves each distinct demand vector once:
an hour that repeats an earlier hour's demand shares that hour's result, so
a year of a daily profile costs about as much as its distinct hours, at
most 24.

Everything in an hour's LP but its demand is built once per network, by
the first solve, and cached on the network: the arc list, the normalized
objective, the balance matrix (in the binding's own sparse type, which a
model copies whole), the column bounds, the HiGHS options, the reference
basis (below) and the maps that decode a solution (each region's unit
count, the zero-cost units and the link pairs with their loss shares). An
hour copies the upper bounds, writes its demand into the shedding bounds
and the balance rows, loads the model, solves from the reference basis and
decodes. A network is frozen, so its problem never goes stale; a
``dataclasses.replace`` copy is a new network and builds its own. This
compiled problem is also the block that an LP of coupled hours would
stack.

``export_csv`` follows ``simulate``'s memo. It renders each distinct hour's
region rows once, without the hour column, and writes every hour as its
number in front of those rows; each distinct value is formatted once. The
rows are keyed by the identity of the ``HourlyDispatch``, which ``simulate``
shares among the repeats of a demand vector, so no hour is hashed. An equal
hour that is a separate object is only rendered again, to the same text. A
year of the 2-region demo exports in about 13 ms instead of 86 ms (2 CPUs,
Python 3.11).

The hours of one network differ only in demand, and demand enters the LP
only as bounds (the balance rows and the shedding caps), never as a cost or
a matrix entry. So a basis of one hour is a basis of every other, and an
optimal one stays dual feasible: from it, dual simplex reoptimizes after the
change of right-hand side in a few pivots, where a cold start pivots all the
way from the slack basis (Bixby, *Operations Research* 50(1), 2002). Each
network solves one reference hour cold, in which every region draws the
mean of its 24-hour profile, keeps its optimal basis, and starts every hour
from it: on a 24 h run of a 200-region ring, HiGHS takes about 2.8k simplex
iterations instead of 13.7k. The start is that one basis, never the
previous hour's. Each thread keeps one HiGHS instance, and loading an
hour's model clears whatever the instance held before the basis is set, so
an hour's result depends on its network and demand alone: ``simulate``
equals ``min_cost_flow`` hour by hour, in any order and on any thread. A
network whose reference hour HiGHS cannot solve (say, a mean demand that it
reads as infinite) keeps no basis, and its hours start cold. The instance
is reused because building one takes about 0.1 ms, as long as HiGHS takes
to solve an hour of the 2-region demo.

The distinct hours of a large network are solved concurrently, one thread
per CPU: HiGHS runs without the GIL, so one hour's solve overlaps the
Python that builds, decodes and prices another. A network takes this path
when its LP has at least ``_THREADED_MIN_ARCS`` columns (400, the measured
crossover); below that HiGHS is too small a share of an hour, threads only
contend for the GIL, and the hours are solved one after the other on the
calling thread, without importing ``concurrent.futures``. The compiled
problem, its reference basis with it, is built on the calling thread before
the pool starts. Results are the same on both paths, and so is the failing
hour that an error names. On 2 CPUs a 24 h run of a 200-region ring (1600
columns) takes about a third less time threaded.

numpy and the HiGHS extension are imported by the first solve, not by this
module, so importing gridecon and every report that does not dispatch stay
clear of them. The first solve never imports ``scipy.optimize``, whose
package init (linalg, sparse, special and more) took about 0.7 s of a cold
``gridecon simulate --hours 24``: only the light ``scipy`` package and the
extension file load, and that process takes about 0.36 s instead of 1.1 s
(2 CPUs, Python 3.11, scipy 1.17).
"""

from __future__ import annotations

import csv
import functools
import io
import math
import numbers
import os
import threading
from collections import deque
from dataclasses import dataclass

from .checks import require

DEFAULT_UNSERVED_PENALTY = 10000.0  # EUR/MWh, far above any generator

_EPS_FLOW = 1e-7  # residual capacities below this count as saturated
_EPS_IMPROVE = 1e-7  # label must improve by this much to relax
# HiGHS options, set on every hour's solver. Tight tolerances leave no flow
# at tolerance level to form false residual cycles (see the module
# docstring); presolve costs more than it saves on LPs this small.
_HIGHS_OPTIONS = {
    "dual_feasibility_tolerance": 1e-9,
    "primal_feasibility_tolerance": 1e-9,
    "presolve": "off",
    "simplex_strategy": 1,  # dual simplex
    "output_flag": False,
}
# simulate solves the distinct hours of a network with at least this many LP
# columns on concurrent threads. HiGHS runs without the GIL, but on a small
# LP it is a small share of an hour, and threads there only contend for the
# GIL; since hours start from the reference basis, HiGHS takes about a third
# of the time it took cold, so the crossover has moved up. Threaded over
# serial wall time of a 24 h simulate on seeded rings of n regions and n
# chords (8 n arcs), median of 16 alternating runs per size on 2 CPUs
# (Python 3.11, scipy 1.17): 80 arcs 1.34 (threads won 2 of 16), 160 arcs
# 1.02 (6), 200 arcs 0.94 (11), 304 arcs 0.89 (13), 400 arcs 0.85 (12), 600
# arcs 0.73 (14), 800 arcs 0.69 (16), 1600 arcs 0.68 (14). Two more sweeps
# of 32 runs per size, pooled where their sizes overlap: 200 arcs 1.02 (15
# of 32), 304 arcs 0.89 (23), 400 arcs 0.77 (55 of 64), 600 arcs 0.80 (59
# of 64), 800 arcs 0.74 (31 of 32). 400 arcs is the first size whose gain
# clears the runs' spread (upper quartile 0.87); at 200 arcs no sweep's
# does any longer.
_THREADED_MIN_ARCS = 400
# Each thread's HiGHS instance (see _thread_highs).
_thread = threading.local()


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
        require(len(self.regions) >= 1, "len(regions)", ">= 1", len(self.regions))
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

    @functools.cached_property
    def _problem(self) -> _Problem:
        """The dispatch LP of this network, built by the first hour solved.

        A frozen network never changes, so the cache never goes stale; a
        ``dataclasses.replace`` copy is a new network with no cache.
        """
        return _Problem(self)


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
    arcs: list[tuple[int | None, int, float, float, float]], flows: list[float], n_regions: int
) -> list[float]:
    """Cheapest cost of delivering one more unit in each region.

    Label-correcting shortest paths on the residual network of ``arcs``
    carrying ``flows``, visiting regions from a FIFO queue. Each region
    starts at its cheapest arc from outside (a unit or its shedding) with
    spare capacity; a later arc must undercut an earlier one by more than
    ``_EPS_IMPROVE``, as every relaxation must. Links cost nothing, so
    each residual link only scales a label: sending one more unit forward
    costs ``1 / efficiency`` of the sender's label, taking back one unit
    already sent refunds ``efficiency`` of it.

    There is no bound on passes. A residual cycle of links multiplies
    labels by its product M of those factors; with M < 1 it lowers them
    geometrically, without end, toward its fixed point 0. A region queued
    again ``n_regions`` times after the seeding lies on or behind such a
    cycle, so its predecessors lead to it; the cycle's region is then set to 0 and the
    queue goes on from there. Anything else cannot converge and raises
    ValueError. The flows must be solved at tight tolerances: a flow left
    at tolerance level makes a residual cycle that the optimum does not
    have, and closing it undercuts the price.
    """
    dist = [math.inf] * n_regions
    residual = [[] for _ in range(n_regions)]
    for (tail, head, cap, gain, cost), flow in zip(arcs, flows):
        if tail is None:
            if cap - flow > _EPS_FLOW and cost < dist[head] - _EPS_IMPROVE:
                dist[head] = cost
            continue
        if cap - flow > _EPS_FLOW:
            residual[tail].append((head, 1.0 / gain))
        if flow > _EPS_FLOW:
            residual[head].append((tail, gain))
    pred: list[tuple[int, float] | None] = [None] * n_regions
    enqueued = [0] * n_regions
    queued = [True] * n_regions
    queue = deque(range(n_regions))
    while queue:
        tail = queue.popleft()
        queued[tail] = False
        label = dist[tail]
        for head, m in residual[tail]:
            cand = label * m
            if cand >= dist[head] - _EPS_IMPROVE:
                continue
            dist[head] = cand
            pred[head] = (tail, m)
            if queued[head]:
                continue
            queued[head] = True
            queue.append(head)
            enqueued[head] += 1
            if enqueued[head] == n_regions:
                node = _close_gain_cycle(dist, pred, head)
                enqueued = [0] * n_regions
                if not queued[node]:
                    queued[node] = True
                    queue.append(node)
    return dist


def _close_gain_cycle(dist: list[float], pred: list, start: int) -> int:
    """Set a region of the predecessor cycle behind ``start`` to its fixed point 0.

    Returns that region. Raises ValueError when the predecessors lead to
    no cycle, or to one that does not shrink labels or whose region is
    already within ``_EPS_IMPROVE`` of 0.
    """
    node = start
    for _ in range(len(dist)):  # past any tail of the predecessor graph
        if pred[node] is None:
            raise ValueError("price labels do not converge: no residual cycle to close")
        node = pred[node][0]
    slope, at, arcs = 1.0, node, 0
    while True:
        at, m = pred[at]
        slope, arcs = slope * m, arcs + 1
        if at == node:
            break
    if slope < 1.0 and 0.0 < dist[node] - _EPS_IMPROVE:
        dist[node] = 0.0
        return node
    raise ValueError(
        f"price labels do not converge: a residual cycle of {arcs} arcs "
        f"maps p to {slope:.6g} * p, with no fixed point below {dist[node]:.6g}"
    )


class _Problem:
    """A network's dispatch LP without its hour: everything but demand.

    One arc (tail, head, capacity, gain, cost) per LP column, its ends given
    as region indices: generators region by region, each interconnector
    forward then backward, then one shedding arc per region. A generator or
    shedding arc enters its region from outside the network, so its tail is
    None. ``basis`` is the optimal HiGHS basis of the reference hour that
    every hour starts from, or None.
    """

    def __init__(self, network: DispatchNetwork) -> None:
        import numpy as np

        from ._highs import core

        n_regions = len(network.regions)
        penalty = network.unserved_penalty_eur_per_mwh
        arcs = [
            (None, ri, cap, 1.0, cost)
            for ri, region in enumerate(network.regions)
            for cap, cost in region.generators
        ]
        self.unit_counts = [len(region.generators) for region in network.regions]
        self.free_units = [(j, head, cap) for j, (_, head, cap, _, cost) in enumerate(arcs) if cost == 0.0]
        index = {region.name: ri for ri, region in enumerate(network.regions)}
        self.links = []
        for ic in network.interconnectors:
            a, b = index[ic.region_a], index[ic.region_b]
            self.links.append((len(arcs), 1.0 - ic.efficiency))
            arcs.append((a, b, ic.capacity_mw, ic.efficiency, 0.0))
            arcs.append((b, a, ic.capacity_mw, ic.efficiency, 0.0))
        self.first_shed = len(arcs)
        arcs.extend((None, ri, math.inf, 1.0, penalty) for ri in range(n_regions))
        self.arcs = arcs

        self.costs = np.array([cost for *_, cost in arcs], dtype=float)
        # Normalizing the objective by the penalty keeps the chosen vertex
        # invariant when all marginal costs are scaled by a constant. A unit
        # priced above the penalty never runs, since shedding is cheaper; it is
        # capped just above shedding, or its price would push every other cost
        # below HiGHS's dual tolerance. With no such unit the penalty is the
        # largest cost, as every region has a shedding arc.
        self.objective = np.minimum(self.costs / penalty, 2.0)
        # The balance rows, one column per arc: -1 where it leaves a region,
        # its gain where it arrives; rows ascend within a column (canonical CSC).
        indptr, indices, data = [0], [], []
        for tail, head, _, gain, _ in arcs:
            column = [(head, gain)] if tail is None else sorted(((tail, -1.0), (head, gain)))
            for row, entry in column:
                indices.append(row)
                data.append(entry)
            indptr.append(len(indices))
        # Built once in HiGHS's own type: an hour's model copies it whole, where
        # the binding would convert every entry again.
        self.balance = balance = core.HighsSparseMatrix()
        balance.format_ = core.MatrixFormat.kColwise
        balance.num_col_, balance.num_row_ = len(arcs), n_regions
        balance.start_, balance.index_, balance.value_ = indptr, indices, data
        self.capacities = np.array([cap for _, _, cap, _, _ in arcs])
        # An hour's column bounds: 0 to capacity, shedding capped at its demand.
        # Lists, because the binding converts a list of bounds faster than an
        # array (only the costs take an array whole).
        self.lower = [0.0] * len(arcs)
        self.upper = self.capacities.tolist()
        self.options = core.HighsOptions()
        for name, value in _HIGHS_OPTIONS.items():
            setattr(self.options, name, value)
        # Every hour starts from the optimal basis of a reference hour, in
        # which each region draws the mean of its profile; None (every hour
        # cold) if HiGHS cannot solve that hour. The reference hour itself
        # solves cold, since the basis is still None.
        self.basis = None
        reference = tuple(sum(r.demand_profile_mw) / 24 for r in network.regions)
        highs = _thread_highs()
        if _run(highs, self, reference) is None:
            self.basis = highs.getBasis()


def _solve_hour(problem: _Problem, demand: tuple[float, ...]) -> list[float]:
    """The LP column values of one hour, solved from the network's reference basis.

    The calling thread's HiGHS instance is loaded with the hour's model,
    which clears whatever it held, and starts from ``problem.basis`` (cold
    when that is None), so the result depends on the network and the demand
    alone, never on the hours solved before. The demand goes into the
    balance rows and caps each region's shedding: capping shedding at local
    demand rules out degenerate optima that route penalty power over
    cost-tied efficiency-1 links.
    """
    highs = _thread_highs()
    failure = _run(highs, problem, demand)
    if failure:
        raise ValueError(f"dispatch LP failed: {failure}")
    return highs.getSolution().col_value


def _thread_highs():
    """The calling thread's HiGHS instance, built on its first solve."""
    highs = getattr(_thread, "highs", None)
    if highs is None:
        from ._highs import core

        highs = _thread.highs = core._Highs()
    return highs


def _run(highs, problem: _Problem, demand: tuple[float, ...]) -> str | None:
    """Load ``problem`` at ``demand`` into ``highs``, solve it from
    ``problem.basis`` (cold when None) and return None, or why it failed.

    Every binding call is checked, since HiGHS rejects a model with a bound
    of 1e20 or more (it reads those as infinite) and would then run
    whatever model it held.
    """
    from ._highs import core

    lp = core.HighsLp()
    lp.num_col_, lp.num_row_ = len(problem.arcs), len(demand)
    lp.a_matrix_ = problem.balance
    lp.col_cost_ = problem.objective
    lp.col_lower_ = problem.lower
    upper = problem.upper.copy()
    upper[problem.first_shed :] = demand
    lp.col_upper_ = upper
    lp.row_lower_ = lp.row_upper_ = demand
    error = core.HighsStatus.kError
    # The LP is feasible by construction, so a failure means inputs too large
    # (or too far apart in scale) for the solver: an input error.
    if highs.passOptions(problem.options) == error or highs.passModel(lp) == error:
        return "HiGHS rejected the model"
    if problem.basis is not None and highs.setBasis(problem.basis) == error:
        return "HiGHS rejected the basis"
    ran = highs.run()
    status = highs.getModelStatus()
    if ran == error or status != core.HighsModelStatus.kOptimal:
        return highs.modelStatusToString(status)
    return None


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
    import numpy as np

    problem = network._problem
    first_shed = problem.first_shed
    x = np.clip(_solve_hour(problem, demand), 0.0, None)
    xs = x.tolist()

    generation = []
    start = 0
    for count in problem.unit_counts:
        generation.append(tuple(xs[start : start + count]))
        start += count
    curtailed = [0.0] * n_regions
    for j, ri, cap in problem.free_units:
        curtailed[ri] += cap - xs[j]
    flows = tuple(xs[j] - xs[j + 1] for j, _ in problem.links)
    loss = float(sum((xs[j] + xs[j + 1]) * lost for j, lost in problem.links))
    unserved = tuple(map(min, xs[first_shed:], demand))
    prices = _delivery_price_labels(
        problem.arcs, np.minimum(x, problem.capacities).tolist(), n_regions
    )
    return HourlyDispatch(
        demand_mw=demand,
        generation_mw=tuple(generation),
        flows_mw=flows,
        unserved_mw=unserved,
        curtailed_res_mw=tuple(curtailed),
        prices_eur_per_mwh=tuple(prices),
        loss_mw=loss,
        cost_eur=float(np.dot(problem.costs, x)),
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
    """Dispatch ``hours`` consecutive hours; hours are independent (no storage),
    so an hour whose demand repeats an earlier hour's shares that hour's result.

    Each distinct demand vector is solved once: on one thread per CPU, at
    most one per vector, when the network's LP has at least
    ``_THREADED_MIN_ARCS`` columns, else one after the other on the calling
    thread. Either way the results are the same, and a failure names the
    earliest hour whose demand fails.
    """
    require(1 <= hours < math.inf, "hours", "finite and >= 1", hours)
    require(isinstance(hours, numbers.Integral), "hours", "a whole number", hours)
    demands = [tuple(region.demand_at(t) for region in network.regions) for t in range(hours)]
    distinct = list(dict.fromkeys(demands))
    solve = functools.partial(min_cost_flow, network)
    threads = min(_cpu_count(), len(distinct))
    # The problem is built here, before any thread reads it: functools.cached_property
    # has no lock from Python 3.12 on.
    if threads > 1 and len(network._problem.arcs) >= _THREADED_MIN_ARCS:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads) as pool:
            solved = _collect(demands, distinct, pool.map(solve, distinct))
    else:
        solved = _collect(demands, distinct, map(solve, distinct))
    return DispatchResult(network=network, hourly=tuple(map(solved.__getitem__, demands)))


def _collect(demands: list, distinct: list, results) -> dict:
    """``results`` (one per distinct demand, in order) keyed by demand.

    A failed solve raises ValueError naming the first hour of its demand;
    results come in the order of ``distinct``, which is the order of first
    appearance, so that is the earliest failing hour.
    """
    solved = {}
    try:
        for demand, hour in zip(distinct, results):
            solved[demand] = hour
    except ValueError as exc:
        t = demands.index(distinct[len(solved)])
        raise ValueError(f"hour {t}: {exc}") from exc
    return solved


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    require(isinstance(hours, numbers.Integral), "hours", "a whole number", hours)
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
    # Each distinct hour's rows are rendered once, without the hour column.
    # result.hourly keeps every hour alive, so no id() is reused in this call.
    formatted = _Formatted()
    names = [region.name for region in result.network.regions]
    region_rows: dict[int, _Rows] = {}
    for t, hour in enumerate(result.hourly):
        rows = region_rows.get(id(hour))
        if rows is None:
            rows = region_rows[id(hour)] = _Rows()
            columns = (
                hour.demand_mw,
                hour.served_mw,
                map(sum, hour.generation_mw),
                hour.curtailed_res_mw,
                hour.unserved_mw,
                hour.prices_eur_per_mwh,
            )
            cells = (map(formatted.__getitem__, column) for column in columns)
            csv.writer(rows, lineterminator="\n").writerows(zip(names, *cells))
        # Every row ends in the line terminator, so joining on the hour's
        # prefix puts it at the start of each row but the first.
        prefix = f"{t},"
        out.write(prefix + prefix.join(rows))
    writer.writerow([])
    writer.writerow(["metric", "value"])
    writer.writerow(["hours", result.n_hours])
    writer.writerow(["total_cost_eur", _fmt(result.total_cost_eur)])
    writer.writerow(["total_curtailed_mwh", _fmt(result.total_curtailed_mwh)])
    writer.writerow(["total_unserved_mwh", _fmt(result.total_unserved_mwh)])
    writer.writerow(["mean_price_spread_eur_per_mwh", _fmt(result.mean_price_spread_eur_per_mwh)])
    return out.getvalue()


class _Formatted(dict):
    """Each distinct value's cell text, formatted on its first lookup.

    _fmt is a function of the value, and the keys that compare equal (0, 0.0,
    -0.0) all render as "0".
    """

    def __missing__(self, value: float) -> str:
        text = self[value] = _fmt(value)
        return text


class _Rows(list):
    """A file for ``csv.writer`` that keeps each written row as one string."""

    write = list.append


def _fmt(value: float) -> str:
    rounded = round(value, 6)
    # int() raises on inf and nan, so a non-finite value never reaches a cell.
    # Floats hold every integer exactly only below 2**53; past it, all the
    # digits of int(rounded) would claim a precision the value does not have.
    if rounded == int(rounded) and abs(rounded) < 2**53:
        return str(int(rounded))
    return format(rounded, "g")
