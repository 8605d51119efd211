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
interconnector, or a region's shedding).

A region's price is the cost of serving one more MWh there. Every dual
constraint of the LP ties at most two regions, with coefficients of
opposite sign (a link leaves one region and arrives in another; a unit or
shedding enters one), so the optimal row duals form a lattice, and its
greatest element is that cost in every region at once (Hochbaum & Naor,
*SIAM J. Comput.* 23(6), 1994). The price is that greatest dual times the
penalty, which undoes the objective's normalization. An hour is
nondegenerate when exactly one column per region lies strictly inside its
bounds (by more than ``_EPS_FLOW``, shedding capped at demand): its dual is
unique, and it is the row dual that HiGHS returns with the flows. Otherwise
(a unit running exactly at its rating, a region without demand) the dual
can be a range, and a second LP on the same HiGHS instance takes its upper
end. This residual-cone LP keeps the balance matrix and the objective,
lets each column move only up from its lower bound, down from its upper
bound or either way inside them, never counts shedding as at its cap (the
cap grows with demand), and sets every balance row to 1. Its optimum is the
cost of one more MWh in every region, and its only optimal dual is the
greatest dual of the hour; its failure raises ``ValueError`` as the hour's
own does. HiGHS solves at feasibility tolerances of 1e-9, not its default
1e-7: the tolerances decide where the dual simplex stops, and at 1e-7 the
pinned 24 h export of a 200-region ring (seed ``101:10``) changes, so they
keep every vertex and golden file where it is.

Each hour is solved through the HiGHS binding that scipy bundles
(``scipy.optimize._highspy._core``, loaded by ``gridecon._highs`` from its
file, without ``scipy.optimize``): dual simplex, presolve off, no output,
as ``scipy.optimize.linprog`` sets them, without ``linprog``'s check of
every option on every call and its bound marginals, which nothing here
reads. ``_run`` is the one place that loads a HiGHS instance: it builds
the calling thread's instance and sets its options once, loads an LP,
starts and solves it; ``_least_loss`` only changes the bounds and costs of
the model loaded and runs it again. Every binding call's status is checked
and every run must end optimal; anything else raises ``ValueError("dispatch
LP failed: ...")``. The binding is bound once, by the first instance built.
HiGHS reads a bound of 1e20 or more as infinite and
rejects such a model, and a run after a rejected load would solve whatever
model it held. The balance constraints go to HiGHS as a sparse column
matrix, one column per arc with at most two entries (leaving one region,
arriving in another). ``simulate`` solves each distinct demand vector once:
an hour that repeats an earlier hour's demand shares that hour's result.
Demand has a period of 24 hours, since ``Region.demand_at`` reads a 24-hour
profile at ``(hour + tz_offset_hours) % 24``, so hour ``t`` has the demand
of hour ``t % 24``. ``simulate`` therefore builds and solves only the first
``min(hours, 24)`` hours and tiles their results over the horizon by tuple
repetition: a year costs at most 24 solves and no Python step per hour.

Everything in an hour's LP but its demand is built once per network, by the
first solve, and cached on the network: the normalized objective, the
balance matrix (in the binding's own sparse type, which a model copies
whole), the column bounds, each column's rows and gain, the loss shares
and the maps that decode a solution (each region's unit count, the
zero-cost units and the link pairs). An hour copies the upper bounds,
writes its demand into the shedding bounds and the balance rows, loads the
model, solves it from the previous hour's basis (below) and decodes. A
network is frozen, so its problem never goes stale; a ``dataclasses.replace`` copy is a new network
and builds its own. This compiled problem is also the block that an LP of
coupled hours would stack.

A ``DispatchResult`` groups its hours once, on first use, by the identity
of their ``HourlyDispatch`` (``DispatchResult._hours``), which ``simulate``
shares among the repeats of a demand vector, so no hour is hashed. Its four
totals compute their per-hour value once per distinct hour and add the
hours up in order, as a sum over every hour would, to the same bits.
``export_csv`` follows the same grouping: it renders each distinct hour's
region rows once, without the hour column, writes every hour as its number
in front of those rows, and ends with the result's totals; every piece of
the text is joined once, at the end. An equal hour that is a separate
object is only rendered again, to the same text.

The distinct values of all the cells are rounded in one ``"%.6f"`` pass
and printed in one ``"%g"`` pass; only the integral ones are rewritten as
integers, one Python step per distinct value, and each row is joined with
``str.join``. The text is that of rounding and formatting each cell on its
own: ``round(v, 6)`` and ``"%.6f" % v`` come from the same correctly
rounded conversion (``_Py_dg_dtoa``, mode 3), so
``float("%.6f" % v) == round(v, 6)`` for every finite double, and ``"%g"``
is ``format(v, "g")``. The integral test calls ``int``, so an infinite or
NaN cell still raises from ``_fmt``.

The hours of one network differ only in demand, and demand enters the LP
only as bounds (the balance rows and the shedding caps), never as a cost or
a matrix entry. So a basis of one hour is a basis of every other, and an
optimal one stays dual feasible: from it, dual simplex reoptimizes after the
change of right-hand side in a few pivots, where a cold start pivots all the
way from the slack basis (Bixby, *Operations Research* 50(1), 2002). Each
thread keeps one HiGHS instance, whose options never change, and one chain:
the problem it last solved an hour of and that hour's optimal basis. An
hour of the same problem starts from that basis; an hour of another network,
or the thread's first, starts cold. Loading an hour's model clears whatever
the instance held, so a demand that HiGHS reads as infinite is still
rejected at load, and a failed hour leaves the chain as it was. The
instance is reused because building one takes about as long as HiGHS takes
to solve an hour of the 2-region demo.

Different starts can end at different optimal vertices wherever the
optimum is not unique, say where free energy could be curtailed in more
than one region. So every hour takes one canonical optimum: among the
cost-optimal dispatches, the one with the least transmission loss, which
is also the one that generates least (``_least_loss``). A second stage
fixes each column whose reduced cost is not zero at its bound and
minimizes the loss over the rest; it runs only when the first stage's
basis shows that a tied column could cut the loss, about one hour in a
hundred on the benchmark's rings, and its flows replace the first
stage's, while the prices, a property of the optimal face, stay those of
the first stage. Equal vertices reached by different pivots can still
differ in their last bits, so the guarantee is on the printed text:
``export_csv`` of ``simulate`` is that of ``min_cost_flow`` hour by hour,
in any order and on any thread, wherever the least-loss dispatch is
unique. Where it ties (two free units feeding one region over paths of
equal efficiency) HiGHS picks one of the tied dispatches.

The distinct hours of a large network are solved concurrently, one thread
per CPU: HiGHS runs without the GIL, so one hour's solve overlaps the
Python that builds, decodes and prices another. A network takes this path
when its LP has at least ``_THREADED_MIN_ARCS`` columns (400, the measured
crossover); below that HiGHS is too small a share of an hour, threads only
contend for the GIL, and the hours are solved one after the other on the
calling thread, without importing ``concurrent.futures``. Each thread
takes one contiguous run of the day's distinct hours, in time order, so
every hour but a run's first starts from the hour before it. The compiled
problem is built on the calling thread before the pool starts. Both paths
print the same text, and name the same failing hour, the earliest.

numpy and the HiGHS extension are imported by the first solve, not by this
module, so importing gridecon and every report that does not dispatch stay
clear of them. The first solve never imports ``scipy.optimize``, whose
package init loads linalg, sparse, special and more: only the light
``scipy`` package and the extension file load (see ``gridecon._highs``).
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import numbers
import os
import sys
import threading
from dataclasses import dataclass

from .checks import require

DEFAULT_UNSERVED_PENALTY = 10000.0  # EUR/MWh, far above any generator

_EPS_FLOW = 1e-7  # a column this close to a bound counts as at that bound
_EPS_COST = 1e-9  # a reduced cost this close to 0 counts as 0: HiGHS's dual tolerance
# HiGHS options, set once on each thread's instance. Tight tolerances keep
# each hour's vertex, and so every golden file, where it is (see the module
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
# GIL. 400 is the smallest size at which threads beat serial by more than
# the spread of the runs, in sweeps of 24 h simulates of seeded rings.
_THREADED_MIN_ARCS = 400
# Each thread's HiGHS instance, built by its first _run, and its chain: the
# problem it last solved an hour of, with that hour's optimal basis.
_thread = threading.local()
# scipy's HiGHS binding, bound by the first instance, not at import (see the
# module docstring).
_core = None


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
        offset = self.tz_offset_hours
        require(isinstance(offset, numbers.Integral), f"{self.name}: tz_offset_hours", "a whole number", offset)

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


class _Problem:
    """A network's dispatch LP without its hour: everything but demand.

    One arc (tail, head, capacity, gain, cost) per LP column, its ends given
    as region indices: generators region by region, each interconnector
    forward then backward, then one shedding arc per region. A generator or
    shedding arc enters its region from outside the network, so its tail is
    None.
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
        self.n_arcs = len(arcs)

        self.penalty = penalty
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
        # They go to HiGHS as lists, because the binding converts a list of
        # bounds faster than an array (only the costs take an array whole).
        self.lower = [0.0] * len(arcs)
        # Each column's rows and gain, so that a reduced cost is its cost less
        # gain x its head's dual plus its tail's dual; a column without a tail
        # reads the 0 appended after the last row's dual.
        self.heads = np.array([head for _, head, *_ in arcs])
        self.tails = np.array([n_regions if tail is None else tail for tail, *_ in arcs])
        self.gains = np.array([gain for _, _, _, gain, _ in arcs])
        # The least-loss stage's costs: each link column's loss share, 0 for
        # every other column.
        self.link_columns = np.array([j + k for j, _ in self.links for k in (0, 1)], dtype=np.int32)
        self.loss_share = np.zeros(len(arcs))
        self.loss_share[self.link_columns] = [lost for _, lost in self.links for _ in (0, 1)]

    def upper_at(self, demand: tuple[float, ...]):
        """The column upper bounds of an hour: shedding capped at its demand."""
        upper = self.capacities.copy()
        upper[self.first_shed :] = demand
        return upper


def _solve_hour(problem: _Problem, demand: tuple[float, ...]):
    """The LP column values of one hour's least-loss optimum, clipped at 0,
    and each region's price.

    The calling thread's HiGHS instance is loaded with the hour's model and
    starts from the optimal basis of the last hour that the thread solved
    for the same problem, cold when it last solved another network or
    nothing; that basis replaces the thread's chain. The demand goes into
    the balance rows and caps each region's shedding: capping shedding at
    local demand rules out degenerate optima that route penalty power over
    cost-tied efficiency-1 links. Among the optima, ``_least_loss`` takes
    the one with the least transmission loss, so the hour does not depend
    on where the solve started.

    A price is the greatest optimal row dual times the penalty. When exactly
    one column per region lies strictly inside its bounds in the first
    stage's optimum, that vertex is nondegenerate and its dual, the one
    HiGHS returns, is unique; otherwise it comes from the cone LP of
    ``_cone_duals``. Prices belong to the optimal face, so the least-loss
    stage leaves them as they are.
    """
    import numpy as np

    upper = problem.upper_at(demand)
    chain = getattr(_thread, "chain", None)
    basis = chain[1] if chain is not None and chain[0] is problem else None
    highs = _run(problem, demand, problem.lower, upper.tolist(), basis)
    _thread.chain = (problem, highs.getBasis())
    solution = highs.getSolution()
    value, duals = np.array(solution.col_value), solution.row_dual
    first = np.maximum(value, 0.0)
    at_lower = first <= _EPS_FLOW
    at_upper = first >= upper - _EPS_FLOW
    x = np.maximum(_least_loss(highs, problem, value, duals, upper), 0.0)
    if np.count_nonzero(at_lower | at_upper) != len(x) - len(demand):
        duals = _cone_duals(problem, at_lower, at_upper)
    penalty = problem.penalty
    return x, [dual * penalty for dual in duals]


def _least_loss(highs, problem: _Problem, value, duals, upper):
    """The column values of the optimum with the least transmission loss,
    given the first stage's optimal ``value`` and row ``duals`` on ``highs``.

    A nonbasic column whose reduced cost is not 0 (by more than
    ``_EPS_COST``) stays at its bound at every optimum; with no other
    nonbasic column the optimum is unique. Otherwise the basis prices the
    loss shares (``y2`` solves ``B^T y2 = c2_B``), and only when one of the
    zero-cost nonbasic columns could move away from its bound and cut the
    loss does a second stage run: every other nonbasic column is fixed at
    its bound and each link costs its loss share as well. The hour's cost
    is then constant over the columns left free, so that stage minimizes
    the loss over the first stage's optima. The stage is left on the
    instance; the next hour's model replaces it.
    """
    import numpy as np

    y = np.append(duals, 0.0)
    rc = problem.objective - problem.gains * y[problem.heads] + y[problem.tails]
    tied = np.abs(rc) <= _EPS_COST
    status, basic = highs.getBasicVariables()
    _check(status, "the basis")
    tied[basic[basic >= 0]] = False
    tied = np.flatnonzero(tied)
    if not len(tied):
        return value
    c2 = problem.loss_share
    status, y2 = highs.getBasisTransposeSolve(np.where(basic >= 0, c2[np.maximum(basic, 0)], 0.0))
    _check(status, "the basis")
    y2 = np.append(y2, 0.0)
    d2 = c2[tied] - problem.gains[tied] * y2[problem.heads[tied]] + y2[problem.tails[tied]]
    at = value[tied]
    if not np.any(((d2 < -_EPS_COST) & (at < upper[tied])) | ((d2 > _EPS_COST) & (at > 0.0))):
        return value
    fixed = np.flatnonzero(np.abs(rc) > _EPS_COST).astype(np.int32)
    bound = np.where(rc[fixed] > 0.0, 0.0, upper[fixed])
    _check(highs.changeColsBounds(len(fixed), fixed, bound, bound), "the least-loss bounds")
    links = problem.link_columns
    _check(highs.changeColsCost(len(links), links, c2[links]), "the least-loss costs")
    return np.array(_solved(highs).getSolution().col_value)


def _cone_duals(problem: _Problem, at_lower, at_upper) -> list[float]:
    """The greatest optimal row duals of a degenerate hour.

    The LP moves each column only into the residual cone of the hour's
    optimal flows (up from its lower bound, down from its upper bound, either
    way inside) and adds one MWh of demand in every region. Shedding can
    always grow, since its cap grows with demand. The optimal duals of this
    LP are those of the hour that maximize their sum: the greatest one alone.
    Loading it replaces the hour's model and solution on the thread's
    HiGHS instance.
    """
    import numpy as np

    lower = np.where(at_lower, 0.0, -np.inf)
    upper = np.where(at_upper, 0.0, np.inf)
    upper[problem.first_shed :] = np.inf
    ones = [1.0] * len(problem.unit_counts)  # one row per region
    return _run(problem, ones, lower.tolist(), upper.tolist()).getSolution().row_dual


def _run(problem: _Problem, rows, lower, upper, basis=None):
    """The calling thread's HiGHS instance, loaded with ``problem`` with the
    balance rows equal to ``rows`` and the column bounds ``lower`` and
    ``upper``, and solved to optimality from ``basis``: the optimal basis of
    the thread's previous hour of ``problem``, or None for a cold start (the
    thread's first hour of a problem, and every cone LP).

    The instance is built, with ``_HIGHS_OPTIONS``, on the thread's first
    call. Every binding call is checked, since HiGHS rejects a model with a
    bound of 1e20 or more (it reads those as infinite) and would then run
    whatever model it held; any failure raises ``ValueError``.
    """
    highs = getattr(_thread, "highs", None)
    if highs is None:
        highs = _thread.highs = _instance()
    lp = _core.HighsLp()
    lp.num_col_, lp.num_row_ = problem.n_arcs, len(rows)
    lp.a_matrix_ = problem.balance
    lp.col_cost_ = problem.objective
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = lp.row_upper_ = rows
    # The LP is feasible by construction, so a failure means inputs too large
    # (or too far apart in scale) for the solver: an input error.
    _check(highs.passModel(lp), "the model")
    if basis is not None:
        _check(highs.setBasis(basis), "the basis")
    return _solved(highs)


def _instance():
    """A new HiGHS instance with ``_HIGHS_OPTIONS``; the first one binds
    ``_core``, the binding, for every later call."""
    global _core
    from ._highs import core

    _core = core
    options = core.HighsOptions()
    for name, value in _HIGHS_OPTIONS.items():
        setattr(options, name, value)
    highs = core._Highs()
    _check(highs.passOptions(options), "the options")
    return highs


def _solved(highs):
    """``highs`` after a run that must end optimal, else ``ValueError``."""
    ran = highs.run()
    status = highs.getModelStatus()
    if ran == _core.HighsStatus.kError or status != _core.HighsModelStatus.kOptimal:
        raise ValueError(f"dispatch LP failed: {highs.modelStatusToString(status)}")
    return highs


def _check(status, what: str) -> None:
    """Raise ``ValueError`` when a binding call that set ``what`` failed."""
    if status == _core.HighsStatus.kError:
        raise ValueError(f"dispatch LP failed: HiGHS rejected {what}")


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
    x, prices = _solve_hour(problem, demand)
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

    @functools.cached_property
    def _hours(self) -> tuple[list[HourlyDispatch], list[int]]:
        """The hours grouped by the ``HourlyDispatch`` object they share, built
        on first use: each object once, in order of first appearance, and each
        hour's position in that list.

        Hours are grouped by identity, as ``simulate`` shares one object among
        the repeats of a demand vector, so no hour is hashed; an equal hour
        that is a separate object is a group of its own. ``hourly`` keeps
        every object alive, so no ``id`` is reused. A frozen result never
        changes, so the cache never goes stale.
        """
        ids = list(map(id, self.hourly))
        objects = dict(zip(ids, self.hourly))
        position = dict(zip(objects, itertools.count()))
        return list(objects.values()), list(map(position.__getitem__, ids))

    def _total(self, per_hour) -> float:
        """``sum(map(per_hour, self.hourly))``, calling ``per_hour`` once per
        distinct hour: the same floats added in the same order."""
        distinct, index = self._hours
        values = list(map(per_hour, distinct))
        return sum(map(values.__getitem__, index))

    @property
    def total_cost_eur(self) -> float:
        return self._total(lambda h: h.cost_eur)

    @property
    def total_curtailed_mwh(self) -> float:
        return self._total(lambda h: sum(h.curtailed_res_mw))

    @property
    def total_unserved_mwh(self) -> float:
        return self._total(lambda h: sum(h.unserved_mw))

    @property
    def mean_price_spread_eur_per_mwh(self) -> float:
        import numpy as np

        # numpy's max and min of each row, as over every hour: Python's could
        # flip the sign of a zero spread.
        distinct, index = self._hours
        prices = np.array([h.prices_eur_per_mwh for h in distinct])
        spread = prices.max(axis=1) - prices.min(axis=1)
        return float(np.mean(spread[index]))


def _first_day(network: DispatchNetwork, hours: int) -> list[tuple[float, ...]]:
    """The demand vector of each of the first ``min(hours, 24)`` hours of a
    horizon of ``hours``.

    ``Region.demand_at`` reads a 24-hour profile at ``(hour + offset) % 24``,
    so hour ``t`` of any horizon has the demand of hour ``t % 24``. The 24
    vectors are the network's day: every longer horizon repeats them, so the
    network's peaks, and its reserves (``reserve_requirements``), are
    properties of that day.
    """
    return [tuple(region.demand_at(t) for region in network.regions) for t in range(min(hours, 24))]


def simulate(network: DispatchNetwork, hours: int) -> DispatchResult:
    """Dispatch ``hours`` consecutive hours; hours are independent (no storage),
    so an hour whose demand repeats an earlier hour's shares that hour's result.

    Demand repeats every 24 hours (``Region.demand_at``), so only the first
    day is built and solved, each distinct demand vector once, in time order:
    split into one contiguous run per CPU, at most one per vector, each on a
    thread of its own, when the network's LP has at least
    ``_THREADED_MIN_ARCS`` columns, else all on the calling thread. Either
    way the printed results are the same, and a failure names the earliest
    hour whose demand fails. The rest of the horizon repeats that day's
    results.
    """
    require(1 <= hours < math.inf, "hours", "finite and >= 1", hours)
    require(isinstance(hours, numbers.Integral), "hours", "a whole number", hours)
    # No tuple holds more hours than this.
    require(hours <= sys.maxsize, "hours", f"<= {sys.maxsize}", hours)
    day = _first_day(network, hours)
    distinct = list(dict.fromkeys(day))

    def solve(demand: tuple) -> HourlyDispatch:
        try:
            return min_cost_flow(network, demand)
        except ValueError as exc:
            raise ValueError(f"hour {day.index(demand)}: {exc}") from exc

    threads = min(_cpu_count(), len(distinct))
    # The problem is built here, before any thread reads it: functools.cached_property
    # has no lock from Python 3.12 on.
    if threads > 1 and network._problem.n_arcs >= _THREADED_MIN_ARCS:
        from concurrent.futures import ThreadPoolExecutor

        # One contiguous run of hours per thread, in time order, so that each
        # hour starts from the one before it. A run stops at its first failure,
        # and map raises that of the earliest run: the earliest failing hour.
        ends = [len(distinct) * k // threads for k in range(threads + 1)]
        runs = [distinct[a:b] for a, b in itertools.pairwise(ends)]
        with ThreadPoolExecutor(threads) as pool:
            solved_runs = pool.map(lambda run: list(map(solve, run)), runs)
            solved = dict(zip(distinct, itertools.chain.from_iterable(solved_runs)))
    else:
        solved = dict(zip(distinct, map(solve, distinct)))
    first_day = tuple(map(solved.__getitem__, day))
    days, rest = divmod(hours, 24)
    return DispatchResult(network=network, hourly=first_day * days + first_day[:rest])


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
) -> ReserveRequirements:
    """Reserve margins as a fraction of peak demand, isolated vs pooled.

    Isolated regions each hold alpha times their own peak. With the
    headroom credit the system holds alpha times the coincident system
    peak, which is never more than the sum of the individual requirements.
    Demand repeats every 24 hours, so the reserve is a property of the
    network's day, whatever the horizon: a region's peak is that of its
    profile, and the system peak that of the day's hourly totals.
    """
    require(0.0 < alpha <= 1.0, "alpha", "in (0, 1]", alpha)
    isolated = {region.name: alpha * max(region.demand_profile_mw) for region in network.regions}
    if link_headroom_credit:
        system_peak = max(map(sum, _first_day(network, 24)))
        shared = min(alpha * system_peak, sum(isolated.values()))
    else:
        shared = sum(isolated.values())
    return ReserveRequirements(isolated_mw=isolated, shared_mw=shared)


def export_csv(result: DispatchResult) -> str:
    """Hour-by-region rows followed by a summary block, RFC-4180 style."""
    # Every piece of the text is joined once, at the end.
    out = _Rows()
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
    distinct, index = result._hours
    columns = [
        (
            hour.demand_mw,
            hour.served_mw,
            tuple(map(sum, hour.generation_mw)),
            hour.curtailed_res_mw,
            hour.unserved_mw,
            hour.prices_eur_per_mwh,
        )
        for hour in distinct
    ]
    # Each distinct value is formatted once, all of them in one batch. 0, 0.0
    # and -0.0 are one key, and all three render as "0".
    cells = itertools.chain.from_iterable(itertools.chain.from_iterable(columns))
    values = list(dict.fromkeys(cells))
    text = dict(zip(values, _fmt(values))).__getitem__
    # Cells never need quoting. Each name is quoted once, as in any row of
    # two or more fields (csv quotes an empty field only when it is alone).
    quoted = _Rows()
    csv.writer(quoted, lineterminator="\n").writerows((region.name, "") for region in result.network.regions)
    names = [row[: -len(",\n")] for row in quoted]
    rows = [list(map(",".join, zip(names, *(map(text, column) for column in hour)))) for hour in columns]
    for t, i in enumerate(index):
        prefix = f"{t},"
        out += (prefix, f"\n{prefix}".join(rows[i]), "\n")
    writer.writerow([])
    writer.writerow(["metric", "value"])
    writer.writerow(["hours", result.n_hours])
    totals = ("total_cost_eur", "total_curtailed_mwh", "total_unserved_mwh", "mean_price_spread_eur_per_mwh")
    writer.writerows(zip(totals, _fmt([getattr(result, name) for name in totals])))
    return "".join(out)


class _Rows(list):
    """A file for ``csv.writer`` that keeps each write as one string."""

    write = list.append


def _fmt(values: list[float]) -> list[str]:
    """Each value's cell text: the value rounded to 6 decimals, written as an
    integer when it is one (below 2**53) and in ``%g`` form otherwise.

    All the values are rounded by one ``"%.6f"`` and printed by one ``"%g"``
    operation, not one call per value. ``"%.6f" % v`` and ``round(v, 6)``
    come from the same correctly rounded decimal conversion, so
    ``float("%.6f" % v) == round(v, 6)`` for every finite double, and
    ``"%g" % v`` is ``format(v, "g")``.
    """
    k = len(values)
    rounded = list(map(float, (("%.6f " * k) % tuple(values)).split()))
    texts = (("%g " * k) % tuple(rounded)).split()
    for i, r in enumerate(rounded):
        # int() raises on inf and nan, so a non-finite value never reaches a
        # cell. Floats hold every integer exactly only below 2**53; past it,
        # all the digits of int(r) would claim a precision the value does
        # not have.
        if r == int(r) and abs(r) < 2**53:
            texts[i] = str(int(r))
    return texts
