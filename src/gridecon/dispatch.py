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
LP failed: ...")``. The binding is bound once, by the first network's
problem built, before any crash basis or instance needs it. HiGHS reads a
bound of 1e20 or more as infinite and rejects such a model, and a run after
a rejected load would solve whatever model it held. The balance constraints go to HiGHS as a sparse column
matrix, one column per arc with at most two entries (leaving one region,
arriving in another). ``simulate`` solves each distinct demand vector once:
an hour that repeats an earlier hour's demand shares that hour's result.
Demand has a period of 24 hours, since ``Region.demand_at`` reads a 24-hour
profile at ``(hour + tz_offset_hours) % 24``, so hour ``t`` has the demand
of hour ``t % 24``. ``simulate`` therefore builds and solves only the first
``min(hours, 24)`` hours and tiles their results over the horizon by tuple
repetition: a year costs at most 24 solves and no Python step per hour.
That day is built by rotating each region's profile once by its offset and
reading the rotated profiles across, hour by hour; it holds the very values
``demand_at`` reads.

Everything in an hour's LP but its demand is built once per network, by the
first solve, and cached on the network: the normalized objective, the
balance matrix (in the binding's own sparse type, which a model copies
whole), the column bounds, each column's rows and gain, the loss shares and
the maps that decode a solution (each region's units as a slice of the
columns, the zero-cost units, and where the link columns start). It is
built in array passes, not arc by arc: one ``np.fromiter`` pass each reads
the units' (capacity, cost) pairs, the links' endpoints and their (rating,
efficiency) pairs, and each field is filled a block of columns at a time,
each link's forward column at even offsets from the first link column and
its backward column at odd ones. A link column's two balance entries are
ordered by region, the lower first, so that each column's rows ascend. An
hour passes HiGHS the cached unit and link capacities followed by its
demand as the upper bounds, writes its demand into the balance rows, loads
the model, solves it from the previous hour's basis or a crash basis
(below) and decodes it from slices of one list of the column values: each
region's units, and every link's forward and backward columns, taken two
apart. A network is
frozen, so its problem never goes stale; a ``dataclasses.replace`` copy is
a new network and builds its own. This compiled problem is also the block
that an LP of coupled hours would stack.

A ``DispatchResult`` holds at least one hour, and each distinct hour holds
one entry per region in every per-region field; both are checked when the
result is made. It groups its hours once, by the identity of their
``HourlyDispatch`` (``DispatchResult._hours``), which ``simulate`` shares
among the repeats of a demand vector, so no hour is hashed. Its four
totals compute their per-hour value once per distinct hour and add the
hours up in order, as a sum over every hour would, to the same bits.
``export_csv`` follows the same grouping: it renders each distinct hour's
region rows once, without the hour column, writes every hour as its number
in front of those rows, and ends with the result's totals; every piece of
the text is joined once, at the end. An equal hour that is a separate
object is only rendered again, to the same text.

The cells are rendered in a few array passes, not in Python steps per
cell, to the text of rounding and formatting each cell on its own, totals
included. The distinct hours' six columns are read into one float array,
followed by the four totals; the mean price spread is taken from the price
cells already read, in the passes of the result's property. A served cell
is demand less unserved, the same subtraction as ``served_mw``. A generation cell stays Python's
``sum`` of the region's units: from Python 3.12 on ``sum`` compensates its
rounding and numpy's sum does not, so the two can differ in the last bit.
One sort finds the distinct values, as ``np.unique`` would, and ``_fmt``
works once per distinct value ``v``. It rounds ``v`` to six decimals as
``rint(v * 1e6) / 1e6``. The product is within half an ulp of the exact
one, so ``rint`` gives the integer nearest the exact product unless a
half-integer lies that close; a quotient of two integers below 2**53 is
correctly rounded, so the result is the double nearest the six-decimal
number, which is ``round(v, 6)``. Only a product within a few ulps of a
half-integer, past 2**49 or overflowing goes through one ``"%.6f"`` pass
instead: ``"%.6f" % v`` and ``round(v, 6)`` come from the same correctly
rounded conversion (D. M. Gay, *Correctly Rounded Binary-Decimal and
Decimal-Binary Conversions*, 1990; ``_Py_dg_dtoa``, mode 3). One ``"%g"``
pass prints every rounded value; ``%g`` writes an integer below 1e6 as
one, -0.0 is made 0.0 before it, and only the integers from 1e6 to 2**53
are written again, with ``int``. One object-array take gives each cell its
text, and each row is joined with ``str.join``. A non-finite cell raises
from ``_fmt`` as ``int`` raises on it; the first in the order hour,
column, region decides the exception.

The hours of one network differ only in demand, and demand enters the LP
only as bounds (the balance rows and the shedding caps), never as a cost or
a matrix entry. So a basis of one hour is a basis of every other, and an
optimal one stays dual feasible: from it, dual simplex reoptimizes after the
change of right-hand side in a few pivots, where a cold start pivots all the
way from the slack basis (Bixby, *Operations Research* 50(1), 2002). Each
thread keeps one HiGHS instance, whose options never change, and one chain:
the problem it last solved an hour of and that hour's optimal basis. An
hour of the same problem starts from that basis. An hour without a chain
(the thread's first, one of another network, or ``min_cost_flow`` called
alone) starts from a crash basis built from the problem's structure (Bixby,
*ORSA J. Computing* 4(3), 1992): each region served alone in its own merit
order, its unit columns and its shedding column sorted once per network by
normalized objective, ties by column. Each region runs its columns at
their upper bound until their cumulative capacity covers its demand
(shedding capped at demand); the covering column is basic, the later ones
and every link sit at their lower bound, and every row is nonbasic. That is
one basic column per region in its own row, so the basis is always
nonsingular, and it costs one array pass. On a 200-region ring the first
hour takes about 410 dual simplex iterations from it, against about 550
from HiGHS's slack basis. Loading an hour's model clears whatever the
instance held, so a demand that HiGHS reads as infinite is still rejected
at load, and a failed hour leaves the chain as it was. The instance is
reused because building one takes about as long as HiGHS takes to solve an
hour of the 2-region demo.

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
calling thread. The day's distinct hours are split into one contiguous run
per thread, in time order, so every hour but a run's first starts from the
hour before it. The calling thread solves the first run itself, and one
``threading.Thread`` per other run, started before it, solves that run and
no other; so each run has its own thread, with no pool, queue or barrier,
and the calling thread keeps its instance and chain from call to call.
Every started thread is joined before ``simulate`` returns or raises; a
thread that cannot be started ends the call with its error. The compiled
problem is built on the calling thread before any thread starts. Both
paths print the same text, and name the same failing hour, the earliest:
the earliest run's first failure.

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
import operator
import os
import sys
import threading
from dataclasses import dataclass

from .checks import require, require_range, require_whole

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
        require(isinstance(self.name, str), "name", "a string", repr(self.name))
        object.__setattr__(self, "demand_profile_mw", tuple(self.demand_profile_mw))
        hours = len(self.demand_profile_mw)
        require(hours == 24, f"{self.name}: len(demand_profile_mw)", "24", hours)
        for hour, demand in enumerate(self.demand_profile_mw):
            require_range(demand, f"{self.name}: demand_profile_mw[{hour}]", "[0, inf)")
        generators = tuple(self.generators)
        for i, (cap, cost) in enumerate(generators):
            label = f"{self.name}: generators[{i}]"
            require_range((cap, cost), label, "[0, inf)", each="in capacity and cost")
        # Converted once checked, so a string or a bool is never read as a number.
        object.__setattr__(self, "generators", tuple((float(c), float(m)) for c, m in generators))
        require_whole(self.tz_offset_hours, f"{self.name}: tz_offset_hours")

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
        for field in ("region_a", "region_b"):
            endpoint = getattr(self, field)
            require(isinstance(endpoint, str), field, "a string", repr(endpoint))
        if self.region_a == self.region_b:
            raise ValueError(f"interconnector endpoints must differ, got {self.region_a!r}")
        require_range(self.capacity_mw, "capacity_mw", "[0, inf)")
        require_range(self.efficiency, "efficiency", "(0, 1]")


@dataclass(frozen=True)
class DispatchNetwork:
    regions: tuple[Region, ...]
    interconnectors: tuple[Interconnector, ...] = ()
    unserved_penalty_eur_per_mwh: float = DEFAULT_UNSERVED_PENALTY

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "interconnectors", tuple(self.interconnectors))
        require_range(len(self.regions), "len(regions)", "[1, inf]")
        names = {r.name for r in self.regions}
        if len(names) != len(self.regions):
            raise ValueError("region names must be unique")
        for i, ic in enumerate(self.interconnectors):
            for endpoint in (ic.region_a, ic.region_b):
                if endpoint not in names:
                    raise ValueError(
                        f"interconnectors[{i}] references unknown region {endpoint!r}"
                    )
        require_range(self.unserved_penalty_eur_per_mwh, "unserved_penalty_eur_per_mwh", "(0, inf)")

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
    require_range(peak_mw, "peak_mw", "[0, inf)")
    require_range(trough_fraction, "trough_fraction", "[0, 1]")
    require_range(peak_hour, "peak_hour", "(-inf, inf)")
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
    forward (``region_a`` to ``region_b``) then backward, then one shedding
    arc per region. A generator or shedding arc enters its region from
    outside the network, so its tail is ``n_regions``, past the last region.
    Each field is filled a block of columns at a time.
    """

    def __init__(self, network: DispatchNetwork) -> None:
        import numpy as np

        from ._highs import core

        # The binding is bound here, before any crash basis or instance needs it.
        global _core
        _core = core
        regions, interconnectors = network.regions, network.interconnectors
        n_regions, n_links = len(regions), len(interconnectors)
        penalty = network.unserved_penalty_eur_per_mwh
        self.unit_counts = [len(region.generators) for region in regions]
        unit_ends = list(itertools.accumulate(self.unit_counts, initial=0))
        self.unit_slices = list(itertools.starmap(slice, itertools.pairwise(unit_ends)))
        self.first_link = first_link = n_units = unit_ends[-1]
        self.first_shed = first_shed = first_link + 2 * n_links
        self.n_arcs = n_arcs = first_shed + n_regions
        self.penalty = penalty
        links = slice(first_link, first_shed)

        # Each unit's (capacity, cost), each link's (region_a, region_b) and
        # (rating, efficiency), read in one pass each.
        flat = itertools.chain.from_iterable
        units = np.fromiter(flat(flat(r.generators for r in regions)), float, 2 * n_units).reshape(n_units, 2)
        index = {region.name: ri for ri, region in enumerate(regions)}
        ends = flat((index[ic.region_a], index[ic.region_b]) for ic in interconnectors)
        ends = np.fromiter(ends, np.intp, 2 * n_links).reshape(n_links, 2)
        ratings = flat((ic.capacity_mw, ic.efficiency) for ic in interconnectors)
        ratings = np.fromiter(ratings, float, 2 * n_links).reshape(n_links, 2)
        # Each column's rows and gain, so that a reduced cost is its cost less
        # gain x its head's dual plus its tail's dual; a column without a tail
        # reads the 0 appended after the last row's dual.
        numbers = np.arange(n_regions)
        self.heads = heads = np.empty(n_arcs, dtype=np.intp)
        heads[:first_link] = np.repeat(numbers, self.unit_counts)
        heads[links] = ends[:, ::-1].ravel()
        heads[first_shed:] = numbers
        self.tails = tails = np.full(n_arcs, n_regions, dtype=np.intp)
        tails[links] = ends.ravel()
        self.gains = gains = np.ones(n_arcs)
        gains[links] = np.repeat(ratings[:, 1], 2)
        self.capacities = capacities = np.full(n_arcs, math.inf)
        capacities[:first_link] = units[:, 0]
        capacities[links] = np.repeat(ratings[:, 0], 2)
        self.costs = costs = np.zeros(n_arcs)
        costs[:first_link] = units[:, 1]
        costs[first_shed:] = penalty
        free = np.flatnonzero(units[:, 1] == 0.0)
        self.free_units = list(zip(free.tolist(), heads[free].tolist(), units[free, 0].tolist()))
        # Normalizing the objective by the penalty keeps the chosen vertex
        # invariant when all marginal costs are scaled by a constant. A unit
        # priced above the penalty never runs, since shedding is cheaper; it is
        # capped just above shedding, or its price would push every other cost
        # below HiGHS's dual tolerance. With no such unit the penalty is the
        # largest cost, as every region has a shedding arc.
        self.objective = np.minimum(costs / penalty, 2.0)
        # The balance rows, one column per arc: -1 where it leaves a region,
        # its gain where it arrives; rows ascend within a column (canonical
        # CSC). A link column holds two entries; a unit or shedding column
        # holds one, its gain of 1.
        start = np.zeros(n_arcs + 1, dtype=np.intp)
        np.cumsum(1 + (tails < n_regions), out=start[1:])
        rows, entries = np.empty(start[-1], dtype=np.intp), np.ones(start[-1])
        rows[:first_link] = heads[:first_link]
        rows[-n_regions:] = numbers
        link_rows = rows[first_link:-n_regions].reshape(-1, 2)
        link_entries = entries[first_link:-n_regions].reshape(-1, 2)
        link_tails, link_heads, link_gains = tails[links], heads[links], gains[links]
        np.minimum(link_tails, link_heads, out=link_rows[:, 0])
        np.maximum(link_tails, link_heads, out=link_rows[:, 1])
        tail_first = link_tails < link_heads
        link_entries[:, 0] = np.where(tail_first, -1.0, link_gains)
        link_entries[:, 1] = np.where(tail_first, link_gains, -1.0)
        # Built once in HiGHS's own type: an hour's model copies it whole, where
        # the binding would convert every entry again.
        self.balance = balance = core.HighsSparseMatrix()
        balance.format_ = core.MatrixFormat.kColwise
        balance.num_col_, balance.num_row_ = n_arcs, n_regions
        balance.start_, balance.index_, balance.value_ = start.tolist(), rows.tolist(), entries.tolist()
        # An hour's column bounds: 0 to capacity, shedding capped at its demand.
        # They go to HiGHS as lists, because the binding converts a list of
        # bounds faster than an array (only the costs take an array whole); an
        # hour's upper bounds are these capacities followed by its demand.
        self.lower = [0.0] * n_arcs
        self.fixed_upper = capacities[:first_shed].tolist()
        # The least-loss stage's costs: each link column's loss share, 0 for
        # every other column. An hour loses each link's share of its flow
        # either way.
        self.link_columns = np.arange(first_link, first_shed, dtype=np.int32)
        self.loss_share = np.zeros(n_arcs)
        self.loss_share[links] = 1.0 - gains[links]
        self.link_losses = self.loss_share[first_link:first_shed:2].tolist()
        # The crash basis's merit order: each region's unit columns and its
        # shedding column by normalized objective, one row per region, padded
        # with n_arcs, a column past the last. lexsort is stable and ``own``
        # ascends, so ties keep column order.
        own = np.r_[0:first_link, first_shed:n_arcs]
        merit = own[np.lexsort((self.objective[own], heads[own]))]
        counts = np.add(self.unit_counts, 1)
        width = counts.max()
        # Each merit column's cell in the row-major table.
        cells = heads[merit] * width + np.arange(len(merit)) - np.repeat(np.cumsum(counts) - counts, counts)
        table = np.full(n_regions * width, n_arcs)
        table[cells] = merit
        self.merit = table.reshape(n_regions, width)
        self.merit_position = np.arange(width)
        # Each merit column's capacity, 0 in the padding; shedding's, which
        # is its region's demand, is filled in by each crash.
        self.merit_capacity = np.append(capacities, 0.0)[self.merit]
        self.merit_shed = cells[merit >= first_shed]  # region by region
        status = core.HighsBasisStatus
        self.crash_status = np.array([status.kUpper, status.kBasic, status.kLower], dtype=object)
        self.crash_rows = [status.kLower] * n_regions

    def upper_at(self, demand: tuple[float, ...]):
        """The column upper bounds of an hour: shedding capped at its demand."""
        upper = self.capacities.copy()
        upper[self.first_shed :] = demand
        return upper

    def crash_basis(self, demand: tuple[float, ...]):
        """A basis that serves each region alone, in its own merit order.

        In each region the columns in merit order run at their upper bound
        until their cumulative capacity covers its demand (shedding capped at
        it): the column that covers it is basic, the region's later columns
        stay at their lower bound. Every link column is at its lower bound
        and every balance row is nonbasic. That is one basic column per
        region, in its own region's row, so the basis is nonsingular (Bixby,
        *ORSA J. Computing* 4(3), 1992).
        """
        import numpy as np

        capacity = self.merit_capacity.copy()
        capacity.flat[self.merit_shed] = demand
        # The first column of each row whose running total covers the demand:
        # shedding does, if no column before it.
        covers = np.cumsum(capacity, axis=1) >= np.reshape(demand, (-1, 1))
        side = np.sign(self.merit_position - covers.argmax(axis=1)[:, None])  # -1 upper, 0 basic, 1 lower
        codes = np.full(self.n_arcs + 1, 2)  # links at their lower bound
        codes[self.merit] = side + 1
        basis = _core.HighsBasis()
        basis.valid, basis.alien = True, False
        basis.col_status = self.crash_status[codes[:-1]].tolist()
        basis.row_status = self.crash_rows
        return basis


def _solve_hour(problem: _Problem, demand: tuple[float, ...]):
    """The LP column values of one hour's least-loss optimum, clipped at 0,
    and each region's price.

    The calling thread's HiGHS instance is loaded with the hour's model and
    starts from the optimal basis of the last hour that the thread solved
    for the same problem, from the problem's crash basis when it last solved
    another network or nothing; the hour's optimal basis replaces the
    thread's chain. The demand goes into the balance rows and caps each
    region's shedding: capping shedding at local demand rules out degenerate
    optima that route penalty power over cost-tied efficiency-1 links. Among the optima, ``_least_loss`` takes
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
    basis = chain[1] if chain is not None and chain[0] is problem else problem.crash_basis(demand)
    highs = _run(problem, demand, problem.lower, problem.fixed_upper + list(demand), basis)
    _thread.chain = (problem, highs.getBasis())
    solution = highs.getSolution()
    value, duals = np.array(solution.col_value, dtype=float), solution.row_dual
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
    the thread's previous hour of ``problem`` or the hour's crash basis, or
    None for a cold start (every cone LP).

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
    """A new HiGHS instance with ``_HIGHS_OPTIONS``."""
    options = _core.HighsOptions()
    for name, value in _HIGHS_OPTIONS.items():
        setattr(options, name, value)
    highs = _core._Highs()
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
    require_range(demand, "demand_mw", "[0, inf)", each="in every region")
    import numpy as np

    problem = network._problem
    first_link, first_shed = problem.first_link, problem.first_shed
    x, prices = _solve_hour(problem, demand)
    xs = x.tolist()

    curtailed = [0.0] * n_regions
    for j, ri, cap in problem.free_units:
        curtailed[ri] += cap - xs[j]
    forward, backward = xs[first_link:first_shed:2], xs[first_link + 1 : first_shed : 2]
    loss = sum(map(operator.mul, map(operator.add, forward, backward), problem.link_losses))
    return HourlyDispatch(
        demand_mw=demand,
        generation_mw=tuple(map(tuple, map(xs.__getitem__, problem.unit_slices))),
        flows_mw=tuple(map(operator.sub, forward, backward)),
        # Shedding capped at demand, which HiGHS may pass within its
        # tolerance: min(s, d), written out as it costs less than a call.
        unserved_mw=tuple([d if d < s else s for s, d in zip(xs[first_shed:], demand)]),
        curtailed_res_mw=tuple(curtailed),
        prices_eur_per_mwh=tuple(prices),
        loss_mw=float(loss),
        cost_eur=float(np.dot(problem.costs, x)),
    )


@dataclass(frozen=True)
class DispatchResult:
    network: DispatchNetwork
    hourly: tuple[HourlyDispatch, ...]

    def __post_init__(self) -> None:
        """Reject a result without hours, or one with an hour that does not
        hold one entry per region in a per-region field; each distinct hour
        is checked once."""
        require_range(len(self.hourly), "len(hourly)", "[1, inf]")
        n_regions = len(self.network.regions)
        distinct, index = self._hours
        for k, hour in enumerate(distinct):
            for field in ("demand_mw", "unserved_mw", "curtailed_res_mw", "prices_eur_per_mwh", "generation_mw"):
                size = len(getattr(hour, field))
                if size != n_regions:
                    name = f"hour {index.index(k)}: len({field})"
                    raise ValueError(f"{name} must be {n_regions}, one entry per region, got {size}")

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

        distinct, index = self._hours
        return _mean_spread(np.array([h.prices_eur_per_mwh for h in distinct]), index)


def _mean_spread(prices, index) -> float:
    """The mean over the hours ``index`` of the price spread of each row of
    ``prices``, one row per distinct hour.

    numpy's max and min of each row, as over every hour: Python's could flip
    the sign of a zero spread.
    """
    import numpy as np

    spread = prices.max(axis=1) - prices.min(axis=1)
    return float(np.mean(spread[index]))


def _first_day(network: DispatchNetwork, hours: int) -> list[tuple[float, ...]]:
    """The demand vector of each of the first ``min(hours, 24)`` hours of a
    horizon of ``hours``.

    ``Region.demand_at`` reads a 24-hour profile at ``(hour + offset) % 24``,
    so hour ``t`` of any horizon has the demand of hour ``t % 24``. The 24
    vectors are the network's day: every longer horizon repeats them, so the
    network's peaks, and its reserves (``reserve_requirements``), are
    properties of that day. The day is each region's profile rotated once by
    its offset, so hour ``t`` holds the very values ``demand_at(t)`` reads.
    """
    profiles = (region.demand_profile_mw for region in network.regions)
    offsets = (region.tz_offset_hours % 24 for region in network.regions)
    local_days = [profile[o:] + profile[:o] for profile, o in zip(profiles, offsets)]
    return list(zip(*local_days))[: min(hours, 24)]


def simulate(network: DispatchNetwork, hours: int) -> DispatchResult:
    """Dispatch ``hours`` consecutive hours; hours are independent (no storage),
    so an hour whose demand repeats an earlier hour's shares that hour's result.

    Demand repeats every 24 hours (``Region.demand_at``), so only the first
    day is built and solved, each distinct demand vector once, in time order:
    split into one contiguous run per CPU, at most one per vector, each on a
    thread of its own (the first on the calling thread), when the network's
    LP has at least ``_THREADED_MIN_ARCS`` columns, else all on the calling
    thread. Either way the printed results are the same, and a failure names
    the earliest hour whose demand fails. The rest of the horizon repeats
    that day's results.
    """
    require_range(hours, "hours", "[1, inf)")
    require_whole(hours, "hours")
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
        # One contiguous run of hours per thread, in time order, so that each
        # hour starts from the one before it. A run stops at its first failure.
        ends = [len(distinct) * k // threads for k in range(threads + 1)]
        runs = [distinct[a:b] for a, b in itertools.pairwise(ends)]
        outcomes = [None] * threads  # each run's hours, or a later run's failure

        def solve_run(k: int) -> None:
            try:
                outcomes[k] = list(map(solve, runs[k]))
            except BaseException as exc:
                outcomes[k] = exc

        workers = []
        try:
            for k in range(1, threads):
                worker = threading.Thread(target=solve_run, args=(k,), name=f"gridecon-simulate-run-{k}")
                worker.start()
                workers.append(worker)
            outcomes[0] = list(map(solve, runs[0]))
        finally:
            for worker in workers:
                worker.join()
        # The earliest run's failure is the earliest failing hour.
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        solved = dict(zip(distinct, itertools.chain.from_iterable(outcomes)))
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
    require_range(alpha, "alpha", "(0, 1]")
    isolated = {region.name: alpha * max(region.demand_profile_mw) for region in network.regions}
    if link_headroom_credit:
        system_peak = max(map(sum, _first_day(network, 24)))
        shared = min(alpha * system_peak, sum(isolated.values()))
    else:
        shared = sum(isolated.values())
    return ReserveRequirements(isolated_mw=isolated, shared_mw=shared)


def export_csv(result: DispatchResult) -> str:
    """Hour-by-region rows followed by a summary block, RFC-4180 style."""
    import numpy as np

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
    # Every cell and total is written by one _fmt call, cells first, so the
    # first non-finite cell decides its exception. A total that numpy would
    # warn about is not finite, so _fmt raises on it anyway.
    totals = ("total_cost_eur", "total_curtailed_mwh", "total_unserved_mwh", "mean_price_spread_eur_per_mwh")
    # Each distinct hour's rows are rendered once, without the hour column,
    # from one float array of its cells, [hour][column][region], followed by
    # the totals. Demand is read twice; the second copy becomes served.
    distinct, index = result._hours
    regions = result.network.regions
    per_hour = (
        (h.demand_mw, h.demand_mw, map(sum, h.generation_mw), h.curtailed_res_mw, h.unserved_mw, h.prices_eur_per_mwh)
        for h in distinct
    )
    size = len(distinct) * 6 * len(regions)
    # The mean price spread's place is filled below.
    summary = [result.total_cost_eur, result.total_curtailed_mwh, result.total_unserved_mwh, 0.0]
    cells_then_totals = itertools.chain(itertools.chain.from_iterable(itertools.chain.from_iterable(per_hour)), summary)
    values = np.fromiter(cells_then_totals, float, size + len(totals))
    cells = values[:size].reshape(len(distinct), 6, len(regions))
    # The mean price spread from the price cells already read, in the passes
    # of DispatchResult.mean_price_spread_eur_per_mwh on a contiguous array
    # like the one it builds, so to the same bits.
    with np.errstate(all="ignore"):
        values[-1] = _mean_spread(cells[:, 5].copy(), index)
    cells[:, 1] -= cells[:, 4]  # demand less unserved, as HourlyDispatch.served_mw
    texts = _fmt(values)
    # Cells never need quoting. Each name is quoted once, as in any row of
    # two or more fields (csv quotes an empty field only when it is alone).
    quoted = _Rows()
    csv.writer(quoted, lineterminator="\n").writerows((region.name, "") for region in regions)
    names = [row[: -len(",\n")] for row in quoted]
    columns = [texts[k : k + len(regions)] for k in range(0, size, len(regions))]
    rows = [list(map(",".join, zip(names, *columns[k : k + 6]))) for k in range(0, len(columns), 6)]
    for t, i in enumerate(index):
        prefix = f"{t},"
        out += (prefix, f"\n{prefix}".join(rows[i]), "\n")
    writer.writerow([])
    writer.writerow(["metric", "value"])
    writer.writerow(["hours", result.n_hours])
    writer.writerows(zip(totals, texts[size:]))
    return "".join(out)


class _Rows(list):
    """A file for ``csv.writer`` that keeps each write as one string."""

    write = list.append


def _fmt(values) -> list[str]:
    """Each value's cell text, in the order of ``values`` raveled: the value
    rounded to 6 decimals, written as an integer when it is one (below
    2**53) and in ``%g`` form otherwise.

    The work is done once per distinct value, in array passes. A value is
    rounded as ``rint(v * 1e6) / 1e6`` wherever that equals ``round(v, 6)``,
    and through one ``"%.6f"`` pass elsewhere; all of them are printed by
    one ``"%g"`` pass, and only the integers that ``%g`` does not print as
    such are written again. A non-finite value raises, as ``int`` raises on
    it: the first one in the order of ``values`` decides the exception.
    """
    import numpy as np

    values = np.asarray(values, dtype=float).ravel()
    # The distinct values, ascending, and each value's position among them:
    # np.unique's steps, without the checks and wrappers that cost more than
    # the work on a small result.
    order = values.argsort()
    ordered = values[order]
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    distinct = ordered[first]
    # rint(v * 1e6) / 1e6 is round(v, 6) unless a half-integer lies within
    # half an ulp of v * 1e6 (see the module docstring); the margin here is 4
    # to 8 ulps. From 2**49 on it is half a unit or more, so every such value
    # fails the test, as does a non-finite one or a product that overflows
    # (NaN compares false; inf - inf is NaN).
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = distinct * 1e6
        whole = np.rint(scaled)
        far = np.abs(scaled - whole) < 0.5 - np.abs(scaled) * 2.0**-50
    rounded = whole / 1e6
    if not far.all():
        finite = np.isfinite(values)
        if not finite.all():
            int(values[~finite][0])  # OverflowError for an infinity, ValueError for NaN
        # "%.6f" % v is round(v, 6): the same correctly rounded conversion.
        near = np.flatnonzero(~far)
        exact = distinct[near].tolist()
        rounded[near] = list(map(float, (("%.6f " * len(exact)) % tuple(exact)).split()))
    rounded += 0.0  # -0.0 + 0.0 is 0.0, which %g writes as "0", as int() does
    r = rounded.tolist()
    texts = (("%g " * len(r)) % tuple(r)).split()
    # %g writes an integer below 1e6 as one already, but 1e6 and up in
    # exponent form. Floats hold every integer exactly only below 2**53; past
    # it, all the digits of int(r) would claim a precision the value does not
    # have.
    for i in np.flatnonzero(np.abs(rounded) >= 1e6).tolist():
        if abs(r[i]) < 2**53 and r[i] == int(r[i]):
            texts[i] = str(int(r[i]))
    return np.array(texts, dtype=object)[inverse].tolist()
