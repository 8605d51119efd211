"""Hourly multi-region economic dispatch over an interconnection graph.

The network model, each hour's least-cost dispatch (``min_cost_flow``) and
a horizon's (``simulate``), the smoothing metrics and the CSV export. The
hourly LP is built and solved by ``gridecon._highs``. A horizon's result
(``DispatchResult``) holds each distinct hour once, as rows of per-region
arrays that its totals and ``export_csv`` read; ``simulate`` fills them
from the LP columns it solved, and decodes an ``HourlyDispatch`` per
distinct hour only when ``hourly`` is first read.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass

from .checks import require, require_range, require_whole

DEFAULT_UNSERVED_PENALTY = 10000.0  # EUR/MWh, far above any generator
# simulate solves the distinct hours of a network with at least this many LP
# columns on concurrent threads. HiGHS runs without the GIL, but on a small
# LP it is a small share of an hour, and threads there only contend for the
# GIL. 400 is the smallest size at which threads beat serial by more than
# the spread of the runs, in sweeps of 24 h simulates of seeded rings.
_THREADED_MIN_ARCS = 400


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
    """A link between two regions, usable either way up to ``capacity_mw``,
    that delivers ``efficiency`` of what it sends."""

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
    def _problem(self):
        """The dispatch LP of this network, built by the first hour solved.

        Building it is what imports ``gridecon._highs``, and with it numpy and
        scipy's HiGHS extension, so importing this module or building a
        network loads neither. A frozen network never changes, so the cache
        never goes stale; a ``dataclasses.replace`` copy is a new network with
        no cache.
        """
        from ._highs import _Problem

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


def min_cost_flow(network: DispatchNetwork, demand_mw) -> HourlyDispatch:
    """Cost-minimal generation and flows for one hour, given each region's demand.

    Demand that cannot be met is absorbed by a penalty variable priced at
    the network's unserved penalty, so the problem is always feasible. The
    hour is solved by ``gridecon._highs``.
    """
    demand = tuple(demand_mw)
    n_regions = len(network.regions)
    rule = f"{n_regions}, one value per region"
    require(len(demand) == n_regions, "len(demand_mw)", rule, len(demand))
    require_range(demand, "demand_mw", "[0, inf)", each="in every region")
    return HourlyDispatch(demand_mw=demand, **network._problem.dispatch_hour(demand))


class DispatchResult:
    """The dispatch of a horizon of ``network``: ``hourly``, one
    ``HourlyDispatch`` per hour, and its totals.

    A result holds each distinct hour once, as one row of per-region arrays
    of the quantities that ``export_csv`` writes (demand, generation,
    curtailment, unserved demand and price), with each hour's cost,
    curtailment and unserved demand, and the row of every hour. The totals
    and ``export_csv`` read only these arrays. There are two ways to build
    one: ``DispatchResult(network, hourly)`` takes hand-built hours, one row
    each, and rejects a result without hours or with an hour that does not
    hold one entry per region in a per-region field; ``simulate`` builds one
    from the LP columns it solved, and its ``hourly`` is decoded on first
    access, each distinct hour once by the decode of ``min_cost_flow``, and
    shared by every hour that repeats it.
    """

    def __init__(self, network: DispatchNetwork, hourly) -> None:
        import numpy as np

        hourly = tuple(hourly)
        require_range(len(hourly), "len(hourly)", "[1, inf]")
        n_regions = len(network.regions)
        for t, hour in enumerate(hourly):
            for field in ("demand_mw", "unserved_mw", "curtailed_res_mw", "prices_eur_per_mwh", "generation_mw"):
                size = len(getattr(hour, field))
                if size != n_regions:
                    raise ValueError(f"hour {t}: len({field}) must be {n_regions}, one entry per region, got {size}")
        self.network, self.hourly = network, hourly
        self._index = np.arange(len(hourly))

        def rows(per_hour):
            return np.array(list(map(per_hour, hourly)), dtype=float)

        self._demand = rows(lambda h: h.demand_mw)
        self._generation = rows(lambda h: list(map(sum, h.generation_mw)))
        self._curtailed = rows(lambda h: h.curtailed_res_mw)
        self._unserved = rows(lambda h: h.unserved_mw)
        self._prices = rows(lambda h: h.prices_eur_per_mwh)
        self._sums = rows(lambda h: (h.cost_eur, sum(h.curtailed_res_mw), sum(h.unserved_mw))).T

    @classmethod
    def _solved(cls, network: DispatchNetwork, demands: list, values, prices, index) -> DispatchResult:
        """The result of the hours ``index`` of ``network``, each the row of
        its distinct hour: that hour's demand vector in ``demands``, its LP
        column values in ``values`` and its prices in ``prices``, as
        ``gridecon._highs._solve_hour`` gave them."""
        import numpy as np

        result = cls.__new__(cls)
        result.network, result._index, result._prices = network, index, prices
        result._demand = np.array(demands, dtype=float)
        result._generation, result._curtailed, result._unserved, result._sums = network._problem.tabulate(demands, values)
        result._columns = demands, values
        return result

    @functools.cached_property
    def hourly(self) -> tuple[HourlyDispatch, ...]:
        """Each hour's dispatch, decoded on first access from the LP columns
        of a result that ``simulate`` built (a hand-built result holds its
        hours from the start). A frozen network's problem never changes, so
        the cache never goes stale."""
        demands, values = self._columns
        decode = self.network._problem.decode
        decoded = [
            HourlyDispatch(demand_mw=demand, **decode(demand, x, prices))
            for demand, x, prices in zip(demands, values, self._prices.tolist())
        ]
        return tuple(map(decoded.__getitem__, self._index.tolist()))

    @property
    def n_hours(self) -> int:
        return len(self._index)

    # Each total adds each hour's value in time order: the floats, and the
    # order, of a sum over ``hourly``.
    @property
    def total_cost_eur(self) -> float:
        return sum(self._sums[0, self._index].tolist())

    @property
    def total_curtailed_mwh(self) -> float:
        return sum(self._sums[1, self._index].tolist())

    @property
    def total_unserved_mwh(self) -> float:
        return sum(self._sums[2, self._index].tolist())

    @property
    def mean_price_spread_eur_per_mwh(self) -> float:
        return _mean_spread(self._prices, self._index)


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
    day is built and solved, each distinct demand vector once, by the
    engine's per-hour solve (``gridecon._highs._solve_hour``); profiles are
    checked when their regions are built, so no demand is checked again.
    Each distinct hour's LP column values and prices become one row of two
    arrays, and every hour of the horizon is the index of its row, so a year
    costs at most 24 solves and no Python step per hour.

    The distinct hours are split into one contiguous run per thread, in time
    order, so that every hour but a run's first starts from the hour before
    it. There is one thread per CPU, at most one per distinct hour, when the
    network's LP has at least ``_THREADED_MIN_ARCS`` columns: HiGHS runs
    without the GIL, so one hour's solve overlaps the Python that builds
    and prices another. Otherwise the one run is solved on the
    calling thread, which solves the first run in either case. Wherever an
    hour's least-loss dispatch is unique, the printed text is that of
    ``min_cost_flow`` hour by hour, in any order and on any thread; where it
    ties (two free units feeding one region over paths of equal efficiency),
    HiGHS picks one of the tied dispatches. A failure names the earliest hour
    whose demand fails.
    """
    require_range(hours, "hours", "[1, inf)")
    require_whole(hours, "hours")
    # No index array or tuple holds more hours than this.
    require(hours <= sys.maxsize, "hours", f"<= {sys.maxsize}", hours)
    import numpy as np

    from . import _highs

    day = _first_day(network, hours)
    distinct = list(dict.fromkeys(day))
    # The problem is built here, before any thread reads it: functools.cached_property
    # has no lock from Python 3.12 on.
    problem, solve_hour = network._problem, _highs._solve_hour

    def solve(demand: tuple):
        try:
            return solve_hour(problem, demand)
        except ValueError as exc:
            raise ValueError(f"hour {day.index(demand)}: {exc}") from exc

    threads = min(_cpu_count(), len(distinct)) if problem.n_arcs >= _THREADED_MIN_ARCS else 1
    # One contiguous run of hours per thread, in time order, so that each
    # hour starts from the one before it. A run stops at its first failure.
    ends = [len(distinct) * k // threads for k in range(threads + 1)]
    runs = [distinct[a:b] for a, b in itertools.pairwise(ends)]
    outcomes = [None] * threads  # each run's hours, or its failure

    def solve_run(k: int) -> None:
        try:
            outcomes[k] = list(map(solve, runs[k]))
        except BaseException as exc:
            outcomes[k] = exc

    # One thread per later run, with no pool, queue or barrier; the calling
    # thread solves the first run and keeps its HiGHS instance and chain from
    # call to call. Every started thread is joined before this returns or
    # raises, and a thread that cannot start ends the call with its error.
    workers = []
    try:
        for k in range(1, threads):
            worker = threading.Thread(target=solve_run, args=(k,), name=f"gridecon-simulate-run-{k}")
            worker.start()
            workers.append(worker)
        solve_run(0)
    finally:
        for worker in workers:
            worker.join()
    # The earliest run's failure is the earliest failing hour.
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    values, prices = zip(*itertools.chain.from_iterable(outcomes))
    row = dict(zip(distinct, itertools.count()))
    # Hour t has the demand, and so the row, of hour t % 24.
    index = np.resize(list(map(row.__getitem__, day)), hours)
    return DispatchResult._solved(network, distinct, np.array(values), np.array(prices), index)


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
    # first non-finite cell decides its exception: numpy's passes over such
    # a value run with its warnings off. The cells are one float array of
    # the distinct hours, [hour][column][region], and each distinct hour's
    # rows are rendered once, without the hour column. Served is demand less
    # unserved, as HourlyDispatch.served_mw.
    demand, unserved, index = result._demand, result._unserved, result._index
    totals = ("total_cost_eur", "total_curtailed_mwh", "total_unserved_mwh", "mean_price_spread_eur_per_mwh")
    with np.errstate(all="ignore"):
        cells = np.stack((demand, demand - unserved, result._generation, result._curtailed, unserved, result._prices), 1)
        summary = [result.total_cost_eur, result.total_curtailed_mwh, result.total_unserved_mwh,
                   _mean_spread(result._prices, index)]
    size = cells.size
    texts = _fmt(np.concatenate((cells.ravel(), summary)))
    regions = result.network.regions
    # Cells never need quoting. Each name is quoted once, as in any row of
    # two or more fields (csv quotes an empty field only when it is alone).
    quoted = _Rows()
    csv.writer(quoted, lineterminator="\n").writerows((region.name, "") for region in regions)
    names = [row[: -len(",\n")] for row in quoted]
    columns = [texts[k : k + len(regions)] for k in range(0, size, len(regions))]
    rows = [list(map(",".join, zip(names, *columns[k : k + 6]))) for k in range(0, len(columns), 6)]
    for t, i in enumerate(index.tolist()):
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
    rounded as ``rint(v * 1e6) / 1e6`` wherever that equals ``round(v, 6)``:
    the product is within half an ulp of the exact one, so ``rint`` gives the
    integer nearest the exact product unless a half-integer lies that close,
    and a quotient of two integers below 2**53 is correctly rounded, so the
    result is the double nearest the six-decimal number. Elsewhere a value
    goes through one ``"%.6f"`` pass: ``"%.6f" % v`` and ``round(v, 6)`` come
    from the same correctly rounded conversion (D. M. Gay, *Correctly Rounded
    Binary-Decimal and Decimal-Binary Conversions*, 1990; ``_Py_dg_dtoa``,
    mode 3). All of them are printed by one ``"%g"`` pass, and only the
    integers that ``%g`` does not print as such are written again. A
    non-finite value raises, as ``int`` raises on it: the first one in the
    order of ``values`` decides the exception.
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
    # half an ulp of v * 1e6 (see the docstring); the margin here is 4
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
