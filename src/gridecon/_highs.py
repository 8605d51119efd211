"""The dispatch LP engine, the one module that drives scipy's HiGHS binding.

It loads the binding (``core``), keeps one HiGHS instance per thread
(``_thread``), builds a network's hourly LP once (``_Problem``), and solves
and decodes one hour of it (``_Problem.dispatch_hour``): the hour's
least-loss optimum and each region's price.
"""

import importlib.machinery
import importlib.util
import itertools
import math
import operator
import os
import sys
import threading

import numpy as np
import scipy  # the light package; its init also sets up extension loading on some platforms

_NAME = "scipy.optimize._highspy._core"


def _load():
    """scipy's bundled HiGHS extension, ``scipy.optimize._highspy._core``
    (Huangfu & Hall, *Math. Prog. Comp.* 10, 2018), without ``scipy.optimize``.

    Importing it by name runs ``scipy/optimize/__init__.py`` first, since
    Python imports every parent package, and that pulls in linalg, sparse,
    special and more: about 0.7 s of a cold ``simulate``, where the extension
    alone loads in about 10 ms. So the extension file is found in scipy's
    ``optimize/_highspy`` directory and loaded under its full dotted name. It
    is registered in ``sys.modules`` before it runs, so a later ``import
    scipy.optimize`` reuses this module object instead of loading a second
    copy; one already registered there is reused the same way. The load runs
    once, when this module is first imported, and Python's import lock makes
    any other thread importing it meanwhile wait for that load.
    """
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    directory = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(_NAME, [directory])
    if spec is None:
        raise ImportError(f"scipy's HiGHS extension _core not found in {directory}", name=_NAME)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        # As the import system does: no half-initialized module stays behind.
        sys.modules.pop(_NAME, None)
        raise
    return module


core = _load()

_EPS_FLOW = 1e-7  # a column this close to a bound counts as at that bound
_EPS_COST = 1e-9  # a reduced cost this close to 0 counts as 0: HiGHS's dual tolerance
# HiGHS options, set once on each thread's instance: dual simplex, presolve
# off and no output, as scipy.optimize.linprog sets them. Presolve costs more
# than it saves on LPs this small. The feasibility tolerances decide where
# the dual simplex stops: at HiGHS's default of 1e-7 the pinned 24 h export of
# a 200-region ring (seed 101:10) changes, so 1e-9 keeps every vertex, and so
# every golden file, where it is.
_HIGHS_OPTIONS = {
    "dual_feasibility_tolerance": 1e-9,
    "primal_feasibility_tolerance": 1e-9,
    "presolve": "off",
    "simplex_strategy": 1,  # dual simplex
    "output_flag": False,
}


def _check(status, what: str) -> None:
    """Raise ``ValueError`` when a binding call that set ``what`` failed."""
    if status == core.HighsStatus.kError:
        raise ValueError(f"dispatch LP failed: HiGHS rejected {what}")


class _Thread(threading.local):
    """Each thread's solver state, set up on the thread's first use (the
    importing thread's at import): its HiGHS instance with
    ``_HIGHS_OPTIONS``, kept from call to call since building one takes
    about as long as solving an hour of the 2-region demo; and its chain,
    the problem it last solved an hour of with that hour's optimal basis,
    or None.
    """

    def __init__(self) -> None:
        options = core.HighsOptions()
        for name, value in _HIGHS_OPTIONS.items():
            setattr(options, name, value)
        self.highs = core._Highs()
        _check(self.highs.passOptions(options), "the options")
        self.chain = None


_thread = _Thread()


class _Problem:
    """A network's dispatch LP without its hour: everything but demand.

    An hour is a min-cost flow with lossy arcs (a unit sent arrives as
    ``efficiency`` units). Successive shortest augmenting paths are not exact
    once arcs have unequal gains, so it is solved as an exact LP. One arc
    (tail, head, capacity, gain, cost) per LP column, its ends given as
    region indices: generators region by region, each interconnector forward
    (``region_a`` to ``region_b``) then backward, then one shedding arc per
    region. A generator or shedding arc enters its region from outside the
    network, so its tail is ``n_regions``, past the last region. Each field
    is filled a block of columns at a time, each link's forward column at an
    even offset from ``first_link`` and its backward column right after it.
    """

    def __init__(self, network) -> None:
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
        # The balance rows, one column per arc: its gain in its head's row
        # and -1 in its tail's, if it leaves a region; entries in column
        # order, rows ascending within a column (canonical CSC). The keys are
        # two ascending runs, which a stable sort merges in one pass.
        leaves = tails < n_regions
        tailed = np.flatnonzero(leaves)
        columns = np.concatenate((np.arange(n_arcs), tailed))
        rows = np.concatenate((heads, tails[tailed]))
        entries = np.concatenate((gains, np.full(len(tailed), -1.0)))
        order = np.argsort(columns * (n_regions + 1) + rows, kind="stable")
        start = np.zeros(n_arcs + 1, dtype=np.intp)
        np.cumsum(1 + leaves, out=start[1:])
        # Built once in HiGHS's own type: an hour's model copies it whole, where
        # the binding would convert every entry again.
        self.balance = balance = core.HighsSparseMatrix()
        balance.format_ = core.MatrixFormat.kColwise
        balance.num_col_, balance.num_row_ = n_arcs, n_regions
        balance.start_, balance.index_, balance.value_ = start.tolist(), rows[order].tolist(), entries[order].tolist()
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
        *ORSA J. Computing* 4(3), 1992), and it costs one array pass. On a
        200-region ring the first hour takes about 410 dual simplex
        iterations from it, against about 550 from HiGHS's slack basis.
        """
        capacity = self.merit_capacity.copy()
        capacity.flat[self.merit_shed] = demand
        # The first column of each row whose running total covers the demand:
        # shedding does, if no column before it.
        covers = np.cumsum(capacity, axis=1) >= np.reshape(demand, (-1, 1))
        side = np.sign(self.merit_position - covers.argmax(axis=1)[:, None])  # -1 upper, 0 basic, 1 lower
        codes = np.full(self.n_arcs + 1, 2)  # links at their lower bound
        codes[self.merit] = side + 1
        basis = core.HighsBasis()
        basis.valid, basis.alien = True, False
        basis.col_status = self.crash_status[codes[:-1]].tolist()
        basis.row_status = self.crash_rows
        return basis

    def dispatch_hour(self, demand: tuple[float, ...]) -> dict:
        """One hour of this problem at ``demand``, solved by ``_solve_hour``:
        the fields of its ``HourlyDispatch`` but ``demand_mw``, by name.

        The LP column values are decoded from slices of one list: each
        region's units, and every link's forward and backward columns, taken
        two apart.
        """
        first_link, first_shed = self.first_link, self.first_shed
        x, prices = _solve_hour(self, demand)
        xs = x.tolist()

        curtailed = [0.0] * len(demand)
        for j, ri, cap in self.free_units:
            curtailed[ri] += cap - xs[j]
        forward, backward = xs[first_link:first_shed:2], xs[first_link + 1 : first_shed : 2]
        loss = sum(map(operator.mul, map(operator.add, forward, backward), self.link_losses))
        return dict(
            generation_mw=tuple(map(tuple, map(xs.__getitem__, self.unit_slices))),
            flows_mw=tuple(map(operator.sub, forward, backward)),
            # Shedding capped at demand, which HiGHS may pass within its
            # tolerance: min(s, d), written out as it costs less than a call.
            unserved_mw=tuple([d if d < s else s for s, d in zip(xs[first_shed:], demand)]),
            curtailed_res_mw=tuple(curtailed),
            prices_eur_per_mwh=tuple(prices),
            loss_mw=float(loss),
            cost_eur=float(np.dot(self.costs, x)),
        )


def _solve_hour(problem: _Problem, demand: tuple[float, ...]):
    """The LP column values of one hour's least-loss optimum, clipped at 0,
    and each region's price.

    The calling thread's HiGHS instance is loaded with the hour's model and
    starts from the optimal basis of the last hour that the thread solved
    for the same problem, from the problem's crash basis when it last solved
    another network or nothing; the hour's optimal basis replaces the
    thread's chain. The hours of one network differ only in demand, which
    goes into the balance rows and caps each region's shedding, never into a
    cost or a matrix entry. So an optimal basis of one hour is a dual
    feasible basis of every other, from which dual simplex reoptimizes in a
    few pivots (Bixby, *Operations Research* 50(1), 2002). Capping shedding
    at local demand rules out degenerate optima that route penalty power
    over cost-tied efficiency-1 links. Loading the model clears whatever the
    instance held, so a demand that HiGHS reads as infinite is rejected at
    load, and a failed hour leaves the chain as it was. Among the optima,
    ``_least_loss`` takes the one with the least transmission loss, so the
    hour does not depend on where the solve started.

    A price is the cost of one more MWh in its region. Every dual constraint
    ties at most two regions, with coefficients of opposite sign, so the
    optimal row duals form a lattice whose greatest element is that cost in
    every region at once (Hochbaum & Naor, *SIAM J. Comput.* 23(6), 1994).
    The price is that greatest dual times the penalty, which undoes the
    objective's normalization. When exactly one column per region lies
    strictly inside its bounds in the first stage's optimum, that vertex is
    nondegenerate and its dual, the one HiGHS returns, is unique; otherwise
    it comes from the cone LP of ``_cone_duals``. Prices belong to the
    optimal face, so the least-loss stage leaves them as they are.
    """
    upper = problem.upper_at(demand)
    chain = _thread.chain
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

    Different starts can end at different optimal vertices wherever the
    optimum is not unique, say where free energy could be curtailed in more
    than one region; the one with the least loss, which is also the one that
    generates least, is the hour's canonical optimum. A nonbasic column whose
    reduced cost is not 0 (by more than ``_EPS_COST``) stays at its bound at
    every optimum; with no other nonbasic column the optimum is unique.
    Otherwise the basis prices the loss shares (``y2`` solves ``B^T y2 =
    c2_B``), and only when one of the zero-cost nonbasic columns could move
    away from its bound and cut the loss does a second stage run (about one
    hour in a hundred on the benchmark's rings): every other nonbasic column
    is fixed at its bound and each link costs its loss share as well. The
    hour's cost is then constant over the columns left free, so that stage
    minimizes the loss over the first stage's optima. The stage is left on
    the instance; the next hour's model replaces it.
    """
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

    The LP keeps the hour's balance matrix and objective, moves each column
    only into the residual cone of the hour's optimal flows (up from its
    lower bound, down from its upper bound, either way inside) and adds one
    MWh of demand in every region. Shedding can always grow, since its cap
    grows with demand. The optimal duals of this LP are those of the hour
    that maximize their sum: the greatest one alone. Loading it replaces the
    hour's model and solution on the thread's HiGHS instance.
    """
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

    This is the one place that loads a model; ``_least_loss`` only changes
    the bounds and costs of the model loaded and runs it again. Every
    binding call is checked, since HiGHS rejects a model with a bound of
    1e20 or more (it reads those as infinite) and would then run whatever
    model it held; any failure raises ``ValueError``.
    """
    highs = _thread.highs
    lp = core.HighsLp()
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


def _solved(highs):
    """``highs`` after a run that must end optimal, else ``ValueError``."""
    ran = highs.run()
    status = highs.getModelStatus()
    if ran == core.HighsStatus.kError or status != core.HighsModelStatus.kOptimal:
        raise ValueError(f"dispatch LP failed: {highs.modelStatusToString(status)}")
    return highs

