"""Command-line front end.

One subcommand per analysis; every numeric report names the calibration
profile it was produced with and, where a published benchmark exists, the
reference value next to the computed one. Exit status is 0 on success and
2 on any input error (unknown flag, bad scenario file, unresolved name,
or values too large to compute with).

A process runs one subcommand, and its wall time is mostly import time, so
this module imports only what building the parser needs (the names it
offers as choices and defaults). That loads ``finance`` and
``transmission``, so their evaluators are imported here too; each
subcommand imports the rest itself, the report renderer included.
``lcoe``, ``norned``, ``compare-import`` and ``normalize`` never load the
scenario-file reader, the project table or dispatch, and only ``simulate``
loads dispatch (and, on its first solve, numpy and scipy's HiGHS
extension, without the half-second import of ``scipy.optimize``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import datasets
from .finance import ConversionContext, Currency, MoneyAmount, normalize_currency
from .profiles import PROFILES, get_profile
from .transmission import deliverable_energy, link_capex, transmission_lcoe

if TYPE_CHECKING:
    from .report import Report

FORMATS = ("table", "csv", "markdown")
# The scenario reports can also take finance and duty from the scenario file.
SCENARIO_PROFILES = (*PROFILES, "custom")
CASES = tuple(datasets.CABLE_COST_CASES_MEUR_PER_KM)

# (computed - published) / published at zero O&M, as the interval (-0.13, -0.07)
_ZERO_OM_GAP = datasets.REFERENCES["scenario_lcoe_zero_om_gap"][0]
OM_GAP_NOTE = (
    "zero-O&M profile understates the published reference costs by roughly "
    f"{-_ZERO_OM_GAP[1] * 100:.0f}-{-_ZERO_OM_GAP[0]:.0%}; profile appendix-B-reconciled "
    f"({PROFILES['appendix-B-reconciled'].om_rate:.1%}/yr fixed O&M) closes the gap"
)
RECONCILED_NOTE = (
    "the {om_rate:.1%}/yr fixed O&M charge of {source} is a reconciliation "
    "hypothesis, not a published input"
)


def _failed_step(exc: BaseException) -> str:
    """``module.function`` of the innermost gridecon frame the error passed through."""
    package = Path(__file__).parent
    step = "cli"
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        path = Path(code.co_filename)
        if path.parent == package:
            step = f"{path.stem}.{code.co_name}"
        tb = tb.tb_next
    return step


def _lcoe(profile: str, case: str, length_km: float, capacity_mw: float) -> Report:
    """Levelized cost per delivered kWh of a long point-to-point cable."""
    from .report import Report

    prof = get_profile(profile)
    fin = prof.finance()
    cases = CASES if case == "all" else [case]
    rows = []
    for c in cases:
        link = prof.apply_to_link(
            datasets.long_submarine_link(length_km=length_km, case=c, capacity_mw=capacity_mw)
        )
        delivered = deliverable_energy(link)
        value = transmission_lcoe(link, fin, delivered)
        args = {"profile": profile, "case": c, "length_km": length_km, "capacity_mw": capacity_mw}
        reference = datasets.published(("link_lcoe", length_km, c), **args)
        rows.append((c, length_km, capacity_mw, link_capex(link), delivered, value, reference))
    return Report(
        title="Levelized transmission cost, long submarine cable",
        profile=prof.name,
        columns=(
            "case",
            "length_km",
            "capacity_mw",
            "capex_meur",
            "delivered_gwh_per_yr",
            "lcoe_eur_per_kwh",
            "reference_eur_per_kwh",
        ),
        rows=tuple(rows),
    )


def _project_table(converter_cost: float, projects_csv: str | None) -> Report:
    """Implied cable cost per km of the benchmark submarine projects."""
    from .projects import implied_cable_cost_per_km, load_project_records, require_converter_cost
    from .report import Report, format_sig

    require_converter_cost(converter_cost)
    records = (
        load_project_records(projects_csv)
        if projects_csv
        else datasets.load_bundled_projects()
    )
    rows = []
    for record in records:
        band = implied_cable_cost_per_km(record, converter_cost)
        low, high = band.rounded()
        cost_per_km = f"{low:.2f}" if band.is_point else f"{low:.2f}-{high:.2f}"
        total = format_sig(record.total_cost_meur)
        if record.cost_range_frac:
            total += f" +/-{record.cost_range_frac:.0%}"
        rows.append(
            (
                record.name,
                record.voltage_kv,
                record.capacity_mw,
                record.length_km,
                record.max_depth_m if record.max_depth_m is not None else "n/a",
                total,
                cost_per_km,
            )
        )
    return Report(
        title="Submarine HVDC projects, implied cable cost",
        profile=f"converter-cost-{format_sig(converter_cost)}-meur",
        columns=(
            "name",
            "voltage_kv",
            "capacity_mw",
            "length_km",
            "max_depth_m",
            "total_cost_meur",
            "cable_cost_meur_per_km",
        ),
        rows=tuple(rows),
    )


def _case_study(args: dict):
    """What a scenario or trade report run with the arguments ``args`` evaluates.

    Returns the scenario file's contents, the connection scenario and finance
    under ``args["profile"]``, and the notes printed under the report. The
    reconciliation note goes under every nonzero O&M rate that gridecon
    supplies rather than the user, a profile's or a bundled file's: each is
    the hypothesis of ``appendix-B-reconciled``.
    """
    contents = datasets.resolve_scenario(args["scenario_spec"], args["case"])
    scenario = contents.require("scenario")
    if args["profile"] == "custom":
        fin = contents.require("finance")
        bundled = args["scenario_spec"] in datasets.BUNDLED_SCENARIOS
        source = "the bundled scenario file" if bundled else None
    else:
        profile = get_profile(args["profile"])
        scenario, fin, source = profile.apply_to_scenario(scenario), profile.finance(), "this profile"
    if datasets.published("scenario_lcoe_zero_om_gap", **args) is not None:
        notes = (OM_GAP_NOTE,)
    elif fin.om_rate and source:
        notes = (RECONCILED_NOTE.format(om_rate=fin.om_rate, source=source),)
    else:
        notes = ()
    return contents, scenario, fin, notes


def _scenario(scenario_spec: str, profile: str, case: str, connection: str) -> Report:
    """Deliveries, transmission LCOE, and revenue uplift of a connection scenario."""
    from .report import Report
    from .scenario import annual_production, delivered_cost_increase, evaluate_connection, revenue

    args = {"scenario_spec": scenario_spec, "profile": profile, "case": case, "connection": connection}
    published = functools.partial(datasets.published, **args)
    contents, scenario, fin, notes = _case_study(args)
    if connection == "dual" and len(scenario.paths) != 2:
        raise ValueError("dual connection requires exactly two paths")
    prices = contents.require("prices")
    gen_lcoe = scenario.source.lcoe_eur_per_kwh

    single = dataclasses.replace(scenario, paths=scenario.paths[:1])
    single_result = evaluate_connection(single, fin)

    rows = [("production_gwh_per_yr", annual_production(scenario.source), None)]
    if connection == "single":
        connected, result = single, single_result
    else:
        connected, result = scenario, evaluate_connection(scenario, fin)
    for path, delivered in zip(connected.paths, result.delivered_per_path_gwh):
        reference = published(("delivered_gwh", path.market))
        rows.append((f"delivered_{path.market}_gwh_per_yr", delivered, reference))
    reference = published(("scenario_lcoe", connection, case))
    rows.append(("total_capex_meur", result.total_capex_meur, None))
    rows.append(("transmission_lcoe_eur_per_kwh", result.scenario_lcoe_eur_per_kwh, reference))
    if connection == "dual":
        uplift = revenue(connected, prices).uplift
        reference = published("revenue_uplift")
        rows.append(("revenue_uplift_pct", uplift * 100.0, reference and reference * 100.0))
        increase = delivered_cost_increase(gen_lcoe, single_result, result)
        band = published("cost_increase")
        band = band and "-".join(f"{bound * 100:g}" for bound in band)
        rows.append(("cost_increase_vs_single_pct", increase * 100.0, band))
    return Report(
        title=f"Connection scenario ({connection}, {case}-cost case)",
        profile=profile,
        columns=("metric", "value", "reference"),
        rows=tuple(rows),
        notes=notes,
    )


def _trade(scenario_spec: str, profile: str, case: str) -> Report:
    """Residual trade capacity of a dual connection and the trade-inclusive LCOE."""
    from .report import Report
    from .scenario import trade_inclusive_lcoe, trade_potential

    args = {"scenario_spec": scenario_spec, "profile": profile, "case": case}
    published = functools.partial(datasets.published, **args)
    _, scenario, fin, notes = _case_study(args)
    trade = trade_potential(scenario)
    corridor = deliverable_energy(scenario.paths[0].link)
    rows = (
        ("wind_delivered_gwh_per_yr", trade.wind_delivered_gwh, None),
        ("trade_delivered_gwh_per_yr", trade.trade_delivered_gwh, published("trade_delivered_gwh")),
        ("total_delivered_gwh_per_yr", trade.total_delivered_gwh, published("total_delivered_gwh")),
        ("lcoe_with_trade_eur_per_kwh", trade_inclusive_lcoe(scenario, fin), published(("trade_lcoe", case))),
        (
            f"full_capacity_deliverable_{scenario.paths[0].market}_gwh_per_yr",
            corridor,
            published("corridor_deliverable_gwh"),
        ),
    )
    return Report(
        title=f"Inter-market trade over the dual connection ({case}-cost case)",
        profile=profile,
        columns=("metric", "value", "reference"),
        rows=rows,
        notes=notes,
    )


def _norned(revenue_meur: float, days: int, profile: str) -> Report:
    """Revenue per delivered kWh of the NorNed interconnector's first months."""
    from .report import Report
    from .scenario import revenue_per_delivered_kwh

    prof = get_profile(profile)
    link = prof.apply_to_link(datasets.norned_link())
    hours = days * 24.0
    value = revenue_per_delivered_kwh(revenue_meur * 1e6, link, hours)
    sensitivity_hours = datasets.NORNED_PERIOD_DAYS_SENSITIVITY * 24.0
    sensitivity = revenue_per_delivered_kwh(revenue_meur * 1e6, link, sensitivity_hours)
    args = {"profile": profile, "revenue_meur": revenue_meur, "days": days}
    reference = datasets.published("norned_revenue_per_kwh", **args)
    rows = (
        ("revenue_meur", revenue_meur, None),
        ("period_days", days, None),
        ("delivered_gwh", deliverable_energy(link, hours), None),
        ("revenue_per_delivered_kwh_eur", value, reference),
        (f"revenue_per_delivered_kwh_eur_{datasets.NORNED_PERIOD_DAYS_SENSITIVITY}day", sensitivity, None),
    )
    return Report(
        title="Interconnector revenue per delivered kWh",
        profile=prof.name,
        columns=("metric", "value", "reference"),
        rows=rows,
    )


def _compare_import() -> Report:
    """Point comparison of importing remote renewable power vs local fossil cost."""
    from .report import Report
    from .scenario import import_competitiveness

    c = datasets.IMPORT_COMPARISON_USD_PER_KWH
    cases = (
        ("cheapest-res", c["remote_gen_low"], c["link_low"], c["local_fossil"]),
        ("most-expensive-res", c["remote_gen_high"], c["link_high"], c["local_fossil_with_social"]),
    )
    rows = []
    for name, remote, link_cost, local in cases:
        margin = import_competitiveness(remote, link_cost, local)
        rows.append(
            (name, remote, link_cost, remote + link_cost, local, margin * 100.0, margin > 0)
        )
    return Report(
        title="Import competitiveness, USD per kWh",
        profile="paper-appendix-A",
        columns=(
            "case",
            "remote_gen",
            "link_cost",
            "delivered_cost",
            "local_cost",
            "margin_pct",
            "import_cheaper",
        ),
        rows=tuple(rows),
        notes=(
            "link costs are the low/high long-cable values converted at "
            f"1 USD = {datasets.FX_USD_TO_EUR_2011} EUR (2011)",
        ),
    )


def _simulate(scenario_spec: str, hours: int) -> str:
    """Hourly dispatch simulation; emits CSV rows per hour and region."""
    from .dispatch import export_csv, simulate

    contents = datasets.resolve_scenario(scenario_spec)
    network = contents.require("network")
    return export_csv(simulate(network, hours))


def _normalize(
    value: float,
    currency: str,
    price_year: int,
    target_currency: str,
    target_year: int,
    fx: float,
    inflation: float,
) -> Report:
    """Convert a monetary amount across currencies and price years."""
    from .report import Report

    amount = MoneyAmount(value=value, currency=Currency(currency), price_year=price_year)
    ctx = ConversionContext(
        fx_rate=fx, inflation_rate=inflation, target_currency=Currency(target_currency)
    )
    result = normalize_currency(amount, ctx, target_year)
    rows = (
        (format(value, "g"), currency, price_year, result.value, target_currency, target_year),
    )
    return Report(
        title="Currency normalization",
        profile=f"fx-{fx:g}-inflation-{inflation:g}",
        columns=(
            "value",
            "currency",
            "price_year",
            "normalized_value",
            "target_currency",
            "target_year",
        ),
        rows=rows,
    )


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Lists an option's default in its help, unless the option has none."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reads every negative number as a value.

    argparse takes a token for an option name unless it looks like a
    negative number, and its own test for that misses the exponent form
    (``-1e3``, before Python 3.13) and ``-inf``. Here a minus sign followed
    by a digit, a point or ``inf``/``nan`` starts a value, which then
    reaches its option's ``type=`` and range check.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)


@functools.cache
def _parser(prog: str) -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and program name.

    Each subcommand sets ``command``, the function that takes its options;
    a report subcommand also takes ``--format`` (``fmt``).
    """
    parser = _Parser(
        prog=prog,
        description="Techno-economic analysis of long-distance HVDC interconnections.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name: str, function, report: bool = True):
        sub = commands.add_parser(
            name,
            help=function.__doc__,
            description=function.__doc__,
            allow_abbrev=False,
            formatter_class=_HelpFormatter,
        )
        sub.set_defaults(command=function)
        if report:
            sub.add_argument("--format", dest="fmt", default="table", choices=FORMATS, help="Output format.")
        return sub.add_argument

    option = command("lcoe", _lcoe)
    option("--profile", default="paper-appendix-A", choices=PROFILES, help="Calibration profile.")
    option("--case", default="all", choices=(*CASES, "all"), help="Submarine cable cost case.")
    option("--length-km", default=datasets.LONG_LINK["length_km"], type=float, help="Cable length, km.")
    option("--capacity-mw", default=datasets.LONG_LINK["capacity_mw"], type=float, help="Link rating, MW.")

    option = command("project-table", _project_table)
    option("--converter-cost", default=150.0, type=float, help="Assumed cost of one converter terminal, MEUR.")
    option("--projects-csv", help="Project records CSV (default: bundled dataset).")

    def case_study(name: str, function):
        # The options of a report that evaluates the case study (_case_study).
        option = command(name, function)
        option("--scenario", dest="scenario_spec", metavar="SCENARIO", default="greenland", help="Bundled scenario name or path to a scenario file.")
        option("--profile", default="appendix-B-reconciled", choices=SCENARIO_PROFILES, help="Calibration profile; custom takes the scenario file's.")
        option("--case", default="low", choices=CASES, help="Submarine cable cost case.")
        return option

    option = case_study("scenario", _scenario)
    option("--connection", default="dual", choices=("single", "dual"), help="Paths evaluated.")

    case_study("trade", _trade)

    option = command("norned", _norned)
    option("--revenue-meur", default=datasets.NORNED["revenue_meur"], type=float, help="Observed revenue over the period.")
    option("--days", default=datasets.NORNED["days"], type=int, help="Length of the period, days.")
    option("--profile", default="norned", choices=PROFILES, help="Calibration profile.")

    command("compare-import", _compare_import)

    option = command("simulate", _simulate, report=False)
    option("--scenario", dest="scenario_spec", metavar="SCENARIO", default="smoothing", help="Bundled scenario name or path to a scenario file with a network section.")
    option("--hours", default=24, type=int, help="Hours to dispatch.")

    option = command("normalize", _normalize)
    currencies = [c.value for c in Currency]
    option("--value", required=True, type=float, help="Amount to convert.")
    option("--currency", required=True, choices=currencies, help="Currency of the amount.")
    option("--price-year", required=True, type=int, help="Price year of the amount.")
    option("--target-currency", required=True, choices=currencies, help="Currency to convert to.")
    option("--target-year", required=True, type=int, help="Price year to convert to.")
    option("--fx", required=True, type=float, help="Target-currency units per source unit.")
    option("--inflation", default=0.0, type=float, help="Fraction per year in the target currency.")
    return parser


def _run(args: list[str], prog: str) -> int:
    """Run one command line and return its exit status."""
    try:
        options = vars(_parser(prog).parse_args(args))
    except SystemExit as exc:  # argparse has written the help, or the usage error
        return exc.code
    command = options.pop("command")
    fmt = options.pop("fmt", None)
    try:
        text = command(**options)
        if fmt is not None:  # a report is rendered in its format; simulate's CSV is its output
            from .report import render

            text = render(text, fmt)
    except (ValueError, OSError) as exc:
        return _error(str(exc))
    except (ArithmeticError, MemoryError) as exc:
        return _error(f"{_failed_step(exc)}: cannot compute with these inputs ({type(exc).__name__}: {exc})")
    sys.stdout.write(text)
    return 0


def _error(message: str) -> int:
    sys.stderr.write(f"Error: {message}\n")
    return 2


class _Main:
    """The program. ``main()``, the console script, runs ``sys.argv`` and exits
    with its status; ``main.main(args)`` runs ``args`` in-process."""

    def __call__(self) -> None:
        self.main()

    def main(self, args: list[str] | None = None, prog_name: str = "gridecon", standalone_mode: bool = True) -> int:
        """Run ``args`` (default ``sys.argv[1:]``); exit with the status, or
        return it if not ``standalone_mode``."""
        code = _run(sys.argv[1:] if args is None else list(args), prog_name)
        if standalone_mode:
            sys.exit(code)
        return code


main = _Main()

if __name__ == "__main__":
    main()
