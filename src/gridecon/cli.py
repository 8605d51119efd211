"""Command-line front end.

One subcommand per analysis; every numeric report names the calibration
profile it was produced with and, where a published benchmark exists, the
reference value next to the computed one. Exit status is 0 on success and
2 on any input error (unknown flag, bad scenario file, unresolved name,
or values too large to compute with).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from pathlib import Path

import click

from . import datasets
from .dispatch import export_csv, simulate
from .finance import (
    ConversionContext,
    Currency,
    FinancialAssumptions,
    MoneyAmount,
    normalize_currency,
)
from .profiles import PROFILES, get_profile
from .projects import implied_cable_cost_per_km, load_project_records
from .report import Report, format_sig, render
from .scenario import (
    ConnectionScenario,
    annual_production,
    delivered_cost_increase,
    delivered_over_period_kwh,
    evaluate_connection,
    import_competitiveness,
    revenue,
    revenue_per_delivered_kwh,
    trade_inclusive_lcoe,
    trade_potential,
)
from .transmission import deliverable_energy, link_capex, transmission_lcoe

FORMAT_CHOICE = click.Choice(["table", "csv", "markdown"])
PROFILE_CHOICE = click.Choice(list(PROFILES))
# The scenario reports can also take finance and duty from the scenario file.
SCENARIO_PROFILE_CHOICE = click.Choice([*PROFILES, "custom"])
CASES = list(datasets.CABLE_COST_CASES_MEUR_PER_KM)

OM_GAP_NOTE = (
    "zero-O&M profile understates the published reference costs by roughly "
    "7-13%; profile appendix-B-reconciled (0.5%/yr fixed O&M) closes the gap"
)
RECONCILED_NOTE = (
    "the 0.5%/yr fixed O&M charge of this profile is a reconciliation "
    "hypothesis, not a published input"
)


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, OSError) as exc:
            raise click.UsageError(str(exc)) from None
        except ArithmeticError as exc:
            raise click.UsageError(
                f"{_failed_step(exc)}: cannot compute with these inputs "
                f"({type(exc).__name__}: {exc})"
            ) from None

    return wrapper


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


@click.group()
def main() -> None:
    """Techno-economic analysis of long-distance HVDC interconnections."""


def report_command(name: str):
    """Register the decorated function, which returns a Report, as subcommand ``name``.

    The subcommand takes the function's options plus ``--format``, maps input
    errors to exit 2 and prints the report in the chosen format.
    """

    def register(fn):
        run = guarded(fn)

        # wraps copies fn's help text and click options (__click_params__);
        # --format goes onto the finished command, so it is listed after them.
        @functools.wraps(fn)
        def callback(fmt: str, **options) -> None:
            _emit(run(**options), fmt)

        command = main.command(name)(callback)
        command.params.append(
            click.Option(["--format", "fmt"], default="table", type=FORMAT_CHOICE, show_default=True)
        )
        return command

    return register


def _emit(report: Report, fmt: str) -> None:
    for row in report.rows:
        for column, value in zip(report.columns, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise click.UsageError(
                    f"report row {row[0]!r}, column {column!r}: {value} is not a finite "
                    "number; the inputs are too large to compute with"
                )
    click.echo(render(report, fmt), nl=False)


def _apply_profile(
    contents, profile_name: str
) -> tuple[ConnectionScenario, FinancialAssumptions, str]:
    scenario = contents.require("scenario")
    if profile_name == "custom":
        return scenario, contents.require("finance"), "custom"
    profile = get_profile(profile_name)
    return profile.apply_to_scenario(scenario), profile.finance(), profile.name


def _reference(key):
    """The published value (or band) of ``key`` in the reference table, or None."""
    return datasets.REFERENCES.get(key, (None,))[0]


def _case_study_rows(rows, scenario_spec: str) -> tuple:
    """``rows`` as they are for the bundled ``greenland`` case study, the one the
    references were published for; any other scenario gets empty reference cells."""
    if scenario_spec == "greenland":
        return tuple(rows)
    return tuple((metric, value, None) for metric, value, _ in rows)


def _scenario_notes(fin: FinancialAssumptions, profile_name: str) -> tuple[str, ...]:
    if fin.om_rate == 0:
        return (OM_GAP_NOTE,)
    if profile_name == "appendix-B-reconciled":
        return (RECONCILED_NOTE,)
    return ()


@report_command("lcoe")
@click.option("--profile", default="paper-appendix-A", type=PROFILE_CHOICE, show_default=True)
@click.option("--case", default="all", type=click.Choice([*CASES, "all"]), show_default=True)
@click.option("--length-km", default=5500.0, show_default=True)
@click.option("--capacity-mw", default=3000.0, show_default=True)
def lcoe_cmd(profile: str, case: str, length_km: float, capacity_mw: float) -> Report:
    """Levelized cost per delivered kWh of a long point-to-point cable."""
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
        reference = _reference(("link_lcoe", length_km, capacity_mw, c))
        rows.append(
            (c, length_km, capacity_mw, link_capex(link), delivered, value, reference)
        )
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


@report_command("project-table")
@click.option("--converter-cost", default=150.0, show_default=True, help="Assumed cost of one converter terminal, MEUR.")
@click.option("--projects-csv", default=None, help="Project records CSV (default: bundled dataset).")
def project_table_cmd(converter_cost: float, projects_csv: str | None) -> Report:
    """Implied cable cost per km of the benchmark submarine projects."""
    records = (
        load_project_records(projects_csv)
        if projects_csv
        else datasets.load_bundled_projects()
    )
    rows = []
    for record in records:
        band = implied_cable_cost_per_km(record, converter_cost)
        low, high = band.rounded(2)
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


@report_command("scenario")
@click.option("--scenario", "scenario_spec", default="greenland", show_default=True, help="Bundled scenario name or path to a scenario file.")
@click.option("--profile", default="appendix-B-reconciled", type=SCENARIO_PROFILE_CHOICE, show_default=True)
@click.option("--case", default="low", type=click.Choice(CASES), show_default=True)
@click.option("--connection", default="dual", type=click.Choice(["single", "dual"]), show_default=True)
def scenario_cmd(scenario_spec: str, profile: str, case: str, connection: str) -> Report:
    """Deliveries, transmission LCOE, and revenue uplift of a connection scenario."""
    contents = datasets.resolve_scenario(scenario_spec, case)
    scenario, fin, profile_name = _apply_profile(contents, profile)
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
        reference = _reference(("delivered_gwh", connection, path.market))
        rows.append((f"delivered_{path.market}_gwh_per_yr", delivered, reference))
    reference = _reference(("scenario_lcoe", connection, case))
    rows.append(("total_capex_meur", result.total_capex_meur, None))
    rows.append(("transmission_lcoe_eur_per_kwh", result.scenario_lcoe_eur_per_kwh, reference))
    if connection == "dual":
        uplift = revenue(connected, prices).uplift
        rows.append(("revenue_uplift_pct", uplift * 100.0, _reference("revenue_uplift") * 100.0))
        increase = delivered_cost_increase(gen_lcoe, single_result, result)
        band = "-".join(f"{bound * 100:g}" for bound in _reference("cost_increase"))
        rows.append(("cost_increase_vs_single_pct", increase * 100.0, band))
    return Report(
        title=f"Connection scenario ({connection}, {case}-cost case)",
        profile=profile_name,
        columns=("metric", "value", "reference"),
        rows=_case_study_rows(rows, scenario_spec),
        notes=_scenario_notes(fin, profile_name),
    )


@report_command("trade")
@click.option("--scenario", "scenario_spec", default="greenland", show_default=True)
@click.option("--profile", default="appendix-B-reconciled", type=SCENARIO_PROFILE_CHOICE, show_default=True)
@click.option("--case", default="low", type=click.Choice(CASES), show_default=True)
def trade_cmd(scenario_spec: str, profile: str, case: str) -> Report:
    """Residual trade capacity of a dual connection and the trade-inclusive LCOE."""
    contents = datasets.resolve_scenario(scenario_spec, case)
    scenario, fin, profile_name = _apply_profile(contents, profile)
    trade = trade_potential(scenario)
    corridor = deliverable_energy(scenario.paths[0].link)
    rows = (
        ("wind_delivered_gwh_per_yr", trade.wind_delivered_gwh, None),
        ("trade_delivered_gwh_per_yr", trade.trade_delivered_gwh, _reference("trade_delivered_gwh")),
        ("total_delivered_gwh_per_yr", trade.total_delivered_gwh, _reference("total_delivered_gwh")),
        ("lcoe_with_trade_eur_per_kwh", trade_inclusive_lcoe(scenario, fin), _reference(("trade_lcoe", case))),
        (
            f"full_capacity_deliverable_{scenario.paths[0].market}_gwh_per_yr",
            corridor,
            _reference("corridor_deliverable_gwh"),
        ),
    )
    return Report(
        title=f"Inter-market trade over the dual connection ({case}-cost case)",
        profile=profile_name,
        columns=("metric", "value", "reference"),
        rows=_case_study_rows(rows, scenario_spec),
        notes=_scenario_notes(fin, profile_name),
    )


@report_command("norned")
@click.option("--revenue-meur", default=50.0, show_default=True, help="Observed revenue over the period.")
@click.option("--days", default=datasets.NORNED_PERIOD_DAYS, show_default=True)
@click.option("--profile", default="norned", type=PROFILE_CHOICE, show_default=True)
def norned_cmd(revenue_meur: float, days: int, profile: str) -> Report:
    """Revenue per delivered kWh of the NorNed interconnector's first months."""
    prof = get_profile(profile)
    link = prof.apply_to_link(datasets.norned_link())
    hours = days * 24.0
    value = revenue_per_delivered_kwh(revenue_meur * 1e6, link, hours)
    sensitivity_hours = datasets.NORNED_PERIOD_DAYS_SENSITIVITY * 24.0
    sensitivity = revenue_per_delivered_kwh(revenue_meur * 1e6, link, sensitivity_hours)
    reference = _reference("norned_revenue_per_kwh") if days == datasets.NORNED_PERIOD_DAYS else None
    rows = (
        ("revenue_meur", revenue_meur, None),
        ("period_days", days, None),
        ("delivered_gwh", delivered_over_period_kwh(link, hours) / 1e6, None),
        ("revenue_per_delivered_kwh_eur", value, reference),
        (f"revenue_per_delivered_kwh_eur_{datasets.NORNED_PERIOD_DAYS_SENSITIVITY}day", sensitivity, None),
    )
    return Report(
        title="Interconnector revenue per delivered kWh",
        profile=prof.name,
        columns=("metric", "value", "reference"),
        rows=rows,
    )


@report_command("compare-import")
def compare_import_cmd() -> Report:
    """Point comparison of importing remote renewable power vs local fossil cost."""
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


@main.command("simulate")
@click.option("--scenario", "scenario_spec", default="smoothing", show_default=True, help="Bundled scenario name or path to a scenario file with a network section.")
@click.option("--hours", default=24, show_default=True)
@guarded
def simulate_cmd(scenario_spec: str, hours: int) -> None:
    """Hourly dispatch simulation; emits CSV rows per hour and region."""
    contents = datasets.resolve_scenario(scenario_spec)
    network = contents.require("network")
    result = simulate(network, hours)
    click.echo(export_csv(result), nl=False)


@report_command("normalize")
@click.option("--value", required=True, type=float)
@click.option("--currency", required=True, type=click.Choice([c.value for c in Currency]))
@click.option("--price-year", required=True, type=int)
@click.option("--target-currency", required=True, type=click.Choice([c.value for c in Currency]))
@click.option("--target-year", required=True, type=int)
@click.option("--fx", required=True, type=float, help="Target-currency units per source unit.")
@click.option("--inflation", default=0.0, show_default=True, help="Fraction per year in the target currency.")
def normalize_cmd(
    value: float,
    currency: str,
    price_year: int,
    target_currency: str,
    target_year: int,
    fx: float,
    inflation: float,
) -> Report:
    """Convert a monetary amount across currencies and price years."""
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


if __name__ == "__main__":
    sys.exit(main())
