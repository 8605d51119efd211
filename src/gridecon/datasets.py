"""Bundled case-study data.

Ships everything needed to rerun the reference calculations without user
input: the benchmark project table, the two cost cases for submarine
cable (for a long point-to-point link and for the cable segments of the
bundled scenarios), the dual-path wind-connection scenario (Greenland to
North UK and to Quebec City), the NorNed-style interconnector, and a
two-region dispatch demo. Published reference values are collected here so
reports can print them next to computed ones.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .projects import ProjectRecord, load_project_records
from .scenario_file import ScenarioFileContents, load_scenario_file, parse_scenario_data
from .transmission import (
    LossModel,
    Segment,
    SegmentKind,
    TransmissionLink,
    UtilizationModel,
)

CABLE_COST_CASES_MEUR_PER_KM = {"low": 1.15, "high": 1.8}
TERMINAL_COST_MEUR = 300.0

# Interconnector duty presets: the ramping constraint interval halves (or
# zeroes) capacity for four hours a day around flow reversals.
UTILIZATION_REDUCED_TO_ZERO = UtilizationModel(reduced_hours=4, reduced_fraction=0.0)
UTILIZATION_REDUCED_TO_HALF = UtilizationModel(reduced_hours=4, reduced_fraction=0.5)


def _cable_unit_cost(case: str) -> float:
    """Submarine cable cost per km, MEUR, of a cost case."""
    try:
        return CABLE_COST_CASES_MEUR_PER_KM[case]
    except KeyError:
        raise ValueError(
            f"unknown cost case {case!r}; expected one of "
            f"{', '.join(CABLE_COST_CASES_MEUR_PER_KM)}"
        ) from None


def long_submarine_link(
    length_km: float = 5500.0,
    case: str = "low",
    capacity_mw: float = 3000.0,
) -> TransmissionLink:
    """Point-to-point submarine cable with two converter terminals."""
    return TransmissionLink(
        segments=(
            Segment(
                kind=SegmentKind.SUBMARINE_CABLE,
                length_km=length_km,
                unit_cost_meur_per_km=_cable_unit_cost(case),
            ),
        ),
        terminal_count=2,
        terminal_unit_cost_meur=TERMINAL_COST_MEUR,
        capacity_mw=capacity_mw,
        availability=0.99,
        loss_model=LossModel(),
        utilization=UTILIZATION_REDUCED_TO_ZERO,
    )


def norned_link() -> TransmissionLink:
    """The Norway-Netherlands interconnector: 700 MW over a 580 km cable."""
    return TransmissionLink(
        segments=(
            Segment(
                kind=SegmentKind.SUBMARINE_CABLE,
                length_km=580.0,
                unit_cost_meur_per_km=0.52,
            ),
        ),
        terminal_count=2,
        terminal_unit_cost_meur=150.0,
        capacity_mw=700.0,
        availability=0.99,
        loss_model=LossModel(),
        utilization=UTILIZATION_REDUCED_TO_HALF,
    )


def bundled_path(name: str) -> Path:
    return Path(str(resources.files("gridecon").joinpath("data", name)))


def load_bundled_projects() -> list[ProjectRecord]:
    return load_project_records(bundled_path("hvdc_projects.csv"))


BUNDLED_SCENARIOS = {
    "greenland": "greenland_low.json",
    "smoothing": "smoothing_demo.json",
}


def load_bundled_scenario(name: str, case: str = "low") -> ScenarioFileContents:
    """A bundled scenario, every submarine cable segment priced at the cost ``case``."""
    try:
        filename = BUNDLED_SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown bundled scenario {name!r}; expected one of "
            f"{', '.join(BUNDLED_SCENARIOS)}"
        ) from None
    unit_cost = _cable_unit_cost(case)
    raw = json.loads(bundled_path(filename).read_text(encoding="utf-8"))
    for link in raw.get("links", {}).values():
        for segment in link["segments"]:
            if segment["kind"] == "submarine_cable":
                segment["unit_cost_meur_per_km"] = unit_cost
    return parse_scenario_data(raw)


def resolve_scenario(spec: str, case: str = "low") -> ScenarioFileContents:
    """A bundled scenario name at a cost ``case``, or a path to a scenario file.

    A file keeps its own cable costs, so it takes only the low case.
    """
    if spec in BUNDLED_SCENARIOS:
        return load_bundled_scenario(spec, case)
    if not Path(spec).is_file():
        raise ValueError(
            f"unknown scenario {spec!r}; expected a file path or one of "
            f"{', '.join(BUNDLED_SCENARIOS)}"
        )
    if case != "low":
        raise ValueError("case: only applies to the bundled scenario names")
    return load_scenario_file(spec)


def _relative(value: float, tolerance: float) -> tuple:
    return value, (value * (1 - tolerance), value * (1 + tolerance))


# Published reference values: key -> (value, (low, high)), where the
# acceptance suite accepts a computed value in [low, high] (see
# within_reference). link_lcoe is keyed on length (km), capacity (MW) and
# cost case. LCOEs are EUR/kWh, link_lcoe_usd USD/kWh at
# FX_USD_TO_EUR_2011, energies GWh/yr.
REFERENCES = {
    ("link_lcoe", 5500.0, 3000.0, "low"): _relative(0.0166, 0.02),
    ("link_lcoe", 5500.0, 3000.0, "high"): _relative(0.0251, 0.02),
    ("link_lcoe", 4400.0, 3000.0, "low"): _relative(0.013, 0.02),
    ("link_lcoe_usd", "low"): _relative(0.023, 0.02),
    ("link_lcoe_usd", "high"): _relative(0.035, 0.02),
    ("scenario_lcoe", "single", "low"): _relative(0.014, 0.05),
    ("scenario_lcoe", "single", "high"): _relative(0.019, 0.05),
    ("scenario_lcoe", "dual", "low"): _relative(0.029, 0.05),
    ("scenario_lcoe", "dual", "high"): _relative(0.038, 0.05),
    # no value: (computed - value) / value of the four scenario LCOEs at zero O&M
    "scenario_lcoe_zero_om_gap": (None, (-0.13, 0.0)),
    ("delivered_gwh", "dual", "north-uk"): _relative(4822.0, 0.005),
    ("delivered_gwh", "dual", "quebec"): _relative(4637.0, 0.005),
    "revenue_uplift": (0.31, (0.30, 0.32)),  # one percentage point either side
    # published in whole percent: accepts what rounds into the band
    "cost_increase": ((0.21, 0.25), (0.205, 0.255)),
    "trade_delivered_gwh": _relative(10095.0, 0.10),
    "total_delivered_gwh": _relative(19554.0, 0.05),
    ("trade_lcoe", "low"): _relative(0.014, 0.05),  # the published band, one end per cost case
    ("trade_lcoe", "high"): _relative(0.0185, 0.05),
    "corridor_deliverable_gwh": _relative(20000.0, 0.05),
    "norned_revenue_per_kwh": _relative(0.0556, 0.02),  # EUR, over the first NORNED_PERIOD_DAYS
}


def within_reference(key, computed: float) -> bool:
    """Whether ``computed`` lies in the interval the reference ``key`` accepts."""
    low, high = REFERENCES[key][1]
    return low <= computed <= high


NORNED_PERIOD_DAYS = 61  # first two months of operation
NORNED_PERIOD_DAYS_SENSITIVITY = 60

# Import-competitiveness point comparison, all USD/kWh.
IMPORT_COMPARISON_USD_PER_KWH = {
    "remote_gen_low": 0.04,
    "remote_gen_high": 0.13,
    "local_fossil": 0.08,
    "local_fossil_with_social": 0.14,
    "link_low": REFERENCES[("link_lcoe_usd", "low")][0],
    "link_high": REFERENCES[("link_lcoe_usd", "high")][0],
}

# Exchange rate at which the import comparison's link costs were converted.
FX_USD_TO_EUR_2011 = 0.7119
