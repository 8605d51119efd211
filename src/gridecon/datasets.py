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
    utilization: UtilizationModel = UTILIZATION_REDUCED_TO_ZERO,
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
        utilization=utilization,
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


# Published reference values the computations are benchmarked against.
REFERENCE_LINK_LCOE_EUR_PER_KWH = {
    (5500.0, "low"): 0.0166,
    (5500.0, "high"): 0.0251,
    (4400.0, "low"): 0.013,
}
REFERENCE_SCENARIO_LCOE_EUR_PER_KWH = {
    ("single", "low"): 0.014,
    ("single", "high"): 0.019,
    ("dual", "low"): 0.029,
    ("dual", "high"): 0.038,
}
REFERENCE_DELIVERED_GWH = {"north-uk": 4822.0, "quebec": 4637.0}
REFERENCE_REVENUE_UPLIFT = 0.31
REFERENCE_COST_INCREASE_BAND = (0.21, 0.25)
REFERENCE_TRADE_DELIVERED_GWH = 10095.0
REFERENCE_TOTAL_DELIVERED_GWH = 19554.0
REFERENCE_TRADE_LCOE_BAND_EUR_PER_KWH = (0.014, 0.0185)
REFERENCE_CORRIDOR_DELIVERABLE_GWH = 20000.0
REFERENCE_NORNED_REVENUE_PER_KWH = 0.0556
NORNED_PERIOD_DAYS = 61  # first two months of operation
NORNED_PERIOD_DAYS_SENSITIVITY = 60

# Import-competitiveness point comparison, all USD/kWh.
IMPORT_COMPARISON_USD_PER_KWH = {
    "remote_gen_low": 0.04,
    "remote_gen_high": 0.13,
    "local_fossil": 0.08,
    "local_fossil_with_social": 0.14,
    "link_low": 0.023,
    "link_high": 0.035,
}

# Exchange rate at which the import comparison's link costs were converted.
FX_USD_TO_EUR_2011 = 0.7119
