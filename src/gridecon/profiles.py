"""Calibration profiles pinning the parameter sets behind each bundled case study.

The published reference calculations are mutually inconsistent under any
single parameterization, so each reproduction names the profile it was run
with and reports carry that name as provenance:

* ``paper-appendix-A``: zero O&M, ramping duty cycle 4 h/day at zero output
  (utilization 5/6), linear losses. Reproduces the long-cable per-kWh costs
  within 2%.
* ``appendix-B-reconciled``: as above plus a 0.5%/yr fixed O&M charge, which
  closes the otherwise systematic 7-13% gap in the dual-connection case
  study costs. The O&M rate is a reconciliation hypothesis, not a published
  input.
* ``norned``: zero O&M, ramping duty cycle 4 h/day at 50% output
  (utilization 11/12). Reproduces the published interconnector revenue per
  delivered kWh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .checks import lookup
from .finance import FinancialAssumptions
from .transmission import LossComposition, TransmissionLink, UtilizationModel

if TYPE_CHECKING:  # lcoe applies profiles to links only, without the scenario module
    from .scenario import ConnectionScenario

# Shared by every profile.
DISCOUNT_RATE = 0.03
LIFETIME_YEARS = 40
LOSS_COMPOSITION = LossComposition.LINEAR


@dataclass(frozen=True)
class CalibrationProfile:
    name: str
    om_rate: float = 0.0
    utilization: UtilizationModel = UtilizationModel(reduced_hours=4, reduced_fraction=0.0)

    def finance(self) -> FinancialAssumptions:
        return FinancialAssumptions(
            discount_rate=DISCOUNT_RATE,
            lifetime_years=LIFETIME_YEARS,
            om_rate=self.om_rate,
        )

    def apply_to_link(self, link: TransmissionLink) -> TransmissionLink:
        loss_model = replace(link.loss_model, composition=LOSS_COMPOSITION)
        return replace(link, loss_model=loss_model, utilization=self.utilization)

    def apply_to_scenario(self, scenario: ConnectionScenario) -> ConnectionScenario:
        paths = tuple(
            replace(path, link=self.apply_to_link(path.link)) for path in scenario.paths
        )
        return replace(scenario, paths=paths)


PROFILES: dict[str, CalibrationProfile] = {
    "paper-appendix-A": CalibrationProfile(name="paper-appendix-A"),
    "appendix-B-reconciled": CalibrationProfile(name="appendix-B-reconciled", om_rate=0.005),
    "norned": CalibrationProfile(
        name="norned",
        utilization=UtilizationModel(reduced_hours=4, reduced_fraction=0.5),
    ),
}


def get_profile(name: str) -> CalibrationProfile:
    return lookup(PROFILES, name, "profile")
