"""Declarative scenario files (JSON) and their strict schema.

A file may carry any subset of the sections ``finance``, ``links``,
``generation``, ``prices``, ``scenario``, and ``network``; each subcommand
checks that the sections it needs are present. Unknown keys are rejected
everywhere so a typo cannot silently fall back to a default, and so is a
key repeated within one object, whose last copy would otherwise win.

Every value goes through one typed reader (number, string, enum choice,
list, object), which only parses: it checks the value's JSON type and
converts it. A key the file omits is not passed on, so its default is the
one the dataclass declares. Every rule on a value (finite, in range, a
whole number) is the dataclass's; its message is prefixed with the path of
the object that failed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .finance import FinancialAssumptions
from .scenario import ConnectionPath, ConnectionScenario, GenerationSource, PriceModel
from .transmission import (
    LossComposition,
    LossModel,
    Segment,
    SegmentKind,
    TransmissionLink,
    UtilizationModel,
)

# dispatch is imported by the readers of the network section, so that a file
# without one, and every report, does without it.
if TYPE_CHECKING:
    from .dispatch import DispatchNetwork, Interconnector, Region


class ScenarioFileError(ValueError):
    """A schema violation, naming the offending key or value.

    Each level of the file it leaves prepends its key or index to the key
    path, which is only assembled into text when the error is reported, so
    reading a valid file builds no path strings.
    """

    def __init__(self, message: str, *path: str | int):
        super().__init__(message)
        self.path = list(path)

    @staticmethod
    def at(key: str | int, exc: Exception) -> ScenarioFileError:
        """``exc`` with ``key`` prepended to its path, as a ``ScenarioFileError``."""
        if isinstance(exc, ArithmeticError):
            return ScenarioFileError(f"cannot compute with these values ({exc!r})", key)
        if not isinstance(exc, ScenarioFileError):
            return ScenarioFileError(str(exc), key)
        exc.path.insert(0, key)
        return exc

    def __str__(self) -> str:
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in self.path)
        return f"{where[1:]}: {self.args[0]}" if where else self.args[0]


# What reading one key or list item may raise: a schema violation below it
# (a ScenarioFileError is a ValueError), or a dataclass rejecting (or
# overflowing on) the object read there.
_REJECTIONS = (ValueError, ArithmeticError)


@dataclass(frozen=True)
class ScenarioFileContents:
    finance: FinancialAssumptions | None
    links: dict[str, TransmissionLink]
    generation: GenerationSource | None
    prices: PriceModel | None
    scenario: ConnectionScenario | None
    network: DispatchNetwork | None

    def require(self, section: str):
        value = getattr(self, section)
        if value is None:
            raise ScenarioFileError("missing", section)
        return value


def load_scenario_file(path: str | Path) -> ScenarioFileContents:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"invalid JSON: {exc}") from None
    return parse_scenario_data(raw)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, rejecting a repeated key instead of keeping its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ScenarioFileError(f"repeated key {repeated!r}")
    return obj


def parse_scenario_data(raw: dict) -> ScenarioFileContents:
    sections = _fields(raw, _SECTIONS)
    links = sections.get("links", {})
    generation = sections.get("generation")
    scenario = sections.get("scenario")
    if scenario is not None:
        if generation is None:
            raise ScenarioFileError("requires a generation section", "scenario")
        try:
            scenario = _scenario(scenario, links, generation)
        except _REJECTIONS as exc:
            raise ScenarioFileError.at("scenario", exc) from None
    return ScenarioFileContents(
        finance=sections.get("finance"),
        links=links,
        generation=generation,
        prices=sections.get("prices"),
        scenario=scenario,
        network=sections.get("network"),
    )


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFileError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _integral(value) -> int | float:
    """A number for a whole-number field: an integral float as an int, any
    other number as it is, for the dataclass to judge."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    _number(value)
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise ScenarioFileError(f"expected a string, got {value!r}")
    return value


def _choice(enum):
    members = {member.value: member for member in enum}

    def read(value):
        member = members.get(value) if isinstance(value, str) else None
        if member is None:
            raise ScenarioFileError(f"{value!r} is not one of {', '.join(members)}")
        return member

    return read


def _list(read_item):
    def read(value) -> tuple:
        if not isinstance(value, list):
            raise ScenarioFileError(f"expected a list, got {value!r}")
        items = []
        for index, item in enumerate(value):
            try:
                items.append(read_item(item))
            except _REJECTIONS as exc:
                raise ScenarioFileError.at(index, exc) from None
        return tuple(items)

    return read


def _fields(obj, readers: dict, required: tuple[str, ...] = ()) -> dict:
    """Read each key of ``obj`` with its reader; omitted optional keys stay out."""
    if not isinstance(obj, dict):
        raise ScenarioFileError(f"expected an object, got {obj!r}")
    for key in required:
        if key not in obj:
            raise ScenarioFileError("missing", key)
    values = {}
    for key, value in obj.items():
        read = readers.get(key)
        if read is None:
            raise ScenarioFileError(f"unknown key {key!r}")
        try:
            values[key] = read(value)
        except _REJECTIONS as exc:
            raise ScenarioFileError.at(key, exc) from None
    return values


def _record(cls, readers: dict, required: tuple[str, ...] = ()):
    return lambda value: cls(**_fields(value, readers, required))


def _terminals(value) -> dict:
    readers = {"count": _integral, "unit_cost_meur": _number}
    terminals = _fields(value, readers, tuple(readers))
    return {
        "terminal_count": terminals["count"],
        "terminal_unit_cost_meur": terminals["unit_cost_meur"],
    }


_LINK = {
    "segments": _list(
        _record(
            Segment,
            {"kind": _choice(SegmentKind), "length_km": _number, "unit_cost_meur_per_km": _number},
            ("kind", "length_km", "unit_cost_meur_per_km"),
        )
    ),
    "terminals": _terminals,
    "capacity_mw": _number,
    "availability": _number,
    "loss_model": _record(
        LossModel,
        {
            "line_loss_per_1000km": _number,
            "terminal_loss": _number,
            "composition": _choice(LossComposition),
        },
    ),
    "utilization": _record(
        UtilizationModel, {"reduced_hours": _number, "reduced_fraction": _number}
    ),
}


def _link(value) -> TransmissionLink:
    link = _fields(value, _LINK, ("segments", "terminals", "capacity_mw"))
    link.update(link.pop("terminals"))
    return TransmissionLink(**link)


def _links(value) -> dict[str, TransmissionLink]:
    # Every key of the section names a link, so every key is read as one.
    names = value if isinstance(value, dict) else {}
    return _fields(value, dict.fromkeys(names, _link))


def _scenario(
    value, links: dict[str, TransmissionLink], generation: GenerationSource
) -> ConnectionScenario:
    def link(name) -> TransmissionLink:
        if _text(name) not in links:
            raise ScenarioFileError(f"unknown link {name!r}")
        return links[name]

    path = _record(
        ConnectionPath,
        {"link": link, "market": _text, "tz_offset_hours": _integral},
        ("link", "market"),
    )
    paths = _fields(value, {"paths": _list(path)}, ("paths",))
    return ConnectionScenario(source=generation, **paths)


_GENERATOR = {"capacity_mw": _number, "marginal_cost_eur_per_mwh": _number}


def _generator(value) -> tuple[float, float]:
    generator = _fields(value, _GENERATOR, tuple(_GENERATOR))
    return generator["capacity_mw"], generator["marginal_cost_eur_per_mwh"]


_REGION = {
    "name": _text,
    "tz_offset_hours": _integral,
    "demand_profile_mw": _list(_number),
    "demand_peak_mw": _number,
    "generators": _list(_generator),
}


def _region(value) -> Region:
    from .dispatch import Region, sinusoid_profile

    region = _fields(value, _REGION, ("name", "generators"))
    peak = region.pop("demand_peak_mw", None)
    if "demand_profile_mw" not in region:
        if peak is None:
            raise ScenarioFileError("needs demand_profile_mw or demand_peak_mw")
        region["demand_profile_mw"] = sinusoid_profile(peak)
    elif peak is not None:
        raise ScenarioFileError("takes demand_profile_mw or demand_peak_mw, not both")
    return Region(**region)


def _interconnector(value) -> Interconnector:
    from .dispatch import Interconnector

    readers = {"from": _text, "to": _text, "capacity_mw": _number, "efficiency": _number}
    ic = _fields(value, readers, ("from", "to", "capacity_mw"))
    return Interconnector(region_a=ic.pop("from"), region_b=ic.pop("to"), **ic)


_NETWORK = {
    "regions": _list(_region),
    "interconnectors": _list(_interconnector),
    "unserved_penalty_eur_per_mwh": _number,
}


def _network(value) -> DispatchNetwork:
    from .dispatch import DispatchNetwork

    return DispatchNetwork(**_fields(value, _NETWORK, ("regions",)))


_SECTIONS = {
    "finance": _record(
        FinancialAssumptions,
        {"discount_rate": _number, "lifetime_years": _integral, "om_rate": _number},
        ("discount_rate", "lifetime_years"),
    ),
    "links": _links,
    "generation": _record(
        GenerationSource,
        {"capacity_mw": _number, "capacity_factor": _number, "lcoe_eur_per_kwh": _number},
        ("capacity_mw", "capacity_factor"),
    ),
    "prices": _record(
        PriceModel,
        {"peak_eur_per_kwh": _number, "offpeak_ratio": _number, "peak_window_hours": _number},
        ("peak_eur_per_kwh",),
    ),
    # Read after the other sections: its paths name links.
    "scenario": lambda value: value,
    "network": _network,
}
