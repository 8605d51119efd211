import copy
import functools
import json
import math
import operator
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_runner import invoke
from gridecon.datasets import bundled_path, load_bundled_scenario
from gridecon.dispatch import DEFAULT_UNSERVED_PENALTY
from gridecon.finance import FinancialAssumptions
from gridecon.scenario import PriceModel
from gridecon.scenario_file import (
    ScenarioFileError,
    load_scenario_file,
    parse_scenario_data,
)
from gridecon.transmission import LossComposition, LossModel, UtilizationModel


def minimal_scenario_data() -> dict:
    link = {
        "segments": [
            {"kind": "submarine_cable", "length_km": 500, "unit_cost_meur_per_km": 1.0}
        ],
        "terminals": {"count": 2, "unit_cost_meur": 100},
        "capacity_mw": 1000,
        "availability": 0.99,
        "loss_model": {"composition": "linear"},
        "utilization": {"reduced_hours": 4, "reduced_fraction": 0.5},
    }
    return {
        "finance": {"discount_rate": 0.03, "lifetime_years": 40, "om_rate": 0.0},
        "links": {"main": link},
        "generation": {"capacity_mw": 500, "capacity_factor": 0.4, "lcoe_eur_per_kwh": 0.05},
        "prices": {"peak_eur_per_kwh": 0.1, "offpeak_ratio": 0.5, "peak_window_hours": 12},
        "scenario": {"paths": [{"link": "main", "market": "home", "tz_offset_hours": 0}]},
    }


def test_bundled_greenland_parses():
    contents = load_bundled_scenario("greenland")
    assert set(contents.links) == {"to-north-uk", "to-quebec"}
    assert [p.market for p in contents.scenario.paths] == ["north-uk", "quebec"]
    assert contents.finance.om_rate == 0.005
    assert contents.links["to-north-uk"].total_length_km == pytest.approx(2066.0)
    assert contents.links["to-quebec"].total_length_km == pytest.approx(3269.0)
    assert contents.links["to-north-uk"].loss_model.composition is LossComposition.LINEAR


def test_minimal_scenario_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_scenario_data()))
    contents = load_scenario_file(path)
    assert contents.scenario.source.capacity_mw == 500
    assert contents.prices.peak_eur_per_kwh == 0.1


def test_unknown_top_level_key_rejected():
    data = minimal_scenario_data()
    data["colour"] = "blue"
    with pytest.raises(ScenarioFileError, match="'colour'"):
        parse_scenario_data(data)


def test_unknown_link_key_rejected():
    data = minimal_scenario_data()
    data["links"]["main"]["voltage"] = 500
    with pytest.raises(ScenarioFileError, match="links.main.*'voltage'"):
        parse_scenario_data(data)


def test_unknown_segment_kind_rejected():
    data = minimal_scenario_data()
    data["links"]["main"]["segments"][0]["kind"] = "tunnel"
    with pytest.raises(ScenarioFileError, match="tunnel"):
        parse_scenario_data(data)


def test_empty_paths_rejected():
    data = minimal_scenario_data()
    data["scenario"]["paths"] = []
    with pytest.raises(ScenarioFileError, match=r"^scenario: len\(paths\) must be 1 or 2, got 0$"):
        parse_scenario_data(data)


def test_unresolved_link_name_rejected():
    data = minimal_scenario_data()
    data["scenario"]["paths"][0]["link"] = "missing"
    with pytest.raises(ScenarioFileError, match="'missing'"):
        parse_scenario_data(data)


def test_missing_required_key_rejected():
    data = minimal_scenario_data()
    del data["links"]["main"]["capacity_mw"]
    with pytest.raises(ScenarioFileError, match="capacity_mw"):
        parse_scenario_data(data)


def test_non_numeric_value_rejected():
    data = minimal_scenario_data()
    data["finance"]["discount_rate"] = "three percent"
    with pytest.raises(ScenarioFileError, match="discount_rate"):
        parse_scenario_data(data)


def test_scenario_requires_generation_section():
    data = minimal_scenario_data()
    del data["generation"]
    with pytest.raises(ScenarioFileError, match="generation"):
        parse_scenario_data(data)


def test_require_names_missing_section():
    contents = parse_scenario_data(minimal_scenario_data())
    with pytest.raises(ScenarioFileError, match="network: missing"):
        contents.require("network")


def test_network_section_parses():
    contents = load_bundled_scenario("smoothing")
    network = contents.require("network")
    assert [r.name for r in network.regions] == ["windland", "peakland"]
    assert network.interconnectors[0].efficiency == 0.94
    assert len(network.regions[0].demand_profile_mw) == 24


def test_network_profile_needs_24_values():
    data = {
        "network": {
            "regions": [
                {
                    "name": "a",
                    "tz_offset_hours": 0,
                    "demand_profile_mw": [1.0, 2.0],
                    "generators": [{"capacity_mw": 1, "marginal_cost_eur_per_mwh": 1}],
                }
            ],
            "interconnectors": [],
        }
    }
    with pytest.raises(ScenarioFileError, match="24"):
        parse_scenario_data(data)


def test_network_unknown_region_reference():
    data = {
        "network": {
            "regions": [
                {
                    "name": "a",
                    "tz_offset_hours": 0,
                    "demand_peak_mw": 10,
                    "generators": [{"capacity_mw": 1, "marginal_cost_eur_per_mwh": 1}],
                }
            ],
            "interconnectors": [
                {"from": "a", "to": "nowhere", "capacity_mw": 5, "efficiency": 1.0}
            ],
        }
    }
    with pytest.raises(ScenarioFileError, match="'nowhere'"):
        parse_scenario_data(data)


def test_region_takes_one_demand_key():
    region = {
        "name": "a",
        "demand_profile_mw": [1.0] * 24,
        "demand_peak_mw": 10,
        "generators": [{"capacity_mw": 1, "marginal_cost_eur_per_mwh": 1}],
    }
    data = {"network": {"regions": [region]}}
    message = "network.regions[0]: takes demand_profile_mw or demand_peak_mw, not both"
    with pytest.raises(ScenarioFileError, match="^" + re.escape(message) + "$"):
        parse_scenario_data(data)


def test_network_without_regions_rejected():
    data = {"network": {"regions": []}}
    with pytest.raises(ScenarioFileError, match=r"^network: len\(regions\) must be >= 1, got 0$"):
        parse_scenario_data(data)


def test_repeated_key_rejected(tmp_path):
    path = tmp_path / "repeated.json"
    path.write_text('{"finance": {"discount_rate": 0.03, "lifetime_years": 40, "discount_rate": 0.1}}')
    with pytest.raises(ScenarioFileError, match="^repeated key 'discount_rate'$"):
        load_scenario_file(path)


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioFileError, match="invalid JSON"):
        load_scenario_file(path)


def test_omitted_optional_keys_take_dataclass_defaults():
    data = minimal_scenario_data()
    for key in ("availability", "loss_model", "utilization"):
        del data["links"]["main"][key]
    del data["finance"]["om_rate"]
    data["prices"] = {"peak_eur_per_kwh": 0.1}
    data["scenario"] = {"paths": [{"link": "main", "market": "home"}]}
    data["network"] = {
        "regions": [
            {"name": "a", "demand_peak_mw": 10, "generators": []},
        ]
    }
    contents = parse_scenario_data(data)
    link = contents.links["main"]
    assert link.availability == 0.99
    assert link.loss_model == LossModel()
    assert link.utilization == UtilizationModel()
    assert contents.finance == FinancialAssumptions(discount_rate=0.03, lifetime_years=40)
    assert contents.prices == PriceModel(peak_eur_per_kwh=0.1)
    assert contents.scenario.paths[0].tz_offset_hours == 0
    network = contents.network
    assert network.regions[0].tz_offset_hours == 0
    assert network.interconnectors == ()
    assert network.unserved_penalty_eur_per_mwh == DEFAULT_UNSERVED_PENALTY


def test_whole_float_accepted_as_integer():
    data = minimal_scenario_data()
    data["finance"]["lifetime_years"] = 40.0
    assert parse_scenario_data(data).finance.lifetime_years == 40


GREENLAND = "greenland_low.json"
SMOOTHING = "smoothing_demo.json"


def bundled_data(name: str):
    return json.loads(bundled_path(name).read_text(encoding="utf-8"))


def _get(data, key_path):
    return functools.reduce(operator.getitem, key_path, data)


# The subcommands that read each bundled file's sections; the first is the
# one the regression rows run.
COMMANDS = {GREENLAND: ("scenario", "trade"), SMOOTHING: ("simulate",)}


def run_on_file(command: str, data, path):
    """Write ``data`` to ``path`` and run ``command`` on it."""
    path.write_text(json.dumps(data))
    args = [command, "--scenario", str(path)]
    args += ["--hours", "2"] if command == "simulate" else ["--profile", "custom"]
    return invoke(args)


# One row per malformed or out-of-range input that used to be accepted, be
# coerced, or end in a traceback: (file, key path, new value, text the error
# message must contain).
REGRESSIONS = [
    # Keys removed from the format: two paths always chase the peak and carry trade.
    (GREENLAND, ("scenario", "trade_enabled"), "false", "scenario: unknown key 'trade_enabled'"),
    (GREENLAND, ("scenario", "schedule"), "peak_chasing", "scenario: unknown key 'schedule'"),
    (
        GREENLAND,
        ("links", "to-north-uk", "loss_model", "line_loss_per_1000km"),
        "0.03",
        "links.to-north-uk.loss_model.line_loss_per_1000km",
    ),
    (
        GREENLAND,
        ("links", "to-quebec", "utilization", "reduced_hours"),
        "4",
        "links.to-quebec.utilization.reduced_hours",
    ),
    (GREENLAND, ("scenario", "paths", 0, "link"), ["to-north-uk"], "scenario.paths[0].link"),
    (
        GREENLAND,
        ("links", "to-north-uk", "segments", 1, "length_km"),
        math.nan,
        "links.to-north-uk.segments[1]: length_km must be finite and > 0, got nan",
    ),
    (GREENLAND, ("generation", "capacity_mw"), math.inf, "generation: capacity_mw must be finite and > 0, got inf"),
    (GREENLAND, ("finance", "lifetime_years"), 40.7, "finance: lifetime_years must be a whole number, got 40.7"),
    (
        GREENLAND,
        ("scenario", "paths", 1, "tz_offset_hours"),
        -5.5,
        "scenario.paths[1]: tz_offset_hours must be a whole number, got -5.5",
    ),
    (GREENLAND, ("scenario", "paths", 0, "market"), ["x"], "scenario.paths[0].market"),
    # Offsets 0 and 24 read the same local clock: the source would chase one peak.
    (
        GREENLAND,
        ("scenario", "paths", 1, "tz_offset_hours"),
        24,
        "scenario: two paths must serve markets in different time zones (peak windows "
        "would coincide), got tz_offset_hours 0 and 24, equal modulo 24",
    ),
    (GREENLAND, ("links", "to-quebec", "segments"), [], "links.to-quebec: len(segments) must be >= 1, got 0"),
    (SMOOTHING, ("network", "regions", 1, "tz_offset_hours"), "3", "network.regions[1].tz_offset_hours"),
    (SMOOTHING, ("network", "interconnectors"), {}, "network.interconnectors"),
    (SMOOTHING, ("network", "regions", 0, "name"), 7, "network.regions[0].name"),
    (
        SMOOTHING,
        ("network", "regions", 0, "demand_profile_mw"),
        [1000.0] * 23 + ["high"],
        "network.regions[0].demand_profile_mw[23]",
    ),
    (
        GREENLAND,
        ("links", "to-quebec", "terminals", "count"),
        10**400,
        "links.to-quebec",
    ),
    # Finite but too large to compute with: the message names the failing step.
    (
        SMOOTHING,
        ("network", "regions", 0, "generators", 0, "capacity_mw"),
        1e308,
        "dispatch._fmt",
    ),
    (SMOOTHING, ("network", "regions", 0, "demand_peak_mw"), 1e308, "dispatch LP failed"),
    (GREENLAND, ("finance", "lifetime_years"), 10**30, "finance.capital_recovery_factor"),
    (GREENLAND, ("finance", "discount_rate"), 1e308, "finance.capital_recovery_factor"),
    # Finite, but the report would hold inf or nan: the message names the row.
    (
        GREENLAND,
        ("links", "to-north-uk", "segments", 0, "unit_cost_meur_per_km"),
        1e308,
        "report row 'total_capex_meur'",
    ),
    (
        GREENLAND,
        ("links", "to-north-uk", "terminals", "unit_cost_meur"),
        1e308,
        "report row 'total_capex_meur'",
    ),
    (GREENLAND, ("prices", "peak_eur_per_kwh"), 1e308, "report row 'revenue_uplift_pct'"),
]


@pytest.mark.parametrize(
    "name, key_path, value, expected",
    REGRESSIONS,
    ids=[".".join(map(str, row[1])) + f"={row[2]!r}"[:40] for row in REGRESSIONS],
)
def test_malformed_value_exits_two_naming_its_key(tmp_path, name, key_path, value, expected):
    data = bundled_data(name)
    _get(data, key_path[:-1])[key_path[-1]] = value
    result = run_on_file(COMMANDS[name][0], data, tmp_path / "scenario.json")
    assert result.exit_code == 2, (result.output, result.exception)
    assert expected in result.output


def test_region_without_demand_exits_two(tmp_path):
    data = bundled_data(SMOOTHING)
    del data["network"]["regions"][1]["demand_peak_mw"]
    result = run_on_file("simulate", data, tmp_path / "scenario.json")
    assert result.exit_code == 2, (result.output, result.exception)
    assert result.output == "Error: network.regions[1]: needs demand_profile_mw or demand_peak_mw\n"


def test_production_that_underflows_to_zero_exits_two(tmp_path):
    """A link that delivers nothing has no cost per delivered kWh, not 0."""
    data = bundled_data(GREENLAND)
    data["generation"].update(capacity_mw=1e-300, capacity_factor=1e-300)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    result = invoke(["scenario", "--scenario", str(path), "--profile", "custom", "--connection", "single"])
    assert result.exit_code == 2, result.output
    assert result.output == "Error: delivered_gwh must be > 0, got 0.0\n"


# Values swapped in for existing ones: in-range edge values, non-finite and
# huge numbers, and wrong types.
NUMBERS = [
    0, -1, 0.5, 40.7, 1e-300, 1e308, -1e308, 10**30, -(10**30), 10**400,
    math.nan, math.inf, -math.inf,
]
MUTANTS = NUMBERS + [None, True, False, "x", "3", [], {}, [1.0], {"k": 1}]
NON_FINITE_CELL = re.compile(r"(?<![\w.])-?(?:inf|nan)(?![\w.])", re.IGNORECASE)


def _node_paths(node, prefix=()):
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _node_paths(child, prefix + (key,))


@st.composite
def mutated_files(draw):
    name = draw(st.sampled_from([GREENLAND, SMOOTHING]))
    data = bundled_data(name)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        action = draw(st.sampled_from(["number", "swap", "delete", "extra"]))
        paths = [
            p
            for p in list(_node_paths(data))[1:]
            if action != "number" or type(_get(data, p)) in (int, float)
        ]
        if not paths:
            continue
        key_path = draw(st.sampled_from(paths))
        parent = _get(data, key_path[:-1])
        mutant = copy.deepcopy(draw(st.sampled_from(NUMBERS if action == "number" else MUTANTS)))
        if action in ("number", "swap"):
            parent[key_path[-1]] = mutant
        elif action == "delete":
            del parent[key_path[-1]]
        elif isinstance(parent, dict):
            parent["unexpected_key"] = mutant
        else:
            parent.append(copy.deepcopy(parent[key_path[-1]]))
    return name, data


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=mutated_files())
def test_mutated_bundled_files_exit_zero_or_two(tmp_path_factory, case):
    name, data = case
    for command in COMMANDS[name]:
        result = run_on_file(command, data, tmp_path_factory.getbasetemp() / "fuzzed.json")
        assert result.exit_code in {0, 2}, (command, result.output, repr(result.exception))
        if result.exit_code == 0:
            assert not NON_FINITE_CELL.search(result.output), result.output


# The keys whose dataclass field takes a whole number.
WHOLE_NUMBER_KEYS = {"lifetime_years", "count", "tz_offset_hours"}


@pytest.mark.parametrize("name", [GREENLAND, SMOOTHING])
def test_every_numeric_leaf_rejects_non_finite_and_fractional_values(name):
    """The reader only parses; each leaf's dataclass rejects the value, and the
    error's path leads to the leaf."""
    original = bundled_data(name)
    leaves = [p for p in _node_paths(original) if type(_get(original, p)) in (int, float)]
    for key_path in leaves:
        bad = [math.nan, math.inf, -math.inf] + [1.5] * (key_path[-1] in WHOLE_NUMBER_KEYS)
        for value in bad:
            data = bundled_data(name)
            _get(data, key_path[:-1])[key_path[-1]] = value
            with pytest.raises(ScenarioFileError) as raised:
                parse_scenario_data(data)
            path = tuple(raised.value.path)
            assert path == key_path[: len(path)], (key_path, value, str(raised.value))
