import csv
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridecon
from cli_runner import invoke
from gridecon.cli import OM_GAP_NOTE
from gridecon.datasets import REFERENCES, bundled_path
from gridecon.profiles import PROFILES
from gridecon.projects import CSV_COLUMNS
from gridecon.report import format_sig

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_INVOCATIONS = {
    "lcoe_low.txt": ["lcoe", "--profile", "paper-appendix-A", "--case", "low"],
    "lcoe_all_csv.txt": ["lcoe", "--case", "all", "--format", "csv"],
    "project_table.txt": ["project-table", "--converter-cost", "150"],
    "project_table_md.txt": ["project-table", "--format", "markdown"],
    "scenario_dual_low.txt": ["scenario", "--scenario", "greenland", "--profile", "appendix-B-reconciled"],
    "scenario_single_high.txt": ["scenario", "--case", "high", "--connection", "single"],
    "trade_low.txt": ["trade", "--scenario", "greenland", "--profile", "appendix-B-reconciled"],
    "norned.txt": ["norned"],
    "compare_import.txt": ["compare-import"],
    "simulate_24h.txt": ["simulate", "--hours", "24"],
    "normalize_1997_usd.txt": [
        "normalize", "--value", "126.7", "--currency", "USD", "--price-year", "1997",
        "--target-currency", "EUR", "--target-year", "2007", "--fx", "0.8587",
        "--inflation", "0.0224",
    ],
}

# The high cost case, derived from the low-case scenario file. Kept out of
# GOLDEN_INVOCATIONS, which the benchmark's CLI workloads replay.
HIGH_CASE_INVOCATIONS = {
    "scenario_dual_high.txt": ["scenario", "--case", "high"],
    "trade_high.txt": ["trade", "--case", "high"],
}


def reference_text(key):
    """A published reference as a report prints it."""
    return format_sig(REFERENCES[key][0])


class TestExitCodes:
    def test_success_is_zero(self):
        assert invoke(["lcoe"]).exit_code == 0

    def test_unknown_flag_is_two(self):
        result = invoke(["lcoe", "--bogus-flag", "1"])
        assert result.exit_code == 2
        assert "--bogus-flag" in result.output

    def test_unknown_subcommand_is_two(self):
        assert invoke(["frobnicate"]).exit_code == 2

    def test_bad_choice_is_two(self):
        result = invoke(["lcoe", "--profile", "nonsense"])
        assert result.exit_code == 2
        assert "nonsense" in result.output

    @pytest.mark.parametrize(
        "args, named",
        [
            (["lcoe", "--profile", "custom"], "profile"),
            (["norned", "--profile", "custom"], "profile"),
            (["scenario", "--case", "all"], "case"),
            (["trade", "--case", "all"], "case"),
            (["scenario", "--scenario", "greenland-high"], "greenland-high"),
        ],
        ids=["lcoe-custom", "norned-custom", "scenario-all", "trade-all", "greenland-high"],
    )
    def test_value_the_command_cannot_use_is_two(self, args, named):
        result = invoke(args)
        assert result.exit_code == 2
        assert named in result.output

    def test_unknown_scenario_key_is_two(self, tmp_path):
        data = {"finance": {"discount_rate": 0.03, "lifetime_years": 40, "om_rate": 0.0}, "typo_key": 1}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        result = invoke(["scenario", "--scenario", str(path)])
        assert result.exit_code == 2
        assert "typo_key" in result.output

    def test_empty_paths_is_two(self, tmp_path):
        data = json.loads(bundled_path("greenland_low.json").read_text(encoding="utf-8"))
        data["scenario"]["paths"] = []
        path = tmp_path / "empty_paths.json"
        path.write_text(json.dumps(data))
        result = invoke(["scenario", "--scenario", str(path)])
        assert result.exit_code == 2
        assert "Error: scenario: len(paths) must be 1 or 2, got 0\n" in result.output

    def test_dual_connection_of_one_path_is_two(self, tmp_path):
        data = json.loads(bundled_path("greenland_low.json").read_text(encoding="utf-8"))
        data["scenario"]["paths"] = data["scenario"]["paths"][:1]
        path = tmp_path / "one_path.json"
        path.write_text(json.dumps(data))
        result = invoke(["scenario", "--scenario", str(path)])
        assert result.exit_code == 2
        assert "Error: dual connection requires exactly two paths\n" in result.output
        single = invoke(["scenario", "--scenario", str(path), "--connection", "single"])
        assert single.exit_code == 0, single.output

    @pytest.mark.parametrize(
        "args, expected",
        [
            (["lcoe", "--capacity-mw", "1e308"], "report row 'low', column 'delivered_gwh_per_yr'"),
            (["norned", "--days", "1" + "0" * 305], "report row 'delivered_gwh', column 'value'"),
            (["project-table", "--converter-cost", "nan"], "converter cost assumption must be finite"),
        ],
    )
    def test_non_finite_report_value_is_two(self, args, expected):
        result = invoke(args)
        assert result.exit_code == 2
        assert expected in result.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["project-table", "--converter-cost", "-100"],
                "converter cost assumption must be finite and >= 0, got -100.0",
            ),
            (
                ["scenario", "--scenario", "nosuch"],
                "unknown scenario 'nosuch'; expected a file path or one of greenland, smoothing",
            ),
            (["norned", "--revenue-meur", "-1"], "revenue_eur must be finite and >= 0, got -1000000.0"),
            (["norned", "--revenue-meur", "nan"], "revenue_eur must be finite and >= 0, got nan"),
            # MEUR to EUR overflows to inf
            (["norned", "--revenue-meur", "1e308"], "revenue_eur must be finite and >= 0, got inf"),
            (
                ["lcoe", "--length-km", "1e308"],
                "linear loss composition gives non-positive efficiency for 1e+308 km / 2 terminals",
            ),
            # Rejected before any hour is built.
            (
                ["simulate", "--hours", "1" + "0" * 20],
                f"hours must be <= {sys.maxsize}, got 1{'0' * 20}",
            ),
            # Within the rule: the day is solved, then CPython refuses a tuple
            # of that many hours before allocating it.
            (
                ["simulate", "--hours", str(sys.maxsize)],
                "dispatch.simulate: cannot compute with these inputs (MemoryError: )",
            ),
        ],
        ids=[
            "negative-converter-cost",
            "unknown-scenario",
            "negative-revenue",
            "nan-revenue",
            "overflowing-revenue",
            "huge-length",
            "horizon-past-maxsize",
            "horizon-at-maxsize",
        ],
    )
    def test_rejected_value_is_two(self, args, message):
        result = invoke(args)
        assert result.exit_code == 2
        assert f"Error: {message}\n" in result.output

    def test_negative_project_values_are_two(self, tmp_path):
        path = tmp_path / "projects.csv"
        row = "Foo,±300,700,100,-50,500,,-20,2"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + row + "\n", encoding="utf-8")
        result = invoke(["project-table", "--projects-csv", str(path)])
        assert result.exit_code == 2
        assert "Error: row 2: Foo: max_depth_m must be finite and >= 0, got -50.0\n" in result.output

    @pytest.mark.parametrize(
        "row, cells",
        # An unterminated quote runs to the end of the file, as one cell.
        [("Foo,±300,700,100,50,500,,", 8), ("Foo,±300,700,100,50,500,,,2,9999", 10), ('Foo,"±300,700', 2)],
        ids=["short", "long", "unterminated-quote"],
    )
    def test_project_row_of_the_wrong_length_is_two(self, tmp_path, row, cells):
        """A row is neither padded with missing cells nor cut to the header's length."""
        path = tmp_path / "projects.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + row + "\n", encoding="utf-8")
        result = invoke(["project-table", "--projects-csv", str(path)])
        assert result.exit_code == 2
        assert f"Error: row 2: expected 9 cells, one per column, got {cells}\n" in result.output

    def test_repeated_scenario_key_is_two(self, tmp_path):
        """A second ``network`` key is rejected, not simulated in place of the first."""
        text = bundled_path("smoothing_demo.json").read_text(encoding="utf-8")
        network = json.dumps(json.loads(text)["network"])
        path = tmp_path / "two_networks.json"
        path.write_text(text.rstrip()[:-1] + f', "network": {network}}}')
        result = invoke(["simulate", "--scenario", str(path)])
        assert result.exit_code == 2
        assert "Error: repeated key 'network'\n" in result.output

    def test_repeated_project_column_is_two(self, tmp_path):
        """A second ``capacity_mw`` column is rejected, not printed in place of the first."""
        path = tmp_path / "projects.csv"
        row = "Foo,±300,700,100,50,500,,,2,9999"
        path.write_text(",".join(CSV_COLUMNS) + ",capacity_mw\n" + row + "\n", encoding="utf-8")
        result = invoke(["project-table", "--projects-csv", str(path)])
        assert result.exit_code == 2
        assert "Error: repeated columns: capacity_mw\n" in result.output

    def test_missing_section_is_two(self, tmp_path):
        path = tmp_path / "no_network.json"
        path.write_text("{}")
        result = invoke(["simulate", "--scenario", str(path)])
        assert result.exit_code == 2
        assert "network" in result.output


class TestReportContents:
    def test_lcoe_low_contains_value_and_reference(self):
        output = invoke(["lcoe", "--profile", "paper-appendix-A", "--case", "low"]).output
        assert "0.0167" in output
        assert reference_text(("link_lcoe", 5500.0, "low")) in output
        assert "paper-appendix-A" in output

    def test_project_table_derived_row(self):
        output = invoke(["project-table", "--converter-cost", "150"]).output
        for value in ("0.52", "1.03", "1.15", "1.19-2.67", "0.60"):
            assert value in output

    def test_scenario_dual_deliveries(self):
        output = invoke(["scenario", "--scenario", "greenland"]).output
        assert reference_text(("delivered_gwh", "north-uk")) in output
        assert reference_text(("delivered_gwh", "quebec")) in output
        assert "appendix-B-reconciled" in output

    def test_scenario_zero_om_flags_gap(self):
        for command in ("scenario", "trade"):
            output = invoke([command, "--scenario", "greenland", "--profile", "paper-appendix-A"]).output
            assert f"note: {OM_GAP_NOTE}\n" in output

    @pytest.mark.parametrize("command", ["scenario", "trade"])
    def test_scenario_file_gets_no_gap_note(self, tmp_path, command):
        """The gap note is measured against the case study's references, which a file does not get."""
        path = tmp_path / "greenland_copy.json"
        path.write_text(bundled_path("greenland_low.json").read_text(encoding="utf-8"))
        result = invoke([command, "--scenario", str(path), "--profile", "paper-appendix-A"])
        assert result.exit_code == 0, result.output
        assert "note:" not in result.output

    @pytest.mark.parametrize("command", ["scenario", "trade"])
    def test_scenario_file_gets_no_references(self, tmp_path, command):
        """The references belong to the bundled case study, not to a file, even a copy of it."""
        path = tmp_path / "greenland_copy.json"
        path.write_text(bundled_path("greenland_low.json").read_text(encoding="utf-8"))
        result = invoke([command, "--scenario", str(path), "--format", "csv"])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert len(rows) >= 5
        assert [row["reference"] for row in rows] == [""] * len(rows)

    @pytest.mark.parametrize("command", ["scenario", "trade"])
    def test_case_study_gets_no_references_at_another_duty_cycle(self, command):
        """The case study's references hold at its duty cycle, not at the norned profile's."""
        csv_result = invoke([command, "--profile", "norned", "--format", "csv"])
        assert csv_result.exit_code == 0, csv_result.output
        rows = list(csv.DictReader(io.StringIO(csv_result.output)))
        assert [row["reference"] for row in rows] == [""] * len(rows)
        assert "note:" not in invoke([command, "--profile", "norned"]).output

    def test_trade_report(self):
        output = invoke(["trade"]).output
        assert "10636" in output
        assert "20095" in output

    def test_norned_report(self):
        output = invoke(["norned"]).output
        assert "0.0554" in output
        assert reference_text("norned_revenue_per_kwh") in output

    def test_norned_zero_revenue(self):
        result = invoke(["norned", "--revenue-meur", "0", "--format", "csv"])
        assert result.exit_code == 0
        values = {row["metric"]: row["value"] for row in csv.DictReader(io.StringIO(result.output))}
        assert values["delivered_gwh"] == "903"
        assert values["revenue_per_delivered_kwh_eur"] == "0"

    def test_compare_import_signs(self):
        output = invoke(["compare-import"]).output
        assert "yes" in output
        assert "no" in output

    def test_normalize_round_figure(self):
        result = invoke(GOLDEN_INVOCATIONS["normalize_1997_usd.txt"])
        assert "136" in result.output

    def test_every_format_renders(self):
        for fmt in ("table", "csv", "markdown"):
            result = invoke(["lcoe", "--format", fmt])
            assert result.exit_code == 0
            assert result.output

    def test_markdown_uses_pipe_table(self):
        output = invoke(["project-table", "--format", "markdown"]).output
        assert output.count("|") > 10


class TestCsvEmission:
    def test_csv_round_trips(self):
        output = invoke(["lcoe", "--case", "all", "--format", "csv"]).output
        rows = list(csv.reader(io.StringIO(output)))
        header, data = rows[0], rows[1:]
        assert header[-1] == "profile"
        assert all(len(row) == len(header) for row in data)
        # re-emitting the parsed rows reproduces the text byte for byte
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
        assert out.getvalue() == output

    def test_empty_reference_cells_allowed(self):
        # No reference was published for these lengths, capacities or profiles:
        # the long-cable values were reproduced under paper-appendix-A.
        for option in (
            ["--length-km", "1234"],
            ["--capacity-mw", "1000"],
            ["--profile", "appendix-B-reconciled"],
            ["--profile", "norned"],
        ):
            output = invoke(["lcoe", *option, "--case", "low", "--format", "csv"]).output
            rows = list(csv.reader(io.StringIO(output)))
            assert rows[1][rows[0].index("reference_eur_per_kwh")] == ""

    def test_norned_reference_only_for_published_revenue(self):
        output = invoke(["norned", "--revenue-meur", "40", "--format", "csv"]).output
        rows = {row["metric"]: row for row in csv.DictReader(io.StringIO(output))}
        assert rows["revenue_per_delivered_kwh_eur"]["value"] == "0.0443"
        assert rows["revenue_per_delivered_kwh_eur"]["reference"] == ""

    def test_norned_reference_only_for_its_duty_cycle(self):
        # The reference was published for the norned duty cycle, not for
        # the appendix profile's utilization.
        output = invoke(["norned", "--profile", "paper-appendix-A", "--format", "csv"]).output
        rows = {row["metric"]: row for row in csv.DictReader(io.StringIO(output))}
        assert rows["revenue_per_delivered_kwh_eur"]["value"] == "0.0609"
        assert rows["revenue_per_delivered_kwh_eur"]["reference"] == ""

    def test_simulate_emits_hourly_rows(self):
        output = invoke(["simulate", "--hours", "2"]).output
        rows = list(csv.reader(io.StringIO(output)))
        assert rows[0][0] == "hour"
        hourly = [r for r in rows[1:] if r and r[0] in {"0", "1"}]
        assert len(hourly) == 4  # 2 hours x 2 regions
        assert any(r and r[0] == "total_cost_eur" for r in rows)


def family(key):
    return key[0] if isinstance(key, tuple) else key


# The report row that prints each family of references: the subcommand and the
# row's first cell, with {1} and {2} standing for items of the key; "note" is
# the O&M gap note. compare-import prints link_lcoe_usd as its link costs,
# whatever its arguments; acceptance criterion 3 checks those entries.
REFERENCE_ROWS = {
    "link_lcoe": ("lcoe", "{2}"),
    "scenario_lcoe": ("scenario", "transmission_lcoe_eur_per_kwh"),
    "scenario_lcoe_zero_om_gap": ("scenario", "note"),
    "delivered_gwh": ("scenario", "delivered_{1}_gwh_per_yr"),
    "revenue_uplift": ("scenario", "revenue_uplift_pct"),
    "cost_increase": ("scenario", "cost_increase_vs_single_pct"),
    "trade_delivered_gwh": ("trade", "trade_delivered_gwh_per_yr"),
    "total_delivered_gwh": ("trade", "total_delivered_gwh_per_yr"),
    "trade_lcoe": ("trade", "lcoe_with_trade_eur_per_kwh"),
    "corridor_deliverable_gwh": ("trade", "full_capacity_deliverable_north-uk_gwh_per_yr"),
    "norned_revenue_per_kwh": ("norned", "revenue_per_delivered_kwh_eur"),
}


def reference_row(key):
    command, metric = REFERENCE_ROWS[family(key)]
    return command, metric.format(*key) if isinstance(key, tuple) else metric


def printed_reference(value, metric):
    """A published value as its report's cell shows it."""
    if metric == "note":
        return OM_GAP_NOTE
    if isinstance(value, tuple):
        return "-".join(f"{bound * 100:g}" for bound in value)
    return format_sig(value * 100.0 if metric.endswith("_pct") else value)


def reference_cell(command, args, metric):
    """The reference a report run with ``args`` prints in row ``metric``; '' if none."""
    argv = [command]
    for name, value in args.items():
        argv += ["--scenario" if name == "scenario_spec" else "--" + name.replace("_", "-"), str(value)]
    result = invoke(argv if metric == "note" else [*argv, "--format", "csv"])
    if result.exit_code == 2:  # e.g. a scenario file at the high cost case: no report
        return ""
    assert result.exit_code == 0, result.output
    if metric == "note":
        return OM_GAP_NOTE if f"note: {OM_GAP_NOTE}\n" in result.output else ""
    header, *rows = csv.reader(io.StringIO(result.output))
    column = next(i for i, name in enumerate(header) if name.startswith("reference"))
    return {row[0]: row[column] for row in rows}.get(metric, "")


def accepted_values(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def unpublished_value(name, accepted, tmp_path):
    """A value of subcommand argument ``name`` outside ``accepted``."""
    if name == "scenario_spec":
        path = tmp_path / "greenland_copy.json"
        path.write_text(bundled_path("greenland_low.json").read_text(encoding="utf-8"))
        return str(path)
    others = {
        "profile": list(PROFILES),
        "case": ["low", "high"],
        "connection": ["single", "dual"],
        "length_km": [1234.0],
        "capacity_mw": [1000.0],
        "revenue_meur": [40.0],
        "days": [60],
    }[name]
    return next(value for value in others if value not in accepted)


@pytest.mark.parametrize("key", [k for k in REFERENCES if family(k) != "link_lcoe_usd"], ids=repr)
def test_reference_printed_only_for_its_inputs(key, tmp_path):
    """A report prints a reference when run with exactly the inputs it was
    published for, under each accepted value, and stops printing it when any one
    input changes: that cell is then empty, or shows the reference the table
    holds for exactly the changed inputs (another cost case or connection)."""
    value, _, inputs = REFERENCES[key]
    command, metric = reference_row(key)
    expected = printed_reference(value, metric)
    accepted = {name: accepted_values(v) for name, v in inputs.items()}
    for combination in itertools.product(*accepted.values()):
        assert reference_cell(command, dict(zip(accepted, combination)), metric) == expected

    first = {name: values[0] for name, values in accepted.items()}
    for name in inputs:
        changed = {**inputs, name: unpublished_value(name, accepted[name], tmp_path)}
        same_row = [
            printed_reference(v, metric)
            for k, (v, _, i) in REFERENCES.items()
            if family(k) == family(key) and reference_row(k)[1] == metric and i == changed
        ]
        cell = reference_cell(command, {**first, name: changed[name]}, metric)
        assert cell == (same_row[0] if same_row else "")
        assert cell != expected


class TestDeterminismAndGoldens:
    def test_identical_invocations_are_byte_identical(self):
        first = invoke(["scenario", "--scenario", "greenland"]).output
        second = invoke(["scenario", "--scenario", "greenland"]).output
        assert first == second

    @pytest.mark.parametrize("name", sorted(GOLDEN_INVOCATIONS))
    def test_golden_outputs(self, name):
        result = invoke(GOLDEN_INVOCATIONS[name])
        assert result.exit_code == 0, result.output
        expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        assert result.output == expected

    @pytest.mark.parametrize(
        "filename, command",
        [
            ("hvdc_projects.csv", ["project-table", "--projects-csv"]),
            ("smoothing_demo.json", ["simulate", "--hours", "24", "--scenario"]),
        ],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, filename, command):
        """Excel's "CSV UTF-8" starts the file with a byte-order mark."""
        path = tmp_path / filename
        path.write_bytes(b"\xef\xbb\xbf" + bundled_path(filename).read_bytes())
        plain = invoke(command + [str(bundled_path(filename))])
        marked = invoke(command + [str(path)])
        assert plain.exit_code == marked.exit_code == 0, marked.output
        assert marked.output == plain.output

    @pytest.mark.parametrize("name", sorted(HIGH_CASE_INVOCATIONS))
    def test_high_case_golden_outputs(self, name):
        result = invoke(HIGH_CASE_INVOCATIONS[name])
        assert result.exit_code == 0, result.output
        assert result.output == (GOLDEN_DIR / name).read_text(encoding="utf-8")


# The gridecon modules each report subcommand loads: what building the parser
# needs, and the subcommand's own evaluators and renderer.
PARSER_MODULES = {
    "gridecon", "gridecon.cli", "gridecon.checks", "gridecon.datasets",
    "gridecon.finance", "gridecon.profiles", "gridecon.transmission",
}
REPORT_MODULES = {
    "lcoe": {"gridecon.report"},
    "normalize": {"gridecon.report"},
    "norned": {"gridecon.report", "gridecon.scenario"},
    "compare-import": {"gridecon.report", "gridecon.scenario"},
    "project-table": {"gridecon.report", "gridecon.projects"},
    "scenario": {"gridecon.report", "gridecon.scenario", "gridecon.scenario_file"},
    "trade": {"gridecon.report", "gridecon.scenario", "gridecon.scenario_file"},
}

# Runs one golden invocation in a fresh interpreter and prints whether its
# output differs from the golden file, and which modules it loaded.
COLD_START_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
from gridecon.cli import main

THIRD_PARTY = (
    "click", "numpy", "scipy", "scipy.optimize", "scipy.optimize._highspy._core",
    "scipy.linalg", "scipy.sparse",
)

args, golden = json.loads(sys.argv[1]), Path(sys.argv[2])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main.main(args, prog_name="gridecon", standalone_mode=False)
print(json.dumps({
    "exit": code,
    "differs": out.getvalue().encode() != golden.read_bytes(),
    "gridecon": sorted(m for m in sys.modules if m.split(".")[0] == "gridecon"),
    "others": [m for m in THIRD_PARTY if m in sys.modules],
}))
"""


def cold_start(name: str) -> dict:
    """What COLD_START_SCRIPT reports for the golden invocation ``name``."""
    src = str(Path(gridecon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", COLD_START_SCRIPT, json.dumps(GOLDEN_INVOCATIONS[name]), str(GOLDEN_DIR / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_reports_load_neither_numpy_nor_scipy():
    """Only a dispatch solve needs numpy and scipy, so no other command imports
    them; each report loads only the gridecon modules it uses, and never click."""
    for name, args in GOLDEN_INVOCATIONS.items():
        if args[0] == "simulate":
            continue
        expected = {
            "exit": 0,
            "differs": False,
            "gridecon": sorted(PARSER_MODULES | REPORT_MODULES[args[0]]),
            "others": [],
        }
        assert cold_start(name) == expected, name


def test_simulate_loads_the_highs_extension_without_scipy_optimize():
    """A cold simulate loads numpy and scipy's HiGHS extension, but never runs
    scipy.optimize's package init, which would pull in linalg and sparse."""
    expected = {
        "exit": 0,
        "differs": False,
        "gridecon": sorted(PARSER_MODULES | {
            "gridecon._highs", "gridecon.dispatch", "gridecon.scenario", "gridecon.scenario_file",
        }),
        "others": ["numpy", "scipy", "scipy.optimize._highspy._core"],
    }
    assert cold_start("simulate_24h.txt") == expected
