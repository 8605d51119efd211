import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import gridecon
from gridecon.cli import main
from gridecon.datasets import REFERENCES, bundled_path
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


def invoke(args):
    return CliRunner().invoke(main, args)


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
        ],
        ids=[
            "negative-converter-cost",
            "unknown-scenario",
            "negative-revenue",
            "nan-revenue",
            "overflowing-revenue",
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
        assert reference_text(("link_lcoe", 5500.0, 3000.0, "low")) in output
        assert "paper-appendix-A" in output

    def test_project_table_derived_row(self):
        output = invoke(["project-table", "--converter-cost", "150"]).output
        for value in ("0.52", "1.03", "1.15", "1.19-2.67", "0.60"):
            assert value in output

    def test_scenario_dual_deliveries(self):
        output = invoke(["scenario", "--scenario", "greenland"]).output
        assert reference_text(("delivered_gwh", "dual", "north-uk")) in output
        assert reference_text(("delivered_gwh", "dual", "quebec")) in output
        assert "appendix-B-reconciled" in output

    def test_scenario_zero_om_flags_gap(self):
        output = invoke(["scenario", "--profile", "paper-appendix-A"]).output
        assert "understates" in output
        assert "7-13%" in output

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
        # No reference was published for either length or capacity.
        for option in (["--length-km", "1234"], ["--capacity-mw", "1000"]):
            output = invoke(["lcoe", *option, "--case", "low", "--format", "csv"]).output
            rows = list(csv.reader(io.StringIO(output)))
            assert rows[1][rows[0].index("reference_eur_per_kwh")] == ""

    def test_simulate_emits_hourly_rows(self):
        output = invoke(["simulate", "--hours", "2"]).output
        rows = list(csv.reader(io.StringIO(output)))
        assert rows[0][0] == "hour"
        hourly = [r for r in rows[1:] if r and r[0] in {"0", "1"}]
        assert len(hourly) == 4  # 2 hours x 2 regions
        assert any(r and r[0] == "total_cost_eur" for r in rows)


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

    @pytest.mark.parametrize("name", sorted(HIGH_CASE_INVOCATIONS))
    def test_high_case_golden_outputs(self, name):
        result = invoke(HIGH_CASE_INVOCATIONS[name])
        assert result.exit_code == 0, result.output
        assert result.output == (GOLDEN_DIR / name).read_text(encoding="utf-8")


# Runs the given golden invocations in one interpreter and prints which of
# them differ from their golden files and which of numpy and scipy it loaded.
COLD_START_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
from gridecon.cli import main

invocations, golden = json.loads(sys.argv[1]), Path(sys.argv[2])
differ = []
for name, args in invocations.items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(args, prog_name="gridecon", standalone_mode=False)
    if out.getvalue().encode() != (golden / name).read_bytes():
        differ.append(name)
loaded = [m for m in ("numpy", "scipy") if m in sys.modules]
print(json.dumps({"differ": differ, "loaded": loaded}))
"""


def test_reports_load_neither_numpy_nor_scipy():
    """Only a dispatch solve needs numpy and scipy, so no other command imports them."""
    reports = {name: args for name, args in GOLDEN_INVOCATIONS.items() if args[0] != "simulate"}
    src = str(Path(gridecon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", COLD_START_SCRIPT, json.dumps(reports), str(GOLDEN_DIR)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result == {"differ": [], "loaded": []}
