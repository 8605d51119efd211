"""Command-line parsing of every subcommand, the console-script entry point,
and the notes under the scenario reports.

Kept apart from ``test_cli.py``, which the benchmark reads for its golden
invocations.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridecon
from cli_runner import invoke
from gridecon.cli import FORMATS, OM_GAP_NOTE
from gridecon.datasets import bundled_path
from gridecon.projects import CSV_COLUMNS
from test_scenario_file import NON_FINITE_CELL, NUMBERS

NORMALIZE = [
    "normalize", "--value", "126.7", "--currency", "USD", "--price-year", "1997",
    "--target-currency", "EUR", "--target-year", "2007", "--fx", "0.8587",
]

# One run of each subcommand that succeeds.
VALID = {
    "lcoe": ["lcoe"],
    "project-table": ["project-table"],
    "scenario": ["scenario"],
    "trade": ["trade"],
    "norned": ["norned"],
    "compare-import": ["compare-import"],
    "simulate": ["simulate", "--hours", "2"],
    "normalize": NORMALIZE,
}

# Each subcommand with one of its options shortened, and the option named in full.
ABBREVIATED = {
    "lcoe": ["lcoe", "--prof", "paper-appendix-A"],
    "project-table": ["project-table", "--converter", "150"],
    "scenario": ["scenario", "--conn", "single"],
    "trade": ["trade", "--scen", "greenland"],
    "norned": ["norned", "--rev", "50"],
    "compare-import": ["compare-import", "--form", "csv"],
    "simulate": ["simulate", "--hour", "2"],
    "normalize": [*NORMALIZE, "--infl", "0.02"],
}

# An option that takes a whole number, given a fraction.
NOT_INTEGER = [
    ["simulate", "--hours", "1.5"],
    ["norned", "--days", "1.5"],
    [*NORMALIZE, "--price-year", "1.5"],
    [*NORMALIZE, "--target-year", "1.5"],
]

# A number option given NaN, and the check that rejects it.
NAN = [
    (["lcoe", "--length-km", "nan"], "length_km must be finite and > 0, got nan"),
    (["lcoe", "--capacity-mw", "nan"], "capacity_mw must be finite and >= 0, got nan"),
    (["project-table", "--converter-cost", "nan"], "converter cost assumption must be finite and >= 0, got nan"),
    (["norned", "--revenue-meur", "nan"], "revenue_eur must be finite and >= 0, got nan"),
    ([*NORMALIZE[:2], "nan", *NORMALIZE[3:]], "value must be finite, got nan"),
    ([*NORMALIZE, "--inflation", "nan"], "inflation_rate must be finite and > -1, got nan"),
]


@pytest.mark.parametrize("command", sorted(VALID))
def test_valid_run_is_zero(command):
    result = invoke(VALID[command])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("command", sorted(ABBREVIATED))
def test_abbreviated_option_is_two(command):
    args = ABBREVIATED[command]
    result = invoke(args)
    assert result.exit_code == 2, result.output
    assert f"unrecognized arguments: {args[-2]}" in result.output


@pytest.mark.parametrize("args", NOT_INTEGER, ids=lambda args: f"{args[0]}{args[-2]}")
def test_fraction_for_whole_number_is_two(args):
    result = invoke(args)
    assert result.exit_code == 2
    assert f"argument {args[-2]}: invalid int value: '1.5'" in result.output


@pytest.mark.parametrize("args, message", NAN, ids=[args[args.index("nan") - 1] for args, _ in NAN])
def test_nan_is_rejected_by_its_range_check(args, message):
    result = invoke(args)
    assert result.exit_code == 2
    assert result.output == f"Error: {message}\n"


# A negative number in forms that argparse's own test takes for an option.
NEGATIVE = ["-1e3", "-1E+3", "-.5e-2", "-inf", "-Infinity"]


@pytest.mark.parametrize("number", NEGATIVE)
def test_negative_number_after_its_option_is_its_value(number):
    spaced = invoke([*NORMALIZE[:2], number, *NORMALIZE[3:]])
    joined = invoke([f"{NORMALIZE[0]}", f"--value={number}", *NORMALIZE[3:]])
    assert spaced.exit_code == (0 if math.isfinite(float(number)) else 2)
    assert spaced == joined


@pytest.mark.parametrize("number", NEGATIVE)
def test_negative_length_is_rejected_by_its_range_check(number):
    result = invoke(["lcoe", "--length-km", number])
    assert result.exit_code == 2
    assert result.output == f"Error: length_km must be finite and > 0, got {float(number)}\n"


def header_only_csv(directory: Path) -> str:
    """A project CSV with the header and no record."""
    path = directory / "header_only.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-5"])
def test_converter_cost_is_checked_without_records(tmp_path, value):
    result = invoke(["project-table", "--converter-cost", value, "--projects-csv", header_only_csv(tmp_path)])
    assert result.exit_code == 2
    assert result.output == f"Error: converter cost assumption must be finite and >= 0, got {float(value)}\n"


# Each report subcommand's numeric options; {csv} stands for a header-only project CSV.
NUMERIC_OPTIONS = {
    ("lcoe",): ("--length-km", "--capacity-mw"),
    ("project-table",): ("--converter-cost",),
    ("project-table", "--projects-csv", "{csv}"): ("--converter-cost",),
    ("norned",): ("--revenue-meur", "--days"),
    tuple(NORMALIZE): ("--value", "--price-year", "--target-year", "--fx", "--inflation"),
}


@st.composite
def numeric_option_runs(draw):
    """A report subcommand with some of its numeric options set to edge values."""
    base = draw(st.sampled_from(sorted(NUMERIC_OPTIONS)))
    args = [*base, "--format", draw(st.sampled_from(FORMATS))]
    for option in draw(st.lists(st.sampled_from(NUMERIC_OPTIONS[base]), min_size=1, unique=True)):
        args += [option, str(draw(st.sampled_from(NUMBERS)))]
    return args


@settings(max_examples=200, deadline=None, derandomize=True)
@given(args=numeric_option_runs())
def test_numeric_options_exit_zero_or_two(tmp_path_factory, args):
    """No traceback, and no inf or nan cell in a report that exits 0. A drawn
    option comes after the base arguments, so it overrides normalize's own."""
    csv = header_only_csv(tmp_path_factory.getbasetemp())
    result = invoke([arg.format(csv=csv) for arg in args])
    assert result.exit_code in {0, 2}, (args, result.output, repr(result.exception))
    if result.exit_code == 0:
        assert not NON_FINITE_CELL.search(result.output), result.output


def test_no_subcommand_is_two():
    result = invoke([])
    assert result.exit_code == 2
    assert "the following arguments are required: COMMAND" in result.output


@pytest.mark.parametrize("command", ["", *sorted(VALID)])
def test_help_is_zero(command):
    result = invoke([command, "--help"] if command else ["--help"])
    assert result.exit_code == 0
    assert result.output.startswith(f"usage: gridecon {command}".rstrip())


def run_console(*args):
    """``gridecon <args>`` in a fresh process, through the module's ``main()``."""
    src = str(Path(gridecon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "gridecon.cli", *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_console_entry_point_exit_status_and_streams():
    """``main()`` reads ``sys.argv``: a report goes to stdout with exit 0, the
    program's own error to stderr as one line with exit 2."""
    golden = Path(__file__).parent / "golden" / "compare_import.txt"
    ok = run_console("compare-import")
    assert (ok.returncode, ok.stdout, ok.stderr) == (0, golden.read_text(encoding="utf-8"), "")
    rejected = run_console("lcoe", "--length-km", "nan")
    assert (rejected.returncode, rejected.stdout) == (2, "")
    assert rejected.stderr == "Error: length_km must be finite and > 0, got nan\n"
    misspelt = run_console("lcoe", "--prof", "norned")
    assert (misspelt.returncode, misspelt.stdout) == (2, "")
    assert "unrecognized arguments: --prof" in misspelt.stderr


@pytest.mark.parametrize("command", ["scenario", "trade"])
def test_bundled_finance_under_custom_gets_reconciliation_note(command):
    """The bundled case study's own finance carries the reconciled O&M rate."""
    result = invoke([command, "--scenario", "greenland", "--profile", "custom"])
    assert result.exit_code == 0, result.output
    note = "the 0.5%/yr fixed O&M charge of the bundled scenario file is a reconciliation hypothesis"
    assert f"note: {note}, not a published input\n" in result.output
    assert OM_GAP_NOTE not in result.output


@pytest.mark.parametrize("command", ["scenario", "trade"])
def test_user_finance_under_custom_gets_no_note(tmp_path, command):
    data = json.loads(bundled_path("greenland_low.json").read_text(encoding="utf-8"))
    data["finance"]["om_rate"] = 0.0
    path = tmp_path / "zero_om.json"
    path.write_text(json.dumps(data))
    result = invoke([command, "--scenario", str(path), "--profile", "custom"])
    assert result.exit_code == 0, result.output
    assert "note:" not in result.output
