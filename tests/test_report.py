import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridecon.report import Report, format_sig, render


@pytest.mark.parametrize(
    "value,expected",
    [
        (0.016749715, "0.0167"),
        (0.0253967, "0.0254"),
        (4822.36, "4822"),
        (17886.39, "17886"),
        (299.59, "300"),
        (50.0, "50.0"),
        (0.0, "0"),
        (-17.857, "-17.9"),
        (1.0 / 3.0, "0.333"),
        # rounding up to the next power of ten keeps three figures
        (9.9996, "10.0"),
        (0.99996, "1.00"),
        (0.0099996, "0.0100"),
        (99.996, "100"),
    ],
)
def test_format_sig_three_figures_keeps_integer_digits(value, expected):
    assert format_sig(value) == expected


# Values just below a power of ten, which round up to it, and any others.
SIG_VALUES = st.one_of(
    st.builds(lambda k, f: 10.0**k * f, st.integers(-8, 3), st.floats(0.999, 1.0)),
    st.floats(min_value=-1e4, max_value=1e4).filter(bool),
)


@given(SIG_VALUES)
def test_format_sig_below_1000_shows_at_most_three_figures(value):
    text = format_sig(value)
    if abs(float(text)) < 1000:
        digits = text.lstrip("-").replace(".", "").lstrip("0")
        assert len(digits) <= 3, text


def make_report(rows):
    return Report(
        title="Things",
        profile="test-profile",
        columns=("name", "value"),
        rows=tuple(rows),
        notes=("numbers are illustrative",),
    )


def test_empty_report_renders_header_only_csv():
    text = render(make_report([]), "csv")
    assert text == "name,value,profile\n"


def test_table_names_profile_and_notes():
    text = render(make_report([("a", 1.23456)]), "table")
    assert "[profile: test-profile]" in text
    assert "note: numbers are illustrative" in text
    assert "1.23" in text


def test_markdown_pipe_table():
    text = render(make_report([("a", 2)]), "markdown")
    assert "| name | value |" in text
    assert "| a | 2 |" in text


def test_csv_includes_profile_column_on_every_row():
    text = render(make_report([("a", 1), ("b", 2)]), "csv")
    lines = text.strip().split("\n")
    assert lines[1].endswith("test-profile")
    assert lines[2].endswith("test-profile")


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render(make_report([]), "yaml")


def test_rendering_is_deterministic():
    report = make_report([("a", 1.0), ("b", 0.123456)])
    assert render(report, "table") == render(report, "table")
    assert render(report, "csv") == render(report, "csv")


@pytest.mark.parametrize("fmt", ["table", "csv", "markdown"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_cell_names_its_row_and_column(fmt, value):
    report = make_report([("a", 1.0), ("b", value)])
    message = f"report row 'b', column 'value': {value} is not a finite number"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        render(report, fmt)
