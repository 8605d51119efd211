import csv
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridecon.datasets import bundled_path, load_bundled_projects
from gridecon.projects import (
    CSV_COLUMNS,
    CostBand,
    ProjectRecord,
    implied_cable_cost_per_km,
    load_project_records,
    parse_project_records,
)

HEADER = (
    "name,voltage_kv,capacity_mw,length_km,max_depth_m,total_cost_meur,"
    "cost_range_frac,known_cable_cost_meur,converter_count\n"
)


def test_bundled_dataset_loads_five_projects():
    records = load_bundled_projects()
    assert [r.name for r in records] == ["NorNed", "SAPEI", "BritNed", "NorGer", "NordBalt"]
    sapei = records[1]
    assert sapei.max_depth_m == 1600.0
    britned = records[2]
    assert britned.max_depth_m is None


def test_implied_cost_norned():
    record = ProjectRecord("NorNed", "±450", 700, 580, 410, 600)
    band = implied_cable_cost_per_km(record, 150.0)
    assert band.is_point
    assert band.low == pytest.approx(300 / 580)
    assert band.rounded() == (0.52, 0.52)


def test_implied_cost_norger_range():
    record = ProjectRecord("NorGer", "450-500", 1400, 570, 410, 1400, cost_range_frac=0.3)
    band = implied_cable_cost_per_km(record, 150.0)
    assert not band.is_point
    assert band.low == pytest.approx(680 / 570)
    assert band.high == pytest.approx(1520 / 570)
    assert band.rounded() == (1.19, 2.67)


def test_implied_cost_known_cable_cost_overrides():
    record = ProjectRecord(
        "NordBalt", "±300", 700, 450, None, 550, known_cable_cost_meur=270.0
    )
    band = implied_cable_cost_per_km(record, 150.0)
    assert band.low == pytest.approx(0.6)
    assert band.rounded() == (0.60, 0.60)


def test_implied_cost_rejects_inconsistent_assumption():
    record = ProjectRecord("NorNed", "±450", 700, 580, 410, 600)
    with pytest.raises(ValueError, match="NorNed"):
        implied_cable_cost_per_km(record, 300.0)


def test_bundled_dataset_reproduces_derived_row():
    expected = {
        "NorNed": (0.52, 0.52),
        "SAPEI": (1.03, 1.03),
        "BritNed": (1.15, 1.15),
        "NorGer": (1.19, 2.67),
        "NordBalt": (0.60, 0.60),
    }
    for record in load_bundled_projects():
        assert implied_cable_cost_per_km(record, 150.0).rounded() == expected[record.name]


def test_bundled_file_parses_every_field():
    assert load_bundled_projects() == [
        ProjectRecord("NorNed", "±450", 700.0, 580.0, 410.0, 600.0),
        ProjectRecord("SAPEI", "±500", 1000.0, 435.0, 1600.0, 750.0),
        ProjectRecord("BritNed", "±450", 1000.0, 260.0, None, 600.0),
        ProjectRecord("NorGer", "450-500", 1400.0, 570.0, 410.0, 1400.0, cost_range_frac=0.3),
        ProjectRecord("NordBalt", "±300", 700.0, 450.0, None, 550.0, known_cable_cost_meur=270.0),
    ]



def _to_csv(records: list[ProjectRecord]) -> str:
    """CSV text of ``records`` in the bundled file's number forms (700, 0.3, empty cells)."""
    def num(value):
        return "" if value is None else format(value, "g")

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([
            r.name, r.voltage_kv, num(r.capacity_mw), num(r.length_km), num(r.max_depth_m),
            num(r.total_cost_meur), num(r.cost_range_frac or None),
            num(r.known_cable_cost_meur), r.converter_count,
        ])
    return out.getvalue()


def test_round_trip_bundled_file():
    path = bundled_path("hvdc_projects.csv")
    text = path.read_text(encoding="utf-8")
    assert _to_csv(load_project_records(path)).rstrip() == text.rstrip()


def test_round_trip_is_stable():
    records = load_bundled_projects()
    once = _to_csv(records)
    assert parse_project_records(once) == records
    assert _to_csv(parse_project_records(once)) == once

def test_empty_file_with_header():
    assert parse_project_records(HEADER) == []


def test_malformed_capacity_names_the_row():
    text = HEADER + "Foo,±300,n/a,100,,500,,,2\n"
    with pytest.raises(ValueError, match="row 2"):
        parse_project_records(text)


def test_missing_column_rejected():
    text = "name,voltage_kv\nFoo,300\n"
    with pytest.raises(ValueError, match="missing required columns"):
        parse_project_records(text)


def test_unknown_column_rejected():
    text = HEADER.rstrip() + ",bonus\n"
    with pytest.raises(ValueError, match="unknown columns"):
        parse_project_records(text)


@pytest.mark.parametrize(
    "row, message",
    [
        (",±300,700,100,,500,,,2", "row 2: name must be non-empty, got ''"),
        ("Foo,±300,,100,,500,,,2", "row 2: missing value for capacity_mw"),
        # float() reads "_" as a digit separator and any Unicode digit as a digit.
        ("Foo,±300,700,5_80,,500,,,2", "row 2: malformed number '5_80' in length_km"),
        ("Foo,±300,1_000,100,,500,,,2", "row 2: malformed number '1_000' in capacity_mw"),
        ("Foo,±300,700,100,,500,,,2_0", "row 2: malformed number '2_0' in converter_count"),
        ("Foo,±300,700,５８０,,500,,,2", "row 2: malformed number '５８０' in length_km"),
    ],
    ids=["empty-name", "missing-value", "underscore-length", "underscore-capacity",
         "underscore-count", "fullwidth-digits"],
)
def test_malformed_row_is_rejected_with_its_number(row, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        parse_project_records(HEADER + row + "\n")


def test_short_row_after_a_valid_row_names_its_own_number():
    # Rows of the wrong length exit 2 from the CLI: tests/test_cli.py.
    text = HEADER + "Foo,±300,700,100,,500,,,2\nBar,±300\n"
    with pytest.raises(ValueError, match="^row 3: expected 9 cells, one per column, got 2$"):
        parse_project_records(text)


@pytest.mark.parametrize(
    "before",
    ["Foo,±300,700,100,,500,,,2\n\n", '"Foo\nLink",±300,700,100,,500,,,2\n'],
    ids=["blank-line", "quoted-cell-spanning-lines"],
)
def test_row_number_is_the_file_line(before):
    # Line 4 holds the bad cell; only three records precede it, the header
    # included.
    text = HEADER + before + "Bar,±300,x,100,,500,,,2\n"
    with pytest.raises(ValueError, match="^row 4: malformed number 'x' in capacity_mw$"):
        parse_project_records(text)


def test_duplicate_names_rejected():
    rows = "Foo,±300,700,100,,500,,,2\n"
    with pytest.raises(ValueError, match="duplicate"):
        parse_project_records(HEADER + rows + rows)


def test_record_validation():
    with pytest.raises(ValueError):
        ProjectRecord("X", "300", 0, 100, None, 500)
    with pytest.raises(ValueError):
        ProjectRecord("X", "300", 700, 100, None, 500, cost_range_frac=1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"capacity_mw": NAN}, "capacity must be finite"),
        ({"capacity_mw": INF}, "capacity must be finite"),
        ({"length_km": NAN}, "length must be finite"),
        ({"length_km": INF}, "length must be finite"),
        ({"total_cost_meur": NAN}, "total cost must be finite"),
        ({"total_cost_meur": INF}, "total cost must be finite"),
        ({"max_depth_m": NAN}, "max_depth_m must be finite"),
        ({"known_cable_cost_meur": NAN}, "known_cable_cost_meur must be finite"),
        ({"known_cable_cost_meur": INF}, "known_cable_cost_meur must be finite"),
    ],
)
def test_record_rejects_non_finite_values(fields, message):
    values = {
        "name": "X", "voltage_kv": "300", "capacity_mw": 700.0, "length_km": 100.0,
        "max_depth_m": None, "total_cost_meur": 500.0, **fields,
    }
    with pytest.raises(ValueError, match=f"X: {message}"):
        ProjectRecord(**values)


def test_implied_cost_rejects_non_finite_assumption():
    record = ProjectRecord("NorNed", "±450", 700, 580, 410, 600)
    with pytest.raises(ValueError, match="converter cost assumption must be finite"):
        implied_cable_cost_per_km(record, NAN)


@pytest.mark.parametrize(
    "row, message",
    [
        ("Foo,±300,700,100,,nan,,,2", "row 2: Foo: total cost must be finite"),
        ("Foo,±300,700,100,,500,,inf,2", "row 2: Foo: known_cable_cost_meur must be finite"),
        ("Foo,±300,700,100,,500,,,2.7", "row 2: Foo: converter_count must be a whole number, got 2.7"),
    ],
    ids=["total-cost", "known-cable-cost", "converter-count"],
)
def test_csv_rejects_non_finite_values_and_fractional_counts(row, message):
    with pytest.raises(ValueError, match=message):
        parse_project_records(HEADER + row + "\n")


def test_csv_reads_whole_converter_count():
    (record,) = parse_project_records(HEADER + "Foo,±300,700,100,,500,,,2.0\n")
    assert record.converter_count == 2
    assert isinstance(record.converter_count, int)


@settings(max_examples=200, deadline=None)
@given(
    total=st.floats(min_value=100.0, max_value=5000.0),
    length=st.floats(min_value=10.0, max_value=2000.0),
    assumption=st.floats(min_value=1.0, max_value=100.0),
    bump=st.floats(min_value=0.1, max_value=50.0),
)
def test_implied_cost_decreasing_in_converter_assumption(total, length, assumption, bump):
    record = ProjectRecord("X", "±300", 700, length, None, total, converter_count=2)
    if total - 2 * (assumption + bump) <= 0:
        return
    low = implied_cable_cost_per_km(record, assumption + bump)
    high = implied_cable_cost_per_km(record, assumption)
    assert low.low < high.low


def test_cost_band_rounding_is_half_away_from_zero():
    assert CostBand(0.515, 0.515).rounded() == (0.52, 0.52)
    assert CostBand(1.125, 1.125).rounded() == (1.13, 1.13)
