"""Benchmark records of real submarine HVDC projects.

Records load from CSV with the header

    name,voltage_kv,capacity_mw,length_km,max_depth_m,total_cost_meur,
    cost_range_frac,known_cable_cost_meur,converter_count

(one line). Empty cells mean absent, decimal point, no thousands
separators, UTF-8 (a leading byte-order mark, as Excel writes, is
skipped); a number is written in ASCII, without ``_``. The reader only
parses: it checks the table's shape (columns, one cell per column,
unique names) and converts each cell. Every rule on a value (finite, in
range, a whole converter_count, a non-empty name) is ProjectRecord's.
voltage_kv is informational free text ("+/-450",
"450-500"). Budgets published as a symmetric range are stored as a center
value plus cost_range_frac; cable-only budgets, where known, go in
known_cable_cost_meur and bypass the converter subtraction.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .checks import require, require_range, require_whole

CSV_COLUMNS = (
    "name",
    "voltage_kv",
    "capacity_mw",
    "length_km",
    "max_depth_m",
    "total_cost_meur",
    "cost_range_frac",
    "known_cable_cost_meur",
    "converter_count",
)

# CostBand.rounded keeps two decimal places: the project table's cent of MEUR per km.
_HUNDREDTH = Decimal("0.01")


@dataclass(frozen=True)
class CostBand:
    """A per-km cost as a point (low == high) or a symmetric range."""

    low: float
    high: float

    @property
    def is_point(self) -> bool:
        return self.low == self.high

    def rounded(self) -> tuple[float, float]:
        """Both ends to two decimal places, halves rounded away from zero."""
        return (_round_half_up(self.low), _round_half_up(self.high))


@dataclass(frozen=True)
class ProjectRecord:
    name: str
    voltage_kv: str
    capacity_mw: float
    length_km: float
    max_depth_m: float | None
    total_cost_meur: float
    cost_range_frac: float = 0.0
    known_cable_cost_meur: float | None = None
    converter_count: int = 2

    def __post_init__(self) -> None:
        name = self.name
        require(isinstance(name, str) and name != "", "name", "non-empty", repr(name))
        for label, value in (
            ("capacity", self.capacity_mw),
            ("length", self.length_km),
            ("total cost", self.total_cost_meur),
        ):
            require_range(value, f"{name}: {label}", "(0, inf)")
        require_range(self.cost_range_frac, f"{name}: cost_range_frac", "[0, 1)")
        for label in ("max_depth_m", "known_cable_cost_meur"):
            value = getattr(self, label)
            if value is not None:
                require_range(value, f"{name}: {label}", "[0, inf)")
        require_range(self.converter_count, f"{name}: converter_count", "[0, inf)")
        require_whole(self.converter_count, f"{name}: converter_count")

    def total_cost_band(self) -> CostBand:
        spread = self.total_cost_meur * self.cost_range_frac
        return CostBand(self.total_cost_meur - spread, self.total_cost_meur + spread)


def require_converter_cost(assumption: float) -> None:
    """Reject a converter cost assumption (MEUR) that is negative or not finite."""
    require_range(assumption, "converter cost assumption", "[0, inf)")


def implied_cable_cost_per_km(record: ProjectRecord, converter_cost_assumption_meur: float) -> CostBand:
    """Cable cost per km after stripping an assumed converter cost.

    (total - converters * assumption) / length, applied endpoint-wise when
    the budget is a range. A published cable-only cost overrides the
    subtraction. Rejects a negative or non-finite assumption, and records
    where the subtraction is non-positive, which signals an inconsistent
    converter assumption.
    """
    assumption = converter_cost_assumption_meur
    require_converter_cost(assumption)
    if record.known_cable_cost_meur is not None:
        per_km = record.known_cable_cost_meur / record.length_km
        return CostBand(per_km, per_km)
    converters = record.converter_count * assumption
    band = record.total_cost_band()
    if band.low - converters <= 0:
        raise ValueError(
            f"{record.name}: converter assumption {assumption} MEUR "
            f"x {record.converter_count} leaves no cable cost"
        )
    return CostBand(
        (band.low - converters) / record.length_km,
        (band.high - converters) / record.length_km,
    )


def load_project_records(source: str | Path) -> list[ProjectRecord]:
    """Parse a project CSV; any malformed row fails with its row number."""
    text = Path(source).read_text(encoding="utf-8-sig")
    return parse_project_records(text)


def parse_project_records(text: str) -> list[ProjectRecord]:
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader, ()))
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"missing required columns: {', '.join(missing)}")
    extra = [c for c in header if c not in CSV_COLUMNS]
    if extra:
        raise ValueError(f"unknown columns: {', '.join(extra)}")
    repeated = [c for c in CSV_COLUMNS if header.count(c) > 1]
    if repeated:
        raise ValueError(f"repeated columns: {', '.join(repeated)}")

    records: list[ProjectRecord] = []
    seen: set[str] = set()
    for cells in filter(None, reader):  # a blank line holds no cells
        try:
            if len(cells) != len(header):
                raise ValueError(f"expected {len(header)} cells, one per column, got {len(cells)}")
            row = dict(zip(header, cells))
            name = row["name"].strip()
            if name in seen:
                raise ValueError(f"duplicate name {name!r}")
            seen.add(name)
            records.append(
                ProjectRecord(
                    name=name,
                    voltage_kv=row["voltage_kv"].strip(),
                    capacity_mw=_number(row, "capacity_mw"),
                    length_km=_number(row, "length_km"),
                    max_depth_m=_number(row, "max_depth_m", required=False),
                    total_cost_meur=_number(row, "total_cost_meur"),
                    cost_range_frac=_number(row, "cost_range_frac", required=False) or 0.0,
                    known_cable_cost_meur=_number(row, "known_cable_cost_meur", required=False),
                    converter_count=_number(row, "converter_count", whole=True),
                )
            )
        except ValueError as exc:
            # The file line the record ends on, which a blank line or a quoted
            # cell spanning lines puts past the record's count.
            raise ValueError(f"row {reader.line_num}: {exc}") from None
    return records


def _number(row: dict, column: str, required: bool = True, whole: bool = False):
    """The cell as a float, or None if empty and not ``required``; if
    ``whole``, an integral value as an int, for ProjectRecord to judge."""
    raw = row[column].strip()
    if not raw:
        if required:
            raise ValueError(f"missing value for {column}")
        return None
    try:
        # float() also reads "_" between digits and any Unicode digit.
        if "_" in raw or not raw.isascii():
            raise ValueError
        value = float(raw)
    except ValueError:
        raise ValueError(f"malformed number {raw!r} in {column}") from None
    return int(value) if whole and value.is_integer() else value


def _round_half_up(value: float) -> float:
    return float(Decimal(repr(value)).quantize(_HUNDREDTH, rounding=ROUND_HALF_UP))
