"""Benchmark records of real submarine HVDC projects.

Records load from CSV with the header

    name,voltage_kv,capacity_mw,length_km,max_depth_m,total_cost_meur,
    cost_range_frac,known_cable_cost_meur,converter_count

(one line). Empty cells mean absent, decimal point, no thousands
separators, UTF-8. Numbers must be finite; converter_count must be a whole
number. voltage_kv is informational free text ("+/-450",
"450-500"). Budgets published as a symmetric range are stored as a center
value plus cost_range_frac; cable-only budgets, where known, go in
known_cable_cost_meur and bypass the converter subtraction.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

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


@dataclass(frozen=True)
class CostBand:
    """A per-km cost as a point (low == high) or a symmetric range."""

    low: float
    high: float

    @property
    def is_point(self) -> bool:
        return self.low == self.high

    def rounded(self, decimals: int = 2) -> tuple[float, float]:
        return (_round_half_up(self.low, decimals), _round_half_up(self.high, decimals))


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
        if not 0 < self.capacity_mw < math.inf:
            raise ValueError(f"{self.name}: capacity must be finite and > 0")
        if not 0 < self.length_km < math.inf:
            raise ValueError(f"{self.name}: length must be finite and > 0")
        if not 0 < self.total_cost_meur < math.inf:
            raise ValueError(f"{self.name}: total cost must be finite and > 0")
        if not 0.0 <= self.cost_range_frac < 1.0:
            raise ValueError(f"{self.name}: cost_range_frac must be in [0, 1)")
        for field_name in ("max_depth_m", "known_cable_cost_meur"):
            value = getattr(self, field_name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{self.name}: {field_name} must be finite, got {value}")
        if self.converter_count < 0:
            raise ValueError(f"{self.name}: converter_count must be >= 0")

    def total_cost_band(self) -> CostBand:
        spread = self.total_cost_meur * self.cost_range_frac
        return CostBand(self.total_cost_meur - spread, self.total_cost_meur + spread)


def implied_cable_cost_per_km(
    record: ProjectRecord, converter_cost_assumption_meur: float = 150.0
) -> CostBand:
    """Cable cost per km after stripping an assumed converter cost.

    (total - converters * assumption) / length, applied endpoint-wise when
    the budget is a range. A published cable-only cost overrides the
    subtraction. Rejects a non-finite assumption, and records where the
    subtraction is non-positive, which signals an inconsistent converter
    assumption.
    """
    if not math.isfinite(converter_cost_assumption_meur):
        raise ValueError(
            f"converter cost assumption must be finite, got {converter_cost_assumption_meur}"
        )
    if record.known_cable_cost_meur is not None:
        per_km = record.known_cable_cost_meur / record.length_km
        return CostBand(per_km, per_km)
    converters = record.converter_count * converter_cost_assumption_meur
    band = record.total_cost_band()
    if band.low - converters <= 0:
        raise ValueError(
            f"{record.name}: converter assumption {converter_cost_assumption_meur} MEUR "
            f"x {record.converter_count} leaves no cable cost"
        )
    return CostBand(
        (band.low - converters) / record.length_km,
        (band.high - converters) / record.length_km,
    )


def load_project_records(source: str | Path) -> list[ProjectRecord]:
    """Parse a project CSV; any malformed row fails with its row number."""
    text = Path(source).read_text(encoding="utf-8")
    return parse_project_records(text)


def parse_project_records(text: str) -> list[ProjectRecord]:
    reader = csv.DictReader(io.StringIO(text))
    header = tuple(reader.fieldnames or ())
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"missing required columns: {', '.join(missing)}")
    extra = [c for c in header if c not in CSV_COLUMNS]
    if extra:
        raise ValueError(f"unknown columns: {', '.join(extra)}")

    records: list[ProjectRecord] = []
    seen: set[str] = set()
    for lineno, row in enumerate(reader, start=2):
        try:
            name = row["name"].strip()
            if not name:
                raise ValueError("empty name")
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
            raise ValueError(f"row {lineno}: {exc}") from None
    return records


def serialize_project_records(records: list[ProjectRecord]) -> str:
    """Inverse of parse_project_records, emitting canonical number forms."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.name,
                r.voltage_kv,
                _num(r.capacity_mw),
                _num(r.length_km),
                _num(r.max_depth_m) if r.max_depth_m is not None else "",
                _num(r.total_cost_meur),
                _num(r.cost_range_frac) if r.cost_range_frac else "",
                _num(r.known_cable_cost_meur) if r.known_cable_cost_meur is not None else "",
                str(r.converter_count),
            ]
        )
    return out.getvalue()


def _number(row: dict, column: str, required: bool = True, whole: bool = False):
    """The cell as a float (an int if ``whole``), or None if empty and not ``required``."""
    raw = row[column].strip()
    if not raw:
        if required:
            raise ValueError(f"missing value for {column}")
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"malformed number {raw!r} in {column}") from None
    if whole:
        if not value.is_integer():
            raise ValueError(f"expected a whole number in {column}, got {raw!r}")
        return int(value)
    return value


def _num(value: float) -> str:
    return format(value, "g")


def _round_half_up(value: float, decimals: int) -> float:
    quantum = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))
