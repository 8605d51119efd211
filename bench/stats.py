"""Summary statistics for the benchmark: percentiles, self time, span totals, import time."""

from __future__ import annotations

import math
import statistics

TAIL_CAP = 0.90  # never report a tail above p90
TAIL_MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def tail_quantile(n: int) -> float:
    """Highest quantile, capped at p90, with at least ten of ``n`` samples beyond it."""
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(f"need more than {TAIL_MIN_BEYOND} samples for a tail, got {n}")
    return min(TAIL_CAP, (n - TAIL_MIN_BEYOND) / n)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The ``q`` quantile of ascending ``sorted_values`` by the nearest-rank rule."""
    rank = max(1, math.ceil(round(q * len(sorted_values), 9)))
    return sorted_values[rank - 1]


def latency_summary(latencies: list[float]) -> dict[str, float]:
    """Median and tail of per-operation latencies, with the tail's quantile and base."""
    values = sorted(latencies)
    q = tail_quantile(len(values))
    return {
        "p50": statistics.median(values),
        "tail": nearest_rank(values, q),
        "tail_q": q,
        "n": len(values),
    }


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    A span is ``(name, start, end, parent)`` with ``parent`` the index of the
    enclosing span or -1. Spans come from one thread, so children of one
    parent never overlap and their durations sum to the time they cover.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import time in ms per module from ``python -X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative[fields[2].strip()] = int(fields[1]) / 1000.0
    return cumulative


def merge_totals(parts: list[dict]) -> dict:
    """Sum of ``Tracer.totals()`` from several processes."""
    merged = {"ops": 0, "calls": {}, "self_s": {}, "counters": {}}
    for part in parts:
        merged["ops"] += part["ops"]
        for key in ("calls", "self_s", "counters"):
            for name, value in part[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged
