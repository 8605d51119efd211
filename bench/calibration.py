"""A fixed job that measures how fast the machine is right now.

On a machine whose cores are shared, the speed the benchmark gets swings by
20-50% over seconds to minutes, and a raw time mostly measures the
neighbours. So every timed operation and every set-up is bracketed by this
job, run the same way as what it brackets: in the worker's own process for
in-process operations, as a fresh Python process for whole processes. A
time is then scaled by the job's reference time over the job's mean time
just before and after it: the scaled time is what the operation would take
on a machine where the job takes its reference time. The job changes
nothing that gridecon uses, so a change to gridecon moves scaled times as
it moves raw ones.
"""

from __future__ import annotations

import subprocess
import sys
import time

# Integer arithmetic in a function: of the jobs tried, its time tracked the
# operations' times best from one moment to the next.
JOB = "def job():\n    s = 0\n    for i in range(300_000):\n        s += i * i\n    return s\njob()\n"
_CODE = compile(JOB, "<calibration>", "exec")

# Seconds the job takes on the reference machine, per way of running it.
IN_PROCESS_REFERENCE_S = 0.020
PROCESS_REFERENCE_S = 0.075


def in_process() -> float:
    """Seconds the job takes in this process."""
    start = time.perf_counter()
    exec(_CODE, {})
    return time.perf_counter() - start


def in_fresh_process() -> float:
    """Seconds a fresh Python process running the job takes, start to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", JOB], check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


def scaled(times: list[float], blocks: list[int], calibrations: list[float], reference_s: float) -> list[float]:
    """Each of ``times`` scaled by ``reference_s`` over the mean of the calibrations around it.

    ``calibrations[blocks[i]]`` ran just before the block of operations
    that ``times[i]`` belongs to, and ``calibrations[blocks[i] + 1]`` just
    after it.
    """
    if len(blocks) != len(times) or (blocks and blocks[-1] + 1 >= len(calibrations)):
        raise ValueError(f"{len(times)} times in blocks up to {blocks[-1:]} but {len(calibrations)} calibrations")
    return [t * 2 * reference_s / (calibrations[b] + calibrations[b + 1]) for t, b in zip(times, blocks)]
