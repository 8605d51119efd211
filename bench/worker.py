"""One workload process: set up, warm up, run operations for a while, check them.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``. Prints
one JSON line: the set-up time, per-operation latencies summarized (raw,
and scaled by the calibration job run around each operation, see
``calibration.py``), counts of attempted and failed operations, peak memory
and, when traced, the per-function span totals.

Workloads are closed loops: one client, one operation at a time, no
threads or pools.

* ``cli-cold``: each operation is a fresh ``python -m gridecon.cli`` process
  for one of the golden invocations that ``tests/test_cli.py`` defines, in
  rounds shuffled by the seed; its stdout must equal the golden file byte
  for byte.
* ``reports-warm``: the same invocations but ``simulate``, called in the
  worker through ``gridecon.cli.main`` in seeded rounds after one warm-up
  call of each; stdout must equal the golden file byte for byte.
* ``dispatch-periodic``: ``simulate`` plus ``export_csv`` on the bundled
  two-region smoothing network over 7 whole days. Demand repeats every 24 h,
  so most hourly LPs repeat earlier ones. The seed leaves this input as it
  is; the CSV must match a digest pinned from the program as it stands.
* ``dispatch-network``: ``simulate`` plus ``export_csv`` for 24 h on a
  seeded ring of 200 regions and 400 lossy links, a new ring for every
  operation, so no hour repeats anywhere. The total cost must match an
  independent block-diagonal LP.

Both dispatch workloads also check every hour's energy balance.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import calibration
from stats import latency_summary, merge_totals

GOLDEN_TESTS = Path("tests") / "test_cli.py"  # defines GOLDEN_INVOCATIONS: golden file -> arguments

PERIODIC_HOURS = 7 * 24
# sha256 of export_csv(simulate(smoothing network, 168 h)), pinned from the program.
PERIODIC_CSV_SHA256 = "02814964943335857a4ea99a5aab9e726c01ae561131cd76abf0215270fee90e"

BALANCE_REL_TOL = 1e-9  # of the hour's total demand
BALANCE_ABS_TOL = 1e-6  # MW
COST_REL_TOL = 1e-6  # ring total cost against the block-diagonal LP

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60
WARM_UP = "warm-up"  # operation key of the untimed warm-up
CALIBRATE_EVERY_S = 0.25  # operation time between two runs of the calibration job


def golden_invocations(checkout: Path) -> dict[str, list[str]]:
    """The golden CLI invocations, read from the CLI tests without importing them."""
    tree = ast.parse((checkout / GOLDEN_TESTS).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "GOLDEN_INVOCATIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"{GOLDEN_TESTS} defines no GOLDEN_INVOCATIONS")


def golden_outputs(checkout: Path, invocations: dict) -> dict[str, bytes]:
    golden = checkout / "tests" / "golden"
    return {name: (golden / name).read_bytes() for name in invocations}


def balance_error(hourly) -> str | None:
    """First hour whose generation plus shedding misses demand plus losses."""
    for t, hour in enumerate(hourly):
        demand = sum(hour.demand_mw)
        residual = sum(map(sum, hour.generation_mw)) + sum(hour.unserved_mw) - demand - hour.loss_mw
        if not abs(residual) <= max(BALANCE_ABS_TOL, BALANCE_REL_TOL * demand):
            return f"hour {t}: energy-balance residual {residual:.3g} MW"
    return None


class SeededRounds:
    """Names in rounds of every name, each round in an order shuffled by the seed."""

    def __init__(self, names, seed: int) -> None:
        self.names = sorted(names)
        self.rng = random.Random(seed)
        self.order: list[str] = []

    def next(self) -> str:
        if not self.order:
            self.order = list(self.names)
            self.rng.shuffle(self.order)
        return self.order.pop()


class CliCold:
    calibrate = staticmethod(calibration.in_fresh_process)
    calibration_reference_s = calibration.PROCESS_REFERENCE_S

    def __init__(self, seed: int, checkout: Path) -> None:
        self.seed = seed
        self.checkout = checkout
        self.traced = False
        self.children: list[dict] = []

    def setup(self) -> None:
        self.invocations = golden_invocations(self.checkout)
        self.expected = golden_outputs(self.checkout, self.invocations)
        self.rounds = SeededRounds(self.invocations, self.seed)

    def info(self) -> dict:
        return {"invocations": len(self.invocations)}

    def start_tracing(self, tracer) -> None:
        self.traced = True

    def trace_totals(self, tracer) -> dict:
        return merge_totals(self.children)

    def run_op(self, key) -> tuple[float, str | None]:
        # The warm-up takes a seeded invocation outside the rounds.
        name = self.rounds.rng.choice(self.rounds.names) if key == WARM_UP else self.rounds.next()
        if self.traced:
            command = [sys.executable, str(BENCH_DIR / "traced_cli.py")]
        else:
            command = [sys.executable, "-m", "gridecon.cli"]
        start = time.perf_counter()
        try:
            child = subprocess.run(
                command + self.invocations[name],
                cwd=self.checkout,
                capture_output=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, f"{name}: timed out"
        elapsed = time.perf_counter() - start
        if child.returncode != 0:
            return elapsed, f"{name}: exit {child.returncode}: {child.stderr.decode()[-300:]}"
        if child.stdout != self.expected[name]:
            return elapsed, f"{name}: output differs from the golden file"
        if self.traced:
            marker = [line for line in child.stderr.decode().splitlines() if line.startswith("TRACE ")]
            if not marker:
                return elapsed, f"{name}: traced child printed no span totals"
            self.children.append(json.loads(marker[-1][len("TRACE "):]))
        return elapsed, None

    def finish(self) -> list[str]:
        return []

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


class InProcess:
    """A workload run inside the worker process, traced by wrapping gridecon."""

    calibrate = staticmethod(calibration.in_process)
    calibration_reference_s = calibration.IN_PROCESS_REFERENCE_S

    def __init__(self, seed: int, checkout: Path) -> None:
        self.seed = seed
        self.checkout = checkout

    def start_tracing(self, tracer) -> None:
        tracer.install()

    def trace_totals(self, tracer) -> dict:
        return tracer.totals()

    def finish(self) -> list[str]:
        return []

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class ReportsWarm(InProcess):
    """The golden report invocations, every one but ``simulate``, through ``gridecon.cli.main``."""

    def setup(self) -> None:
        import gridecon.cli

        self.main = gridecon.cli.main.main
        invocations = golden_invocations(self.checkout)
        self.invocations = {name: args for name, args in invocations.items() if args[0] != "simulate"}
        self.expected = golden_outputs(self.checkout, self.invocations)
        self.rounds = SeededRounds(self.invocations, self.seed)
        # One stdout for every call, as a process has: click keeps each new
        # stream it writes to alive, so a new one per call would grow memory.
        self.output = io.StringIO()

    def info(self) -> dict:
        return {"invocations": len(self.invocations)}

    def start_tracing(self, tracer) -> None:
        super().start_tracing(tracer)
        self.main = tracer.span("cli.main", self.main)

    def run_op(self, key) -> tuple[float, str | None]:
        # The warm-up calls every invocation once; it is not timed.
        names = self.rounds.names if key == WARM_UP else [self.rounds.next()]
        start = time.perf_counter()
        for name in names:
            self.output.seek(0)
            self.output.truncate()
            try:
                with contextlib.redirect_stdout(self.output):
                    self.main(self.invocations[name], prog_name="gridecon", standalone_mode=False)
            except Exception as exc:  # any failure of the program counts against it
                return time.perf_counter() - start, f"{name}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if self.output.getvalue().encode() != self.expected[name]:
                return elapsed, f"{name}: output differs from the golden file"
        return elapsed, None


class InProcessDispatch(InProcess):
    def setup(self) -> None:
        import gridecon.dispatch
        import ring

        # Looked up on every call, so that tracing can wrap them.
        self.dispatch, self.ring = gridecon.dispatch, ring


class PeriodicDispatch(InProcessDispatch):
    def setup(self) -> None:
        super().setup()
        from gridecon import datasets

        # The bundled network is the input whatever the seed.
        self.network = datasets.load_bundled_scenario("smoothing").require("network")

    def info(self) -> dict:
        distinct = {self.ring.hourly_demand(self.network, t) for t in range(PERIODIC_HOURS)}
        return {
            "hours": PERIODIC_HOURS,
            "distinct_demand_vectors": len(distinct),
            **self.ring.network_size(self.network),
        }

    def run_op(self, key) -> tuple[float, str | None]:
        start = time.perf_counter()
        result = self.dispatch.simulate(self.network, PERIODIC_HOURS)
        text = self.dispatch.export_csv(result)
        elapsed = time.perf_counter() - start
        if hashlib.sha256(text.encode()).hexdigest() != PERIODIC_CSV_SHA256:
            return elapsed, "export_csv output differs from the pinned digest"
        return elapsed, balance_error(result.hourly)


class NetworkDispatch(InProcessDispatch):
    def __init__(self, seed: int, checkout: Path) -> None:
        super().__init__(seed, checkout)
        self.checks: list[tuple[object, float]] = []

    def network(self, key) -> object:
        # One warm-up ring for every seed keeps set-up time comparable.
        return self.ring.make_ring(WARM_UP if key == WARM_UP else f"{self.seed}:{key}")

    def info(self) -> dict:
        hours = self.ring.HOURS
        return {"hours": hours, "distinct_demand_vectors": hours, **self.ring.network_size(self.network(0))}

    def run_op(self, key) -> tuple[float, str | None]:
        network = self.network(key)
        start = time.perf_counter()
        result = self.dispatch.simulate(network, self.ring.HOURS)
        self.dispatch.export_csv(result)
        elapsed = time.perf_counter() - start
        if key != WARM_UP:
            # The first and the latest ring are checked against the reference LP.
            self.checks[1:] = [(network, result.total_cost_eur)]
        return elapsed, balance_error(result.hourly)

    def finish(self) -> list[str]:
        errors = []
        for network, cost in self.checks:
            reference = self.ring.reference_total_cost(network)
            if not abs(cost - reference) <= COST_REL_TOL * abs(reference):
                errors.append(f"total cost {cost!r} differs from the reference LP's {reference!r}")
        return errors


WORKLOADS = {
    "cli-cold": CliCold,
    "reports-warm": ReportsWarm,
    "dispatch-periodic": PeriodicDispatch,
    "dispatch-network": NetworkDispatch,
}


def measure(workload, seconds: float, first_op: int, tracer=None) -> dict:
    """Run operations until ``seconds`` have passed; at least eleven of them.

    The calibration job runs before the first operation and then whenever
    ``CALIBRATE_EVERY_S`` of operation time has passed since it last ran, and
    once more at the end. Latencies are reported raw and scaled by the two
    calibrations around the block of operations they fall in.
    """
    latencies, blocks, errors = [], [], []
    calibrations = [workload.calibrate()]
    since_calibration = 0.0
    deadline = time.perf_counter() + seconds
    i = first_op
    while time.perf_counter() < deadline or len(latencies) <= 10:
        elapsed, error = workload.run_op(i)
        if tracer is not None:
            tracer.end_op()
        latencies.append(elapsed)
        blocks.append(len(calibrations) - 1)
        if error:
            errors.append(error)
        since_calibration += elapsed
        if since_calibration >= CALIBRATE_EVERY_S:
            calibrations.append(workload.calibrate())
            since_calibration = 0.0
        i += 1
    if since_calibration:
        calibrations.append(workload.calibrate())
    scaled = calibration.scaled(latencies, blocks, calibrations, workload.calibration_reference_s)
    return {
        "latency": latency_summary(scaled),
        "busy_s": sum(scaled),
        "raw_latency": latency_summary(latencies),
        "raw_busy_s": sum(latencies),
        "latencies_s": latencies,
        "calibrations_s": calibrations,
        "errors": errors,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True, help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, Path.cwd())
    workload.setup()
    error = workload.run_op(WARM_UP)[1]
    if error:
        raise SystemExit(f"warm-up failed: {error}")
    setup_s = time.monotonic() - args.started
    out: dict = {"setup_s": setup_s}
    if not args.setup_only:
        phases = {}
        if args.trace:
            # Untraced first, then traced, each for half the time: the
            # difference is the tracing overhead.
            phases["untraced"] = measure(workload, args.seconds / 2, 0)
            from tracer import Tracer

            tracer = Tracer()
            workload.start_tracing(tracer)
            phases["traced"] = measure(workload, args.seconds / 2, phases["untraced"]["latency"]["n"], tracer)
            out["trace"] = workload.trace_totals(tracer)
        else:
            phases["run"] = measure(workload, args.seconds, 0)
        # Read before ``finish``, whose output checks are not the program's work.
        peak_rss_kb = workload.peak_rss_kb()
        errors = [e for phase in phases.values() for e in phase["errors"]] + workload.finish()
        out.update(
            phases=phases,
            attempted=sum(phase["latency"]["n"] for phase in phases.values()),
            failed=len(errors),
            errors=errors[:5],
            peak_rss_kb=peak_rss_kb,
            info=workload.info(),
        )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
