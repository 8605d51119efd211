"""gridecon's benchmark: run one workload against this checkout's ``src``.

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --manifest > BENCHMARK.json

Run from the root of a checkout. Every process of a workload imports
gridecon from the checkout's ``src``. With ``--trace 0`` the workload runs
in a fresh process for ``--seconds``, and five more processes only set up,
two before it and three after; ``setup_s`` is the median of their set-up
times. With ``--trace 1`` one process runs the workload untraced for half
the time, then traced for the other half, and the per-layer metrics come
from the traced half; the import metrics are the medians of ``-X
importtime`` over three fresh ``import gridecon.cli`` processes. Every
per-layer metric is printed; one whose layer the workload never calls reads
0 and is named on the ``missing`` line before the result.

The gated times (``setup_s``, ``op_latency_ms.*``, ``ops_per_s`` and the
tracing overhead) are scaled by a fixed calibration job run around each
set-up and each operation (see ``calibration.py``), because the machine's
speed drifts by more than the bounds; the raw times are printed beside
them. Per-layer span times are raw.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit and sample count, the error rate with its base, and the environment.
The full result goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibration
from stats import parse_importtime

BENCH_DIR = Path(__file__).resolve().parent
RUN_SECONDS = 20
SETUP_PROCESSES_BEFORE = 2
SETUP_PROCESSES_AFTER = 3
IMPORT_PROCESSES = 3

WORKLOADS = {
    "cli-cold": "a fresh gridecon CLI process per golden invocation: what a command-line user waits for, mostly import time",
    "reports-warm": "the golden report invocations called in-process after warm-up: parsing, evaluators and rendering without import",
    "dispatch-periodic": "simulate and export 7 days of the bundled 2-region network: demand repeats daily, so most hourly LPs repeat",
    "dispatch-network": "simulate and export 24 h of a new seeded 200-region, 400-link ring per operation: no hour repeats, LPs are large",
}

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_latency_ms.p50", "ms", "lower", 0.25),
    ("op_latency_ms.tail", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Per operation. Every ``_ms`` figure is self time: the span minus its
# traced child spans. Module layers add up all of the module's public
# functions and methods; dispatch is split by function. What each should
# move: imports move cli-cold's op latency and every workload's setup_s;
# the module layers move cli-cold's op latency; the dispatch figures move
# ops_per_s of the dispatch workloads (hours per second = ops_per_s x
# horizon). A lazy scipy import should move cli-cold only; reusing solved
# hours should move dispatch-periodic only, leave dispatch.linprog.calls at
# 24 on dispatch-network, and not raise peak_rss_mb.
MODULE_LAYERS = {
    "cli.main_ms": "cli",
    "datasets.load_ms": "datasets",
    "scenario_file.load_ms": "scenario_file",
    "profiles.apply_ms": "profiles",
    "projects.load_ms": "projects",
    "scenario.eval_ms": "scenario",
    "transmission.eval_ms": "transmission",
    "finance.eval_ms": "finance",
    "report.render_ms": "report",
}
FUNCTION_MS = {
    "dispatch.simulate_ms": "dispatch.simulate",
    "dispatch.min_cost_flow_self_ms": "dispatch.min_cost_flow",
    "dispatch.region_index_ms": "dispatch.DispatchNetwork.region_index",
    "dispatch.linprog_ms": "dispatch.linprog",
    "dispatch.export_csv_ms": "dispatch.export_csv",
}
FUNCTION_CALLS = {
    "scenario_file.load.calls": "scenario_file.load_scenario_file",
    "dispatch.min_cost_flow.calls": "dispatch.min_cost_flow",
    "dispatch.region_index.calls": "dispatch.DispatchNetwork.region_index",
    "dispatch.linprog.calls": "dispatch.linprog",
}
IMPORTS = {
    "import.gridecon_cli_ms": "gridecon.cli",
    "import.scipy_optimize_ms": "scipy.optimize",
    "import.numpy_ms": "numpy",
    "import.click_ms": "click",
}
PER_LAYER = (
    *((name, "ms", "lower") for name in IMPORTS),
    *((name, "ms", "lower") for name in MODULE_LAYERS),
    ("scenario_file.load.calls", "count", "lower"),
    ("dispatch.simulate_ms", "ms", "lower"),
    ("dispatch.min_cost_flow.calls", "count", "lower"),
    ("dispatch.min_cost_flow_self_ms", "ms", "lower"),
    ("dispatch.region_index.calls", "count", "lower"),
    ("dispatch.region_index_ms", "ms", "lower"),
    ("dispatch.linprog.calls", "count", "lower"),
    ("dispatch.linprog_ms", "ms", "lower"),
    ("dispatch.linprog.iterations", "count", "lower"),
    ("dispatch.linprog.a_eq_bytes", "bytes", "lower"),
    ("dispatch.linprog.a_eq_nnz", "count", "lower"),
    ("dispatch.distinct_hours_per_solve", "ratio", "higher"),
    ("dispatch.export_csv_ms", "ms", "lower"),
    ("dispatch.export_rows", "count", "higher"),
    ("trace.overhead_ms", "ms", "lower"),
)


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER],
    }


def environment(checkout: Path, seed: int) -> dict:
    """What a result depends on besides the workload: code, seed, machine, libraries."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(checkout).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (checkout / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    versions = {}
    for package in ("numpy", "scipy", "click"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
    }


def child_env(checkout: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(checkout / "src"))


def import_times(checkout: Path) -> dict[str, float]:
    """Median cumulative ms per module of ``import gridecon.cli`` in fresh processes."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_PROCESSES):
        child = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gridecon.cli"],
            cwd=checkout,
            env=child_env(checkout),
            capture_output=True,
            text=True,
            timeout=60,
        )
        if child.returncode != 0:
            sys.stderr.write(child.stderr[-4000:])
            raise SystemExit(f"import gridecon.cli failed with exit code {child.returncode}")
        for module, ms in parse_importtime(child.stderr).items():
            samples.setdefault(module, []).append(ms)
    return {module: statistics.median(ms) for module, ms in samples.items()}


def run_worker(checkout: Path, args, setup_only: bool) -> dict:
    """Start one worker process, wait for it, and return its result."""
    command = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    started = time.monotonic()
    child = subprocess.run(
        command + ["--started", repr(started)],
        cwd=checkout,
        env=child_env(checkout),
        capture_output=True,
        text=True,
        timeout=60 if setup_only else args.seconds + 120,
    )
    if child.returncode != 0 or not child.stdout.strip():
        sys.stderr.write(child.stderr[-4000:])
        raise SystemExit(f"{args.workload} worker failed with exit code {child.returncode}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def setup_times(checkout: Path, args, processes: int) -> tuple[list[float], list[float]]:
    """Set-up times of ``processes`` set-up-only workers, and the calibrations around them."""
    setups, calibrations = [], [calibration.in_fresh_process()]
    for _ in range(processes):
        setups.append(run_worker(checkout, args, setup_only=True)["setup_s"])
        calibrations.append(calibration.in_fresh_process())
    return setups, calibrations


def end_to_end(setups: list[float], result: dict) -> dict[str, float]:
    """The gated metrics: set-up and operation times scaled by the calibrations around them."""
    phase = result["phases"]["run"]
    latency = phase["latency"]
    return {
        "setup_s": statistics.median(setups),
        "op_latency_ms.p50": latency["p50"] * 1e3,
        "op_latency_ms.tail": latency["tail"] * 1e3,
        "ops_per_s": latency["n"] / phase["busy_s"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def per_layer(totals: dict, imports: dict[str, float], overhead_ms: float) -> dict[str, float]:
    """Per-operation layer figures from span totals.

    A figure whose span or counter never occurred is left out here, so that
    the caller can tell a layer the workload does not call from one that
    costs nothing.
    """
    ops = totals["ops"]
    calls, self_s, counters = totals["calls"], totals["self_s"], totals["counters"]
    metrics = {name: imports[module] for name, module in IMPORTS.items() if module in imports}
    for name, module in MODULE_LAYERS.items():
        spans = [s for span, s in self_s.items() if span.split(".")[0] == module]
        if spans:
            metrics[name] = sum(spans) * 1e3 / ops
    for name, span in FUNCTION_MS.items():
        if span in self_s:
            metrics[name] = self_s[span] * 1e3 / ops
    for name, span in FUNCTION_CALLS.items():
        if span in calls:
            metrics[name] = calls[span] / ops
    solves = calls.get("dispatch.linprog", 0)
    if solves:
        metrics["dispatch.linprog.iterations"] = counters.get("dispatch.linprog.iterations", 0) / ops
        for counter in ("a_eq_bytes", "a_eq_nnz"):
            if f"dispatch.linprog.{counter}" in counters:
                metrics[f"dispatch.linprog.{counter}"] = counters[f"dispatch.linprog.{counter}"] / solves
        metrics["dispatch.distinct_hours_per_solve"] = counters.get("dispatch.distinct_b_eq", 0) / solves
    if "dispatch.export_rows" in counters:
        metrics["dispatch.export_rows"] = counters["dispatch.export_rows"] / ops
    metrics["trace.overhead_ms"] = overhead_ms
    return {name: metrics[name] for name, _, _ in PER_LAYER if name in metrics}


def all_layers(observed: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric, reading 0 where never observed, and the names never observed.

    The result line must hold every per-layer metric on every workload.
    """
    unobserved = [name for name, _, _ in PER_LAYER if name not in observed]
    return {name: observed.get(name, 0.0) for name, _, _ in PER_LAYER}, unobserved


def traced_metrics(result: dict, imports: dict[str, float]) -> dict[str, float]:
    phases = result["phases"]
    overhead_ms = (phases["traced"]["latency"]["p50"] - phases["untraced"]["latency"]["p50"]) * 1e3
    return per_layer(result["trace"], imports, overhead_ms)


def report_lines(args, result: dict, metrics: dict, units: dict, unobserved: list[str]) -> list[str]:
    """Every metric with its unit and base, then the raw times the scaled ones come from."""
    phase = result["phases"].get("run") or result["phases"]["traced"]
    latency, raw = phase["latency"], phase["raw_latency"]
    setups = result.get("setups_s", [])
    notes = {
        "setup_s": f"scaled, median of {len(setups)} processes",
        "op_latency_ms.p50": f"scaled, n={latency['n']}",
        "op_latency_ms.tail": f"scaled, p{latency['tail_q'] * 100:.1f}, n={latency['n']}",
        "ops_per_s": f"scaled, n={latency['n']}",
    }
    lines = [f"{name} {value:.6g} {units[name]} {notes.get(name, '')}".rstrip() for name, value in metrics.items()]
    if args.trace:
        lines.append(f"missing {' '.join(unobserved) or '-'} (never called on {args.workload})")
    hours = result["info"].get("hours")
    if hours and not args.trace:
        lines.append(f"dispatch_hours_per_s {metrics['ops_per_s'] * hours:.6g} 1/s scaled, hours={hours}")
    lines.append(f"error_rate {result['failed'] / result['attempted']:.6g} ratio failed={result['failed']} attempted={result['attempted']}")
    if setups:
        lines.append(f"raw setup_s {statistics.median(setups):.6g} s")
    lines += [
        f"raw op_latency_ms.p50 {raw['p50'] * 1e3:.6g} ms",
        f"raw op_latency_ms.tail {raw['tail'] * 1e3:.6g} ms",
        f"raw ops_per_s {raw['n'] / phase['raw_busy_s']:.6g} 1/s",
        f"calibration_ms {statistics.median(phase['calibrations_s']) * 1e3:.6g} ms median of {len(phase['calibrations_s'])}",
        "input " + json.dumps(result["info"]),
    ]
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return
    if args.workload is None:
        parser.error("--workload is required")
    checkout = Path.cwd()
    required = [checkout / "src" / "gridecon" / "__init__.py", checkout / "tests" / "golden", checkout / "tests" / "test_cli.py"]
    missing = [str(path.relative_to(checkout)) for path in required if not path.exists()]
    if missing:
        raise SystemExit(f"not the root of a gridecon checkout: missing {', '.join(missing)}")

    if args.trace:
        result = run_worker(checkout, args, setup_only=False)
        metrics, unobserved = all_layers(traced_metrics(result, import_times(checkout)))
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        before = setup_times(checkout, args, SETUP_PROCESSES_BEFORE)
        result = run_worker(checkout, args, setup_only=False)
        after = setup_times(checkout, args, SETUP_PROCESSES_AFTER)
        result.update(setups_s=[], scaled_setups_s=[], setup_calibrations_s=[])
        for times, calibrations in (before, after):
            result["setups_s"] += times
            result["setup_calibrations_s"] += calibrations
            result["scaled_setups_s"] += calibration.scaled(
                times, list(range(len(times))), calibrations, calibration.PROCESS_REFERENCE_S
            )
        metrics = end_to_end(result["scaled_setups_s"], result)
        units = {name: unit for name, unit, _, _ in END_TO_END}
        unobserved = []

    env = environment(checkout, args.seed)
    for error in result["errors"]:
        print(f"error: {error}", file=sys.stderr)
    for line in report_lines(args, result, metrics, units, unobserved):
        print(line)
    print("env " + json.dumps(env))
    out_dir = checkout / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "env": env, "metrics": metrics, **result}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
