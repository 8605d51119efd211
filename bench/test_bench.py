"""Tests for the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import calibration
import run
from ring import hourly_demand, make_ring, network_size, reference_total_cost
from stats import latency_summary, nearest_rank, parse_importtime, self_times, tail_quantile

from gridecon.dispatch import simulate

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class TestRing:
    def test_same_seed_same_network(self):
        assert make_ring("7:0") == make_ring("7:0")

    def test_seeds_differ(self):
        assert make_ring("7:0") != make_ring("7:1")
        assert make_ring("7:0") != make_ring("8:0")

    def test_every_hour_distinct(self):
        network = make_ring("3:5")
        assert len({hourly_demand(network, t) for t in range(24)}) == 24

    def test_size(self):
        network = make_ring("1:0")
        assert network_size(network) == {"regions": 200, "links": 400, "lp_variables": 1600}
        pairs = {frozenset((ic.region_a, ic.region_b)) for ic in network.interconnectors}
        assert len(pairs) == 400

    def test_reference_lp_matches_dispatch(self):
        network = make_ring("2:0", n_regions=12, n_chords=6)
        dispatched = simulate(network, 24).total_cost_eur
        assert math.isclose(reference_total_cost(network), dispatched, rel_tol=1e-7)


class TestPercentiles:
    @pytest.mark.parametrize("n, q", [(11, 1 / 11), (20, 0.5), (40, 0.75), (100, 0.9), (5000, 0.9)])
    def test_tail_quantile(self, n, q):
        assert tail_quantile(n) == pytest.approx(q)

    @pytest.mark.parametrize("n", [11, 20, 37, 40, 99, 100, 101, 1000])
    def test_at_least_ten_samples_beyond_tail(self, n):
        values = list(range(n))
        tail = nearest_rank(values, tail_quantile(n))
        assert sum(v > tail for v in values) >= 10

    def test_highest_such_percentile_below_cap(self):
        values = list(range(40))
        assert nearest_rank(values, tail_quantile(40)) == 29  # exactly ten above it

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            tail_quantile(10)

    def test_summary(self):
        summary = latency_summary([float(v) for v in range(1, 101)])
        assert summary == {"p50": 50.5, "tail": 90.0, "tail_q": 0.9, "n": 100}


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("a.child", 2.0, 3.5, 1),
            ("b", 5.0, 9.0, 0),
        ]
        assert self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 4.0])

    def test_self_times_sum_to_root(self):
        spans = [("root", 0.0, 8.0, -1), ("a", 0.5, 2.0, 0), ("b", 2.0, 7.0, 0), ("c", 3.0, 4.0, 2)]
        assert sum(self_times(spans)) == pytest.approx(8.0)

    def test_per_layer_divides_by_operations(self):
        totals = {
            "ops": 2,
            "calls": {"dispatch.linprog": 48, "scenario_file.load_scenario_file": 2},
            "self_s": {"dispatch.linprog": 0.5, "report.render": 0.002, "report.Report.rendered_rows": 0.002},
            "counters": {"dispatch.distinct_b_eq": 24, "dispatch.linprog.a_eq_nnz": 4800},
        }
        metrics = run.per_layer(totals, {"numpy": 70.0}, 1.0)
        assert metrics["dispatch.linprog_ms"] == pytest.approx(250.0)
        assert metrics["dispatch.linprog.calls"] == 24
        assert metrics["dispatch.linprog.a_eq_nnz"] == 100
        assert metrics["dispatch.distinct_hours_per_solve"] == 0.5
        assert metrics["report.render_ms"] == pytest.approx(2.0)
        assert metrics["scenario_file.load.calls"] == 1
        assert metrics["import.numpy_ms"] == 70.0
        assert set(metrics) <= {name for name, _, _ in run.PER_LAYER}

    def test_layers_never_called_are_missing(self):
        totals = {"ops": 3, "calls": {"report.render": 3}, "self_s": {"report.render": 0.003}, "counters": {}}
        metrics = run.per_layer(totals, {"numpy": 70.0}, 1.0)
        assert metrics == {"import.numpy_ms": 70.0, "report.render_ms": pytest.approx(1.0), "trace.overhead_ms": 1.0}

    def test_result_holds_every_layer(self):
        totals = {"ops": 3, "calls": {"report.render": 3}, "self_s": {"report.render": 0.003}, "counters": {}}
        metrics, unobserved = run.all_layers(run.per_layer(totals, {"numpy": 70.0}, 1.0))
        assert list(metrics) == [name for name, _, _ in run.PER_LAYER]
        assert metrics["report.render_ms"] == pytest.approx(1.0)
        assert "report.render_ms" not in unobserved and "import.numpy_ms" not in unobserved
        assert "dispatch.linprog.calls" in unobserved and metrics["dispatch.linprog.calls"] == 0.0


def test_tracing_keeps_output_and_counts_calls():
    # In a child process: installing the tracer rewires gridecon's modules.
    code = textwrap.dedent(
        """
        import json
        import gridecon.dispatch as dispatch
        from gridecon import datasets
        from tracer import Tracer

        network = datasets.load_bundled_scenario("smoothing").require("network")
        plain = dispatch.export_csv(dispatch.simulate(network, 48))
        tracer = Tracer()
        tracer.install()
        traced = dispatch.export_csv(dispatch.simulate(network, 48))
        tracer.end_op()
        print(json.dumps({"same": plain == traced, "lines": plain.count("\\n"), **tracer.totals()}))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(REPO / "src"), str(BENCH))))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    totals = json.loads(child.stdout)
    assert totals["same"]
    assert totals["ops"] == 1
    assert totals["calls"]["dispatch.simulate"] == 1
    assert totals["calls"]["dispatch.min_cost_flow"] == totals["calls"]["dispatch.linprog"] == 48
    assert totals["counters"]["dispatch.export_rows"] == totals["lines"]
    assert totals["counters"]["dispatch.linprog.a_eq_nnz"] == 48 * 10
    assert all(s >= 0 for s in totals["self_s"].values())


class TestCalibration:
    def test_scaled_by_mean_of_neighbours(self):
        # Calibrations of 20 and 10 ms around a 300 ms operation: the machine ran
        # at two thirds of the reference speed, so the operation scales to 200 ms.
        assert calibration.scaled([0.3, 0.1], [0, 1], [0.02, 0.01, 0.01], 0.01) == pytest.approx([0.2, 0.1])

    def test_block_shares_its_calibrations(self):
        scaled = calibration.scaled([0.3, 0.6, 0.1], [0, 0, 1], [0.02, 0.01, 0.01], 0.01)
        assert scaled == pytest.approx([0.2, 0.4, 0.1])

    def test_last_block_needs_a_calibration_after_it(self):
        with pytest.raises(ValueError):
            calibration.scaled([0.3, 0.1], [0, 1], [0.02, 0.01], 0.01)

    def test_job_runs(self):
        assert 0 < calibration.in_process() < 10


def test_parse_importtime():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |   numpy._utils\n"
        "import time:      1500 |      70500 | numpy\n"
    )
    assert parse_importtime(stderr) == {"numpy._utils": 0.12, "numpy": 70.5}


class TestNames:
    def test_names_match_pattern(self):
        manifest = run.manifest()
        names = [w["name"] for w in manifest["workloads"]]
        names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
        assert all(NAME_RE.fullmatch(name) for name in names), names
        assert len(names) == len(set(names))

    def test_committed_manifest_is_current(self):
        assert json.loads((REPO / "BENCHMARK.json").read_text()) == run.manifest()
