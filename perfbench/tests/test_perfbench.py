"""Self-test of the benchmark: exact counts, repeatable counters, clean
patching, and refusal to run without the program.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

workloads.import_program()


def traced(workload, mode="run_s"):
    """Layer metrics and raw counters of one traced call of ``mode``."""
    call = dict(workload.modes)[mode]
    tracer = Tracer()
    tracer.install()
    try:
        outcome = call()
    finally:
        tracer.uninstall()
    assert all(workload.judge(mode, outcome))
    return tracer.layer_metrics(), tracer.counts()


def counters(metrics):
    units = {name: unit for name, unit, _, _ in LAYER_METRICS}
    return {name: value for name, value in metrics.items() if units[name] == "count"}


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    config = run.seeded_config(20240, tmp_path_factory.mktemp("suite"))
    return workloads.SuitePaper({"config": str(config)})


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == [(name, unit) for name, unit, _, _ in LAYER_METRICS])
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {name for name, _ in run.END_TO_END}
    assert [w["name"] for w in spec["workloads"]] == list(run.SIZES)


def test_suite_paper_counts_every_binding_site(suite):
    metrics, _ = traced(suite)
    # 7 nk fixtures x 3 + 5 dkp fixtures x 2; cli imports both by name
    assert metrics["curvature.coordinate_curvature_calls"] == 31
    assert metrics["curvature.oracle_report_calls"] == 12
    assert metrics["cli.fixture_busy_s"] >= metrics["cli.slowest_fixture_s"] > 0
    assert metrics["evolver.steps"] == 0


def test_counters_repeat_across_runs_and_thread_modes(suite):
    first, raw_first = traced(suite)
    second, raw_second = traced(suite)
    serial, raw_serial = traced(suite, "serial_s")
    assert raw_first == raw_second == raw_serial
    assert counters(first) == counters(second) == counters(serial)


def test_two_path_counts_both_routes():
    workload = workloads.TwoPath({**run.SIZES["two-path"], "seed": 1})
    metrics, _ = traced(workload)
    fixtures = len(workload.fixtures)
    assert metrics["curvature.oracle_report_calls"] == fixtures
    assert metrics["curvature.coordinate_curvature_calls"] == fixtures
    assert metrics["curvature.spin_connection_self_s"] > 0
    assert metrics["numpy.linalg_solve_s"] > 0


def test_evolve_reference_mesh_calls():
    workload = workloads.EvolveReference(run.SIZES["evolve-reference"])
    metrics, _ = traced(workload)
    steps = metrics["evolver.steps"]
    assert steps > 0
    assert metrics["evolver.mesh_calls"] == 5 * steps + 2
    assert metrics["evolver.stage_self_ms"] > 0


def test_evolve_mms_mesh_calls():
    sizes = run.SIZES["evolve-mms"]
    workload = workloads.EvolveMMS(sizes)
    metrics, _ = traced(workload)
    steps = metrics["evolver.steps"]
    assert steps > 0
    assert metrics["evolver.mesh_calls"] == 9 * steps + 2 * len(sizes["resolutions"])


def test_uninstall_restores_every_binding():
    import numpy as np
    import nullkahler
    from nullkahler import cli, curvature, evolver

    before = (np.einsum, np.linalg.solve, cli.oracle_report, nullkahler.oracle_report,
              curvature.coordinate_curvature, evolver.Grid2D.mesh)
    tracer = Tracer()
    tracer.install()
    assert cli.oracle_report is curvature.oracle_report is not before[2]
    assert np.einsum is not before[0]
    tracer.uninstall()
    after = (np.einsum, np.linalg.solve, cli.oracle_report, nullkahler.oracle_report,
             curvature.coordinate_curvature, evolver.Grid2D.mesh)
    assert after == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evolve-mms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
