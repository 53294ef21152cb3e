"""One benchmark process: set up a workload, then time its calls.

Run by ``run.py`` in a fresh interpreter per process, so ``setup_s`` and
the peak resident memory belong to this workload alone::

    python3 perfbench/workloads.py INPUTS.json RESULT.json SPAWNED BUDGET_S INDEX

``SPAWNED`` is the CLOCK_MONOTONIC time at which the parent started this
process; ``setup_s`` runs from there until the workload is set up, and is
then scaled by the host's speed like every call (see ``measure``).  The
process times calls until ``BUDGET_S`` seconds have passed since then
(at least one round), and writes its measurements to ``RESULT.json``.

Every workload drives ``nullkahler`` through its public API only, and
judges each operation by the gate the paper's criteria set.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: criterion-4 gate on the worst oracle/Cartan gap of one fixture
TWO_PATH_GATE = 1e-6
#: criterion-10 gates
REFERENCE_ERROR_GATE = 1e-3
MMS_ORDER_GATE = 1.9

#: seconds one ``Reference.run()`` takes at the reference speed; see
#: README, "Statistics"
REFERENCE_S = 0.04


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Reference:
    """Fixed work, independent of ``nullkahler``, that gauges the host's speed.

    It mixes what the workloads spend their time on: interpreted Python,
    batched small ``einsum`` products and elementwise math on a 256² grid.
    ``time()`` runs it once unpinned and once pinned to each CPU the process
    may use (the first four), and returns the mean wall time of one run:
    a threaded call runs on all of them, a serial one moves between them.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.batch = rng.random((50, 4, 4))
        self.grid = rng.random((256, 256))
        self.cpus = sorted(os.sched_getaffinity(0))
        self.run()  # first calls of numpy routines are slower

    def run(self):
        np = self.np
        total = 0
        for i in range(150_000):
            total += i * i
        for _ in range(500):
            np.einsum("pij,pjk->pik", self.batch, self.batch)
        for _ in range(8):
            np.sin(self.grid) * np.exp(self.grid) + self.grid
        return total

    def _timed_run(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0

    def time(self) -> float:
        times = [self._timed_run()]
        try:
            for cpu in self.cpus[:4]:
                os.sched_setaffinity(0, {cpu})
                times.append(self._timed_run())
        finally:
            os.sched_setaffinity(0, self.cpus)
        return sum(times) / len(times)


def import_program():
    """Import ``nullkahler`` from this checkout's ``src``, never elsewhere."""
    if not (SRC / "nullkahler" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no nullkahler sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nullkahler

    if Path(nullkahler.__file__).resolve().parent != SRC / "nullkahler":
        raise SystemExit(f"benchmark: imported nullkahler from {nullkahler.__file__}")


# Program functions are looked up through their modules at call time, so
# the tracer's patches apply to the benchmark's own calls as well.


class SuitePaper:
    """``run_suite`` on the seeded copy of ``fixtures/paper.cfg``.

    One operation per report check; a check fails when its ``pass``
    flag is false or the suite's exit code is not 0.
    """

    def __init__(self, inputs):
        from nullkahler import cli

        self.cli = cli
        self.config = inputs["config"]
        cli.load_config(self.config)
        self.report_sha256 = {}
        self.modes = (("run_s", lambda: self._call(serial=False)),
                      ("serial_s", lambda: self._call(serial=True)))

    def _call(self, serial):
        # the per-check console lines are part of the CLI's work; keep them
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.run_suite(self.config, serial=serial)

    def judge(self, mode, outcome):
        report, code = outcome
        digest = hashlib.sha256(self.cli.render_report(report).encode()).hexdigest()
        self.report_sha256.setdefault(mode, digest)
        return [bool(check["pass"]) and code == 0 for check in report["checks"]]


class TwoPath:
    """Oracle and Cartan curvature routes on the criterion-4 fixture set.

    One operation per fixture; it fails when the worst relative gap of
    ``path_agreement`` is at or above 1e-6.
    """

    def __init__(self, inputs):
        from nullkahler import curvature, dkp, geometry
        from nullkahler.fields import Chart, ExprField
        from nullkahler.nk_system import example_family
        from nullkahler.sampling import Box, SamplePlan

        chart4, chart3 = Chart(("w", "z", "x", "y")), Chart(("x", "y", "t"))
        box4 = Box(((-1, 1),) * 4)
        family3_box = Box(((-1, 1), (-1, 1), (-1, 1), (0.7, 1.7)))
        dkp_box = Box(((-1, 1), (-1, 1), (-1, 0.5), (-1, 1)))
        count, seed = inputs["count"], inputs["seed"]
        self.curvature = curvature

        def nk_fixture(theta, box):
            plan = SamplePlan(box, count, seed)
            return lambda: (geometry.nk_metric(theta), geometry.nk_coframe(theta), plan)

        def dkp_fixture(h_pot, w_pot):
            plan = SamplePlan(dkp_box, count, seed)
            return lambda: (dkp.build_metric(h_pot, w_pot),
                            geometry.dkp_coframe(h_pot, w_pot), plan)

        families = ((1, {"A": "y^2"}, box4), (2, {"P": "w*y", "Q": "y^2"}, box4),
                    (3, {"A": "s^2"}, family3_box), (4, {"A": "y^3"}, box4))
        self.fixtures = [nk_fixture(example_family(kind, params, box).theta, box)
                         for kind, params, box in families]
        self.fixtures += [nk_fixture(ExprField.from_text(text, chart4), box4)
                          for text in ("x^2*y^2", "x^2*y^2 + w*x*y + z*x^3/2")]
        h_pot = ExprField.from_text("-x^2/(2*(t-1))", chart3)
        self.fixtures += [dkp_fixture(h_pot, ExprField.from_text(text, chart3))
                          for text in ("-x/(t-1)", "x^3 + 2*x")]
        self.modes = (("run_s", self._call),)

    def _call(self):
        curvature = self.curvature
        worst = []
        for geometry in self.fixtures:
            metric, coframe, plan = geometry()
            pts = plan.points()
            gaps = curvature.path_agreement(curvature.oracle_report(metric, coframe, pts),
                                            curvature.cartan_report(coframe, pts))
            worst.append(max(gaps.values()))
        return worst

    def judge(self, mode, worst):
        return [gap < TWO_PATH_GATE for gap in worst]


class EvolveReference:
    """``reference_run_error`` on the criterion-10 reference problem.

    One operation per run; it fails on a relative error at or above 1e-3
    or on ``CFLError`` / ``BlowUpError``.
    """

    def __init__(self, inputs):
        from nullkahler import evolver

        self.evolver = evolver
        self.boundary = evolver.uniform_reference("t")
        self.grid = evolver.Grid2D(-1, 1, 256, -1, 1, 256)
        self.t_end = inputs["t_end"]
        self.modes = (("run_s", self._call),)

    def _call(self):
        try:
            return self.evolver.reference_run_error(self.boundary, self.grid, self.t_end)
        except (self.evolver.CFLError, self.evolver.BlowUpError):
            return None

    def judge(self, mode, error):
        return [error is not None and error < REFERENCE_ERROR_GATE]


class EvolveMMS:
    """``mms_convergence`` on two grids, gated on the observed order.

    One operation per run; it fails when an order is below 1.9.
    """

    def __init__(self, inputs):
        from nullkahler import evolver

        self.evolver = evolver
        self.resolutions = tuple(inputs["resolutions"])
        self.t_end = inputs["t_end"]
        self.modes = (("run_s", self._call),)

    def _call(self):
        return self.evolver.mms_convergence(self.resolutions, self.t_end)["orders"]

    def judge(self, mode, orders):
        return [all(order >= MMS_ORDER_GATE for order in orders)]


WORKLOADS = {
    "suite-paper": SuitePaper,
    "two-path": TwoPath,
    "evolve-reference": EvolveReference,
    "evolve-mms": EvolveMMS,
}


def measure(workload, spawned, budget_s, index, reference, tracer=None):
    """Time rounds of the workload's modes until the budget is spent.

    Without a tracer a round calls every mode once, in an order that
    alternates between rounds.  With one, a round calls the first mode
    once plainly and once traced, again alternating, and the tracer's
    layer metrics are taken from each traced call.

    The reference work runs before the first call and after every call.
    A call's time is its wall time scaled by ``REFERENCE_S`` over the mean
    of the two reference times around it: what the call would take on a
    host running at the reference speed.  Its wall time is kept as well.
    """
    times = {mode: [] for mode, _ in workload.modes}
    wall = {mode: [] for mode, _ in workload.modes}
    traced_times, layers = [], []
    attempted = failed = 0
    rounds = 0
    before = reference.time()
    while True:
        started = now()
        if tracer is None:
            plan = [(mode, call, False) for mode, call in workload.modes]
        else:
            mode, call = workload.modes[0]
            plan = [(mode, call, False), (mode, call, True)]
        if (rounds + index) % 2:
            plan.reverse()
        for mode, call, traced in plan:
            if traced:
                tracer.reset()
                tracer.install()
            t0 = time.perf_counter()
            try:
                outcome = call()
            finally:
                elapsed = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            after = reference.time()
            scaled = elapsed * 2.0 * REFERENCE_S / (before + after)
            before = after
            if traced:
                traced_times.append(scaled)
                layers.append(tracer.layer_metrics())
            else:
                times[mode].append(scaled)
                wall[mode].append(elapsed)
            verdicts = workload.judge(mode, outcome)
            attempted += len(verdicts)
            failed += verdicts.count(False)
        rounds += 1
        round_s = now() - started
        if now() - spawned + round_s > budget_s:
            break
    result = {
        "times": times,
        "wall_times": wall,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report_sha256": getattr(workload, "report_sha256", {}),
    }
    if tracer is not None:
        result["traced_times"] = traced_times
        result["layers"] = layers
    return result


def main(argv):
    inputs_path, result_path, spawned, budget_s, index = argv
    spawned, budget_s, index = float(spawned), float(budget_s), int(index)
    inputs = json.loads(Path(inputs_path).read_text())
    import_program()
    tracer = None
    if inputs["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    workload = WORKLOADS[inputs["workload"]](inputs)
    setup_s = now() - spawned
    # set-up is scaled like a call, by the reference work that follows it
    reference = Reference()
    speed = REFERENCE_S / statistics.median(reference.time() for _ in range(3))
    result = measure(workload, spawned, budget_s, index, reference, tracer)
    result["setup_s"] = setup_s * speed
    result["setup_wall_s"] = setup_s
    if tracer is not None and inputs.get("spans"):
        Path(inputs["spans"]).write_text(json.dumps(tracer.span_records()))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
