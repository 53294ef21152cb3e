"""Benchmark entry point for ``nullkahler``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a checkout.  The seed generates the
inputs (a copy of ``fixtures/paper.cfg`` with its seed replaced, the
two-path sample plans), which are handed to a few fresh interpreters in
turn (``workloads.py``), one after another.  Each measures its own
set-up, then times calls until its share of ``--seconds`` is spent.

The last line of standard output is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Any operation that fails its gate makes ``correct`` false; a process
that crashes makes the run exit 1 without a result.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import SRC, WORKLOADS, now

HERE = Path(__file__).resolve().parent

#: fresh interpreters per run; set-up is measured once in each
PROCESSES = 8

#: seconds a run may go on after ``--seconds`` before it is abandoned
GRACE_S = 120.0

#: inputs of each workload besides the seed
SIZES = {
    "suite-paper": {},
    "two-path": {"count": 100},
    "evolve-reference": {"t_end": 0.005},
    "evolve-mms": {"resolutions": [128, 256], "t_end": 0.001},
}

END_TO_END = (("run_s", "s"), ("serial_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def seeded_config(seed: int, work: Path) -> Path:
    """Copy of the shipped ``paper.cfg`` whose ``[suite]`` seed is ``seed``."""
    text = (SRC / "nullkahler" / "fixtures" / "paper.cfg").read_text()
    text, replaced = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", text)
    if replaced != 1:
        raise SystemExit("benchmark: paper.cfg does not have exactly one seed line")
    path = work / "paper.cfg"
    path.write_text(text)
    return path


def make_inputs(args, work: Path) -> dict:
    inputs = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "spans": str(Path(args.spans).resolve()) if args.spans else None,
              **SIZES[args.workload]}
    if args.workload == "suite-paper":
        inputs["config"] = str(seeded_config(args.seed, work))
    return inputs


def run_processes(inputs: dict, seconds: float, work: Path) -> list:
    inputs_path = work / "inputs.json"
    inputs_path.write_text(json.dumps(inputs))
    started = now()
    results = []
    for index in range(PROCESSES):
        budget = max(seconds - (now() - started), 0.0) / (PROCESSES - index)
        result_path = work / f"result-{index}.json"
        spawned = now()
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), str(inputs_path),
             str(result_path), repr(spawned), repr(budget), str(index)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(started + seconds + GRACE_S - spawned, 1.0))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit(f"benchmark: process {index} exited {proc.returncode}")
        results.append(json.loads(result_path.read_text()))
    return results


def spread(values) -> str:
    values = sorted(values)
    return (f"median {statistics.median(values):.6g} "
            f"(min {values[0]:.6g}, max {values[-1]:.6g}, n {len(values)})")


def end_to_end(results: list) -> dict:
    # the library-call workloads are serial by default: same measurement
    def calls(key, mode):
        return [t for r in results for t in r[key].get(mode, r[key]["run_s"])]

    samples = {
        "run_s": calls("times", "run_s"),
        "serial_s": calls("times", "serial_s"),
        "setup_s": [r["setup_s"] for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }
    for name, values in samples.items():
        print(f"{name}: {spread(values)}")
    print(f"wall run_s: {spread(calls('wall_times', 'run_s'))}; wall serial_s: "
          f"{spread(calls('wall_times', 'serial_s'))}; wall setup_s: "
          f"{spread([r['setup_wall_s'] for r in results])}")
    # medians over the run of reference-scaled times; see README, "Statistics"
    return {name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END}


def per_layer(results: list) -> dict:
    layers = [row for r in results for row in r["layers"]]
    plain = statistics.median(t for r in results for t in r["times"]["run_s"])
    traced = statistics.median(t for r in results for t in r["traced_times"])
    print(f"traced calls: {len(layers)}; median plain call {plain:.6g} s, "
          f"median traced call {traced:.6g} s (reference-scaled)")
    values = {name: statistics.median(row[name] for row in layers) for name in layers[0]}
    values["trace.overhead_frac"] = traced / plain - 1.0
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in LAYER_METRICS}


def report_sha256_line(results: list, seed: int) -> str:
    digests = {d for r in results for d in r["report_sha256"].values()}
    table = json.loads((HERE / "report_sha256.json").read_text())
    recorded = table["by_seed"].get(str(seed))
    if recorded is None:
        verdict = f"no value recorded at {table['commit']} for this seed"
    elif digests == {recorded}:
        verdict = f"same bytes as at {table['commit']}"
    else:
        verdict = f"bytes differ from {table['commit']} ({recorded})"
    return f"report.json sha256: {', '.join(sorted(digests))}; {verdict}"


def _terminate(signum, frame):
    # leave through SystemExit, so that subprocess.run kills and reaps the
    # running process and the work directory is removed
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write the last traced call's spans here")
    args = parser.parse_args(argv)
    if not (SRC / "nullkahler" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no nullkahler sources under {SRC}\n")
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=SRC.parent) as tmp:
        work = Path(tmp)
        results = run_processes(make_inputs(args, work), args.seconds, work)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"workload {args.workload}, seed {args.seed}: {len(results)} processes, "
          f"{attempted} operations, {failed} failed (fail_frac {failed / attempted:.6g})")
    if args.workload == "suite-paper":
        print(report_sha256_line(results, args.seed))
    metrics = per_layer(results) if args.trace else end_to_end(results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
