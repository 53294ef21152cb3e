"""Alternating paired runs of the benchmark on two checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --workload NAME [--workload NAME ...]
        --seed N [--json OUT]

PARENT and CHANGE are the roots of two checkouts, each with its own
``perfbench/`` and ``BENCHMARK.json`` (make each with
``git archive <commit> | tar -x -C DIR``).  They must be sibling
directories of one parent directory, since a run's ``peak_rss_mb``
follows the checkout's location as well as its code, and their
benchmark files must be identical, so both sides are measured by the
same code.  Each of
``PAIRS`` pairs runs ``perfbench/run.py --workload NAME --seed N
--seconds S`` once in each checkout, one after the other, the parent
first in even pairs; ``S`` is ``run_seconds`` of ``BENCHMARK.json``.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles over the pairs (``statistics.quantiles(n=4)``), how
many pairs the change won (ties count for neither side), whether the
paired-run rule for claiming a gain holds (the change wins at least nine
tenths of the pairs, and the medians differ in the better direction by
more than the parent's interquartile range), and how the change stands
against the metric's bound, a fraction of the parent's median: "within"
or "beyond" by the medians, or "unresolved" when the parent's
interquartile range is wider than the bound, unless every change run
reads better than every parent run.  ``--json`` writes every run's
metrics and these verdicts, one entry per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: files both checkouts must have byte for byte
BENCHMARK_FILES = ("BENCHMARK.json", "perfbench/run.py",
                   "perfbench/workloads.py", "perfbench/tracer.py")

#: pairs per workload: the fewest the paired-run rule accepts
PAIRS = 10


def verdict(parent, change, better: str, bound: float) -> dict:
    """The paired-run comparison of one metric: ``parent[k]`` and
    ``change[k]`` are pair k's values, ``better`` is "lower" or "higher"
    and ``bound`` the fraction of the parent's median by which the
    change's median may be worse."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = (statistics.quantiles(values, n=4)
                                  for values in (parent, change))
    gain = sign * (pm - cm)
    if p3 - p1 > bound * abs(pm) and not all(
            sign * (p - c) > 0 for p in parent for c in change):
        against_bound = "unresolved"
    else:
        against_bound = "within" if -gain <= bound * abs(pm) else "beyond"
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "relative_change": (cm - pm) / pm,
        "wins": wins, "losses": losses, "pairs": len(parent),
        "gain_claimable": wins >= 0.9 * len(parent) and gain > p3 - p1,
        "against_bound": against_bound,
    }


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object that one ``perfbench/run.py`` run in ``root``
    prints last."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds)],
        cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"bench_pairs: run in {root} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pairs(roots: dict, workload: str, seed: int, seconds: float) -> list:
    """``PAIRS`` dicts {"parent": result, "change": result}, run in
    alternating order."""
    runs = []
    for k in range(PAIRS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        runs.append({side: run_once(roots[side], workload, seed, seconds)
                     for side in order})
        print(f"{workload} pair {k + 1}/{PAIRS}: " + ", ".join(
            f"{side} run_s {runs[-1][side]['metrics']['run_s']['value']:.6g}"
            for side in order), flush=True)
    return runs


def compare(runs: list, metrics: list) -> dict:
    """Per end-to-end metric of ``BENCHMARK.json``, the ``verdict`` of
    ``runs``, plus whether every run was correct."""
    rows = {"all_correct": all(run[side]["correct"] for run in runs
                               for side in run)}
    for metric in metrics:
        name = metric["name"]
        values = {side: [run[side]["metrics"][name]["value"] for run in runs]
                  for side in ("parent", "change")}
        rows[name] = verdict(values["parent"], values["change"],
                             metric["better"], metric["bound"])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if roots["parent"].parent != roots["change"].parent:
        parser.error(f"the checkouts must be sibling directories: PARENT is "
                     f"in {roots['parent'].parent}, CHANGE in "
                     f"{roots['change'].parent}")
    for name in BENCHMARK_FILES:
        if (roots["parent"] / name).read_bytes() != (roots["change"] / name).read_bytes():
            parser.error(f"{name} differs between the checkouts")
    benchmark = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    record = {"seed": args.seed, "seconds": seconds, "pairs": PAIRS,
              "workloads": {}}
    for workload in args.workload:
        runs = run_pairs(roots, workload, args.seed, seconds)
        rows = compare(runs, benchmark["end_to_end"])
        record["workloads"][workload] = {"verdicts": rows, "runs": runs}
        print(f"{workload}: every run correct: {rows['all_correct']}")
        for metric in benchmark["end_to_end"]:
            row = rows[metric["name"]]
            p, c = row["parent"], row["change"]
            print(f"  {metric['name']}: parent {p['median']:.6g} "
                  f"[{p['q1']:.6g}, {p['q3']:.6g}], change {c['median']:.6g} "
                  f"[{c['q1']:.6g}, {c['q3']:.6g}]; change wins "
                  f"{row['wins']}/{row['pairs']} (loses {row['losses']}); "
                  f"gain claimable: {row['gain_claimable']}; "
                  f"against bound {metric['bound']}: {row['against_bound']}")
    if args.json is not None:
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
