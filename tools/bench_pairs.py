#!/usr/bin/env python3
"""Compare two checkouts on the benchmark, run in alternating pairs.

Usage::

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload flight_elm2 [--workload sim_grid ...] --pairs 10 \\
        [--json-out BENCH.json]

Each pair runs ``perfbench/run.py`` once in each checkout, in its own
directory, on seed ``SEED`` for the ``run_seconds`` that the change's
``BENCHMARK.json`` sets: the parent first in even pairs and the change
first in odd ones, so a drift in machine speed falls on both sides alike.
For each end-to-end metric that ``BENCHMARK.json`` declares, it prints
both sides' medians and quartiles and the pairs the change won, that is
where its value is strictly better in the metric's direction.
``--json-out`` writes the same numbers, with every run's value, as one
JSON object.  A run that is not ``correct`` or fails operations is
reported and stops the comparison with exit 1.

Compiled bytecode left in one checkout would let that side skip
compiling and skew its set-up time and memory, so a checkout holding a
``__pycache__`` directory or a ``.pyc`` file under ``src/`` or
``perfbench/`` is refused with exit 1 before any run, and the runs
themselves write no bytecode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

#: The flight and grid seed of every run.
SEED = 5
#: The directories of a checkout that its runs import code from.
CODE_DIRS = ("src", "perfbench")


def compiled_bytecode(tree: Path):
    """The first ``__pycache__`` directory or ``.pyc`` file under
    :data:`CODE_DIRS` of ``tree``, or ``None``."""
    for name in CODE_DIRS:
        for path in sorted((tree / name).rglob("*")):
            if path.name == "__pycache__" or path.suffix == ".pyc":
                return path
    return None


def run_once(tree: Path, workload: str, seconds: int) -> dict:
    """The result object ``perfbench/run.py`` prints last in ``tree``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds)],
        cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{tree}: run.py exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{tree}: {workload} not correct: {lines[-1]}")
    return result


def spread(values: list[float]) -> dict:
    """Median and quartiles of ``values``, with the values themselves."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(parent: Path, change: Path, workload: str, pairs: int,
            seconds: int, metrics: list[dict]) -> dict:
    """Every end-to-end metric of ``pairs`` alternating runs."""
    runs = {"parent": [], "change": []}
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else \
            ("change", "parent")
        for side in order:
            tree = parent if side == "parent" else change
            runs[side].append(run_once(tree, workload, seconds))
        print(f"{workload}: pair {pair + 1}/{pairs}: " + "; ".join(
            f"{side} " + ", ".join(
                f"{name} {metric['value']:.4g}"
                for name, metric in runs[side][-1]["metrics"].items())
            for side in runs), file=sys.stderr)
    report = {}
    for metric in metrics:
        name = metric["name"]
        sides = {side: [run["metrics"][name]["value"] for run in results]
                 for side, results in runs.items()}
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0
                   for p, c in zip(sides["parent"], sides["change"]))
        report[name] = {"unit": metric["unit"], "better": metric["better"],
                        "parent": spread(sides["parent"]),
                        "change": spread(sides["change"]),
                        "change_wins": wins, "pairs": pairs}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--json-out", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds, metrics = benchmark["run_seconds"], benchmark["end_to_end"]
    for tree in (args.parent, args.change):
        stale = compiled_bytecode(tree)
        if stale is not None:
            print(f"error: {stale}: compiled bytecode in a checkout to "
                  "compare; remove it first", file=sys.stderr)
            return 1
    results = {}
    try:
        for workload in args.workload:
            results[workload] = compare(args.parent, args.change, workload,
                                        args.pairs, seconds, metrics)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for workload, report in results.items():
        for name, row in report.items():
            p, c = row["parent"], row["change"]
            print(f"{workload:24s} {name:12s} parent {p['median']:10.4g} "
                  f"[{p['q1']:.4g}, {p['q3']:.4g}]  change "
                  f"{c['median']:10.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
                  f"change wins {row['change_wins']}/{row['pairs']} "
                  f"({row['better']} is better, {row['unit']})")
    if args.json_out is not None:
        payload = {"seed": SEED, "seconds": seconds, "pairs": args.pairs,
                   "host": {"cpus": len(os.sched_getaffinity(0))
                            if hasattr(os, "sched_getaffinity")
                            else os.cpu_count(),
                            "python": platform.python_version(),
                            "numpy": np.__version__},
                   "workloads": results}
        args.json_out.write_text(json.dumps(payload, indent=2,
                                            sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
