"""suascal benchmark: whole CLI commands on seeded inputs, one at a time.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs one CLI command in a fresh child interpreter with the
repository's ``src`` on ``PYTHONPATH`` (as the test suite does), through
``suascal.cli.main``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a human-readable summary.  Generated inputs and outputs live
in ``.perfbench_work/`` under the repository root and are removed at exit.

Workloads (see ``WORKLOADS``):

* ``flight_elm2`` - ``reflect --method elm2 --selection dls`` on a 1280x960
  flight of 3 calibration and 12 field frames with fixed per-band
  metadata.  Every imagery layer runs; radiance does most of the work and
  calibration frames are converted twice, so radiance reuse shows here.
* ``flight_convert_autoexp`` - ``convert`` on a flight of the same size with
  exposure and gain drawn per frame and band, as auto-exposure produces:
  decode, radiance and write with little shared calibration.  ``convert``
  holds every plane until its log is written, so this guards memory.
* ``sim_grid`` - ``simulate`` on the default 1920-cell grid; no imagery.

An operation is one image on a flight and one grid cell on ``sim_grid``.
It fails if the command exits non-zero, names it in its failures, leaves
its output missing, or the output fails the oracle (``oracle.py``).  The
first repetition's outputs get the full oracle after the timed loop; later
repetitions must reproduce its report and output files.

End-to-end metrics (``--trace 0``), medians over repetitions:

* ``setup_s`` - child start until ``suascal.cli`` is imported and the
  arguments are parsed; extra set-up-only children add samples.
* ``ops_per_s`` - operations over the command's wall time after set-up.
  ``mpx_per_s`` (raw band megapixels) and ``cells_per_s`` are printed on
  the summary lines; they are fixed multiples of it.
* ``peak_rss_mb`` - the child's peak resident set size.

Per-layer metrics (``--trace 1``) come from the traced repetition with the
median wall time; ``BENCHMARK.json`` lists them.  Names are
``<module>.<function>.calls`` and ``.self_s`` (see ``spans.py``), plus
rates.  The layer self times plus ``cli.self_s`` add up to
``trace.wall_s``; ``trace.overhead_ratio`` is that traced wall over the
untraced median of the same run.  Which ``ops_per_s`` each should move:

* ``imageio.read_pgm16.*``, ``imageio.write_plane.*`` and
  ``manifest.load_manifest.self_s``: both flights.
* ``radiance.dc_to_radiance.*`` and ``radiance.useful_ratio`` (distinct
  band frames over conversions, 75/90 on ``flight_elm2``): calls and self
  time on ``flight_elm2``, self time only on ``flight_convert_autoexp``,
  nothing on ``sim_grid``.
* ``reflectance.*`` (``out_of_range_fraction`` runs twice per plane written,
  ``dls_correct`` 6 times per image): ``flight_elm2`` only.
* ``rsr.band_effective.*`` and ``simulate.*`` (``simulate.summary.self_s``
  covers ``summary_rows``, ``band_statistics`` and
  ``grouped_absolute_error``): ``sim_grid``.
* ``cli.self_s``: orchestration, reports and CSV writing, which on
  ``sim_grid`` is mostly the 38,400-row ``errors.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from flight import N_BANDS, FlightSpec, build_flight
from oracle import BAD_OUTPUT, FlightOracle, SimulationOracle
from spans import TARGETS, span_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
#: Metric names and units; the benchmark prints exactly these.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CHILD_TIMEOUT_S = 120
#: Timed repetitions never fall below this, whatever ``--seconds`` says.
MIN_REPS = 3
#: Set-up-only children started before each timed repetition.
SETUP_PROBES_PER_REP = 2


@dataclass(frozen=True)
class Workload:
    command: str
    flight: Optional[FlightSpec] = None


WORKLOADS = {
    "flight_elm2": Workload("reflect", FlightSpec()),
    "flight_convert_autoexp": Workload("convert",
                                       FlightSpec(auto_exposure=True)),
    "sim_grid": Workload("simulate"),
}


def run_child(argv: list[str], *, trace: bool = False,
              setup_only: bool = False) -> dict:
    """Run one command in a fresh interpreter; returns its timings."""
    result_path = WORK / "child_result.json"
    result_path.unlink(missing_ok=True)
    config = {"argv": argv, "result": str(result_path), "trace": trace,
              "setup_only": setup_only}
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    with (WORK / "child_stderr.txt").open("w") as stderr:
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(config)],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=stderr,
                timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print(f"command {argv[0]} killed after {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return {"exit": -1}
    result = {"exit": proc.returncode}
    if proc.returncode == 0 and result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["exit"] != 0 or result.get("parsed") is None:
        tail = (WORK / "child_stderr.txt").read_text()[-2000:]
        print(f"command {argv[0]} exited {result['exit']}: {tail}",
              file=sys.stderr)
        return {"exit": result["exit"] or 1}
    result["setup_s"] = result["parsed"] - spawn
    result["wall_s"] = result["end"] - result["parsed"]
    return result


def repeat(budget_s: float, min_reps: int, step) -> list:
    """Call ``step`` at least ``min_reps`` times and while ``budget_s``
    has not run out."""
    results = []
    start = time.monotonic()
    while len(results) < min_reps or time.monotonic() - start < budget_s:
        results.append(step())
    return results


class Session:
    """Inputs, repetitions and checks of one workload run."""

    def __init__(self, name: str, seed: int):
        self.seed = seed
        self.workload = WORKLOADS[name]
        spec = self.workload.flight
        self.manifest = None
        self.sim = None
        if spec is not None:
            self.manifest = build_flight(WORK / "flight", seed, spec)
            self.operations = [img["image_id"] for img in json.loads(
                self.manifest.read_text(encoding="utf-8"))["images"]]
        else:
            self.sim = SimulationOracle()
            self.operations = self.sim.cells
        self.checked = WORK / "checked"
        self.checked_failed: Optional[set] = None
        self.first_report = None
        self.attempted = 0
        self.failed = 0
        self.setup: list[float] = []
        # Compiles the package's bytecode, which users have already paid.
        run_child(self.argv(WORK / "setup_probe"), setup_only=True)

    def argv(self, out: Path) -> list[str]:
        command = self.workload.command
        if command == "reflect":
            return ["reflect", "--manifest", str(self.manifest), "--out",
                    str(out), "--method", "elm2", "--selection", "dls"]
        if command == "convert":
            return ["convert", "--manifest", str(self.manifest), "--out",
                    str(out)]
        return ["simulate", "--out", str(out)]

    def report_name(self) -> str:
        return {"reflect": "reflectance_report.json",
                "convert": "conversion_log.json"}[self.workload.command]

    def _light_check_flight(self, out: Path) -> set:
        """Failed images: named in failures, a record that differs from the
        first repetition's, or a plane file missing or of the wrong size."""
        try:
            report = json.loads((out / self.report_name()).read_text(
                encoding="utf-8"))
            records, failures = report["images"], report["failures"]
        except BAD_OUTPUT:
            return set(self.operations)
        if self.first_report is None:
            self.first_report = records
        spec = self.workload.flight
        plane_bytes = spec.width * spec.height * 4
        failed = set()
        for image_id in self.operations:
            record = records.get(image_id)
            if (image_id in failures or record is None
                    or record != self.first_report.get(image_id)):
                failed.add(image_id)
                continue
            for band in record["bands"].values():
                plane = out / band["path"]
                if not plane.exists() or plane.stat().st_size != plane_bytes:
                    failed.add(image_id)
        return failed

    def rep(self, trace: bool) -> dict:
        """One timed repetition, preceded by set-up-only probes so that
        set-up samples spread over the whole run."""
        for _ in range(SETUP_PROBES_PER_REP):
            probe = run_child(self.argv(WORK / "setup_probe"),
                              setup_only=True)
            if probe["exit"] == 0:
                self.setup.append(probe["setup_s"])
        out = WORK / "out"
        shutil.rmtree(out, ignore_errors=True)
        result = run_child(self.argv(out), trace=trace)
        if result["exit"] != 0:
            failed = set(self.operations)
        elif self.sim is not None:
            failed = self.sim.check(out, rng=None)
        else:
            failed = self._light_check_flight(out)
        self.attempted += len(self.operations)
        self.failed += len(failed)
        if self.checked_failed is None and result["exit"] == 0:
            out.rename(self.checked)
            self.checked_failed = failed
        return result

    def full_check(self) -> bool:
        """Oracle on the first successful repetition's outputs, then the
        self-check that the oracle rejects a perturbed output.  Returns
        whether both ran and the self-check held; operations the oracle
        fails are added to ``failed``."""
        if self.checked_failed is None:
            return False
        if self.sim is not None:
            rng = np.random.default_rng(self.seed)
            failed = self.sim.check(self.checked, rng)
            self_check = self.sim.rejects_perturbed_row()
        else:
            oracle = FlightOracle(self.manifest)
            if self.workload.command == "reflect":
                failed = oracle.check_reflect(self.checked)
            else:
                failed = oracle.check_convert(self.checked)
            self_check = oracle.rejects_perturbed_plane()
        failed -= self.checked_failed
        self.failed += len(failed)
        if failed:
            print(f"oracle: {len(failed)} operations failed, for example "
                  f"{sorted(map(str, failed))[:3]}", file=sys.stderr)
        if not self_check:
            print("oracle self-check: a perturbed output was accepted",
                  file=sys.stderr)
        return self_check


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end_metrics(session: Session, reps: list[dict]) -> dict:
    ops = len(session.operations)
    values = {"setup_s": session.setup + [r["setup_s"] for r in reps],
              "ops_per_s": [ops / r["wall_s"] for r in reps],
              "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in reps]}
    for name, samples in values.items():
        q1, q2, q3 = quartiles(samples)
        print(f"{name}: median {q2:.6g} (q1 {q1:.6g}, q3 {q3:.6g}) over "
              f"{len(samples)} samples")
    rate = statistics.median(values["ops_per_s"])
    spec = session.workload.flight
    if spec is None:
        print(f"cells_per_s: {rate:.6g}")
    else:
        mpx_per_image = spec.width * spec.height * N_BANDS / 1e6
        print(f"mpx_per_s: {rate * mpx_per_image:.6g}")
    return {name: statistics.median(samples)
            for name, samples in values.items()}


def layer_metrics(session: Session, traced: dict, untraced_wall_s: float
                  ) -> dict:
    trace = traced["trace"]
    functions = trace["functions"]
    spec = session.workload.flight
    frame_px = spec.width * spec.height if spec else 0

    def calls(name):
        return functions.get(name, {}).get("calls", 0)

    def self_s(name):
        return functions.get(name, {}).get("self_s", 0.0)

    def rate(name, per_call):
        return calls(name) * per_call / self_s(name) if self_s(name) else 0.0

    metrics = {}
    for module, function in TARGETS:
        name = span_name(module, function)
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    conversions = calls("radiance.dc_to_radiance")
    summary = ("simulate.summary_rows", "simulate.band_statistics",
               "simulate.grouped_absolute_error")
    metrics.update({
        "imageio.read_pgm16.mb_per_s":
            rate("imageio.read_pgm16", frame_px * 2 / 1e6),
        "imageio.write_plane.mb_per_s":
            rate("imageio.write_plane", frame_px * 4 / 1e6),
        "radiance.dc_to_radiance.mpx_per_s":
            rate("radiance.dc_to_radiance", frame_px / 1e6),
        # Every band frame of the flight needs converting exactly once.
        "radiance.useful_ratio":
            spec.band_frames / conversions if conversions else 0.0,
        "simulate.summary.self_s": sum(map(self_s, summary)),
        "cli.self_s": traced["wall_s"] - trace["top_level_s"],
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_ratio": traced["wall_s"] / untraced_wall_s,
    })
    print(f"traced wall {traced['wall_s']:.4f} s, untraced median "
          f"{untraced_wall_s:.4f} s, {trace['spans']} spans")
    return metrics


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Measure one workload; returns the result object."""
    session = Session(name, seed)
    if trace:
        plain = repeat(seconds / 2, 1, lambda: session.rep(False))
        traced = repeat(seconds / 2, 1, lambda: session.rep(True))
    else:
        plain = repeat(seconds, MIN_REPS, lambda: session.rep(False))
        traced = []
    oracle_ok = session.full_check()
    print(f"{name} seed {seed}: walls " + " ".join(
        f"{r['wall_s']:.3f}" if r["exit"] == 0 else "failed"
        for r in plain + traced) + (" (last ones traced)" if trace else ""))
    print(f"failed_ratio: {session.failed}/{session.attempted}")

    correct = oracle_ok and session.failed == 0 and all(
        r["exit"] == 0 for r in plain + traced)
    plain = [r for r in plain if r["exit"] == 0]
    traced = sorted((r for r in traced if r["exit"] == 0),
                    key=lambda r: r["wall_s"])
    metrics = {}
    if trace and plain and traced:
        untraced = statistics.median(r["wall_s"] for r in plain)
        metrics = layer_metrics(session, traced[(len(traced) - 1) // 2],
                                untraced)
    elif plain and not trace:
        metrics = end_to_end_metrics(session, plain)
    group = SPEC["per_layer" if trace else "end_to_end"]
    return {"correct": correct and bool(metrics),
            "attempted": session.attempted, "failed": session.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]}
                        for m in group if metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "suascal" / "cli.py").is_file():
        print(f"error: {SRC / 'suascal'} not found; run the benchmark from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
