"""Command-line entry point: convert, reflect, simulate, evaluate, rsr, ndvi.

Exit status contract: 0 success, 1 usage or configuration error, 2 partial
data failure (some images or grid cells processed, some failed), 3 total
failure (every image or cell failed, or memory ran out), 130 interrupted
(an imagery command first removes every file it wrote).  Batch commands
continue past per-image errors and skipped cells and name them in their
log file; all outputs are byte-identical across reruns of identical
inputs.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import CurveError, ManifestError, MetadataError, SuascalError
from .evaluate import (ERROR_STATISTICS, METHOD_LEVELS, aggregate, ndvi,
                       read_samples, write_csv, write_reports)
from .imageio import (pgm16_header, read_pgm16, read_plane, rows_writer,
                      sidecar_path, write_plane, write_sidecar)
from .jsonread import json_field, json_value, read_json, write_json
from .manifest import BandEntry, ImageEntry, load_manifest
from .parts import part_runs, removed_on_error, run_parts
from .radiance import (ROW_BLOCK, RawImage, RowModel, Vignette,
                       _build_vignette, _row_model, convert_band)
from .reflectance import (N_BANDS, SELECTION_MODES, ReflectanceImage,
                          aarr_map, check_panel, elm_line, line_map,
                          panel_band_reflectance, panel_means, pgm_counts,
                          select_calibration, selection_metric)
from .rsr import (DEFAULT_SHIFT_SCALE, MonochromatorRun, SpectralCurve,
                  is_degenerate, normalize_counts, peak_normalize,
                  relative_response, write_spectral_curve)
from .simulate import SimulationGrid, run_study

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_TOTAL = 3
EXIT_INTERRUPTED = 130

RADIANCE_UNITS = "W/m^2/sr/nm"


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    partial data failures, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _stream_band(task: _BandTask, raw: RawImage, vignette: Vignette,
                 units: str, post_map=None,
                 pgm_scale: float | None = None) -> dict:
    """Convert a task's band-frame block by block into its float32 plane
    and, with ``pgm_scale``, into its 16-bit PGM of the scaled plane; the
    sidecar follows the last block.

    Returns the band's record: the names of its plane and PGM, the pixels
    clamped and saturated, and with a ``post_map`` the share out of [0, 1].
    """
    height, width = raw.pixels.shape
    path = task.files[0]
    record = {"path": path.name}
    with ExitStack() as files:
        plane = rows_writer(files.enter_context(path.open("wb")), "<f4")
        sink = plane
        if pgm_scale is not None:
            record["pgm"] = task.files[2].name
            handle = files.enter_context(task.files[2].open("wb"))
            handle.write(pgm16_header(width, height))
            pgm = rows_writer(handle, ">u2")
            scratch = np.empty((min(ROW_BLOCK, height), width))

            def sink(block: np.ndarray) -> None:
                plane(block)
                pgm(pgm_counts(block, pgm_scale, out=scratch[:len(block)]))

        counts = convert_band(raw, task.band.metadata, sink, post_map,
                              vignette=vignette)
    write_sidecar(path, (height, width), raw.band_index, units)
    record.update(clamped_pixels=counts.clamped,
                  saturated_pixels=counts.saturated)
    if post_map is not None:
        record["out_of_range_fraction"] = counts.out_of_range_fraction
    return record


def _batch_exit(ok: int, failed: int) -> int:
    if failed == 0:
        return EXIT_OK
    return EXIT_TOTAL if ok == 0 else EXIT_PARTIAL


def _without_tracebacks(exc: Exception) -> Exception:
    """``exc`` with no traceback along its ``__context__`` and
    ``__cause__`` chain, so a kept outcome holds no frame alive."""
    chain, seen = [exc], set()
    while chain:
        link = chain.pop()
        if link is not None and link not in seen:
            seen.add(link)
            link.__traceback__ = None
            chain += link.__context__, link.__cause__
    return exc


def _workers() -> int:
    """Workers for the band pass and the simulation sweep: the CPUs this
    process may run on, at most 4."""
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return min(usable, 4)


@dataclass
class _BandTask:
    """One band-frame of one image, naming its lens model and the files it
    writes."""

    #: Position of the image in the list it was planned from.
    image: int
    #: Position of the band in the image's manifest order.
    position: int
    band: BandEntry
    #: The band's lens model: its center and coefficient bytes.
    lens: tuple
    #: The row model of every band-frame of the lens when they share one,
    #: which its maps then hold; otherwise ``None``.
    rows: RowModel | None = None
    #: Its plane, sidecar and, with ``--write-pgm``, PGM.
    files: tuple[Path, ...] = ()
    #: Its record or the exception it raised; ``None`` if it did not run.
    outcome: object = None


def _plan_bands(out: Path, entries, pgm: bool = False) -> list[_BandTask]:
    """One task per band-frame of ``entries``, naming its files in ``out``,
    its PGM only with ``pgm``.

    The tasks run band-major: for each band the frames of one lens model
    back to back, in manifest order, so each map is needed for one stretch
    only.
    """
    tasks, first, rows = [], {}, {}
    for i, entry in enumerate(entries):
        for j, band in enumerate(entry.bands):
            model = band.metadata.vignette
            lens = (model.center_x, model.center_y,
                    model.coefficients.tobytes())
            first.setdefault((band.band_index, lens), len(first))
            row_model = _row_model(band.metadata)
            rows[lens] = (row_model if rows.get(lens, row_model) == row_model
                          else None)
            plane = out / f"{entry.image_id}_b{band.band_index}.f32"
            files = (plane, sidecar_path(plane),
                     plane.with_suffix(".pgm"))[:3 if pgm else 2]
            tasks.append(_BandTask(i, j, band, lens, files=files))
    for task in tasks:
        task.rows = rows[task.lens]
    return sorted(tasks, key=lambda task: (
        task.band.band_index, first[task.band.band_index, task.lens]))


def _image_pass(entries, tasks: list[_BandTask], write_band,
                errors: dict | None = None):
    """Write every band of ``entries`` with ``write_band(task, vignette)``;
    it returns the band's record, and ``vignette(task, shape)`` gives the
    map of ``task``'s lens model over frames of ``shape``.  ``errors``
    holds the images that failed before their bands (position to
    exception).

    The tasks run through :func:`~suascal.parts.run_parts` in the parts
    of :func:`~suascal.parts.part_runs` for :func:`_workers`, contiguous
    runs of ``tasks``: part 1 here, each later one in a forked child that
    sends back its tasks' outcomes.  A part runs its tasks in order and
    waits on no other.  It skips a task once a band of its image before it
    has failed there, and the images in ``errors`` run none: only an
    image's first failure in manifest order is reported.

    A part holds one map per frame shape, built in one storage on the
    first use of that shape; a use of another lens model rebuilds it
    there, so a map is good only until the part's next ``vignette`` call
    of its shape.  A map that fails to build fails each use until then.

    Returns ``(bands, failures)`` keyed by image id: each good image's band
    records by band index, each failed image's first error in manifest
    order.  An error that is not a :class:`SuascalError` (the first in
    manifest order) is raised once every part is done; an interrupt or
    error in a part is raised once the children are killed and reaped.
    """
    errors = dict(errors or {})
    runs = part_runs(_workers(), len(tasks))

    def run_part(run: range) -> dict:
        """Run the part of ``run``; returns the outcome of each of its
        tasks by position."""
        held = {}  # shape -> (lens, storage, map or the error building it)

        def vignette(task: _BandTask, shape: tuple[int, int]) -> Vignette:
            lens, storage, built = held.get(shape) or (None, np.empty(shape),
                                                       None)
            if lens != task.lens:
                try:
                    built = _build_vignette(task.band.metadata.vignette,
                                            storage, task.rows)
                except MetadataError as exc:
                    built = exc
                held[shape] = task.lens, storage, built
            if isinstance(built, MetadataError):
                raise built.with_traceback(None)
            return built

        failed = dict.fromkeys(errors, -1)
        for task in (tasks[i] for i in run):
            if failed.get(task.image, task.position) >= task.position:
                try:
                    task.outcome = write_band(task, vignette)
                except Exception as exc:
                    task.outcome = _without_tracebacks(exc)
                    failed[task.image] = task.position
        return {i: tasks[i].outcome for i in run}

    def take(outcomes: dict) -> None:
        for i, outcome in outcomes.items():
            tasks[i].outcome = outcome

    run_parts("band pass part", runs, run_part, take)
    for task in sorted(tasks, key=lambda task: task.position):
        if isinstance(task.outcome, Exception):
            errors.setdefault(task.image, task.outcome)
    fatal = [errors[i] for i in sorted(errors)
             if not isinstance(errors[i], SuascalError)]
    if fatal:
        raise fatal[0]
    outcomes = {(task.image, task.position): task.outcome for task in tasks}
    return ({entry.image_id: {str(band.band_index): outcomes[i, j]
                              for j, band in enumerate(entry.bands)}
             for i, entry in enumerate(entries) if i not in errors},
            {entry.image_id: str(errors[i])
             for i, entry in enumerate(entries) if i in errors})


def _read_band(task: _BandTask, vignette):
    """Decode a task's band-frame, then take its map from
    ``vignette(task, shape)``, so a frame's decode errors come ahead of its
    map's."""
    band = task.band
    raw = RawImage(band_index=band.band_index, pixels=read_pgm16(band.path),
                   bits_per_pixel=band.metadata.bits_per_pixel)
    return raw, vignette(task, raw.pixels.shape)


#: The report of each imagery command in its ``--out``.
REPORTS = {"convert": "conversion_log.json",
           "reflect": "reflectance_report.json"}


def _named(report: dict, where: str) -> list[str]:
    """The plain output names (no separator, no NUL) of each plane
    (``path``), its sidecar and ``pgm`` in ``report``'s band records."""
    names = []
    for entry in json_field(report, "images", dict, where).values():
        for record in json_field(json_value(entry, dict, where), "bands",
                                 dict, where).values():
            plane = json_value(record, dict, where).get("path")
            names += plane, str(sidecar_path(plane)), record.get("pgm")
    return [name for name in names if isinstance(name, str) and
            re.fullmatch(r"[^/\\\0]+_b[1-5]\.(?:f32|f32\.json|pgm)", name)]


def _write_run(out: Path, command: str, header: dict, entries, tasks,
               write_band, fields=None, errors=None) -> int:
    """Run :func:`_image_pass` into ``out`` and write ``command``'s
    report: ``header``, each good image's band records and
    ``fields[image_id]``, and the failures.  Returns the exit code.  The
    reports in ``out`` are its ledger: they and the files they name go
    with the run's own (:func:`removed_on_error`); after the pass, so do
    the tasks' files the new report leaves out.  A band-frame, judged by
    its entry ``realpath(out)/name``, is never removed nor the run's own."""
    report = out / REPORTS[command]
    planned = [path for task in tasks for path in task.files]
    owned = [*planned, report]
    frames, root = set(), os.path.realpath(out)
    for path in {task.band.path for task in tasks}:
        if "\0" not in str(path):
            frames |= {(os.path.realpath(path.parent), path.name),
                       os.path.split(os.path.realpath(path))}
    framed = {name for folder, name in frames if folder == root}
    for path in owned:
        if path.name in framed:
            raise ManifestError(f"{path}: an output of this run would "
                                "overwrite this band-frame")
    for ledger in (out / name for name in REPORTS.values()
                   if os.path.lexists(out / name) and name not in framed):
        names = [ledger.name]
        try:
            names += _named(read_json(ledger), str(ledger))
        except ManifestError as exc:
            print(f"warning: {exc}; removing it alone", file=sys.stderr)
        owned += [out / name for name in names if name not in framed]
    with removed_on_error(out, owned):
        bands, failures = _image_pass(entries, tasks, write_band, errors)
        payload = {**header, "failures": failures, "images": {
            image_id: {**(fields or {}).get(image_id, {}), "bands": records}
            for image_id, records in bands.items()}}
        named = _named(payload, str(report))
        for path in planned:
            if path.name not in named:
                path.unlink(missing_ok=True)
        write_json(report, payload)
    for image_id, message in sorted(failures.items()):
        print(f"error: image {image_id}: {message}", file=sys.stderr)
    return _batch_exit(len(bands), len(failures))


def cmd_convert(args) -> int:
    manifest = load_manifest(args.manifest)
    out = Path(args.out)
    if not manifest.images:
        print("warning: manifest lists no images; nothing to convert",
              file=sys.stderr)
    tasks = _plan_bands(out, manifest.images)

    def write_band(task: _BandTask, vignette) -> dict:
        return _stream_band(task, *_read_band(task, vignette), RADIANCE_UNITS)

    return _write_run(out, args.command, {}, manifest.images, tasks,
                      write_band)


def _placements(entry: ImageEntry) -> list:
    """A calibration image's panel placements, bright first."""
    return [placement for placement in (entry.calibration_bright,
                                        entry.calibration_dark)
            if placement is not None]


def cmd_reflect(args) -> int:
    manifest = load_manifest(args.manifest)
    rsr_set = manifest.rsr_set()
    out = Path(args.out)
    images = manifest.images
    if not images:
        print("warning: manifest lists no images; nothing to process",
              file=sys.stderr)
    calibration: tuple[ImageEntry, ...] = ()
    if images and args.method in ("elm1", "elm2"):
        calibration = tuple(entry for entry in manifest.calibration_images
                            if entry.calibration_dark is not None
                            or args.method != "elm2")
        if not calibration:
            dark_note = " with a dark panel" if args.method == "elm2" else ""
            print(f"error: method {args.method} needs at least one "
                  f"calibration image{dark_note}", file=sys.stderr)
            return EXIT_USAGE
        usable = [entry.image_id for entry in calibration]
        if args.selection == "single" and \
                args.designated_id not in (None, *usable):
            print(f"error: --designated-id {args.designated_id!r} is not a "
                  f"calibration image method {args.method} can use; usable: "
                  f"{', '.join(map(repr, usable))}", file=sys.stderr)
            return EXIT_USAGE
    tasks = _plan_bands(out, images, args.write_pgm)
    frames = {(images[task.image].image_id, task.band.band_index): task
              for task in tasks}

    def ground_reflectance(panel_id: str) -> np.ndarray:
        """A panel's band reflectance; a fault of the panel library fails
        the run before any frame is read."""
        spectrum = manifest.panel_spectrum(panel_id)
        try:
            rho = panel_band_reflectance(spectrum, rsr_set)
        except CurveError as exc:
            raise CurveError(f"{manifest.panels[panel_id]}: "
                             f"panel {panel_id!r}: {exc}") from None
        check_panel(panel_id, ground_reflectance=rho)
        return rho

    grounds = {panel_id: ground_reflectance(panel_id)
               for panel_id in dict.fromkeys(
                   placement.panel_id for entry in calibration
                   for placement in _placements(entry))}
    taken = {}  # (image id, band index) -> its panel means or error

    def band_line(entry: ImageEntry, band_index: int, vignette):
        """Band ``band_index`` of calibration image ``entry``'s empirical
        line.  A part takes that band's panel means on first use, decoding
        the frame with its ``vignette``, and keeps them, or the error, in
        ``taken`` (each forked part has its own).  Raises, naming the
        calibration image, when that frame failed or a panel's mean is not
        positive, and as :func:`elm_line` does; it fails the band it
        maps."""
        key = entry.image_id, band_index
        task, placements = frames[key], _placements(entry)
        if key not in taken:
            try:
                raw, frame_map = _read_band(task, vignette)
                taken[key] = panel_means(raw, task.band.metadata,
                                         [p.roi for p in placements],
                                         frame_map)
            except SuascalError as exc:
                taken[key] = _without_tracebacks(exc)
        means = taken[key]
        try:
            if isinstance(means, Exception):
                raise means
            for placement, mean in zip(placements, means):
                check_panel(placement.panel_id, mean_radiance=mean)
        except SuascalError as exc:
            raise SuascalError(
                f"calibration image {entry.image_id}: {exc}") from None
        band = slice(band_index - 1, band_index)
        points = [(grounds[p.panel_id][band], np.array([m]))
                  for p, m in zip(placements, means)]
        slope, bias = elm_line(
            entry.image_id,
            *itertools.chain(*points[:1 if args.method == "elm1" else 2]))
        return line_map(slope[0], bias[0])

    def prepare(entry: ImageEntry):
        """An image's report fields and its band map factory, called with
        the band index and the part's ``vignette``; its selection errors
        fail it ahead of any band fault.  Selection reads only the
        candidates' ids, timestamps and DLS records, so it needs no panel
        means."""
        record: dict[str, object] = {"method": args.method}
        if args.method == "aarr":
            if entry.dls is None:
                raise SuascalError("aarr requires a dls record")
            return record, lambda band_index, _: aarr_map(entry.dls,
                                                          band_index)
        chosen = select_calibration(
            calibration, args.selection, image_dls=entry.dls,
            image_timestamp=entry.timestamp,
            designated_id=args.designated_id)
        record["calibration_image"] = chosen.image_id
        record["selection"] = args.selection
        if args.selection != "single":
            record["selection_metric"] = selection_metric(
                args.selection, entry.dls, entry.timestamp)(chosen)
        return record, partial(band_line, chosen)

    records, band_maps, errors = {}, {}, {}
    for i, entry in enumerate(images):
        try:
            records[entry.image_id], band_maps[i] = prepare(entry)
        except SuascalError as exc:
            errors[i] = exc

    def write_band(task: _BandTask, vignette) -> dict:
        # The band's map comes first: fitting a line may rebuild this
        # frame's map storage for the calibration frame's lens model.  Its
        # error waits for the frame's decode and map faults.
        line, fault = None, None
        try:
            line = band_maps[task.image](task.band.band_index, vignette)
        except SuascalError as exc:
            fault = _without_tracebacks(exc)
        raw, frame_map = _read_band(task, vignette)
        if fault is not None:
            raise fault
        return _stream_band(task, raw, frame_map, "reflectance", line,
                            args.pgm_scale if args.write_pgm else None)

    header = {"method": args.method, "selection": args.selection}
    return _write_run(out, args.command, header, images, tasks, write_band,
                      records, errors)


def cmd_simulate(args) -> int:
    config = read_json(args.grid_config) if args.grid_config else {}
    grid = SimulationGrid.from_config(config)
    table = run_study(grid, _workers(), Path(args.out))
    if table.skipped:
        print(f"warning: skipped {len(table.skipped)} of {grid.cell_count} "
              "cells; see simulate_log.json", file=sys.stderr)
    return _batch_exit(len(table.cells), len(table.skipped))


#: What ``evaluate`` may write: the report and the two by-method layouts.
EVALUATE_FILES = ("report.csv", "overall_by_method.csv",
                  "per_band_by_method.csv")


def cmd_evaluate(args) -> int:
    samples = read_samples(args.samples)
    group_by = tuple(part.strip() for part in args.group_by.split(",")
                     if part.strip())
    reports = aggregate(samples, group_by, sample_std=args.sample_std)
    out = Path(args.out)
    files = [out / name for name in EVALUATE_FILES]
    grand, overall, per_band = files
    with removed_on_error(out, files):
        write_reports(grand, reports)
        if group_by == ("method",):
            # Overall-errors layout: one column per method, one row per
            # statistic.
            by_method = {dict(r.group)["method"]: r for r in reports}
            methods = [m for m in METHOD_LEVELS if m in by_method]
            write_csv(overall, ["statistic"] + methods,
                      ([stat] + [repr(getattr(by_method[m], stat))
                                 for m in methods]
                       for stat in ERROR_STATISTICS))
        elif set(group_by) == {"band_index", "method"}:
            # Per-band layout: band rows, method mean/std column pairs.
            cells = {(dict(r.group)["band_index"],
                      dict(r.group)["method"]): r for r in reports}
            bands = sorted({band for band, _ in cells})
            methods = [m for m in METHOD_LEVELS
                       if any(method == m for _, method in cells)]
            header = ["band_index"]
            for method in methods:
                header += [f"{method}_mean_signed", f"{method}_std_signed"]
            rows = []
            for band in bands:
                row = [band]
                for method in methods:
                    report = cells.get((band, method))
                    row += (["", ""] if report is None else
                            [repr(report.mean_signed),
                             repr(report.std_signed)])
                rows.append(row)
            write_csv(per_band, header, rows)
    return EXIT_OK


def cmd_rsr(args) -> int:
    run_dir = Path(args.run_dir)
    band_files = sorted(run_dir.glob("band_*.json"))
    if not band_files:
        print(f"error: no band_*.json sweeps under {run_dir}",
              file=sys.stderr)
        return EXIT_USAGE
    sources: dict[int, Path] = {}
    curves: dict[int, tuple[SpectralCurve, bool]] = {}
    for band_file in band_files:
        where = str(band_file)
        payload = read_json(band_file)
        samples = json_field(payload, "samples", [[float]], where)
        for i, sample in enumerate(samples):
            if len(sample) != 3:
                raise ManifestError(
                    f"{where}: 'samples'[{i}] must be [wavelength_nm, "
                    f"mean_counts, power_w], got {len(sample)} values")
        try:
            run = MonochromatorRun(
                wavelengths_nm=[s[0] for s in samples],
                mean_counts=[s[1] for s in samples],
                power_w=[s[2] for s in samples],
                gain=json_field(payload, "gain", float, where),
                exposure_us=json_field(payload, "exposure_us", float, where),
                band_index=json_field(payload, "band_index", int, where))
            if not 1 <= run.band_index <= N_BANDS:
                raise ManifestError(
                    f"{where}: 'band_index' {run.band_index} is not a band "
                    f"index 1..{N_BANDS}")
            if run.band_index in sources:
                raise ManifestError(
                    f"'band_index' {run.band_index} is declared by both "
                    f"{sources[run.band_index]} and {where}")
            sources[run.band_index] = band_file
            power = SpectralCurve(run.wavelengths_nm, run.power_w)
            response = relative_response(normalize_counts(run), power,
                                         shift_scale=args.shift_scale)
        except CurveError as exc:
            raise CurveError(f"{where}: {exc}") from None
        degenerate = is_degenerate(response)
        curves[run.band_index] = (response if degenerate
                                  else peak_normalize(response), degenerate)
    out = Path(args.out)
    names = {band: f"rsr_band_{band}.csv" for band in range(1, N_BANDS + 1)}
    log: dict[str, dict] = {}
    with removed_on_error(out, [out / "rsr_log.json",
                                *(out / name for name in names.values())]):
        for band, (response, degenerate) in curves.items():
            write_spectral_curve(out / names[band], response)
            log[str(band)] = {"degenerate": degenerate, "output": names[band]}
            if degenerate:
                print(f"warning: band {band} sweep is degenerate "
                      "(no positive response)", file=sys.stderr)
        write_json(out / "rsr_log.json", {"bands": log})
    return EXIT_OK


def cmd_ndvi(args) -> int:
    red_pixels, red_meta = read_plane(args.red)
    nir_pixels, nir_meta = read_plane(args.nir)
    for name, meta, expected in (("red", red_meta, 3), ("nir", nir_meta, 5)):
        band = json_field(meta, "band_index", int, f"{name} plane sidecar")
        if band != expected:
            print(f"error: {name} plane is band {band}, "
                  f"expected band {expected}", file=sys.stderr)
            return EXIT_USAGE
    result = ndvi(ReflectanceImage(band_index=3, pixels=red_pixels),
                  ReflectanceImage(band_index=5, pixels=nir_pixels))
    out = Path(args.out)
    log = Path(str(out) + ".log.json")
    with removed_on_error(out.parent, [out, sidecar_path(out), log]):
        write_plane(out, result.values, band_index=0, units="ndvi")
        write_json(log,
                   {"zero_denominator_pixels": result.zero_denominator_count})
    return EXIT_OK


def _positive_number(text: str) -> float:
    """An option value that must be a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number above zero, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="suascal",
                     description="Radiometric calibration toolkit for "
                                 "five-band sUAS imagery")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="raw digital counts to radiance")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_convert)

    p = sub.add_parser("reflect", help="radiance to reflectance")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", required=True, choices=METHOD_LEVELS)
    p.add_argument("--selection", default="dls", choices=SELECTION_MODES)
    p.add_argument("--designated-id", default=None,
                   help="calibration image id for --selection single")
    p.add_argument("--write-pgm", action="store_true",
                   help="also write scaled 16-bit PGM planes")
    p.add_argument("--pgm-scale", type=_positive_number, default=10000.0,
                   help="counts per unit reflectance for --write-pgm")
    p.set_defaults(handler=cmd_reflect)

    p = sub.add_parser("simulate", help="run the ratio-error study grid")
    p.add_argument("--out", required=True)
    p.add_argument("--grid-config", default=None,
                   help="JSON overriding the default grid")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("evaluate", help="error statistics over samples CSV")
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--group-by", default="",
                   help="comma-separated TargetSample fields")
    p.add_argument("--sample-std", action="store_true",
                   help="sample (ddof=1) instead of population std")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("rsr", help="reduce monochromator sweeps to RSR CSVs")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--shift-scale", type=_positive_number,
                   default=DEFAULT_SHIFT_SCALE)
    p.set_defaults(handler=cmd_rsr)

    p = sub.add_parser("ndvi", help="NDVI from red and NIR planes")
    p.add_argument("--red", required=True)
    p.add_argument("--nir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_ndvi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SuascalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_TOTAL


if __name__ == "__main__":
    sys.exit(main())
