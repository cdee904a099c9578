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
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .errors import CurveError, ManifestError, SuascalError
from .evaluate import (ERROR_STATISTICS, METHOD_LEVELS, aggregate, ndvi,
                       read_samples, write_csv, write_reports)
from .imageio import (pgm16_header, pgm16_shape, read_pgm16, read_plane,
                      rows_writer, sidecar_path, write_plane, write_sidecar)
from .jsonread import json_field, read_json, write_json
from .manifest import BandEntry, ImageEntry, load_manifest
from .parts import Parts, part_runs, removed_on_error, send_outcome
from .radiance import (ROW_BLOCK, BandCounts, RawImage, Vignette,
                       VignetteStore, convert_band)
from .reflectance import (SELECTION_MODES, CalibrationImage,
                          PanelObservation, ReflectanceImage, aarr_map,
                          elm_line, fit_elm_1pt, fit_elm_2pt, line_map,
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


def _plane_name(image_id: str, band_index: int) -> str:
    return f"{image_id}_b{band_index}.f32"


def _stream_band(raw: RawImage, meta, vignette: Vignette, path: Path,
                 written: list[Path], units: str, post_map=None,
                 pgm_scale: float | None = None) -> BandCounts:
    """Convert one band-frame block by block into the float32 plane at
    ``path`` and, with ``pgm_scale``, into a 16-bit PGM of the scaled
    plane beside it; the sidecar follows the last block.

    Each path goes on ``written`` before it is opened.
    """
    height, width = raw.pixels.shape
    written += [path, sidecar_path(path)]
    with ExitStack() as files:
        plane = rows_writer(files.enter_context(path.open("wb")), "<f4")
        sink = plane
        if pgm_scale is not None:
            pgm_path = path.with_suffix(".pgm")
            written.append(pgm_path)
            handle = files.enter_context(pgm_path.open("wb"))
            handle.write(pgm16_header(width, height))
            pgm = rows_writer(handle, ">u2")
            scratch = np.empty((min(ROW_BLOCK, height), width))

            def sink(block: np.ndarray) -> None:
                plane(block)
                pgm(pgm_counts(block, pgm_scale, out=scratch[:len(block)]))

        counts = convert_band(raw, meta, sink, post_map, vignette=vignette)
    write_sidecar(path, (height, width), raw.band_index, units)
    return counts


def _batch_exit(ok: int, failed: int) -> int:
    if failed == 0:
        return EXIT_OK
    return EXIT_TOTAL if ok == 0 else EXIT_PARTIAL


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
    """One band-frame of one image, holding one use of its vignette map."""

    #: Position of the image in the list it was planned from.
    image: int
    #: Position of the band in the image's manifest order.
    position: int
    band: BandEntry
    #: The :class:`VignetteStore` key of the band's map.
    key: tuple
    #: Files written for the band, removed if its image fails.
    written: list[Path] = field(default_factory=list)
    #: Its record or the exception it raised; ``None`` if it did not run.
    outcome: object = None


def _plan_bands(store: VignetteStore, entries,
                calibration=()) -> list[_BandTask]:
    """One task per band-frame of ``entries`` and of ``calibration``, whose
    images are numbered on from ``len(entries)``, each counted in
    ``store``.

    The tasks run band-major: for each band the calibration frames first,
    then the others, and within each the frames of one lens model back to
    back, in manifest order, so each map is needed for one stretch only.
    """
    tasks, first = [], {}
    for i, entry in enumerate((*entries, *calibration)):
        for j, band in enumerate(entry.bands):
            key = store.plan(band.metadata.vignette, pgm16_shape(band.path),
                             band.metadata)
            first.setdefault((band.band_index, key), len(first))
            tasks.append(_BandTask(i, j, band, key))
    return sorted(tasks, key=lambda task: (
        task.band.band_index, task.image < len(entries),
        first[task.band.band_index, task.key]))


def _pass_files(out: Path, entries, pgm: bool = False) -> list[Path]:
    """Every file a band pass over ``entries`` may write into ``out``."""
    files = []
    for entry in entries:
        for band in entry.bands:
            plane = out / _plane_name(entry.image_id, band.band_index)
            files += [plane, sidecar_path(plane)]
            files += [plane.with_suffix(".pgm")] if pgm else []
    return files


def _image_pass(entries, tasks: list[_BandTask], store: VignetteStore,
                write_band, errors: dict | None = None, settle=None):
    """Write every band of ``entries`` with ``write_band(task)``; it returns
    the band's record.  ``errors`` holds the images that failed before
    their bands (position to exception).

    The tasks run in the parts of :func:`~suascal.parts.part_runs` for
    :func:`_workers`, contiguous runs of ``tasks``: part 1 here, each
    later one in a forked child that sends back its tasks' outcomes and
    written files.  A part runs its tasks in order, after the
    calibration tasks (images numbered on from ``len(entries)``) of every
    band it writes, so no part waits on another.  It skips a task once a
    band of its image before it has failed there, and the images in
    ``errors`` run none: only an image's first failure in manifest order
    is reported.  Every task gives back its map use, run or not.

    ``settle()``, if given, runs once every part is done.  It returns more
    images that fail ahead of their bands, as ``errors`` holds them, or
    raises.

    Returns ``(bands, failures)`` keyed by image id: each good image's band
    records by band index, each failed image's first error in manifest
    order.  A failed image's files are removed, so it leaves none.  An
    error that is not a :class:`SuascalError` (the first in manifest order)
    is raised once every part is done; an interrupt or error in a part is
    raised once the children are killed and reaped.
    """
    errors = dict(errors or {})
    runs = part_runs(_workers(), len(tasks))

    def run_part(run: range) -> list:
        """Run the part of ``run``; returns the outcome and the written
        files of each of its tasks."""
        bands = {tasks[i].band.band_index for i in run
                 if tasks[i].image < len(entries)}
        failed = dict.fromkeys(errors, -1)
        for i, task in enumerate(tasks):
            needed = i in run or (task.image >= len(entries)
                                  and task.band.band_index in bands)
            if needed and failed.get(task.image,
                                     task.position) >= task.position:
                try:
                    task.outcome = write_band(task)
                except Exception as exc:
                    task.outcome = exc
                    failed[task.image] = task.position
            store.release(task.key)
        return [(tasks[i].outcome, tasks[i].written) for i in run]

    with Parts("band pass part", len(runs)) as children:
        for run in runs[1:]:
            children.fork(partial(send_outcome, partial(run_part, run)))
        run_part(runs[0])
        for part, run in enumerate(runs[1:], 2):
            message = children.receive(part, "ended without sending its "
                                       "result")
            for i, (outcome, written) in zip(run, message):
                tasks[i].outcome, tasks[i].written = outcome, written
    for task in sorted(tasks, key=lambda task: task.position):
        if isinstance(task.outcome, Exception):
            errors.setdefault(task.image, task.outcome)
    if settle is not None:
        errors.update(settle())
    fatal = [errors[i] for i in sorted(errors)
             if not isinstance(errors[i], SuascalError)]
    if fatal:
        raise fatal[0]
    for task in tasks:
        if task.image in errors:
            for path in task.written:
                path.unlink(missing_ok=True)
    outcomes = {(task.image, task.position): task.outcome for task in tasks}
    bands: dict[str, dict] = {}
    failures: dict[str, str] = {}
    for i, entry in enumerate(entries):
        if i not in errors:
            bands[entry.image_id] = {str(band.band_index): outcomes[i, j]
                                     for j, band in enumerate(entry.bands)}
        else:
            failures[entry.image_id] = str(errors[i])
    return bands, failures


def _read_band(store: VignetteStore, task: _BandTask,
               raw: RawImage | None = None):
    """Decode a task's band-frame, unless ``raw`` is its decode, and take
    its vignette map, in that order, so a frame's decode errors come ahead
    of its map's."""
    band = task.band
    if raw is None:
        raw = RawImage(band_index=band.band_index,
                       pixels=read_pgm16(band.path),
                       bits_per_pixel=band.metadata.bits_per_pixel)
    return raw, store.vignette(task.key, raw.pixels.shape)


def cmd_convert(args) -> int:
    manifest = load_manifest(args.manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not manifest.images:
        print("warning: manifest lists no images; nothing to convert",
              file=sys.stderr)
        write_json(out / "conversion_log.json", {"images": {}, "failures": {}})
        return EXIT_OK
    store = VignetteStore()
    tasks = _plan_bands(store, manifest.images)

    def write_band(task: _BandTask) -> dict:
        raw, vignette = _read_band(store, task)
        name = _plane_name(manifest.images[task.image].image_id,
                           task.band.band_index)
        counts = _stream_band(raw, task.band.metadata, vignette, out / name,
                              task.written, RADIANCE_UNITS)
        return {"path": name, "clamped_pixels": counts.clamped,
                "saturated_pixels": counts.saturated}

    report = out / "conversion_log.json"
    with removed_on_error([*_pass_files(out, manifest.images), report]):
        bands, failures = _image_pass(manifest.images, tasks, store,
                                      write_band)
        log = {image_id: {"bands": records}
               for image_id, records in bands.items()}
        write_json(report, {"images": log, "failures": failures})
    for image_id, message in sorted(failures.items()):
        print(f"error: image {image_id}: {message}", file=sys.stderr)
    return _batch_exit(len(log), len(failures))


def _placements(entry: ImageEntry) -> list:
    """A calibration image's panel placements, bright first."""
    return [placement for placement in (entry.calibration_bright,
                                        entry.calibration_dark)
            if placement is not None]


def _calibration_images(calibration, means_tasks: dict,
                        grounds) -> list[CalibrationImage]:
    """The ``calibration`` images from the panel means of each of their
    band-frames, the ``outcome`` of ``means_tasks[c, band_index]``, and the
    ground reflectance of each of their panels, ``grounds[c][k]``; either
    may be the exception raised in its stead.

    The first error in manifest order is raised: an image's band faults,
    then its panel spectra, then the next image's.
    """
    candidates = []
    for c, entry in enumerate(calibration):
        by_band = []  # in band order, as the manifest sorts them
        for band in entry.bands:
            means = means_tasks[c, band.band_index].outcome
            if isinstance(means, Exception):
                raise means
            by_band.append(means)
        observations = []
        for k, placement in enumerate(_placements(entry)):
            if isinstance(grounds[c][k], Exception):
                raise grounds[c][k]
            observations.append(PanelObservation(
                panel_id=placement.panel_id,
                ground_reflectance=grounds[c][k],
                mean_radiance=np.array([means[k] for means in by_band]),
                roi=placement.roi))
        candidates.append(CalibrationImage(
            image_id=entry.image_id, timestamp=entry.timestamp,
            bright=observations[0], dls=entry.dls,
            dark=observations[1] if len(observations) > 1 else None))
    return candidates


def cmd_reflect(args) -> int:
    manifest = load_manifest(args.manifest)
    rsr_set = manifest.rsr_set()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not manifest.images:
        print("warning: manifest lists no images; nothing to process",
              file=sys.stderr)
        write_json(out / "reflectance_report.json",
                   {"method": args.method, "selection": args.selection,
                    "images": {}, "failures": {}})
        return EXIT_OK

    images = manifest.images
    calibration: tuple[ImageEntry, ...] = ()
    if args.method in ("elm1", "elm2"):
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
    # One band-major pass: each band's panel means (calibration tasks,
    # numbered on from the images), then its planes.
    store = VignetteStore()
    tasks = _plan_bands(store, images, calibration)
    means_tasks = {(task.image - len(images), task.band.band_index): task
                   for task in tasks if task.image >= len(images)}

    def ground_reflectance(placement):
        try:
            spectrum = manifest.panel_spectrum(placement.panel_id)
            try:
                return panel_band_reflectance(spectrum, rsr_set)
            except CurveError as exc:
                raise CurveError(f"{manifest.panels[placement.panel_id]}: "
                                 f"panel {placement.panel_id!r}: {exc}"
                                 ) from None
        except Exception as exc:
            # Raised in manifest order once the panel means are in.
            return exc

    grounds = [[ground_reflectance(placement)
                for placement in _placements(entry)]
               for entry in calibration]
    selected: dict[int, int] = {}
    position = {entry.image_id: c for c, entry in enumerate(calibration)}

    def band_line(c: int, band_index: int):
        """Band ``band_index`` of calibration image ``c``'s empirical line,
        as the fit gives it from that band's panel means, which the part
        has run.  Raises when they show that the fit fails, or when the
        calibration image fails, which fails the run once every part is
        done."""
        means = means_tasks[c, band_index].outcome
        rho = grounds[c]
        if not isinstance(means, list) or any(
                isinstance(r, Exception) for r in rho):
            raise SuascalError(
                f"calibration image {calibration[c].image_id} failed")
        band = slice(band_index - 1, band_index)
        points = [(r[band], np.array([m])) for r, m in zip(rho, means)]
        slope, bias = elm_line(
            calibration[c].image_id,
            *itertools.chain(*points[:1 if args.method == "elm1" else 2]))
        return line_map(slope[0], bias[0])

    def prepare(i: int, entry: ImageEntry):
        """An image's report fields and band map factory; its selection
        errors fail it ahead of any band fault.  Selection reads only the
        candidates' ids, timestamps and DLS records, so it needs no panel
        means."""
        record: dict[str, object] = {"method": args.method}
        if args.method == "aarr":
            if entry.dls is None:
                raise SuascalError("aarr requires a dls record")
            return record, partial(aarr_map, entry.dls)
        chosen = select_calibration(
            calibration, args.selection, image_dls=entry.dls,
            image_timestamp=entry.timestamp,
            designated_id=args.designated_id)
        record["calibration_image"] = chosen.image_id
        record["selection"] = args.selection
        if args.selection != "single":
            record["selection_metric"] = selection_metric(
                args.selection, entry.dls, entry.timestamp)(chosen)
        selected[i] = position[chosen.image_id]
        return record, partial(band_line, selected[i])

    records, band_maps, errors = {}, {}, {}
    for i, entry in enumerate(images):
        try:
            records[i], band_maps[i] = prepare(i, entry)
        except SuascalError as exc:
            errors[i] = exc

    # A calibration frame's decode in this part, by (image id, band), kept
    # for the image's own plane task; tasks run band-major, so the frames
    # of the band before are dropped.
    decoded: dict[tuple[str, int], RawImage] = {}
    entries = (*images, *calibration)

    def write_band(task: _BandTask) -> dict | list[float]:
        band = task.band
        if any(index != band.band_index for _, index in decoded):
            decoded.clear()
        entry = entries[task.image]
        key = entry.image_id, band.band_index
        raw, vignette = _read_band(store, task, decoded.pop(key, None))
        if task.image >= len(images):
            decoded[key] = raw
            # Only a calibration frame's per-band ROI means outlive it.
            return panel_means(raw, band.metadata,
                               [p.roi for p in _placements(entry)], vignette)
        post_map = band_maps[task.image](band.band_index)
        name = _plane_name(entry.image_id, band.band_index)
        counts = _stream_band(
            raw, band.metadata, vignette, out / name, task.written,
            "reflectance", post_map,
            args.pgm_scale if args.write_pgm else None)
        return {"path": name, "clamped_pixels": counts.clamped,
                "out_of_range_fraction": counts.out_of_range_fraction,
                "saturated_pixels": counts.saturated}

    def settle() -> dict:
        """The calibration images, or their first error; then each image's
        fit, whose error fails the image ahead of any band fault."""
        candidates = _calibration_images(calibration, means_tasks, grounds)
        fit = fit_elm_1pt if args.method == "elm1" else fit_elm_2pt
        fit_errors = {}
        for i, c in selected.items():
            try:
                fit(candidates[c])
            except SuascalError as exc:
                fit_errors[i] = exc
        return fit_errors

    report = out / "reflectance_report.json"
    with removed_on_error([*_pass_files(out, images, args.write_pgm),
                           report]):
        bands, failures = _image_pass(images, tasks, store, write_band,
                                      errors, settle if calibration else None)
        results = {entry.image_id: dict(records[i],
                                        bands=bands[entry.image_id])
                   for i, entry in enumerate(images)
                   if entry.image_id in bands}
        write_json(report, {"method": args.method,
                            "selection": args.selection, "images": results,
                            "failures": failures})
    for image_id, message in sorted(failures.items()):
        print(f"error: image {image_id}: {message}", file=sys.stderr)
    return _batch_exit(len(results), len(failures))


def cmd_simulate(args) -> int:
    config = read_json(args.grid_config) if args.grid_config else {}
    grid = SimulationGrid.from_config(config)
    table = run_study(grid, _workers(), Path(args.out))
    if table.skipped:
        print(f"warning: skipped {len(table.skipped)} of {grid.cell_count} "
              "cells; see simulate_log.json", file=sys.stderr)
    return _batch_exit(len(table.cells), len(table.skipped))


def cmd_evaluate(args) -> int:
    samples = read_samples(args.samples)
    group_by = tuple(part.strip() for part in args.group_by.split(",")
                     if part.strip())
    reports = aggregate(samples, group_by, sample_std=args.sample_std)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with removed_on_error([out / "report.csv"]) as files:
        write_reports(files[0], reports)
        if group_by == ("method",):
            # Overall-errors layout: one column per method, one row per
            # statistic.
            by_method = {dict(r.group)["method"]: r for r in reports}
            methods = [m for m in METHOD_LEVELS if m in by_method]
            files.append(out / "overall_by_method.csv")
            write_csv(files[-1], ["statistic"] + methods,
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
            files.append(out / "per_band_by_method.csv")
            write_csv(files[-1], header, rows)
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
    out.mkdir(parents=True, exist_ok=True)
    names = {band: f"rsr_band_{band}.csv" for band in curves}
    log: dict[str, dict] = {}
    with removed_on_error([out / "rsr_log.json",
                           *(out / name for name in names.values())]):
        # An earlier run's curves of bands this run has no sweep of.
        for path in out.glob("rsr_band_*.csv"):
            if re.fullmatch(r"rsr_band_(0|-?[1-9][0-9]*)\.csv", path.name) \
                    and path.name not in names.values():
                path.unlink()
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
    out.parent.mkdir(parents=True, exist_ok=True)
    log = Path(str(out) + ".log.json")
    with removed_on_error([out, sidecar_path(out), log]):
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
