"""Command-line entry point: convert, reflect, simulate, evaluate, rsr, ndvi.

Exit status contract: 0 success, 1 usage or configuration error, 2 partial
data failure (some images or grid cells processed, some failed), 3 total
failure (every image or cell failed).  Batch commands continue past
per-image errors and skipped cells and name them in their log file; all
outputs are byte-identical across reruns of identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from functools import partial
from pathlib import Path

import numpy as np

from .errors import CurveError, ManifestError, SuascalError
from .evaluate import (ERROR_STATISTICS, METHOD_LEVELS, aggregate, ndvi,
                       read_samples, write_reports)
from .imageio import (pgm16_header, read_pgm16, read_plane, rows_writer,
                      sidecar_path, write_plane, write_sidecar)
from .jsonread import json_field, read_json
from .manifest import BandEntry, FlightManifest, ImageEntry, load_manifest
from .radiance import ROW_BLOCK, BandCounts, RawImage, convert_band
from .reflectance import (SELECTION_MODES, CalibrationImage, PanelObservation,
                          ReflectanceImage, aarr_map, check_pgm_scale,
                          elm_map, fit_elm_1pt, fit_elm_2pt, panel_means,
                          panel_band_reflectance, pgm_counts,
                          pgm_scale_is_valid, select_calibration,
                          selection_metric)
from .rsr import (DEFAULT_SHIFT_SCALE, MonochromatorRun, SpectralCurve,
                  is_degenerate, normalize_counts, peak_normalize,
                  relative_response, write_spectral_curve)
from .simulate import (CELL_FIELDS, SimulationGrid, SimulationTable,
                       band_statistics, grouped_absolute_error,
                       run_maarr_grid, summary_rows)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_TOTAL = 3

RADIANCE_UNITS = "W/m^2/sr/nm"


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    partial data failures, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _plane_name(image_id: str, band_index: int) -> str:
    return f"{image_id}_b{band_index}.f32"


def _read_raw(band: BandEntry) -> RawImage:
    """Decode one band of one manifest image."""
    return RawImage(band_index=band.band_index, pixels=read_pgm16(band.path),
                    bits_per_pixel=band.metadata.bits_per_pixel)


def _write_bands(entry: ImageEntry, write_band) -> dict:
    """Call ``write_band(band, written)`` for each band of an image in
    manifest order, keyed by band index.

    Each call decodes, converts, writes and drops its own band-frame, so
    one frame is in flight at a time.  ``write_band`` appends each path to
    ``written`` before writing it; when any band fails, every file the
    image wrote is removed before the error propagates, so a failed image
    leaves no planes behind.
    """
    written: list[Path] = []
    try:
        return {str(band.band_index): write_band(band, written)
                for band in entry.bands}
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _stream_band(raw: RawImage, meta, path: Path, written: list[Path],
                 units: str, post_map=None,
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
                # A bad scale writes no rows; it is rejected after the
                # pass, once the band's own faults have had their turn.
                if pgm_scale_is_valid(pgm_scale):
                    pgm(pgm_counts(block, pgm_scale,
                                   out=scratch[:len(block)]))

        counts = convert_band(raw, meta, sink, post_map)
    if pgm_scale is not None:
        check_pgm_scale(pgm_scale)
    write_sidecar(path, (height, width), raw.band_index, units)
    return counts


def _batch_exit(ok: int, failed: int) -> int:
    if failed == 0:
        return EXIT_OK
    return EXIT_TOTAL if ok == 0 else EXIT_PARTIAL


def _default_threads() -> int:
    """The CPUs this process may run on, at most 4."""
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return min(usable, 4)


def _thread_map(function, items, threads: int) -> list:
    """``[function(item) for item in items]`` on ``threads`` threads.

    An exception raised for an item propagates when that item's result is
    reached, so the first failing item in order is the one reported.
    """
    if threads == 1:
        return [function(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(function, items))


def _map_images(entries, worker, threads: int):
    """Apply worker to each image entry, harvesting per-image failures.

    Returns ``(results, failures)`` keyed by image id; thread fan-out does
    not change either mapping since both are keyed, not ordered.
    """
    results: dict[str, object] = {}
    failures: dict[str, str] = {}

    def run(entry):
        try:
            return entry.image_id, worker(entry), None
        except SuascalError as exc:
            return entry.image_id, None, str(exc)

    for image_id, value, error in _thread_map(run, entries, threads):
        if error is None:
            results[image_id] = value
        else:
            failures[image_id] = error
    return results, failures


def cmd_convert(args) -> int:
    manifest = load_manifest(args.manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not manifest.images:
        print("warning: manifest lists no images; nothing to convert",
              file=sys.stderr)
        _write_json(out / "conversion_log.json", {"images": {}, "failures": {}})
        return EXIT_OK

    def convert(entry: ImageEntry) -> dict:
        def write_band(band: BandEntry, written: list[Path]) -> dict:
            name = _plane_name(entry.image_id, band.band_index)
            counts = _stream_band(_read_raw(band), band.metadata, out / name,
                                  written, RADIANCE_UNITS)
            return {"path": name, "clamped_pixels": counts.clamped,
                    "saturated_pixels": counts.saturated}

        return {"bands": _write_bands(entry, write_band)}

    log, failures = _map_images(manifest.images, convert, args.threads)
    _write_json(out / "conversion_log.json",
                {"images": log, "failures": failures})
    for image_id, message in sorted(failures.items()):
        print(f"error: image {image_id}: {message}", file=sys.stderr)
    return _batch_exit(len(log), len(failures))


def _calibration_candidates(manifest: FlightManifest,
                            rsr_set: dict[int, SpectralCurve],
                            need_dark: bool,
                            threads: int) -> list[CalibrationImage]:
    """The calibration images usable for the method, in manifest order,
    each read and reduced to its panel means on ``threads`` threads."""
    bands = sorted(rsr_set)

    def candidate(entry: ImageEntry) -> CalibrationImage:
        placements = [entry.calibration_bright]
        if entry.calibration_dark is not None:
            placements.append(entry.calibration_dark)
        rois = [placement.roi for placement in placements]
        # Only the per-band ROI means outlive each band-frame.
        means = {band.band_index: panel_means(_read_raw(band), band.metadata,
                                              rois)
                 for band in entry.bands}
        observations = [
            PanelObservation(
                panel_id=placement.panel_id,
                ground_reflectance=panel_band_reflectance(
                    manifest.panel_spectrum(placement.panel_id), rsr_set),
                mean_radiance=np.array([means[b][i] for b in bands]),
                roi=placement.roi)
            for i, placement in enumerate(placements)]
        return CalibrationImage(
            image_id=entry.image_id, timestamp=entry.timestamp,
            bright=observations[0], dls=entry.dls,
            dark=observations[1] if len(observations) > 1 else None)

    entries = [entry for entry in manifest.calibration_images
               if entry.calibration_dark is not None or not need_dark]
    return _thread_map(candidate, entries, threads)


def cmd_reflect(args) -> int:
    manifest = load_manifest(args.manifest)
    rsr_set = manifest.rsr_set()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not manifest.images:
        print("warning: manifest lists no images; nothing to process",
              file=sys.stderr)
        _write_json(out / "reflectance_report.json",
                    {"method": args.method, "selection": args.selection,
                     "images": {}, "failures": {}})
        return EXIT_OK

    candidates: list[CalibrationImage] = []
    if args.method in ("elm1", "elm2"):
        candidates = _calibration_candidates(manifest, rsr_set,
                                             need_dark=args.method == "elm2",
                                             threads=args.threads)
        if not candidates:
            dark_note = " with a dark panel" if args.method == "elm2" else ""
            print(f"error: method {args.method} needs at least one "
                  f"calibration image{dark_note}", file=sys.stderr)
            return EXIT_USAGE

    def process(entry: ImageEntry) -> dict:
        record: dict[str, object] = {"method": args.method}
        if args.method == "aarr":
            if entry.dls is None:
                raise SuascalError("aarr requires a dls record")
            band_map = partial(aarr_map, entry.dls)
        else:
            selected = select_calibration(
                candidates, args.selection, image_dls=entry.dls,
                image_timestamp=entry.timestamp,
                designated_id=args.designated_id)
            fit = fit_elm_1pt if args.method == "elm1" else fit_elm_2pt
            band_map = partial(elm_map, fit(selected))
            record["calibration_image"] = selected.image_id
            record["selection"] = args.selection
            if args.selection != "single":
                record["selection_metric"] = selection_metric(
                    args.selection, entry.dls, entry.timestamp)(selected)

        def write_band(band: BandEntry, written: list[Path]) -> dict:
            raw = _read_raw(band)
            try:
                post_map = band_map(band.band_index)
            except SuascalError:
                # A band's radiance faults are reported ahead of its map's.
                convert_band(raw, band.metadata)
                raise
            name = _plane_name(entry.image_id, band.band_index)
            counts = _stream_band(
                raw, band.metadata, out / name, written, "reflectance",
                post_map, args.pgm_scale if args.write_pgm else None)
            return {"path": name,
                    "out_of_range_fraction": counts.out_of_range_fraction,
                    "saturated_pixels": counts.saturated}

        record["bands"] = _write_bands(entry, write_band)
        return record

    results, failures = _map_images(manifest.images, process, args.threads)
    _write_json(out / "reflectance_report.json",
                {"method": args.method, "selection": args.selection,
                 "images": results, "failures": failures})
    for image_id, message in sorted(failures.items()):
        print(f"error: image {image_id}: {message}", file=sys.stderr)
    return _batch_exit(len(results), len(failures))


_ROW_FIELDS = (*CELL_FIELDS, "target", "band_index", "true_reflectance",
               "recovered_reflectance", "signed_error")


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row: quoted and
    escaped only where the stdlib's minimal quoting says so."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[:-len(",\r\n")]


def _error_lines(table: SimulationTable):
    """``errors.csv`` data lines, joined here rather than by ``csv.writer``.

    Each distinct text field (atmosphere, target) is formatted once by
    :func:`_csv_field`; the numbers never need quoting.  Each cell's
    leading fields are formatted once too.
    """
    cells = list(itertools.product(*table.axes))
    models = {model: _csv_field(model) for model in table.axes[0]}
    targets = [_csv_field(target) for target in table.targets]
    truth = [list(map(repr, row)) for row in table.truth.tolist()]
    bands = list(map(str, table.bands))
    for index, recovered, signed in zip(table.cells.tolist(),
                                        table.recovered.tolist(),
                                        table.signed_error.tolist()):
        model, day, hour, visibility, altitude = cells[index]
        lead = f"{models[model]},{day},{hour!r},{visibility!r},{altitude!r}"
        for target, *row in zip(targets, truth, recovered, signed):
            for band, true, value, error in zip(bands, *row):
                yield f"{lead},{target},{band},{true},{value!r},{error!r}\r\n"


def cmd_simulate(args) -> int:
    config = read_json(args.grid_config) if args.grid_config else {}
    grid = SimulationGrid.from_config(config)
    table = run_maarr_grid(grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "errors.csv").open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(_ROW_FIELDS)
        fh.writelines(_error_lines(table))
    kept = summary_rows(table, grid.summary_exclude_altitudes_km)
    _write_csv(out / "summary_band.csv", ["band_index", *ERROR_STATISTICS],
               ([band] + [repr(stats[name]) for name in ERROR_STATISTICS]
                for band, stats in band_statistics(kept).items()))
    for attribute in (*CELL_FIELDS, "target"):
        _write_csv(out / f"summary_{attribute}.csv",
                   [attribute, "mean_absolute_error"],
                   ([key, repr(value)] for key, value in
                    grouped_absolute_error(table, attribute).items()))
    _write_json(out / "simulate_log.json", {
        "cells": grid.cell_count, "ran": len(table.cells),
        "skipped": [dict(zip(CELL_FIELDS, cell), reason=reason)
                    for cell, reason in table.skipped]})
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
    write_reports(out / "report.csv", reports)

    if group_by == ("method",):
        # Overall-errors layout: one column per method, one row per statistic.
        by_method = {dict(r.group)["method"]: r for r in reports}
        methods = [m for m in METHOD_LEVELS if m in by_method]
        _write_csv(out / "overall_by_method.csv", ["statistic"] + methods,
                   ([stat] + [repr(getattr(by_method[m], stat))
                              for m in methods] for stat in ERROR_STATISTICS))
    elif set(group_by) == {"band_index", "method"}:
        # Per-band layout: band rows, method mean/std column pairs.
        cells = {(dict(r.group)["band_index"], dict(r.group)["method"]): r
                 for r in reports}
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
                if report is None:
                    row += ["", ""]
                else:
                    row += [repr(report.mean_signed), repr(report.std_signed)]
            rows.append(row)
        _write_csv(out / "per_band_by_method.csv", header, rows)
    return EXIT_OK


def cmd_rsr(args) -> int:
    run_dir = Path(args.run_dir)
    band_files = sorted(run_dir.glob("band_*.json"))
    if not band_files:
        print(f"error: no band_*.json sweeps under {run_dir}",
              file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log: dict[str, dict] = {}
    sources: dict[int, Path] = {}
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
        if not degenerate:
            response = peak_normalize(response)
        name = f"rsr_band_{run.band_index}.csv"
        write_spectral_curve(out / name, response)
        log[str(run.band_index)] = {"degenerate": degenerate, "output": name}
        if degenerate:
            print(f"warning: band {run.band_index} sweep is degenerate "
                  "(no positive response)", file=sys.stderr)
    _write_json(out / "rsr_log.json", {"bands": log})
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
    write_plane(out, result.values, band_index=0, units="ndvi")
    _write_json(Path(str(out) + ".log.json"),
                {"zero_denominator_pixels": result.zero_denominator_count})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="suascal",
                     description="Radiometric calibration toolkit for "
                                 "five-band sUAS imagery")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads(p):
        p.add_argument("--threads", type=int, default=_default_threads(),
                       help="worker threads for per-image work (default: "
                            "the usable CPUs, at most 4)")

    p = sub.add_parser("convert", help="raw digital counts to radiance")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    add_threads(p)
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
    p.add_argument("--pgm-scale", type=float, default=10000.0,
                   help="counts per unit reflectance for --write-pgm")
    add_threads(p)
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
    p.add_argument("--shift-scale", type=float, default=DEFAULT_SHIFT_SCALE)
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
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except (SuascalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
