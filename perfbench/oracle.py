"""Output oracles for the benchmark's workloads.

Flight outputs are checked against this module's own numpy implementation
of the documented camera model

``L = V * R * (I - dL) * a1 / (g * t * 2**N)``, clamped at zero,

with ``V = 1 / (1 + k0*r + ... + k5*r**6)`` and
``R = 1 / (1 + a2*y/t + a3*y)``, and of the two-point empirical line with
DLS-based calibration selection.  It reads the raw frames and the manifest
itself and shares no code with the program.

Simulation outputs are checked three ways: the row count, a seeded sample
of cells recomputed with the program's public per-cell functions (the same
oracles its tests use), and ``summary_band.csv`` recomputed from
``errors.csv``.

Every check returns the set of failed operations (image ids, or grid cells)
instead of raising, so the benchmark can report how many failed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

#: Float32 planes are checked to 16 float32 ulps of the float64 oracle, plus
#: an absolute floor for values near zero.
PLANE_RTOL, PLANE_ATOL = 1e-6, 1e-9
#: Simulator rows are float64 text; reordered sums move them by ~1e-15.
ROW_RTOL, ROW_ATOL = 1e-9, 1e-12
DEFAULT_DIFFUSE_RATIO = 0.166
#: What a missing or malformed output raises while it is checked.
BAD_OUTPUT = (OSError, ValueError, KeyError, IndexError, TypeError)


def read_pgm(path: Path) -> np.ndarray:
    data = path.read_bytes()
    fields = data.split(maxsplit=4)
    if fields[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    width, height = int(fields[1]), int(fields[2])
    offset = len(data) - width * height * 2
    return np.frombuffer(data, dtype=">u2", offset=offset).reshape(
        height, width)


def read_plane(path: Path) -> tuple[np.ndarray, dict]:
    sidecar = json.loads(Path(str(path) + ".json").read_text(
        encoding="utf-8"))
    pixels = np.fromfile(path, dtype="<f4")
    return pixels.reshape(sidecar["height"], sidecar["width"]), sidecar


def plane_matches(actual: np.ndarray, expected: np.ndarray) -> bool:
    if actual.shape != expected.shape:
        return False
    error = np.abs(actual.astype(np.float64) - expected)
    return bool(np.all(error <= PLANE_RTOL * np.abs(expected) + PLANE_ATOL))


def values_match(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= ROW_RTOL * abs(expected) + ROW_ATOL


class CameraModel:
    """Counts to radiance, with vignette maps cached per model and shape."""

    def __init__(self):
        self._vignettes: dict = {}

    def _vignette(self, vignette: dict, shape) -> np.ndarray:
        key = (json.dumps(vignette, sort_keys=True), shape)
        if key not in self._vignettes:
            height, width = shape
            dx = np.arange(width, dtype=np.float64) - vignette["center_x"]
            dy = np.arange(height, dtype=np.float64) - vignette["center_y"]
            r = np.sqrt(dx[np.newaxis, :] ** 2 + dy[:, np.newaxis] ** 2)
            k = np.ones_like(r)
            for power, c in enumerate(vignette["coefficients"], start=1):
                k += c * r ** power
            self._vignettes[key] = 1.0 / k
        return self._vignettes[key]

    def radiance(self, counts: np.ndarray, meta: dict
                 ) -> tuple[np.ndarray, int]:
        """Radiance plane and the number of pixels clamped at zero."""
        t = meta["exposure_us"]
        y = np.arange(counts.shape[0], dtype=np.float64)
        rows = 1.0 / (1.0 + meta["a2"] * y / t + meta["a3"] * y)
        scale = meta["a1"] / (meta["gain"] * t
                              * 2.0 ** meta.get("bits_per_pixel", 16))
        signal = counts.astype(np.float64) - meta["dark_level"]
        clamped = int(np.count_nonzero(signal < 0))
        radiance = self._vignette(meta["vignette"], counts.shape) * \
            rows[:, np.newaxis] * signal * scale
        return np.maximum(radiance, 0.0), clamped


def _flat_value(path: Path) -> float:
    with path.open(encoding="utf-8") as fh:
        values = {float(row[1]) for row in list(csv.reader(fh))[1:] if row}
    if len(values) != 1:
        raise ValueError(f"{path}: panel spectrum is not flat")
    return values.pop()


def _corrected_dls(dls: dict) -> np.ndarray:
    ratio = dls.get("diffuse_ratio", DEFAULT_DIFFUSE_RATIO)
    factor = (ratio + math.sin(math.radians(dls["solar_elevation_deg"]))) / (
        dls.get("fresnel_factor", 1.0)
        * (ratio + math.cos(math.radians(dls["sun_sensor_angle_deg"]))))
    return np.asarray(dls["raw_irradiance"], dtype=np.float64) * factor


class FlightOracle:
    """Expected outputs of ``convert`` and ``reflect --method elm2
    --selection dls`` for one manifest."""

    def __init__(self, manifest_path: Path):
        self.base = manifest_path.parent
        self.manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        self.images = self.manifest["images"]
        self.camera = CameraModel()
        #: One float32 plane and its float64 expectation, kept for the
        #: self-check.
        self.sample: tuple[np.ndarray, np.ndarray] | None = None

    def band_radiance(self, band: dict) -> tuple[np.ndarray, int]:
        return self.camera.radiance(read_pgm(self.base / band["path"]),
                                    band["metadata"])

    def elm_models(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per calibration image: band slopes and biases of the 2-point
        empirical line through its bright and dark panels."""
        panels = self.manifest["panels"]
        rho = {pid: _flat_value(self.base / path)
               for pid, path in panels.items()}
        models = {}
        for image in self.images:
            cal = image.get("calibration")
            if cal is None:
                continue
            slope, bias = np.zeros(5), np.zeros(5)
            for band in image["bands"]:
                plane, _ = self.band_radiance(band)
                means = {}
                for role in ("bright", "dark"):
                    x, y, w, h = cal[role]["roi"]
                    means[role] = plane[y:y + h, x:x + w].mean()
                rho_b = rho[cal["bright"]["panel_id"]]
                rho_d = rho[cal["dark"]["panel_id"]]
                i = band["band_index"] - 1
                slope[i] = (rho_b - rho_d) / (means["bright"] - means["dark"])
                bias[i] = rho_b - slope[i] * means["bright"]
            models[image["image_id"]] = (slope, bias)
        return models

    def select(self, image: dict) -> tuple[str, float]:
        """Calibration image with the nearest corrected DLS vector; ties by
        timestamp, then id."""
        reference = _corrected_dls(image["dls"])
        best = min(
            (float(np.linalg.norm(reference - _corrected_dls(c["dls"]))),
             c["timestamp"], c["image_id"])
            for c in self.images if c.get("calibration") is not None)
        return best[2], best[0]

    def _plane_ok(self, out_dir: Path, entry: dict, band: dict,
                  expected: np.ndarray) -> bool:
        actual, sidecar = read_plane(out_dir / entry["path"])
        if sidecar["band_index"] != band["band_index"]:
            return False
        if self.sample is None:
            self.sample = (actual, expected)
        return plane_matches(actual, expected)

    def _check(self, out_dir: Path, report_name: str, image_ok) -> set[str]:
        """Image ids whose report record or planes fail ``image_ok``."""
        try:
            report = json.loads((out_dir / report_name).read_text(
                encoding="utf-8"))
            failures, records = report["failures"], report["images"]
        except BAD_OUTPUT:
            return {image["image_id"] for image in self.images}
        failed = set()
        for image in self.images:
            image_id = image["image_id"]
            try:
                ok = image_id not in failures and image_ok(
                    image, records[image_id])
            except BAD_OUTPUT:
                ok = False
            if not ok:
                failed.add(image_id)
        return failed

    def check_convert(self, out_dir: Path) -> set[str]:
        def image_ok(image, record):
            for band in image["bands"]:
                expected, clamped = self.band_radiance(band)
                entry = record["bands"][str(band["band_index"])]
                if entry["clamped_pixels"] != clamped or not self._plane_ok(
                        out_dir, entry, band, expected):
                    return False
            return True

        return self._check(out_dir, "conversion_log.json", image_ok)

    def check_reflect(self, out_dir: Path) -> set[str]:
        models = self.elm_models()

        def image_ok(image, record):
            chosen, distance = self.select(image)
            if record["calibration_image"] != chosen or not values_match(
                    record["selection_metric"], distance):
                return False
            slope, bias = models[chosen]
            for band in image["bands"]:
                plane, _ = self.band_radiance(band)
                i = band["band_index"] - 1
                expected = slope[i] * plane + bias[i]
                outside = np.count_nonzero((expected < 0) | (expected > 1))
                entry = record["bands"][str(band["band_index"])]
                # Two pixels of slack for values within rounding of 0 or 1.
                if abs(entry["out_of_range_fraction"] * expected.size
                       - outside) > 2 or not self._plane_ok(
                           out_dir, entry, band, expected):
                    return False
            return True

        return self._check(out_dir, "reflectance_report.json", image_ok)

    def rejects_perturbed_plane(self) -> bool:
        """Self-check: one pixel moved by 1e-4 relative must fail."""
        if self.sample is None:
            return False
        actual, expected = self.sample
        perturbed = actual.copy()
        row, col = actual.shape[0] // 2, actual.shape[1] // 2
        perturbed[row, col] = perturbed[row, col] * np.float32(1 + 1e-4) + \
            np.float32(1e-6)
        return not plane_matches(perturbed, expected)


ROW_FIELDS = ("atmosphere", "day", "time_utc", "visibility_km",
              "sensor_altitude_km", "target", "band_index",
              "true_reflectance", "recovered_reflectance", "signed_error")


def grid_cells(grid) -> list[tuple]:
    return [(model, day, hour, vis, alt)
            for model in grid.atmospheres for day in grid.days
            for hour in grid.times_utc for vis in grid.visibilities_km
            for alt in grid.sensor_altitudes_km]


def read_error_rows(path: Path) -> dict[tuple, dict]:
    """errors.csv as ``{cell: {(target, band): (true, recovered, signed)}}``."""
    cells: dict[tuple, dict] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader)) != ROW_FIELDS:
            raise ValueError(f"{path}: unexpected header")
        for row in reader:
            cell = (row[0], int(row[1]), float(row[2]), float(row[3]),
                    float(row[4]))
            cells.setdefault(cell, {})[(row[5], int(row[6]))] = (
                float(row[7]), float(row[8]), float(row[9]))
    return cells


class SimulationOracle:
    """Expected outputs of ``simulate`` on the default grid."""

    def __init__(self):
        from suascal import datasets
        from suascal.simulate import SimulationGrid
        self.grid = SimulationGrid()
        self.rsr = datasets.bundled_rsr_set()
        self.cells = grid_cells(self.grid)
        self.per_cell = len(self.grid.targets) * len(self.rsr)
        self.sample: tuple[float, float] | None = None

    def expected_cell(self, cell: tuple) -> dict:
        from suascal.rsr import band_effective
        from suascal.simulate import (Scene, dls_downwelling,
                                      parametric_atmosphere, sensor_radiance)
        grid = self.grid
        model, day, hour, visibility, altitude = cell
        atm, zenith = parametric_atmosphere(
            model, day, hour, visibility, altitude, grid.ground_altitude_km,
            grid.latitude_deg, grid.longitude_west_deg)

        def scene(curve):
            return Scene(target_reflectance=curve, solar_zenith_deg=zenith,
                         sensor_altitude_km=altitude,
                         ground_altitude_km=grid.ground_altitude_km,
                         visibility_km=visibility)

        down = dls_downwelling(scene(grid.targets[0][1]), atm)
        rows = {}
        for name, curve in grid.targets:
            at_sensor = sensor_radiance(scene(curve), atm)
            for band, rsr in sorted(self.rsr.items()):
                true = band_effective(curve, rsr)
                recovered = band_effective(at_sensor, rsr) / \
                    band_effective(down, rsr)
                rows[(name, band)] = (true, recovered, recovered - true)
        return rows

    def check(self, out_dir: Path, rng: np.random.Generator | None
              ) -> set[tuple]:
        """Failed cells: row count always; with ``rng``, also a seeded
        sample of recomputed cells and the per-band summary."""
        try:
            rows = read_error_rows(out_dir / "errors.csv")
        except BAD_OUTPUT:
            return set(self.cells)
        failed = {cell for cell in self.cells
                  if len(rows.get(cell, ())) != self.per_cell}
        if sum(map(len, rows.values())) != len(self.cells) * self.per_cell:
            return set(self.cells)
        if rng is None:
            return failed
        picks = rng.choice(len(self.cells), size=24, replace=False)
        for index in sorted(picks):
            cell = self.cells[int(index)]
            for key, expected in self.expected_cell(cell).items():
                actual = rows[cell].get(key)
                if actual is None or not all(
                        map(values_match, actual, expected)):
                    failed.add(cell)
                if self.sample is None and actual is not None:
                    self.sample = (actual[1], expected[1])
        if not self._summary_consistent(out_dir, rows):
            return set(self.cells)
        return failed

    def _summary_consistent(self, out_dir: Path, rows: dict) -> bool:
        excluded = set(self.grid.summary_exclude_altitudes_km)
        errors: dict[int, list] = {}
        for cell, values in rows.items():
            if cell[4] in excluded:
                continue
            for (_, band), (_, _, signed) in values.items():
                errors.setdefault(band, []).append(signed)
        try:
            with (out_dir / "summary_band.csv").open(
                    newline="", encoding="utf-8") as fh:
                table = list(csv.DictReader(fh))
            if sorted(int(r["band_index"]) for r in table) != sorted(errors):
                return False
            for r in table:
                signed = np.array(errors[int(r["band_index"])])
                expected = {"mean_signed": signed.mean(),
                            "std_signed": signed.std(),
                            "mean_absolute": np.abs(signed).mean(),
                            "std_absolute": np.abs(signed).std()}
                if int(r["n"]) != signed.size or not all(
                        values_match(float(r[k]), v)
                        for k, v in expected.items()):
                    return False
        except BAD_OUTPUT:
            return False
        return True

    def rejects_perturbed_row(self) -> bool:
        """Self-check: a recovered reflectance moved by 1e-6 relative must
        fail."""
        if self.sample is None:
            return False
        actual, expected = self.sample
        return not values_match(actual * (1 + 1e-6), expected)
