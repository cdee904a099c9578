"""Synthetic flight builder and writers shared by the tests.

Builds a complete on-disk flight: five-band 16-bit PGM rasters with bright
and dark panel patches, flat panel spectra, DLS records and the manifest
JSON binding it all.  The numbers are chosen so every recovery route is
exact: the radiance scale is ``a1 / (gain * exposure * 2**16) = 2.5e-6``
per count, panel counts are integers on that scale, both panels sit on a
line through the origin (so 1-point and 2-point fits agree), and the DLS
irradiance is ``pi`` times the radiance a perfect diffuser would see.

It also holds the JSON strategies the input-validation properties mutate
documents with, the writers and inverses that only tests need (raw PGM
frames, sample CSVs, PGM export counts and radiance back to counts),
:func:`workers`, which pins the worker count of every command, and what
tests of forked parts need: :class:`ForkLog` and :func:`no_child_left`.
"""

import contextlib
import copy
import csv
import json
import os
import pickle
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from suascal import cli
from suascal.errors import ImageFormatError
from suascal.evaluate import TargetSample
from suascal.imageio import pgm16_header, rows_writer
from suascal.radiance import (RadianceImage, RadiometricMetadata,
                              row_factors, vignette_map)
from suascal.reflectance import ReflectanceImage, pgm_counts
from suascal.rsr import SpectralCurve, write_spectral_curve


def write_pgm16(path, pixels: np.ndarray) -> None:
    """Write a 2-D unsigned integer array as binary 16-bit PGM."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ImageFormatError("PGM output requires a 2-D array")
    if pixels.min() < 0 or pixels.max() > 65535:
        raise ImageFormatError(
            "pixel values outside [0, 65535] cannot be PGM-encoded")
    height, width = pixels.shape
    with Path(path).open("wb") as handle:
        handle.write(pgm16_header(width, height))
        rows_writer(handle, ">u2")(pixels)


def workers(n: int | None):
    """A context manager under which ``convert``, ``reflect`` and
    ``simulate`` split their work for ``n`` processes, whatever CPUs the
    process may use; ``None`` leaves the count to the CPU set.  It uses no
    fixture, so it works inside ``@given``."""
    if n is None:
        return contextlib.nullcontext()
    return mock.patch.object(cli, "_workers", lambda: n)


def no_child_left() -> None:
    """Assert that this process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class ForkLog:
    """Items noted by this process and by the children it forks, each as
    ``(pid, item)`` in the order noted.  Each note is one append to the
    file ``path``, so no child's note is lost."""

    def __init__(self, path):
        self.path = Path(path)
        self.clear()

    def clear(self) -> None:
        self.path.write_bytes(b"")

    def note(self, item) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, pickle.dumps((os.getpid(), item)))
        finally:
            os.close(fd)

    def notes(self) -> list:
        notes = []
        with self.path.open("rb") as handle:
            while handle.peek(1):
                notes.append(pickle.load(handle))
        return notes

    def by_process(self) -> dict:
        """The items noted by each process, keyed by its pid."""
        items: dict[int, list] = {}
        for pid, item in self.notes():
            items.setdefault(pid, []).append(item)
        return items


def write_samples(path, samples) -> None:
    """Write ``TargetSample`` rows as the CSV ``evaluate --samples`` reads."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f.name for f in fields(TargetSample)])
        for s in samples:
            writer.writerow([s.target_id, s.band_index, s.weather,
                             s.altitude_ft, s.method,
                             repr(s.true_reflectance),
                             repr(s.estimated_reflectance)])


def radiance_to_counts(img: RadianceImage,
                       meta: RadiometricMetadata) -> np.ndarray:
    """Analytic inverse of ``dc_to_radiance`` (un-rounded counts).

    Clamped pixels cannot be recovered; everything else inverts exactly up
    to floating-point rounding.
    """
    height, width = img.pixels.shape
    scale = meta.a1 / (meta.gain * meta.exposure_us
                       * 2.0 ** meta.bits_per_pixel)
    flat = vignette_map(meta.vignette, width, height) * \
        row_factors(meta, height)[:, np.newaxis]
    return img.pixels / (flat * scale) + meta.dark_level


def reflectance_to_pgm_counts(img: ReflectanceImage,
                              scale: float = 10000.0) -> np.ndarray:
    """Scale reflectance for 16-bit PGM export, saturating at the rails."""
    return pgm_counts(img.pixels, scale).astype(np.uint16)

WIDTH, HEIGHT = 64, 48
BRIGHT_ROI = (4, 4, 8, 8)
DARK_ROI = (20, 4, 8, 8)
BRIGHT_RHO = 0.5
DARK_RHO = 0.05
#: Per-band radiance of the bright panel; dark is a tenth of it.
BRIGHT_RADIANCE = (0.10, 0.105, 0.11, 0.115, 0.12)
#: Radiance a 100% diffuser would report under the same illumination.
REFERENCE_RADIANCE = (0.20, 0.21, 0.22, 0.23, 0.24)
COUNT_SCALE = 2.5e-6  # radiance per digital count at the metadata below


def flat_spectrum(value):
    return SpectralCurve(np.array([330.0, 1200.0]), np.full(2, float(value)))


def band_metadata():
    return {
        "a1": 163.84, "a2": 0.0, "a3": 0.0, "gain": 1.0,
        "exposure_us": 1000.0, "dark_level": 0.0, "bits_per_pixel": 16,
        "vignette": {"center_x": 0.0, "center_y": 0.0,
                     "coefficients": [0.0] * 6},
    }


def upright_dls_record(reference_radiance, timestamp):
    """DLS record whose corrected irradiance is exactly pi*reference."""
    return {
        "raw_irradiance": [float(np.pi) * r for r in reference_radiance],
        "solar_elevation_deg": 90.0,
        "sun_sensor_angle_deg": 0.0,
        "timestamp": timestamp,
    }


def panel_raster(band, scale=1.0):
    """Raster for one band: background plus the two panel patches."""
    bright = round(BRIGHT_RADIANCE[band - 1] / COUNT_SCALE * scale)
    dark = round(bright / 10)
    pixels = np.full((HEIGHT, WIDTH), dark, dtype=np.uint16)
    x, y, w, h = BRIGHT_ROI
    pixels[y:y + h, x:x + w] = bright
    x, y, w, h = DARK_ROI
    pixels[y:y + h, x:x + w] = dark
    return pixels


def build_flight(root, field_images=2, with_decoy=False, weather="sunny",
                 altitude_ft=225):
    """Write a flight folder under ``root``; returns the manifest path.

    The flight holds calibration image ``cal_a`` (t=1000), optionally a
    decoy ``cal_b`` (t=5000, 25% brighter illumination), and ``field_images``
    frames (t=1001, 1002, ...) photographing the same panels under cal_a's
    illumination, each carrying cal_a's DLS record.
    """
    root.mkdir(parents=True, exist_ok=True)
    write_spectral_curve(root / "panel_bright.csv", flat_spectrum(BRIGHT_RHO))
    write_spectral_curve(root / "panel_dark.csv", flat_spectrum(DARK_RHO))

    def image_entry(image_id, timestamp, scale, calibration):
        bands = []
        for band in range(1, 6):
            name = f"{image_id}_b{band}.pgm"
            write_pgm16(root / name, panel_raster(band, scale))
            bands.append({"band_index": band, "path": name,
                          "metadata": band_metadata()})
        reference = [r * scale for r in REFERENCE_RADIANCE]
        entry = {"image_id": image_id, "timestamp": timestamp,
                 "bands": bands,
                 "dls": upright_dls_record(reference, timestamp)}
        if calibration:
            entry["calibration"] = {
                "bright": {"panel_id": "bright", "roi": list(BRIGHT_ROI)},
                "dark": {"panel_id": "dark", "roi": list(DARK_ROI)},
            }
        return entry

    images = [image_entry("cal_a", 1000.0, 1.0, True)]
    if with_decoy:
        images.append(image_entry("cal_b", 5000.0, 1.25, True))
    for i in range(field_images):
        # Field frames share cal_a's illumination (scale 1.0), so their DLS
        # vectors match cal_a's and sit 25% away from the decoy's.
        images.append(image_entry(f"field_{i + 1}", 1001.0 + i, 1.0, False))

    manifest = {
        "flight": {"id": "synthetic-flight", "date": "2021-06-20",
                   "weather": weather, "altitude_ft": altitude_ft},
        "panels": {"bright": "panel_bright.csv", "dark": "panel_dark.csv"},
        "images": images,
    }
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return path


def build_empty_flight(root):
    """Write a manifest that lists no image under ``root``; returns its
    path."""
    root.mkdir(parents=True, exist_ok=True)
    path = root / "manifest.json"
    path.write_text(json.dumps({
        "flight": {"id": "empty", "date": "2021-01-01", "weather": "sunny",
                   "altitude_ft": 150},
        "panels": {}, "images": []}), encoding="utf-8")
    return path


#: Any JSON value: null, bools, integers, floats (NaN and infinities too,
#: which Python's json reads and writes), strings, lists and objects.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


def json_paths(node, prefix=()):
    """Every path of keys and indices into a JSON document, root first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from json_paths(child, prefix + (key,))


def replace_node(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc
