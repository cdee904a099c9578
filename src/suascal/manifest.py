"""Flight manifest: the JSON file binding a flight's inputs together.

A manifest names the raw band files, per-band radiometric metadata, DLS
records and calibration panel layout for every image of a flight, plus a
panel spectrum library and (optionally) per-band RSR files.  All paths are
resolved relative to the manifest's own directory, so a flight folder can
move wholesale.

Every value is checked through the typed JSON reader of
:mod:`suascal.jsonread`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import datasets
from .errors import ManifestError, MetadataError
from .jsonread import json_field, json_value, read_json
from .radiance import RadiometricMetadata, VignetteModel
from .reflectance import N_BANDS, DLSRecord
from .rsr import SpectralCurve, read_spectral_curve


@dataclass(frozen=True)
class PanelPlacement:
    """Where a known panel sits inside a calibration image."""

    panel_id: str
    roi: tuple[int, int, int, int]


@dataclass(frozen=True)
class BandEntry:
    """One band of one image: the raw file and how to convert it."""

    band_index: int
    path: Path
    metadata: RadiometricMetadata


@dataclass(frozen=True)
class ImageEntry:
    """One captured frame with its five bands and ancillary records."""

    image_id: str
    timestamp: float
    bands: tuple[BandEntry, ...]
    dls: Optional[DLSRecord] = None
    calibration_bright: Optional[PanelPlacement] = None
    calibration_dark: Optional[PanelPlacement] = None

    @property
    def is_calibration(self) -> bool:
        return self.calibration_bright is not None

    def band(self, band_index: int) -> BandEntry:
        for entry in self.bands:
            if entry.band_index == band_index:
                return entry
        raise ManifestError(
            f"image {self.image_id}: no band {band_index}")


@dataclass(frozen=True)
class FlightManifest:
    """Validated manifest contents with paths already resolved."""

    flight_id: str
    date: str
    weather: str
    altitude_ft: int
    images: tuple[ImageEntry, ...]
    panels: dict[str, Path]
    rsr_files: dict[int, Path]

    def rsr_set(self) -> dict[int, SpectralCurve]:
        """The RSR curve of each of the five bands: a listed file's for its
        band, the bundled curve for every other."""
        return {**datasets.bundled_rsr_set(),
                **{band: read_spectral_curve(path)
                   for band, path in self.rsr_files.items()}}

    def panel_spectrum(self, panel_id: str) -> SpectralCurve:
        if panel_id not in self.panels:
            raise ManifestError(f"panel {panel_id!r} is not in the library")
        return read_spectral_curve(self.panels[panel_id])

    @property
    def calibration_images(self) -> tuple[ImageEntry, ...]:
        return tuple(img for img in self.images if img.is_calibration)


def _parse_metadata(raw: dict, band_index: int,
                    context: str) -> RadiometricMetadata:
    vignette = json_field(raw, "vignette", dict, context)
    try:
        return RadiometricMetadata(
            a1=json_field(raw, "a1", float, context),
            a2=json_field(raw, "a2", float, context),
            a3=json_field(raw, "a3", float, context),
            gain=json_field(raw, "gain", float, context),
            exposure_us=json_field(raw, "exposure_us", float, context),
            dark_level=json_field(raw, "dark_level", float, context),
            vignette=VignetteModel(
                center_x=json_field(vignette, "center_x", float, context),
                center_y=json_field(vignette, "center_y", float, context),
                coefficients=json_field(vignette, "coefficients", [float],
                                        context)),
            bits_per_pixel=json_field(raw, "bits_per_pixel", int, context, 16),
            band_index=band_index)
    except MetadataError as exc:
        raise ManifestError(f"{context}: {exc}") from exc


def _parse_dls(raw: dict, context: str) -> DLSRecord:
    try:
        return DLSRecord(
            raw_irradiance=json_field(raw, "raw_irradiance", [float], context),
            solar_elevation_deg=json_field(raw, "solar_elevation_deg", float,
                                           context),
            sun_sensor_angle_deg=json_field(raw, "sun_sensor_angle_deg",
                                            float, context),
            timestamp=json_field(raw, "timestamp", float, context),
            fresnel_factor=json_field(raw, "fresnel_factor", float, context,
                                      1.0),
            diffuse_ratio=json_field(raw, "diffuse_ratio", float, context,
                                     0.166))
    except MetadataError as exc:
        raise ManifestError(f"{context}: {exc}") from exc


def _parse_placement(raw: dict, panels: dict[str, Path],
                     context: str) -> PanelPlacement:
    panel_id = json_field(raw, "panel_id", str, context)
    if panel_id not in panels:
        raise ManifestError(
            f"{context}: panel {panel_id!r} is not in the panel library")
    roi = json_field(raw, "roi", [int], context)
    if len(roi) != 4:
        raise ManifestError(f"{context}: ROI must be [x, y, width, height]")
    return PanelPlacement(panel_id=panel_id, roi=tuple(roi))


def _parse_image(raw: dict, panels: dict[str, Path], base: Path,
                 index: int) -> ImageEntry:
    image_id = json_field(raw, "image_id", str, f"image[{index}]")
    context = f"image {image_id!r}"
    # The id names the image's output files, which must land in --out.
    if image_id in ("", ".", "..") or any(c in image_id for c in "/\\\0"):
        raise ManifestError(f"{context}: 'image_id' must be a file name")
    timestamp = json_field(raw, "timestamp", float, context)
    if not math.isfinite(timestamp):
        raise ManifestError(
            f"{context}: 'timestamp' must be finite, got {timestamp!r}")
    bands = []
    for band_raw in json_field(raw, "bands", [dict], context):
        band_index = json_field(band_raw, "band_index", int, context)
        band_context = f"{context} band {band_index}"
        path = base / json_field(band_raw, "path", str, band_context)
        metadata = _parse_metadata(
            json_field(band_raw, "metadata", dict, band_context),
            band_index, band_context)
        bands.append(BandEntry(band_index=band_index, path=path,
                               metadata=metadata))
    indices = sorted(b.band_index for b in bands)
    if indices != list(range(1, N_BANDS + 1)):
        raise ManifestError(
            f"{context}: band indices must be 1..{N_BANDS}, got {indices}")
    bands.sort(key=lambda b: b.band_index)

    dls = None
    dls_raw = json_field(raw, "dls", dict, context, None)
    if dls_raw is not None:
        dls = _parse_dls(dls_raw, f"{context} dls")
    bright = dark = None
    cal = json_field(raw, "calibration", dict, context, None)
    if cal is not None:
        bright = _parse_placement(json_field(cal, "bright", dict, context),
                                  panels, f"{context} bright panel")
        dark_raw = json_field(cal, "dark", dict, context, None)
        if dark_raw is not None:
            dark = _parse_placement(dark_raw, panels, f"{context} dark panel")
        if dls is None:
            raise ManifestError(
                f"{context}: calibration images must carry a dls record")
    return ImageEntry(image_id=image_id, timestamp=timestamp,
                      bands=tuple(bands), dls=dls,
                      calibration_bright=bright, calibration_dark=dark)


def load_manifest(path) -> FlightManifest:
    """Load and validate a flight manifest JSON file."""
    path = Path(path)
    raw = read_json(path)
    where = str(path)
    base = path.parent

    flight = json_field(raw, "flight", dict, where)
    panels = {}
    for panel_id, spec in json_field(raw, "panels", dict, where, {}).items():
        spec_where = f"{where}: 'panels'[{panel_id!r}]"
        if isinstance(spec, dict):
            spec = json_field(spec, "spectrum", str, spec_where)
        panels[panel_id] = base / json_value(spec, str, spec_where)
    rsr_files = {}
    for key, value in json_field(raw, "rsr", dict, where, {}).items():
        if key not in [str(band) for band in range(1, N_BANDS + 1)]:
            raise ManifestError(
                f"{where}: 'rsr' key {key!r} is not a band index "
                f"1..{N_BANDS}")
        rsr_files[int(key)] = base / json_value(value, str,
                                                f"{where}: 'rsr'[{key!r}]")

    images_raw = json_field(raw, "images", [dict], where, [])
    images = tuple(_parse_image(img, panels, base, i)
                   for i, img in enumerate(images_raw))
    seen: set[str] = set()
    for img in images:
        if img.image_id in seen:
            raise ManifestError(f"duplicate image id {img.image_id!r}")
        seen.add(img.image_id)

    return FlightManifest(
        flight_id=json_field(flight, "id", str, "flight"),
        date=json_field(flight, "date", str, "flight"),
        weather=json_field(flight, "weather", str, "flight"),
        altitude_ft=json_field(flight, "altitude_ft", int, "flight"),
        images=images,
        panels=panels,
        rsr_files=rsr_files)
