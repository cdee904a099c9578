"""Flight manifest: the JSON file binding a flight's inputs together.

A manifest names the raw band files, per-band radiometric metadata, DLS
records and calibration panel layout for every image of a flight, plus a
panel spectrum library and (optionally) per-band RSR files.  All paths are
resolved relative to the manifest's own directory, so a flight folder can
move wholesale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import datasets
from .errors import ManifestError, MetadataError
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
    base_dir: Path

    def rsr_set(self) -> dict[int, SpectralCurve]:
        """Per-band RSR curves; bundled defaults when none are listed."""
        if not self.rsr_files:
            return datasets.bundled_rsr_set()
        return {band: read_spectral_curve(path)
                for band, path in sorted(self.rsr_files.items())}

    def panel_spectrum(self, panel_id: str) -> SpectralCurve:
        if panel_id not in self.panels:
            raise ManifestError(f"panel {panel_id!r} is not in the library")
        return read_spectral_curve(self.panels[panel_id])

    @property
    def calibration_images(self) -> tuple[ImageEntry, ...]:
        return tuple(img for img in self.images if img.is_calibration)


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ManifestError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _number(mapping: dict, key: str, context: str, kind=float):
    """A required value converted by ``kind``; a mistyped value is a
    ``ManifestError`` naming the key instead of a bare ``ValueError``."""
    value = _require(mapping, key, context)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        expected = "an integer" if kind is int else "a number"
        raise ManifestError(
            f"{context}: {key!r} must be {expected}, got {value!r}") from exc


def _parse_vignette(raw: dict, context: str) -> VignetteModel:
    coeffs = _require(raw, "coefficients", context)
    if len(coeffs) != 6:
        raise ManifestError(
            f"{context}: vignette needs 6 coefficients, got {len(coeffs)}")
    return VignetteModel(center_x=_number(raw, "center_x", context),
                         center_y=_number(raw, "center_y", context),
                         coefficients=tuple(float(c) for c in coeffs))


def _parse_metadata(raw: dict, band_index: int,
                    context: str) -> RadiometricMetadata:
    vignette = _parse_vignette(_require(raw, "vignette", context), context)
    try:
        return RadiometricMetadata(
            a1=_number(raw, "a1", context),
            a2=_number(raw, "a2", context),
            a3=_number(raw, "a3", context),
            gain=_number(raw, "gain", context),
            exposure_us=_number(raw, "exposure_us", context),
            dark_level=_number(raw, "dark_level", context),
            vignette=vignette,
            bits_per_pixel=int(raw.get("bits_per_pixel", 16)),
            band_index=band_index)
    except MetadataError as exc:
        raise ManifestError(f"{context}: {exc}") from exc


def _parse_dls(raw: dict, context: str) -> DLSRecord:
    try:
        return DLSRecord(
            raw_irradiance=[float(v) for v in
                            _require(raw, "raw_irradiance", context)],
            solar_elevation_deg=float(
                _require(raw, "solar_elevation_deg", context)),
            sun_sensor_angle_deg=float(
                _require(raw, "sun_sensor_angle_deg", context)),
            timestamp=float(_require(raw, "timestamp", context)),
            fresnel_factor=float(raw.get("fresnel_factor", 1.0)),
            diffuse_ratio=float(raw.get("diffuse_ratio", 0.166)))
    except (MetadataError, ValueError, TypeError) as exc:
        raise ManifestError(f"{context}: bad DLS record: {exc}") from exc


def _parse_placement(raw: dict, panels: dict[str, Path],
                     context: str) -> PanelPlacement:
    panel_id = str(_require(raw, "panel_id", context))
    if panel_id not in panels:
        raise ManifestError(
            f"{context}: panel {panel_id!r} is not in the panel library")
    roi = _require(raw, "roi", context)
    if len(roi) != 4:
        raise ManifestError(f"{context}: ROI must be [x, y, width, height]")
    return PanelPlacement(panel_id=panel_id,
                          roi=tuple(int(v) for v in roi))


def _parse_image(raw: dict, panels: dict[str, Path], base: Path,
                 index: int) -> ImageEntry:
    context = f"image[{index}]"
    image_id = str(_require(raw, "image_id", context))
    context = f"image {image_id!r}"
    timestamp = _number(raw, "timestamp", context)
    if not math.isfinite(timestamp):
        raise ManifestError(
            f"{context}: 'timestamp' must be finite, got {timestamp!r}")
    bands_raw = _require(raw, "bands", context)
    if len(bands_raw) != N_BANDS:
        raise ManifestError(
            f"{context}: expected exactly {N_BANDS} band entries, "
            f"got {len(bands_raw)}")
    bands = []
    for band_raw in bands_raw:
        band_index = _number(band_raw, "band_index", context, int)
        band_context = f"{context} band {band_index}"
        path = base / str(_require(band_raw, "path", band_context))
        metadata = _parse_metadata(_require(band_raw, "metadata",
                                            band_context),
                                   band_index, band_context)
        bands.append(BandEntry(band_index=band_index, path=path,
                               metadata=metadata))
    indices = sorted(b.band_index for b in bands)
    if indices != list(range(1, N_BANDS + 1)):
        raise ManifestError(
            f"{context}: band indices must be 1..{N_BANDS}, got {indices}")
    bands.sort(key=lambda b: b.band_index)

    dls = None
    if raw.get("dls") is not None:
        dls = _parse_dls(raw["dls"], context)
    bright = dark = None
    if raw.get("calibration") is not None:
        cal = raw["calibration"]
        bright = _parse_placement(_require(cal, "bright", context), panels,
                                  f"{context} bright panel")
        if cal.get("dark") is not None:
            dark = _parse_placement(cal["dark"], panels,
                                    f"{context} dark panel")
        if dls is None:
            raise ManifestError(
                f"{context}: calibration images must carry a dls record")
    return ImageEntry(image_id=image_id, timestamp=timestamp,
                      bands=tuple(bands), dls=dls,
                      calibration_bright=bright, calibration_dark=dark)


def load_manifest(path) -> FlightManifest:
    """Load and validate a flight manifest JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ManifestError(f"{path}: manifest root must be an object")
    base = path.parent

    flight = _require(raw, "flight", str(path))
    panels = {str(pid): base / str(spec["spectrum"] if isinstance(spec, dict)
                                   else spec)
              for pid, spec in raw.get("panels", {}).items()}
    rsr_files = {}
    for key, value in raw.get("rsr", {}).items():
        band = int(key)
        if not 1 <= band <= N_BANDS:
            raise ManifestError(f"{path}: RSR band index {band} out of range")
        rsr_files[band] = base / str(value)

    images_raw = raw.get("images", [])
    images = tuple(_parse_image(img, panels, base, i)
                   for i, img in enumerate(images_raw))
    seen: set[str] = set()
    for img in images:
        if img.image_id in seen:
            raise ManifestError(f"duplicate image id {img.image_id!r}")
        seen.add(img.image_id)

    return FlightManifest(
        flight_id=str(_require(flight, "id", "flight")),
        date=str(_require(flight, "date", "flight")),
        weather=str(_require(flight, "weather", "flight")),
        altitude_ft=int(_require(flight, "altitude_ft", "flight")),
        images=images,
        panels=panels,
        rsr_files=rsr_files,
        base_dir=base)
