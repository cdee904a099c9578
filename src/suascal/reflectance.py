"""Radiance to surface reflectance factor.

Two families of retrieval are provided:

* **Empirical line method (ELM)** - fit a per-band affine map
  ``rho = m * L + b`` from one bright panel (1-point, forced through the
  origin) or a bright/dark panel pair (2-point), then apply it per pixel.
* **Ambient adjustable radiance retrieval (AARR)** - divide target radiance
  by the downwelling radiance derived from the onboard downwelling light
  sensor (DLS): ``rho = L_target / (E_corrected / pi)``.

The DLS tilt/orientation correction implemented by :func:`dls_correct` is

``E_corr = E_raw * (r + sin(elev)) / (F * (r + cos(sun_sensor)))``

with ``r`` the diffuse-to-direct ratio, ``elev`` the solar elevation,
``sun_sensor`` the angle between the sun and the sensor normal and ``F`` a
Fresnel transmission factor.  When the sensor is upright
(``cos(sun_sensor) == sin(elev)``) and ``F == 1`` the correction is the
identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (DegeneratePanelsError, MetadataError,
                     NoIlluminationError, OrientationError)
from .radiance import (RadianceImage, RadiometricMetadata, RawImage,
                       Vignette, _camera_model, _require_2d, convert_band,
                       radiance_is_bounded)
from .rsr import SpectralCurve, band_effective

N_BANDS = 5
#: Default diffuse-to-direct irradiance ratio for the DLS correction.
DEFAULT_DIFFUSE_RATIO = 0.166

SELECTION_MODES = ("dls", "time", "single")


def _as_band_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (N_BANDS,):
        raise MetadataError(
            f"{name} must have exactly {N_BANDS} band values, got "
            f"shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise MetadataError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class DLSRecord:
    """One downwelling light sensor reading (all five bands).

    ``raw_irradiance`` is in W/m^2/nm.  Angles are degrees: solar elevation
    in [0, 90], sun-to-sensor angle in [0, 180].
    """

    raw_irradiance: np.ndarray
    solar_elevation_deg: float
    sun_sensor_angle_deg: float
    timestamp: float
    fresnel_factor: float = 1.0
    diffuse_ratio: float = DEFAULT_DIFFUSE_RATIO

    def __post_init__(self):
        raw = _as_band_vector(self.raw_irradiance, "raw_irradiance")
        if raw.min() < 0:
            raise MetadataError("DLS irradiance cannot be negative")
        if not 0.0 <= self.solar_elevation_deg <= 90.0:
            raise OrientationError(
                f"solar elevation {self.solar_elevation_deg!r} outside "
                "[0, 90] degrees")
        if not 0.0 <= self.sun_sensor_angle_deg <= 180.0:
            raise OrientationError(
                f"sun-sensor angle {self.sun_sensor_angle_deg!r} outside "
                "[0, 180] degrees")
        if not self.fresnel_factor > 0:
            raise OrientationError(
                f"Fresnel factor must be positive, got {self.fresnel_factor!r}")
        if not self.diffuse_ratio >= 0:
            raise OrientationError(
                f"diffuse ratio must be non-negative, got "
                f"{self.diffuse_ratio!r}")
        if _correction_denominator(self) <= 0:
            raise OrientationError(
                "orientation-invalid DLS record: correction denominator is "
                "not positive")
        object.__setattr__(self, "raw_irradiance", raw)


def _correction_denominator(record: DLSRecord) -> float:
    return record.diffuse_ratio + math.cos(
        math.radians(record.sun_sensor_angle_deg))


def dls_correct(record: DLSRecord) -> np.ndarray:
    """Orientation-corrected DLS irradiance, all five bands.

    Raises
    ------
    OrientationError
        If the correction denominator is not positive.
    """
    denominator = _correction_denominator(record)
    if denominator <= 0:
        raise OrientationError(
            "orientation-invalid DLS record: correction denominator "
            f"{denominator:.6g} is not positive")
    numerator = record.diffuse_ratio + math.sin(
        math.radians(record.solar_elevation_deg))
    factor = numerator / (record.fresnel_factor * denominator)
    return record.raw_irradiance * factor


def irradiance_to_radiance(irradiance) -> np.ndarray:
    """Downwelling radiance from irradiance for a Lambertian sky: ``E/pi``."""
    return np.asarray(irradiance, dtype=np.float64) / math.pi


def dls_distance(a, b) -> float:
    """Euclidean distance between two five-band irradiance vectors.

    :func:`numpy.linalg.norm` squares before it takes the root, so it
    overflows once the squared distance passes the float range;
    :func:`math.dist` scales as it sums and takes over there.  Below that
    the numpy value stands, so reported metrics keep their bits.
    """
    a = _as_band_vector(a, "irradiance vector")
    b = _as_band_vector(b, "irradiance vector")
    with np.errstate(over="ignore"):
        distance = float(np.linalg.norm(a - b))
    return distance if math.isfinite(distance) else math.dist(a, b)


@dataclass(frozen=True)
class PanelObservation:
    """A reference panel as seen in one calibration image."""

    panel_id: str
    ground_reflectance: np.ndarray
    mean_radiance: np.ndarray
    roi: tuple[int, int, int, int]

    def __post_init__(self):
        gr = _as_band_vector(self.ground_reflectance, "ground_reflectance")
        mr = _as_band_vector(self.mean_radiance, "mean_radiance")
        check_panel(self.panel_id, gr, mr)
        object.__setattr__(self, "ground_reflectance", gr)
        object.__setattr__(self, "mean_radiance", mr)


def check_panel(panel_id: str, ground_reflectance=None,
                mean_radiance=None) -> None:
    """Raise unless panel ``panel_id`` can anchor an empirical line: its
    ground reflectance finite and inside (0, 1.5), its observed radiance
    finite and positive.  Either may be given alone, for any number of
    bands.

    Raises
    ------
    MetadataError
        If a value is not finite, or a ground reflectance is out of range.
    DegeneratePanelsError
        If an observed radiance is not positive.
    """
    for name, values in (("ground_reflectance", ground_reflectance),
                         ("mean_radiance", mean_radiance)):
        if values is not None and not np.all(np.isfinite(values)):
            raise MetadataError(f"{name} contains non-finite values")
    if ground_reflectance is not None and (
            np.min(ground_reflectance) <= 0
            or np.max(ground_reflectance) >= 1.5):
        raise MetadataError(
            f"panel {panel_id}: ground reflectance outside (0, 1.5)")
    if mean_radiance is not None and np.min(mean_radiance) <= 0:
        raise DegeneratePanelsError(
            f"panel {panel_id}: non-positive observed radiance")


@dataclass(frozen=True)
class CalibrationImage:
    """A calibration frame: bright panel, optional dark panel, DLS record."""

    image_id: str
    timestamp: float
    bright: PanelObservation
    dls: DLSRecord
    dark: Optional[PanelObservation] = None


@dataclass(frozen=True)
class ElmModel:
    """Fitted empirical-line coefficients, one slope/bias pair per band."""

    slope: np.ndarray
    bias: np.ndarray
    source_image: str

    def __post_init__(self):
        slope = _as_band_vector(self.slope, "slope")
        bias = _as_band_vector(self.bias, "bias")
        _check_line(slope, bias)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "bias", bias)


def _check_line(slope: np.ndarray, bias: np.ndarray) -> None:
    """Reject empirical-line coefficients that are not finite, or a slope
    that is not positive, in any band given."""
    for name, values in (("slope", slope), ("bias", bias)):
        if not np.all(np.isfinite(values)):
            raise MetadataError(f"{name} contains non-finite values")
    if np.min(slope) <= 0:
        raise DegeneratePanelsError("ELM slopes must be positive")


@dataclass(frozen=True)
class ReflectanceImage:
    """A single-band reflectance-factor plane, shape (h, w).

    ``out_of_range_fraction`` is derived from the pixels on construction.
    """

    band_index: int
    pixels: np.ndarray
    out_of_range_fraction: float = field(init=False)

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        _require_2d(px)
        if not 1 <= self.band_index <= N_BANDS:
            raise MetadataError(f"band_index out of range: {self.band_index}")
        if not np.all(np.isfinite(px)):
            raise MetadataError("reflectance contains non-finite pixels")
        object.__setattr__(self, "pixels", px)
        object.__setattr__(self, "out_of_range_fraction",
                           out_of_range_fraction(px))


def out_of_range_fraction(pixels: np.ndarray) -> float:
    """Fraction of pixels outside the physical [0, 1] reflectance range."""
    pixels = np.asarray(pixels)
    bad = np.count_nonzero((pixels < 0.0) | (pixels > 1.0))
    return bad / pixels.size


def _roi_window(roi: Sequence[int], shape: tuple[int, int]
                ) -> tuple[slice, slice]:
    """Row and column slices of a rectangular ROI ``(x, y, width, height)``
    inside a frame of ``shape``."""
    x, y, w, h = (int(v) for v in roi)
    if w <= 0 or h <= 0:
        raise MetadataError(f"empty ROI {tuple(roi)}")
    height, width = shape
    if x < 0 or y < 0 or x + w > width or y + h > height:
        raise MetadataError(
            f"ROI {tuple(roi)} outside image bounds {width}x{height}")
    return slice(y, y + h), slice(x, x + w)


def extract_panel(img: RadianceImage, roi: Sequence[int]) -> float:
    """Mean panel radiance over a rectangular ROI ``(x, y, width, height)``."""
    return float(img.pixels[_roi_window(roi, img.pixels.shape)].mean())


def panel_means(raw: RawImage, meta: RadiometricMetadata,
                rois: Sequence[Sequence[int]],
                vignette: Optional[Vignette] = None) -> list[float]:
    """``extract_panel(dc_to_radiance(raw, meta), roi)`` for each ROI,
    converting only the rows each ROI spans.

    Each ROI's rows are converted at full width, so its patch has the
    strides it has in a whole plane and its mean the same bits.  When
    :func:`radiance_is_bounded` cannot rule out a non-finite pixel
    elsewhere in the frame, the whole frame is checked first, so such a
    pixel fails the frame as it does there.  ``vignette`` is the map to
    use, as in :func:`convert_band`; without it one is built for the call.
    """
    vignette = _camera_model(raw, meta, vignette)[0]
    if not radiance_is_bounded(raw, meta, vignette):
        convert_band(raw, meta, vignette=vignette)
    means = []
    for roi in rois:
        rows, cols = _roi_window(roi, raw.pixels.shape)
        strip = np.empty((rows.stop - rows.start, raw.pixels.shape[1]))
        convert_band(raw, meta, rows=range(rows.start, rows.stop), out=strip,
                     vignette=vignette)
        means.append(float(strip[:, cols].mean()))
    return means


def panel_band_reflectance(spectrum: SpectralCurve,
                           rsr_set: dict[int, SpectralCurve]) -> np.ndarray:
    """Band-effective ground reflectance of a panel spectrum, bands 1..5."""
    return np.array([band_effective(spectrum, rsr_set[band])
                     for band in sorted(rsr_set)])


def select_calibration(candidates: Sequence[CalibrationImage], mode: str,
                       image_dls: Optional[DLSRecord] = None,
                       image_timestamp: Optional[float] = None,
                       designated_id: Optional[str] = None
                       ) -> CalibrationImage:
    """Pick the calibration image serving a field image.

    ``mode='dls'`` minimizes the Euclidean distance between
    orientation-corrected DLS vectors, ``mode='time'`` the absolute
    timestamp difference, ``mode='single'`` returns the designated candidate
    (or, with no designation, the canonical first: earliest timestamp, then
    lexicographic image id).  Metric ties break the same canonical way, so
    the result never depends on candidate ordering.

    Only a candidate's ``image_id``, ``timestamp`` and ``dls`` are read, so
    a manifest image entry serves as well as its :class:`CalibrationImage`.
    """
    if not candidates:
        raise DegeneratePanelsError("no calibration candidates supplied")
    if mode not in SELECTION_MODES:
        raise MetadataError(
            f"unknown selection mode {mode!r}; expected one of "
            f"{SELECTION_MODES}")
    if mode == "single":
        if designated_id is not None:
            matches = [c for c in candidates if c.image_id == designated_id]
            if not matches:
                raise MetadataError(
                    f"designated calibration image {designated_id!r} is not "
                    "among the candidates")
            return matches[0]
        return min(candidates, key=lambda c: (c.timestamp, c.image_id))
    metric = selection_metric(mode, image_dls, image_timestamp)
    return min(candidates, key=lambda c: (metric(c), c.timestamp, c.image_id))


def selection_metric(mode: str, image_dls: Optional[DLSRecord] = None,
                     image_timestamp: Optional[float] = None
                     ) -> Callable[[CalibrationImage], float]:
    """The distance from an image that :func:`select_calibration` minimizes.

    Returns a function of one candidate: the Euclidean distance between
    orientation-corrected DLS vectors for ``mode='dls'``, the absolute
    timestamp difference for ``mode='time'``.  ``mode='single'`` has no
    metric.
    """
    if mode == "dls":
        if image_dls is None:
            raise MetadataError("mode 'dls' requires the image's DLS record")
        reference = dls_correct(image_dls)
        return lambda c: dls_distance(reference, dls_correct(c.dls))
    if mode == "time":
        if image_timestamp is None:
            raise MetadataError("mode 'time' requires the image timestamp")
        return lambda c: abs(c.timestamp - image_timestamp)
    raise MetadataError(f"selection mode {mode!r} has no metric")


def elm_line(source: str, bright_rho: np.ndarray,
             bright_radiance: np.ndarray,
             dark_rho: Optional[np.ndarray] = None,
             dark_radiance: Optional[np.ndarray] = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """Slope and bias of the empirical line through calibration image
    ``source``'s panels, for each band given: through the bright panel and
    the origin, or through the bright and dark panels.

    The arithmetic and checks are elementwise, so one band's coefficients
    have the same bits whether it is fitted alone or with the others; the
    fits below take all five bands, ``reflect`` one at a time.

    Raises
    ------
    DegeneratePanelsError
        If the panels are not ordered bright > dark in both radiance and
        reflectance, their bias estimates disagree beyond 1e-12, or a slope
        is not positive.
    MetadataError
        If a coefficient is not finite.
    """
    # Non-finite coefficients are rejected below, so overflow is not
    # worth a warning.
    with np.errstate(all="ignore"):
        if dark_rho is None:
            slope = bright_rho / bright_radiance
            bias = np.zeros_like(slope)
        else:
            if np.any(bright_radiance <= dark_radiance):
                raise DegeneratePanelsError(
                    f"calibration image {source}: bright panel is not "
                    "brighter than the dark panel in every band")
            if np.any(bright_rho <= dark_rho):
                raise DegeneratePanelsError(
                    f"calibration image {source}: panel reflectances are "
                    "not ordered bright > dark in every band")
            slope = (bright_rho - dark_rho) / (bright_radiance - dark_radiance)
            bias = bright_rho - slope * bright_radiance
            bias_from_dark = dark_rho - slope * dark_radiance
            if np.max(np.abs(bias - bias_from_dark)) > 1e-12:
                raise DegeneratePanelsError(
                    f"calibration image {source}: bright/dark bias "
                    "estimates disagree beyond 1e-12; panels are "
                    "numerically degenerate")
    _check_line(slope, bias)
    return slope, bias


def fit_elm_1pt(cal: CalibrationImage) -> ElmModel:
    """One-point empirical line through the origin: ``m = rho / L, b = 0``."""
    bright = cal.bright
    slope, bias = elm_line(cal.image_id, bright.ground_reflectance,
                           bright.mean_radiance)
    return ElmModel(slope=slope, bias=bias, source_image=cal.image_id)


def fit_elm_2pt(cal: CalibrationImage) -> ElmModel:
    """Two-point empirical line from a bright/dark panel pair.

    ``m = (rho_b - rho_d) / (L_b - L_d)`` and ``b = rho_b - m * L_b``.  The
    bias recomputed from the dark point must agree to 1e-12, which is an
    internal consistency check rather than a user-facing tolerance.
    """
    if cal.dark is None:
        raise DegeneratePanelsError(
            f"calibration image {cal.image_id} has no dark panel; 2-point "
            "fit needs two panels")
    bright, dark = cal.bright, cal.dark
    slope, bias = elm_line(cal.image_id, bright.ground_reflectance,
                           bright.mean_radiance, dark.ground_reflectance,
                           dark.mean_radiance)
    return ElmModel(slope=slope, bias=bias, source_image=cal.image_id)


def line_map(slope: float, bias: float):
    """An empirical line as an in-place map of a float64 array:
    ``L * m + b``."""

    def apply(pixels: np.ndarray) -> None:
        pixels *= slope
        pixels += bias

    return apply


def elm_map(model: ElmModel, band_index: int):
    """One band of a fitted empirical line as an in-place map of a float64
    array."""
    return line_map(model.slope[band_index - 1], model.bias[band_index - 1])


def apply_elm(model: ElmModel, img: RadianceImage) -> ReflectanceImage:
    """Apply a fitted empirical line to a radiance plane."""
    pixels = img.pixels.copy()
    elm_map(model, img.band_index)(pixels)
    return ReflectanceImage(band_index=img.band_index, pixels=pixels)


def aarr_map(dls: DLSRecord, band_index: int):
    """One band's AARR as an in-place map of a float64 array:
    ``L / reference``, the reference being the corrected downwelling
    radiance.

    Raises
    ------
    NoIlluminationError
        If the corrected downwelling radiance is zero in the band.
    """
    reference = irradiance_to_radiance(dls_correct(dls))[band_index - 1]
    if not reference > 0:
        raise NoIlluminationError(
            f"band {band_index}: corrected downwelling radiance is not "
            "positive; AARR is undefined")

    def apply(pixels: np.ndarray) -> None:
        pixels /= reference

    return apply


def aarr(img: RadianceImage, dls: DLSRecord) -> ReflectanceImage:
    """Reflectance by ratio to DLS-derived downwelling radiance.

    Raises
    ------
    NoIlluminationError
        If the corrected downwelling radiance is zero in the image's band.
    """
    pixels = img.pixels.copy()
    aarr_map(dls, img.band_index)(pixels)
    return ReflectanceImage(band_index=img.band_index, pixels=pixels)


def pgm_counts(pixels: np.ndarray, scale: float,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """``rint(pixels * scale)`` saturated at the 16-bit rails, still in
    float64, built in ``out`` when given."""
    out = np.multiply(pixels, scale, out=out)
    np.rint(out, out=out)
    return np.clip(out, 0, 65535, out=out)
