"""Raw digital counts to spectral radiance.

The camera model applied here, pixel by pixel in double precision:

``L(x, y) = V(x, y) * R(y) * (I(x, y) - dL) * a1 / (g * t * 2**N)``

where ``V`` is a radial polynomial vignette correction, ``R`` a row-wise
readout correction for the rolling CMOS shutter, ``dL`` the dark level,
``a1`` the absolute calibration coefficient, ``g`` the gain, ``t`` the
exposure in microseconds and ``N`` the pixel bit depth.

Pixel coordinates are zero-based with ``x`` the column and ``y`` the row.
Negative post-dark-subtraction radiances are clamped to zero and counted in
the result metadata.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MetadataError

_VALID_GAINS = (1, 2, 4, 8)


@dataclass(frozen=True)
class VignetteModel:
    """Radial vignette polynomial.

    The correction at pixel ``(x, y)`` is ``V = 1 / k(r)`` with

    ``k(r) = 1 + k0*r + k1*r**2 + ... + k5*r**6``,
    ``r = sqrt((x - center_x)**2 + (y - center_y)**2)``

    in raw pixel units.  ``k`` must stay positive over the image extent.
    """

    center_x: float
    center_y: float
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.shape != (6,):
            raise MetadataError(
                f"vignette model needs exactly 6 coefficients, got "
                f"{coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise MetadataError("vignette coefficients must be finite")
        if not (np.isfinite(self.center_x) and np.isfinite(self.center_y)):
            raise MetadataError("vignette center must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    def polynomial(self, radius, out: np.ndarray | None = None
                   ) -> np.ndarray:
        """Evaluate ``k(r)`` for a radius or array of radii, in ``out``
        (of ``radius``'s shape) when given."""
        r = np.asarray(radius, dtype=np.float64)
        k = np.empty_like(r) if out is None else out
        k[...] = 0.0
        for c in self.coefficients[::-1]:
            k += c
            k *= r
        k += 1.0
        return k


@dataclass(frozen=True)
class RadiometricMetadata:
    """Per-band calibration metadata.

    ``exposure_us`` is in microseconds; values below 1 are rejected because
    they almost certainly mean someone handed us seconds.
    """

    a1: float
    a2: float
    a3: float
    gain: int
    exposure_us: float
    dark_level: float
    vignette: VignetteModel
    bits_per_pixel: int = 16
    band_index: int | None = None

    def __post_init__(self):
        if self.gain not in _VALID_GAINS:
            raise MetadataError(
                f"gain must be one of {_VALID_GAINS}, got {self.gain}")
        if not self.exposure_us >= 1.0:
            raise MetadataError(
                f"exposure_us={self.exposure_us!r}: exposures are microseconds "
                "and must be >= 1 (seconds are not silently accepted)")
        if not np.isfinite(self.a1) or self.a1 <= 0:
            raise MetadataError(f"a1 must be a positive real, got {self.a1!r}")
        if not (np.isfinite(self.a2) and np.isfinite(self.a3)):
            raise MetadataError("a2/a3 must be finite")
        if not np.isfinite(self.dark_level) or self.dark_level < 0:
            raise MetadataError(
                f"dark level must be non-negative, got {self.dark_level!r}")
        if not 1 <= int(self.bits_per_pixel) <= 32:
            raise MetadataError(
                f"bits_per_pixel out of range: {self.bits_per_pixel!r}")
        if self.band_index is not None and not 1 <= self.band_index <= 5:
            raise MetadataError(f"band_index out of range: {self.band_index!r}")


@dataclass(frozen=True)
class RawImage:
    """A single-band raw frame of unsigned integer counts, shape (h, w)."""

    band_index: int
    pixels: np.ndarray
    bits_per_pixel: int = 16

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if not np.issubdtype(px.dtype, np.integer):
            raise MetadataError("raw pixels must be an integer array")
        _require_2d(px)
        if px.size == 0:
            raise MetadataError("raw image is empty")
        if not 1 <= self.band_index <= 5:
            raise MetadataError(f"band_index out of range: {self.band_index}")
        if np.issubdtype(px.dtype, np.signedinteger) and px.min() < 0:
            raise MetadataError("raw counts cannot be negative")
        if int(px.max()) >= 2 ** self.bits_per_pixel:
            raise MetadataError(
                f"raw count {int(px.max())} exceeds {self.bits_per_pixel}-bit "
                "range")
        object.__setattr__(self, "pixels", px)


@dataclass(frozen=True)
class RadianceImage:
    """A single-band spectral radiance plane in W/m^2/sr/nm, shape (h, w)."""

    band_index: int
    pixels: np.ndarray
    clamped_pixel_count: int = 0

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        _require_2d(px)
        if not 1 <= self.band_index <= 5:
            raise MetadataError(f"band_index out of range: {self.band_index}")
        if not np.all(np.isfinite(px)):
            raise MetadataError("radiance contains non-finite pixels")
        if px.min() < 0:
            raise MetadataError("radiance pixels must be non-negative")
        object.__setattr__(self, "pixels", px)


def _require_2d(pixels: np.ndarray) -> None:
    if pixels.ndim != 2:
        raise MetadataError(
            f"pixel array must be 2-D (height, width), got shape "
            f"{pixels.shape}")


def vignette_map(model: VignetteModel, width: int, height: int) -> np.ndarray:
    """Vignette correction ``V = 1/k(r)`` over a full frame, shape (h, w).

    ``k`` is built in the map itself, :data:`ROW_BLOCK` rows at a time, so
    the only other array is one block of radii.

    Raises
    ------
    MetadataError
        If the polynomial is non-positive anywhere; the message names the
        pixel :func:`numpy.argmin` picks over the whole of ``k``.
    """
    x = np.arange(width, dtype=np.float64) - model.center_x
    y = np.arange(height, dtype=np.float64) - model.center_y
    k = np.empty((height, width))
    radius = np.empty((min(ROW_BLOCK, height), width))
    worst = None  # (k, x, y) of the first smallest non-positive k so far
    for top in range(0, height, ROW_BLOCK):
        block = k[top:top + ROW_BLOCK]
        r = radius[:len(block)]
        np.hypot(x, y[top:top + ROW_BLOCK, np.newaxis], out=r)
        model.polynomial(r, out=block)
        # A NaN k needs an infinite radius, and the finite center puts
        # every pixel at that radius, so a map with a NaN is all NaN.
        low = block.min()
        if low <= 0 and (worst is None or low < worst[0]):
            iy, ix = np.unravel_index(int(np.argmin(block)), block.shape)
            worst = (block[iy, ix], ix, top + iy)
    if worst is not None:
        value, ix, iy = worst
        raise MetadataError(
            f"vignette polynomial k={value:.6g} is not positive at pixel "
            f"({ix}, {iy})")
    return np.divide(1.0, k, out=k)


def row_factors(meta: RadiometricMetadata, height: int) -> np.ndarray:
    """Rolling-shutter row factors ``R(y) = 1 / (1 + a2*y/t + a3*y)``.

    Raises
    ------
    MetadataError
        If the denominator is non-positive at any row.
    """
    y = np.arange(height, dtype=np.float64)
    denom = 1.0 + meta.a2 * y / meta.exposure_us + meta.a3 * y
    if np.any(denom <= 0):
        bad = int(np.argmin(denom))
        raise MetadataError(
            f"row correction denominator {denom[bad]:.6g} is not positive at "
            f"row {bad}")
    return 1.0 / denom


#: Vignette maps kept: one per camera band of a flight.
_VIGNETTE_CACHE_SIZE = 5
#: Rows per block of :func:`convert_band`.  A float64 block of a
#: 1280-wide frame is 320 KB, so each pass over it stays in cache; 16 and
#: 64 rows measured slower on 1280x960 frames.
ROW_BLOCK = 32
#: The largest finite float32: a float32 plane holds no pixel beyond it.
FLOAT32_MAX = float(np.finfo(np.float32).max)


@functools.lru_cache(maxsize=_VIGNETTE_CACHE_SIZE)
def _cached_vignette(center_x: float, center_y: float, coefficients: bytes,
                     width: int, height: int) -> np.ndarray:
    """:func:`vignette_map` keyed on hashable values, returned read-only
    because every caller shares it."""
    model = VignetteModel(center_x, center_y,
                          np.frombuffer(coefficients, dtype=np.float64))
    vignette = vignette_map(model, width, height)
    vignette.flags.writeable = False
    return vignette


#: Held while a vignette map is fetched, so that threads asking for one
#: map at once wait for a single build instead of each building it.
_VIGNETTE_LOCK = threading.Lock()


def _shared_vignette(key) -> np.ndarray:
    """The cached vignette map under ``key``, built once by whichever
    thread asks first."""
    with _VIGNETTE_LOCK:
        return _cached_vignette(*key)


@functools.lru_cache(maxsize=_VIGNETTE_CACHE_SIZE)
def _vignette_peak(*key) -> float:
    """The largest value of the cached vignette map under ``key``."""
    return float(_shared_vignette(key).max())


def _vignette_key(meta: RadiometricMetadata, shape: tuple[int, int]):
    height, width = shape
    model = meta.vignette
    return (model.center_x, model.center_y, model.coefficients.tobytes(),
            width, height)


def _flat_field(meta: RadiometricMetadata, shape: tuple[int, int]
                ) -> tuple[np.ndarray, np.ndarray, float]:
    """The shared read-only ``V`` over a frame of ``shape``, the row factors
    ``R`` and the count scale ``a1 / (g * t * 2**N)``.

    ``V`` depends only on the lens model and frame size, so a flight that
    reuses a band's calibration computes it once; ``R`` and the scale
    depend on exposure and stay per call.
    """
    vignette = _shared_vignette(_vignette_key(meta, shape))
    scale = meta.a1 / (meta.gain * meta.exposure_us * 2.0 ** meta.bits_per_pixel)
    return vignette, row_factors(meta, shape[0]), scale


def _camera_model(raw: RawImage, meta: RadiometricMetadata
                  ) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`_flat_field` for ``raw``, once ``meta`` is checked to
    describe it."""
    if meta.band_index is not None and meta.band_index != raw.band_index:
        raise MetadataError(
            f"metadata band {meta.band_index} does not match image band "
            f"{raw.band_index}")
    if meta.bits_per_pixel != raw.bits_per_pixel:
        raise MetadataError(
            f"metadata bit depth {meta.bits_per_pixel} does not match image "
            f"bit depth {raw.bits_per_pixel}")
    return _flat_field(meta, raw.pixels.shape)


class BandCounts(NamedTuple):
    """What one pass of :func:`convert_band` counted."""

    #: Pixels whose radiance was negative and clamped to zero.
    clamped: int
    #: Raw counts at the top of the bit depth, ``2**N - 1``.
    saturated: int
    #: Share of mapped pixels outside [0, 1]; 0 without a ``post_map``.
    out_of_range_fraction: float


def convert_band(raw: RawImage, meta: RadiometricMetadata, sink=None,
                 post_map=None, rows: range | None = None,
                 out: np.ndarray | None = None) -> BandCounts:
    """Convert a raw frame to radiance, and optionally on to reflectance,
    one block of :data:`ROW_BLOCK` rows at a time.

    Each pixel is ``(I - dL) * (V * R) * scale`` computed in that order in
    double precision, then clamped at zero.  ``post_map``, if given, then
    maps the block in place (the reflectance maps of
    :mod:`suascal.reflectance`); it must keep a non-finite pixel
    non-finite.  Each finished float64 block goes to ``sink``, which
    writes it as float32.

    ``rows`` limits the pass to those frame rows (default: all).  With
    ``out``, of shape ``(len(rows), width)``, the blocks are built in it;
    otherwise in one reused scratch block.

    Raises
    ------
    MetadataError
        On band or bit-depth mismatch, a non-positive vignette or row model
        anywhere over the frame, or a non-finite pixel in ``rows``.  With a
        ``post_map``, a non-finite mapped pixel is reported as non-finite
        reflectance unless a radiance pixel from its block on is
        non-finite too.  With a ``sink``, a pixel it was given beyond
        :data:`FLOAT32_MAX` in magnitude is reported after the pass, so
        every non-finite pixel is reported ahead of it.
    """
    vignette, factors, scale = _camera_model(raw, meta)
    height, width = raw.pixels.shape
    rows = range(height) if rows is None else rows
    block_rows = min(ROW_BLOCK, len(rows))
    flat = np.empty((block_rows, width))
    scratch = np.empty((block_rows, width)) if out is None else None
    rail = 2 ** raw.bits_per_pixel - 1
    clamped = saturated = out_of_range = 0
    negative_after = None  # negative pixels past the first -0.0 block
    too_wide = False  # a pixel given to the sink beyond float32 range
    # The checks below find overflow and NaN; numpy need not warn of them.
    with np.errstate(over="ignore", invalid="ignore"):
        for top in range(rows.start, rows.stop, ROW_BLOCK):
            bottom = min(top + ROW_BLOCK, rows.stop)
            counts = raw.pixels[top:bottom]
            if out is None:
                block = scratch[:bottom - top]
            else:
                block = out[top - rows.start:bottom - rows.start]
            product = flat[:bottom - top]
            np.subtract(counts, meta.dark_level, out=block)
            np.multiply(vignette[top:bottom], factors[top:bottom, np.newaxis],
                        out=product)
            block *= product
            block *= scale
            peak = counts.max()
            if peak == rail:
                saturated += int(np.count_nonzero(counts == peak))
            # min/max propagate NaN, so one reduction each checks the block.
            low = block.min()
            if low < 0:
                clamped += int(np.count_nonzero(block < 0))
                np.maximum(block, 0.0, out=block)
            elif low == 0 and (sink or out is not None) and \
                    np.signbit(block).any():
                # A -0.0 is a negative that underflowed.  A whole-frame
                # clamp runs when any pixel of the rows is negative, and
                # makes it 0.0.
                if not clamped and negative_after is None:
                    negative_after = bottom < rows.stop and convert_band(
                        raw, meta, rows=range(bottom, rows.stop)).clamped
                if clamped or negative_after:
                    np.maximum(block, 0.0, out=block)
            if post_map is None:
                low, high = 0.0, block.max()  # the clamp left none below 0
                if not high < np.inf:
                    raise MetadataError("radiance contains non-finite pixels")
            else:
                post_map(block)
                low, high = block.min(), block.max()
                if not (low > -np.inf and high < np.inf):
                    # A whole-frame check reports non-finite radiance first.
                    convert_band(raw, meta, rows=range(top, rows.stop))
                    raise MetadataError(
                        "reflectance contains non-finite pixels")
                if low < 0 or high > 1:
                    out_of_range += int(np.count_nonzero((block < 0)
                                                         | (block > 1)))
            if sink is not None:
                too_wide |= max(-low, high) > FLOAT32_MAX
                sink(block)
    if too_wide:
        quantity = "radiance" if post_map is None else "reflectance"
        raise MetadataError(f"{quantity} exceeds the float32 range of its "
                            f"plane (|value| > {FLOAT32_MAX:.8g})")
    return BandCounts(clamped, saturated, out_of_range / (len(rows) * width))


def radiance_is_bounded(raw: RawImage, meta: RadiometricMetadata) -> bool:
    """Whether every radiance pixel of ``raw`` is known to be finite without
    converting it.

    Rounding is monotone and ``V``, ``R`` and the scale are positive, so
    every pixel lies between ``(min(I) - dL) * (max V * max R) * scale`` and
    the same with ``max(I)``, each rounded in :func:`convert_band`'s
    order.  When both are finite, so is every pixel; when not, only a
    whole conversion can tell.
    """
    _, factors, scale = _camera_model(raw, meta)
    peak = _vignette_peak(*_vignette_key(meta, raw.pixels.shape)) * \
        float(factors.max())
    return all(math.isfinite((float(count) - meta.dark_level) * peak * scale)
               for count in (raw.pixels.min(), raw.pixels.max()))


def dc_to_radiance(raw: RawImage, meta: RadiometricMetadata) -> RadianceImage:
    """Convert a raw frame to spectral radiance: :func:`convert_band` into
    one float64 plane.

    Negative values after dark-level subtraction are clamped to zero; the
    number of clamped pixels is reported on the result.

    Raises
    ------
    MetadataError
        On band mismatch, if the vignette/row models are non-positive
        anywhere over the image extent, or on a non-finite pixel.
    """
    pixels = np.empty(raw.pixels.shape)
    counts = convert_band(raw, meta, out=pixels)
    return RadianceImage(band_index=raw.band_index, pixels=pixels,
                         clamped_pixel_count=counts.clamped)


def radiance_to_counts(img: RadianceImage,
                       meta: RadiometricMetadata) -> np.ndarray:
    """Analytic inverse of :func:`dc_to_radiance` (un-rounded counts).

    Clamped pixels cannot be recovered; everything else inverts exactly up
    to floating-point rounding.  Useful for synthesizing raw test frames.
    """
    vignette, rows, scale = _flat_field(meta, img.pixels.shape)
    return img.pixels / (vignette * rows[:, np.newaxis] * scale) + \
        meta.dark_level
