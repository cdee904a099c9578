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

import math
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
        c5, *rest = self.coefficients[::-1]
        k = np.multiply(r, c5, out=np.empty_like(r) if out is None else out)
        for c in rest:
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


class RowModel(NamedTuple):
    """The terms the row factors ``R`` depend on, as
    :class:`RadiometricMetadata` names them."""

    a2: float
    a3: float
    exposure_us: float


def _row_model(meta: RadiometricMetadata) -> RowModel:
    return RowModel(meta.a2, meta.a3, meta.exposure_us)


def row_factors(meta: RadiometricMetadata | RowModel,
                height: int) -> np.ndarray:
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


#: Rows per block of :func:`convert_band` and of each vignette map.  A
#: float64 block of a 1280-wide frame is 640 KB, so each pass over it stays
#: in cache.  On the 1280x960 benchmark flight and 2 vCPUs, ``reflect
#: --method elm2`` took a median 0.41 s in two parts at 64 rows, 0.43 s at
#: 32 and 0.47 s at 96, all within the spread of the runs; larger blocks
#: hold more scratch memory, about 1 MB at 96 rows.
ROW_BLOCK = 64
#: The largest finite float32: a float32 plane holds no pixel beyond it.
FLOAT32_MAX = float(np.finfo(np.float32).max)


class Vignette(NamedTuple):
    """A read-only vignette correction map over one frame and its largest
    value.

    With ``rows`` set, the map holds ``V * R`` for that row model, each
    pixel the product :func:`convert_band` would form; otherwise ``V``
    alone.
    """

    map: np.ndarray
    peak: float
    rows: RowModel | None = None


def _build_vignette(model: VignetteModel, k: np.ndarray,
                    rows: RowModel | None = None) -> Vignette:
    """The map ``V = 1/k(r)`` of ``model``, or ``V * R`` for the row model
    ``rows``, built in place in ``k`` (the frame's shape) :data:`ROW_BLOCK`
    rows at a time, so the only other array is one block of radii.  A row
    model :func:`row_factors` rejects gives ``V`` alone, and the map's
    users report the rejection.  Raises :class:`MetadataError` if the
    polynomial is non-positive anywhere, naming the pixel
    :func:`numpy.argmin` picks over the whole of ``k``.
    """
    height, width = k.shape
    factors = None
    if rows is not None:
        try:
            factors = row_factors(rows, height)[:, np.newaxis]
        except MetadataError:
            rows = None
    x = np.arange(width, dtype=np.float64) - model.center_x
    y = np.arange(height, dtype=np.float64)[:, np.newaxis] - model.center_y
    radius = np.empty((min(ROW_BLOCK, height), width))
    bad_from, peaks = height, []  # top of the first block with a k <= 0
    for top in range(0, height, ROW_BLOCK):
        block = k[top:top + ROW_BLOCK]
        r = radius[:len(block)]
        np.hypot(x, y[top:top + ROW_BLOCK], out=r)
        model.polynomial(r, out=block)
        # A NaN k needs an infinite radius, and the finite center puts
        # every pixel at that radius, so a map with a NaN is all NaN.
        if block.min() <= 0:
            bad_from = min(bad_from, top)
            continue
        np.divide(1.0, block, out=block)
        if factors is not None:
            block *= factors[top:top + ROW_BLOCK]
        peaks.append(block.max())
    if bad_from < height:
        # A bad block keeps its k, whose least is <= 0; a good one holds
        # 1/k (times R) >= 0, which is 0 where k is infinite.  From the
        # first bad block on, argmin over the map is argmin over k.
        rest = k[bad_from:]
        iy, ix = np.unravel_index(int(np.argmin(rest)), rest.shape)
        iy += bad_from
        raise MetadataError(f"vignette polynomial k={k[iy, ix]:.6g} is not "
                            f"positive at pixel ({ix}, {iy})")
    vignette = k.view()
    vignette.flags.writeable = False
    return Vignette(vignette, float(np.max(peaks, initial=-np.inf)), rows)


def vignette_map(model: VignetteModel, width: int, height: int) -> np.ndarray:
    """Vignette correction ``V = 1/k(r)`` over a full frame, shape (h, w),
    read-only; raises as :func:`_build_vignette` does."""
    return _build_vignette(model, np.empty((height, width))).map


def _camera_model(raw: RawImage, meta: RadiometricMetadata,
                  vignette: Vignette | None = None
                  ) -> tuple[Vignette, np.ndarray, float]:
    """The vignette map, the row factors ``R`` and the count scale
    ``a1 / (g * t * 2**N)`` of ``raw``, once ``meta`` is checked to
    describe it.

    ``vignette``, from :func:`_build_vignette`, is the map to use; without
    it the call builds its own.  ``R`` is checked on every call, also when
    the map holds it, so its errors come in the same order either way.
    """
    if meta.band_index is not None and meta.band_index != raw.band_index:
        raise MetadataError(
            f"metadata band {meta.band_index} does not match image band "
            f"{raw.band_index}")
    if meta.bits_per_pixel != raw.bits_per_pixel:
        raise MetadataError(
            f"metadata bit depth {meta.bits_per_pixel} does not match image "
            f"bit depth {raw.bits_per_pixel}")
    if vignette is None:
        vignette = _build_vignette(meta.vignette,
                                   np.empty(raw.pixels.shape))
    factors = row_factors(meta, raw.pixels.shape[0])
    if vignette.rows not in (None, _row_model(meta)):
        raise ValueError(f"the vignette map holds the row model "
                         f"{vignette.rows}, not that of the frame")
    scale = meta.a1 / (meta.gain * meta.exposure_us * 2.0 ** meta.bits_per_pixel)
    return vignette, factors, scale


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
                 out: np.ndarray | None = None,
                 vignette: Vignette | None = None) -> BandCounts:
    """Convert a raw frame to radiance, and optionally on to reflectance,
    one block of :data:`ROW_BLOCK` rows at a time.

    Each pixel is ``(I - dL) * (V * R) * scale`` computed in that order in
    double precision, then clamped: each pixel at or below zero, -0.0
    included, becomes +0.0.  ``post_map``, if given, then
    maps the block in place (the reflectance maps of
    :mod:`suascal.reflectance`).  It must work elementwise on any float64
    array, be monotone non-decreasing and keep a non-finite pixel
    non-finite: the mapped block's bounds are taken by mapping the
    radiance block's bounds.  Each finished float64 block goes to
    ``sink``, which writes it as float32.

    ``rows`` limits the pass to those frame rows (default: all).  With
    ``out``, of shape ``(len(rows), width)``, the blocks are built in it;
    otherwise in one reused scratch block.  ``vignette`` is the map to use
    (default: one built for this call); when it holds ``R``, it must hold
    the row model of ``meta``.

    Raises
    ------
    MetadataError
        On band or bit-depth mismatch, a non-positive vignette or row model
        anywhere over the frame, or a non-finite pixel in ``rows``: the
        first faulty block in row order, radiance ahead of reflectance.
        With a ``sink``, a pixel it was given beyond :data:`FLOAT32_MAX`
        in magnitude is reported after the pass, so every non-finite
        pixel is reported ahead of it.
    """
    vignette, factors, scale = _camera_model(raw, meta, vignette)
    height, width = raw.pixels.shape
    rows = range(height) if rows is None else rows
    block_rows = min(ROW_BLOCK, len(rows))
    # A map that holds R needs no per-block product.
    flat = (None if vignette.rows is not None
            else np.empty((block_rows, width)))
    scratch = np.empty((block_rows, width)) if out is None else None
    rail = 2 ** raw.bits_per_pixel - 1
    clamped = out_of_range = 0
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
            np.subtract(counts, meta.dark_level, out=block)
            if flat is None:
                block *= vignette.map[top:bottom]
            else:
                product = flat[:bottom - top]
                np.multiply(vignette.map[top:bottom],
                            factors[top:bottom, np.newaxis], out=product)
                block *= product
            block *= scale
            # min/max propagate NaN, so one reduction each checks the block.
            low = block.min()
            if low <= 0:
                clamped += int(np.count_nonzero(block < 0))
                np.maximum(block, 0.0, out=block)
                low = 0.0
            high = block.max()
            if not high < np.inf:
                raise MetadataError("radiance contains non-finite pixels")
            if post_map is not None:
                # The map is monotone, so it maps the bounds to the bounds.
                bounds = np.array([low, high])
                post_map(bounds)
                post_map(block)
                low, high = bounds
                if not (low > -np.inf and high < np.inf):
                    raise MetadataError(
                        "reflectance contains non-finite pixels")
                if low < 0 or high > 1:
                    out_of_range += int(np.count_nonzero((block < 0)
                                                         | (block > 1)))
            if sink is not None:
                too_wide |= max(-low, high) > FLOAT32_MAX
                sink(block)
    requested = raw.pixels[rows.start:rows.stop]
    saturated = (int(np.count_nonzero(requested == rail))
                 if requested.max() == rail else 0)
    if too_wide:
        quantity = "radiance" if post_map is None else "reflectance"
        raise MetadataError(f"{quantity} exceeds the float32 range of its "
                            f"plane (|value| > {FLOAT32_MAX:.8g})")
    return BandCounts(clamped, saturated, out_of_range / (len(rows) * width))


def radiance_is_bounded(raw: RawImage, meta: RadiometricMetadata,
                        vignette: Vignette | None = None) -> bool:
    """Whether every radiance pixel of ``raw`` is known to be finite without
    converting it.

    Rounding is monotone and ``V``, ``R`` and the scale are positive, so
    every pixel lies between ``(min(I) - dL) * (max V * max R) * scale`` and
    the same with ``max(I)``, each rounded in :func:`convert_band`'s
    order; a map that holds ``R`` gives ``max(V * R)``, which is no
    larger.  When both are finite, so is every pixel; when not, only a
    whole conversion can tell.  ``vignette`` is as in :func:`convert_band`.
    """
    vignette, factors, scale = _camera_model(raw, meta, vignette)
    peak = vignette.peak
    if vignette.rows is None:
        peak *= float(factors.max())
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
