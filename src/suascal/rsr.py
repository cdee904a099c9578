"""Relative spectral response (RSR) reduction and band integration.

A camera band is characterized by sweeping a monochromator across the band
while logging mean digital counts and the optical power delivered at each
wavelength.  The reduction chain is:

1. :func:`normalize_counts` - divide mean counts by gain and exposure so
   sweeps taken with different camera settings are comparable.
2. :func:`relative_response` - divide by the monochromator power, subtract
   the smallest positive ratio as a stray-light shift, and rescale.
3. :func:`peak_normalize` - scale so the curve peaks at exactly 1.

:func:`band_effective` then collapses any spectral quantity (radiance,
reflectance, irradiance) to a single band value by RSR-weighted averaging.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CurveError

#: Default empirical rescale applied after the stray-light shift.  The
#: measured response is renormalized to this fraction of full scale so the
#: shifted curve never quite reaches 1 before peak normalization.
DEFAULT_SHIFT_SCALE = 0.9975

_CSV_HEADER = ("wavelength_nm", "value")


@dataclass(frozen=True)
class SpectralCurve:
    """A sampled function of wavelength.

    Parameters
    ----------
    wavelengths_nm : ndarray
        Strictly increasing, positive sample wavelengths in nanometers.
    values : ndarray
        Sample values, same length as ``wavelengths_nm``.  Finite.
    """

    wavelengths_nm: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.wavelengths_nm, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if w.ndim != 1 or v.ndim != 1:
            raise CurveError("spectral curve samples must be one-dimensional")
        if w.size != v.size:
            raise CurveError(
                f"wavelength/value length mismatch: {w.size} vs {v.size}"
            )
        if w.size < 2:
            raise CurveError("spectral curve needs at least two samples")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(v)):
            raise CurveError("spectral curve contains non-finite samples")
        if np.any(np.diff(w) <= 0):
            raise CurveError("wavelengths must be strictly increasing")
        if not w[0] > 0:
            raise CurveError(
                f"wavelengths must be positive, got {float(w[0])!r} nm")
        object.__setattr__(self, "wavelengths_nm", w)
        object.__setattr__(self, "values", v)

    @property
    def support(self) -> tuple[float, float]:
        """Tabulated wavelength range ``(min, max)`` in nm."""
        return float(self.wavelengths_nm[0]), float(self.wavelengths_nm[-1])

    def interpolate(self, wavelengths_nm) -> np.ndarray:
        """Linearly interpolate the curve at ``wavelengths_nm``.

        Queries outside the tabulated range clamp to the edge values; callers
        that need compact support (RSR semantics) should mask themselves.
        """
        return np.interp(np.asarray(wavelengths_nm, dtype=np.float64),
                         self.wavelengths_nm, self.values)


@dataclass(frozen=True)
class MonochromatorRun:
    """One band's monochromator sweep.

    ``mean_counts`` are the mean digital counts observed at each wavelength,
    ``power_w`` the optical power delivered there, and ``gain`` /
    ``exposure_us`` the camera settings used for the sweep.
    """

    wavelengths_nm: np.ndarray
    mean_counts: np.ndarray
    power_w: np.ndarray
    gain: int
    exposure_us: float
    band_index: int = 0

    def __post_init__(self):
        w = np.asarray(self.wavelengths_nm, dtype=np.float64)
        c = np.asarray(self.mean_counts, dtype=np.float64)
        p = np.asarray(self.power_w, dtype=np.float64)
        if not (w.shape == c.shape == p.shape) or w.ndim != 1:
            raise CurveError("monochromator run arrays must share one shape")
        if np.any(np.diff(w) <= 0):
            raise CurveError("monochromator wavelengths must be increasing")
        if self.gain not in (1, 2, 4, 8):
            raise CurveError(f"gain must be one of 1, 2, 4, 8 (got {self.gain})")
        if not self.exposure_us > 0:
            raise CurveError("exposure must be positive microseconds")
        if np.any(p <= 0):
            raise CurveError("monochromator power must be positive everywhere")
        if np.any(c < 0):
            raise CurveError("mean counts cannot be negative")
        object.__setattr__(self, "wavelengths_nm", w)
        object.__setattr__(self, "mean_counts", c)
        object.__setattr__(self, "power_w", p)


def normalize_counts(run: MonochromatorRun) -> SpectralCurve:
    """Counts per unit gain-exposure: ``DC(λ) / (g * t)``."""
    # A ratio that overflows is rejected by SpectralCurve as non-finite.
    with np.errstate(over="ignore"):
        normalized = run.mean_counts / (run.gain * run.exposure_us)
    return SpectralCurve(run.wavelengths_nm, normalized)


def relative_response(normalized: SpectralCurve, power: SpectralCurve,
                      shift_scale: float = DEFAULT_SHIFT_SCALE) -> SpectralCurve:
    """Raw relative spectral response from a normalized sweep.

    Computes ``u(λ) = DC_norm(λ) / Φ(λ)``, shifts by the smallest positive
    ratio ``b = min{u > 0}`` (a stray-light floor), rescales by
    ``shift_scale`` and floors negatives at zero:

    ``RSR(λ) = max(0, shift_scale * (u(λ) - b))``

    A sweep with no positive ratio anywhere yields the all-zero curve, which
    downstream consumers treat as a degenerate band.
    """
    if normalized.wavelengths_nm.size != power.wavelengths_nm.size or \
            np.any(normalized.wavelengths_nm != power.wavelengths_nm):
        raise CurveError("count and power sweeps must share a wavelength grid")
    if np.any(power.values <= 0):
        raise CurveError("monochromator power must be positive everywhere")
    with np.errstate(over="ignore"):
        u = normalized.values / power.values
    if not np.all(np.isfinite(u)):
        at = normalized.wavelengths_nm[np.argmin(np.isfinite(u))]
        raise CurveError(f"count-to-power ratio overflows at {at:g} nm")
    positive = u[u > 0]
    if positive.size == 0:
        # No signal at any wavelength: return the degenerate all-zero curve.
        return SpectralCurve(normalized.wavelengths_nm, np.zeros_like(u))
    b = positive.min()
    with np.errstate(over="ignore", invalid="ignore"):
        rsr = shift_scale * (u - b)
    if not np.all(np.isfinite(rsr)):
        raise CurveError(f"shift scale {shift_scale!r} takes the response "
                         "beyond the float range")
    np.maximum(rsr, 0.0, out=rsr)
    return SpectralCurve(normalized.wavelengths_nm, rsr)


def peak_normalize(curve: SpectralCurve) -> SpectralCurve:
    """Scale a curve so its maximum is exactly 1."""
    peak = curve.values.max()
    if not peak > 0:
        raise CurveError("cannot peak-normalize a curve with no positive value")
    return SpectralCurve(curve.wavelengths_nm, curve.values / peak)


def is_degenerate(curve: SpectralCurve) -> bool:
    """True when a response curve carries no signal at all."""
    return not np.any(curve.values > 0)


def union_grid(*grids: np.ndarray) -> np.ndarray:
    """Sorted union of wavelength grids, each value once.

    The values of :func:`numpy.union1d`, without its lazy import of
    ``numpy.ma``.
    """
    merged = np.sort(np.concatenate(grids))
    return merged[np.append(True, merged[1:] != merged[:-1])]


def band_weights(wavelengths_nm, rsr: SpectralCurve) -> np.ndarray:
    """Weights ``w`` with ``band_effective(c, rsr) == w @ c.values``.

    ``wavelengths_nm`` is a strictly increasing grid, as a curve's.  The RSR
    is sampled on the union of its grid and the grid points strictly inside
    its support, and its trapezoid weights are pulled back onto the grid
    through the hat functions of linear interpolation.  The RSR is zero
    outside its tabulated range (compact support); the grid must cover it.

    Raises
    ------
    CurveError
        If the grid does not cover the RSR support, or the RSR integrates
        to zero.
    """
    x = np.asarray(wavelengths_nm, dtype=np.float64)
    lo, hi = rsr.support
    s_lo, s_hi = float(x[0]), float(x[-1])
    if s_lo > hi or s_hi < lo:
        raise CurveError(
            f"empty overlap: spectrum [{s_lo}, {s_hi}] nm vs RSR support "
            f"[{lo}, {hi}] nm")
    if s_lo > lo or s_hi < hi:
        raise CurveError(
            f"spectrum [{s_lo}, {s_hi}] nm does not cover the RSR support "
            f"[{lo}, {hi}] nm")
    grid = union_grid(rsr.wavelengths_nm, x[(x > lo) & (x < hi)])
    r = rsr.interpolate(grid)
    denom = np.trapezoid(r, grid)
    if not denom > 0:
        raise CurveError("RSR integrates to zero; cannot band-average")
    step = np.diff(grid)
    tr = r * (np.append(step, 0.0) + np.insert(step, 0, 0.0)) / (2 * denom)
    j = np.clip(np.searchsorted(x, grid, side="right") - 1, 0, x.size - 2)
    f = (grid - x[j]) / (x[j + 1] - x[j])
    return (np.bincount(j, tr * (1.0 - f), minlength=x.size)
            + np.bincount(j + 1, tr * f, minlength=x.size))


def band_effective(spectrum: SpectralCurve, rsr: SpectralCurve) -> float:
    """RSR-weighted band-effective value of ``spectrum``.

    Both curves are linearly interpolated onto the union of their sample
    grids restricted to the RSR support and integrated with the trapezoid
    rule:

    ``value = ∫ L(λ) RSR(λ) dλ / ∫ RSR(λ) dλ``

    The integral is evaluated as ``band_weights(...) @ spectrum.values``;
    see :func:`band_weights` for the support rules and errors.
    """
    return float(band_weights(spectrum.wavelengths_nm, rsr) @ spectrum.values)


def read_spectral_curve(path) -> SpectralCurve:
    """Read a two-column ``wavelength_nm,value`` CSV (header required).

    A file that is not UTF-8 CSV, or rows that are not a curve, raise a
    :class:`CurveError` naming the file (and the line, where known).
    """
    path = Path(path)
    try:
        fh = io.StringIO(path.read_bytes().decode("utf-8"), newline="")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, NUL in path
        reason = getattr(exc, "strerror", None) or exc
        raise CurveError(f"{path}: cannot read: {reason}") from exc
    reader = csv.reader(fh)
    wavelengths, values = [], []
    try:
        header = next(reader, None)
        if header is None:
            raise CurveError(f"{path}: empty spectral curve file")
        header = [h.strip().lower() for h in header]
        if tuple(header[:2]) != _CSV_HEADER:
            raise CurveError(
                f"{path}: expected header 'wavelength_nm,value', got "
                f"{','.join(header)!r}")
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                wavelengths.append(float(row[0]))
                values.append(float(row[1]))
            except (ValueError, IndexError):
                # The reader's own count: a quoted field may span lines.
                raise CurveError(f"{path}:{reader.line_num}: malformed row "
                                 f"{row!r}") from None
    except csv.Error as exc:
        raise CurveError(f"{path}:{reader.line_num}: {exc}") from None
    try:
        return SpectralCurve(np.array(wavelengths), np.array(values))
    except CurveError as exc:
        raise CurveError(f"{path}: {exc}") from None


def write_spectral_curve(path, curve: SpectralCurve) -> None:
    """Write a curve as a ``wavelength_nm,value`` CSV."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for w, v in zip(curve.wavelengths_nm, curve.values):
            writer.writerow([repr(float(w)), repr(float(v))])
