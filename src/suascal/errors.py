"""Exception types shared across the toolkit.

Everything derives from :class:`SuascalError` so callers can catch the whole
family with one clause; each subclass marks a distinct failure category that
the CLI maps onto its exit-status contract.
"""


class SuascalError(Exception):
    """Base class for all toolkit errors."""


class MetadataError(SuascalError):
    """Radiometric metadata is inconsistent or physically invalid."""


class ImageFormatError(SuascalError):
    """A raster file could not be decoded (bad magic, truncated data, ...)."""


class CurveError(SuascalError):
    """A spectral curve is malformed or two curves are incompatible."""


class DegeneratePanelsError(SuascalError):
    """Calibration panels cannot support the requested empirical-line fit."""


class OrientationError(SuascalError):
    """A DLS record describes an impossible sensor orientation."""


class NoIlluminationError(SuascalError):
    """Downwelling irradiance is zero where a positive value is required."""


class ManifestError(SuascalError):
    """A JSON input (manifest, grid configuration, sweep, plane sidecar)
    fails validation."""
