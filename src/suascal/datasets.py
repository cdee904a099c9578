"""Access to the CSV fixtures bundled with the package.

See ``tools/generate_fixtures.py`` in the repository for how these are
produced.  Everything loads lazily and is cached; curves are immutable.
"""

from __future__ import annotations

import csv
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import CurveError
from .rsr import SpectralCurve, read_spectral_curve

#: Band index to band name, in spectral order.
BAND_NAMES = {1: "blue", 2: "green", 3: "red", 4: "rededge", 5: "nir"}

#: Names of the bundled simulation target curves.
TARGET_NAMES = ("grass", "concrete", "asphalt", "constant_100")


def _read_bundled_curve(filename: str) -> SpectralCurve:
    ref = resources.files("suascal.data").joinpath(filename)
    with resources.as_file(ref) as path:
        return read_spectral_curve(path)


@lru_cache(maxsize=None)
def bundled_rsr(band_index: int) -> SpectralCurve:
    """Peak-normalized Gaussian RSR for one band (1..5)."""
    if band_index not in BAND_NAMES:
        raise CurveError(f"no bundled RSR for band {band_index!r}")
    return _read_bundled_curve(f"rsr_{BAND_NAMES[band_index]}.csv")


def bundled_rsr_set() -> dict[int, SpectralCurve]:
    """All five bundled RSRs keyed by band index."""
    return {band: bundled_rsr(band) for band in BAND_NAMES}


@lru_cache(maxsize=None)
def bundled_solar_spectrum() -> SpectralCurve:
    """Smooth exoatmospheric solar irradiance, W/m^2/nm, 330-1200 nm."""
    return _read_bundled_curve("solar_exoatmospheric.csv")


@lru_cache(maxsize=None)
def bundled_target(name: str) -> SpectralCurve:
    """A bundled simulation target reflectance curve by name."""
    if name not in TARGET_NAMES:
        raise CurveError(
            f"unknown bundled target {name!r}; expected one of {TARGET_NAMES}")
    return _read_bundled_curve(f"target_{name}.csv")


@lru_cache(maxsize=None)
def ground_reference_bands() -> dict[str, np.ndarray]:
    """Ground-reference band reflectance factors, target -> bands 1..5."""
    ref = resources.files("suascal.data").joinpath("ground_reference_bands.csv")
    table: dict[str, np.ndarray] = {}
    with ref.open("r", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            values = table.setdefault(row["target_id"], np.zeros(5))
            values[int(row["band_index"]) - 1] = float(row["reflectance"])
    return table
