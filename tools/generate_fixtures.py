#!/usr/bin/env python3
"""Regenerate the CSV fixtures bundled under src/suascal/data.

Everything bundled is synthetic but physically plausible:

* five Gaussian relative spectral responses matching the published
  center/FWHM of a common five-band multispectral camera,
* a smooth blackbody approximation of the exoatmospheric solar spectrum
  (5772 K, scaled by the Sun-Earth solid-angle factor),
* smooth reflectance curves for the simulator's standard targets.

Run from the repository root:  python3 tools/generate_fixtures.py
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "suascal" / "data"

# (band_index, name, center_nm, fwhm_nm)
BANDS = [
    (1, "blue", 475.0, 20.0),
    (2, "green", 560.0, 20.0),
    (3, "red", 668.0, 10.0),
    (4, "rededge", 717.0, 10.0),
    (5, "nir", 840.0, 40.0),
]

GRID_NM = np.arange(330.0, 1200.0 + 0.5, 1.0)

def write_curve(path: Path, wavelengths: np.ndarray, values: np.ndarray):
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wavelength_nm", "value"])
        for w, v in zip(wavelengths, values):
            writer.writerow([repr(float(w)), repr(float(v))])
    print(f"wrote {path} ({wavelengths.size} samples)")


def gaussian_rsr():
    for _, name, center, fwhm in BANDS:
        half_span = 2.0 * fwhm
        wl = np.arange(center - half_span, center + half_span + 0.5, 1.0)
        rsr = np.exp(-4.0 * math.log(2.0) * ((wl - center) / fwhm) ** 2)
        rsr[np.argmax(np.abs(wl - center) < 1e-9)] = 1.0
        write_curve(DATA_DIR / f"rsr_{name}.csv", wl, rsr)


def solar_spectrum():
    """Planck 5772 K scaled by (R_sun / 1 AU)^2, in W/m^2/nm."""
    h = 6.62607015e-34
    c = 2.99792458e8
    k = 1.380649e-23
    t = 5772.0
    lam = GRID_NM * 1e-9
    radiance = 2.0 * h * c ** 2 / lam ** 5 / np.expm1(h * c / (lam * k * t))
    dilution = (6.957e8 / 1.495978707e11) ** 2
    irradiance = math.pi * radiance * dilution * 1e-9  # W/m^2/nm
    write_curve(DATA_DIR / "solar_exoatmospheric.csv", GRID_NM, irradiance)


def _logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


def target_curves():
    wl = GRID_NM
    grass = (0.022
             + 0.055 * np.exp(-(((wl - 555.0) / 28.0) ** 2))
             + 0.468 * _logistic((wl - 722.0) / 14.0)
             - 0.05 * _logistic((wl - 1090.0) / 35.0))
    concrete = np.clip(0.15 + 2.6e-4 * (wl - 400.0), 0.01, None)
    asphalt = 0.085 + 4.5e-5 * (wl - 330.0)
    constant = np.ones_like(wl)
    write_curve(DATA_DIR / "target_grass.csv", wl, grass)
    write_curve(DATA_DIR / "target_concrete.csv", wl, concrete)
    write_curve(DATA_DIR / "target_asphalt.csv", wl, asphalt)
    write_curve(DATA_DIR / "target_constant_100.csv", wl, constant)


def main():
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    gaussian_rsr()
    solar_spectrum()
    target_curves()


if __name__ == "__main__":
    main()
