"""Seeded synthetic five-band flights for the benchmark.

A flight is a folder of 16-bit binary PGM frames, two flat panel spectra and
the manifest JSON binding them.  Everything is drawn from one seed, so the
same seed writes the same bytes.  The files are written with this module's
own PGM and CSV writers, so the program under test only ever sees the
generated files.

The metadata is deliberately non-trivial: a six-term radial vignette with
an off-centre optical axis, rolling-shutter ``a2``/``a3`` terms and a
fractional dark level.  Every frame has a shadow region whose counts sit
around the dark level, so conversion clamps some pixels.  Calibration
frames carry a bright and a dark panel patch (bright brighter in every
band) and each has its own DLS vector; every field frame's DLS vector is a
small perturbation of one calibration frame's, so ``--selection dls``
spreads the field frames over all calibration frames.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_BANDS = 5
BRIGHT_ROI = (480, 420, 64, 64)
DARK_ROI = (600, 420, 64, 64)
SHADOW = (slice(800, 920), slice(40, 240))
#: Block size of the smooth background field, pixels.
BLOCK = 32


@dataclass(frozen=True)
class FlightSpec:
    """Shape of a generated flight."""

    width: int = 1280
    height: int = 960
    calibration_frames: int = 3
    field_frames: int = 12
    #: Draw exposure and gain per (frame, band), as auto-exposure does;
    #: otherwise every frame shares its band's factory metadata.
    auto_exposure: bool = False

    @property
    def band_frames(self) -> int:
        return (self.calibration_frames + self.field_frames) * N_BANDS


def write_pgm(path: Path, counts: np.ndarray) -> None:
    height, width = counts.shape
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    path.write_bytes(header + counts.astype(">u2").tobytes())


def _write_flat_spectrum(path: Path, value: float) -> None:
    path.write_text(f"wavelength_nm,value\n300.0,{value!r}\n"
                    f"1300.0,{value!r}\n", encoding="utf-8")


def _band_metadata(rng: np.random.Generator, spec: FlightSpec) -> dict:
    coefficients = [rng.uniform(0.0, 1e-5), rng.uniform(1e-7, 4e-7),
                    rng.uniform(0.0, 1e-11), rng.uniform(0.0, 5e-14),
                    rng.uniform(0.0, 2e-17), rng.uniform(0.0, 2e-20)]
    return {
        "a1": rng.uniform(100.0, 300.0),
        "a2": rng.uniform(0.02, 0.1),
        "a3": rng.uniform(1e-6, 1e-5),
        "gain": int(rng.choice([1, 2])),
        "exposure_us": rng.uniform(500.0, 2000.0),
        "dark_level": rng.uniform(2000.0, 4000.0),
        "bits_per_pixel": 16,
        "vignette": {
            "center_x": spec.width / 2 + rng.uniform(-40.0, 40.0),
            "center_y": spec.height / 2 + rng.uniform(-30.0, 30.0),
            "coefficients": coefficients,
        },
    }


def _frame_counts(rng: np.random.Generator, spec: FlightSpec,
                  dark_level: float, calibration: bool) -> np.ndarray:
    rows = -(-spec.height // BLOCK)
    cols = -(-spec.width // BLOCK)
    coarse = rng.uniform(dark_level + 2000.0, 40000.0, size=(rows, cols))
    counts = np.repeat(np.repeat(coarse, BLOCK, axis=0), BLOCK, axis=1)
    counts = counts[:spec.height, :spec.width]
    counts += rng.normal(0.0, 150.0, size=counts.shape)
    shadow = counts[SHADOW]
    shadow[...] = dark_level + rng.normal(0.0, 120.0, size=shadow.shape)
    if calibration:
        for (x, y, w, h), level in (
                (BRIGHT_ROI, rng.uniform(30000.0, 45000.0)),
                (DARK_ROI, dark_level + rng.uniform(3000.0, 6000.0))):
            counts[y:y + h, x:x + w] = level + rng.normal(0.0, 100.0,
                                                          size=(h, w))
    return np.clip(np.rint(counts), 0, 65535).astype(np.uint16)


def _dls_record(irradiance, elevation, sun_sensor, timestamp) -> dict:
    return {"raw_irradiance": [float(v) for v in irradiance],
            "solar_elevation_deg": float(elevation),
            "sun_sensor_angle_deg": float(sun_sensor),
            "timestamp": float(timestamp)}


def build_flight(root: Path, seed: int, spec: FlightSpec) -> Path:
    """Write a flight under ``root``; returns the manifest path."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    bright_rho = float(rng.uniform(0.4, 0.6))
    dark_rho = float(rng.uniform(0.03, 0.08))
    _write_flat_spectrum(root / "panel_bright.csv", bright_rho)
    _write_flat_spectrum(root / "panel_dark.csv", dark_rho)
    factory = [_band_metadata(rng, spec) for _ in range(N_BANDS)]

    # Calibration illuminations sit 30% apart; field frames jitter by 2%
    # around the one they were assigned, so DLS selection is unambiguous.
    base = rng.uniform(0.8, 1.6, size=N_BANDS)
    cal_dls = [(base * (0.7 + 0.3 * k), rng.uniform(40.0, 65.0),
                rng.uniform(1.0, 15.0))
               for k in range(spec.calibration_frames)]
    assigned = rng.permutation(
        np.arange(spec.field_frames) % spec.calibration_frames)

    plan = [(f"cal_{k}", 1000.0 + 600.0 * k, cal_dls[k], True)
            for k in range(spec.calibration_frames)]
    for i, k in enumerate(assigned):
        irradiance, elevation, sun_sensor = cal_dls[k]
        jitter = (irradiance * rng.uniform(0.98, 1.02, size=N_BANDS),
                  elevation + rng.uniform(-0.5, 0.5),
                  sun_sensor + rng.uniform(-0.5, 0.5))
        plan.append((f"field_{i:02d}", 1010.0 + 150.0 * i, jitter, False))

    images = []
    for image_id, timestamp, (irradiance, elevation, sun_sensor), is_cal \
            in plan:
        bands = []
        for band in range(1, N_BANDS + 1):
            metadata = dict(factory[band - 1])
            if spec.auto_exposure:
                metadata["exposure_us"] = rng.uniform(300.0, 3000.0)
                metadata["gain"] = int(rng.choice([1, 2, 4]))
            name = f"{image_id}_b{band}.pgm"
            write_pgm(root / name, _frame_counts(
                rng, spec, metadata["dark_level"], is_cal))
            bands.append({"band_index": band, "path": name,
                          "metadata": metadata})
        entry = {"image_id": image_id, "timestamp": timestamp,
                 "bands": bands,
                 "dls": _dls_record(irradiance, elevation, sun_sensor,
                                    timestamp)}
        if is_cal:
            entry["calibration"] = {
                "bright": {"panel_id": "bright", "roi": list(BRIGHT_ROI)},
                "dark": {"panel_id": "dark", "roi": list(DARK_ROI)},
            }
        images.append(entry)

    manifest = {
        "flight": {"id": f"bench-{seed}", "date": "2021-06-20",
                   "weather": "sunny", "altitude_ft": 225},
        "panels": {"bright": "panel_bright.csv", "dark": "panel_dark.csv"},
        "images": images,
    }
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return path
