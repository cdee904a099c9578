"""Parametric radiative-transfer simulation of the reflectance pipeline.

The simulator predicts at-sensor radiance for a nadir-viewing camera over a
Lambertian target and the downwelling radiance a DLS-style reference would
report at flight altitude, then recovers reflectance by their band ratio.
Comparing recovered and true band reflectance quantifies the error the
ratio method inherits from the air between target and sensor.

The governing model for at-sensor spectral radiance is

``L_s = (E'/pi * cos(s) * tau1 * rho  +  L_down * rho_d) * tau2
        + L_up + L_adj``

with ``E'`` the exoatmospheric irradiance, ``s`` the solar zenith angle,
``tau1`` the sun-to-target transmission, ``tau2`` the target-to-sensor
transmission, ``L_down`` the diffuse sky radiance, ``L_up`` the view-path
radiance and ``L_adj`` an adjacency term (zero by default).

The parametric atmosphere is deliberately simple -- a uniform extinction
slab driven by Koschmieder visibility and an Angstrom wavelength exponent
-- so it reproduces the qualitative error trends (worse with altitude,
better with visibility) rather than any particular reference atmosphere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import datasets
from .errors import CurveError, ManifestError, NoIlluminationError
from .evaluate import error_statistics
from .manifest import json_field, json_value
from .rsr import SpectralCurve, band_weights, read_spectral_curve
from .solar import solar_zenith_deg

#: Reference wavelength of the Koschmieder visibility relation, nm.
REFERENCE_WAVELENGTH_NM = 550.0
#: Koschmieder constant: extinction at 550 nm is `3.912 / visibility`.
KOSCHMIEDER = 3.912

#: Per-model parameters: (angstrom_exponent, diffuse_fraction).  The models
#: differ in aerosol size character (wavelength exponent) and in how much of
#: the extinguished direct flux reappears as isotropic skylight.
ATMOSPHERE_PRESETS = {
    "tropical": (1.10, 0.18),
    "mid-lat-summer": (1.30, 0.15),
    "mid-lat-winter": (1.45, 0.12),
    "us-standard": (1.35, 0.14),
}

#: Thickness of the uniform extinction slab above ground, km.
DEFAULT_EXTINCTION_LAYER_KM = 2.0
#: Fraction of the mean downwelling radiance scattered into the view path.
DEFAULT_PATH_RADIANCE_FACTOR = 0.75


@dataclass(frozen=True)
class AtmosphereState:
    """Spectral description of one atmospheric condition.

    All transmissions are dimensionless in [0, 1]; radiometric curves are
    W/m^2/nm (irradiance) or W/m^2/sr/nm (radiance).
    """

    exo_irradiance: SpectralCurve
    tau1: SpectralCurve
    tau2: SpectralCurve
    downwelling_sky: SpectralCurve
    upwelling_path: SpectralCurve
    adjacency: SpectralCurve

    def __post_init__(self):
        for name in ("tau1", "tau2"):
            tau = getattr(self, name)
            if tau.values.min() < 0 or tau.values.max() > 1.0 + 1e-12:
                raise CurveError(f"{name} must lie within [0, 1]")
        for name in ("exo_irradiance", "downwelling_sky", "upwelling_path",
                     "adjacency"):
            if getattr(self, name).values.min() < 0:
                raise CurveError(f"{name} must be non-negative")


@dataclass(frozen=True)
class Scene:
    """Viewing geometry plus the target underneath the sensor."""

    target_reflectance: SpectralCurve
    solar_zenith_deg: float
    sensor_altitude_km: float
    ground_altitude_km: float
    visibility_km: float
    diffuse_reflectance: Optional[SpectralCurve] = None

    def __post_init__(self):
        if self.target_reflectance.values.min() < 0:
            raise CurveError("target reflectance must be non-negative")
        if self.diffuse_reflectance is not None and \
                self.diffuse_reflectance.values.min() < 0:
            raise CurveError("diffuse reflectance must be non-negative")
        if not 0.0 <= self.solar_zenith_deg <= 180.0:
            raise CurveError(
                f"solar zenith {self.solar_zenith_deg!r} outside [0, 180]")
        if not self.sensor_altitude_km >= self.ground_altitude_km:
            raise CurveError("sensor must sit at or above the ground "
                             "altitude; equal altitudes mean a zero-length "
                             "view path")
        if not self.visibility_km > 0:
            raise CurveError(
                f"visibility must be positive km, got {self.visibility_km!r}")

    @property
    def hemispheric_reflectance(self) -> SpectralCurve:
        """Reflectance to diffuse illumination (defaults to the target's)."""
        return self.diffuse_reflectance or self.target_reflectance


def _common_grid(curves: Sequence[SpectralCurve]) -> np.ndarray:
    """Union wavelength grid over the curves' shared range."""
    first = curves[0].wavelengths_nm
    if all(c.wavelengths_nm.size == first.size
           and np.array_equal(c.wavelengths_nm, first) for c in curves[1:]):
        return first
    lo = max(c.wavelengths_nm[0] for c in curves)
    hi = min(c.wavelengths_nm[-1] for c in curves)
    if lo >= hi:
        raise CurveError(
            f"curves share no wavelength overlap ([{lo}, {hi}] nm is empty)")
    grid = curves[0].wavelengths_nm
    for c in curves[1:]:
        grid = np.union1d(grid, c.wavelengths_nm)
    return grid[(grid >= lo) & (grid <= hi)]


def _cos_solar(zenith_deg: float) -> float:
    """Cosine of the solar zenith, floored at zero below the horizon."""
    return max(0.0, math.cos(math.radians(zenith_deg)))


def sensor_radiance(scene: Scene, atm: AtmosphereState) -> SpectralCurve:
    """At-sensor spectral radiance over the scene's target."""
    rho_d = scene.hemispheric_reflectance
    grid = _common_grid([atm.exo_irradiance, atm.tau1, atm.tau2,
                         atm.downwelling_sky, atm.upwelling_path,
                         atm.adjacency, scene.target_reflectance, rho_d])
    exo = atm.exo_irradiance.interpolate(grid)
    tau1 = atm.tau1.interpolate(grid)
    tau2 = atm.tau2.interpolate(grid)
    sky = atm.downwelling_sky.interpolate(grid)
    path = atm.upwelling_path.interpolate(grid)
    adjacency = atm.adjacency.interpolate(grid)
    rho = scene.target_reflectance.interpolate(grid)
    rho_diffuse = rho_d.interpolate(grid)
    cos_s = _cos_solar(scene.solar_zenith_deg)
    ground = exo / math.pi * cos_s * tau1 * rho + sky * rho_diffuse
    return SpectralCurve(grid, ground * tau2 + path + adjacency)


def _tau_to_sensor(tau1: np.ndarray, tau2: np.ndarray,
                   cos_s: float) -> np.ndarray:
    """Sun-to-sensor transmission derived from sun-to-ground and view paths.

    With the view path vertical and solar paths stretched by ``1/cos(s)``,
    the optical depth above the sensor is the ground column minus the
    target-to-sensor column, so ``tau' = tau1 * tau2 ** (-1 / cos(s))``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_tau1 = np.log(tau1)
        log_tau2 = np.log(tau2)
        tau = np.exp(log_tau1 - log_tau2 / cos_s)
    tau = np.where(tau1 <= 0.0, 0.0, tau)
    return np.clip(np.nan_to_num(tau, nan=0.0, posinf=1.0), 0.0, 1.0)


def dls_downwelling(scene: Scene, atm: AtmosphereState) -> SpectralCurve:
    """Downwelling radiance a Lambertian reference reports at flight level.

    ``L = E'/pi * cos(s) * tau' + L_down`` with ``tau'`` the sun-to-sensor
    transmission (see :func:`_tau_to_sensor`).
    """
    grid = _common_grid([atm.exo_irradiance, atm.tau1, atm.tau2,
                         atm.downwelling_sky])
    sky = atm.downwelling_sky.interpolate(grid)
    cos_s = _cos_solar(scene.solar_zenith_deg)
    if cos_s <= 0.0:
        return SpectralCurve(grid, sky.copy())
    tau_prime = _tau_to_sensor(atm.tau1.interpolate(grid),
                               atm.tau2.interpolate(grid), cos_s)
    exo = atm.exo_irradiance.interpolate(grid)
    return SpectralCurve(grid, exo / math.pi * cos_s * tau_prime + sky)


def parametric_atmosphere(
        model: str, day_of_year: int, time_utc: float, visibility_km: float,
        sensor_altitude_km: float, ground_altitude_km: float,
        latitude_deg: float, longitude_west_deg: float, *,
        exo_irradiance: Optional[SpectralCurve] = None,
        angstrom_exponent: Optional[float] = None,
        diffuse_fraction: Optional[float] = None,
        extinction_layer_km: float = DEFAULT_EXTINCTION_LAYER_KM,
        path_radiance_factor: float = DEFAULT_PATH_RADIANCE_FACTOR,
        adjacency: Optional[SpectralCurve] = None,
) -> tuple[AtmosphereState, float]:
    """Build a deterministic :class:`AtmosphereState` for one grid cell.

    Construction:

    * extinction ``beta(lam) = (3.912 / V) * (lam / 550 nm) ** -alpha``
      (Koschmieder visibility plus an Angstrom exponent), applied uniformly
      in a slab of ``extinction_layer_km`` above ground;
    * Beer-Lambert transmissions ``tau = exp(-beta * path)``, with solar
      paths stretched by ``1 / cos(solar zenith)``;
    * diffuse sky radiance as ``diffuse_fraction`` of the extinguished
      direct flux redistributed isotropically;
    * view-path radiance as ``path_radiance_factor * (1 - tau2)`` times the
      mean downwelling radiance at ground (total irradiance over pi);
    * solar zenith from day-of-year, UTC time and site coordinates.

    Returns the atmosphere plus the solar zenith angle in degrees.
    """
    if model not in ATMOSPHERE_PRESETS:
        raise ManifestError(
            f"unknown atmosphere model {model!r}; expected one of "
            f"{sorted(ATMOSPHERE_PRESETS)}")
    if not visibility_km > 0:
        raise ManifestError(
            f"visibility must be positive km, got {visibility_km!r}")
    if not sensor_altitude_km >= ground_altitude_km:
        raise ManifestError(
            f"sensor altitude {sensor_altitude_km!r} km is below ground "
            f"altitude {ground_altitude_km!r} km")
    if not extinction_layer_km > 0:
        raise ManifestError("extinction layer thickness must be positive")
    if not path_radiance_factor >= 0:
        raise ManifestError("path radiance factor must be non-negative")
    preset_alpha, preset_diffuse = ATMOSPHERE_PRESETS[model]
    alpha = preset_alpha if angstrom_exponent is None else angstrom_exponent
    f_diffuse = preset_diffuse if diffuse_fraction is None else diffuse_fraction
    if not 0.0 <= f_diffuse <= 1.0:
        raise ManifestError("diffuse fraction must lie within [0, 1]")
    exo = exo_irradiance or datasets.bundled_solar_spectrum()
    grid = exo.wavelengths_nm
    beta = (KOSCHMIEDER / visibility_km) * \
        (grid / REFERENCE_WAVELENGTH_NM) ** (-alpha)

    zenith = solar_zenith_deg(day_of_year, time_utc, latitude_deg,
                              longitude_west_deg)
    cos_s = _cos_solar(zenith)

    view_path_km = min(sensor_altitude_km - ground_altitude_km,
                       extinction_layer_km)
    tau2 = np.exp(-beta * view_path_km)
    if cos_s > 0.0:
        tau1 = np.exp(-beta * extinction_layer_km / cos_s)
    else:
        tau1 = np.zeros_like(beta)
    sky = f_diffuse * exo.values * cos_s * (1.0 - tau1) / math.pi
    mean_downwelling = exo.values / math.pi * cos_s * tau1 + sky
    path = path_radiance_factor * (1.0 - tau2) * mean_downwelling
    if adjacency is None:
        adjacency_curve = SpectralCurve(grid, np.zeros_like(beta))
    else:
        adjacency_curve = adjacency
    atm = AtmosphereState(
        exo_irradiance=exo,
        tau1=SpectralCurve(grid, tau1),
        tau2=SpectralCurve(grid, tau2),
        downwelling_sky=SpectralCurve(grid, sky),
        upwelling_path=SpectralCurve(grid, path),
        adjacency=adjacency_curve,
    )
    return atm, zenith


@dataclass(frozen=True)
class SimulationGrid:
    """Full parameter sweep for the desk-scale ratio-error study.

    Defaults describe the standard study: four reference atmospheres, four
    days spread over the year, five morning-to-noon UTC hours, four
    visibilities and six sensor altitudes over a 0.168 km site, with the
    lowest and highest altitudes treated as out-of-envelope analogues that
    summary statistics exclude.
    """

    atmospheres: tuple[str, ...] = tuple(ATMOSPHERE_PRESETS)
    days: tuple[int, ...] = (79, 171, 265, 355)
    times_utc: tuple[float, ...] = (14.0, 15.0, 16.0, 17.0, 18.0)
    visibilities_km: tuple[float, ...] = (5.0, 10.0, 15.0, 23.0)
    sensor_altitudes_km: tuple[float, ...] = (
        0.169, 0.214, 0.237, 0.259, 0.282, 1.692)
    ground_altitude_km: float = 0.168
    latitude_deg: float = 43.041
    longitude_west_deg: float = 77.698
    targets: tuple[tuple[str, SpectralCurve], ...] = ()
    summary_exclude_altitudes_km: tuple[float, ...] = (0.169, 1.692)
    exo_irradiance: Optional[SpectralCurve] = None
    angstrom_exponent: Optional[float] = None
    diffuse_fraction: Optional[float] = None
    extinction_layer_km: float = DEFAULT_EXTINCTION_LAYER_KM
    path_radiance_factor: float = DEFAULT_PATH_RADIANCE_FACTOR

    def __post_init__(self):
        for name in ("atmospheres", "days", "times_utc", "visibilities_km",
                     "sensor_altitudes_km"):
            if not getattr(self, name):
                raise ManifestError(f"grid axis {name!r} is empty")
        for model in self.atmospheres:
            if model not in ATMOSPHERE_PRESETS:
                raise ManifestError(f"unknown atmosphere model {model!r}")
        for day in self.days:
            if not 1 <= day <= 366:
                raise ManifestError(f"day of year {day!r} outside 1..366")
        for hour in self.times_utc:
            if not 0.0 <= hour < 24.0:
                raise ManifestError(f"UTC hour {hour!r} outside [0, 24)")
        for vis in self.visibilities_km:
            if not vis > 0:
                raise ManifestError(
                    f"visibility must be positive km, got {vis!r}")
        for alt in self.sensor_altitudes_km:
            if not alt >= self.ground_altitude_km:
                raise ManifestError(
                    f"sensor altitude {alt!r} km is below the ground "
                    f"at {self.ground_altitude_km!r} km")
        if not self.targets:
            object.__setattr__(self, "targets", tuple(
                (name, datasets.bundled_target(name))
                for name in datasets.TARGET_NAMES))

    @property
    def cell_count(self) -> int:
        return (len(self.atmospheres) * len(self.days) * len(self.times_utc)
                * len(self.visibilities_km) * len(self.sensor_altitudes_km))

    @classmethod
    def from_config(cls, config: dict) -> "SimulationGrid":
        """Build a grid from a JSON-style configuration dict.

        Raises :class:`ManifestError`, naming the key, for a value of the
        wrong JSON type; the configuration itself must be an object.
        """
        context = "grid configuration"
        json_value(config, dict, context)
        axes = {"atmospheres": str, "days": int, "times_utc": float,
                "visibilities_km": float, "sensor_altitudes_km": float,
                "summary_exclude_altitudes_km": float}
        scalars = {"ground_altitude_km", "latitude_deg", "longitude_west_deg",
                   "angstrom_exponent", "diffuse_fraction",
                   "extinction_layer_km", "path_radiance_factor"}
        unknown = set(config) - set(axes) - scalars - {"solar_spectrum",
                                                       "targets"}
        if unknown:
            raise ManifestError(
                f"unknown grid configuration keys: {sorted(unknown)}")
        kwargs = {}
        for key in config:
            if key in scalars:
                kwargs[key] = json_field(config, key, float, context)
            elif key == "solar_spectrum":
                path = json_field(config, key, str, context, None)
                if path:
                    kwargs["exo_irradiance"] = read_spectral_curve(path)
            elif key == "targets":
                targets = json_field(config, key, dict, context)
                curves = []
                for name in targets:
                    source = json_field(targets, name, str,
                                        f"{context} 'targets'", "bundled")
                    curves.append((name, datasets.bundled_target(name)
                                   if source == "bundled"
                                   else read_spectral_curve(source)))
                kwargs[key] = tuple(curves)
            else:
                kwargs[key] = tuple(json_field(config, key, [axes[key]],
                                               context))
        return cls(**kwargs)


@dataclass(frozen=True)
class SimulationRow:
    """One (cell, target, band) entry of the simulated error table."""

    atmosphere: str
    day: int
    time_utc: float
    visibility_km: float
    sensor_altitude_km: float
    target: str
    band_index: int
    true_reflectance: float
    recovered_reflectance: float
    signed_error: float


def run_maarr_grid(grid: SimulationGrid,
                   rsr_set: Optional[dict[int, SpectralCurve]] = None
                   ) -> list[SimulationRow]:
    """Run the full sweep; rows come back in deterministic grid order.

    Band integration is linear in the spectrum, so each distinct wavelength
    grid gets one ``(bands, wavelengths)`` matrix of
    :func:`~suascal.rsr.band_weights` rows, and every spectrum is reduced to
    band values by one product with it.
    """
    if rsr_set is None:
        rsr_set = datasets.bundled_rsr_set()
    bands = sorted(rsr_set)
    matrices: dict[bytes, np.ndarray] = {}

    def to_bands(curve: SpectralCurve) -> np.ndarray:
        key = curve.wavelengths_nm.tobytes()
        if key not in matrices:
            matrices[key] = np.stack([
                band_weights(curve.wavelengths_nm, rsr_set[b]) for b in bands])
        return matrices[key] @ curve.values

    truths = [to_bands(curve).tolist() for _, curve in grid.targets]
    rows = []
    for cell in itertools.product(grid.atmospheres, grid.days, grid.times_utc,
                                  grid.visibilities_km,
                                  grid.sensor_altitudes_km):
        model, day, hour, visibility, altitude = cell
        atm, zenith = parametric_atmosphere(
            model, day, hour, visibility, altitude, grid.ground_altitude_km,
            grid.latitude_deg, grid.longitude_west_deg,
            exo_irradiance=grid.exo_irradiance,
            angstrom_exponent=grid.angstrom_exponent,
            diffuse_fraction=grid.diffuse_fraction,
            extinction_layer_km=grid.extinction_layer_km,
            path_radiance_factor=grid.path_radiance_factor)
        scenes = [Scene(target_reflectance=curve, solar_zenith_deg=zenith,
                        sensor_altitude_km=altitude,
                        ground_altitude_km=grid.ground_altitude_km,
                        visibility_km=visibility)
                  for _, curve in grid.targets]
        down = to_bands(dls_downwelling(scenes[0], atm))
        for band, value in zip(bands, down):
            if not value > 0:
                raise NoIlluminationError(
                    f"cell {cell}: downwelling radiance is not positive in "
                    f"band {band} (sun below horizon?)")
        for (target_name, _), scene, truth in zip(grid.targets, scenes,
                                                  truths):
            recovered = (to_bands(sensor_radiance(scene, atm)) / down).tolist()
            rows.extend(SimulationRow(*cell, target_name, band, true_value,
                                      value, value - true_value)
                        for band, true_value, value in zip(bands, truth,
                                                           recovered))
    return rows


def summary_rows(rows: Sequence[SimulationRow],
                 exclude_altitudes_km: Sequence[float] = ()
                 ) -> list[SimulationRow]:
    """Drop the out-of-envelope altitude analogues from a result table."""
    excluded = set(float(a) for a in exclude_altitudes_km)
    return [r for r in rows if r.sensor_altitude_km not in excluded]


def band_statistics(rows: Sequence[SimulationRow]) -> dict[int, dict]:
    """Per-band :func:`~suascal.evaluate.error_statistics` of signed error."""
    return {band: error_statistics([r.signed_error for r in rows
                                    if r.band_index == band])
            for band in sorted({r.band_index for r in rows})}


def grouped_absolute_error(rows: Sequence[SimulationRow],
                           attribute: str) -> dict:
    """Mean absolute signed error grouped by one row attribute."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(getattr(row, attribute), []).append(
            abs(row.signed_error))
    return {key: float(np.mean(vals))
            for key, vals in sorted(groups.items())}


@dataclass(frozen=True)
class Tape7Record:
    """Columnar radiative-transfer output: wavelength and two radiances.

    ``total_rad`` is the at-sensor total radiance column and ``grnd_rflt``
    the ground-reflected component; both keep the file's native radiance
    units.  Wavelengths are converted to nm and sorted ascending.
    """

    wavelength_nm: np.ndarray
    total_rad: np.ndarray
    grnd_rflt: np.ndarray

    def __post_init__(self):
        wave = np.asarray(self.wavelength_nm, dtype=np.float64)
        for name in ("total_rad", "grnd_rflt"):
            column = np.asarray(getattr(self, name), dtype=np.float64)
            if column.shape != wave.shape:
                raise ManifestError(
                    f"{name} has {column.size} values for {wave.size} "
                    "wavelengths")
            if column.min() < 0:
                raise ManifestError(f"{name} contains negative radiance")
            object.__setattr__(self, name, column)
        object.__setattr__(self, "wavelength_nm", wave)

    def total_radiance_curve(self) -> SpectralCurve:
        return SpectralCurve(self.wavelength_nm, self.total_rad)

    def ground_reflected_curve(self) -> SpectralCurve:
        return SpectralCurve(self.wavelength_nm, self.grnd_rflt)


_MICRON_TOKENS = ("MICRN", "MCRN", "UM", "MICRON")


def ingest_tape7(path) -> Tape7Record:
    """Parse a whitespace-columnar radiance table (tape7-style).

    The first line whose tokens include ``TOTAL_RAD`` and ``GRND_RFLT`` is
    the header; a token starting with ``WAVELEN``/``WAVLEN`` names the
    wavelength column.  A micron marker in that token (for example
    ``WAVLEN_UM``) triggers conversion to nm.  Unknown columns are ignored.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, NUL in path
        reason = getattr(exc, "strerror", None) or exc
        raise ManifestError(f"{path}: cannot read: {reason}") from exc
    header_tokens: list[str] = []
    header_line = 0
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        upper = [t.upper() for t in tokens]
        if "TOTAL_RAD" in upper and "GRND_RFLT" in upper:
            header_tokens = upper
            header_line = lineno
            break
    if not header_tokens:
        raise ManifestError(
            f"{path}: no header line naming TOTAL_RAD and GRND_RFLT")
    wave_col = next((i for i, t in enumerate(header_tokens)
                     if t.startswith(("WAVELEN", "WAVLEN"))), None)
    if wave_col is None:
        raise ManifestError(f"{path}: header has no wavelength column")
    wave_token = header_tokens[wave_col]
    in_microns = any(marker in wave_token for marker in _MICRON_TOKENS)
    total_col = header_tokens.index("TOTAL_RAD")
    grnd_col = header_tokens.index("GRND_RFLT")

    wavelengths, totals, grounds = [], [], []
    for lineno, line in enumerate(lines[header_line:], start=header_line + 1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) < len(header_tokens):
            raise ManifestError(
                f"{path}:{lineno}: row has {len(tokens)} columns, header "
                f"names {len(header_tokens)}")
        try:
            wavelengths.append(float(tokens[wave_col]))
            totals.append(float(tokens[total_col]))
            grounds.append(float(tokens[grnd_col]))
        except ValueError:
            raise ManifestError(
                f"{path}:{lineno}: non-numeric value in data row") from None
    if not wavelengths:
        raise ManifestError(f"{path}: no data rows after the header")
    wave = np.array(wavelengths)
    if in_microns:
        wave = wave * 1000.0
    order = np.argsort(wave)
    return Tape7Record(wavelength_nm=wave[order],
                       total_rad=np.array(totals)[order],
                       grnd_rflt=np.array(grounds)[order])
