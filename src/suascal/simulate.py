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

import csv
import io
import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import datasets
from .errors import CurveError, ManifestError
from .evaluate import ERROR_STATISTICS, error_statistics, write_csv
from .jsonread import json_field, json_value, write_json
from .parts import part_runs, removed_on_error, run_parts
from .rsr import (SpectralCurve, band_weights, read_spectral_curve,
                  union_grid)
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
    grid = union_grid(*(c.wavelengths_nm for c in curves))
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


@np.errstate(divide="ignore", invalid="ignore")
def _tau_to_sensor(tau1: np.ndarray, log_tau2: np.ndarray, cos_s: float,
                   out: np.ndarray) -> np.ndarray:
    """Sun-to-sensor transmission derived from sun-to-ground and view paths.

    With the view path vertical and solar paths stretched by ``1/cos(s)``,
    the optical depth above the sensor is the ground column minus the
    target-to-sensor column, so ``tau' = tau1 * tau2 ** (-1 / cos(s))``.
    ``log_tau2`` is ``np.log(tau2)``, which depends only on the view path;
    the result is computed in place in ``out`` (``log_tau2``'s shape) and
    returned.  Where ``tau1`` is 0 its log is -inf, so the exponent is -inf
    or NaN and the result is 0.
    """
    np.divide(log_tau2, cos_s, out=out)
    np.subtract(np.log(tau1), out, out=out)
    np.exp(out, out=out)
    # ``exp`` gives no negative value and no -0.0, so these two send NaN to
    # 0 and +inf to 1 as ``nan_to_num`` followed by ``clip(0, 1)`` would.
    np.fmax(out, 0.0, out=out)
    return np.fmin(out, 1.0, out=out)


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
    with np.errstate(divide="ignore"):
        log_tau2 = np.log(atm.tau2.interpolate(grid))
    tau_prime = _tau_to_sensor(atm.tau1.interpolate(grid), log_tau2, cos_s,
                               np.empty_like(log_tau2))
    exo = atm.exo_irradiance.interpolate(grid)
    return SpectralCurve(grid, exo / math.pi * cos_s * tau_prime + sky)


def _check_latitude(latitude_deg: float) -> None:
    if not -90.0 <= latitude_deg <= 90.0:
        raise ManifestError(
            f"'latitude_deg' {latitude_deg!r} outside [-90, 90] degrees")


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
    _check_latitude(latitude_deg)
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


def _csv_path(mapping: dict, key: str, context: str, default):
    """A CSV path field of a grid configuration, read by
    :func:`~suascal.jsonread.json_field`; an empty path is a
    :class:`ManifestError` naming the key."""
    path = json_field(mapping, key, str, context, default)
    if path == "":
        raise ManifestError(f"{context}: {key!r} is an empty path")
    return path


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
        if not (math.isfinite(self.latitude_deg)
                and math.isfinite(self.longitude_west_deg)):
            raise ManifestError("site latitude and longitude must be finite")
        _check_latitude(self.latitude_deg)
        if self.diffuse_fraction is not None and \
                not 0.0 <= self.diffuse_fraction <= 1.0:
            raise ManifestError("diffuse fraction must lie within [0, 1]")
        if not self.extinction_layer_km > 0:
            raise ManifestError("extinction layer thickness must be positive")
        if not self.path_radiance_factor >= 0:
            raise ManifestError("path radiance factor must be non-negative")
        if self.exo_irradiance is not None and \
                self.exo_irradiance.values.min() < 0:
            raise CurveError("exo_irradiance must be non-negative")
        if not self.targets:
            object.__setattr__(self, "targets", tuple(
                (name, datasets.bundled_target(name))
                for name in datasets.TARGET_NAMES))
        for _, curve in self.targets:
            if curve.values.min() < 0:
                raise CurveError("target reflectance must be non-negative")

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
                path = _csv_path(config, key, context, None)
                if path is not None:
                    kwargs["exo_irradiance"] = read_spectral_curve(path)
            elif key == "targets":
                targets = json_field(config, key, dict, context)
                if not targets:
                    # An empty tuple would mean the bundled targets.
                    raise ManifestError(f"{context}: {key!r} is empty")
                curves = []
                for name in targets:
                    source = _csv_path(targets, name, f"{context} 'targets'",
                                       "bundled")
                    curves.append((name, datasets.bundled_target(name)
                                   if source == "bundled"
                                   else read_spectral_curve(source)))
                kwargs[key] = tuple(curves)
            else:
                kwargs[key] = tuple(json_field(config, key, [axes[key]],
                                               context))
        return cls(**kwargs)


#: Grid axes that locate a cell, in sweep order.
CELL_FIELDS = ("atmosphere", "day", "time_utc", "visibility_km",
               "sensor_altitude_km")


@dataclass(frozen=True)
class SimulationTable:
    """Columnar result of :func:`run_maarr_grid`.

    ``axes`` are the grid axes in :data:`CELL_FIELDS` order; sweep cell
    ``i`` is entry ``i`` of ``itertools.product(*axes)``.  ``cells`` holds
    the sweep index of each cell that ran, ``recovered`` their ``(cells,
    targets, bands)`` recovered band reflectance.  ``skipped`` pairs each
    cell that did not run with the reason.
    """

    axes: tuple[tuple, ...]
    targets: tuple[str, ...]
    bands: tuple[int, ...]
    truth: np.ndarray  # (targets, bands) true band reflectance
    cells: np.ndarray
    recovered: np.ndarray
    skipped: tuple[tuple[tuple, str], ...] = ()

    @property
    def signed_error(self) -> np.ndarray:
        return self.recovered - self.truth

    def cell_values(self, field: str) -> np.ndarray:
        """One :data:`CELL_FIELDS` axis's value for each cell that ran."""
        axis = CELL_FIELDS.index(field)
        index = np.unravel_index(self.cells, [len(a) for a in self.axes])
        return np.asarray(self.axes[axis])[index[axis]]


def _left(x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Index ``j`` of the interval ``x[j], x[j + 1]`` that linear
    interpolation from ``x`` reads for each point of ``grid``."""
    return np.clip(np.searchsorted(x, grid, side="right") - 1, 0, x.size - 2)


def _resampler(x: np.ndarray, grid: np.ndarray):
    """Linear interpolation from ``x`` onto ``grid`` (within ``x``) along
    the last axis, in :func:`numpy.interp`'s arithmetic.

    The returned ``resample(values, key)`` writes into an array it keeps
    for ``key`` and returns it, so a loop that resamples the same
    quantity again allocates nothing; on ``x`` itself it returns
    ``values``.
    """
    if np.array_equal(x, grid):
        return lambda values, key: values
    j = _left(x, grid)
    dx, step = grid - x[j], x[j + 1] - x[j]
    kept: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def resample(values: np.ndarray, key: str) -> np.ndarray:
        if key not in kept:
            shape = values.shape[:-1] + grid.shape
            kept[key] = np.empty(shape), np.empty(shape)
        out, lower = kept[key]
        # mode="clip" keeps take() from buffering ``out``; j is in range.
        np.take(values, j, axis=-1, out=lower, mode="clip")
        np.take(values, j + 1, axis=-1, out=out, mode="clip")
        out -= lower
        out /= step
        out *= dx
        out += lower
        return out
    return resample


@dataclass(frozen=True)
class _TargetGroup:
    """Targets :func:`sensor_radiance` evaluates on one union grid, at the
    wavelengths of it that the sweep keeps, with the scratch arrays their
    block fills."""

    index: list[int]
    exo_over_pi: np.ndarray  # exo_irradiance / pi at the kept wavelengths
    rho: np.ndarray  # (targets, kept) reflectance
    resample: Callable[[np.ndarray, str], np.ndarray]  # see _resampler
    matrix: np.ndarray  # (kept, bands) band weights
    direct: np.ndarray  # (vis, targets, kept) ground radiance
    diffuse: np.ndarray  # (vis, targets, kept) its sky share
    block: np.ndarray  # (vis, alt, targets, kept) at-sensor radiance


# A block's finiteness check finds overflow and NaN, and a cell whose
# downwelling radiance is zero is skipped, so numpy need not warn of them.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def run_maarr_grid(grid: SimulationGrid) -> SimulationTable:
    """Run the sweep one (atmosphere, day, hour) block at a time.

    A block is every visibility x altitude x target of one solar geometry,
    evaluated by the formulas of :func:`parametric_atmosphere`,
    :func:`dls_downwelling` and :func:`sensor_radiance` in their operation
    order and on the grids they use, then reduced to the bundled bands by
    one product with the :func:`~suascal.rsr.band_weights` matrix of each
    grid.  A cell whose downwelling band radiance is not positive in some
    band (the sun below the horizon) is skipped.

    Every spectral array is built only at the wavelengths some band
    weighs: the non-zero rows of each grid's band matrix, and on the solar
    grid also the two samples that resampling onto each other kept grid
    reads.  A dropped row adds ``0 * value`` to a band value, so the band
    values sum the same non-zero terms as over the whole grids, and only
    the order of the summation may differ.

    The spectral arrays of a block are allocated once per run and filled
    in place; terms that depend only on the atmosphere model (the view-path
    transmission, its logarithm and its path-radiance factor) are computed
    once per model.
    """
    rsr_set = datasets.bundled_rsr_set()
    bands = sorted(rsr_set)
    matrices: dict[bytes, np.ndarray] = {}

    def band_matrix(wavelengths: np.ndarray) -> np.ndarray:
        key = wavelengths.tobytes()
        if key not in matrices:
            matrices[key] = np.stack([band_weights(wavelengths, rsr_set[b])
                                      for b in bands])
        return matrices[key]

    exo = grid.exo_irradiance or datasets.bundled_solar_spectrum()
    truth = np.array([band_matrix(curve.wavelengths_nm) @ curve.values
                      for _, curve in grid.targets])
    n_vis, n_alt = len(grid.visibilities_km), len(grid.sensor_altitudes_km)
    # Targets grouped by the grid sensor_radiance evaluates them on.
    by_grid: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for index, (_, curve) in enumerate(grid.targets):
        union = _common_grid([exo, curve])
        by_grid.setdefault(union.tobytes(), (union, []))[1].append(index)
    # Kept solar samples: those the downwelling band values weigh, and the
    # interval ends of every kept wavelength of another grid.  Targets on
    # the solar grid keep all of them and need no resampling.  The band
    # matrices are built in the order a grid that no band fits is named.
    foreign, reads = {}, []
    for key, (union, _) in by_grid.items():
        rows = np.flatnonzero(band_matrix(union).any(axis=0))
        if not np.array_equal(union, exo.wavelengths_nm):
            foreign[key] = rows
            j = _left(exo.wavelengths_nm, union[rows])
            reads += [j, j + 1]
    down_matrix = band_matrix(exo.wavelengths_nm)
    kept = union_grid(np.flatnonzero(down_matrix.any(axis=0)), *reads)
    wl, exo_values = exo.wavelengths_nm[kept], exo.values[kept]
    exo_over_pi = exo_values / math.pi
    down_matrix = down_matrix[:, kept].T
    groups = []
    for key, (union, index) in by_grid.items():
        rows = foreign.get(key, kept)
        groups.append(_TargetGroup(
            index, exo.interpolate(union[rows]) / math.pi,
            np.array([grid.targets[i][1].interpolate(union[rows])
                      for i in index]),
            _resampler(wl, union[rows]), band_matrix(union)[:, rows].T,
            np.empty((n_vis, len(index), rows.size)),
            np.empty((n_vis, len(index), rows.size)),
            np.empty((n_vis, n_alt, len(index), rows.size))))

    axes = (grid.atmospheres, grid.days, grid.times_utc,
            grid.visibilities_km, grid.sensor_altitudes_km)
    sweep = list(itertools.product(*axes))
    view_path_km = np.minimum(np.array(grid.sensor_altitudes_km)
                              - grid.ground_altitude_km,
                              grid.extinction_layer_km)
    hours = list(itertools.product(grid.days, grid.times_utc))
    zeniths = [solar_zenith_deg(day, hour, grid.latitude_deg,
                                grid.longitude_west_deg)
               for day, hour in hours]
    shape = (n_vis, n_alt, len(grid.targets), len(bands))
    size = n_vis * n_alt
    # (vis, alt, wavelength) arrays: tau2, log(tau2) and the path-radiance
    # factor per model; path radiance and tau' per block.
    tau2, log_tau2, path_factor, path, tau_prime = (
        np.empty((n_vis, n_alt, wl.size)) for _ in range(5))
    radiance = np.empty(shape)
    recovered = np.full((grid.cell_count,) + shape[2:], np.nan)
    ran = np.zeros(grid.cell_count, dtype=bool)
    skipped = []
    start = 0
    for model in grid.atmospheres:
        alpha, f_diffuse = ATMOSPHERE_PRESETS[model]
        if grid.angstrom_exponent is not None:
            alpha = grid.angstrom_exponent
        if grid.diffuse_fraction is not None:
            f_diffuse = grid.diffuse_fraction
        beta = (KOSCHMIEDER / np.array(grid.visibilities_km))[:, None] * \
            (wl / REFERENCE_WAVELENGTH_NM) ** (-alpha)
        np.multiply(-beta[:, None, :], view_path_km[:, None], out=tau2)
        np.exp(tau2, out=tau2)
        np.log(tau2, out=log_tau2)
        np.subtract(1.0, tau2, out=path_factor)
        path_factor *= grid.path_radiance_factor
        group_tau2 = [g.resample(tau2, "tau2") for g in groups]
        for (day, hour), zenith in zip(hours, zeniths):
            cos_s = _cos_solar(zenith)
            down = np.zeros((n_vis, n_alt, len(bands)))
            if cos_s > 0.0:
                tau1 = np.exp(-beta * grid.extinction_layer_km / cos_s)
                sky = f_diffuse * exo_values * cos_s * (1.0 - tau1) / math.pi
                sun = exo_over_pi * cos_s
                np.multiply(path_factor, (sun * tau1 + sky)[:, None, :],
                            out=path)
                _tau_to_sensor(tau1[:, None, :], log_tau2, cos_s, tau_prime)
                tau_prime *= sun
                tau_prime += sky[:, None, :]
                down = tau_prime @ down_matrix
                for g, g_tau2 in zip(groups, group_tau2):
                    np.multiply((g.exo_over_pi * cos_s
                                 * g.resample(tau1, "tau1"))[:, None, :],
                                g.rho, out=g.direct)
                    np.multiply(g.resample(sky, "sky")[:, None, :], g.rho,
                                out=g.diffuse)
                    np.add(g.direct, g.diffuse, out=g.direct)
                    np.multiply(g.direct[:, None], g_tau2[:, :, None],
                                out=g.block)
                    np.add(g.block, g.resample(path, "path")[:, :, None],
                           out=g.block)
                    radiance[:, :, g.index] = g.block @ g.matrix
                if not (np.isfinite(radiance).all()
                        and np.isfinite(down).all()):
                    raise CurveError(f"{model} atmosphere, day {day}, {hour} "
                                     "h UTC: radiance is not finite")
                recovered[start:start + size] = (
                    radiance / down[:, :, None, :]).reshape(
                        (size,) + shape[2:])
            lit = (down > 0).reshape(size, -1)
            ran[start:start + size] = lit.all(axis=1)
            skipped += [(sweep[start + i], "downwelling radiance is not "
                         f"positive in band {bands[np.argmin(lit[i])]} "
                         f"(solar zenith {zenith:.2f} deg)")
                        for i in np.flatnonzero(~lit.all(axis=1))]
            start += size
    cells = np.flatnonzero(ran)
    return SimulationTable(axes, tuple(name for name, _ in grid.targets),
                           tuple(bands), truth, cells, recovered[cells],
                           tuple(skipped))


#: The files a study writes into its output directory.
STUDY_FILES = ("errors.csv", "simulate_log.json", *(
    f"summary_{name}.csv" for name in ("band", *CELL_FIELDS, "target")))

#: The header line of ``errors.csv``; no field name needs csv quoting.
_HEADER = ",".join((*CELL_FIELDS, "target", "band_index", "true_reflectance",
                    "recovered_reflectance", "signed_error")).encode() + b"\r\n"


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row: quoted and
    escaped only where the stdlib's minimal quoting says so."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[:-len(",\r\n")]


#: Rows of ``errors.csv`` that :func:`_error_lines` formats at once.
_CHUNK_ROWS = 2048


def _error_lines(table: SimulationTable):
    """``errors.csv`` data lines as ``csv.writer`` writes them, yielded
    encoded in chunks of whole cells, about :data:`_CHUNK_ROWS` rows each.

    Each distinct text field (atmosphere, target) is quoted once by
    :func:`_csv_field`, with ``%`` doubled; the numbers never need quoting.
    A chunk is one ``%`` format whose template holds every field but the
    recovered reflectance and signed error, which fill its ``%r`` pairs.
    """
    def escaped(text):
        return _csv_field(text).replace("%", "%%")

    cells = list(itertools.product(*table.axes))
    models = {model: escaped(model) for model in table.axes[0]}
    # Each (target, band) row after its cell's leading fields; the empty
    # string first makes ``lead.join(tails)`` put ``lead`` ahead of each.
    tails = [""] + [f",{target},{band},{true!r},%r,%r\r\n"
                    for target, row in zip(map(escaped, table.targets),
                                           table.truth.tolist())
                    for band, true in zip(table.bands, row)]
    values = np.stack([table.recovered, table.signed_error], -1)
    step = max(1, _CHUNK_ROWS // (len(tails) - 1))
    indices = table.cells.tolist()
    for start in range(0, len(indices), step):
        template = "".join(
            f"{models[model]},{day},{hour!r},{visibility!r},{altitude!r}"
            .join(tails)
            for model, day, hour, visibility, altitude in
            (cells[index] for index in indices[start:start + step]))
        yield (template
               % tuple(values[start:start + step].ravel().tolist())).encode()


class _Lines:
    """A table's ``errors.csv`` lines, formatted by :func:`_error_lines`
    one chunk at a time as they are iterated, and all at once when
    pickled, as the list of chunks that a child sends."""

    def __init__(self, table: SimulationTable):
        self.table = table

    def __iter__(self):
        return _error_lines(self.table)

    def __reduce__(self):
        return list, (list(self),)


def _part(grid: SimulationGrid) -> tuple:
    """One part of :func:`run_study`: the table of ``grid`` and its lines
    of ``errors.csv``."""
    table = run_maarr_grid(grid)
    return table, _Lines(table)


def run_study(grid: SimulationGrid, workers: int, out: Path
              ) -> SimulationTable:
    """Run ``grid``'s sweep in the parts of :func:`~suascal.parts.part_runs`
    for ``workers`` and its atmospheres, each a contiguous run of them,
    through :func:`~suascal.parts.run_parts`; write the study's
    :data:`STUDY_FILES` into ``out``, the one writer of those files.

    Each part gives its table and its lines of ``errors.csv``, which this
    process writes after the header in part order: part 1's as it formats
    them, a child's as its one message arrives.  The table joined from the
    parts' (equal to ``run_maarr_grid(grid)`` up to the order of each band
    sum) then gives the summaries and the log, and is returned.  A child
    opens no file.

    A part's error is raised once every part before it has run, so it is
    the error one process would raise.  Any error or interrupt kills and
    reaps the children still running and removes every study file in
    ``out``, new or old, and ``out`` if this run created it.
    """
    # Loaded once here, not once in every child.
    datasets.bundled_rsr_set()
    if grid.exo_irradiance is None:
        datasets.bundled_solar_spectrum()
    grids = [replace(grid, atmospheres=grid.atmospheres[run.start:run.stop])
             for run in part_runs(workers, len(grid.atmospheres))]
    tables = []
    with removed_on_error(out, [out / name for name in STUDY_FILES]):
        with (out / "errors.csv").open("wb") as fh:
            fh.write(_HEADER)

            def take(result: tuple) -> None:
                table, lines = result
                fh.writelines(lines)
                tables.append(table)

            run_parts("simulation part", grids, _part, take)
        offsets = itertools.accumulate(
            (part.cell_count for part in grids), initial=0)
        table = replace(
            tables[0], axes=(grid.atmospheres, *tables[0].axes[1:]),
            cells=np.concatenate([t.cells + o
                                  for t, o in zip(tables, offsets)]),
            recovered=np.concatenate([t.recovered for t in tables]),
            skipped=tuple(itertools.chain(*(t.skipped for t in tables))))
        kept = summary_rows(table, grid.summary_exclude_altitudes_km)
        write_csv(out / "summary_band.csv",
                  ["band_index", *ERROR_STATISTICS],
                  [[band] + [repr(stats[name]) for name in ERROR_STATISTICS]
                   for band, stats in band_statistics(kept).items()])
        for attribute in (*CELL_FIELDS, "target"):
            write_csv(out / f"summary_{attribute}.csv",
                      [attribute, "mean_absolute_error"],
                      [[key, repr(value)] for key, value in
                       grouped_absolute_error(table, attribute).items()])
        write_json(out / "simulate_log.json", {
            "cells": grid.cell_count, "ran": len(table.cells),
            "skipped": [dict(zip(CELL_FIELDS, cell), reason=reason)
                        for cell, reason in table.skipped]})
    return table


def summary_rows(table: SimulationTable,
                 exclude_altitudes_km: Sequence[float] = ()
                 ) -> SimulationTable:
    """Drop the out-of-envelope altitude analogues from a result table."""
    keep = ~np.isin(table.cell_values("sensor_altitude_km"),
                    [float(a) for a in exclude_altitudes_km])
    return replace(table, cells=table.cells[keep],
                   recovered=table.recovered[keep])


def band_statistics(table: SimulationTable) -> dict[int, dict]:
    """Per-band :func:`~suascal.evaluate.error_statistics` of signed error,
    taken over (cell, target) in row order."""
    signed = table.signed_error
    return {band: error_statistics(signed[:, :, k].ravel())
            for k, band in enumerate(table.bands) if signed.size}


def grouped_absolute_error(table: SimulationTable, attribute: str) -> dict:
    """Mean absolute signed error grouped by a :data:`CELL_FIELDS` name or
    ``"target"``, keyed by value in sorted order; each mean is taken over
    the group's values in row order."""
    magnitude = np.abs(table.signed_error)
    if attribute == "target":
        axis, values = 1, np.asarray(table.targets)
    else:
        axis, values = 0, table.cell_values(attribute)
    return {key: float(np.mean(magnitude.compress(values == key,
                                                  axis=axis).ravel()))
            for key in sorted(set(values.tolist())) if magnitude.size}
