"""Radiative-transfer simulator: governing equation, parametric atmosphere,
and the blocked parameter sweep against its per-cell oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from suascal import datasets
from suascal.errors import CurveError, ManifestError, SuascalError
from suascal.rsr import SpectralCurve, band_effective
from suascal.simulate import (ATMOSPHERE_PRESETS, AtmosphereState, Scene,
                              SimulationGrid, SimulationTable,
                              band_statistics, dls_downwelling,
                              grouped_absolute_error,
                              parametric_atmosphere, run_maarr_grid,
                              sensor_radiance, summary_rows)
from suascal.solar import solar_zenith_deg

SPAN = np.array([400.0, 900.0])


def flat(value, grid=SPAN):
    return SpectralCurve(np.asarray(grid, float),
                         np.full(len(grid), float(value)))


def make_atm(exo=math.pi, tau1=1.0, tau2=1.0, sky=0.0, path=0.0, adj=0.0):
    return AtmosphereState(exo_irradiance=flat(exo), tau1=flat(tau1),
                           tau2=flat(tau2), downwelling_sky=flat(sky),
                           upwelling_path=flat(path), adjacency=flat(adj))


def make_scene(rho=0.5, zenith=0.0, sensor_km=0.282, ground_km=0.168,
               visibility_km=23.0, rho_d=None):
    return Scene(target_reflectance=flat(rho) if np.isscalar(rho) else rho,
                 solar_zenith_deg=zenith, sensor_altitude_km=sensor_km,
                 ground_altitude_km=ground_km, visibility_km=visibility_km,
                 diffuse_reflectance=rho_d)


class TestStateValidation:
    def test_transmission_above_one_rejected(self):
        with pytest.raises(CurveError, match="tau1"):
            make_atm(tau1=1.2)

    def test_negative_sky_rejected(self):
        with pytest.raises(CurveError):
            make_atm(sky=-0.01)

    def test_sensor_below_ground_rejected(self):
        with pytest.raises(CurveError):
            make_scene(sensor_km=0.1, ground_km=0.168)

    def test_zero_length_view_path_allowed(self):
        scene = make_scene(sensor_km=0.168, ground_km=0.168)
        assert scene.sensor_altitude_km == scene.ground_altitude_km

    def test_diffuse_reflectance_defaults_to_target(self):
        scene = make_scene(rho=0.37)
        assert scene.hemispheric_reflectance is scene.target_reflectance


class TestSensorRadiance:
    def test_transparent_atmosphere_returns_reflectance(self):
        out = sensor_radiance(make_scene(rho=0.37, zenith=0.0), make_atm())
        np.testing.assert_allclose(out.values, 0.37, rtol=1e-15)

    def test_hand_evaluated_case(self):
        atm = make_atm(exo=math.pi, tau1=0.9, tau2=0.95, sky=0.02, path=0.005)
        out = sensor_radiance(make_scene(rho=0.5, zenith=60.0), atm)
        assert out.values[0] == pytest.approx(0.22825, abs=1e-9)

    def test_black_target_sees_only_path_radiance(self):
        atm = make_atm(tau1=0.9, tau2=0.8, sky=0.0, path=0.005)
        out = sensor_radiance(make_scene(rho=0.0), atm)
        np.testing.assert_array_equal(out.values, 0.005)

    def test_adjacency_term_is_additive(self):
        scene = make_scene(rho=0.3, zenith=40.0)
        base = sensor_radiance(scene, make_atm(tau1=0.9, tau2=0.95, sky=0.02))
        bumped = sensor_radiance(
            scene, make_atm(tau1=0.9, tau2=0.95, sky=0.02, adj=0.007))
        np.testing.assert_allclose(bumped.values - base.values, 0.007,
                                   atol=1e-15)

    def test_monotone_in_target_reflectance(self):
        atm = make_atm(tau1=0.9, tau2=0.95, sky=0.02, path=0.005)
        lo = sensor_radiance(make_scene(rho=0.3, zenith=30.0), atm)
        hi = sensor_radiance(make_scene(rho=0.6, zenith=30.0), atm)
        assert np.all(hi.values > lo.values)

    def test_separate_diffuse_reflectance(self):
        atm = make_atm(tau1=1.0, tau2=1.0, sky=0.1)
        out = sensor_radiance(
            make_scene(rho=0.0, zenith=0.0, rho_d=flat(0.5)), atm)
        np.testing.assert_allclose(out.values, 0.05, rtol=1e-15)


class TestDlsDownwelling:
    def test_hand_evaluated_case(self):
        atm = make_atm(exo=math.pi, tau1=0.95, tau2=1.0, sky=0.02)
        out = dls_downwelling(make_scene(zenith=60.0), atm)
        assert out.values[0] == pytest.approx(0.495, abs=1e-9)

    def test_sun_below_horizon_leaves_sky_only(self):
        atm = make_atm(tau1=0.9, tau2=0.95, sky=0.013)
        out = dls_downwelling(make_scene(zenith=120.0), atm)
        np.testing.assert_array_equal(out.values, 0.013)

    def test_transmission_scaled_to_sensor_level(self):
        # Sun-to-sensor transmission removes the below-sensor column along
        # the slant path: tau1 * tau2 ** (-1 / cos(zenith)).
        cos_s = math.cos(math.radians(60.0))
        atm = make_atm(exo=math.pi, tau1=0.9, tau2=0.95, sky=0.0)
        out = dls_downwelling(make_scene(zenith=60.0), atm)
        expected = cos_s * 0.9 * 0.95 ** (-1.0 / cos_s)
        assert out.values[0] == pytest.approx(expected, rel=1e-12)
        assert out.values[0] == pytest.approx(0.5 * 0.99722992, abs=1e-7)

    def test_zero_view_path_reduces_to_ground_transmission(self):
        atm = make_atm(exo=math.pi, tau1=0.82, tau2=1.0, sky=0.0)
        out = dls_downwelling(make_scene(zenith=0.0), atm)
        np.testing.assert_allclose(out.values, 0.82, rtol=1e-14)

    def test_opaque_sun_path_leaves_sky_only(self):
        atm = make_atm(exo=math.pi, tau1=0.0, tau2=0.95, sky=0.04)
        out = dls_downwelling(make_scene(zenith=30.0), atm)
        np.testing.assert_array_equal(out.values, 0.04)


class TestParametricAtmosphere:
    SITE = dict(latitude_deg=43.041, longitude_west_deg=77.698)

    def build(self, **kw):
        args = dict(model="us-standard", day_of_year=171, time_utc=16.0,
                    visibility_km=23.0, sensor_altitude_km=0.282,
                    ground_altitude_km=0.168, **self.SITE)
        args.update(kw)
        return parametric_atmosphere(**args)

    def test_unknown_model_rejected(self):
        with pytest.raises(ManifestError, match="model"):
            self.build(model="venusian")

    def test_nonpositive_visibility_rejected(self):
        with pytest.raises(ManifestError):
            self.build(visibility_km=0.0)

    def test_sensor_below_ground_rejected(self):
        with pytest.raises(ManifestError):
            self.build(sensor_altitude_km=0.1)

    def test_diffuse_fraction_bounds(self):
        with pytest.raises(ManifestError):
            self.build(diffuse_fraction=1.5)

    def test_all_presets_build(self):
        for model in ATMOSPHERE_PRESETS:
            atm, zenith = self.build(model=model)
            assert 0.0 < zenith < 90.0
            assert np.all(atm.tau1.values > 0)

    def test_beer_lambert_view_transmission_at_550(self):
        # V = 23 km over a 0.114 km vertical path: exp(-3.912/23 * 0.114).
        grid = np.array([500.0, 550.0, 600.0])
        atm, _ = self.build(sensor_altitude_km=0.168 + 0.114,
                            visibility_km=23.0,
                            exo_irradiance=flat(1.0, grid))
        assert atm.tau2.values[1] == pytest.approx(0.98079, abs=1e-5)

    def test_blue_extinguishes_faster_than_nir(self):
        grid = np.array([475.0, 840.0])
        atm, _ = self.build(exo_irradiance=flat(1.0, grid))
        assert atm.tau1.values[0] < atm.tau1.values[1]

    def test_clear_limit_approaches_transparency(self):
        atm, _ = self.build(visibility_km=1e9)
        assert np.all(atm.tau1.values > 0.999999)
        assert np.all(atm.tau2.values > 0.999999)
        assert np.all(atm.downwelling_sky.values < 1e-6)

    def test_zero_view_path_has_unit_tau2(self):
        atm, _ = self.build(sensor_altitude_km=0.168)
        assert np.all(atm.tau2.values == 1.0)

    def test_lower_visibility_means_more_extinction(self):
        hazy, _ = self.build(visibility_km=5.0)
        clear, _ = self.build(visibility_km=23.0)
        assert np.all(hazy.tau1.values < clear.tau1.values)
        assert np.all(hazy.tau2.values < clear.tau2.values)

    def test_returned_zenith_matches_solar_model(self):
        _, zenith = self.build(day_of_year=265, time_utc=18.0)
        assert zenith == solar_zenith_deg(265, 18.0, **self.SITE)


class TestSolarZenith:
    SITE = dict(latitude_deg=43.041, longitude_west_deg=77.698)

    def test_sun_climbs_toward_local_noon(self):
        assert solar_zenith_deg(171, 17.0, **self.SITE) < \
            solar_zenith_deg(171, 14.0, **self.SITE)

    def test_winter_morning_sun_is_low(self):
        assert 75.0 < solar_zenith_deg(355, 14.0, **self.SITE) < 90.0

    def test_summer_midday_sun_is_high(self):
        assert 10.0 < solar_zenith_deg(171, 16.0, **self.SITE) < 30.0

    def test_antipodal_night(self):
        assert solar_zenith_deg(171, 4.0, **self.SITE) > 90.0


class TestRatioRecovery:
    def _flat_illumination_state(self):
        grid = np.array([330.0, 1200.0])
        return AtmosphereState(
            exo_irradiance=flat(1.3, grid), tau1=flat(0.82, grid),
            tau2=flat(1.0, grid), downwelling_sky=flat(0.04, grid),
            upwelling_path=flat(0.0, grid), adjacency=flat(0.0, grid))

    def test_flat_illumination_recovers_band_truth(self):
        # With spectrally flat illumination and a zero-length view path the
        # ratio method is exact band-by-band, whatever the target spectrum.
        atm = self._flat_illumination_state()
        rsr_set = datasets.bundled_rsr_set()
        for name in datasets.TARGET_NAMES:
            target = datasets.bundled_target(name)
            scene = Scene(target_reflectance=target, solar_zenith_deg=38.0,
                          sensor_altitude_km=0.168, ground_altitude_km=0.168,
                          visibility_km=23.0)
            at_sensor = sensor_radiance(scene, atm)
            downwelling = dls_downwelling(scene, atm)
            for band, rsr in rsr_set.items():
                recovered = band_effective(at_sensor, rsr) / \
                    band_effective(downwelling, rsr)
                truth = band_effective(target, rsr)
                assert recovered == pytest.approx(truth, abs=1e-9), \
                    (name, band)

    def test_residual_grows_with_view_path(self):
        rsr_set = datasets.bundled_rsr_set()
        target = datasets.bundled_target("grass")
        errors = []
        for altitude in (0.214, 0.282, 1.692):
            atm, zenith = parametric_atmosphere(
                "us-standard", 171, 16.0, 5.0, altitude, 0.168,
                43.041, 77.698)
            scene = Scene(target_reflectance=target, solar_zenith_deg=zenith,
                          sensor_altitude_km=altitude,
                          ground_altitude_km=0.168, visibility_km=5.0)
            ratio = band_effective(sensor_radiance(scene, atm),
                                   rsr_set[1]) / \
                band_effective(dls_downwelling(scene, atm), rsr_set[1])
            errors.append(abs(ratio - band_effective(target, rsr_set[1])))
        assert errors[0] < errors[1] < errors[2]


class TestSimulationGrid:
    def test_default_cell_count(self):
        assert SimulationGrid().cell_count == 1920

    def test_default_targets_are_bundled(self):
        names = [name for name, _ in SimulationGrid().targets]
        assert names == list(datasets.TARGET_NAMES)

    def test_bad_day_rejected(self):
        with pytest.raises(ManifestError):
            SimulationGrid(days=(0,))

    def test_empty_axis_rejected(self):
        with pytest.raises(ManifestError, match="times_utc"):
            SimulationGrid(times_utc=())

    def test_from_config_overrides(self):
        grid = SimulationGrid.from_config({
            "atmospheres": ["tropical"], "days": [171],
            "times_utc": [16.0], "visibilities_km": [23.0],
            "sensor_altitudes_km": [0.282],
            "targets": {"grass": "bundled"},
        })
        assert grid.cell_count == 1
        assert grid.targets[0][0] == "grass"

    def test_from_config_rejects_unknown_keys(self):
        with pytest.raises(ManifestError, match="wind_speed"):
            SimulationGrid.from_config({"wind_speed": 3.0})

    CONFIG = {"atmospheres": ["tropical"], "days": [171],
              "times_utc": [16.0], "visibilities_km": [23.0],
              "sensor_altitudes_km": [0.282], "ground_altitude_km": 0.168,
              "latitude_deg": 43.0, "targets": {"grass": "bundled"},
              "solar_spectrum": None}

    @given(data=st.data())
    def test_any_mutated_node_builds_or_is_a_suascal_error(self, data):
        node = data.draw(st.sampled_from(list(helpers.json_paths(
            self.CONFIG))))
        value = data.draw(helpers.json_values)
        try:
            grid = SimulationGrid.from_config(
                helpers.replace_node(self.CONFIG, node, value))
        except SuascalError:
            return
        assert isinstance(grid, SimulationGrid)


def tiny_grid(**kw):
    args = dict(atmospheres=("us-standard",), days=(171,), times_utc=(16.0,),
                visibilities_km=(5.0, 23.0),
                sensor_altitudes_km=(0.214, 0.282),
                summary_exclude_altitudes_km=())
    args.update(kw)
    return SimulationGrid(**args)


class TestGridValidation:
    """Model parameters the per-cell constructors check are rejected when
    the grid is built, before any cell runs."""

    @pytest.mark.parametrize("kwargs, error, message", [
        ({"diffuse_fraction": 1.5}, ManifestError, "diffuse fraction"),
        ({"diffuse_fraction": -0.1}, ManifestError, "diffuse fraction"),
        ({"extinction_layer_km": 0.0}, ManifestError, "extinction layer"),
        ({"path_radiance_factor": -0.1}, ManifestError,
         "path radiance factor"),
        ({"exo_irradiance": flat(-1.0, [330.0, 1200.0])}, CurveError,
         "exo_irradiance must be non-negative"),
        ({"targets": (("dark", flat(-0.1, [330.0, 1200.0])),)}, CurveError,
         "target reflectance must be non-negative"),
        ({"latitude_deg": math.nan}, ManifestError, "latitude"),
    ])
    def test_bad_parameter_rejected(self, kwargs, error, message):
        with pytest.raises(error, match=message):
            SimulationGrid(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        # A subnormal visibility overflows the extinction coefficient; the
        # zero-length view path then has no finite transmission.
        {"visibilities_km": (5e-324,), "sensor_altitudes_km": (0.168,)},
        {"angstrom_exponent": math.nan},
        {"path_radiance_factor": math.inf},
    ])
    def test_non_finite_radiance_is_an_error(self, kwargs):
        with pytest.raises(CurveError, match="not finite"):
            run_maarr_grid(tiny_grid(**kwargs))


def tiny_grid(**kw):
    args = dict(atmospheres=("us-standard",), days=(171,), times_utc=(16.0,),
                visibilities_km=(5.0, 23.0),
                sensor_altitudes_km=(0.214, 0.282),
                summary_exclude_altitudes_km=())
    args.update(kw)
    return SimulationGrid(**args)


def oracle_cell(grid, cell, rsr_set):
    """Per-cell chain: ``parametric_atmosphere`` -> ``sensor_radiance`` /
    ``dls_downwelling`` -> ``band_effective``.

    Returns the downwelling band values and ``{target: recovered bands}``,
    which is empty unless every downwelling band value is positive.
    """
    model, day, hour, visibility, altitude = cell
    atm, zenith = parametric_atmosphere(
        model, day, hour, visibility, altitude, grid.ground_altitude_km,
        grid.latitude_deg, grid.longitude_west_deg,
        exo_irradiance=grid.exo_irradiance,
        angstrom_exponent=grid.angstrom_exponent,
        diffuse_fraction=grid.diffuse_fraction,
        extinction_layer_km=grid.extinction_layer_km,
        path_radiance_factor=grid.path_radiance_factor)
    scenes = {name: make_scene(curve, zenith, altitude,
                               grid.ground_altitude_km, visibility)
              for name, curve in grid.targets}
    down = dls_downwelling(scenes[grid.targets[0][0]], atm)
    down_bands = [band_effective(down, rsr)
                  for _, rsr in sorted(rsr_set.items())]
    recovered = {}
    if min(down_bands) <= 0:
        return down_bands, recovered
    for name, _ in grid.targets:
        at_sensor = sensor_radiance(scenes[name], atm)
        recovered[name] = [band_effective(at_sensor, rsr) / value
                           for (_, rsr), value in zip(sorted(rsr_set.items()),
                                                      down_bands)]
    return down_bands, recovered


def sweep_cells(grid):
    return [(model, day, hour, vis, alt)
            for model in grid.atmospheres for day in grid.days
            for hour in grid.times_utc for vis in grid.visibilities_km
            for alt in grid.sensor_altitudes_km]


OFFSET_WL = np.arange(330.5, 1200.0, 2.0)
WAVY = SpectralCurve(OFFSET_WL, 0.2 + 0.3 * np.sin(OFFSET_WL / 90.0) ** 2)


class TestGridRun:
    def test_row_count_and_order(self):
        grid = tiny_grid()
        table = run_maarr_grid(grid)
        assert table.recovered.size == grid.cell_count * len(grid.targets) * 5
        assert table.recovered.shape == (grid.cell_count,
                                         len(grid.targets), 5)
        np.testing.assert_array_equal(table.cells,
                                      np.arange(grid.cell_count))
        assert (table.cell_values("visibility_km")[0],
                table.cell_values("sensor_altitude_km")[0],
                table.targets[0], table.bands[0]) == (5.0, 0.214, "grass", 1)

    def test_signed_error_is_consistent(self):
        table = run_maarr_grid(tiny_grid())
        for recovered, signed in zip(table.recovered, table.signed_error):
            for target in range(len(table.targets)):
                for band in range(len(table.bands)):
                    assert signed[target, band] == pytest.approx(
                        recovered[target, band] - table.truth[target, band],
                        abs=1e-15)

    def test_matches_per_cell_recomputation_on_foreign_grids(self):
        # Target and solar spectrum on 2 nm grids offset from the bundled
        # 1 nm one and from each other: same length, different wavelengths,
        # so band matrices must be told apart by the wavelengths themselves.
        exo_wl = np.arange(331.25, 1200.0, 2.0)
        exo = SpectralCurve(exo_wl, 1.2 + 0.6 * np.cos(exo_wl / 150.0))
        grid = tiny_grid(targets=(("wavy", WAVY),
                                  ("grass", datasets.bundled_target("grass"))),
                         exo_irradiance=exo)
        rsr_set = datasets.bundled_rsr_set()
        table = run_maarr_grid(grid)
        assert table.targets == ("wavy", "grass")
        assert table.bands == tuple(sorted(rsr_set))
        cells = iter(zip(table.cells, table.recovered))
        for visibility in grid.visibilities_km:
            for altitude in grid.sensor_altitudes_km:
                index, recovered = next(cells)
                assert (table.cell_values("visibility_km")[index],
                        table.cell_values("sensor_altitude_km")[index]) == \
                    (visibility, altitude)
                _, expected = oracle_cell(
                    grid, ("us-standard", 171, 16.0, visibility, altitude),
                    rsr_set)
                for t, (name, curve) in enumerate(grid.targets):
                    for b, (band, rsr) in enumerate(sorted(rsr_set.items())):
                        truth = band_effective(curve, rsr)
                        assert table.truth[t, b] == \
                            pytest.approx(truth, rel=0, abs=1e-12)
                        assert recovered[t, b] == pytest.approx(
                            expected[name][b], rel=0, abs=1e-12)
        assert next(cells, None) is None

    def test_night_cell_raises(self):
        # A cell with the sun below the horizon has no downwelling radiance
        # to divide by: it is skipped with the reason, and the cells of
        # other hours still run.
        grid = tiny_grid(times_utc=(6.0, 16.0))
        table = run_maarr_grid(grid)
        assert table.cell_values("time_utc").tolist() == [16.0] * 4
        assert [cell for cell, _ in table.skipped] == [
            ("us-standard", 171, 6.0, vis, alt)
            for vis in (5.0, 23.0) for alt in (0.214, 0.282)]
        for _, reason in table.skipped:
            assert "not positive in band 1" in reason
        night = run_maarr_grid(tiny_grid(times_utc=(6.0,)))
        assert night.cells.size == 0 and len(night.skipped) == 4
        assert band_statistics(night) == {}
        assert grouped_absolute_error(night, "target") == {}

    def test_error_grows_with_altitude_and_haze(self):
        table = run_maarr_grid(tiny_grid())
        by_alt = grouped_absolute_error(table, "sensor_altitude_km")
        by_vis = grouped_absolute_error(table, "visibility_km")
        assert by_alt[0.214] < by_alt[0.282]
        assert by_vis[23.0] < by_vis[5.0]

    @settings(max_examples=20)
    @given(data=st.data())
    def test_blocks_match_the_per_cell_oracle(self, data):
        def subset(values):
            return tuple(data.draw(st.lists(st.sampled_from(values),
                                            min_size=1, max_size=2,
                                            unique=True)))

        targets = [("grass", datasets.bundled_target("grass"))]
        if data.draw(st.booleans()):
            targets.append(("wavy", WAVY))
        grid = SimulationGrid(
            atmospheres=subset(tuple(ATMOSPHERE_PRESETS)),
            days=subset((79, 171, 355)),
            # 6 h UTC is before sunrise all year at this site; 12 h UTC is
            # before it in winter only.
            times_utc=subset((6.0, 12.0, 14.0, 17.0)),
            visibilities_km=subset((5.0, 23.0)),
            sensor_altitudes_km=subset((0.168, 0.214, 1.692)),
            diffuse_fraction=data.draw(st.sampled_from((None, 0.0))),
            targets=tuple(targets))
        rsr_set = datasets.bundled_rsr_set()
        table = run_maarr_grid(grid)
        cells = sweep_cells(grid)
        rows = dict(zip(table.cells.tolist(), table.recovered))
        skipped = set()
        for index, cell in enumerate(cells):
            down, expected = oracle_cell(grid, cell, rsr_set)
            if min(down) <= 0:
                skipped.add(cell)
                continue
            for t, name in enumerate(table.targets):
                np.testing.assert_allclose(rows[index][t], expected[name],
                                           rtol=0, atol=1e-12)
        assert {cell for cell, _ in table.skipped} == skipped
        assert len(rows) + len(skipped) == len(cells)


def hand_table():
    """Four rows of band 1: (altitude, signed error) = (0.169, 0.05),
    (0.214, 0.01), (0.214, 0.03) and (1.692, -0.08), the two 0.214 rows
    at different visibilities."""
    return SimulationTable(
        axes=(("us-standard",), (171,), (16.0,), (5.0, 23.0),
              (0.169, 0.214, 1.692)),
        targets=("grass",), bands=(1,), truth=np.array([[0.2]]),
        cells=np.array([1, 3, 4, 5]),
        recovered=np.array([0.21, 0.25, 0.23, 0.12]).reshape(4, 1, 1))


class TestResultTables:
    def test_summary_rows_drop_excluded_altitudes(self):
        kept = summary_rows(hand_table(), exclude_altitudes_km=(0.169, 1.692))
        assert kept.cell_values("sensor_altitude_km").tolist() == \
            [0.214, 0.214]

    def test_band_statistics_values(self):
        stats = band_statistics(summary_rows(hand_table(), (0.169, 1.692)))
        assert stats[1]["mean_signed"] == pytest.approx(0.02)
        assert stats[1]["std_signed"] == pytest.approx(0.01)
        assert stats[1]["mean_absolute"] == pytest.approx(0.02)
        assert stats[1]["n"] == 2

    def test_grouped_absolute_error_uses_magnitudes(self):
        grouped = grouped_absolute_error(hand_table(), "sensor_altitude_km")
        assert grouped[1.692] == pytest.approx(0.08)
