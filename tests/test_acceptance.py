"""Acceptance suite: one test per numbered criterion, each printing a
single summary line with its measured figures (visible under ``pytest -v -s``
or in the captured output).

These tests exercise the public surface the way a downstream user would:
random fixtures are seeded, oracles are computed independently of the code
under test (dense Riemann sums, quadrature of the F density, hand-built
scenes), and every tolerance is stated inline.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

import helpers
from suascal import datasets
from suascal.cli import main
from suascal.evaluate import anova_oneway, ndvi
from suascal.imageio import read_plane
from suascal.radiance import (RadianceImage, RadiometricMetadata, RawImage,
                              VignetteModel, dc_to_radiance)
from suascal.reflectance import (CalibrationImage, DLSRecord,
                                 PanelObservation, ReflectanceImage, aarr,
                                 dls_correct, fit_elm_1pt, fit_elm_2pt,
                                 select_calibration)
from suascal.rsr import SpectralCurve, band_effective
from suascal.simulate import (AtmosphereState, Scene, SimulationGrid,
                              band_statistics, dls_downwelling,
                              run_maarr_grid, sensor_radiance, summary_rows)


def upright_dls(raw, timestamp=0.0):
    return DLSRecord(raw_irradiance=raw, solar_elevation_deg=90.0,
                     sun_sensor_angle_deg=0.0, timestamp=timestamp)


def make_calibration(image_id, timestamp, bright_rho, bright_l,
                     dark_rho=None, dark_l=None, dls_raw=None):
    bright = PanelObservation(panel_id="bright",
                              ground_reflectance=np.asarray(bright_rho),
                              mean_radiance=np.asarray(bright_l),
                              roi=(0, 0, 2, 2))
    dark = None
    if dark_rho is not None:
        dark = PanelObservation(panel_id="dark",
                                ground_reflectance=np.asarray(dark_rho),
                                mean_radiance=np.asarray(dark_l),
                                roi=(4, 0, 2, 2))
    raw = [1.0] * 5 if dls_raw is None else list(dls_raw)
    return CalibrationImage(image_id=image_id, timestamp=timestamp,
                            bright=bright, dark=dark,
                            dls=upright_dls(raw, timestamp))


def test_criterion_01_elm_fixed_points():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst_2pt = worst_1pt = 0.0
    for trial in range(100):
        dark_rho = rng.uniform(0.01, 0.10, size=5)
        bright_rho = dark_rho + rng.uniform(0.2, 1.0, size=5)
        dark_l = rng.uniform(0.5, 5.0, size=5)
        bright_l = dark_l + rng.uniform(1.0, 120.0, size=5)
        cal = make_calibration(f"cal{trial}", float(trial), bright_rho,
                               bright_l, dark_rho, dark_l)
        model = fit_elm_2pt(cal)
        for rho, radiance in ((bright_rho, bright_l), (dark_rho, dark_l)):
            recovered = model.slope * radiance + model.bias
            worst_2pt = max(worst_2pt, float(np.abs(recovered - rho).max()))

        one_point = fit_elm_1pt(cal)
        assert np.all(one_point.bias == 0.0)
        recovered = one_point.slope * bright_l
        worst_1pt = max(worst_1pt,
                        float((np.abs(recovered - bright_rho)
                               / bright_rho).max()))
    elapsed = time.perf_counter() - started
    assert worst_2pt < 1e-12
    # "Exactly" for the divide-then-multiply route means one rounding step:
    # (rho/L)*L can differ from rho by 1 ulp, never more.
    assert worst_1pt <= 4e-16
    assert elapsed < 1.0
    print(f"criterion 1 PASS: 2-pt worst {worst_2pt:.2e} (<1e-12), "
          f"1-pt worst rel {worst_1pt:.2e} (<=4e-16), {elapsed:.2f}s")


def smooth_reflectance(rng, grid):
    span = grid[-1] - grid[0]
    phase = rng.uniform(0, 2 * math.pi)
    base = rng.uniform(0.05, 0.5)
    wiggle = rng.uniform(0.0, base * 0.8)
    slope = rng.uniform(-0.2, 0.4)
    values = base + wiggle * np.sin(
        2 * math.pi * (grid - grid[0]) / span * rng.uniform(1, 4) + phase) \
        + slope * (grid - grid[0]) / span
    return SpectralCurve(grid, np.clip(values, 0.01, None))


def test_criterion_02_aarr_zero_path_exactness():
    # Zero-length view path (tau2 = 1, no path or adjacency radiance) and
    # spectrally flat illumination: the band ratio must return every input
    # curve's band-effective reflectance.
    rng = np.random.default_rng(102)
    grid = np.linspace(330.0, 1200.0, 881)
    rsr_set = datasets.bundled_rsr_set()
    curves = [datasets.bundled_target(name) for name in datasets.TARGET_NAMES]
    curves += [smooth_reflectance(rng, grid) for _ in range(6)]
    worst = 0.0
    for trial, target in enumerate(curves):
        exo = float(rng.uniform(0.8, 1.6))
        tau1 = float(rng.uniform(0.6, 0.95))
        sky = float(rng.uniform(0.0, 0.08))
        span = np.array([330.0, 1200.0])
        atm = AtmosphereState(
            exo_irradiance=SpectralCurve(span, np.full(2, exo)),
            tau1=SpectralCurve(span, np.full(2, tau1)),
            tau2=SpectralCurve(span, np.ones(2)),
            downwelling_sky=SpectralCurve(span, np.full(2, sky)),
            upwelling_path=SpectralCurve(span, np.zeros(2)),
            adjacency=SpectralCurve(span, np.zeros(2)))
        scene = Scene(target_reflectance=target,
                      solar_zenith_deg=float(rng.uniform(10.0, 70.0)),
                      sensor_altitude_km=0.168, ground_altitude_km=0.168,
                      visibility_km=23.0)
        at_sensor = sensor_radiance(scene, atm)
        reference = dls_downwelling(scene, atm)
        for band, rsr in rsr_set.items():
            recovered = band_effective(at_sensor, rsr) / \
                band_effective(reference, rsr)
            truth = band_effective(target, rsr)
            worst = max(worst, abs(recovered - truth))
    assert worst < 1e-9
    print(f"criterion 2 PASS: worst band error {worst:.2e} (<1e-9) over "
          f"{len(curves)} curves x 5 bands")


def test_criterion_03_aarr_illumination_invariance():
    rng = np.random.default_rng(103)
    worst = 0.0
    for band in range(1, 6):
        pixels = rng.uniform(0.0, 0.45, size=(32, 32))
        raw = rng.uniform(0.5, 1.5, size=5).tolist()
        image = RadianceImage(band_index=band, pixels=pixels)
        baseline = aarr(image, upright_dls(raw))
        for factor in (0.1, 1.0, 10.0):
            scaled_image = RadianceImage(band_index=band,
                                         pixels=pixels * factor)
            scaled_dls = upright_dls([r * factor for r in raw])
            scaled = aarr(scaled_image, scaled_dls)
            worst = max(worst,
                        float(np.abs(scaled.pixels - baseline.pixels).max()))
    assert worst < 1e-12
    print(f"criterion 3 PASS: worst reflectance drift {worst:.2e} (<1e-12) "
          "for factors 0.1/1/10")


def riemann_band_effective(spectrum, rsr, step):
    """Independent midpoint-Riemann oracle over the curves' overlap."""
    lo = max(spectrum.wavelengths_nm[0], rsr.wavelengths_nm[0])
    hi = min(spectrum.wavelengths_nm[-1], rsr.wavelengths_nm[-1])
    mids = np.arange(lo + step / 2.0, hi, step)
    s = np.interp(mids, spectrum.wavelengths_nm, spectrum.values)
    r = np.interp(mids, rsr.wavelengths_nm, rsr.values)
    return float((s * r).sum() / r.sum())


def test_criterion_04_band_integration_oracle():
    rng = np.random.default_rng(104)
    spectrum_grid = np.linspace(400.0, 900.0, 5001)   # 0.1 nm knots
    worst = 0.0
    for _ in range(20):
        center = rng.uniform(500.0, 800.0)
        sigma = rng.uniform(10.0, 20.0)
        rsr_grid = np.linspace(center - 50.0, center + 50.0, 5001)  # 0.02 nm
        response = np.exp(-0.5 * ((rsr_grid - center) / sigma) ** 2)
        rsr = SpectralCurve(rsr_grid, response)
        spectrum = smooth_reflectance(rng, spectrum_grid)
        got = band_effective(spectrum, rsr)
        # 100x denser than the 0.02 nm RSR tabulation.
        want = riemann_band_effective(spectrum, rsr, step=0.0002)
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-6
    print(f"criterion 4 PASS: worst relative gap {worst:.2e} (<1e-6) "
          "on 20 random pairs")


def random_positive_vignette(rng, width, height):
    """Random 6-coefficient vignette kept positive over the frame."""
    center_x = width / 2.0 + float(rng.uniform(-20.0, 20.0))
    center_y = height / 2.0 + float(rng.uniform(-20.0, 20.0))
    xs = np.arange(width, dtype=np.float64) - center_x
    ys = np.arange(height, dtype=np.float64) - center_y
    radius = np.hypot(xs[np.newaxis, :], ys[:, np.newaxis])
    while True:
        coeffs = rng.uniform(-1e-3, 1e-3, size=6)
        k = np.ones_like(radius)
        for j, c in enumerate(coeffs):
            k += c * radius ** (j + 1)
        if k.min() > 0.0:
            return VignetteModel(center_x=center_x, center_y=center_y,
                                 coefficients=tuple(coeffs))


def test_criterion_05_dc_radiance_round_trip():
    rng = np.random.default_rng(105)
    width, height = 1280, 960
    metas, raws = [], []
    for band in range(1, 6):
        meta = RadiometricMetadata(
            a1=float(rng.uniform(100.0, 300.0)),
            a2=float(rng.uniform(0.0, 1e-5)),
            a3=float(rng.uniform(0.0, 1e-6)),
            gain=float(rng.choice([1, 2, 4, 8])),
            exposure_us=float(rng.uniform(200.0, 2000.0)),
            dark_level=4096.0,
            vignette=random_positive_vignette(rng, width, height),
            bits_per_pixel=16, band_index=band)
        counts = rng.integers(4096, 65536, size=(height, width),
                              dtype=np.uint16)
        metas.append(meta)
        raws.append(RawImage(band_index=band, pixels=counts,
                             bits_per_pixel=16))

    started = time.perf_counter()
    planes = [dc_to_radiance(raw, meta) for raw, meta in zip(raws, metas)]
    forward_s = time.perf_counter() - started
    assert forward_s < 1.0

    worst = 0.0
    for raw, meta, plane in zip(raws, metas, planes):
        assert plane.clamped_pixel_count == 0
        recovered = helpers.radiance_to_counts(plane, meta)
        worst = max(worst, float(
            np.abs(recovered - raw.pixels.astype(np.float64)).max()))
    assert worst < 0.5
    print(f"criterion 5 PASS: worst count gap {worst:.2e} DN (<0.5), "
          f"5-band forward {forward_s * 1000:.0f} ms (<1000)")


def test_criterion_06_ndvi_reference_value():
    def plane(value, band):
        pixels = np.full((32, 32), value)
        return ReflectanceImage(band_index=band, pixels=pixels)

    result = ndvi(plane(0.0264, 3), plane(0.4912, 5))
    value = float(result.values[0, 0])
    assert np.all(result.values == value)
    assert value == pytest.approx(0.8980, abs=5e-4)
    print(f"criterion 6 PASS: NDVI {value:.6f} vs 0.8980 +/- 5e-4")


def test_criterion_07_maarr_desk_scale_study():
    grid = SimulationGrid()
    started = time.perf_counter()
    table = run_maarr_grid(grid)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0

    kept = summary_rows(table, grid.summary_exclude_altitudes_km)
    stats = band_statistics(kept)
    worst_band = max(abs(s["mean_signed"]) for s in stats.values())
    assert worst_band < 0.01, stats

    magnitude = np.abs(table.signed_error)
    visibilities = table.cell_values("visibility_km")
    altitudes = table.cell_values("sensor_altitude_km")

    def mean_abs(visibility, altitude):
        return float(np.mean(magnitude[(visibilities == visibility)
                                       & (altitudes == altitude)]))

    altitude_rhos, visibility_rhos = [], []
    for visibility in grid.visibilities_km:
        profile = [mean_abs(visibility, alt)
                   for alt in grid.sensor_altitudes_km]
        rho = scipy.stats.spearmanr(grid.sensor_altitudes_km,
                                    profile).statistic
        altitude_rhos.append(rho)
    for altitude in grid.sensor_altitudes_km:
        profile = [mean_abs(vis, altitude)
                   for vis in grid.visibilities_km]
        rho = scipy.stats.spearmanr(grid.visibilities_km,
                                    profile).statistic
        visibility_rhos.append(rho)
    assert min(altitude_rhos) >= 0.9
    assert max(visibility_rhos) <= -0.9
    print(f"criterion 7 PASS: grid {elapsed:.1f}s (<60), worst per-band "
          f"|mean signed| {worst_band:.4f} (<0.01), altitude Spearman "
          f">= {min(altitude_rhos):+.2f}, visibility Spearman "
          f"<= {max(visibility_rhos):+.2f}")


def matched_sun_sensor_angle(elevation_deg):
    """Sun-sensor angle whose cosine equals sin(elevation) bit-for-bit."""
    target = math.sin(math.radians(elevation_deg))
    guess = math.degrees(math.acos(target))
    for direction in (0.0, 180.0):
        x = guess
        for _ in range(300):
            if math.cos(math.radians(x)) == target:
                return x
            x = math.nextafter(x, direction)
    return None


def test_criterion_08_dls_correction_identity():
    rng = np.random.default_rng(97)
    checked = 0
    while checked < 50:
        elevation = float(rng.uniform(1.0, 89.0))
        angle = matched_sun_sensor_angle(elevation)
        if angle is None:
            continue
        raw = rng.uniform(0.1, 2.0, size=5).tolist()
        record = DLSRecord(raw_irradiance=raw, solar_elevation_deg=elevation,
                           sun_sensor_angle_deg=angle, timestamp=0.0,
                           fresnel_factor=1.0)
        corrected = dls_correct(record)
        assert np.array_equal(corrected, np.asarray(raw)), \
            (elevation, angle, corrected)
        checked += 1
    print("criterion 8 PASS: correction is the bitwise identity on "
          "50 matched-angle records")


def _f_density(x, df1, df2):
    if x <= 0.0:
        return 0.0
    log_beta = math.lgamma(df1 / 2) + math.lgamma(df2 / 2) \
        - math.lgamma((df1 + df2) / 2)
    log_num = (df1 / 2) * math.log(df1) + (df2 / 2) * math.log(df2) \
        + (df1 / 2 - 1) * math.log(x)
    log_den = ((df1 + df2) / 2) * math.log(df2 + df1 * x) + log_beta
    return math.exp(log_num - log_den)


def test_criterion_09_anova_correctness():
    assert anova_oneway([[2.0, 2.0], [2.0, 2.0]]) == (0.0, 1.0)

    # Hand ANOVA table for {1,2} vs {3,4}: SSB = 4, SSW = 1, df = (1, 2),
    # so F = (4/1) / (1/2) = 8.
    f_value, p_value = anova_oneway([[1.0, 2.0], [3.0, 4.0]])
    assert f_value == pytest.approx(8.0, abs=1e-10)
    tail = scipy.integrate.quad(_f_density, f_value, np.inf, args=(1, 2))[0]
    assert p_value == pytest.approx(tail, abs=1e-8)

    rng = np.random.default_rng(109)
    worst = abs(p_value - tail)
    for _ in range(5):
        groups = [rng.normal(rng.uniform(-0.5, 0.5), 1.0,
                             size=int(rng.integers(4, 9))).tolist()
                  for _ in range(int(rng.integers(2, 5)))]
        f_value, p_value = anova_oneway(groups)
        df1 = len(groups) - 1
        df2 = sum(len(g) for g in groups) - len(groups)
        tail = scipy.integrate.quad(_f_density, f_value, np.inf,
                                    args=(df1, df2))[0]
        worst = max(worst, abs(p_value - tail))
        assert p_value == pytest.approx(tail, abs=1e-8)
    print(f"criterion 9 PASS: F fixture exact to 1e-10, worst |p - quad| "
          f"{worst:.2e} (<1e-8)")


def test_criterion_10_selection_determinism():
    rng = np.random.default_rng(110)
    # Two exact metric ties per mode plus distinct decoys.
    candidates = [
        make_calibration("c_far", 400.0, [0.5] * 5, [60.0] * 5,
                         dls_raw=[2.0] * 5),
        make_calibration("c_tie_b", 210.0, [0.5] * 5, [60.0] * 5,
                         dls_raw=[1.0] * 5),
        make_calibration("c_tie_a", 190.0, [0.5] * 5, [60.0] * 5,
                         dls_raw=[1.0] * 5),
        make_calibration("c_near", 205.0, [0.5] * 5, [60.0] * 5,
                         dls_raw=[1.5] * 5),
    ]
    image_dls = upright_dls([1.0] * 5)
    reference = {
        mode: select_calibration(candidates, mode, image_dls=image_dls,
                                 image_timestamp=200.0).image_id
        for mode in ("dls", "time", "single")
    }
    for trial in range(20):
        order = rng.permutation(len(candidates))
        shuffled = [candidates[i] for i in order]
        for mode, expected in reference.items():
            got = select_calibration(shuffled, mode, image_dls=image_dls,
                                     image_timestamp=200.0).image_id
            assert got == expected, (trial, mode, got, expected)
    print(f"criterion 10 PASS: 20 permutations x 3 modes all select "
          f"{reference}")


def test_criterion_11_end_to_end_flight(tmp_path):
    manifest = helpers.build_flight(tmp_path / "flight", field_images=8,
                                    with_decoy=True)
    field_ids = [f"field_{i}" for i in range(1, 9)]
    combos = [("elm1", "dls"), ("elm1", "time"), ("elm1", "single"),
              ("elm2", "dls"), ("elm2", "time"), ("elm2", "single"),
              ("aarr", None)]
    worst_elm = worst_aarr = 0.0
    for method, selection in combos:
        out = tmp_path / f"{method}_{selection or 'none'}"
        argv = ["reflect", "--manifest", str(manifest), "--out", str(out),
                "--method", method]
        if selection:
            argv += ["--selection", selection]
        if selection == "single":
            argv += ["--designated-id", "cal_a"]
        assert main(argv) == 0, (method, selection)
        report = json.loads((out / "reflectance_report.json").read_text())
        assert report["failures"] == {}
        tolerance = 1e-3 if method == "aarr" else 1e-6
        for image_id in field_ids:
            if method != "aarr":
                assert report["images"][image_id]["calibration_image"] == \
                    "cal_a", (method, selection, image_id)
            for band in range(1, 6):
                pixels, _ = read_plane(out / f"{image_id}_b{band}.f32")
                for roi, truth in ((helpers.BRIGHT_ROI, helpers.BRIGHT_RHO),
                                   (helpers.DARK_ROI, helpers.DARK_RHO)):
                    x, y, w, h = roi
                    got = float(pixels[y:y + h, x:x + w].mean())
                    gap = abs(got - truth)
                    if method == "aarr":
                        worst_aarr = max(worst_aarr, gap)
                    else:
                        worst_elm = max(worst_elm, gap)
                    assert gap < tolerance, (method, selection, image_id,
                                             band, got, truth)
    assert worst_elm < 1e-6 and worst_aarr < 1e-3
    print(f"criterion 11 PASS: 10-image flight, 7 method/selection runs; "
          f"worst ELM gap {worst_elm:.2e} (<1e-6), worst AARR gap "
          f"{worst_aarr:.2e} (<1e-3); decoy never selected")
