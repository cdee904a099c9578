"""Reflectance conversion: ELM fits, AARR ratio, DLS handling, selection."""

import math

import numpy as np
import pytest

from suascal.errors import (DegeneratePanelsError, MetadataError,
                            NoIlluminationError, OrientationError)
from suascal.radiance import RadianceImage
from suascal.reflectance import (CalibrationImage, DLSRecord,
                                 PanelObservation, ReflectanceImage, aarr,
                                 apply_elm, dls_correct, dls_distance,
                                 extract_panel, fit_elm_1pt, fit_elm_2pt,
                                 irradiance_to_radiance,
                                 out_of_range_fraction, select_calibration,
                                 reflectance_to_pgm_counts)


def upright_dls(raw, timestamp=0.0):
    """A record whose orientation correction is the exact identity."""
    return DLSRecord(raw_irradiance=raw, solar_elevation_deg=90.0,
                     sun_sensor_angle_deg=0.0, timestamp=timestamp)


def radiance_image(pixels, band_index=1):
    pixels = np.asarray(pixels, dtype=np.float64)
    return RadianceImage(band_index=band_index, pixels=pixels)


def make_cal(image_id="cal", timestamp=0.0, bright_rho=0.5, bright_l=60.0,
             dark_rho=None, dark_l=None, dls_raw=(1.0, 1.0, 1.0, 1.0, 1.0)):
    bright = PanelObservation(
        panel_id="bright", ground_reflectance=np.full(5, bright_rho),
        mean_radiance=np.full(5, bright_l), roi=(0, 0, 2, 2))
    dark = None
    if dark_rho is not None:
        dark = PanelObservation(
            panel_id="dark", ground_reflectance=np.full(5, dark_rho),
            mean_radiance=np.full(5, dark_l), roi=(4, 0, 2, 2))
    return CalibrationImage(image_id=image_id, timestamp=timestamp,
                            bright=bright, dark=dark,
                            dls=upright_dls(list(dls_raw), timestamp))


class TestDlsCorrect:
    def test_upright_sensor_is_identity(self):
        # sin(90 deg) == cos(0 deg) == 1.0 exactly, so the ratio is 1.0.
        raw = [0.31, 0.57, 0.93, 1.11, 1.35]
        out = dls_correct(upright_dls(raw))
        assert np.array_equal(out, np.array(raw))

    def test_hand_evaluated_tilt(self):
        rec = DLSRecord(raw_irradiance=[1.0] * 5, solar_elevation_deg=30.0,
                        sun_sensor_angle_deg=45.0, timestamp=0.0)
        exact = (0.166 + 0.5) / (0.166 + math.cos(math.radians(45.0)))
        assert dls_correct(rec)[0] == pytest.approx(exact, rel=1e-12)
        assert dls_correct(rec)[0] == pytest.approx(0.76278, abs=2e-5)

    def test_zero_irradiance_stays_zero(self):
        rec = DLSRecord(raw_irradiance=[0.0] * 5, solar_elevation_deg=42.0,
                        sun_sensor_angle_deg=33.0, timestamp=0.0)
        assert np.all(dls_correct(rec) == 0.0)

    def test_nonpositive_denominator_rejected(self):
        # cos(180) = -1 overwhelms the diffuse ratio.
        with pytest.raises(OrientationError):
            DLSRecord(raw_irradiance=[1.0] * 5, solar_elevation_deg=10.0,
                      sun_sensor_angle_deg=180.0, timestamp=0.0)

    def test_elevation_range_enforced(self):
        with pytest.raises(OrientationError):
            DLSRecord(raw_irradiance=[1.0] * 5, solar_elevation_deg=95.0,
                      sun_sensor_angle_deg=0.0, timestamp=0.0)


class TestIrradianceToRadiance:
    def test_pi_becomes_one(self):
        out = irradiance_to_radiance(np.full(5, math.pi))
        assert out == pytest.approx(np.ones(5))

    def test_zero_stays_zero(self):
        assert np.all(irradiance_to_radiance(np.zeros(5)) == 0.0)

    def test_hand_value(self):
        out = irradiance_to_radiance(np.full(5, 0.62832))
        assert out[0] == pytest.approx(0.2, abs=1e-5)


class TestDlsDistance:
    def test_identical_vectors(self):
        assert dls_distance([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]) == 0.0

    def test_unit_difference(self):
        assert dls_distance([1, 2, 3, 4, 5], [1, 2, 3, 4, 6]) == 1.0

    def test_half_difference(self):
        assert dls_distance([1, 2, 3, 4, 5], [1, 2, 3, 4, 5.5]) == 0.5


class TestSelectCalibration:
    def test_single_candidate_any_mode(self):
        cal = make_cal()
        for mode in ("dls", "time", "single"):
            got = select_calibration([cal], mode,
                                     image_dls=upright_dls([1.0] * 5),
                                     image_timestamp=50.0)
            assert got is cal

    def test_dls_mode_prefers_closer_vector(self):
        near = make_cal("near", dls_raw=(1, 2, 3, 4, 5.5))
        far = make_cal("far", dls_raw=(1, 2, 3, 4, 6))
        got = select_calibration([far, near], "dls",
                                 image_dls=upright_dls([1, 2, 3, 4, 5]))
        assert got.image_id == "near"

    def test_time_mode_prefers_smaller_gap(self):
        early = make_cal("early", timestamp=100.0)
        late = make_cal("late", timestamp=200.0)
        got = select_calibration([early, late], "time",
                                 image_timestamp=160.0)
        assert got.image_id == "late"

    def test_single_mode_designation(self):
        a, b = make_cal("a", timestamp=5.0), make_cal("b", timestamp=1.0)
        got = select_calibration([a, b], "single", designated_id="a")
        assert got.image_id == "a"

    def test_single_mode_default_is_canonical_first(self):
        a, b = make_cal("a", timestamp=5.0), make_cal("b", timestamp=1.0)
        assert select_calibration([a, b], "single").image_id == "b"

    def test_unknown_designation_rejected(self):
        with pytest.raises(MetadataError):
            select_calibration([make_cal("a")], "single",
                               designated_id="missing")

    def test_empty_candidates_rejected(self):
        with pytest.raises(DegeneratePanelsError):
            select_calibration([], "time", image_timestamp=0.0)

    def test_order_invariance_under_exact_ties(self):
        rng = np.random.default_rng(17)
        cals = [make_cal(f"c{i}", timestamp=100.0) for i in range(6)]
        baseline = select_calibration(cals, "time", image_timestamp=0.0)
        for _ in range(10):
            shuffled = list(rng.permutation(len(cals)))
            got = select_calibration([cals[i] for i in shuffled], "time",
                                     image_timestamp=0.0)
            assert got.image_id == baseline.image_id == "c0"


class TestElmFits:
    def test_1pt_hand_value(self):
        model = fit_elm_1pt(make_cal(bright_rho=0.30, bright_l=60.0))
        assert model.slope == pytest.approx(np.full(5, 0.005))
        assert np.all(model.bias == 0.0)

    def test_1pt_equal_rho_and_radiance(self):
        model = fit_elm_1pt(make_cal(bright_rho=0.5, bright_l=0.5))
        assert model.slope == pytest.approx(np.ones(5))

    def test_1pt_ratio_two(self):
        model = fit_elm_1pt(make_cal(bright_rho=0.5, bright_l=0.25))
        assert model.slope == pytest.approx(np.full(5, 2.0))

    def test_2pt_hand_values(self):
        model = fit_elm_2pt(make_cal(bright_rho=0.30, bright_l=60.0,
                                     dark_rho=0.03, dark_l=8.0))
        assert model.slope == pytest.approx(np.full(5, 0.00519231), abs=1e-8)
        assert model.bias == pytest.approx(np.full(5, -0.01153846), abs=1e-8)

    def test_2pt_identity_fixture(self):
        model = fit_elm_2pt(make_cal(bright_rho=1.0, bright_l=1.0,
                                     dark_rho=0.01, dark_l=0.01))
        assert model.slope == pytest.approx(np.ones(5))
        assert model.bias == pytest.approx(np.zeros(5), abs=1e-15)

    def test_2pt_requires_dark_panel(self):
        with pytest.raises(DegeneratePanelsError):
            fit_elm_2pt(make_cal())

    def test_2pt_coincident_radiances_name_the_band(self):
        with pytest.raises(DegeneratePanelsError, match="band"):
            fit_elm_2pt(make_cal(bright_rho=0.30, bright_l=8.0,
                                 dark_rho=0.03, dark_l=8.0))

    def test_2pt_fixed_points(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            rho_d = rng.uniform(0.01, 0.10)
            rho_b = rng.uniform(0.3, 1.2)
            l_d = rng.uniform(0.5, 5.0)
            l_b = l_d + rng.uniform(1.0, 100.0)
            cal = make_cal(bright_rho=rho_b, bright_l=l_b,
                           dark_rho=rho_d, dark_l=l_d)
            model = fit_elm_2pt(cal)
            assert model.slope[0] * l_b + model.bias[0] == \
                pytest.approx(rho_b, abs=1e-12)
            assert model.slope[0] * l_d + model.bias[0] == \
                pytest.approx(rho_d, abs=1e-12)


class TestApplyElm:
    def test_hand_value_from_2pt_fit(self):
        model = fit_elm_2pt(make_cal(bright_rho=0.30, bright_l=60.0,
                                     dark_rho=0.03, dark_l=8.0))
        out = apply_elm(model, radiance_image([[30.0]]))
        assert out.pixels[0, 0] == pytest.approx(0.14423077, abs=1e-8)

    def test_1pt_maps_zero_to_zero(self):
        model = fit_elm_1pt(make_cal())
        out = apply_elm(model, radiance_image([[0.0, 60.0]]))
        assert out.pixels[0, 0] == 0.0

    def test_identity_model(self):
        model = fit_elm_2pt(make_cal(bright_rho=1.0, bright_l=1.0,
                                     dark_rho=0.01, dark_l=0.01))
        pixels = np.array([[0.25, 0.5], [0.75, 1.0]])
        out = apply_elm(model, radiance_image(pixels))
        np.testing.assert_allclose(out.pixels, pixels, atol=1e-15)

    def test_affine_in_radiance(self):
        model = fit_elm_2pt(make_cal(bright_rho=0.30, bright_l=60.0,
                                     dark_rho=0.03, dark_l=8.0))
        base = apply_elm(model, radiance_image([[10.0]]))
        doubled = apply_elm(model, radiance_image([[20.0]]))
        assert doubled.pixels[0, 0] - base.pixels[0, 0] == \
            pytest.approx(model.slope[0] * 10.0, rel=1e-12)

    def test_no_clamping_but_counted(self):
        model = fit_elm_1pt(make_cal(bright_rho=0.5, bright_l=0.5))
        out = apply_elm(model, radiance_image([[2.0, 0.5]]))
        assert out.pixels[0, 0] == pytest.approx(2.0)
        assert out.out_of_range_fraction == 0.5


class TestAarr:
    def test_white_lambertian_is_unity(self):
        dls = upright_dls([math.pi * 0.2] * 5)
        img = radiance_image(np.full((2, 2), 0.2))
        out = aarr(img, dls)
        np.testing.assert_allclose(out.pixels, 1.0, rtol=1e-12)

    def test_zero_radiance_is_zero(self):
        out = aarr(radiance_image([[0.0]]), upright_dls([1.0] * 5))
        assert out.pixels[0, 0] == 0.0

    def test_hand_value(self):
        out = aarr(radiance_image([[0.05]]), upright_dls([0.62832] * 5))
        assert out.pixels[0, 0] == pytest.approx(0.25, abs=1e-5)

    def test_band_specific_reference(self):
        dls = upright_dls([math.pi, math.pi, math.pi * 0.5, math.pi, math.pi])
        out = aarr(radiance_image([[0.25]], band_index=3), dls)
        assert out.pixels[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_illumination_invariance(self):
        rng = np.random.default_rng(31)
        pixels = rng.uniform(0.0, 0.4, size=(8, 8))
        for scale in (0.1, 1.0, 10.0):
            ref = aarr(radiance_image(pixels), upright_dls([0.9] * 5))
            scaled = aarr(radiance_image(pixels * scale),
                          upright_dls([0.9 * scale] * 5))
            np.testing.assert_allclose(scaled.pixels, ref.pixels, rtol=1e-12)

    def test_dark_sky_rejected(self):
        with pytest.raises(NoIlluminationError):
            aarr(radiance_image([[0.05]]), upright_dls([0.0] * 5))


class TestPanels:
    def test_extract_constant_patch(self):
        img = radiance_image(np.full((10, 10), 3.5))
        assert extract_panel(img, (2, 3, 4, 5)) == 3.5

    def test_extract_mean_of_two(self):
        img = radiance_image([[1.0, 3.0]])
        assert extract_panel(img, (0, 0, 2, 1)) == 2.0

    def test_full_image_roi(self):
        pixels = np.arange(12.0).reshape(3, 4)
        img = radiance_image(pixels)
        assert extract_panel(img, (0, 0, 4, 3)) == pixels.mean()

    def test_out_of_bounds_roi_rejected(self):
        img = radiance_image(np.zeros((4, 4)))
        with pytest.raises(MetadataError):
            extract_panel(img, (2, 2, 4, 4))

    def test_panel_reflectance_sanity_bounds(self):
        with pytest.raises(MetadataError):
            PanelObservation(panel_id="p", ground_reflectance=np.full(5, 1.6),
                             mean_radiance=np.ones(5), roi=(0, 0, 1, 1))


class TestReflectanceImage:
    def test_out_of_range_fraction_counts_both_sides(self):
        assert out_of_range_fraction(np.array([-0.1, 0.5, 1.1, 0.9])) == 0.5

    def test_pgm_counts_scale_and_saturate(self):
        img = ReflectanceImage(band_index=1,
                               pixels=np.array([[0.5, -0.2, 8.0]]))
        assert img.out_of_range_fraction == 2 / 3
        counts = reflectance_to_pgm_counts(img, scale=10000.0)
        assert counts.dtype == np.uint16
        assert counts.tolist() == [[5000, 0, 65535]]
