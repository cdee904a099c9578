"""Error aggregation, NDVI, ANOVA machinery and the cosine-falloff check."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from helpers import write_samples
from suascal.errors import MetadataError
from suascal.evaluate import (ErrorReport, TargetSample, aggregate,
                              anova_oneway, cosine_falloff_check, f_survival,
                              ndvi, read_samples, regularized_incomplete_beta,
                              signed_error, write_reports)
from suascal.reflectance import ReflectanceImage


def make_sample(err, target_id="t1", band_index=1, weather="sunny",
                altitude_ft=225, method="aarr", truth=0.30):
    return TargetSample(target_id=target_id, band_index=band_index,
                        weather=weather, altitude_ft=altitude_ft,
                        method=method, true_reflectance=truth,
                        estimated_reflectance=truth + err)


def reflectance_plane(pixels, band_index=1):
    pixels = np.asarray(pixels, dtype=np.float64)
    return ReflectanceImage(band_index=band_index, pixels=pixels)


class TestSignedError:
    def test_under_estimate_is_negative(self):
        assert signed_error(0.25, 0.30) == pytest.approx(-0.05)

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = rng.uniform(0, 1, size=2)
            assert signed_error(a, b) == -signed_error(b, a)

    def test_non_finite_rejected(self):
        with pytest.raises(MetadataError):
            signed_error(math.nan, 0.3)

    def test_overflowing_difference_rejected(self):
        with pytest.raises(MetadataError, match="beyond the float range"):
            signed_error(1e308, -1e308)

    def test_sample_property_matches_function(self):
        sample = make_sample(0.02)
        assert sample.signed_error == pytest.approx(0.02)


class TestTargetSample:
    def test_unknown_weather_rejected(self):
        with pytest.raises(MetadataError, match="weather"):
            make_sample(0.0, weather="foggy")

    def test_unknown_altitude_rejected(self):
        with pytest.raises(MetadataError, match="altitude"):
            make_sample(0.0, altitude_ft=200)

    def test_unknown_method_rejected(self):
        with pytest.raises(MetadataError, match="method"):
            make_sample(0.0, method="vicarious")

    def test_band_range_enforced(self):
        with pytest.raises(MetadataError, match="band"):
            make_sample(0.0, band_index=6)

    def test_hyphenated_weather_level(self):
        assert make_sample(0.0, weather="partly-cloudy").weather == \
            "partly-cloudy"


class TestAggregate:
    def test_hand_statistics(self):
        reports = aggregate([make_sample(0.01), make_sample(0.03)])
        (report,) = reports
        assert report.mean_signed == pytest.approx(0.02)
        assert report.std_signed == pytest.approx(0.01)
        assert report.mean_absolute == pytest.approx(0.02)
        assert report.std_absolute == pytest.approx(0.01)
        assert report.n == 2

    def test_symmetric_errors_cancel_signed_only(self):
        (report,) = aggregate([make_sample(0.04), make_sample(-0.04)])
        assert report.mean_signed == pytest.approx(0.0, abs=1e-15)
        assert report.mean_absolute == pytest.approx(0.04)

    def test_single_sample_has_zero_population_std(self):
        (report,) = aggregate([make_sample(0.07)])
        assert report.std_signed == 0.0
        assert report.n == 1

    def test_grand_group_key_is_empty(self):
        (report,) = aggregate([make_sample(0.01)])
        assert report.group == ()
        assert report.group_dict == {}

    def test_grouping_by_method_sorts_keys(self):
        samples = [make_sample(0.01, method="elm2"),
                   make_sample(0.02, method="aarr"),
                   make_sample(0.03, method="elm1")]
        reports = aggregate(samples, group_by=("method",))
        assert [r.group_dict["method"] for r in reports] == \
            ["aarr", "elm1", "elm2"]

    def test_order_invariance(self):
        rng = np.random.default_rng(11)
        samples = [make_sample(rng.normal(0, 0.02),
                               method=m, band_index=b)
                   for m in ("elm1", "elm2", "aarr") for b in (1, 3, 5)
                   for _ in range(4)]
        baseline = aggregate(samples, group_by=("method", "band_index"))
        for _ in range(5):
            shuffled = [samples[i] for i in rng.permutation(len(samples))]
            reports = aggregate(shuffled, group_by=("method", "band_index"))
            assert [r.group for r in reports] == [r.group for r in baseline]
            for got, want in zip(reports, baseline):
                assert got.n == want.n
                assert got.mean_signed == pytest.approx(want.mean_signed,
                                                        rel=1e-12, abs=1e-15)
                assert got.std_signed == pytest.approx(want.std_signed,
                                                       rel=1e-12)

    def test_sample_std_uses_bessel_correction(self):
        (report,) = aggregate([make_sample(0.01), make_sample(0.03)],
                              sample_std=True)
        assert report.std_signed == pytest.approx(0.01 * math.sqrt(2))

    def test_sample_std_requires_two_per_group(self):
        with pytest.raises(MetadataError, match="two"):
            aggregate([make_sample(0.01)], sample_std=True)

    def test_unknown_group_field_rejected(self):
        for group_by in (("truth",), ("method", "band_index", "method")):
            with pytest.raises(MetadataError, match="group"):
                aggregate([make_sample(0.01)], group_by=group_by)

    def test_no_samples_rejected(self):
        with pytest.raises(MetadataError):
            aggregate([])

    @pytest.mark.parametrize("errors, statistic", [
        ([1e308, 1e308], "mean_signed"),
        ([1e308, -1e308], "std_signed"),
    ])
    def test_overflowing_statistic_rejected(self, errors, statistic):
        with pytest.raises(MetadataError,
                           match=f"{statistic} of the errors is beyond"):
            aggregate([make_sample(err, truth=0.0) for err in errors])

    def test_report_validation(self):
        with pytest.raises(MetadataError):
            ErrorReport(group=(), mean_signed=0.0, std_signed=0.0,
                        mean_absolute=0.0, std_absolute=0.0, n=0)


class TestNdvi:
    def test_equal_bands_give_zero(self):
        red = reflectance_plane(np.full((2, 2), 0.3), band_index=3)
        nir = reflectance_plane(np.full((2, 2), 0.3), band_index=5)
        result = ndvi(red, nir)
        np.testing.assert_array_equal(result.values, 0.0)
        assert result.zero_denominator_count == 0

    def test_vegetation_reference_value(self):
        red = reflectance_plane([[0.0264]], band_index=3)
        nir = reflectance_plane([[0.4912]], band_index=5)
        assert ndvi(red, nir).values[0, 0] == pytest.approx(0.8980, abs=5e-4)

    def test_dark_red_saturates_at_one(self):
        red = reflectance_plane([[0.0]], band_index=3)
        nir = reflectance_plane([[0.4]], band_index=5)
        assert ndvi(red, nir).values[0, 0] == 1.0

    def test_zero_denominator_counted_not_raised(self):
        red = reflectance_plane([[0.0, 0.2]], band_index=3)
        nir = reflectance_plane([[0.0, 0.4]], band_index=5)
        result = ndvi(red, nir)
        assert result.values[0, 0] == 0.0
        assert result.values[0, 1] == pytest.approx(1.0 / 3.0)
        assert result.zero_denominator_count == 1

    def test_dimension_mismatch_rejected(self):
        red = reflectance_plane(np.zeros((2, 2)), band_index=3)
        nir = reflectance_plane(np.zeros((2, 3)), band_index=5)
        with pytest.raises(MetadataError, match="mismatch"):
            ndvi(red, nir)

    def test_bounded_for_nonnegative_reflectance(self):
        rng = np.random.default_rng(7)
        red = reflectance_plane(rng.uniform(0.001, 1.0, (16, 16)),
                                band_index=3)
        nir = reflectance_plane(rng.uniform(0.001, 1.0, (16, 16)),
                                band_index=5)
        values = ndvi(red, nir).values
        assert np.all(values <= 1.0) and np.all(values >= -1.0)


class TestIncompleteBeta:
    def test_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_against_reference_implementation(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            a = rng.uniform(0.5, 40.0)
            b = rng.uniform(0.5, 40.0)
            x = rng.uniform(0.0, 1.0)
            expected = scipy.special.betainc(a, b, x)
            assert regularized_incomplete_beta(a, b, x) == \
                pytest.approx(expected, rel=1e-11, abs=1e-13)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 2.0, 1.5)


class TestFSurvival:
    def test_conventions(self):
        assert f_survival(math.inf, 1, 2) == 0.0
        assert f_survival(0.0, 1, 2) == 1.0
        assert f_survival(-3.0, 1, 2) == 1.0

    def test_against_reference_distribution(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            d1 = int(rng.integers(1, 10))
            d2 = int(rng.integers(2, 40))
            f = float(rng.uniform(0.01, 30.0))
            assert f_survival(f, d1, d2) == \
                pytest.approx(scipy.stats.f.sf(f, d1, d2),
                              rel=1e-10, abs=1e-14)

    def test_bad_degrees_of_freedom(self):
        with pytest.raises(ValueError):
            f_survival(1.0, 0, 5)


class TestAnova:
    def test_hand_example(self):
        f, p = anova_oneway([[1.0, 2.0], [3.0, 4.0]])
        assert f == pytest.approx(8.0, abs=1e-12)
        assert p == pytest.approx(0.10557280900008409, abs=1e-12)

    def test_identical_groups(self):
        assert anova_oneway([[2.0, 2.0], [2.0, 2.0]]) == (0.0, 1.0)

    def test_distinct_constant_groups(self):
        f, p = anova_oneway([[1.0, 1.0], [2.0, 2.0]])
        assert math.isinf(f) and p == 0.0

    def test_against_reference_implementation(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            groups = [rng.normal(rng.uniform(-1, 1), 1.0,
                                 size=rng.integers(3, 12)).tolist()
                      for _ in range(int(rng.integers(2, 6)))]
            f, p = anova_oneway(groups)
            expected = scipy.stats.f_oneway(*groups)
            assert f == pytest.approx(expected.statistic, rel=1e-10)
            assert p == pytest.approx(expected.pvalue, rel=1e-9, abs=1e-14)

    def test_affine_invariance(self):
        rng = np.random.default_rng(41)
        groups = [rng.normal(m, 0.5, size=6).tolist() for m in (0.0, 0.3)]
        f_base, _ = anova_oneway(groups)
        scaled = [[7.5 * v - 2.0 for v in g] for g in groups]
        f_scaled, _ = anova_oneway(scaled)
        assert f_scaled == pytest.approx(f_base, rel=1e-9)

    def test_needs_two_groups(self):
        with pytest.raises(MetadataError):
            anova_oneway([[1.0, 2.0]])

    def test_needs_two_samples_per_group(self):
        with pytest.raises(MetadataError, match="at least 2"):
            anova_oneway([[1.0, 2.0], [3.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(MetadataError):
            anova_oneway([[1.0, math.nan], [3.0, 4.0]])


class TestCosineFalloff:
    def test_perfect_cosine_response_scores_zero(self):
        e0 = np.array([1.0, 0.9, 0.8, 0.7, 0.6])
        measured = [(0.0, e0)] + [
            (angle, e0 * math.cos(math.radians(angle)))
            for angle in (15.0, 30.0, 45.0, 60.0)]
        np.testing.assert_allclose(cosine_falloff_check(measured), 0.0,
                                   atol=1e-15)

    def test_flat_response_at_sixty_degrees(self):
        e0 = np.array([1.0, 2.0, 0.5, 1.5, 1.0])
        rms = cosine_falloff_check([(0.0, e0), (60.0, e0)])
        np.testing.assert_allclose(rms, e0 * 0.5, rtol=1e-12)

    def test_reference_only_scores_zero(self):
        out = cosine_falloff_check([(0.0, np.ones(5))])
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_missing_reference_rejected(self):
        with pytest.raises(MetadataError, match="0-degree"):
            cosine_falloff_check([(30.0, np.ones(5))])

    def test_inconsistent_band_counts_rejected(self):
        with pytest.raises(MetadataError, match="band counts"):
            cosine_falloff_check([(0.0, np.ones(5)), (30.0, np.ones(4))])

    def test_empty_rejected(self):
        with pytest.raises(MetadataError):
            cosine_falloff_check([])

    def test_rms_combines_angles(self):
        e0 = np.array([1.0])
        measured = [(0.0, e0), (60.0, e0 * 0.6), (60.0, e0 * 0.4)]
        # Both readings deviate from cos(60) ~ 0.5 by 0.1 in magnitude.
        np.testing.assert_allclose(cosine_falloff_check(measured), 0.1,
                                   rtol=1e-12)


class TestSampleCsv:
    def _samples(self):
        rng = np.random.default_rng(43)
        return [make_sample(float(rng.normal(0, 0.02)), method=m,
                            band_index=b, weather=w)
                for m in ("elm1", "aarr") for b in (1, 5)
                for w in ("sunny", "partly-cloudy")]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "samples.csv"
        samples = self._samples()
        write_samples(path, samples)
        assert read_samples(path) == samples

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("target_id,band_index\na,1\n")
        with pytest.raises(MetadataError, match="columns"):
            read_samples(path)

    def test_bad_row_names_the_line(self, tmp_path):
        path = tmp_path / "samples.csv"
        for row in ("t2,9,sunny,225,aarr,0.1,0.2", "g,1,sunny"):
            write_samples(path, self._samples()[:1])
            path.write_text(path.read_text() + row + "\n")
            with pytest.raises(MetadataError, match=r"samples\.csv:3"):
                read_samples(path)
            # csv.DictReader skips blank lines; the line number must not.
            header, first, *rest = path.read_text().splitlines(True)
            path.write_text("".join([header, "\n", "\n", first, *rest]))
            with pytest.raises(MetadataError, match=r"samples\.csv:5:"):
                read_samples(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples(path, [])
        with pytest.raises(MetadataError, match="no sample rows"):
            read_samples(path)

    def test_report_csv_layout(self, tmp_path):
        path = tmp_path / "report.csv"
        reports = aggregate(self._samples(), group_by=("method",))
        write_reports(path, reports)
        lines = path.read_text().splitlines()
        assert lines[0] == \
            "method,mean_signed,std_signed,mean_absolute,std_absolute,n"
        assert len(lines) == 1 + len(reports)
        first = lines[1].split(",")
        assert first[0] == "aarr"
        assert float(first[1]) == reports[0].mean_signed
