"""Spectral curve handling, RSR reduction and band integration."""

from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from suascal import datasets
from suascal.errors import CurveError, SuascalError
from suascal.rsr import (MonochromatorRun, SpectralCurve, band_effective,
                         band_weights, is_degenerate, normalize_counts,
                         peak_normalize, read_spectral_curve,
                         relative_response, union_grid,
                         write_spectral_curve)


def make_run(wavelengths, counts, power=None, gain=1.0, exposure=1.0):
    power = [1.0] * len(wavelengths) if power is None else power
    return MonochromatorRun(wavelengths_nm=wavelengths, mean_counts=counts,
                            power_w=power, gain=gain, exposure_us=exposure,
                            band_index=1)


class TestSpectralCurve:
    def test_rejects_unsorted_wavelengths(self):
        with pytest.raises(CurveError):
            SpectralCurve([500.0, 499.0, 501.0], [1.0, 1.0, 1.0])

    def test_rejects_single_sample(self):
        with pytest.raises(CurveError):
            SpectralCurve([500.0], [1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(CurveError):
            SpectralCurve([500.0, 510.0], [1.0, np.nan])

    @given(st.floats(max_value=0.0, allow_infinity=False))
    # The wavelengths of the union-grid counterexample
    # [[0.5] * 7 + [0.0], [-0.0]]: no curve can be tabulated on them.
    @example(0.0)
    @example(-0.0)
    def test_rejects_non_positive_wavelengths(self, wavelength):
        with pytest.raises(CurveError,
                           match=r"^wavelengths must be positive, got "):
            SpectralCurve([wavelength, 0.5], [1.0, 1.0])

    def test_non_positive_wavelength_in_a_file_names_it(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("wavelength_nm,value\n0.0,1.0\n0.5,1.0\n")
        with pytest.raises(CurveError,
                           match=r"curve\.csv: wavelengths must be positive, "
                                 r"got 0\.0 nm"):
            read_spectral_curve(path)

    def test_interpolation_clamps_at_edges(self):
        curve = SpectralCurve([500.0, 510.0], [1.0, 3.0])
        out = curve.interpolate(np.array([490.0, 505.0, 520.0]))
        assert out == pytest.approx([1.0, 2.0, 3.0])


class TestNormalizeCounts:
    def test_unit_divisor(self):
        out = normalize_counts(make_run([500.0, 510.0], [100.0, 100.0]))
        assert out.values == pytest.approx([100.0, 100.0])

    def test_gain_exposure_divisor(self):
        out = normalize_counts(make_run([500.0, 510.0], [100.0, 100.0],
                                        gain=2.0, exposure=500.0))
        assert out.values == pytest.approx([0.1, 0.1])

    def test_zero_counts_stay_zero(self):
        out = normalize_counts(make_run([500.0, 510.0], [0.0, 50.0]))
        assert out.values[0] == 0.0

    def test_gain_must_be_supported(self):
        with pytest.raises(CurveError):
            make_run([500.0, 510.0], [1.0, 1.0], gain=3.0)


class TestRelativeResponse:
    def test_counts_proportional_to_power_vanish(self):
        # u(lambda) constant: the shift removes everything.
        norm = SpectralCurve([500.0, 510.0, 520.0], [2.0, 4.0, 6.0])
        power = SpectralCurve([500.0, 510.0, 520.0], [1.0, 2.0, 3.0])
        out = relative_response(norm, power)
        assert np.all(out.values == 0.0)
        assert is_degenerate(out)

    def test_shift_and_scale(self):
        norm = SpectralCurve([500.0, 510.0, 520.0], [0.0, 0.2, 1.0])
        power = SpectralCurve([500.0, 510.0, 520.0], [1.0, 1.0, 1.0])
        out = relative_response(norm, power)
        assert out.values == pytest.approx([0.0, 0.0, 0.798])

    def test_all_zero_sweep_is_degenerate(self):
        norm = SpectralCurve([500.0, 510.0], [0.0, 0.0])
        power = SpectralCurve([500.0, 510.0], [1.0, 1.0])
        out = relative_response(norm, power)
        assert is_degenerate(out)

    def test_grid_mismatch_rejected(self):
        norm = SpectralCurve([500.0, 510.0], [1.0, 2.0])
        power = SpectralCurve([500.0, 511.0], [1.0, 1.0])
        with pytest.raises(CurveError):
            relative_response(norm, power)

    def test_nonpositive_power_rejected(self):
        norm = SpectralCurve([500.0, 510.0], [1.0, 2.0])
        power = SpectralCurve([500.0, 510.0], [1.0, 0.0])
        with pytest.raises(CurveError):
            relative_response(norm, power)

    def test_shift_scale_is_configurable(self):
        norm = SpectralCurve([500.0, 510.0], [0.5, 1.0])
        power = SpectralCurve([500.0, 510.0], [1.0, 1.0])
        out = relative_response(norm, power, shift_scale=1.0)
        assert out.values == pytest.approx([0.0, 0.5])


class TestPeakNormalize:
    def test_divides_by_maximum(self):
        curve = SpectralCurve([1.0, 2.0, 3.0], [0.0, 2.0, 4.0])
        out = peak_normalize(curve)
        assert list(out.values) == [0.0, 0.5, 1.0]

    def test_idempotent(self):
        curve = peak_normalize(SpectralCurve([1.0, 2.0], [0.25, 0.5]))
        again = peak_normalize(curve)
        assert np.array_equal(curve.values, again.values)

    def test_maximum_is_exactly_one(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            values = rng.uniform(0.0, 7.3, size=16)
            values[rng.integers(16)] = rng.uniform(7.4, 20.0)
            out = peak_normalize(SpectralCurve(np.arange(1.0, 17.0), values))
            assert out.values.max() == 1.0

    def test_single_spike(self):
        out = peak_normalize(SpectralCurve([1.0, 2.0, 3.0], [0.0, 5.0, 0.0]))
        assert list(out.values) == [0.0, 1.0, 0.0]

    def test_rejects_no_positive_values(self):
        with pytest.raises(CurveError):
            peak_normalize(SpectralCurve([1.0, 2.0], [0.0, 0.0]))


def riemann_band_effective(spectrum, rsr, step=0.01):
    """Independent dense-midpoint oracle for band_effective."""
    lo, hi = rsr.wavelengths_nm[0], rsr.wavelengths_nm[-1]
    grid = np.arange(lo + step / 2, hi, step)
    weights = rsr.interpolate(grid)
    values = spectrum.interpolate(grid)
    return float((values * weights).sum() / weights.sum())


def union_grid_trapezoid(spectrum, rsr):
    """band_effective as a direct integration: both curves interpolated onto
    the union grid inside the RSR support, then the trapezoid rule."""
    lo, hi = rsr.support
    inner = spectrum.wavelengths_nm
    inner = inner[(inner > lo) & (inner < hi)]
    grid = np.union1d(rsr.wavelengths_nm, inner)
    r = rsr.interpolate(grid)
    s = spectrum.interpolate(grid)
    return float(np.trapezoid(r * s, grid) / np.trapezoid(r, grid))


@st.composite
def rsr_curves(draw):
    """A response on an irregular grid with at least one positive sample."""
    steps = draw(st.lists(st.floats(0.01, 40.0), min_size=1, max_size=30))
    start = draw(st.floats(400.0, 800.0))
    wl = start + np.concatenate([[0.0], np.cumsum(steps)])
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                           min_size=wl.size, max_size=wl.size))
    assume(max(values) > 0)
    return SpectralCurve(wl, values)


@st.composite
def spectral_grids(draw, lo, hi):
    """A strictly increasing grid from ``lo`` to ``hi`` with random
    interior samples."""
    inner = draw(st.lists(st.floats(lo, hi), max_size=60))
    return np.unique(np.concatenate([[lo, hi], inner]))


def positive_values(size):
    return st.lists(st.floats(0.01, 100.0), min_size=size, max_size=size)


class TestBandWeightsProperties:
    @given(st.data())
    def test_matches_union_grid_trapezoid(self, data):
        rsr = data.draw(rsr_curves())
        lo, hi = rsr.support
        margin = st.one_of(st.just(0.0), st.floats(0.0, 50.0))
        wl = data.draw(spectral_grids(lo - data.draw(margin),
                                      hi + data.draw(margin)))
        spectrum = SpectralCurve(wl, data.draw(positive_values(wl.size)))
        got = band_effective(spectrum, rsr)
        assert got == band_weights(wl, rsr) @ spectrum.values
        assert got == pytest.approx(union_grid_trapezoid(spectrum, rsr),
                                    rel=1e-12)

    @given(st.data())
    def test_linear_in_spectrum(self, data):
        rsr = data.draw(rsr_curves())
        lo, hi = rsr.support
        wl = data.draw(spectral_grids(lo - 5.0, hi + 5.0))
        v1 = np.array(data.draw(positive_values(wl.size)))
        v2 = np.array(data.draw(positive_values(wl.size)))
        a = data.draw(st.floats(0.01, 10.0))
        b = data.draw(st.floats(0.01, 10.0))
        combo = band_effective(SpectralCurve(wl, a * v1 + b * v2), rsr)
        parts = a * band_effective(SpectralCurve(wl, v1), rsr) + \
            b * band_effective(SpectralCurve(wl, v2), rsr)
        assert combo == pytest.approx(parts, rel=1e-12)

    @given(st.data())
    def test_grid_short_of_rsr_support_rejected(self, data):
        rsr = data.draw(rsr_curves())
        lo, hi = rsr.support
        short = data.draw(st.floats(1e-3, 100.0))
        if data.draw(st.booleans()):
            wl = data.draw(spectral_grids(lo + short, hi + short))
        else:
            wl = data.draw(spectral_grids(lo - short, hi - short))
        with pytest.raises(CurveError, match="cover|overlap"):
            band_weights(wl, rsr)


class TestUnionGrid:
    # Grids of positive wavelengths only, as SpectralCurve accepts: on a
    # grid with both 0.0 and -0.0, union_grid and np.union1d keep
    # different zeros.
    @given(st.lists(st.lists(st.sampled_from([0.5, 1.0, 2.0])
                             | st.floats(0.0, 1e3, exclude_min=True),
                             min_size=1, max_size=8), min_size=1, max_size=4))
    def test_matches_numpy_union1d(self, grids):
        grids = [np.sort(np.array(g)) for g in grids]
        expected = np.unique(grids[0])
        for grid in grids[1:]:
            expected = np.union1d(expected, grid)
        assert union_grid(*grids).tobytes() == expected.tobytes()


class TestBandEffective:
    def test_constant_spectrum_passes_through(self):
        spectrum = SpectralCurve([400.0, 900.0], [3.25, 3.25])
        rsr = SpectralCurve([500.0, 550.0, 600.0], [0.2, 1.0, 0.2])
        assert band_effective(spectrum, rsr) == pytest.approx(3.25)

    def test_linear_ramp_over_boxcar(self):
        wl = np.arange(490.0, 611.0)
        spectrum = SpectralCurve(wl, 0.001 * (wl - 500.0))
        rsr = SpectralCurve([500.0, 600.0], [1.0, 1.0])
        assert band_effective(spectrum, rsr) == pytest.approx(0.05)

    def test_bundled_bands_on_unit_spectrum(self):
        flat = SpectralCurve([330.0, 1200.0], [1.0, 1.0])
        for band, rsr in datasets.bundled_rsr_set().items():
            assert band_effective(flat, rsr) == pytest.approx(1.0), band

    def test_agrees_with_dense_riemann_oracle(self):
        # Tabulation must be fine enough that the product of the two
        # piecewise-linear interpolants (quadratic between knots, which the
        # trapezoid rule only approximates) contributes < 1e-6.
        rng = np.random.default_rng(42)
        for _ in range(20):
            center = rng.uniform(500.0, 800.0)
            width = rng.uniform(10.0, 40.0)
            wl_rsr = np.linspace(center - 2 * width, center + 2 * width, 2001)
            rsr = SpectralCurve(
                wl_rsr, np.exp(-4 * np.log(2) * ((wl_rsr - center) / width) ** 2))
            wl_spec = np.linspace(400.0, 900.0, 5001)
            spectrum = SpectralCurve(
                wl_spec,
                1.0 + 0.5 * np.sin(wl_spec / rng.uniform(30.0, 90.0))
                + 0.001 * (wl_spec - 400.0))
            got = band_effective(spectrum, rsr)
            want = riemann_band_effective(spectrum, rsr, step=0.0005)
            assert got == pytest.approx(want, rel=1e-6)

    def test_linearity_in_spectrum(self):
        wl = np.linspace(400.0, 900.0, 101)
        s1 = SpectralCurve(wl, 1.0 + np.sin(wl / 50.0))
        s2 = SpectralCurve(wl, 2.0 + np.cos(wl / 70.0))
        combo = SpectralCurve(wl, 0.3 * s1.values + 1.7 * s2.values)
        rsr = datasets.bundled_rsr(3)
        lhs = band_effective(combo, rsr)
        rhs = 0.3 * band_effective(s1, rsr) + 1.7 * band_effective(s2, rsr)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_invariant_under_rsr_scaling(self):
        wl = np.linspace(400.0, 900.0, 101)
        spectrum = SpectralCurve(wl, 1.0 + wl / 1000.0)
        rsr = datasets.bundled_rsr(2)
        scaled = SpectralCurve(rsr.wavelengths_nm, rsr.values * 37.5)
        assert band_effective(spectrum, rsr) == \
            pytest.approx(band_effective(spectrum, scaled), rel=1e-12)

    def test_weighted_mean_bound(self):
        rng = np.random.default_rng(3)
        rsr = datasets.bundled_rsr(5)
        lo, hi = rsr.support
        for _ in range(10):
            wl = np.linspace(330.0, 1200.0, 301)
            spectrum = SpectralCurve(wl, rng.uniform(0.1, 2.0, wl.size))
            value = band_effective(spectrum, rsr)
            inside = (wl >= lo - 5) & (wl <= hi + 5)
            assert spectrum.values[inside].min() <= value
            assert value <= spectrum.values[inside].max()

    def test_spectrum_must_cover_rsr_support(self):
        spectrum = SpectralCurve([500.0, 600.0], [1.0, 1.0])
        rsr = SpectralCurve([550.0, 650.0], [1.0, 1.0])
        with pytest.raises(CurveError):
            band_effective(spectrum, rsr)

    def test_zero_integral_rsr_rejected(self):
        spectrum = SpectralCurve([400.0, 900.0], [1.0, 1.0])
        rsr = SpectralCurve([500.0, 600.0], [0.0, 0.0])
        with pytest.raises(CurveError):
            band_effective(spectrum, rsr)


class TestCurveCsv:
    def test_round_trip(self, tmp_path):
        curve = SpectralCurve([475.0, 500.5, 533.25], [0.125, 1.0, 0.0625])
        path = tmp_path / "curve.csv"
        write_spectral_curve(path, curve)
        back = read_spectral_curve(path)
        assert np.array_equal(back.wavelengths_nm, curve.wavelengths_nm)
        assert np.array_equal(back.values, curve.values)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("500,1.0\n510,2.0\n")
        with pytest.raises(CurveError):
            read_spectral_curve(path)

    def test_non_numeric_row_is_an_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wavelength_nm,value\n500,1.0\n510,oops\n")
        with pytest.raises(CurveError):
            read_spectral_curve(path)

    @pytest.mark.parametrize("name, content", [
        ("missing.csv", None),
        ("nul\x00.csv", None),
        ("latin1.csv", "wavelength_nm,value\n500,1.0\n# \xb5m\n".encode(
            "latin-1")),
    ], ids=["missing", "nul-in-path", "not-utf8"])
    def test_unreadable_file_is_a_curve_error(self, tmp_path, name, content):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(CurveError, match="cannot read"):
            read_spectral_curve(path)

    @example(data=(b"wavelength_nm,value\n", b"1," + b"9" * 200_000, b""))
    @given(data=st.tuples(
        st.sampled_from([b"", b"wavelength_nm,value\n",
                         b"wavelength_nm,value\n500,1\n"]),
        st.lists(st.sampled_from([b"1", b"-2.5", b"nan", b"inf", b"1e999",
                                  b"x", b",", b" ", b"\n", b"\r", b'"',
                                  b"\xff", b"\x00"]),
                 max_size=16).map(b"".join),
        st.binary(max_size=16)))
    def test_any_bytes_read_or_raise_a_suascal_error(self, tmp_path_factory,
                                                     data):
        path = tmp_path_factory.getbasetemp() / "arbitrary.csv"
        path.write_bytes(b"".join(data))
        try:
            curve = read_spectral_curve(path)
        except SuascalError as exc:
            assert str(exc).startswith(str(path))
            return
        assert curve.wavelengths_nm.shape == curve.values.shape

    def test_header_without_data_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("wavelength_nm,value\n")
        with pytest.raises(CurveError, match=r"curve\.csv: .*two samples"):
            read_spectral_curve(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("wavelength_nm,value\n500,0.01\n510\n")
        with pytest.raises(CurveError, match=r"curve\.csv:3: malformed row"):
            read_spectral_curve(path)

    def test_malformed_row_names_its_line_after_a_multiline_field(
            self, tmp_path):
        # The quoted field spans lines 2-3, so the bad row is on line 4.
        path = tmp_path / "ml.csv"
        path.write_text('wavelength_nm,value\n"500\n",1\n510,x\n')
        with pytest.raises(CurveError, match=r"ml\.csv:4: malformed row"):
            read_spectral_curve(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("wavelength_nm,value\n500,nan\n600,inf\n")
        with pytest.raises(CurveError, match=r"curve\.csv: .*non-finite"):
            read_spectral_curve(path)


class TestBundledData:
    def test_five_bands_peak_at_one(self):
        rsrs = datasets.bundled_rsr_set()
        assert sorted(rsrs) == [1, 2, 3, 4, 5]
        for rsr in rsrs.values():
            assert rsr.values.max() == 1.0

    def test_band_centers_ordered_blue_to_nir(self):
        centers = []
        for band in range(1, 6):
            rsr = datasets.bundled_rsr(band)
            centers.append(rsr.wavelengths_nm[np.argmax(rsr.values)])
        assert centers == sorted(centers)
        assert 470.0 < centers[0] < 480.0
        assert 835.0 < centers[4] < 845.0

    def test_ground_reference_grass_bands(self):
        table = datasets.ground_reference_bands()
        grass = table["grass"]
        # Red and NIR drive the NDVI fixture; pin them tightly.
        assert grass[2] == pytest.approx(0.0264, abs=1e-12)
        assert grass[4] == pytest.approx(0.4912, abs=1e-12)

    @pytest.mark.parametrize("filename", [
        *(f"rsr_{name}.csv" for name in datasets.BAND_NAMES.values()),
        "solar_exoatmospheric.csv",
        *(f"target_{name}.csv" for name in datasets.TARGET_NAMES)])
    def test_bundled_curve_parses_as_the_csv_reader_does(self, filename):
        curve = datasets._read_bundled_curve(filename)
        ref = resources.files("suascal.data").joinpath(filename)
        with resources.as_file(ref) as path:
            expected = read_spectral_curve(path)
        assert curve.wavelengths_nm.tobytes() == \
            expected.wavelengths_nm.tobytes()
        assert curve.values.tobytes() == expected.values.tobytes()

    def test_solar_spectrum_is_positive_everywhere(self):
        solar = datasets.bundled_solar_spectrum()
        assert solar.wavelengths_nm[0] == 330.0
        assert solar.wavelengths_nm[-1] == 1200.0
        assert solar.values.min() > 0.0
