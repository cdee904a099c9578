"""Digital-count to radiance conversion and its factor models."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from suascal.errors import MetadataError
from helpers import radiance_to_counts
from suascal.radiance import (ROW_BLOCK, RadiometricMetadata, RawImage,
                              RowModel, VignetteModel, VignetteStore,
                              convert_band, dc_to_radiance, row_factors,
                              vignette_map)
from suascal.reflectance import line_map

FLAT_VIGNETTE = VignetteModel(center_x=0.0, center_y=0.0,
                              coefficients=(0.0,) * 6)


def make_meta(**overrides):
    base = dict(a1=1.0, a2=0.0, a3=0.0, gain=1.0, exposure_us=1.0,
                dark_level=0.0, vignette=FLAT_VIGNETTE, bits_per_pixel=16)
    base.update(overrides)
    return RadiometricMetadata(**base)


def make_raw(pixels, band_index=1, bits=16):
    pixels = np.asarray(pixels, dtype=np.uint16)
    return RawImage(band_index=band_index, pixels=pixels, bits_per_pixel=bits)


class TestVignetteFactor:
    def test_center_pixel_is_unity(self):
        model = VignetteModel(640.0, 480.0, (0.2, 0.1, 0.0, 0.0, 0.0, 0.0))
        assert vignette_map(model, 641, 481)[480, 640] == 1.0

    def test_zero_coefficients_are_unity_everywhere(self):
        assert np.all(vignette_map(FLAT_VIGNETTE, 1235, 88) == 1.0)

    def test_hand_evaluated_polynomial(self):
        model = VignetteModel(640.0, 480.0, (0.1, 0.0, 0.0, 0.0, 0.0, 0.0))
        # pixel (643, 484): r = sqrt(9 + 16) = 5, k = 1 + 0.5, V = 1/1.5
        assert vignette_map(model, 644, 485)[484, 643] == \
            pytest.approx(0.666667, abs=1e-6)

    def test_radial_symmetry(self):
        model = VignetteModel(100.0, 100.0,
                              (1e-3, -2e-5, 3e-7, 0.0, 0.0, 0.0))
        v = vignette_map(model, 105, 105)
        reference = v[104, 103]
        for dx, dy in ((-3, 4), (3, -4), (-3, -4), (4, 3)):
            assert v[100 + dy, 100 + dx] == pytest.approx(reference,
                                                          rel=1e-15)

    def test_nonpositive_k_is_a_metadata_error(self):
        model = VignetteModel(0.0, 0.0, (-0.5, 0.0, 0.0, 0.0, 0.0, 0.0))
        with pytest.raises(MetadataError, match=r"pixel \(4, 4\)"):
            vignette_map(model, 5, 5)  # k = 1 - 0.5 * sqrt(32) at (4, 4)

    def test_coefficient_count_enforced(self):
        with pytest.raises(MetadataError):
            VignetteModel(0.0, 0.0, (0.1, 0.2))

    @given(height=st.sampled_from([1, ROW_BLOCK - 1, ROW_BLOCK + 1,
                                   3 * ROW_BLOCK + 1]),
           width=st.integers(1, 9),
           center=st.tuples(*[st.integers(-20, 120).map(float)
                              | st.floats(-20.0, 120.0)
                              | st.sampled_from([1e308, -1e308])] * 2),
           coefficients=st.lists(st.floats(-0.05, 0.05)
                                 | st.sampled_from([0.0, -0.0, 1e300,
                                                    -1e300]),
                                 min_size=6, max_size=6))
    # Pixels (0, 0), (4, 0), (0, ROW_BLOCK) and (4, ROW_BLOCK) tie for the
    # smallest k, rows 0 and ROW_BLOCK in different row blocks.
    @example(height=ROW_BLOCK + 1, width=5, center=(2.0, ROW_BLOCK / 2),
             coefficients=[-0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
    # The smallest k is in the second row block, with a non-positive k
    # in the first.
    @example(height=ROW_BLOCK + 1, width=5, center=(2.0, 10.0),
             coefficients=[-0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
    # k = 0 at row 149, and k is infinite, so the map 0, in the first
    # block: the error names the pixel of k, not the earlier 0 of the map.
    @example(height=3 * ROW_BLOCK + 1, width=1, center=(0.0, 150.0),
             coefficients=[-1.0, 0.0, 0.0, 0.0, -1e300, 1e300])
    def test_row_blocks_match_the_whole_frame_formula(self, height, width,
                                                      center, coefficients):
        model = VignetteModel(*center, coefficients)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                expected = whole_frame_vignette(model, width, height)
            except MetadataError as exc:
                expected = exc
            for build in (vignette_map, shared_vignette):
                if isinstance(expected, MetadataError):
                    with pytest.raises(MetadataError) as raised:
                        build(model, width, height)
                    assert str(raised.value) == str(expected)
                else:
                    got = build(model, width, height)
                    assert got.tobytes() == expected.tobytes()


def shared_vignette(model, width, height):
    """``model``'s map through a :class:`VignetteStore` planned for two
    uses, which both get the one map it builds."""
    store = VignetteStore()
    shape = (height, width)
    keys = [store.plan(model, shape, make_meta(vignette=model))
            for _ in range(2)]
    maps = []
    with np.errstate(over="ignore", invalid="ignore"):
        for key in keys:
            try:
                maps.append(store.vignette(key, shape))
            finally:
                store.release(key)
    assert store.maps_held == 0
    first, second = maps
    assert first.map is second.map
    return first.map


def whole_frame_vignette(model, width, height):
    """``V = 1/k(r)`` as one whole-frame expression: the reference that the
    row-blocked :func:`vignette_map` must match bit for bit, error
    included."""
    x = np.arange(width, dtype=np.float64) - model.center_x
    y = np.arange(height, dtype=np.float64) - model.center_y
    r = np.hypot(x[np.newaxis, :], y[:, np.newaxis])
    k = np.zeros_like(r)
    for c in model.coefficients[::-1]:
        k = (k + c) * r
    k = 1.0 + k
    if np.any(k <= 0):
        iy, ix = np.unravel_index(int(np.argmin(k)), k.shape)
        raise MetadataError(
            f"vignette polynomial k={k[iy, ix]:.6g} is not positive at pixel "
            f"({ix}, {iy})")
    return 1.0 / k


class TestRowCorrection:
    def test_vanishing_coefficients(self):
        assert np.all(row_factors(make_meta(), 124) == 1.0)

    def test_exposure_independent_term(self):
        meta = make_meta(a3=0.001, exposure_us=1000.0)
        assert row_factors(meta, 101)[100] == pytest.approx(1 / 1.1)

    def test_exposure_scaled_term(self):
        meta = make_meta(a2=100.0, exposure_us=100000.0)
        assert row_factors(meta, 101)[100] == pytest.approx(1 / 1.1)

    def test_nonpositive_denominator_rejected(self):
        meta = make_meta(a3=-0.5)
        # 1 - 0.5 * y is non-positive from row 2 and smallest at row 100
        with pytest.raises(MetadataError, match="row 100"):
            row_factors(meta, 101)


class TestMetadataValidation:
    @pytest.mark.parametrize("gain", [1.0, 2.0, 4.0, 8.0])
    def test_supported_gains(self, gain):
        assert make_meta(gain=gain).gain == gain

    @pytest.mark.parametrize("gain", [0.0, 3.0, 16.0, -1.0])
    def test_unsupported_gains(self, gain):
        with pytest.raises(MetadataError):
            make_meta(gain=gain)

    def test_sub_microsecond_exposure_rejected(self):
        # An exposure below 1 usually means someone passed seconds.
        with pytest.raises(MetadataError):
            make_meta(exposure_us=0.0005)

    def test_negative_dark_level_rejected(self):
        with pytest.raises(MetadataError):
            make_meta(dark_level=-1.0)

    def test_nonpositive_a1_rejected(self):
        with pytest.raises(MetadataError):
            make_meta(a1=0.0)


class TestRawImage:
    def test_counts_must_fit_bit_depth(self):
        with pytest.raises(MetadataError):
            make_raw([[4096, 0]], bits=12)

    def test_float_pixels_rejected(self):
        with pytest.raises(MetadataError):
            RawImage(band_index=1, pixels=np.zeros((1, 2), dtype=np.float64),
                     bits_per_pixel=16)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 1)])
    def test_pixels_must_be_2d(self, shape):
        with pytest.raises(MetadataError, match="2-D"):
            RawImage(band_index=1, pixels=np.ones(shape, dtype=np.uint16))


class TestDcToRadiance:
    def test_dark_level_pixel_maps_to_zero(self):
        out = dc_to_radiance(make_raw([[100, 200]]),
                             make_meta(dark_level=100.0))
        assert out.pixels[0, 0] == 0.0
        assert out.clamped_pixel_count == 0

    def test_identity_metadata_scales_by_bit_depth(self):
        out = dc_to_radiance(make_raw([[2048]]), make_meta())
        assert out.pixels[0, 0] == pytest.approx(0.03125)

    def test_below_dark_level_clamps_and_counts(self):
        out = dc_to_radiance(make_raw([[50, 200]]),
                             make_meta(dark_level=100.0))
        assert out.pixels[0, 0] == 0.0
        assert out.pixels[0, 1] > 0.0
        assert out.clamped_pixel_count == 1

    def test_linearity_without_dark_level(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 8192, size=(16, 24)).astype(np.uint16)
        meta = make_meta(a1=2.5, gain=4.0, exposure_us=750.0)
        single = dc_to_radiance(make_raw(counts), meta)
        scaled = dc_to_radiance(make_raw(counts * 7), meta)
        np.testing.assert_allclose(scaled.pixels, 7.0 * single.pixels,
                                   rtol=1e-12)

    def test_monotone_in_counts(self):
        meta = make_meta(a1=3.0,
                         vignette=VignetteModel(
                             8.0, 8.0, (1e-4, 0.0, 1e-7, 0.0, 0.0, 0.0)),
                         a3=1e-5, dark_level=32.0)
        lo = dc_to_radiance(make_raw(np.full((16, 16), 100, np.uint16)), meta)
        hi = dc_to_radiance(make_raw(np.full((16, 16), 101, np.uint16)), meta)
        assert np.all(hi.pixels >= lo.pixels)

    def test_band_index_mismatch_rejected(self):
        meta = make_meta()
        object.__setattr__(meta, "band_index", 2)
        with pytest.raises(MetadataError):
            dc_to_radiance(make_raw([[1, 2]], band_index=1), meta)

    def test_output_is_double_precision(self):
        out = dc_to_radiance(make_raw([[2048]]), make_meta())
        assert out.pixels.dtype == np.float64

    def test_invalid_vignette_names_offending_pixel(self):
        # k goes negative far from center on a wide image.
        meta = make_meta(vignette=VignetteModel(
            0.0, 0.0, (-0.02, 0.0, 0.0, 0.0, 0.0, 0.0)))
        with pytest.raises(MetadataError, match=r"pixel"):
            dc_to_radiance(make_raw(np.zeros((2, 80), np.uint16)), meta)


class TestRoundTrip:
    def test_counts_recovered_within_half_dn(self):
        rng = np.random.default_rng(99)
        counts = rng.integers(0, 65536, size=(96, 128)).astype(np.uint16)
        meta = make_meta(
            a1=163.84, a2=0.2, a3=1e-5, gain=2.0, exposure_us=1234.0,
            dark_level=4096.0,
            vignette=VignetteModel(64.0, 48.0,
                                   (1e-4, -1e-6, 1e-8, 0.0, 0.0, 0.0)))
        radiance = dc_to_radiance(make_raw(counts), meta)
        recovered = radiance_to_counts(radiance, meta)
        clamped = counts.astype(np.float64) < meta.dark_level
        assert np.max(np.abs(recovered[~clamped] - counts[~clamped])) < 0.5


LENS = VignetteModel(61.5, 70.25, (1e-4, -1e-6, 1e-8, 0.0, 0.0, 0.0))


def reference_radiance(raw, meta):
    """The camera model as whole-frame maps, with nothing cached."""
    height, width = raw.pixels.shape
    flat = vignette_map(meta.vignette, width, height) * \
        row_factors(meta, height)[:, np.newaxis]
    scale = meta.a1 / (meta.gain * meta.exposure_us
                       * 2.0 ** meta.bits_per_pixel)
    radiance = flat * (raw.pixels.astype(np.float64) - meta.dark_level) * scale
    return np.maximum(radiance, 0.0)


class TestVignetteCache:
    """The per-run map store: one vignette map per (lens model, frame
    size), built on its first use, shared read-only and dropped after its
    last use."""

    # Taller than one row block, so the last block is a partial one.
    COUNTS = np.random.default_rng(11).integers(
        0, 65536, size=(150, 123)).astype(np.uint16)

    def test_matches_uncached_reference_exactly(self):
        store = VignetteStore()
        metas = [make_meta(a1=163.84, a2=a2, a3=1e-5, gain=gain,
                           exposure_us=exposure, dark_level=4096.5,
                           vignette=LENS)
                 for exposure, gain, a2 in ((1000.0, 1, 0.0), (250.0, 4, 0.3),
                                            (1000.0, 8, 2.0), (77.5, 2, 0.0),
                                            (1000.0, 1, 0.0))]
        raw = make_raw(self.COUNTS)
        keys = [store.plan(LENS, self.COUNTS.shape, meta) for meta in metas]
        for meta, key in zip(metas, keys):
            expected = reference_radiance(raw, meta)
            np.testing.assert_array_equal(dc_to_radiance(raw, meta).pixels,
                                          expected)
            shared = np.empty(self.COUNTS.shape)
            convert_band(raw, meta, out=shared,
                         vignette=store.vignette(key, self.COUNTS.shape))
            store.release(key)
            np.testing.assert_array_equal(shared, expected)
        assert store.maps_held == 0

    def test_mutating_a_result_leaves_later_conversions_alone(self):
        meta = make_meta(vignette=LENS, dark_level=10.0)
        raw = make_raw(self.COUNTS)
        first = dc_to_radiance(raw, meta)
        expected = first.pixels.copy()
        first.pixels[...] = -1.0
        np.testing.assert_array_equal(dc_to_radiance(raw, meta).pixels,
                                      expected)

    def test_cached_map_is_read_only(self):
        store = VignetteStore()
        key = store.plan(LENS, (40, 30), make_meta(vignette=LENS))
        vignette = store.vignette(key, (40, 30))
        assert not vignette.map.flags.writeable
        with pytest.raises(ValueError):
            vignette.map[0, 0] = 2.0
        np.testing.assert_array_equal(vignette.map, vignette_map(LENS, 30, 40))
        assert vignette.peak == vignette.map.max()
        store.release(key)

    def test_map_is_dropped_after_its_last_use(self):
        lenses = [VignetteModel(5.0 + i, 7.0, (1e-4 * i,) + (0.0,) * 5)
                  for i in range(3)]
        store = VignetteStore()
        keys = [store.plan(lens, (20, 20), make_meta(vignette=lens))
                for lens in lenses for _ in "ab"]
        first = store.vignette(keys[0], (20, 20))
        assert store.vignette(keys[1], (20, 20)) is first
        store.release(keys[0])
        assert store.maps_held == 1
        store.release(keys[1])
        # Two maps of this shape are still to come: the storage waits.
        assert store.maps_held == 1
        second = store.vignette(keys[2], (20, 20))
        assert np.shares_memory(first.map, second.map)
        np.testing.assert_array_equal(second.map,
                                      vignette_map(lenses[1], 20, 20))
        for key in keys[2:4]:
            store.release(key)
        # The last lens is never used; its uses are given back all the same.
        for key in keys[4:]:
            store.release(key)
        assert store.maps_held == 0

    def test_frame_of_another_shape_gets_its_own_map(self):
        store = VignetteStore()
        key = store.plan(LENS, (40, 30), make_meta(vignette=LENS))
        vignette = store.vignette(key, (41, 30))
        np.testing.assert_array_equal(vignette.map, vignette_map(LENS, 30, 41))
        assert store.maps_held == 0
        store.release(key)

    def test_bad_map_fails_every_use(self):
        lens = VignetteModel(0.0, 0.0, (-0.5,) + (0.0,) * 5)
        store = VignetteStore()
        keys = [store.plan(lens, (5, 5), make_meta(vignette=lens))
                for _ in range(2)]
        for key in keys:
            with pytest.raises(MetadataError, match=r"pixel \(4, 4\)"):
                store.vignette(key, (5, 5))
            store.release(key)
        assert store.maps_held == 0


@st.composite
def held_row_cases(draw):
    """A frame up to three row blocks tall, a row model that
    :func:`row_factors` may reject, the rows to convert and whether they
    go into an ``out`` plane."""
    bits = draw(st.integers(8, 16))
    height = draw(st.integers(1, 2 * ROW_BLOCK + 3))
    width = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    counts = np.random.default_rng(seed).integers(
        0, 2 ** bits, size=(height, width), dtype=np.uint16)
    meta = make_meta(
        a1=draw(st.floats(1e-3, 1e3)),
        a2=draw(st.floats(-2.0, 10.0)),
        a3=draw(st.floats(-0.02, 1e-3)),
        gain=draw(st.sampled_from([1, 2, 4, 8])),
        exposure_us=draw(st.floats(1.0, 1e5)),
        dark_level=draw(st.floats(0.0, float(2 ** bits))),
        bits_per_pixel=bits,
        vignette=VignetteModel(
            draw(st.floats(-5.0, width + 5.0)),
            draw(st.floats(-5.0, height + 5.0)),
            draw(st.lists(st.floats(0.0, 1e-2), min_size=6, max_size=6))))
    rows = range(height)
    if draw(st.booleans()):
        start = draw(st.integers(0, height - 1))
        rows = range(start, draw(st.integers(start + 1, height)))
    return make_raw(counts, bits=bits), meta, rows, draw(st.booleans())


class TestStoreHeldRowFactors:
    """A store map whose planned uses share one row model holds ``V * R``
    for it; any other map holds ``V`` alone."""

    COUNTS = TestVignetteCache.COUNTS

    def test_map_of_one_row_model_holds_its_row_factors(self):
        height, width = self.COUNTS.shape
        meta = make_meta(vignette=LENS, a2=0.3, a3=1e-5, exposure_us=250.0)
        store = VignetteStore()
        keys = [store.plan(LENS, (height, width), meta) for _ in range(2)]
        vignette = store.vignette(keys[0], (height, width))
        assert vignette.rows == RowModel(0.3, 1e-5, 250.0)
        np.testing.assert_array_equal(
            vignette.map, vignette_map(LENS, width, height)
            * row_factors(meta, height)[:, np.newaxis])
        assert vignette.peak == vignette.map.max()
        raw = make_raw(self.COUNTS)
        plane = np.empty((height, width))
        convert_band(raw, meta, out=plane, vignette=vignette)
        np.testing.assert_array_equal(plane, reference_radiance(raw, meta))
        with pytest.raises(ValueError, match="holds the row model"):
            convert_band(raw, replace(meta, exposure_us=251.0),
                         vignette=vignette)
        for key in keys:
            store.release(key)
        assert store.maps_held == 0

    @pytest.mark.parametrize("other", [
        {"exposure_us": 1000.0}, {"a2": 0.25}, {"a3": 0.0}])
    def test_map_shared_by_two_row_models_holds_v_alone(self, other):
        shape = height, width = self.COUNTS.shape
        meta = make_meta(vignette=LENS, a2=0.3, a3=1e-5, exposure_us=250.0,
                         dark_level=4096.5, a1=163.84)
        metas = [meta, replace(meta, **other)]
        store = VignetteStore()
        keys = [store.plan(LENS, shape, m) for m in metas]
        assert keys[0] == keys[1]
        raw = make_raw(self.COUNTS)
        for m, key in zip(metas, keys):
            vignette = store.vignette(key, shape)
            assert vignette.rows is None
            np.testing.assert_array_equal(vignette.map,
                                          vignette_map(LENS, width, height))
            plane = np.empty(shape)
            convert_band(raw, m, out=plane, vignette=vignette)
            np.testing.assert_array_equal(plane, reference_radiance(raw, m))
            store.release(key)
        assert store.maps_held == 0

    def test_rejected_row_model_keeps_its_error_and_its_order(self):
        shape = self.COUNTS.shape
        raw = make_raw(self.COUNTS)
        bad_rows = make_meta(vignette=LENS, a3=-0.01)
        with pytest.raises(MetadataError, match="row correction") as expected:
            row_factors(bad_rows, shape[0])
        store = VignetteStore()
        key = store.plan(LENS, shape, bad_rows)
        vignette = store.vignette(key, shape)
        assert vignette.rows is None
        for given in (None, vignette):
            with pytest.raises(MetadataError) as raised:
                convert_band(raw, bad_rows, vignette=given)
            assert str(raised.value) == str(expected.value)
            # A band mismatch still comes first.
            with pytest.raises(MetadataError,
                               match="^metadata band 2 does not match"):
                convert_band(raw, replace(bad_rows, band_index=2),
                             vignette=given)
        store.release(key)
        # A bad lens still fails at its map, ahead of the row model.
        bad_lens = VignetteModel(0.0, 0.0, (-0.5,) + (0.0,) * 5)
        meta = replace(bad_rows, vignette=bad_lens)
        key = store.plan(bad_lens, shape, meta)
        for convert in (lambda: convert_band(raw, meta),
                        lambda: store.vignette(key, shape)):
            with pytest.raises(MetadataError,
                               match="^vignette polynomial k=.* pixel "
                                     r"\(122, 149\)$"):
                convert()
        store.release(key)
        assert store.maps_held == 0

    @given(held_row_cases(),
           st.none() | st.tuples(st.floats(1e-3, 1e3), st.floats(-1.0, 1.0)))
    def test_held_map_gives_the_standalone_bytes_and_counts(self, case,
                                                            line):
        raw, meta, rows, into_out = case
        post_map = None if line is None else line_map(*line)

        def outcome(vignette):
            chunks = []
            out = (np.empty((len(rows), raw.pixels.shape[1])) if into_out
                   else None)
            try:
                counts = convert_band(
                    raw, meta, lambda block: chunks.append(block.tobytes()),
                    post_map, rows, out, vignette)
            except MetadataError as exc:
                return str(exc)
            return counts, chunks, None if out is None else out.tobytes()

        store = VignetteStore()
        key = store.plan(meta.vignette, raw.pixels.shape, meta)
        vignette = store.vignette(key, raw.pixels.shape)
        try:
            row_factors(meta, raw.pixels.shape[0])
        except MetadataError:
            assert vignette.rows is None
        else:
            assert vignette.rows == (meta.a2, meta.a3, meta.exposure_us)
        assert outcome(vignette) == outcome(None)
        store.release(key)


@st.composite
def frames_and_metadata(draw):
    """A small raw frame and valid metadata whose maps stay positive."""
    bits = draw(st.integers(8, 16))
    height, width = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    counts = np.random.default_rng(seed).integers(
        0, 2 ** bits, size=(height, width), dtype=np.uint16)
    meta = make_meta(
        a1=draw(st.floats(1e-3, 1e3)),
        a2=draw(st.floats(0.0, 10.0)),
        a3=draw(st.floats(0.0, 1e-3)),
        gain=draw(st.sampled_from([1, 2, 4, 8])),
        exposure_us=draw(st.floats(1.0, 1e5)),
        dark_level=draw(st.floats(0.0, float(2 ** bits))),
        bits_per_pixel=bits,
        vignette=VignetteModel(
            draw(st.floats(-5.0, width + 5.0)),
            draw(st.floats(-5.0, height + 5.0)),
            draw(st.lists(st.floats(0.0, 1e-2), min_size=6, max_size=6))))
    return make_raw(counts, bits=bits), meta


class TestRoundTripProperty:
    @given(frames_and_metadata())
    # A zero count under a 5e-324 dark level: the negative signal
    # underflows to -0.0 once scaled, so it is written as +0.0 and, being
    # no radiance below zero, not counted as clamped.
    @example((make_raw(np.array([[0, 1]], dtype=np.uint16), bits=8),
              make_meta(dark_level=5e-324, bits_per_pixel=8)))
    def test_inverse_recovers_unclamped_counts(self, case):
        raw, meta = case
        radiance = dc_to_radiance(raw, meta)
        recovered = radiance_to_counts(radiance, meta)
        counts = raw.pixels.astype(np.float64)
        kept = counts >= meta.dark_level
        # Clamped: radiance below zero, formed in convert_band's order.
        height, width = counts.shape
        signal = (counts - meta.dark_level) * (
            vignette_map(meta.vignette, width, height)
            * row_factors(meta, height)[:, np.newaxis]) * (
            meta.a1 / (meta.gain * meta.exposure_us
                       * 2.0 ** meta.bits_per_pixel))
        assert radiance.clamped_pixel_count == np.count_nonzero(signal < 0)
        np.testing.assert_allclose(recovered[kept], counts[kept],
                                   rtol=1e-12, atol=1e-9)
