"""The blocked counts-to-plane pass against a plain whole-frame reference.

``convert`` and ``reflect`` convert each band-frame in blocks of
``ROW_BLOCK`` rows, from counts to the written float32 plane.  The
reference below does the same arithmetic the unblocked way, one numpy
expression per step over the whole frame in the camera model's operation
order, and every written byte must match it.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from suascal.cli import main
from suascal.errors import MetadataError, NoIlluminationError
from suascal.radiance import (FLOAT32_MAX, ROW_BLOCK, RadiometricMetadata,
                              RawImage, VignetteModel, convert_band,
                              dc_to_radiance, radiance_is_bounded)
from suascal.reflectance import (CalibrationImage, DLSRecord, ElmModel,
                                 PanelObservation, aarr_map, dls_correct,
                                 elm_map, extract_panel, fit_elm_1pt,
                                 fit_elm_2pt, irradiance_to_radiance,
                                 line_map, panel_band_reflectance,
                                 panel_means)
from suascal.rsr import SpectralCurve, write_spectral_curve
from suascal import datasets

#: Two full blocks and a partial one.
WIDTH, HEIGHT = 40, 2 * ROW_BLOCK + 11
BRIGHT_ROI = (3, 0, 10, 6)  # touches the first row
DARK_ROI = (22, HEIGHT - 5, 12, 5)  # touches the last row
BRIGHT_RHO, DARK_RHO = 0.45, 0.06
#: Saturated pixels straddle the first block boundary.
SATURATED = (slice(ROW_BLOCK - 2, ROW_BLOCK + 2), slice(30, 33))


def band_metadata(band):
    return {
        "a1": 150.0 + 10.0 * band, "a2": 0.05, "a3": 3e-6,
        "gain": 2, "exposure_us": 900.0 + 50.0 * band,
        "dark_level": 2500.5, "bits_per_pixel": 16,
        "vignette": {"center_x": 17.5, "center_y": 30.25,
                     "coefficients": [2e-4, 1e-5, 1e-8, 0.0, 0.0, 0.0]},
    }


def frame_counts(rng, calibration):
    """Counts from below the dark level (clamped) to the rail.  The dark
    panel is bright enough that the 2-point line crosses zero above the
    dark level, so clamped pixels map below zero."""
    counts = rng.integers(0, 60000, size=(HEIGHT, WIDTH))
    counts[SATURATED] = 65535
    if calibration:
        for (x, y, w, h), level in ((BRIGHT_ROI, 30000), (DARK_ROI, 12000)):
            counts[y:y + h, x:x + w] = level + rng.integers(
                -200, 200, size=(h, w))
    return counts.astype(np.uint16)


def dls_record(scale, timestamp):
    """Dim enough that AARR reflectance exceeds 1 on bright pixels."""
    return {"raw_irradiance": [0.09 * scale, 0.1 * scale, 0.11 * scale,
                               0.105 * scale, 0.08 * scale],
            "solar_elevation_deg": 55.0, "sun_sensor_angle_deg": 8.0,
            "timestamp": timestamp}


def write_pgm(path, counts):
    path.write_bytes(pgm_bytes(counts))


def pgm_bytes(counts):
    height, width = counts.shape
    return (f"P5\n{width} {height}\n65535\n".encode("ascii")
            + counts.astype(">u2").tobytes())


def build_flight(root, seed=3):
    """Two calibration frames and three field frames; returns the manifest
    path and the counts of every band-frame by ``(image_id, band)``."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    for name, rho in (("bright", BRIGHT_RHO), ("dark", DARK_RHO)):
        write_spectral_curve(root / f"panel_{name}.csv", SpectralCurve(
            np.array([330.0, 1200.0]), np.full(2, rho)))
    frames = {}
    images = []
    plan = [("cal_a", 1000.0, 1.0, True), ("cal_b", 2000.0, 1.3, True),
            ("field_1", 1001.0, 1.01, False), ("field_2", 1999.0, 1.29, False),
            ("field_3", 1500.0, 1.1, False)]
    for image_id, timestamp, illumination, calibration in plan:
        bands = []
        for band in range(1, 6):
            counts = frame_counts(rng, calibration)
            frames[image_id, band] = counts
            write_pgm(root / f"{image_id}_b{band}.pgm", counts)
            bands.append({"band_index": band,
                          "path": f"{image_id}_b{band}.pgm",
                          "metadata": band_metadata(band)})
        entry = {"image_id": image_id, "timestamp": timestamp,
                 "bands": bands, "dls": dls_record(illumination, timestamp)}
        if calibration:
            entry["calibration"] = {
                "bright": {"panel_id": "bright", "roi": list(BRIGHT_ROI)},
                "dark": {"panel_id": "dark", "roi": list(DARK_ROI)}}
        images.append(entry)
    manifest = {
        "flight": {"id": "blocked", "date": "2021-06-20", "weather": "sunny",
                   "altitude_ft": 225},
        "panels": {"bright": "panel_bright.csv", "dark": "panel_dark.csv"},
        "images": images}
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return path, frames


def reference_radiance(counts, meta):
    """The camera model over the whole frame, step by step:
    ``(I - dL) * (V * R) * scale``, clamped at zero, which also turns
    every -0.0 into 0.0.  Returns the plane and its clamped pixel count."""
    vignette = meta["vignette"]
    height, width = counts.shape
    x = np.arange(width, dtype=np.float64) - vignette["center_x"]
    y = np.arange(height, dtype=np.float64) - vignette["center_y"]
    r = np.hypot(x[np.newaxis, :], y[:, np.newaxis])
    k = np.zeros_like(r)
    for c in vignette["coefficients"][::-1]:
        k = (k + c) * r
    v = 1.0 / (1.0 + k)
    rows = np.arange(height, dtype=np.float64)
    factors = 1.0 / (1.0 + meta["a2"] * rows / meta["exposure_us"]
                     + meta["a3"] * rows)
    scale = meta["a1"] / (meta["gain"] * meta["exposure_us"]
                          * 2.0 ** meta["bits_per_pixel"])
    radiance = counts.astype(np.float64) - meta["dark_level"]
    radiance = radiance * (v * factors[:, np.newaxis])
    radiance = radiance * scale
    clamped = int(np.count_nonzero(radiance < 0))
    return np.maximum(radiance, 0.0), clamped


def roi_mean(plane, roi):
    x, y, w, h = roi
    return float(plane[y:y + h, x:x + w].mean())


def reference_maps(frames, method, selection_of):
    """Per ``(image_id, band)``, the reflectance map of ``method``."""
    rsr = datasets.bundled_rsr_set()
    rho = {name: panel_band_reflectance(SpectralCurve(
        np.array([330.0, 1200.0]), np.full(2, value)), rsr)
        for name, value in (("bright", BRIGHT_RHO), ("dark", DARK_RHO))}
    fits = {}
    for cal_id, timestamp, illumination in (("cal_a", 1000.0, 1.0),
                                            ("cal_b", 2000.0, 1.3)):
        planes = [reference_radiance(frames[cal_id, band],
                                     band_metadata(band))[0]
                  for band in range(1, 6)]
        bright, dark = (PanelObservation(
            name, rho[name],
            np.array([roi_mean(plane, roi) for plane in planes]), roi)
            for name, roi in (("bright", BRIGHT_ROI), ("dark", DARK_ROI)))
        cal = CalibrationImage(
            cal_id, timestamp, bright,
            DLSRecord(**dls_record(illumination, timestamp)), dark)
        fits[cal_id] = (fit_elm_1pt if method == "elm1" else fit_elm_2pt)(cal)

    def reflectance(image_id, band, radiance):
        if method == "aarr":
            timestamp, illumination = selection_of[image_id]
            downwelling = irradiance_to_radiance(dls_correct(
                DLSRecord(**dls_record(illumination, timestamp))))
            return radiance / downwelling[band - 1]
        model = fits[selection_of[image_id]]
        return model.slope[band - 1] * radiance + model.bias[band - 1]

    return reflectance


#: Which calibration frame DLS selection picks, and each image's DLS.
ELM_SELECTION = {"cal_a": "cal_a", "cal_b": "cal_b", "field_1": "cal_a",
                 "field_2": "cal_b", "field_3": "cal_a"}
DLS_OF = {"cal_a": (1000.0, 1.0), "cal_b": (2000.0, 1.3),
          "field_1": (1001.0, 1.01), "field_2": (1999.0, 1.29),
          "field_3": (1500.0, 1.1)}


@pytest.fixture(scope="module")
def blocked_flight(tmp_path_factory):
    return build_flight(tmp_path_factory.mktemp("blocked"))


class TestWrittenBytesMatchReference:
    def test_convert(self, blocked_flight, tmp_path):
        manifest, frames = blocked_flight
        assert main(["convert", "--manifest", str(manifest),
                     "--out", str(tmp_path)]) == 0
        log = json.loads((tmp_path / "conversion_log.json").read_text())
        for (image_id, band), counts in frames.items():
            plane, clamped = reference_radiance(counts, band_metadata(band))
            entry = log["images"][image_id]["bands"][str(band)]
            assert clamped > 0
            assert entry["clamped_pixels"] == clamped
            assert entry["saturated_pixels"] == 12
            np.testing.assert_array_equal(
                np.frombuffer((tmp_path / entry["path"]).read_bytes(),
                              dtype=np.uint8),
                np.frombuffer(plane.astype("<f4").tobytes(), dtype=np.uint8))

    @pytest.mark.parametrize("write_pgm", [False, True])
    @pytest.mark.parametrize("method", ["elm1", "elm2", "aarr"])
    def test_reflect(self, blocked_flight, tmp_path, method, write_pgm):
        manifest, frames = blocked_flight
        argv = ["reflect", "--manifest", str(manifest), "--out",
                str(tmp_path), "--method", method, "--pgm-scale", "20000"]
        assert main(argv + (["--write-pgm"] if write_pgm else [])) == 0
        report = json.loads((tmp_path / "reflectance_report.json").read_text())
        assert report["failures"] == {}
        reflectance = reference_maps(
            frames, method, DLS_OF if method == "aarr" else ELM_SELECTION)
        out_of_range = 0
        for (image_id, band), counts in frames.items():
            radiance, _ = reference_radiance(counts, band_metadata(band))
            rho = reflectance(image_id, band, radiance)
            bad = np.count_nonzero((rho < 0.0) | (rho > 1.0))
            out_of_range += bad
            entry = report["images"][image_id]["bands"][str(band)]
            assert entry["out_of_range_fraction"] == bad / rho.size
            assert entry["saturated_pixels"] == 12
            np.testing.assert_array_equal(
                np.frombuffer((tmp_path / entry["path"]).read_bytes(),
                              dtype=np.uint8),
                np.frombuffer(rho.astype("<f4").tobytes(), dtype=np.uint8))
            pgm = tmp_path / f"{image_id}_b{band}.pgm"
            assert pgm.exists() == write_pgm
            if write_pgm:
                counts = np.clip(np.rint(rho * 20000.0), 0, 65535)
                assert pgm.read_bytes() == pgm_bytes(counts)
        assert out_of_range > 0

    def test_rerun_is_byte_identical(self, blocked_flight, tmp_path):
        manifest, _ = blocked_flight
        outputs = []
        for run in ("first", "second"):
            out = tmp_path / run
            main(["reflect", "--manifest", str(manifest), "--out", str(out),
                  "--method", "elm2", "--write-pgm"])
            main(["convert", "--manifest", str(manifest),
                  "--out", str(out / "radiance")])
            outputs.append({p.relative_to(out): p.read_bytes()
                            for p in out.rglob("*") if p.is_file()})
        assert outputs[0] == outputs[1]


def meta_of(raw_meta, band_index=None):
    vignette = raw_meta["vignette"]
    return RadiometricMetadata(
        a1=raw_meta["a1"], a2=raw_meta["a2"], a3=raw_meta["a3"],
        gain=raw_meta["gain"], exposure_us=raw_meta["exposure_us"],
        dark_level=raw_meta["dark_level"],
        vignette=VignetteModel(vignette["center_x"], vignette["center_y"],
                               vignette["coefficients"]),
        bits_per_pixel=raw_meta["bits_per_pixel"], band_index=band_index)


@st.composite
def small_frames(draw):
    """A small raw frame, possibly several blocks tall, and metadata."""
    bits = draw(st.integers(8, 16))
    height = draw(st.integers(1, 3 * ROW_BLOCK))
    width = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    counts = np.random.default_rng(seed).integers(
        0, 2 ** bits, size=(height, width), dtype=np.uint16)
    meta = {
        "a1": draw(st.floats(1e-3, 1e3)), "a2": draw(st.floats(0.0, 10.0)),
        "a3": draw(st.floats(0.0, 1e-3)),
        "gain": draw(st.sampled_from([1, 2, 4, 8])),
        "exposure_us": draw(st.floats(1.0, 1e5)),
        "dark_level": draw(st.floats(0.0, float(2 ** bits))),
        "bits_per_pixel": bits,
        "vignette": {
            "center_x": draw(st.floats(-5.0, width + 5.0)),
            "center_y": draw(st.floats(-5.0, height + 5.0)),
            "coefficients": draw(st.lists(st.floats(0.0, 1e-2), min_size=6,
                                          max_size=6))}}
    return counts, meta


class TestKernelProperty:
    @settings(max_examples=60, deadline=None)
    @given(small_frames(), st.sampled_from(["none", "elm", "aarr"]),
           st.floats(1e-3, 1e3), st.floats(-1.0, 1.0))
    def test_blocks_equal_whole_frame(self, case, kind, factor, offset):
        """Planes, float64 and float32, and counts through the reflect
        command's own ELM and AARR maps."""
        counts, raw_meta = case
        raw = RawImage(band_index=2, pixels=counts,
                       bits_per_pixel=raw_meta["bits_per_pixel"])
        radiance, clamped = reference_radiance(counts, raw_meta)
        if kind == "none":
            expected, post_map = radiance, None
        elif kind == "elm":
            slope, bias = np.full(5, factor), np.full(5, offset)
            expected = slope[1] * radiance + bias[1]
            post_map = elm_map(ElmModel(slope, bias, "cal"), 2)
        else:
            dls = DLSRecord(np.full(5, factor), 50.0, 10.0, 0.0)
            expected = radiance / irradiance_to_radiance(dls_correct(dls))[1]
            post_map = aarr_map(dls, 2)

        chunks = []
        got = convert_band(raw, meta_of(raw_meta),
                           lambda block: chunks.append(block.astype("<f4")),
                           post_map)
        assert b"".join(c.tobytes() for c in chunks) == \
            expected.astype("<f4").tobytes()
        assert got.clamped == clamped
        assert got.saturated == np.count_nonzero(
            counts == 2 ** raw_meta["bits_per_pixel"] - 1)
        if post_map is not None:
            assert got.out_of_range_fraction == np.count_nonzero(
                (expected < 0) | (expected > 1)) / expected.size
        plane = np.empty(counts.shape)
        convert_band(raw, meta_of(raw_meta), post_map=post_map, out=plane)
        np.testing.assert_array_equal(plane, expected)

    @pytest.mark.parametrize("negative_later", [False, True])
    def test_underflowed_negative_is_positive_zero(self, negative_later):
        """A zero count under a 5e-324 dark level underflows to -0.0 where
        ``R * scale`` is small and stays negative where it is large; the
        clamp makes the -0.0 0.0, whether or not a negative follows."""
        meta = dict(band_metadata(1), a1=102.4, a2=0.0, a3=-0.005, gain=1,
                    exposure_us=1.0, dark_level=5e-324, bits_per_pixel=8)
        meta["vignette"]["coefficients"] = [0.0] * 6
        counts = np.full((HEIGHT, 6), 100, dtype=np.uint16)
        counts[0, 5] = 0  # -0.0 in the first block
        if negative_later:
            counts[2 * ROW_BLOCK + 6, 3] = 0  # negative in the last block
        raw = RawImage(1, counts, bits_per_pixel=8)
        expected, clamped = reference_radiance(counts, meta)
        assert clamped == int(negative_later)
        underflowed = -meta["dark_level"] * (meta["a1"] / 2.0 ** 8)
        assert underflowed == 0 and np.signbit(underflowed)
        assert not np.signbit(expected).any()
        chunks = []
        got = convert_band(raw, meta_of(meta),
                           lambda block: chunks.append(block.copy()))
        assert got.clamped == clamped
        assert np.concatenate(chunks).tobytes() == expected.tobytes()
        assert dc_to_radiance(raw, meta_of(meta)).pixels.tobytes() == \
            expected.tobytes()

    def test_saturated_pixels_straddling_a_block_boundary(self):
        counts = np.zeros((HEIGHT, WIDTH), dtype=np.uint16)
        counts[SATURATED] = 65535
        counts[ROW_BLOCK - 1, 0] = 65519  # one below the rail at 12 bits too
        raw = RawImage(1, counts)
        got = convert_band(raw, meta_of(band_metadata(1), 1))
        assert got.saturated == 12
        raw = RawImage(1, counts >> 4, bits_per_pixel=12)
        meta = meta_of(dict(band_metadata(1), bits_per_pixel=12), 1)
        assert convert_band(raw, meta).saturated == 12


#: Edge values a radiance block may hold, clamped or not.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               FLOAT32_MAX, np.nextafter(FLOAT32_MAX, np.inf),
               1.7976931348623157e308, -1.0, np.inf, -np.inf, np.nan]


class TestMonotoneMaps:
    """``convert_band`` maps a block's radiance bounds instead of taking
    the bounds of the mapped block; the reflectance maps are monotone
    non-decreasing, so the two agree, NaN included."""

    @staticmethod
    def assert_maps_bounds(post_map, values):
        block = np.array(values, dtype=np.float64)
        bounds = np.array([block.min(), block.max()])
        with np.errstate(all="ignore"):
            post_map(block)
            post_map(bounds)
        np.testing.assert_array_equal(bounds, [block.min(), block.max()])

    blocks = st.lists(st.sampled_from(EDGE_VALUES)
                      | st.floats(allow_nan=True, allow_infinity=True),
                      min_size=1, max_size=12)

    @given(blocks,
           st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_elm_line_maps_bounds_to_bounds(self, values, slope, bias):
        self.assert_maps_bounds(line_map(slope, bias), values)

    @given(blocks,
           st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_aarr_maps_bounds_to_bounds(self, values, irradiance):
        # Overhead sun on a level sensor: the reference is irradiance / pi.
        dls = DLSRecord(np.full(5, irradiance), 90.0, 0.0, 0.0)
        try:
            post_map = aarr_map(dls, 3)
        except NoIlluminationError:
            assume(False)
        self.assert_maps_bounds(post_map, values)


def overflowing_metadata(band):
    """Metadata whose radiance overflows where the counts are high and the
    row factor exceeds 1.2, that is from row ``ROW_BLOCK + 8`` on, in the
    second block."""
    meta = band_metadata(band)
    meta.update(a1=1.7e308, a2=0.0, a3=-0.005, gain=1, exposure_us=1.0,
                dark_level=0.0)
    meta["vignette"]["coefficients"] = [0.0] * 6
    return meta


def overflowing_counts():
    """High counts from row ``ROW_BLOCK + 8`` to 5 rows above the bottom,
    off both panel ROIs."""
    counts = np.full((HEIGHT, WIDTH), 100, dtype=np.uint16)
    counts[ROW_BLOCK + 8:HEIGHT - 5] = 60000
    return counts


class TestFailures:
    def _break_band(self, manifest, image_id, band):
        raw = json.loads(manifest.read_text())
        image = next(i for i in raw["images"] if i["image_id"] == image_id)
        entry = next(b for b in image["bands"] if b["band_index"] == band)
        entry["metadata"] = overflowing_metadata(band)
        write_pgm(manifest.parent / entry["path"], overflowing_counts())
        manifest.write_text(json.dumps(raw))

    @pytest.mark.parametrize("command", [
        ["convert"], ["reflect", "--method", "elm2", "--write-pgm"],
        ["reflect", "--method", "aarr", "--write-pgm"]])
    def test_band_failing_mid_stream_leaves_nothing(self, tmp_path, command):
        manifest, _ = build_flight(tmp_path / "flight")
        self._break_band(manifest, "field_2", 3)
        out = tmp_path / "out"
        assert main([command[0], "--manifest", str(manifest),
                     "--out", str(out), *command[1:]]) == 2
        report = json.loads((out / (
            "conversion_log.json" if command[0] == "convert"
            else "reflectance_report.json")).read_text())
        assert report["failures"] == {
            "field_2": "radiance contains non-finite pixels"}
        assert not list(out.glob("field_2_*"))
        expected = 5 * (3 if command[0] == "reflect" else 2)
        assert len(list(out.glob("field_1_*"))) == expected

    @pytest.mark.parametrize("scale", ["0", "-5", "nan", "inf", "abc"])
    def test_bad_pgm_scale_fails_every_image(self, tmp_path, capsys, scale):
        """A bad scale is a usage error, found as the options are parsed,
        so no image is written."""
        manifest, _ = build_flight(tmp_path / "flight")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["reflect", "--manifest", str(manifest), "--out", str(out),
                  "--method", "aarr", "--write-pgm", "--pgm-scale", scale])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert f"--pgm-scale: must be a finite number above zero, got " \
            f"{scale!r}" in err
        assert "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, quantity, log", [
        (["convert"], "radiance", "conversion_log.json"),
        (["reflect", "--method", "aarr", "--write-pgm"], "reflectance",
         "reflectance_report.json")])
    def test_plane_beyond_float32_fails_every_image(self, tmp_path, capsys,
                                                    command, quantity, log):
        # Finite in double precision, but infinite once cast to float32.
        manifest = helpers.build_flight(tmp_path / "flight")
        raw = json.loads(manifest.read_text())
        for image in raw["images"]:
            for band in image["bands"]:
                band["metadata"]["a1"] = 1e300
        manifest.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main([command[0], "--manifest", str(manifest),
                     "--out", str(out), *command[1:]]) == 3
        report = json.loads((out / log).read_text())
        assert report["failures"] == dict.fromkeys(
            ("cal_a", "field_1", "field_2"),
            f"{quantity} exceeds the float32 range of its plane "
            "(|value| > 3.4028235e+38)")
        assert [p.name for p in out.iterdir()] == [log]
        assert "Warning" not in capsys.readouterr().err

    def test_missing_illumination_outranks_radiance_fault(self, tmp_path):
        """An image's band map error comes ahead of its band's radiance
        faults, as its selection and fit errors do."""
        manifest, _ = build_flight(tmp_path / "flight")
        raw = json.loads(manifest.read_text())
        for image in raw["images"][2:4]:
            image["dls"]["raw_irradiance"][2] = 0.0
        manifest.write_text(json.dumps(raw))
        self._break_band(manifest, "field_2", 3)
        out = tmp_path / "out"
        assert main(["reflect", "--manifest", str(manifest), "--out",
                     str(out), "--method", "aarr"]) == 2
        failures = json.loads(
            (out / "reflectance_report.json").read_text())["failures"]
        assert failures == {
            "field_1": "band 3: corrected downwelling radiance is not "
                       "positive; AARR is undefined",
            "field_2": "band 3: corrected downwelling radiance is not "
                       "positive; AARR is undefined"}

    def test_calibration_overflow_outside_roi_fails_its_users(
            self, tmp_path, capsys):
        """The images that select ``cal_a`` fail in band 2, naming it; the
        images served by ``cal_b`` keep the bytes of an intact run."""
        manifest, _ = build_flight(tmp_path / "flight")
        clean = tmp_path / "clean"
        assert main(["reflect", "--manifest", str(manifest), "--out",
                     str(clean), "--method", "elm2"]) == 0
        self._break_band(manifest, "cal_a", 2)
        # Both panel ROIs stay finite; rows between them overflow.
        raw = RawImage(2, overflowing_counts())
        meta = meta_of(overflowing_metadata(2), 2)
        assert not radiance_is_bounded(raw, meta)
        with pytest.raises(MetadataError, match="non-finite"):
            dc_to_radiance(raw, meta)
        out = tmp_path / "out"
        assert main(["reflect", "--manifest", str(manifest), "--out",
                     str(out), "--method", "elm2"]) == 2
        users = [image_id for image_id, cal_id in ELM_SELECTION.items()
                 if cal_id == "cal_a"]
        message = "calibration image cal_a: radiance contains non-finite " \
            "pixels"
        assert capsys.readouterr().err == "".join(
            f"error: image {image_id}: {message}\n" for image_id in users)
        report = json.loads((out / "reflectance_report.json").read_text())
        assert report["failures"] == dict.fromkeys(users, message)
        records = json.loads(
            (clean / "reflectance_report.json").read_text())["images"]
        assert report["images"] == {image_id: record for image_id, record
                                    in records.items() if image_id not in users}
        kept = {p.name for p in clean.iterdir()
                if p.name.rsplit("_b", 1)[0] not in users}
        assert {p.name for p in out.iterdir()} == kept
        assert all((out / name).read_bytes() == (clean / name).read_bytes()
                   for name in kept - {"reflectance_report.json"})

    def test_reflectance_overflow_is_reported_as_reflectance(self):
        raw = RawImage(1, np.full((HEIGHT, 3), 60000, dtype=np.uint16))
        meta = meta_of(dict(band_metadata(1), a1=1e307, gain=1,
                            exposure_us=1.0, dark_level=0.0))

        def post_map(block):
            block *= 1e10

        with pytest.raises(MetadataError,
                           match="^reflectance contains non-finite"):
            convert_band(raw, meta, post_map=post_map)

    def test_first_faulty_block_is_reported(self):
        """Blocks are checked in row order, and within a block radiance
        ahead of reflectance."""
        meta = meta_of(overflowing_metadata(1))

        def post_map(block):
            block *= 1e10  # overflows wherever radiance is not 0

        counts = np.full((HEIGHT, 3), 100, dtype=np.uint16)
        counts[2 * ROW_BLOCK:] = 60000  # radiance overflows in block 3
        with pytest.raises(MetadataError,
                           match="^reflectance contains non-finite"):
            convert_band(RawImage(1, counts), meta, post_map=post_map)
        counts[:ROW_BLOCK] = 0  # block 1 maps to 0
        counts[ROW_BLOCK:] = 60000  # radiance overflows in block 2
        with pytest.raises(MetadataError,
                           match="^radiance contains non-finite"):
            convert_band(RawImage(1, counts), meta, post_map=post_map)


class TestPanelMeans:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_first_and_last_rows_equal_whole_plane(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 65536, size=(HEIGHT, WIDTH),
                              dtype=np.uint16)
        raw = RawImage(1, counts)
        meta = meta_of(band_metadata(1), 1)
        rois = [BRIGHT_ROI, DARK_ROI, (0, 0, WIDTH, HEIGHT),
                (WIDTH - 1, ROW_BLOCK - 1, 1, 2)]
        plane = dc_to_radiance(raw, meta)
        assert radiance_is_bounded(raw, meta)
        assert panel_means(raw, meta, rois) == \
            [extract_panel(plane, roi) for roi in rois]

    def test_roi_errors_are_extract_panels(self):
        raw = RawImage(1, np.zeros((HEIGHT, WIDTH), dtype=np.uint16))
        meta = meta_of(band_metadata(1), 1)
        for roi, message in (((0, 0, 0, 3), "empty ROI"),
                             ((0, HEIGHT - 2, 4, 3), "outside image bounds")):
            with pytest.raises(MetadataError, match=message):
                panel_means(raw, meta, [roi])

    def test_unbounded_frame_falls_back_to_whole_plane(self):
        # The bound pairs the largest count with the largest row factor,
        # which overflows; the largest counts sit in rows that do not.
        counts = np.full((HEIGHT, WIDTH), 100, dtype=np.uint16)
        counts[6:20] = 50000
        raw = RawImage(1, counts)
        meta = meta_of(overflowing_metadata(1), 1)
        assert not radiance_is_bounded(raw, meta)
        plane = dc_to_radiance(raw, meta)
        assert panel_means(raw, meta, [BRIGHT_ROI, DARK_ROI]) == \
            [extract_panel(plane, roi) for roi in (BRIGHT_ROI, DARK_ROI)]
