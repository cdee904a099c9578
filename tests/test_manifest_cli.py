"""Manifest loading and the command-line workflows built on top of it."""

import builtins
import contextlib
import csv
import errno
import io
import itertools
import json
import math
import os
import shutil
import tempfile
import warnings
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from suascal import cli, datasets
from suascal import simulate as simulate_module
from suascal.cli import main
from suascal.errors import ManifestError, SuascalError
from suascal.imageio import (read_plane, read_pgm16, sidecar_path,
                             write_plane)
from suascal.manifest import FlightManifest, load_manifest
from suascal.reflectance import DEFAULT_DIFFUSE_RATIO
from suascal.rsr import SpectralCurve, write_spectral_curve
from suascal.simulate import SimulationTable, _error_lines


@pytest.fixture
def flight(tmp_path):
    return helpers.build_flight(tmp_path / "flight", field_images=2,
                                with_decoy=True)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A flight shared by a property's examples, which write mutated
    copies of its manifest beside it and leave the original as built."""
    return helpers.build_flight(tmp_path_factory.mktemp("pristine"),
                                field_images=2, with_decoy=True)


class TestManifest:
    def test_loads_synthetic_flight(self, flight):
        manifest = load_manifest(flight)
        assert manifest.flight_id == "synthetic-flight"
        assert manifest.weather == "sunny"
        assert manifest.altitude_ft == 225
        assert len(manifest.images) == 4
        assert [img.image_id for img in manifest.calibration_images] == \
            ["cal_a", "cal_b"]
        assert [band.metadata.band_index
                for band in manifest.images[0].bands] == [1, 2, 3, 4, 5]

    def test_paths_resolve_relative_to_manifest(self, flight):
        manifest = load_manifest(flight)
        for image in manifest.images:
            for band in image.bands:
                assert band.path.is_file(), band.path

    def test_bundled_rsr_fallback(self, flight):
        rsr_set = load_manifest(flight).rsr_set()
        assert sorted(rsr_set) == [1, 2, 3, 4, 5]

    def test_listed_rsr_replaces_its_band_only(self, flight):
        write_spectral_curve(flight.parent / "rsr_red.csv",
                             helpers.flat_spectrum(1.0))
        raw = json.loads(flight.read_text())
        raw["rsr"] = {"3": "rsr_red.csv"}
        flight.write_text(json.dumps(raw))
        rsr_set = load_manifest(flight).rsr_set()
        assert list(rsr_set) == [1, 2, 3, 4, 5]
        assert rsr_set[3].wavelengths_nm.tolist() == [330.0, 1200.0]
        assert rsr_set[3].values.tolist() == [1.0, 1.0]
        for band in (1, 2, 4, 5):
            assert rsr_set[band] is datasets.bundled_rsr(band)

    def test_panel_spectrum_lookup(self, flight):
        manifest = load_manifest(flight)
        curve = manifest.panel_spectrum("bright")
        assert np.all(curve.values == helpers.BRIGHT_RHO)
        with pytest.raises(ManifestError, match="library"):
            manifest.panel_spectrum("checkerboard")

    def _mutate(self, flight, edit):
        raw = json.loads(flight.read_text())
        edit(raw)
        flight.write_text(json.dumps(raw))
        return flight

    def test_duplicate_image_id_rejected(self, flight):
        def edit(raw):
            raw["images"].append(dict(raw["images"][0]))
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(self._mutate(flight, edit))

    def test_wrong_band_count_rejected(self, flight):
        def edit(raw):
            del raw["images"][0]["bands"][2]
        with pytest.raises(ManifestError, match="band"):
            load_manifest(self._mutate(flight, edit))

    def test_duplicate_band_index_rejected(self, flight):
        def edit(raw):
            raw["images"][0]["bands"][1]["band_index"] = 1
        with pytest.raises(ManifestError, match="1..5"):
            load_manifest(self._mutate(flight, edit))

    def test_unknown_calibration_panel_rejected(self, flight):
        def edit(raw):
            raw["images"][0]["calibration"]["bright"]["panel_id"] = "mystery"
        with pytest.raises(ManifestError, match="panel"):
            load_manifest(self._mutate(flight, edit))

    def test_calibration_without_dls_rejected(self, flight):
        def edit(raw):
            del raw["images"][0]["dls"]
        with pytest.raises(ManifestError, match="dls"):
            load_manifest(self._mutate(flight, edit))

    def test_missing_flight_block_rejected(self, flight):
        def edit(raw):
            del raw["flight"]
        with pytest.raises(ManifestError, match="flight"):
            load_manifest(self._mutate(flight, edit))

    def test_bad_roi_rejected(self, flight):
        def edit(raw):
            raw["images"][0]["calibration"]["bright"]["roi"] = [1, 2, 3]
        with pytest.raises(ManifestError, match="ROI"):
            load_manifest(self._mutate(flight, edit))

    @pytest.mark.parametrize("keys, value", [
        (("images", 0, "timestamp"), "noon"),
        (("images", 0, "timestamp"), float("nan")),
        (("images", 0, "bands", 0, "band_index"), "one"),
        (("images", 0, "bands", 0, "metadata", "a1"), [1.0]),
        (("images", 0, "bands"), 5),
        (("images",), [1]),
        (("images",), {"a": 1}),
        (("panels",), ["x"]),
        (("images", 0, "calibration", "bright", "roi"), "abcd"),
        (("images", 0, "bands", 0, "metadata", "bits_per_pixel"), "x"),
        (("flight", "altitude_ft"), "x"),
        (("flight",), []),
        (("images", 0, "bands", 0, "metadata", "vignette", "coefficients"),
         5),
        (("rsr",), {"x": "rsr_band_1.csv"}),
        (("images", 0, "dls"), [1]),
        (("images", 0, "bands", 0, "path"), None),
        (("images", 0, "bands", 0, "band_index"), 2.5),
        (("images", 0, "bands", 0, "metadata", "gain"), True),
        # An id names the image's planes, which must stay inside --out.
        (("images", 0, "image_id"), "../escaped"),
        (("images", 0, "image_id"), ""),
        (("images", 0, "image_id"), "."),
        (("images", 0, "image_id"), ".."),
        (("images", 0, "image_id"), "a\\b"),
        (("images", 0, "image_id"), "a\0b"),
        # A panel ROI must lie in the frame's quadrant and hold a pixel.
        (("images", 0, "calibration", "bright", "roi"), [0, 0, 0, 4]),
        (("images", 0, "calibration", "dark", "roi"), [0, 0, 4, -1]),
        (("images", 0, "calibration", "bright", "roi"), [-1, 0, 4, 4]),
        (("images", 0, "calibration", "dark", "roi"), [0, -3, 4, 4]),
    ], ids=["timestamp-text", "timestamp-nan", "band_index-text", "a1-list",
            "bands-int", "images-int-list", "images-object", "panels-list",
            "roi-text", "bits_per_pixel-text", "altitude_ft-text",
            "flight-list", "coefficients-int", "rsr-key-text", "dls-list",
            "path-null", "band_index-fraction", "gain-bool",
            "image_id-parent", "image_id-empty", "image_id-dot",
            "image_id-dotdot", "image_id-backslash", "image_id-nul",
            "roi-zero-width", "roi-negative-height", "roi-negative-x",
            "roi-negative-y"])
    def test_mistyped_value_is_usage_error(self, flight, tmp_path, capsys,
                                           keys, value):
        def edit(raw):
            target = raw
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
        self._mutate(flight, edit)
        assert main(["convert", "--manifest", str(flight),
                     "--out", str(tmp_path / "out")]) == 1
        assert repr(keys[-1]) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.glob("**/escaped*"))

    @pytest.mark.parametrize("command", [["convert"],
                                         ["reflect", "--method", "aarr"]],
                             ids=["convert", "aarr"])
    @pytest.mark.parametrize("dls, message", [
        ({"raw_irradiance": [1.0] * 4},
         "raw_irradiance must have exactly 5 band values, got shape (4,)"),
        ({"raw_irradiance": [1.0] * 4 + [float("nan")]},
         "raw_irradiance contains non-finite values"),
        ({"raw_irradiance": [1.0] * 4 + [-1.0]},
         "DLS irradiance cannot be negative"),
        ({"solar_elevation_deg": 95},
         "solar elevation 95.0 outside [0, 90] degrees"),
        ({"sun_sensor_angle_deg": -1},
         "sun-sensor angle -1.0 outside [0, 180] degrees"),
        ({"fresnel_factor": 0}, "Fresnel factor must be positive, got 0.0"),
        ({"diffuse_ratio": -0.5},
         "diffuse ratio must be non-negative, got -0.5"),
        ({"sun_sensor_angle_deg": 180},
         "orientation-invalid DLS record: correction denominator is not "
         "positive"),
    ], ids=["band-count", "non-finite", "negative", "elevation",
            "sun-sensor-angle", "fresnel", "diffuse-ratio", "denominator"])
    def test_bad_dls_record_names_its_image(self, flight, tmp_path, capsys,
                                            command, dls, message):
        """Each check of a DLS record fails the run in one line that
        names the image, before ``--out`` is created."""
        self._mutate(flight, lambda raw: raw["images"][2]["dls"].update(dls))
        out = tmp_path / "out"
        assert main([command[0], "--manifest", str(flight),
                     "--out", str(out), *command[1:]]) == 1
        assert capsys.readouterr().err == (
            f"error: image 'field_1' dls: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("keys", [
        {}, {"fresnel_factor": None, "diffuse_ratio": None}],
        ids=["absent", "null"])
    def test_dls_optional_keys_take_the_record_defaults(self, flight, keys):
        def edit(raw):
            dls = raw["images"][2]["dls"]
            dls.pop("fresnel_factor", None)
            dls.pop("diffuse_ratio", None)
            dls.update(keys)
        dls = load_manifest(self._mutate(flight, edit)).images[2].dls
        assert (dls.fresnel_factor, dls.diffuse_ratio) == (
            1.0, DEFAULT_DIFFUSE_RATIO)

    @given(data=st.data())
    def test_any_mutated_node_loads_or_is_a_suascal_error(self, pristine,
                                                          data):
        path = pristine.parent / "mutated.json"
        doc = json.loads(pristine.read_text())
        node = data.draw(st.sampled_from(list(helpers.json_paths(doc))))
        value = data.draw(helpers.json_values)
        path.write_text(json.dumps(helpers.replace_node(doc, node, value)))
        try:
            manifest = load_manifest(path)
        except SuascalError:
            return
        assert isinstance(manifest, FlightManifest)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        for payload in (b"{", b"\xff\xfe{}", b"[" + b"1" * 5000 + b"]",
                        b"[]", b"[" * 100_000):
            path.write_bytes(payload)
            with pytest.raises(ManifestError, match="JSON"):
                load_manifest(path)


class TestConvertCommand:
    def test_writes_planes_and_log(self, flight, tmp_path):
        out = tmp_path / "radiance"
        assert main(["convert", "--manifest", str(flight),
                     "--out", str(out)]) == 0
        log = json.loads((out / "conversion_log.json").read_text())
        assert sorted(log["images"]) == ["cal_a", "cal_b", "field_1",
                                         "field_2"]
        assert log["failures"] == {}
        pixels, meta = read_plane(out / "cal_a_b1.f32")
        assert meta["units"] == "W/m^2/sr/nm"
        x, y, w, h = helpers.BRIGHT_ROI
        np.testing.assert_allclose(pixels[y:y + h, x:x + w],
                                   helpers.BRIGHT_RADIANCE[0], rtol=1e-7)

    def test_rerun_is_byte_identical(self, flight, tmp_path):
        out = tmp_path / "radiance"
        main(["convert", "--manifest", str(flight), "--out", str(out)])
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        main(["convert", "--manifest", str(flight), "--out", str(out)])
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_corrupt_band_fails_that_image_only(self, flight, tmp_path):
        band = flight.parent / "field_2_b4.pgm"
        for case, corrupt in (
                ("truncated", lambda: band.write_bytes(b"P5\n2 2\n")),
                ("missing", band.unlink)):
            corrupt()
            out = tmp_path / case
            code = main(["convert", "--manifest", str(flight),
                         "--out", str(out)])
            assert code == 2
            log = json.loads((out / "conversion_log.json").read_text())
            assert "field_2" in log["failures"]
            assert "field_1" in log["images"]
            assert not list(out.glob("field_2_b*.f32"))

    def test_empty_manifest_warns_and_succeeds(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "flight": {"id": "empty", "date": "2021-01-01",
                       "weather": "sunny", "altitude_ft": 150},
            "panels": {}, "images": []}))
        out = tmp_path / "radiance"
        assert main(["convert", "--manifest", str(path),
                     "--out", str(out)]) == 0
        assert "no images" in capsys.readouterr().err
        assert json.loads(
            (out / "conversion_log.json").read_text())["images"] == {}

    def test_missing_manifest_is_usage_error(self, tmp_path):
        assert main(["convert", "--manifest", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("fresh, name", [
        (True, "field_1_b1.f32"), (False, "field_1_b1.f32"),
        (True, "conversion_log.json"), (False, "conversion_log.json")],
        ids=["new-out", "flight-folder", "new-out-report",
             "flight-folder-report"])
    def test_plane_over_a_band_frame_is_usage_error(self, flight, tmp_path,
                                                    capsys, fresh, name):
        """field_1's band 1 frame is named at the path of its own plane or
        of the run's report: one line before any file is opened, and no
        ``--out`` if there was none before, or the flight folder as it
        was."""
        out = tmp_path / "out" if fresh else flight.parent
        clash = out / name
        if not fresh:
            (flight.parent / "field_1_b1.pgm").rename(clash)
        raw = json.loads(flight.read_text())
        field_1 = next(image for image in raw["images"]
                       if image["image_id"] == "field_1")
        field_1["bands"][0]["path"] = str(clash)
        flight.write_text(json.dumps(raw))
        before = {path: path.read_bytes() for path in flight.parent.iterdir()}
        assert main(["convert", "--manifest", str(flight),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {clash}: an output of this run would overwrite this "
            "band-frame\n")
        assert {path: path.read_bytes()
                for path in flight.parent.iterdir()} == before
        assert not fresh or not out.exists()

    def test_band_frame_at_the_other_report_name_is_kept(self, flight,
                                                         capsys):
        """field_1's band 1 frame is stored at the name of ``reflect``'s
        report, and ``--out`` is the flight folder: ``convert`` reads the
        frame as no ledger, so it warns of nothing, and keeps it."""
        frame = flight.parent / "reflectance_report.json"
        (flight.parent / "field_1_b1.pgm").rename(frame)
        raw = json.loads(flight.read_text())
        field_1 = next(image for image in raw["images"]
                       if image["image_id"] == "field_1")
        field_1["bands"][0]["path"] = frame.name
        flight.write_text(json.dumps(raw))
        before = frame.read_bytes()
        assert main(["convert", "--manifest", str(flight),
                     "--out", str(flight.parent)]) == 0
        assert capsys.readouterr().err == ""
        assert frame.read_bytes() == before


def roi_mean(pixels, roi):
    x, y, w, h = roi
    return float(pixels[y:y + h, x:x + w].mean())


class TestReflectCommand:
    @pytest.mark.parametrize("method", ["elm1", "elm2", "aarr"])
    def test_each_method_recovers_panels(self, flight, tmp_path, method):
        out = tmp_path / method
        assert main(["reflect", "--manifest", str(flight), "--out", str(out),
                     "--method", method]) == 0
        report = json.loads((out / "reflectance_report.json").read_text())
        assert report["failures"] == {}
        for image_id in ("field_1", "field_2"):
            for band in range(1, 6):
                pixels, meta = read_plane(out / f"{image_id}_b{band}.f32")
                assert meta["units"] == "reflectance"
                assert roi_mean(pixels, helpers.BRIGHT_ROI) == \
                    pytest.approx(helpers.BRIGHT_RHO, abs=1e-6)
                assert roi_mean(pixels, helpers.DARK_ROI) == \
                    pytest.approx(helpers.DARK_RHO, abs=1e-6)

    def test_dls_selection_skips_decoy(self, flight, tmp_path):
        out = tmp_path / "elm2"
        main(["reflect", "--manifest", str(flight), "--out", str(out),
              "--method", "elm2", "--selection", "dls"])
        report = json.loads((out / "reflectance_report.json").read_text())
        for image_id in ("field_1", "field_2"):
            record = report["images"][image_id]
            assert record["calibration_image"] == "cal_a"
            assert record["selection_metric"] == pytest.approx(0.0)

    def test_time_selection_reports_gap(self, flight, tmp_path):
        out = tmp_path / "elm1"
        main(["reflect", "--manifest", str(flight), "--out", str(out),
              "--method", "elm1", "--selection", "time"])
        report = json.loads((out / "reflectance_report.json").read_text())
        record = report["images"]["field_2"]
        assert record["calibration_image"] == "cal_a"
        assert record["selection_metric"] == pytest.approx(2.0)

    @pytest.mark.parametrize("method, designated, usable", [
        ("elm1", "nope", "'cal_a', 'cal_b'"),
        ("elm2", "cal_b", "'cal_a'")])
    def test_unusable_designated_id_is_usage_error(
            self, flight, tmp_path, capsys, method, designated, usable):
        """One line naming the usable ids, before any band is read; elm2
        cannot use ``cal_b`` once its dark panel is gone."""
        raw = json.loads(flight.read_text())
        del raw["images"][1]["calibration"]["dark"]
        flight.write_text(json.dumps(raw))
        out = tmp_path / "single"
        assert main(["reflect", "--manifest", str(flight), "--out", str(out),
                     "--method", method, "--selection", "single",
                     "--designated-id", designated]) == 1
        assert capsys.readouterr().err == (
            f"error: --designated-id {designated!r} is not a calibration "
            f"image method {method} can use; usable: {usable}\n")
        assert not out.exists()

    def test_single_selection_uses_designated(self, flight, tmp_path):
        out = tmp_path / "single"
        main(["reflect", "--manifest", str(flight), "--out", str(out),
              "--method", "elm1", "--selection", "single",
              "--designated-id", "cal_b"])
        report = json.loads((out / "reflectance_report.json").read_text())
        assert report["images"]["field_1"]["calibration_image"] == "cal_b"
        # The decoy's slope is 0.8x, so the bright patch lands at 0.4.
        pixels, _ = read_plane(out / "field_1_b1.f32")
        assert roi_mean(pixels, helpers.BRIGHT_ROI) == \
            pytest.approx(0.4, abs=1e-6)

    def test_write_pgm_option(self, flight, tmp_path):
        out = tmp_path / "pgm"
        main(["reflect", "--manifest", str(flight), "--out", str(out),
              "--method", "aarr", "--write-pgm"])
        counts = read_pgm16(out / "field_1_b1.pgm")
        assert roi_mean(counts, helpers.BRIGHT_ROI) == pytest.approx(5000.0)

    def test_corrupt_band_fails_that_image_only(self, flight, tmp_path):
        band = flight.parent / "field_2_b4.pgm"
        band.write_bytes(b"P5\n2 2\n")
        out = tmp_path / "truncated"
        assert main(["reflect", "--manifest", str(flight), "--out", str(out),
                     "--method", "elm2"]) == 2
        report = json.loads((out / "reflectance_report.json").read_text())
        assert "field_2_b4.pgm" in report["failures"]["field_2"]
        assert "field_1" in report["images"]
        assert not list(out.glob("field_2_b*"))

    @pytest.mark.parametrize("bands", [(1,), (1, 2, 3, 4, 5)],
                             ids=["blue-only", "all-five"])
    @pytest.mark.parametrize("method", ["elm1", "elm2"])
    def test_rsr_files_of_the_bundled_curves(self, flight, tmp_path, bands,
                                             method):
        """An ``rsr`` map of copies of the bundled curves, for some bands or
        all, gives the bytes of a manifest with no ``rsr``: a band not
        listed keeps its bundled curve."""
        trees = []
        for rsr in ({}, {str(band): f"rsr_{band}.csv" for band in bands}):
            for band in bands:
                name = f"rsr_{datasets.BAND_NAMES[band]}.csv"
                (flight.parent / f"rsr_{band}.csv").write_bytes(
                    resources.files("suascal.data").joinpath(name)
                    .read_bytes())
            raw = json.loads(flight.read_text())
            raw["rsr"] = rsr
            flight.write_text(json.dumps(raw))
            out = tmp_path / f"out{len(rsr)}"
            assert main(["reflect", "--manifest", str(flight), "--out",
                         str(out), "--method", method]) == 0
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert trees[1] == trees[0]

    @pytest.mark.parametrize("method", ["elm1", "elm2"])
    def test_panel_spectrum_short_of_an_rsr(self, flight, tmp_path, capsys,
                                            monkeypatch, method):
        """A panel spectrum that does not cover a band's RSR fails the run
        with one line naming the file and the panel, before any band-frame
        is read, and leaves no file."""
        spectrum = flight.parent / "panel_bright.csv"
        write_spectral_curve(spectrum, SpectralCurve(
            np.array([500.0, 600.0]), np.array([0.5, 0.5])))
        reads = []
        monkeypatch.setattr(cli, "read_pgm16", reads.append)
        out = tmp_path / "out"
        assert main(["reflect", "--manifest", str(flight), "--out", str(out),
                     "--method", method]) == 1
        assert capsys.readouterr().err == (
            f"error: {spectrum}: panel 'bright': spectrum [500.0, 600.0] nm "
            "does not cover the RSR support [435.0, 515.0] nm\n")
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["missing", "above-range", "zero"])
    def test_panel_library_fault_reads_no_frame(self, flight, tmp_path,
                                                capsys, monkeypatch, fault):
        """A dark panel's spectrum that cannot be read, or whose band
        reflectance is outside (0, 1.5), fails the run with one line,
        before any band-frame is read or ``--out`` is created."""
        spectrum = flight.parent / "panel_dark.csv"
        if fault == "missing":
            spectrum.unlink()
            expected = f"{spectrum}: cannot read: No such file or directory"
        else:
            write_spectral_curve(spectrum, helpers.flat_spectrum(
                1.5 if fault == "above-range" else 0.0))
            expected = "panel dark: ground reflectance outside (0, 1.5)"
        reads = []
        monkeypatch.setattr(cli, "read_pgm16", reads.append)
        out = tmp_path / "out"
        assert main(["reflect", "--manifest", str(flight), "--out", str(out),
                     "--method", "elm2"]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert reads == []
        assert not out.exists()

    def test_aarr_image_without_dls(self, flight, tmp_path, capsys):
        """That image fails with exit 2 and writes nothing; every other
        image's outputs are the bytes of a run where it has its record."""
        out = tmp_path / "all"
        assert main(["reflect", "--manifest", str(flight), "--out", str(out),
                     "--method", "aarr"]) == 0
        capsys.readouterr()
        raw = json.loads(flight.read_text())
        del next(image for image in raw["images"]
                 if image["image_id"] == "field_2")["dls"]
        flight.write_text(json.dumps(raw))
        partial = tmp_path / "partial"
        assert main(["reflect", "--manifest", str(flight), "--out",
                     str(partial), "--method", "aarr"]) == 2
        assert capsys.readouterr().err == (
            "error: image field_2: aarr requires a dls record\n")
        report = json.loads((partial / "reflectance_report.json").read_text())
        assert report["failures"] == {
            "field_2": "aarr requires a dls record"}
        assert sorted(report["images"]) == ["cal_a", "cal_b", "field_1"]
        assert not list(partial.glob("field_2_*"))
        expected = {p.name: p.read_bytes() for p in out.iterdir()
                    if not p.name.startswith("field_2_")
                    and p.name != "reflectance_report.json"}
        assert {p.name: p.read_bytes() for p in partial.iterdir()
                if p.name != "reflectance_report.json"} == expected

    @pytest.mark.parametrize("method", ["elm2", "aarr"])
    def test_empty_manifest_warns_and_succeeds(self, tmp_path, capsys,
                                               method):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "flight": {"id": "empty", "date": "2021-01-01",
                       "weather": "sunny", "altitude_ft": 150},
            "panels": {}, "images": []}))
        out = tmp_path / "reflectance"
        assert main(["reflect", "--manifest", str(path), "--out", str(out),
                     "--method", method]) == 0
        assert capsys.readouterr().err == (
            "warning: manifest lists no images; nothing to process\n")
        assert [p.name for p in out.iterdir()] == ["reflectance_report.json"]
        assert json.loads((out / "reflectance_report.json").read_text()) == {
            "method": method, "selection": "dls", "images": {},
            "failures": {}}

    def test_elm_without_calibration_image_is_usage_error(self, tmp_path,
                                                          capsys):
        path = helpers.build_flight(tmp_path / "nocal", field_images=1)
        raw = json.loads(path.read_text())
        for image in raw["images"]:
            image.pop("calibration", None)
        path.write_text(json.dumps(raw))
        assert main(["reflect", "--manifest", str(path),
                     "--out", str(tmp_path / "out"),
                     "--method", "elm2"]) == 1
        assert "calibration" in capsys.readouterr().err

    def test_elm2_without_a_dark_panel_is_usage_error(self, flight,
                                                      tmp_path, capsys):
        """elm2 fits through a dark panel: with none among the calibration
        images, one line, and no ``--out``."""
        raw = json.loads(flight.read_text())
        for image in raw["images"]:
            image.get("calibration", {}).pop("dark", None)
        flight.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["reflect", "--manifest", str(flight), "--out", str(out),
                     "--method", "elm2"]) == 1
        assert capsys.readouterr().err == (
            "error: method elm2 needs at least one calibration image with a "
            "dark panel\n")
        assert not out.exists()


class TestFailedImageWritesNothing:
    """Bands stream one at a time, so a band that fails after earlier bands
    were written must take those planes and sidecars with it."""

    @pytest.mark.parametrize("command, report_name", [
        (["convert"], "conversion_log.json"),
        (["reflect", "--method", "elm2"], "reflectance_report.json"),
        (["reflect", "--method", "aarr", "--write-pgm"],
         "reflectance_report.json"),
    ], ids=["convert", "reflect-elm2", "reflect-aarr-pgm"])
    def test_bad_vignette_in_band_4(self, flight, tmp_path, command,
                                    report_name):
        raw = json.loads(flight.read_text())
        image = next(i for i in raw["images"] if i["image_id"] == "field_2")
        band = next(b for b in image["bands"] if b["band_index"] == 4)
        # k(r) = 1 - r is not positive one pixel from the centre.
        band["metadata"]["vignette"]["coefficients"][0] = -1.0
        flight.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(command + ["--manifest", str(flight),
                               "--out", str(out)]) == 2
        report = json.loads((out / report_name).read_text())
        assert "vignette" in report["failures"]["field_2"]
        assert "field_1" in report["images"]
        assert list(out.glob("field_1_b*.f32"))
        assert not list(out.glob("field_2_b*"))


class TestNdviCommand:
    def test_panel_scene_ndvi(self, flight, tmp_path):
        reflect_out = tmp_path / "reflect"
        main(["reflect", "--manifest", str(flight), "--out",
              str(reflect_out), "--method", "aarr"])
        out = tmp_path / "ndvi" / "field_1.f32"
        assert main(["ndvi", "--red", str(reflect_out / "field_1_b3.f32"),
                     "--nir", str(reflect_out / "field_1_b5.f32"),
                     "--out", str(out)]) == 0
        values, meta = read_plane(out)
        assert meta["units"] == "ndvi"
        # Both panels are spectrally flat, so NDVI is 0 everywhere.
        np.testing.assert_allclose(values, 0.0, atol=1e-6)
        log = json.loads((out.parent / (out.name + ".log.json")).read_text())
        assert log["zero_denominator_pixels"] == 0

    def test_band_mismatch_is_usage_error(self, flight, tmp_path, capsys):
        reflect_out = tmp_path / "reflect"
        main(["reflect", "--manifest", str(flight), "--out",
              str(reflect_out), "--method", "aarr"])
        assert main(["ndvi", "--red", str(reflect_out / "field_1_b2.f32"),
                     "--nir", str(reflect_out / "field_1_b5.f32"),
                     "--out", str(tmp_path / "x.f32")]) == 1
        assert "band" in capsys.readouterr().err
        sidecar = reflect_out / "field_1_b3.f32.json"
        meta = json.loads(sidecar.read_text())
        del meta["band_index"]
        sidecar.write_text(json.dumps(meta))
        assert main(["ndvi", "--red", str(reflect_out / "field_1_b3.f32"),
                     "--nir", str(reflect_out / "field_1_b5.f32"),
                     "--out", str(tmp_path / "x.f32")]) == 1
        assert "'band_index'" in capsys.readouterr().err


    def _ndvi_with_sidecar(self, flight, tmp_path, **changes):
        reflect_out = tmp_path / "reflect"
        main(["reflect", "--manifest", str(flight), "--out",
              str(reflect_out), "--method", "aarr"])
        sidecar = reflect_out / "field_1_b3.f32.json"
        sidecar.write_text(json.dumps(
            dict(json.loads(sidecar.read_text()), **changes)))
        return main(["ndvi", "--red", str(reflect_out / "field_1_b3.f32"),
                     "--nir", str(reflect_out / "field_1_b5.f32"),
                     "--out", str(tmp_path / "x.f32")])

    @pytest.mark.parametrize("key", ["width", "height"])
    @pytest.mark.parametrize("value", [-1, 0, 2.7, True, "64", None, [64]])
    def test_bad_sidecar_dimension_is_usage_error(self, flight, tmp_path,
                                                  capsys, key, value):
        assert self._ndvi_with_sidecar(flight, tmp_path,
                                       **{key: value}) == 1
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "Traceback" not in err

    def test_negative_pair_matching_the_size_is_usage_error(
            self, flight, tmp_path, capsys):
        # -1 x -4 has a positive product; it once reached reshape.
        pixels = helpers.WIDTH * helpers.HEIGHT
        assert self._ndvi_with_sidecar(flight, tmp_path, width=-1,
                                       height=-pixels) == 1
        assert "'width'" in capsys.readouterr().err

    #: The sidecar ``write_plane`` gives the 3x4 red plane below, each node
    #: of which the property may replace.
    SIDECAR = {"band_index": 3, "byte_order": "little-endian",
               "dtype": "float32", "height": 3, "layout": "row-major",
               "units": "reflectance", "width": 4}

    @given(values=st.lists(st.floats(width=32), min_size=24, max_size=24),
           node=st.none() | st.sampled_from(list(helpers.json_paths(SIDECAR))),
           value=helpers.json_values)
    @example(values=[math.inf] + [0.5] * 23, node=None, value=None)
    @example(values=[0.5] * 12 + [math.nan] + [0.5] * 11, node=None,
             value=None)
    # A plane of 10^24 samples, which no file of 48 bytes holds.
    @example(values=[0.5] * 24, node=(),
             value=dict(SIDECAR, width=10 ** 12, height=10 ** 12))
    def test_any_mutated_input_exits_cleanly(self, tmp_path_factory, values,
                                             node, value):
        """Mutated plane values (red then NIR) and one mutated node of the
        red sidecar: an exit code of the contract, and no numpy warning."""
        root = tmp_path_factory.getbasetemp() / "mutated_ndvi"
        root.mkdir(exist_ok=True)
        red, nir = root / "red.f32", root / "nir.f32"
        planes = np.reshape(values, (2, 3, 4))
        write_plane(red, planes[0], band_index=3, units="reflectance")
        write_plane(nir, planes[1], band_index=5, units="reflectance")
        if node is not None:
            sidecar_path(red).write_text(json.dumps(
                helpers.replace_node(self.SIDECAR, node, value)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["ndvi", "--red", str(red), "--nir", str(nir),
                         "--out", str(root / "ndvi.f32")])
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1, 2, 3)


class TestEvaluateCommand:
    def _write_samples(self, path):
        rows = ["target_id,band_index,weather,altitude_ft,method,"
                "true_reflectance,estimated_reflectance"]
        rng = np.random.default_rng(53)
        for method in ("elm1", "elm2", "aarr"):
            for band in range(1, 6):
                for i in range(3):
                    err = rng.normal(0, 0.02)
                    rows.append(f"t{i},{band},sunny,225,{method},"
                                f"0.3,{0.3 + err!r}")
        path.write_text("\n".join(rows) + "\n")

    def test_grand_report(self, tmp_path):
        samples = tmp_path / "samples.csv"
        self._write_samples(samples)
        out = tmp_path / "eval"
        assert main(["evaluate", "--samples", str(samples),
                     "--out", str(out)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("mean_signed")

    def test_overall_by_method_table(self, tmp_path):
        samples = tmp_path / "samples.csv"
        self._write_samples(samples)
        out = tmp_path / "eval"
        main(["evaluate", "--samples", str(samples), "--out", str(out),
              "--group-by", "method"])
        lines = (out / "overall_by_method.csv").read_text().splitlines()
        assert lines[0] == "statistic,elm1,elm2,aarr"
        assert len(lines) == 6
        assert lines[5].split(",") == ["n", "15", "15", "15"]

    def test_per_band_by_method_table(self, tmp_path):
        samples = tmp_path / "samples.csv"
        self._write_samples(samples)
        out = tmp_path / "eval"
        main(["evaluate", "--samples", str(samples), "--out", str(out),
              "--group-by", "band_index,method"])
        lines = (out / "per_band_by_method.csv").read_text().splitlines()
        assert lines[0].split(",")[:3] == \
            ["band_index", "elm1_mean_signed", "elm1_std_signed"]
        assert len(lines) == 6

    def test_rerun_leaves_only_its_own_files(self, tmp_path):
        """Reruns into one folder, each with another layout: after each,
        the folder holds what a fresh run writes, and no earlier layout."""
        samples = tmp_path / "samples.csv"
        self._write_samples(samples)
        for i, group_by in enumerate(("method", "band_index,method",
                                      "weather")):
            trees = []
            for out in (tmp_path / "eval", tmp_path / f"fresh_{i}"):
                assert main(["evaluate", "--samples", str(samples),
                             "--out", str(out), "--group-by", group_by]) == 0
                trees.append({path.name: path.read_bytes()
                              for path in out.iterdir()})
            assert trees[0] == trees[1]

    def test_unknown_group_field_is_usage_error(self, tmp_path, capsys):
        """An unknown field, or one named twice: one line, and no file."""
        samples = tmp_path / "samples.csv"
        self._write_samples(samples)
        for group_by in ("pilot", "method,method"):
            out = tmp_path / "eval"
            assert main(["evaluate", "--samples", str(samples),
                         "--out", str(out), "--group-by", group_by]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: cannot group by")
            assert err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("tail", [b"t0,1,sunny,225,aarr,0.3,\xff\n",
                                      b"t0," + b"1" * 200_000 + b"\n"],
                             ids=["not-utf8", "over-long-field"])
    def test_unreadable_samples_is_usage_error(self, tmp_path, capsys, tail):
        samples = tmp_path / "samples.csv"
        self._write_samples(samples)
        samples.write_bytes(samples.read_bytes() + tail)
        assert main(["evaluate", "--samples", str(samples),
                     "--out", str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {samples}")

    #: Three valid rows, each cell of which the property below may replace.
    SAMPLES = [["t0", "1", "sunny", "225", "elm1", "0.5", "0.52"],
               ["t1", "2", "cloudy", "150", "elm2", "0.5", "0.47"],
               ["t2", "3", "partly-cloudy", "375", "aarr", "0.5", "0.5"]]
    CELL_VALUES = ["1e308", "-1e308", "1e309", "5e-324", "nan", "inf",
                   "-inf", "", "-0.0", "0", "6", "300", "reflectance",
                   "elm9", "foggy"]

    @given(cells=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 6),
                                    st.sampled_from(CELL_VALUES)
                                    | st.text(max_size=6)),
                          min_size=1, max_size=2),
           group_by=st.sampled_from(["", "method", "band_index,method"]))
    # A difference that overflows: inf, nan, inf, nan in report.csv.
    @example(cells=[(0, 5, "-1e308"), (0, 6, "1e308")], group_by="")
    # Two errors whose sum overflows the mean.
    @example(cells=[(0, 6, "1e308"), (1, 6, "1e308")], group_by="")
    def test_any_mutated_cell_exits_zero_or_one(self, tmp_path_factory,
                                                cells, group_by):
        root = tmp_path_factory.getbasetemp() / "mutated_samples"
        root.mkdir(exist_ok=True)
        rows = [list(row) for row in self.SAMPLES]
        for row, column, value in cells:
            rows[row][column] = value
        samples = root / "samples.csv"
        with samples.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["target_id", "band_index", "weather",
                             "altitude_ft", "method", "true_reflectance",
                             "estimated_reflectance"])
            writer.writerows(rows)
        out = root / "eval"
        shutil.rmtree(out, ignore_errors=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["evaluate", "--samples", str(samples),
                         "--out", str(out), "--group-by", group_by])
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []
        assert code in (0, 1)
        if code == 1:
            assert not out.exists()
        else:
            with (out / "report.csv").open(newline="") as handle:
                report = list(csv.DictReader(handle))
            assert all(math.isfinite(float(row[name])) for row in report
                       for name in ("mean_signed", "std_signed",
                                    "mean_absolute", "std_absolute"))


class TestSimulateCommand:
    GRID = {"atmospheres": ["us-standard"], "days": [171],
            "times_utc": [16.0], "visibilities_km": [5.0, 23.0],
            "sensor_altitudes_km": [0.214, 0.282],
            "summary_exclude_altitudes_km": []}

    def _run(self, tmp_path, config):
        config_path = tmp_path / "grid.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "sim"
        code = main(["simulate", "--out", str(out),
                     "--grid-config", str(config_path)])
        return code, out

    def test_tiny_grid_outputs(self, tmp_path):
        code, out = self._run(tmp_path, self.GRID)
        assert code == 0
        lines = (out / "errors.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 4 * 5  # cells * targets * bands
        assert lines[0].startswith("atmosphere,day,time_utc")
        band_lines = (out / "summary_band.csv").read_text().splitlines()
        assert len(band_lines) == 6
        for attribute in ("atmosphere", "day", "time_utc", "visibility_km",
                          "sensor_altitude_km", "target"):
            assert (out / f"summary_{attribute}.csv").is_file()

    def test_rerun_is_byte_identical(self, tmp_path):
        _, out = self._run(tmp_path, dict(self.GRID, times_utc=[6.0, 16.0]))
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(first) == sorted(simulate_module.STUDY_FILES)
        self._run(tmp_path, dict(self.GRID, times_utc=[6.0, 16.0]))
        assert {path.name: path.read_bytes()
                for path in out.iterdir()} == first

    def test_night_hour_is_partial(self, tmp_path):
        code, out = self._run(tmp_path, dict(self.GRID, times_utc=[6.0, 16.0]))
        assert code == 2
        log = json.loads((out / "simulate_log.json").read_text())
        assert (log["cells"], log["ran"]) == (8, 4)
        assert [(c["time_utc"], c["visibility_km"], c["sensor_altitude_km"])
                for c in log["skipped"]] == [
            (6.0, vis, alt) for vis in (5.0, 23.0) for alt in (0.214, 0.282)]
        assert all("not positive" in c["reason"] for c in log["skipped"])
        rows = (out / "errors.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 * 4 * 5
        assert {row.split(",")[2] for row in rows} == {"16.0"}

    def test_all_night_grid_is_total_failure(self, tmp_path):
        code, out = self._run(tmp_path, dict(self.GRID, times_utc=[6.0]))
        assert code == 3
        log = json.loads((out / "simulate_log.json").read_text())
        assert (log["cells"], log["ran"], len(log["skipped"])) == (4, 0, 4)
        assert len((out / "errors.csv").read_text().splitlines()) == 1

    @staticmethod
    def _spectrum(tmp_path, value):
        path = tmp_path / "spectrum.csv"
        path.write_text(f"wavelength_nm,value\n330,{value}\n1200,{value}\n")
        return str(path)

    @pytest.mark.parametrize("override, named", [
        (lambda tmp: {"diffuse_fraction": 1.5}, "diffuse fraction"),
        (lambda tmp: {"extinction_layer_km": 0.0}, "extinction layer"),
        (lambda tmp: {"path_radiance_factor": -0.5}, "path radiance factor"),
        (lambda tmp: {"solar_spectrum": TestSimulateCommand._spectrum(
            tmp, -1.0)}, "exo_irradiance must be non-negative"),
        (lambda tmp: {"targets": {"dark": TestSimulateCommand._spectrum(
            tmp, -0.1)}}, "target reflectance must be non-negative"),
    ])
    def test_bad_model_parameter_exits_before_any_cell(self, tmp_path, capsys,
                                                      override, named):
        code, out = self._run(tmp_path, dict(self.GRID, **override(tmp_path)))
        assert code == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_latitude_off_the_globe_is_usage_error(self, tmp_path, capsys):
        code, out = self._run(tmp_path, dict(self.GRID, latitude_deg=95.0))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: 'latitude_deg' 95.0 outside [-90, 90] degrees\n")
        assert not out.exists()

    def test_over_long_spectrum_field_is_usage_error(self, tmp_path, capsys):
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("wavelength_nm,value\n330," + "1" * 200_000)
        code, out = self._run(tmp_path, dict(self.GRID,
                                             solar_spectrum=str(spectrum)))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {spectrum}:2: ")
        assert not out.exists()

    def test_bad_visibility_is_usage_error(self, tmp_path, capsys):
        config = dict(self.GRID, visibilities_km=[0.0])
        code, _ = self._run(tmp_path, config)
        assert code == 1
        assert "visibility" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        code, _ = self._run(tmp_path, dict(self.GRID, wind=3))
        assert code == 1

    def test_quoted_target_name_round_trips(self, tmp_path):
        names = ['grass, "wet"\r\nlawn', '50% "wet", lawn']
        spectrum = self._spectrum(tmp_path, 0.3)
        code, out = self._run(tmp_path, dict(
            self.GRID, targets=dict.fromkeys(names, spectrum)))
        assert code == 0
        with (out / "errors.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 4 * 2 * 5
        assert [row[5] for row in rows[1:11]] == [names[0]] * 5 + \
            [names[1]] * 5
        assert {row[5] for row in rows[1:]} == set(names)

    @settings(max_examples=50, deadline=None)
    @given(names=st.lists(st.text(alphabet=' ,"\r\nab\'\t;%', max_size=6),
                          min_size=1, max_size=3, unique=True),
           model=st.text(alphabet=' ,"\r\nx%', min_size=1, max_size=4))
    def test_error_lines_equal_csv_writer(self, names, model):
        """The chunked ``errors.csv`` lines are ``csv.writer``'s, byte for
        byte, whatever the text fields hold and wherever chunks end."""
        rng = np.random.default_rng(len(names))
        table = SimulationTable(
            axes=((model,), (171,), (16.0, 17.5), (5.0,), (0.214, 1.0)),
            targets=tuple(names), bands=(1, 3),
            truth=rng.random((len(names), 2)), cells=np.array([0, 2, 3]),
            recovered=rng.normal(size=(3, len(names), 2)))
        expected = io.StringIO()
        writer = csv.writer(expected)
        cells = list(itertools.product(*table.axes))
        for i, index in enumerate(table.cells):
            model_name, day, hour, visibility, altitude = cells[index]
            for t, target in enumerate(table.targets):
                for b, band in enumerate(table.bands):
                    writer.writerow([
                        model_name, day, repr(hour), repr(visibility),
                        repr(altitude), target, band,
                        repr(float(table.truth[t, b])),
                        repr(float(table.recovered[i, t, b])),
                        repr(float(table.signed_error[i, t, b]))])
        assert b"".join(_error_lines(table)) == expected.getvalue().encode()
        # One cell a chunk at 1 and 2 rows; two cells and then one at 4
        # rows when a cell has two.
        for rows in (1, 2, 4):
            with mock.patch.object(simulate_module, "_CHUNK_ROWS", rows):
                assert b"".join(_error_lines(table)) == \
                    expected.getvalue().encode()

    def test_error_lines_stream_in_bounded_chunks(self):
        """200 cells of 20 rows come in more than one string, each holding
        whole cells and at most one chunk's rows, so ``errors.csv`` is
        never held whole in memory."""
        rng = np.random.default_rng(0)
        targets, bands = ("a", "b", "c", "d"), (1, 2, 3, 4, 5)
        table = SimulationTable(
            axes=(("tropical",), (171,), tuple(range(200)), (5.0,), (0.2,)),
            targets=targets, bands=bands, truth=rng.random((4, 5)),
            cells=np.arange(200), recovered=rng.random((200, 4, 5)))
        rows = [chunk.count(b"\r\n") for chunk in _error_lines(table)]
        assert len(rows) > 1
        assert max(rows) <= simulate_module._CHUNK_ROWS
        assert all(count % 20 == 0 for count in rows)
        assert sum(rows) == 200 * 20

    @pytest.mark.parametrize("config, named", [
        ({"days": ["x"]}, "'days'"),
        ({"days": 171}, "'days'"),
        ({"latitude_deg": "north"}, "'latitude_deg'"),
        ({"targets": ["grass"]}, "'targets'"),
        (["days", 171], "JSON object"),
        ({"days": [True]}, "'days'"),
        ({"days": [171.9]}, "'days'"),
        ({"targets": {"grass": 5}}, "'targets'"),
        ({"solar_spectrum": 5}, "'solar_spectrum'"),
        ({"targets": {}}, "'targets'"),
        ({"solar_spectrum": ""}, "'solar_spectrum'"),
        ({"targets": {"grass": ""}}, "'grass'"),
    ])
    def test_mistyped_config_is_usage_error(self, tmp_path, capsys, config,
                                            named):
        code, _ = self._run(tmp_path, config)
        assert code == 1
        assert named in capsys.readouterr().err


@pytest.fixture(scope="module")
def flat_spectrum(tmp_path_factory):
    path = tmp_path_factory.mktemp("spectrum") / "flat.csv"
    path.write_text("wavelength_nm,value\n330,0.3\n1200,0.3\n")
    return str(path)


class TestSimulateParts:
    """``simulate`` splits its sweep by atmosphere across one process per
    usable CPU; its outputs, exit code and stderr do not depend on how
    many, and no child outlives the command."""

    GRID = {"atmospheres": list(simulate_module.ATMOSPHERE_PRESETS),
            "days": [171], "times_utc": [16.0], "visibilities_km": [5.0],
            "sensor_altitudes_km": [0.214]}

    @staticmethod
    def _run(root, config, parts, rerun=False):
        """``main``'s exit code and stderr, and the files its output
        directory holds after it, with the CPUs it sees set to ``parts``;
        with ``rerun``, over what the last run at ``parts`` left there."""
        config_path = root / "grid.json"
        config_path.write_text(json.dumps(config))
        out = root / f"sim{parts}"
        if not rerun:
            shutil.rmtree(out, ignore_errors=True)
        stderr = io.StringIO()
        with helpers.workers(parts), contextlib.redirect_stderr(stderr):
            code = main(["simulate", "--out", str(out),
                         "--grid-config", str(config_path)])
        files = ({path.name: path.read_bytes() for path in out.iterdir()}
                 if out.exists() else None)
        return code, stderr.getvalue(), files

    # Each example runs four commands: a quarter of the profile's count.
    @settings(max_examples=settings.default.max_examples // 4)
    @given(atmospheres=st.lists(
               st.sampled_from(list(simulate_module.ATMOSPHERE_PRESETS)),
               min_size=1, max_size=4, unique=True),
           times=st.lists(st.sampled_from([6.0, 16.0, 17.5]), min_size=1,
                          max_size=2, unique=True),
           visibilities=st.lists(st.sampled_from([5.0, 23.0]), min_size=1,
                                 max_size=2, unique=True),
           targets=st.lists(st.sampled_from(
               ["grass", '50% "wet", lawn', "dry\r\nsoil"]), min_size=1,
               max_size=3, unique=True))
    def test_outputs_do_not_depend_on_parts(self, flat_spectrum, atmospheres,
                                            times, visibilities, targets):
        config = dict(self.GRID, atmospheres=atmospheres, times_utc=times,
                      visibilities_km=visibilities,
                      sensor_altitudes_km=[0.214, 1.692],
                      targets={name: "bundled" if name == "grass"
                               else flat_spectrum for name in targets})
        with tempfile.TemporaryDirectory() as root:
            runs = [self._run(Path(root), config, parts)
                    for parts in (1, 2, 3, 4)]
        code, err, files = runs[0]
        assert code in (0, 2, 3)
        assert len(files) == 9
        assert all(run == runs[0] for run in runs[1:])
        helpers.no_child_left()

    def test_without_fork_one_process_runs_the_sweep(self, tmp_path,
                                                     monkeypatch):
        expected = self._run(tmp_path, self.GRID, 1)
        monkeypatch.delattr(os, "fork")
        assert self._run(tmp_path, self.GRID, 4) == expected

    @pytest.mark.parametrize("parts", [1, 2, 4])
    def test_sweep_error_in_a_later_part(self, tmp_path, monkeypatch, parts):
        """The last atmosphere's radiance is not finite: the same one line
        at every part count, and no file."""
        monkeypatch.setitem(simulate_module.ATMOSPHERE_PRESETS,
                            "us-standard", (math.nan, 0.14))
        code, err, files = self._run(tmp_path, self.GRID, parts)
        assert code == 1
        assert err == ("error: us-standard atmosphere, day 171, 16.0 h UTC: "
                       "radiance is not finite\n")
        assert files is None
        helpers.no_child_left()

    @pytest.mark.parametrize("model", ["tropical", "us-standard"],
                             ids=["parent", "child"])
    def test_interrupt_in_either_part(self, tmp_path, monkeypatch, capfd,
                                      model):
        sweep = simulate_module.run_maarr_grid

        def interrupted(grid):
            if model in grid.atmospheres:
                raise KeyboardInterrupt
            return sweep(grid)

        monkeypatch.setattr(simulate_module, "run_maarr_grid", interrupted)
        out = tmp_path / "out"
        try:
            with helpers.workers(2):
                code = main(["simulate", "--out", str(out)])
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped main")
        assert code == 130
        assert capfd.readouterr().err == "error: interrupted\n"
        assert not out.exists()
        helpers.no_child_left()

    def test_child_gone_without_a_result(self, tmp_path, monkeypatch):
        sweep = simulate_module.run_maarr_grid

        def vanishing(grid):
            if "tropical" not in grid.atmospheres:
                os._exit(0)
            return sweep(grid)

        monkeypatch.setattr(simulate_module, "run_maarr_grid", vanishing)
        code, err, files = self._run(tmp_path, self.GRID, 2)
        assert code == 1
        assert err == ("error: simulation part 2 of 2 ended without sending "
                       "its result\n")
        assert files is None
        helpers.no_child_left()

    def test_child_gone_before_its_rows(self, tmp_path, monkeypatch):
        """A part sends its table and its rows as one message, so a child
        that dies before its rows has sent nothing: the one line of a
        child gone without its result, and no ``--out``, though part 1's
        rows were written there."""
        lines = simulate_module._error_lines

        def gone(table):
            if "tropical" not in table.axes[0]:
                os._exit(1)
            return lines(table)

        monkeypatch.setattr(simulate_module, "_error_lines", gone)
        code, err, files = self._run(tmp_path, self.GRID, 3)
        assert code == 1
        assert err == ("error: simulation part 2 of 3 ended without sending "
                       "its result\n")
        assert files is None
        helpers.no_child_left()

    def test_child_write_error(self, tmp_path):
        """A full disk under a child's rows, as this process writes them,
        in a fresh directory and in a rerun over a finished study: no file
        of either run is left, and no directory the run created."""
        real_open = Path.open

        class FullDisk(io.BufferedWriter):
            """Full from the rows of the last atmosphere, a child's."""

            def write(self, data):
                if b"us-standard" in data:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(data)

        def opened(path, mode="r", *args, **kwargs):
            if path.name == "errors.csv" and mode == "wb":
                return FullDisk(io.FileIO(path, mode))
            return real_open(path, mode, *args, **kwargs)

        for parts, rerun in ((3, False), (2, True)):
            if rerun:
                assert self._run(tmp_path, self.GRID, parts)[0] == 0
            with mock.patch.object(Path, "open", opened):
                code, err, files = self._run(tmp_path, self.GRID, parts,
                                             rerun)
            assert code == 1
            assert err == (f"error: [Errno {errno.ENOSPC}] "
                           f"{os.strerror(errno.ENOSPC)}\n")
            assert files == ({} if rerun else None)
            helpers.no_child_left()

    def test_children_open_no_file(self, tmp_path, monkeypatch):
        """A child that opens a file by name ends there; the run's bytes
        are those of one process."""
        expected = self._run(tmp_path, self.GRID, 1)
        parent = os.getpid()

        def guarded(real):
            def call(file, *args, **kwargs):
                if os.getpid() != parent and not isinstance(file, int):
                    os._exit(1)
                return real(file, *args, **kwargs)
            return call

        for module in (builtins, io, os):
            monkeypatch.setattr(module, "open", guarded(module.open))
        assert self._run(tmp_path, self.GRID, 3) == expected
        helpers.no_child_left()

    def test_interrupt_while_summaries_are_written(self, tmp_path,
                                                   monkeypatch):
        """An interrupt in a rerun, after ``errors.csv`` and two summaries
        are written, leaves none of the study's files."""
        assert len(self._run(tmp_path, self.GRID, 2)[2]) == 9
        writer, opened = csv.writer, []

        def interrupted(handle, *args, **kwargs):
            name = Path(getattr(handle, "name", "")).name
            if name.startswith("summary_"):
                opened.append(name)
                if len(opened) == 3:
                    raise KeyboardInterrupt
            return writer(handle, *args, **kwargs)

        monkeypatch.setattr(csv, "writer", interrupted)
        code, err, files = self._run(tmp_path, self.GRID, 2, rerun=True)
        assert (code, err) == (130, "error: interrupted\n")
        assert len(opened) == 3
        assert files == {}
        helpers.no_child_left()


def _sweep(band_index, flat_ratio=False):
    """A monochromator sweep document for ``band_index``: 41 samples, 2 nm
    apart, around ``500 + 50 * band_index`` nm."""
    center = 500.0 + 50.0 * band_index
    wavelengths = np.arange(center - 40.0, center + 40.5, 2.0)
    power = np.full(wavelengths.size, 2e-6)
    if flat_ratio:
        counts = np.zeros(wavelengths.size)
    else:
        counts = 4000.0 * np.exp(-0.5 * ((wavelengths - center) / 12) ** 2)
    return {"band_index": band_index, "gain": 1.0, "exposure_us": 1000.0,
            "samples": [[float(w), float(c), float(p)]
                        for w, c, p in zip(wavelengths, counts, power)]}


class TestRsrCommand:
    def _write_run(self, run_dir, band_index, flat_ratio=False):
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / f"band_{band_index}.json").write_text(
            json.dumps(_sweep(band_index, flat_ratio)))

    def test_reduces_sweeps_to_curves(self, tmp_path):
        run_dir = tmp_path / "run"
        for band in range(1, 6):
            self._write_run(run_dir, band)
        out = tmp_path / "rsr"
        assert main(["rsr", "--run-dir", str(run_dir),
                     "--out", str(out)]) == 0
        log = json.loads((out / "rsr_log.json").read_text())
        assert sorted(log["bands"]) == ["1", "2", "3", "4", "5"]
        from suascal.rsr import read_spectral_curve
        curve = read_spectral_curve(out / "rsr_band_3.csv")
        assert curve.values.max() == pytest.approx(1.0)

    def test_degenerate_sweep_warns_but_succeeds(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        self._write_run(run_dir, 1, flat_ratio=True)
        out = tmp_path / "rsr"
        assert main(["rsr", "--run-dir", str(run_dir),
                     "--out", str(out)]) == 0
        assert "degenerate" in capsys.readouterr().err
        log = json.loads((out / "rsr_log.json").read_text())
        assert log["bands"]["1"]["degenerate"] is True

    def test_failed_run_writes_nothing(self, tmp_path, capsys):
        """A malformed third sweep: one line, and no file, not even the
        curves or the warning of the sweeps before it."""
        run_dir = tmp_path / "run"
        self._write_run(run_dir, 1, flat_ratio=True)
        self._write_run(run_dir, 2)
        payload = _sweep(3)
        payload["samples"][5].pop()
        (run_dir / "band_3.json").write_text(json.dumps(payload))
        out = tmp_path / "rsr"
        assert main(["rsr", "--run-dir", str(run_dir),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {run_dir / 'band_3.json'}: 'samples'[5] must be "
            "[wavelength_nm, mean_counts, power_w], got 2 values\n")
        assert not out.exists()

    def test_rerun_with_fewer_sweeps_drops_the_old_curves(self, tmp_path):
        """A two-sweep rerun over a three-sweep run's output leaves only
        the curves its log lists, and no file that is not a curve."""
        run_dir, out = tmp_path / "run", tmp_path / "rsr"
        for band in (1, 2, 3):
            self._write_run(run_dir, band)
        argv = ["rsr", "--run-dir", str(run_dir), "--out", str(out)]
        assert main(argv) == 0
        first = (out / "rsr_band_1.csv").read_bytes()
        for name in ("rsr_band_07.csv", "rsr_band_x.csv", "notes.txt"):
            (out / name).write_text("kept")
        (run_dir / "band_3.json").unlink()
        assert main(argv) == 0
        log = json.loads((out / "rsr_log.json").read_text())
        assert sorted(log["bands"]) == ["1", "2"]
        assert sorted(path.name for path in out.iterdir()) == [
            "notes.txt", "rsr_band_07.csv", "rsr_band_1.csv",
            "rsr_band_2.csv", "rsr_band_x.csv", "rsr_log.json"]
        assert (out / "rsr_band_1.csv").read_bytes() == first

    def test_empty_run_dir_is_usage_error(self, tmp_path):
        (tmp_path / "run").mkdir()
        assert main(["rsr", "--run-dir", str(tmp_path / "run"),
                     "--out", str(tmp_path / "rsr")]) == 1

    @pytest.mark.parametrize("edit, named", [
        (lambda p: p.pop("exposure_us"), "'exposure_us'"),
        (lambda p: p["samples"][3].pop(), "'samples'[3]"),
        (lambda p: p.update(gain="1"), "'gain'"),
        (lambda p: p.update(band_index=True), "'band_index'"),
        (lambda p: p["samples"][0].__setitem__(1, None), "'samples'[0][1]"),
        (lambda p: p.update(band_index=2),
         "'band_index' 2 is declared by both"),
        (lambda p: p["samples"][20].__setitem__(1, 1e306),
         "band_1.json: count-to-power ratio overflows at 550 nm"),
        (lambda p: p.update(exposure_us=5e-324),
         "band_1.json: spectral curve contains non-finite samples"),
        (lambda p: p["samples"][3].__setitem__(2, -1e-6),
         "band_1.json: monochromator power must be positive"),
        (lambda p: p.update(band_index=0),
         "band_1.json: 'band_index' 0 is not a band index 1..5"),
        (lambda p: p.update(band_index=6),
         "band_1.json: 'band_index' 6 is not a band index 1..5"),
    ], ids=["exposure-missing", "sample-pair", "gain-text", "band_index-bool",
            "count-null", "band_index-duplicate", "ratio-overflow",
            "normalized-overflow", "power-negative", "band_index-0",
            "band_index-6"])
    def test_malformed_sweep_is_usage_error(self, tmp_path, capsys, edit,
                                            named):
        run_dir = tmp_path / "run"
        self._write_run(run_dir, 1)
        self._write_run(run_dir, 2)
        band_file = run_dir / "band_1.json"
        payload = json.loads(band_file.read_text())
        edit(payload)
        band_file.write_text(json.dumps(payload))
        assert main(["rsr", "--run-dir", str(run_dir),
                     "--out", str(tmp_path / "rsr")]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "rsr").exists()

    @pytest.mark.parametrize("scale, named", [
        ("1e308", "band_1.json: shift scale 1e+308 takes the response "
                  "beyond the float range"),
        ("inf", "--shift-scale: must be a finite number above zero, "
                "got 'inf'"),
        ("nan", "--shift-scale: must be a finite number above zero, "
                "got 'nan'"),
        ("0", "--shift-scale: must be a finite number above zero, got '0'"),
        ("-1", "--shift-scale: must be a finite number above zero, "
               "got '-1'"),
    ])
    def test_bad_shift_scale_is_usage_error(self, tmp_path, capsys, scale,
                                            named):
        run_dir = tmp_path / "run"
        self._write_run(run_dir, 1)
        out = tmp_path / "rsr"
        argv = ["rsr", "--run-dir", str(run_dir), "--out", str(out),
                f"--shift-scale={scale}"]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 1
        err = capsys.readouterr().err
        assert named in err
        assert "Warning" not in err
        assert not (out / "rsr_band_1.csv").exists()

    @given(node=st.sampled_from(list(helpers.json_paths(_sweep(1)))),
           value=helpers.json_values)
    # A count whose ratio to the 2e-6 W power overflows float64.
    @example(node=("samples", 0, 1), value=1e306)
    def test_any_mutated_node_exits_zero_or_one(self, tmp_path_factory,
                                                node, value):
        run_dir = tmp_path_factory.getbasetemp() / "mutated_sweep"
        run_dir.mkdir(exist_ok=True)
        (run_dir / "band_1.json").write_text(
            json.dumps(helpers.replace_node(_sweep(1), node, value)))
        assert main(["rsr", "--run-dir", str(run_dir),
                     "--out", str(run_dir / "out")]) in (0, 1)


def no_space(*names):
    """A context manager under which writing a file named one of
    ``names`` raises ``ENOSPC``, once its writer has opened it."""
    opened = Path.open

    def full(path, mode="r", *args, **kwargs):
        handle = opened(path, mode, *args, **kwargs)
        if path.name in names and "w" in mode:
            handle.close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return handle

    return mock.patch.object(Path, "open", full)


class TestFailedWriteLeavesNothing:
    """A command whose write fails exits 1 with one line and leaves none
    of its files, new or left by an earlier run, and no folder it created:
    here ``new`` and the folder in it."""

    LINE = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"

    def test_rsr(self, tmp_path, capsys):
        run_dir, out = tmp_path / "run", tmp_path / "rsr"
        for band in (1, 2, 3):
            TestRsrCommand()._write_run(run_dir, band)
        argv = ["rsr", "--run-dir", str(run_dir), "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        with no_space("rsr_band_3.csv"):
            assert main(argv) == 1
            assert main([*argv[:-1], str(tmp_path / "new" / "rsr")]) == 1
        assert capsys.readouterr().err == 2 * self.LINE
        assert not list(out.iterdir())
        assert not (tmp_path / "new").exists()

    def test_ndvi(self, flight, tmp_path, capsys):
        planes = tmp_path / "reflect"
        assert main(["reflect", "--manifest", str(flight), "--out",
                     str(planes), "--method", "aarr"]) == 0
        out = tmp_path / "ndvi" / "n.f32"
        argv = ["ndvi", "--red", str(planes / "field_1_b3.f32"),
                "--nir", str(planes / "field_1_b5.f32"), "--out", str(out)]
        assert main(argv) == 0
        with no_space("n.f32.log.json"):
            assert main(argv) == 1
            assert main([*argv[:-1],
                         str(tmp_path / "new" / "ndvi" / "n.f32")]) == 1
        assert capsys.readouterr().err == 2 * self.LINE
        assert not list(out.parent.iterdir())
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("group_by, layout", [
        ("method", "overall_by_method.csv"),
        ("band_index,method", "per_band_by_method.csv")])
    def test_evaluate(self, tmp_path, capsys, group_by, layout):
        samples, out = tmp_path / "samples.csv", tmp_path / "eval"
        TestEvaluateCommand()._write_samples(samples)
        argv = ["evaluate", "--samples", str(samples), "--group-by",
                group_by, "--out", str(out)]
        assert main(argv) == 0
        with no_space(layout):
            assert main(argv) == 1
            assert main([*argv[:-1], str(tmp_path / "new" / "eval")]) == 1
        assert capsys.readouterr().err == 2 * self.LINE
        assert not list(out.iterdir())
        assert not (tmp_path / "new").exists()

    def test_directory_at_an_output_name(self, tmp_path, capsys):
        """A directory at ``report.csv``, which no unlink removes: one
        line, and every other file of the run is still removed, here the
        earlier run's ``overall_by_method.csv``."""
        samples, out = tmp_path / "samples.csv", tmp_path / "eval"
        TestEvaluateCommand()._write_samples(samples)
        argv = ["evaluate", "--samples", str(samples), "--group-by",
                "method", "--out", str(out)]
        assert main(argv) == 0
        (out / "report.csv").unlink()
        (out / "report.csv").mkdir()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out / "report.csv") in err
        assert [path.name for path in out.iterdir()] == ["report.csv"]


class TestLinksAtOutputNames:
    """A command removes every file it may write in its folder before it
    writes, so a symlink or hard link at an output name is replaced, never
    written through: the link's target keeps its bytes, and the folder
    holds a fresh run's files, each a regular file."""

    def _command(self, command, tmp_path, request):
        """``command``'s arguments up to its ``--out`` value, and the
        names it may write in its folder."""
        if command == "simulate":
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps(dict(
                TestSimulateCommand.GRID, visibilities_km=[23.0],
                sensor_altitudes_km=[0.214])))
            return (["simulate", "--grid-config", str(grid), "--out"],
                    simulate_module.STUDY_FILES)
        if command == "rsr":
            for band in (1, 2):
                TestRsrCommand()._write_run(tmp_path / "run", band)
            return (["rsr", "--run-dir", str(tmp_path / "run"), "--out"],
                    ["rsr_log.json",
                     *(f"rsr_band_{band}.csv" for band in range(1, 6))])
        if command == "ndvi":
            planes = tmp_path / "reflect"
            assert main(["reflect", "--manifest",
                         str(request.getfixturevalue("flight")),
                         "--out", str(planes), "--method", "aarr"]) == 0
            return (["ndvi", "--red", str(planes / "field_1_b3.f32"),
                     "--nir", str(planes / "field_1_b5.f32"), "--out"],
                    ["n.f32", "n.f32.json", "n.f32.log.json"])
        TestEvaluateCommand()._write_samples(tmp_path / "samples.csv")
        return (["evaluate", "--samples", str(tmp_path / "samples.csv"),
                 "--group-by", "method", "--out"],
                ["report.csv", "overall_by_method.csv",
                 "per_band_by_method.csv"])

    @pytest.mark.parametrize("make", [os.symlink, os.link],
                             ids=["symlink", "hardlink"])
    @pytest.mark.parametrize("command",
                             ["simulate", "rsr", "ndvi", "evaluate"])
    def test_a_link_is_replaced_not_written_through(self, tmp_path, request,
                                                    command, make):
        argv, names = self._command(command, tmp_path, request)
        victims, out, fresh = (tmp_path / name
                               for name in ("victims", "out", "fresh"))
        victims.mkdir()
        out.mkdir()
        for name in names:
            (victims / name).write_text(f"not {name}\n")
            make(victims / name, out / name)

        def run(folder: Path) -> int:
            return main([*argv, str(folder / "n.f32" if command == "ndvi"
                                    else folder)])

        assert run(out) == run(fresh) == 0
        assert {path.name: path.read_text() for path in victims.iterdir()} \
            == {name: f"not {name}\n" for name in names}
        assert all(not path.is_symlink() and path.stat().st_nlink == 1
                   for path in out.iterdir())
        assert {path.name: path.read_bytes() for path in out.iterdir()} == \
            {path.name: path.read_bytes() for path in fresh.iterdir()}


class TestParserContract:
    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["reflect", "--method", "sorcery"])
        assert excinfo.value.code == 1

    @pytest.mark.parametrize("command", [["convert"],
                                         ["reflect", "--method", "elm2"]])
    def test_thread_count_does_not_change_outputs(self, flight, tmp_path,
                                                  command):
        trees = []
        for i, workers in enumerate((None, 1, 2, 3)):
            out = tmp_path / str(i)
            with helpers.workers(workers):
                assert main(command + ["--manifest", str(flight),
                                       "--out", str(out)]) == 0
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert all(tree == trees[0] for tree in trees[1:])

    def test_bad_thread_count(self, flight, tmp_path, capsys):
        """The worker count comes from the CPU set alone (restrict it with
        ``taskset``), so ``--threads`` is an unknown argument."""
        with pytest.raises(SystemExit) as excinfo:
            main(["convert", "--manifest", str(flight),
                  "--out", str(tmp_path / "o"), "--threads", "2"])
        assert excinfo.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "suascal: error: unrecognized arguments: --threads 2")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (3, 3),
                                               (8, 4)])
    def test_workers_are_the_usable_cpus_at_most_four(self, monkeypatch,
                                                      cpus, workers):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        assert cli._workers() == workers

    @pytest.mark.parametrize("count, workers", [(6, 4), (None, 1)])
    def test_workers_without_affinity_count_the_cpus(self, monkeypatch,
                                                     count, workers):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert cli._workers() == workers
