"""The band-major imagery schedule and its per-run vignette map store.

``convert`` and ``reflect`` run one task per (image, band), ordered so
that the frames of one band and lens model run back to back; ``reflect``
runs each band's calibration panel means ahead of that band's planes.
Each map is built once, on its first use, and dropped after its last;
per-image results, errors and files must not depend on that order or on
the thread count.
"""

import json
import sys
import threading
from types import SimpleNamespace

import pytest

import helpers
from suascal import cli
from suascal import radiance as radiance_module
from suascal import reflectance as reflectance_module
from suascal.cli import main

COMMANDS = {"convert": (["convert"], "conversion_log.json"),
            "reflect": (["reflect", "--method", "elm2"],
                        "reflectance_report.json")}


def edit_manifest(manifest, edit):
    raw = json.loads(manifest.read_text())
    edit(raw)
    manifest.write_text(json.dumps(raw))


def image(raw, image_id):
    return next(i for i in raw["images"] if i["image_id"] == image_id)


def two_lens_flight(root):
    """Four images whose lens models alternate between two cameras, with
    a lens model of its own for each band: ten distinct maps."""
    manifest = helpers.build_flight(root, field_images=3)

    def edit(raw):
        for i, entry in enumerate(raw["images"]):
            for band in entry["bands"]:
                band["metadata"]["vignette"] = {
                    "center_x": 20.0 + band["band_index"] + 0.5 * (i % 2),
                    "center_y": 24.0,
                    "coefficients": [1e-3 * band["band_index"], 0.0, 1e-6,
                                     0.0, 0.0, 0.0]}

    edit_manifest(manifest, edit)
    return manifest


@pytest.fixture
def counted(monkeypatch):
    """Every vignette map built, as (lens model, shape), and every store
    made."""
    builds, stores = [], []

    class CountedBuild(radiance_module._VignetteBuild):
        def __init__(self, model, k, rows=None):
            builds.append((model.center_x, model.center_y,
                           model.coefficients.tobytes(), k.shape))
            super().__init__(model, k, rows)

    class RecordedStore(radiance_module.VignetteStore):
        def __init__(self):
            super().__init__()
            stores.append(self)

    monkeypatch.setattr(radiance_module, "_VignetteBuild", CountedBuild)
    monkeypatch.setattr(cli, "VignetteStore", RecordedStore)
    return builds, stores


class TestTwoLensFlight:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_each_map_is_built_once_and_dropped(self, tmp_path, counted,
                                                command):
        builds, stores = counted
        argv, _ = COMMANDS[command]
        manifest = two_lens_flight(tmp_path / "flight")
        trees = []
        for i, threads in enumerate(([], ["--threads", "1"],
                                     ["--threads", "3"])):
            builds.clear()
            out = tmp_path / str(i)
            assert main(argv + ["--manifest", str(manifest),
                                "--out", str(out)] + threads) == 0
            assert len(builds) == 10
            assert len(set(builds)) == 10
            assert stores[-1].maps_held == 0
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(stores) == 3
        assert all(tree == trees[0] for tree in trees[1:])


class TestFirstFaultInManifestOrder:
    """An image with two faulty bands reports the one first in manifest
    order, whichever fault its thread meets first."""

    UNDECODABLE = "not a binary PGM (magic b'P6', expected b'P5')"
    BAD_VIGNETTE = ("vignette polynomial k=-77.6003 is not positive at "
                    "pixel (63, 47)")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("undecodable, bad_vignette", [(2, 4), (4, 2)])
    def test_two_faulty_bands(self, tmp_path, command, undecodable,
                              bad_vignette):
        argv, report_name = COMMANDS[command]
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        (manifest.parent / f"field_2_b{undecodable}.pgm").write_bytes(b"P6\n")

        def edit(raw):
            band = next(b for b in image(raw, "field_2")["bands"]
                        if b["band_index"] == bad_vignette)
            # k(r) = 1 - r, lowest at the corner farthest from (0, 0).
            band["metadata"]["vignette"]["coefficients"][0] = -1.0

        edit_manifest(manifest, edit)
        expected = (self.UNDECODABLE if undecodable < bad_vignette
                    else self.BAD_VIGNETTE)
        out = tmp_path / "out"
        for threads in ("1", "2", "3"):
            assert main(argv + ["--manifest", str(manifest), "--out",
                                str(out), "--threads", threads]) == 2
            report = json.loads((out / report_name).read_text())
            assert report["failures"]["field_2"].endswith(expected)
            assert sorted(report["images"]) == ["cal_a", "field_1"]
            assert not list(out.glob("field_2_*"))
            assert len(list(out.glob("field_1_*"))) == 10


class TestCalibrationFitFirst:
    def test_fit_error_outranks_band_fault(self, tmp_path):
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2,
                                        with_decoy=True)
        # The decoy's dark panel is as bright as its bright panel in
        # band 2, so a 2-point fit on it fails.  field_2 is nearest to the
        # decoy in time, and its band 3 cannot be decoded.
        counts = helpers.panel_raster(2, scale=1.25)
        x, y, w, h = helpers.DARK_ROI
        counts[y:y + h, x:x + w] = counts[helpers.BRIGHT_ROI[1],
                                          helpers.BRIGHT_ROI[0]]
        helpers.write_pgm16(manifest.parent / "cal_b_b2.pgm", counts)
        (manifest.parent / "field_2_b3.pgm").write_bytes(b"P5\n2 2\n")
        edit_manifest(manifest,
                      lambda raw: image(raw, "field_2").update(timestamp=4999))
        out = tmp_path / "out"
        assert main(["reflect", "--manifest", str(manifest), "--out",
                     str(out), "--method", "elm2",
                     "--selection", "time"]) == 2
        report = json.loads((out / "reflectance_report.json").read_text())
        degenerate = ("calibration image cal_b: bright panel is not brighter "
                      "than the dark panel in every band")
        assert report["failures"] == {"cal_b": degenerate,
                                      "field_2": degenerate}
        assert sorted(report["images"]) == ["cal_a", "field_1"]
        assert not list(out.glob("cal_b_*")) + list(out.glob("field_2_*"))


class TestStoreAfterFailures:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_failed_and_skipped_bands_give_their_maps_back(
            self, tmp_path, counted, command):
        _, stores = counted
        argv, _ = COMMANDS[command]
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        for band in (1, 3):
            (manifest.parent / f"field_1_b{band}.pgm").unlink()
        assert main(argv + ["--manifest", str(manifest),
                            "--out", str(tmp_path / "out")]) == 2
        assert stores[-1].maps_held == 0
        assert not stores[-1]._uses


class TestHeldRowFactors:
    """The helper flight gives every band-frame one lens model and one row
    model, so its one map holds ``V * R``; a frame of another row model
    makes it hold ``V`` alone, and the other images' bytes stay."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_rejected_row_model_fails_its_image_only(self, tmp_path,
                                                      monkeypatch, counted,
                                                      command):
        builds, _ = counted
        argv, report_name = COMMANDS[command]
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        held = []
        vignette = radiance_module.VignetteStore.vignette

        def noted(store, key, shape):
            got = vignette(store, key, shape)
            held.append(got.rows is not None)
            return got

        monkeypatch.setattr(radiance_module.VignetteStore, "vignette", noted)
        clean = tmp_path / "clean"
        assert main(argv + ["--manifest", str(manifest),
                            "--out", str(clean)]) == 0
        assert held and all(held)
        edit_manifest(manifest, lambda raw: image(raw, "field_1")[
            "bands"][1]["metadata"].update(a3=-0.05))
        held.clear()
        out = tmp_path / "out"
        assert main(argv + ["--manifest", str(manifest),
                            "--out", str(out)]) == 2
        assert held and not any(held)
        assert len(builds) == 2
        report = json.loads((out / report_name).read_text())
        assert report["failures"] == {
            "field_1": "row correction denominator -1.35 is not positive "
                       "at row 47"}
        planes = sorted(p.name for p in out.glob("*.f32"))
        assert planes == sorted(p.name for p in clean.glob("*.f32")
                                if not p.name.startswith("field_1_"))
        assert all((out / name).read_bytes() == (clean / name).read_bytes()
                   for name in planes)


class TestSkipRule:
    def test_only_bands_after_a_known_failure_are_skipped(self):
        # Run out of manifest order on one thread: band positions 3, 1, 4,
        # 0, 2 of one image, where positions 3 and 1 fail.  The error is
        # not a SuascalError, so the pass raises the one it reports.
        store = radiance_module.VignetteStore()
        lens = radiance_module.VignetteModel(0.0, 0.0, (0.0,) * 6)
        meta = radiance_module.RadiometricMetadata(
            a1=1.0, a2=0.0, a3=0.0, gain=1, exposure_us=1.0,
            dark_level=0.0, vignette=lens, bits_per_pixel=16)
        tasks = [cli._BandTask(0, position, None,
                               store.plan(lens, (2, 2), meta))
                 for position in (3, 1, 4, 0, 2)]
        ran = []

        def work(task):
            ran.append(task.position)
            if task.position in (1, 3):
                raise ValueError(task.position)
            return task.position

        entries = [SimpleNamespace(image_id="frame", bands=[None] * 5)]
        with pytest.raises(ValueError) as raised:
            cli._image_pass(entries, tasks, store, work, threads=1)
        assert raised.value.args == (1,)
        assert ran == [3, 1, 0]
        outcomes = {task.position: task.outcome.result() for task in tasks}
        assert [type(outcomes[p]).__name__ for p in range(5)] == [
            "int", "ValueError", "NoneType", "ValueError", "NoneType"]
        assert store.maps_held == 0
        assert not store._uses


def lens_per_band_flight(root):
    """Two calibration images and three field images whose bands each
    have a lens model of their own: five distinct maps."""
    manifest = helpers.build_flight(root, field_images=3, with_decoy=True)

    def edit(raw):
        for entry in raw["images"]:
            for band in entry["bands"]:
                band["metadata"]["vignette"] = {
                    "center_x": 20.0 + band["band_index"], "center_y": 24.0,
                    "coefficients": [1e-3 * band["band_index"], 0.0, 1e-6,
                                     0.0, 0.0, 0.0]}

    edit_manifest(manifest, edit)
    return manifest


@pytest.fixture
def peak_maps(monkeypatch):
    """The stores made, each noting its most maps held after any call.

    A map is built or dropped only inside :meth:`vignette` and
    :meth:`release`, so on one thread the note is the exact high-water
    mark; with more, another thread may drop a map before it is taken, so
    the note may miss a peak but never exceeds one.
    """
    stores = []

    class PeakStore(radiance_module.VignetteStore):
        def __init__(self):
            super().__init__()
            self.peak = 0
            stores.append(self)

        def note(self):
            with self._lock:
                self.peak = max(self.peak, self.maps_held)

        def vignette(self, key, shape):
            vignette = super().vignette(key, shape)
            self.note()
            return vignette

        def release(self, key):
            super().release(key)
            self.note()

    monkeypatch.setattr(cli, "VignetteStore", PeakStore)
    return stores


class TestFusedCalibration:
    """``reflect --method elm1|elm2`` runs each band's panel means, then
    that band's planes, in one pass over one store."""

    @pytest.mark.parametrize("method", ["elm1", "elm2"])
    def test_maps_live_per_band_and_are_built_once(self, tmp_path, counted,
                                                   peak_maps, method):
        builds, _ = counted
        manifest = lens_per_band_flight(tmp_path / "flight")
        trees = []
        for i, threads in enumerate((None, 1, 3)):
            builds.clear()
            out = tmp_path / str(i)
            option = [] if threads is None else ["--threads", str(threads)]
            assert main(["reflect", "--method", method, "--manifest",
                         str(manifest), "--out", str(out)] + option) == 0
            assert len(builds) == len(set(builds)) == 5
            store = peak_maps[-1]
            # A map is held from its band's first task to its last, and
            # only the band after the running tasks can add one: n threads
            # hold at most n + 1 maps, one thread at most two.
            assert 1 <= store.peak <= (threads or cli._default_threads()) + 1
            assert store.maps_held == 0 and not store._uses
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert all(tree == trees[0] for tree in trees[1:])

    def test_calibration_fault_in_the_last_band_leaves_no_file(
            self, tmp_path, capsys):
        manifest = lens_per_band_flight(tmp_path / "flight")
        bad = manifest.parent / "cal_b_b5.pgm"
        bad.write_bytes(b"P6\n")
        for threads in ("1", "2", "3"):
            out = tmp_path / threads
            assert main(["reflect", "--method", "elm2", "--manifest",
                         str(manifest), "--out", str(out),
                         "--threads", threads]) == 1
            assert capsys.readouterr().err == (
                f"error: {bad}: not a binary PGM (magic b'P6', expected "
                "b'P5')\n")
            assert not list(out.iterdir())

    def test_band_lines_are_the_fits_bit_for_bit(self, tmp_path,
                                                 monkeypatch):
        manifest = lens_per_band_flight(tmp_path / "flight")
        lines, models = [], []

        def line_map(slope, bias):
            lines.append((slope.hex(), bias.hex()))
            return reflectance_module.line_map(slope, bias)

        def fit_elm_2pt(cal):
            models.append(reflectance_module.fit_elm_2pt(cal))
            return models[-1]

        monkeypatch.setattr(cli, "line_map", line_map)
        monkeypatch.setattr(cli, "fit_elm_2pt", fit_elm_2pt)
        assert main(["reflect", "--method", "elm2", "--manifest",
                     str(manifest), "--out", str(tmp_path / "out")]) == 0
        # Every band of five images, each image's fit once.
        assert len(lines) == 25 and len(models) == 5
        assert {model.source_image for model in models} == {"cal_a", "cal_b"}
        assert set(lines) == {
            (model.slope[k].hex(), model.bias[k].hex())
            for model in models for k in range(5)}


class TestFusedPassUnderContention:
    """Image tasks wait for other threads' panel means; with more threads
    than cores and a thread switch every microsecond, no wait may hang and
    no outcome may be lost."""

    @staticmethod
    def run_bounded(argv):
        codes = []
        worker = threading.Thread(target=lambda: codes.append(main(argv)),
                                  daemon=True)
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive(), "reflect did not finish"
        return codes[0]

    def test_outputs_and_errors_match_one_thread(self, tmp_path):
        manifest = lens_per_band_flight(tmp_path / "flight")
        faulty = lens_per_band_flight(tmp_path / "faulty")
        (faulty.parent / "cal_a_b3.pgm").write_bytes(b"P6\n")
        argv = ["reflect", "--method", "elm2", "--manifest", str(manifest)]
        assert self.run_bounded(argv + ["--out", str(tmp_path / "ref"),
                                        "--threads", "1"]) == 0
        expected = {p.name: p.read_bytes()
                    for p in (tmp_path / "ref").iterdir()}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i in range(3):
                out = tmp_path / f"many{i}"
                assert self.run_bounded(argv + ["--out", str(out),
                                                "--threads", "8"]) == 0
                assert {p.name: p.read_bytes()
                        for p in out.iterdir()} == expected
                out = tmp_path / f"faulty{i}"
                assert self.run_bounded([
                    "reflect", "--method", "elm2", "--manifest",
                    str(faulty), "--out", str(out), "--threads", "8"]) == 1
                assert not list(out.iterdir())
        finally:
            sys.setswitchinterval(interval)


class TestInterrupted:
    """An interrupt in the band pass ends the run with exit 130 and one
    line, once the running tasks are done and every file the pass wrote
    is removed."""

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("command", [
        ["convert"], ["reflect", "--method", "elm2"],
        ["reflect", "--method", "aarr", "--write-pgm"]],
        ids=["convert", "elm2", "aarr-pgm"])
    def test_interrupt_leaves_no_file(self, tmp_path, monkeypatch, capsys,
                                      command, threads):
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        stream_band = cli._stream_band
        calls = []
        lock = threading.Lock()

        def interrupted(*args, **kwargs):
            with lock:
                calls.append(None)
                if len(calls) == 4:
                    raise KeyboardInterrupt
            return stream_band(*args, **kwargs)

        monkeypatch.setattr(cli, "_stream_band", interrupted)
        before = set(threading.enumerate())
        out = tmp_path / "out"
        try:
            code = main([command[0], "--manifest", str(manifest), "--out",
                         str(out), "--threads", threads, *command[1:]])
        except KeyboardInterrupt:
            # Raised on, it would end the whole test session.
            pytest.fail("KeyboardInterrupt escaped main")
        assert code == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert not list(out.iterdir())
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("error, code, line", [
        (MemoryError, 3, "error: out of memory\n"),
        (OSError("No space left on device"), 1,
         "error: No space left on device\n")], ids=["memory", "os"])
    @pytest.mark.parametrize("command", [["convert"],
                                         ["reflect", "--method", "elm2"]],
                             ids=["convert", "elm2"])
    def test_fatal_band_error_leaves_no_file(self, tmp_path, monkeypatch,
                                             capsys, command, threads, error,
                                             code, line):
        """An error that is no data fault, raised from the 4th band-frame,
        removes the good images' planes too: no log would name them."""
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        stream_band = cli._stream_band
        calls = []
        lock = threading.Lock()

        def failing(*args, **kwargs):
            with lock:
                calls.append(None)
                if len(calls) == 4:
                    raise error
            return stream_band(*args, **kwargs)

        monkeypatch.setattr(cli, "_stream_band", failing)
        out = tmp_path / "out"
        assert main([command[0], "--manifest", str(manifest), "--out",
                     str(out), "--threads", threads, *command[1:]]) == code
        assert capsys.readouterr().err == line
        assert not list(out.iterdir())

    def test_memory_error_is_one_line_and_exit_3(self, tmp_path,
                                                 monkeypatch, capsys):
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "_stream_band", exhausted)
        assert main(["convert", "--manifest", str(manifest),
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "error: out of memory\n"
