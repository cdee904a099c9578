"""The band-major imagery schedule, its parts and its vignette map store.

``convert`` and ``reflect`` run one task per (image, band), ordered so
that the frames of one band and lens model run back to back; ``reflect``
runs each band's calibration panel means ahead of that band's planes.
The tasks run as contiguous parts, one per worker, each in its own
process.  In each part a map is built once, on its first use, and dropped
after its last; per-image results, errors and files must not depend on
that order or on the part count.
"""

import errno
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

import helpers
from suascal import cli
from suascal import radiance as radiance_module
from suascal import reflectance as reflectance_module
from suascal.cli import main
from suascal.manifest import load_manifest

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
def counted(monkeypatch, tmp_path):
    """Every vignette map built in any part, as (lens model, shape), and
    the maps and planned uses each part's store holds after each of its
    calls, as ``(maps_held, uses)``."""
    builds = helpers.ForkLog(tmp_path / "builds.log")
    held = helpers.ForkLog(tmp_path / "held.log")
    build = radiance_module._build_vignette

    def counted_build(model, k, rows=None):
        builds.note((model.center_x, model.center_y,
                     model.coefficients.tobytes(), k.shape))
        return build(model, k, rows)

    class NotedStore(radiance_module.VignetteStore):
        def vignette(self, key, shape):
            try:
                return super().vignette(key, shape)
            finally:
                held.note((self.maps_held, len(self._uses)))

        def release(self, key):
            super().release(key)
            held.note((self.maps_held, len(self._uses)))

    monkeypatch.setattr(radiance_module, "_build_vignette", counted_build)
    monkeypatch.setattr(cli, "VignetteStore", NotedStore)
    return SimpleNamespace(builds=builds, held=held)


def each_part_dropped_every_map(counted) -> bool:
    """Whether each part's store ended holding no map and no use."""
    return all(notes[-1] == (0, 0)
               for notes in counted.held.by_process().values())


class TestTwoLensFlight:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_each_map_is_built_once_and_dropped(self, tmp_path, counted,
                                                command):
        argv, _ = COMMANDS[command]
        manifest = two_lens_flight(tmp_path / "flight")
        trees = []
        for i, workers in enumerate((None, 1, 3)):
            counted.builds.clear()
            counted.held.clear()
            out = tmp_path / str(i)
            with helpers.workers(workers):
                assert main(argv + ["--manifest", str(manifest),
                                    "--out", str(out)]) == 0
            parts = counted.builds.by_process()
            assert len(parts) == (workers or cli._workers())
            # Each part builds each of its maps once; a part boundary can
            # split the run of one map between two parts.
            builds = [build for _, build in counted.builds.notes()]
            assert len(set(builds)) == 10
            assert all(len(set(part)) == len(part)
                       for part in parts.values())
            assert len(builds) <= 10 + len(parts) - 1
            assert each_part_dropped_every_map(counted)
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert all(tree == trees[0] for tree in trees[1:])


class TestFirstFaultInManifestOrder:
    """An image with two faulty bands reports the one first in manifest
    order, whichever fault its part meets first."""

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
        for workers in (1, 2, 3, 4):
            with helpers.workers(workers):
                assert main(argv + ["--manifest", str(manifest), "--out",
                                    str(out)]) == 2
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
        for workers in (1, 2, 3, 4):
            out = tmp_path / str(workers)
            with helpers.workers(workers):
                assert main(["reflect", "--manifest", str(manifest), "--out",
                             str(out), "--method", "elm2",
                             "--selection", "time"]) == 2
            report = json.loads((out / "reflectance_report.json").read_text())
            degenerate = ("calibration image cal_b: bright panel is not "
                          "brighter than the dark panel in every band")
            assert report["failures"] == {"cal_b": degenerate,
                                          "field_2": degenerate}
            assert sorted(report["images"]) == ["cal_a", "field_1"]
            assert not list(out.glob("cal_b_*")) + list(out.glob("field_2_*"))


class TestStoreAfterFailures:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_failed_and_skipped_bands_give_their_maps_back(
            self, tmp_path, counted, command):
        argv, _ = COMMANDS[command]
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        for band in (1, 3):
            (manifest.parent / f"field_1_b{band}.pgm").unlink()
        for workers in (1, 3):
            counted.held.clear()
            with helpers.workers(workers):
                assert main(argv + ["--manifest", str(manifest),
                                    "--out", str(tmp_path / "out")]) == 2
            assert each_part_dropped_every_map(counted)


class TestHeldRowFactors:
    """The helper flight gives every band-frame one lens model and one row
    model, so its one map holds ``V * R``; a frame of another row model
    makes it hold ``V`` alone, and the other images' bytes stay."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_rejected_row_model_fails_its_image_only(self, tmp_path,
                                                      monkeypatch, counted,
                                                      command):
        argv, report_name = COMMANDS[command]
        held = helpers.ForkLog(tmp_path / "rows.log")
        vignette = radiance_module.VignetteStore.vignette

        def noted(store, key, shape):
            got = vignette(store, key, shape)
            held.note(got.rows is not None)
            return got

        monkeypatch.setattr(radiance_module.VignetteStore, "vignette", noted)
        for workers in (1, 3):
            root = tmp_path / str(workers)
            manifest = helpers.build_flight(root / "flight", field_images=2)
            counted.builds.clear()
            held.clear()
            clean = root / "clean"
            with helpers.workers(workers):
                assert main(argv + ["--manifest", str(manifest),
                                    "--out", str(clean)]) == 0
            rows = [row for _, row in held.notes()]
            assert rows and all(rows)
            edit_manifest(manifest, lambda raw: image(raw, "field_1")[
                "bands"][1]["metadata"].update(a3=-0.05))
            held.clear()
            out = root / "out"
            with helpers.workers(workers):
                assert main(argv + ["--manifest", str(manifest),
                                    "--out", str(out)]) == 2
            rows = [row for _, row in held.notes()]
            assert rows and not any(rows)
            # One lens model: each part of each run builds its one map.
            assert len(counted.builds.notes()) == 2 * workers
            report = json.loads((out / report_name).read_text())
            assert report["failures"] == {
                "field_1": "row correction denominator -1.35 is not "
                           "positive at row 47"}
            planes = sorted(p.name for p in out.glob("*.f32"))
            assert planes == sorted(p.name for p in clean.glob("*.f32")
                                    if not p.name.startswith("field_1_"))
            assert all((out / name).read_bytes()
                       == (clean / name).read_bytes() for name in planes)


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
        tasks = [cli._BandTask(0, position,
                               SimpleNamespace(band_index=position + 1),
                               store.plan(lens, (2, 2), meta))
                 for position in (3, 1, 4, 0, 2)]
        ran = []

        def work(task):
            ran.append(task.position)
            if task.position in (1, 3):
                raise ValueError(task.position)
            return task.position

        entries = [SimpleNamespace(image_id="frame", bands=[None] * 5)]
        with pytest.raises(ValueError) as raised, helpers.workers(1):
            cli._image_pass(entries, tasks, store, work)
        assert raised.value.args == (1,)
        assert ran == [3, 1, 0]
        outcomes = {task.position: task.outcome for task in tasks}
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


class TestFusedCalibration:
    """``reflect --method elm1|elm2`` runs each band's panel means, then
    that band's planes, in one pass over one store per part; a part that
    starts inside a band runs that band's panel means first."""

    @pytest.mark.parametrize("method", ["elm1", "elm2"])
    def test_maps_live_per_band_and_are_built_once(self, tmp_path, counted,
                                                   method):
        manifest = lens_per_band_flight(tmp_path / "flight")
        trees = []
        for i, workers in enumerate((None, 1, 3)):
            counted.builds.clear()
            counted.held.clear()
            out = tmp_path / str(i)
            with helpers.workers(workers):
                assert main(["reflect", "--method", method, "--manifest",
                             str(manifest), "--out", str(out)]) == 0
            parts = counted.builds.by_process()
            assert len(parts) == (workers or cli._workers())
            assert all(len(set(part)) == len(part)
                       for part in parts.values())
            builds = [build for _, build in counted.builds.notes()]
            assert len(set(builds)) == 5
            assert len(builds) <= 5 + len(parts) - 1
            # A map is held from its band's first task to its last, and
            # its storage waits for the next map of its shape: each part
            # holds at most two at once.
            for notes in counted.held.by_process().values():
                assert 1 <= max(held for held, _ in notes) <= 2
            assert each_part_dropped_every_map(counted)
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert all(tree == trees[0] for tree in trees[1:])

    def test_calibration_fault_in_the_last_band_leaves_no_file(
            self, tmp_path, capsys):
        manifest = lens_per_band_flight(tmp_path / "flight")
        bad = manifest.parent / "cal_b_b5.pgm"
        bad.write_bytes(b"P6\n")
        for workers in (1, 2, 3, 4):
            out = tmp_path / str(workers)
            with helpers.workers(workers):
                assert main(["reflect", "--method", "elm2", "--manifest",
                             str(manifest), "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: {bad}: not a binary PGM (magic b'P6', expected "
                "b'P5')\n")
            assert not list(out.iterdir())

    def test_band_lines_are_the_fits_bit_for_bit(self, tmp_path,
                                                 monkeypatch):
        manifest = lens_per_band_flight(tmp_path / "flight")
        noted = helpers.ForkLog(tmp_path / "lines.log")
        models = []

        def line_map(slope, bias):
            noted.note((slope.hex(), bias.hex()))
            return reflectance_module.line_map(slope, bias)

        def fit_elm_2pt(cal):
            models.append(reflectance_module.fit_elm_2pt(cal))
            return models[-1]

        monkeypatch.setattr(cli, "line_map", line_map)
        monkeypatch.setattr(cli, "fit_elm_2pt", fit_elm_2pt)
        for workers in (1, 3):
            noted.clear()
            models.clear()
            with helpers.workers(workers):
                assert main(["reflect", "--method", "elm2", "--manifest",
                             str(manifest), "--out",
                             str(tmp_path / str(workers))]) == 0
            lines = [line for _, line in noted.notes()]
            # Every band of five images, in whichever part, and each
            # image's fit once.
            assert len(lines) == 25 and len(models) == 5
            assert {model.source_image
                    for model in models} == {"cal_a", "cal_b"}
            assert set(lines) == {
                (model.slope[k].hex(), model.bias[k].hex())
                for model in models for k in range(5)}

    @pytest.mark.parametrize("method", ["elm1", "elm2"])
    def test_a_part_decodes_each_frame_once(self, tmp_path, monkeypatch,
                                            method):
        """A calibration frame decoded for its panel means serves its own
        plane in the same part: one worker decodes each band-frame once,
        three decode every frame and none twice in one part, and the
        planes are the same."""
        manifest = lens_per_band_flight(tmp_path / "flight")
        frames = sorted(band.path.name for entry in
                        load_manifest(manifest).images
                        for band in entry.bands)
        decodes = helpers.ForkLog(tmp_path / "decodes.log")
        read = cli.read_pgm16

        def noted(path):
            decodes.note(Path(path).name)
            return read(path)

        monkeypatch.setattr(cli, "read_pgm16", noted)
        trees = []
        for workers in (1, 3):
            decodes.clear()
            out = tmp_path / str(workers)
            with helpers.workers(workers):
                assert main(["reflect", "--method", method, "--manifest",
                             str(manifest), "--out", str(out)]) == 0
            parts = decodes.by_process().values()
            assert len(parts) == workers
            assert all(len(set(names)) == len(names) for names in parts)
            names = [name for _, name in decodes.notes()]
            if workers == 1:
                assert sorted(names) == frames
            else:
                assert set(names) == set(frames)
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert trees[0] == trees[1]


class TestInterrupted:
    """An interrupt in the band pass ends the run with exit 130 and one
    line, once every part is killed and reaped and every file the run may
    write is removed.  With several parts, each counts its own calls, so
    every part meets the fault."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("command", [
        ["convert"], ["reflect", "--method", "elm2"],
        ["reflect", "--method", "aarr", "--write-pgm"]],
        ids=["convert", "elm2", "aarr-pgm"])
    def test_interrupt_leaves_no_file(self, tmp_path, monkeypatch, capsys,
                                      command, workers):
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        stream_band = cli._stream_band
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(None)
            if len(calls) == 4:
                raise KeyboardInterrupt
            return stream_band(*args, **kwargs)

        monkeypatch.setattr(cli, "_stream_band", interrupted)
        out = tmp_path / "out"
        try:
            with helpers.workers(workers):
                code = main([command[0], "--manifest", str(manifest),
                             "--out", str(out), *command[1:]])
        except KeyboardInterrupt:
            # Raised on, it would end the whole test session.
            pytest.fail("KeyboardInterrupt escaped main")
        assert code == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert not list(out.iterdir())
        helpers.no_child_left()

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("error, code, line", [
        (MemoryError, 3, "error: out of memory\n"),
        (OSError("No space left on device"), 1,
         "error: No space left on device\n")], ids=["memory", "os"])
    @pytest.mark.parametrize("command", [["convert"],
                                         ["reflect", "--method", "elm2"]],
                             ids=["convert", "elm2"])
    def test_fatal_band_error_leaves_no_file(self, tmp_path, monkeypatch,
                                             capsys, command, workers, error,
                                             code, line):
        """An error that is no data fault, raised from the 4th band-frame,
        removes the good images' planes too: no log would name them."""
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        stream_band = cli._stream_band
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 4:
                raise error
            return stream_band(*args, **kwargs)

        monkeypatch.setattr(cli, "_stream_band", failing)
        out = tmp_path / "out"
        with helpers.workers(workers):
            assert main([command[0], "--manifest", str(manifest), "--out",
                         str(out), *command[1:]]) == code
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


def fault(error, where="child"):
    """A stand-in for :func:`cli._stream_band` that raises ``error`` in
    every forked part (``where="child"``) or in this process only."""
    stream_band, parent = cli._stream_band, os.getpid()

    def faulty(*args, **kwargs):
        if (os.getpid() == parent) == (where == "parent"):
            raise error
        return stream_band(*args, **kwargs)

    return faulty


class TestBandPassParts:
    """The band pass runs as contiguous parts, part 1 in this process and
    each later one in a forked child.  Exit code, stderr and every file
    are the same at any part count, and no child outlives the command."""

    COMMANDS = {"convert": ["convert"],
                "elm1": ["reflect", "--method", "elm1"],
                "elm2": ["reflect", "--method", "elm2"],
                "aarr-pgm": ["reflect", "--method", "aarr", "--write-pgm"]}

    @staticmethod
    def run(capsys, argv, manifest, out, workers):
        """``main``'s exit code and stderr, and the files in ``out``."""
        with helpers.workers(workers):
            code = main(argv + ["--manifest", str(manifest),
                                "--out", str(out)])
        return code, capsys.readouterr().err, {
            path.name: path.read_bytes() for path in out.iterdir()}

    @staticmethod
    def faulty_flight(root):
        """:func:`lens_per_band_flight` with an undecodable band of field_2
        and a lens of field_1 that is not positive over its frame."""
        manifest = lens_per_band_flight(root)
        (manifest.parent / "field_2_b3.pgm").write_bytes(b"P6\n")

        def edit(raw):
            band = image(raw, "field_1")["bands"][1]
            band["metadata"]["vignette"]["coefficients"][0] = -1.0

        edit_manifest(manifest, edit)
        return manifest

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_outputs_do_not_depend_on_parts(self, tmp_path, capsys,
                                            command):
        argv = self.COMMANDS[command]
        for name, flight, code in (("good", lens_per_band_flight, 0),
                                   ("faulty", self.faulty_flight, 2)):
            manifest = flight(tmp_path / name)
            runs = [self.run(capsys, argv, manifest,
                             tmp_path / f"{name}{workers}", workers)
                    for workers in (1, 2, 3, 4)]
            assert runs[0][0] == code
            assert all(run == runs[0] for run in runs[1:])

    def test_without_fork_one_process_runs_the_pass(self, tmp_path, capsys,
                                                    monkeypatch):
        argv = self.COMMANDS["elm2"]
        manifest = self.faulty_flight(tmp_path / "flight")
        expected = self.run(capsys, argv, manifest, tmp_path / "one", 1)
        monkeypatch.delattr(os, "fork")
        assert self.run(capsys, argv, manifest, tmp_path / "four",
                        4) == expected

    @pytest.mark.parametrize("where", ["parent", "child"])
    @pytest.mark.parametrize("error, code, line", [
        (KeyboardInterrupt, 130, "error: interrupted\n"),
        (MemoryError, 3, "error: out of memory\n"),
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), 1,
         f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")],
        ids=["interrupt", "memory", "os"])
    @pytest.mark.parametrize("command", ["convert", "elm2"])
    def test_error_in_one_part_leaves_no_file(self, tmp_path, monkeypatch,
                                              capsys, command, error, code,
                                              line, where):
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        monkeypatch.setattr(cli, "_stream_band", fault(error, where))
        try:
            assert self.run(capsys, self.COMMANDS[command], manifest,
                            tmp_path / "out", 3) == (code, line, {})
        except KeyboardInterrupt:
            # Raised on, it would end the whole test session.
            pytest.fail("KeyboardInterrupt escaped main")
        helpers.no_child_left()

    def test_child_gone_without_its_result(self, tmp_path, monkeypatch,
                                           capsys):
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        parent = os.getpid()
        stream_band = cli._stream_band

        def gone(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return stream_band(*args, **kwargs)

        monkeypatch.setattr(cli, "_stream_band", gone)
        assert self.run(capsys, self.COMMANDS["elm2"], manifest,
                        tmp_path / "out", 3) == (
            1, "error: band pass part 2 of 3 ended without sending its "
               "result\n", {})
        helpers.no_child_left()

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_report_write_error_leaves_no_file(self, tmp_path, monkeypatch,
                                               capsys, command, workers):
        """A full disk under the report, in a fresh directory and in a
        rerun over a finished run: no file of either run is left."""
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        argv, out = self.COMMANDS[command], tmp_path / "out"
        assert self.run(capsys, argv, manifest, out, workers)[0] == 0
        write_json = cli.write_json

        def full(path, payload):
            if path.parent == out:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write_json(path, payload)

        monkeypatch.setattr(cli, "write_json", full)
        for rerun in (True, False):
            if not rerun:
                out.rmdir()
            assert self.run(capsys, argv, manifest, out, workers) == (
                1, f"error: [Errno {errno.ENOSPC}] "
                   f"{os.strerror(errno.ENOSPC)}\n", {})


class TestClampedPixels:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_reflect_counts_what_convert_counts(self, tmp_path, workers):
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        # Above the background and dark panel counts, below the bright
        # panel's: every pixel but the bright panel's 64 is clamped.
        edit_manifest(manifest, lambda raw: image(raw, "field_1")["bands"][
            1]["metadata"].update(dark_level=5000.0))
        records = {}
        for command, (argv, report_name) in COMMANDS.items():
            out = tmp_path / command
            with helpers.workers(workers):
                assert main(argv + ["--manifest", str(manifest),
                                    "--out", str(out)]) == 0
            report = json.loads((out / report_name).read_text())
            records[command] = {
                (image_id, band): record["clamped_pixels"]
                for image_id, entry in report["images"].items()
                for band, record in entry["bands"].items()}
        assert records["reflect"] == records["convert"]
        assert records["convert"].pop(("field_1", "2")) == (
            helpers.WIDTH * helpers.HEIGHT - 64)
        assert not any(records["convert"].values())
