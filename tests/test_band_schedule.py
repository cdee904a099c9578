"""The band-major imagery schedule, its parts and their vignette maps.

``convert`` and ``reflect`` run one task per (image, band), ordered so
that the frames of one band and lens model run back to back; ``reflect``
takes a calibration band's panel means in a part the first time one of
its images needs that band's line.  The tasks run as contiguous parts,
one per worker, each in its own process.  Each part holds one map per
frame size, built in one storage on first use and rebuilt there for
another lens model; per-image results, errors and files must not depend
on that order or on the part count.
"""

import contextlib
import errno
import gc
import io
import json
import os
import tempfile
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, rule,
                                 run_state_machine_as_test)

import helpers
from suascal import cli
from suascal import reflectance as reflectance_module
from suascal.cli import main
from suascal.imageio import read_pgm16
from suascal.manifest import load_manifest
from suascal.radiance import RawImage

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
    at each build the number of map storages of the run its part holds
    alive, the one built in included.  ``clear()`` starts a new run."""
    builds = helpers.ForkLog(tmp_path / "builds.log")
    held = helpers.ForkLog(tmp_path / "held.log")
    build = cli._build_vignette
    alive = set()  # ids of this run's storages not yet freed

    def counted_build(model, k, rows=None):
        if id(k) not in alive:
            alive.add(id(k))
            weakref.finalize(k, alive.discard, id(k))
        builds.note((model.center_x, model.center_y,
                     model.coefficients.tobytes(), k.shape))
        held.note(len(alive))
        return build(model, k, rows)

    def clear():
        builds.clear()
        held.clear()
        alive.clear()

    monkeypatch.setattr(cli, "_build_vignette", counted_build)
    return SimpleNamespace(builds=builds, held=held, clear=clear)


def files_in(folder) -> dict:
    """Each file in ``folder`` by name, with its bytes."""
    return {path.name: path.read_bytes() for path in folder.iterdir()}


def each_part_held_one_storage(counted) -> bool:
    """Whether each part built every map in one storage: the flights of
    its callers have one frame size, and a part holds one map per size."""
    return all(set(notes) == {1}
               for notes in counted.held.by_process().values())


class TestTwoLensFlight:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_each_map_is_built_once_and_dropped(self, tmp_path, counted,
                                                command):
        argv, _ = COMMANDS[command]
        manifest = two_lens_flight(tmp_path / "flight")
        trees = []
        for i, workers in enumerate((None, 1, 3)):
            counted.clear()
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
            assert each_part_held_one_storage(counted)
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert all(tree == trees[0] for tree in trees[1:])


class TestFrameSizes:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_one_map_per_lens_model_and_size(self, tmp_path, counted,
                                             command):
        """field_2's frames are of another size under the same five lens
        models: each part builds one map per (lens model, size) it meets
        and holds one storage per size, and the files do not depend on
        the part count."""
        argv, _ = COMMANDS[command]
        manifest = lens_per_band_flight(tmp_path / "flight")
        height, width = helpers.HEIGHT + 16, helpers.WIDTH - 8
        for band in range(1, 6):
            raster = np.tile(helpers.panel_raster(band), (2, 1))
            helpers.write_pgm16(manifest.parent / f"field_2_b{band}.pgm",
                                raster[:height, :width])
        trees = []
        for workers in (1, 3):
            counted.clear()
            out = tmp_path / str(workers)
            with helpers.workers(workers):
                assert main(argv + ["--manifest", str(manifest),
                                    "--out", str(out)]) == 0
            builds = [build for _, build in counted.builds.notes()]
            assert {build[-1] for build in builds} == {
                (helpers.HEIGHT, helpers.WIDTH), (height, width)}
            assert len(set(builds)) == 10
            parts = counted.builds.by_process().values()
            assert all(len(set(part)) == len(part) for part in parts)
            # Successive maps of one size take its one storage.
            held = counted.held.by_process().values()
            assert all(max(notes) <= 2 for notes in held)
            if workers == 1:
                assert len(builds) == 10
                assert list(held) == [[1] + [2] * 9]
            trees.append(files_in(out))
        assert trees[1] == trees[0]
        assert len(trees[0]["field_2_b1.f32"]) == 4 * height * width


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
        """The fit fails in band 2, ahead of field_2's own fault in band
        3, so the fit error is the one reported."""
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


def break_calibration_band(flight, fault):
    """Give band 4 of ``cal_b`` a fault; returns the reason its images
    report, and whether ``cal_b``'s own frame reports it bare."""
    path = flight / "cal_b_b4.pgm"
    if fault == "undecodable":
        path.write_bytes(b"P6\n")
        return f"{path}: not a binary PGM (magic b'P6', expected b'P5')", True
    counts = helpers.panel_raster(4, scale=1.25)
    if fault == "dark-as-bright":
        x, y, w, h = helpers.DARK_ROI
        counts[y:y + h, x:x + w] = counts[helpers.BRIGHT_ROI[1],
                                          helpers.BRIGHT_ROI[0]]
        reason = ("bright panel is not brighter than the dark panel in every "
                  "band")
    else:
        counts[:] = 0
        reason = "panel bright: non-positive observed radiance"
    helpers.write_pgm16(path, counts)
    return reason, False


class TestCalibrationFaultsAreBandFaults:
    """A fault of a calibration band-frame fails the band of each image
    whose line it gives, and no image that selects another calibration
    image."""

    @pytest.mark.parametrize("fault", ["undecodable", "zero-radiance"])
    @pytest.mark.parametrize("selection", ["dls", "time", "single"])
    def test_only_the_images_using_it_fail(self, tmp_path, capsys,
                                           selection, fault):
        manifest = helpers.build_flight(tmp_path / "flight", field_images=3,
                                        with_decoy=True)
        # field_2 takes cal_b's DLS record and sits next to it in time.
        edit_manifest(manifest, lambda raw: image(raw, "field_2").update(
            timestamp=4999.0, dls=image(raw, "cal_b")["dls"]))
        argv = ["reflect", "--method", "elm2", "--manifest", str(manifest),
                "--selection", selection]
        if selection == "single":
            argv += ["--designated-id", "cal_b"]
        clean = tmp_path / "clean"
        assert main(argv + ["--out", str(clean)]) == 0
        records = json.loads(
            (clean / "reflectance_report.json").read_text())["images"]
        users = sorted(image_id for image_id, record in records.items()
                       if record["calibration_image"] == "cal_b")
        assert users == (sorted(records) if selection == "single"
                         else ["cal_b", "field_2"])
        reason, bare = break_calibration_band(manifest.parent, fault)
        failures = {image_id: f"calibration image cal_b: {reason}"
                    for image_id in users}
        if bare:
            failures["cal_b"] = reason
        kept = {p.name for p in clean.iterdir()
                if p.name.rsplit("_b", 1)[0] not in users}
        capsys.readouterr()
        for workers in (1, 2, 3, 4):
            out = tmp_path / str(workers)
            with helpers.workers(workers):
                assert main(argv + ["--out", str(out)]) == (
                    3 if selection == "single" else 2)
            assert capsys.readouterr().err == "".join(
                f"error: image {image_id}: {message}\n"
                for image_id, message in sorted(failures.items()))
            report = json.loads((out / "reflectance_report.json").read_text())
            assert report["failures"] == failures
            assert report["images"] == {
                image_id: record for image_id, record in records.items()
                if image_id not in users}
            assert {p.name for p in out.iterdir()} == kept
            assert all((out / name).read_bytes()
                       == (clean / name).read_bytes()
                       for name in kept - {"reflectance_report.json"})

    def test_first_failing_band_is_reported(self, tmp_path):
        """field_2's line fails in band 4 and its band 2 cannot be decoded:
        band 2's fault is the one reported."""
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2,
                                        with_decoy=True)
        edit_manifest(manifest, lambda raw: image(raw, "field_2").update(
            timestamp=4999.0))
        reason, _ = break_calibration_band(manifest.parent, "dark-as-bright")
        undecodable = manifest.parent / "field_2_b2.pgm"
        undecodable.write_bytes(b"P5\n2 2\n")
        for workers in (1, 2, 3, 4):
            out = tmp_path / str(workers)
            with helpers.workers(workers):
                assert main(["reflect", "--method", "elm2", "--manifest",
                             str(manifest), "--out", str(out),
                             "--selection", "time"]) == 2
            report = json.loads((out / "reflectance_report.json").read_text())
            assert report["failures"] == {
                "cal_b": f"calibration image cal_b: {reason}",
                "field_2": f"{undecodable}: incomplete PGM header"}
            assert sorted(report["images"]) == ["cal_a", "field_1"]


class TestMapsFreedOnFailure:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_failed_and_skipped_bands_give_their_maps_back(
            self, tmp_path, counted, command):
        """field_3, the last image of each lens model, fails in band 1 and
        skips its later bands; field_1 fails in band 3.  Each part still
        builds each map once, in its one storage."""
        argv, _ = COMMANDS[command]
        manifest = lens_per_band_flight(tmp_path / "flight")
        for image_id, band in (("field_3", 1), ("field_1", 3)):
            (manifest.parent / f"{image_id}_b{band}.pgm").unlink()
        for workers in (1, 3):
            counted.clear()
            with helpers.workers(workers):
                assert main(argv + ["--manifest", str(manifest),
                                    "--out", str(tmp_path / "out")]) == 2
            assert all(len(set(part)) == len(part) for part in
                       counted.builds.by_process().values())
            assert each_part_held_one_storage(counted)

    def test_failed_task_keeps_no_map_alive(self, tmp_path, monkeypatch):
        """A failed task's error is kept without the frames it was raised
        through, which hold its part's maps: every map storage is freed
        when the command returns, with no garbage collection."""
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        (manifest.parent / "field_2_b3.pgm").write_bytes(b"P6\n")
        storages = []
        build = cli._build_vignette

        def kept(model, k, rows=None):
            storages.append(weakref.ref(k))
            return build(model, k, rows)

        monkeypatch.setattr(cli, "_build_vignette", kept)
        gc.disable()
        try:
            with helpers.workers(1):
                assert main(["convert", "--manifest", str(manifest),
                             "--out", str(tmp_path / "out")]) == 2
            alive = [ref() for ref in storages]
        finally:
            gc.enable()
        assert len(alive) == 1 and alive == [None]


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
        build = cli._build_vignette

        def noted(model, k, rows=None):
            got = build(model, k, rows)
            held.note(got.rows is not None)
            return got

        monkeypatch.setattr(cli, "_build_vignette", noted)
        for workers in (1, 3):
            root = tmp_path / str(workers)
            manifest = helpers.build_flight(root / "flight", field_images=2)
            counted.clear()
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
        tasks = [cli._BandTask(0, position,
                               SimpleNamespace(band_index=position + 1),
                               "lens")
                 for position in (3, 1, 4, 0, 2)]
        ran = []

        def work(task, vignette):
            ran.append(task.position)
            if task.position in (1, 3):
                raise ValueError(task.position)
            return task.position

        entries = [SimpleNamespace(image_id="frame", bands=[None] * 5)]
        with pytest.raises(ValueError) as raised, helpers.workers(1):
            cli._image_pass(entries, tasks, work)
        assert raised.value.args == (1,)
        assert ran == [3, 1, 0]
        outcomes = {task.position: task.outcome for task in tasks}
        assert [type(outcomes[p]).__name__ for p in range(5)] == [
            "int", "ValueError", "NoneType", "ValueError", "NoneType"]


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
    """``reflect --method elm1|elm2`` takes each calibration band's panel
    means in the band pass itself: a part decodes a calibration band-frame
    the first time one of its images needs that band's line, and keeps
    the means for its later images."""

    @pytest.mark.parametrize("method", ["elm1", "elm2"])
    def test_maps_live_per_band_and_are_built_once(self, tmp_path, counted,
                                                   method):
        manifest = lens_per_band_flight(tmp_path / "flight")
        trees = []
        for i, workers in enumerate((None, 1, 3)):
            counted.clear()
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
            # Every map of a part takes its one storage.
            assert each_part_held_one_storage(counted)
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert all(tree == trees[0] for tree in trees[1:])

    @pytest.mark.parametrize("selection, decodes", [("dls", 30),
                                                    ("single", 25)])
    def test_means_are_taken_where_a_line_is_used(self, tmp_path,
                                                  monkeypatch, selection,
                                                  decodes):
        """Each image's frames are decoded once for its planes; a
        calibration image's frames once more for the means of each line
        an image uses.  Under ``single`` no image uses ``cal_b``."""
        manifest = helpers.build_flight(tmp_path / "flight",
                                        with_decoy=True)
        names = []
        read = cli.read_pgm16

        def counted_read(path):
            names.append(Path(path).name)
            return read(path)

        monkeypatch.setattr(cli, "read_pgm16", counted_read)
        with helpers.workers(1):
            assert main(["reflect", "--method", "elm2", "--manifest",
                         str(manifest), "--out", str(tmp_path / "out"),
                         "--selection", selection,
                         "--designated-id", "cal_a"]) == 0
        assert len(names) == decodes
        twice = {"cal_a"} | ({"cal_b"} if selection == "dls" else set())
        assert all(names.count(name)
                   == (2 if name.rsplit("_b", 1)[0] in twice else 1)
                   for name in names)

    def test_line_of_another_lens_model_keeps_the_frame_map(self,
                                                             tmp_path):
        """field_2's lens model differs from cal_a's, and at four workers
        a part begins at a field_2 task: that task is the first of its
        part to need cal_a's line, whose frame map takes the one storage
        of their shared size.  The part must take the line before
        field_2's own map, or field_2's plane goes through cal_a's map."""
        manifest = helpers.build_flight(tmp_path / "flight")
        edit_manifest(manifest, lambda raw: [
            band["metadata"].update(vignette={
                "center_x": 20.0, "center_y": 24.0,
                "coefficients": [1e-3, 0.0, 1e-6, 0.0, 0.0, 0.0]})
            for band in image(raw, "field_2")["bands"]])
        tasks = cli._plan_bands(tmp_path, load_manifest(manifest).images)
        runs = cli.part_runs(4, len(tasks))
        assert [tasks[run[0]].image for run in runs] == [0, 0, 1, 2]
        argv = ["reflect", "--method", "elm2", "--manifest", str(manifest)]
        trees = []
        for workers in (1, 2, 3, 4):
            out = tmp_path / str(workers)
            with helpers.workers(workers):
                assert main(argv + ["--out", str(out)]) == 0
            trees.append(files_in(out))
        assert all(tree == trees[0] for tree in trees[1:])

    def test_calibration_fault_in_last_band_fails_its_users(
            self, tmp_path, capsys):
        """An undecodable band-frame of ``cal_b`` fails the images that
        select ``cal_b``, at that band, and no other."""
        manifest = lens_per_band_flight(tmp_path / "flight")
        bad = manifest.parent / "cal_b_b5.pgm"
        bad.write_bytes(b"P6\n")
        undecodable = f"{bad}: not a binary PGM (magic b'P6', expected b'P5')"
        for workers in (1, 2, 3, 4):
            # DLS selection: cal_b serves itself only, and its own frame
            # reports the fault as it is.
            out = tmp_path / str(workers)
            with helpers.workers(workers):
                assert main(["reflect", "--method", "elm2", "--manifest",
                             str(manifest), "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"error: image cal_b: {undecodable}\n")
            report = json.loads((out / "reflectance_report.json").read_text())
            assert report["failures"] == {"cal_b": undecodable}
            assert sorted(report["images"]) == [
                "cal_a", "field_1", "field_2", "field_3"]
            assert not list(out.glob("cal_b_*"))
            # Every image selects cal_b: each fails in band 5.
            out = tmp_path / f"single{workers}"
            with helpers.workers(workers):
                assert main(["reflect", "--method", "elm2", "--manifest",
                             str(manifest), "--out", str(out), "--selection",
                             "single", "--designated-id", "cal_b"]) == 3
            failures = {image_id: f"calibration image cal_b: {undecodable}"
                        for image_id in ("cal_a", "field_1", "field_2",
                                         "field_3")}
            failures["cal_b"] = undecodable
            assert capsys.readouterr().err == "".join(
                f"error: image {image_id}: {message}\n"
                for image_id, message in sorted(failures.items()))
            report = json.loads((out / "reflectance_report.json").read_text())
            assert report["failures"] == failures
            assert [p.name for p in out.iterdir()] == [
                "reflectance_report.json"]

    def test_band_lines_are_the_fits_bit_for_bit(self, tmp_path,
                                                 monkeypatch):
        manifest = lens_per_band_flight(tmp_path / "flight")
        noted = helpers.ForkLog(tmp_path / "lines.log")

        def line_map(slope, bias):
            noted.note((slope.hex(), bias.hex()))
            return reflectance_module.line_map(slope, bias)

        monkeypatch.setattr(cli, "line_map", line_map)
        # The five-band fit of each calibration image, from panel means
        # taken here, one band-frame at a time.
        flight = load_manifest(manifest)
        rsr_set = flight.rsr_set()
        models = []
        for entry in flight.calibration_images:
            placements = (entry.calibration_bright, entry.calibration_dark)
            means = [reflectance_module.panel_means(
                RawImage(band.band_index, read_pgm16(band.path)),
                band.metadata, [p.roi for p in placements])
                for band in entry.bands]
            bright, dark = (reflectance_module.PanelObservation(
                p.panel_id, reflectance_module.panel_band_reflectance(
                    flight.panel_spectrum(p.panel_id), rsr_set),
                np.array([m[k] for m in means]), p.roi)
                for k, p in enumerate(placements))
            models.append(reflectance_module.fit_elm_2pt(
                reflectance_module.CalibrationImage(
                    entry.image_id, entry.timestamp, bright, entry.dls,
                    dark)))
        for workers in (1, 3):
            noted.clear()
            with helpers.workers(workers):
                assert main(["reflect", "--method", "elm2", "--manifest",
                             str(manifest), "--out",
                             str(tmp_path / str(workers))]) == 0
            lines = [line for _, line in noted.notes()]
            # Every band of five images, in whichever part.
            assert len(lines) == 25
            assert set(lines) == {
                (model.slope[k].hex(), model.bias[k].hex())
                for model in models for k in range(5)}


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
        assert not out.exists()
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
        assert not out.exists()

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
        """``main``'s exit code and stderr, and the files in ``out``, or
        ``None`` if there is no ``out``."""
        with helpers.workers(workers):
            code = main(argv + ["--manifest", str(manifest),
                                "--out", str(out)])
        return code, capsys.readouterr().err, ({
            path.name: path.read_bytes() for path in out.iterdir()}
            if out.exists() else None)

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
                            tmp_path / "out", 3) == (code, line, None)
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
               "result\n", None)
        helpers.no_child_left()

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_report_write_error_leaves_no_file(self, tmp_path, monkeypatch,
                                               capsys, command, workers):
        """A full disk under the report, in a fresh directory and in a
        rerun over a finished run: no file of either run is left, and no
        directory the run created."""
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
                   f"{os.strerror(errno.ENOSPC)}\n", {} if rerun else None)

    @pytest.mark.parametrize("command, noun", [("convert", "convert"),
                                               ("elm2", "process")])
    def test_empty_manifest_report_write_error_leaves_no_file(
            self, tmp_path, monkeypatch, capsys, command, noun):
        """A manifest of no image owns its report as any run does: a
        rerun that cannot write it leaves no report of the run before."""
        manifest = helpers.build_empty_flight(tmp_path / "flight")
        argv, out = self.COMMANDS[command], tmp_path / "out"
        assert self.run(capsys, argv, manifest, out, 1)[0] == 0
        assert len(list(out.iterdir())) == 1

        def full(path, payload):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "write_json", full)
        assert self.run(capsys, argv, manifest, out, 1) == (
            1, f"warning: manifest lists no images; nothing to {noun}\n"
               f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n",
            {})


class TestPlannedFiles:
    """Each band names its own files when the pass is planned: a failed
    image's files go, whichever run wrote them, and no removal may take a
    band-frame of the manifest."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("command", [["convert"],
                                         ["reflect", "--method", "elm2"]],
                             ids=["convert", "elm2"])
    def test_failed_image_leaves_no_earlier_file(self, tmp_path, capsys,
                                                 command, workers):
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        out = tmp_path / "out"
        argv = [command[0], "--manifest", str(manifest), "--out", str(out),
                *command[1:]]
        with helpers.workers(workers):
            assert main(argv) == 0
            assert len(list(out.glob("field_2_*"))) == 10
            (manifest.parent / "field_2_b3.pgm").write_bytes(b"P6\n")
            assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: image field_2: ")
        assert not list(out.glob("field_2_*"))
        assert len(list(out.glob("field_1_*"))) == 10

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("linked", [False, True],
                             ids=["same-folder", "symlink"])
    def test_pgm_export_never_overwrites_a_frame(self, tmp_path, capsys,
                                                 workers, linked):
        """``--out`` is the flight folder, so a planned PGM is a frame:
        the run stops before it opens any file.  Or ``--out`` holds a link
        to a frame under the name of a planned PGM: the run removes the
        link alone and writes the PGM in its place."""
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        flight = manifest.parent
        out, clash = flight, flight / "cal_a_b1.pgm"
        if linked:
            out = tmp_path / "out"
            out.mkdir()
            clash = out / "field_1_b4.pgm"
            clash.symlink_to(flight / "cal_a_b1.pgm")
        before = {path: path.read_bytes() for path in flight.iterdir()}
        argv = ["reflect", "--method", "aarr", "--write-pgm",
                "--manifest", str(manifest), "--out"]
        with helpers.workers(workers):
            assert main([*argv, str(out)]) == (0 if linked else 1)
            if linked:
                assert main([*argv, str(tmp_path / "fresh")]) == 0
        assert {path: path.read_bytes()
                for path in flight.iterdir()} == before
        assert capsys.readouterr().err == ("" if linked else (
            f"error: {clash}: an output of this run would overwrite this "
            "band-frame\n"))
        if linked:
            assert not clash.is_symlink()
            assert clash.read_bytes() == \
                (tmp_path / "fresh" / clash.name).read_bytes()

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("command", [["convert"],
                                         ["reflect", "--method", "elm2"]],
                             ids=["convert", "elm2"])
    def test_out_in_the_flight_folder_keeps_every_frame(self, tmp_path,
                                                        command, workers):
        """Without PGMs, a PGM name that is a band-frame is no output: it
        is neither written nor removed."""
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        flight = manifest.parent
        frames = {path: path.read_bytes() for path in flight.glob("*.pgm")}
        with helpers.workers(workers):
            assert main([command[0], "--manifest", str(manifest),
                         "--out", str(flight), *command[1:]]) == 0
        assert {path: path.read_bytes()
                for path in flight.glob("*.pgm")} == frames

    AARR_PGM = ["reflect", "--method", "aarr", "--write-pgm"]
    AARR = ["reflect", "--method", "aarr"]
    ELM2 = ["reflect", "--method", "elm2"]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("first, then, broken", [
        (AARR_PGM, AARR, True), (AARR_PGM, ELM2, False),
        (ELM2, ["convert"], False), (["convert"], ELM2, False)],
        ids=["aarr-pgm-failed-aarr", "aarr-pgm-elm2", "elm2-convert",
             "convert-elm2"])
    def test_rerun_leaves_only_its_own_files(self, tmp_path, capsys, first,
                                             then, broken, workers):
        """A run into the ``--out`` of another run, with ``field_2_b3``
        undecodable if ``broken``, leaves the files a run into an empty
        folder writes, byte for byte: no PGM, plane or report of the
        other run."""
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        out, fresh = tmp_path / "out", tmp_path / "fresh"

        def run(argv, folder):
            return main([argv[0], "--manifest", str(manifest),
                         "--out", str(folder), *argv[1:]])

        with helpers.workers(workers):
            assert run(first, out) == 0
            if broken:
                (manifest.parent / "field_2_b3.pgm").write_bytes(b"P6\n")
            assert run(then, out) == run(then, fresh) == (2 if broken else 0)
        assert files_in(out) == files_in(fresh)

    @pytest.mark.parametrize("first, then", [(ELM2, ["convert"]),
                                             (["convert"], ELM2)],
                             ids=["elm2-convert", "convert-elm2"])
    def test_empty_manifest_removes_what_the_report_names(self, tmp_path,
                                                          first, then):
        """A manifest of no image removes the earlier report and every
        plane, sidecar and PGM it names, as any run does: ``--out`` then
        holds what a run into an empty folder leaves."""
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        empty = helpers.build_empty_flight(tmp_path / "empty")
        out, fresh = tmp_path / "out", tmp_path / "fresh"

        def run(argv, flight, folder):
            return main([argv[0], "--manifest", str(flight),
                         "--out", str(folder), *argv[1:]])

        assert run(first, manifest, out) == 0
        assert len(files_in(out)) == 31
        assert run(then, empty, out) == run(then, empty, fresh) == 0
        assert files_in(out) == files_in(fresh)


#: The runs of the state machine below, by name.
RUNS = {"convert": ["convert"], "elm2": ["reflect", "--method", "elm2"],
        "aarr": ["reflect", "--method", "aarr"],
        "aarr-pgm": ["reflect", "--method", "aarr", "--write-pgm"]}


@pytest.fixture(scope="module")
def flights(tmp_path_factory):
    """Each flight of the state machine below by its fault: the
    two-field-image flight as built (``none``), with ``field_2_b3.pgm``
    undecodable, with a row model that :func:`row_factors` rejects on
    field_1's band 2 (``rows``), a manifest of no image (``empty``), and a
    flight of one field image (``one``), which does not list field_2."""
    root = tmp_path_factory.mktemp("flights")
    built = {fault: helpers.build_flight(root / fault, field_images=2)
             for fault in ("none", "undecodable", "rows")}
    (built["undecodable"].parent / "field_2_b3.pgm").write_bytes(b"P6\n")
    edit_manifest(built["rows"], lambda raw: image(raw, "field_1")[
        "bands"][1]["metadata"].update(a3=-0.05))
    return {**built, "empty": helpers.build_empty_flight(root / "empty"),
            "one": helpers.build_flight(root / "one", field_images=1)}


#: Each flight's exit code, whatever ran into its ``--out`` before.
EXIT_CODES = {"none": 0, "undecodable": 2, "rows": 2, "empty": 0, "one": 0}


def run_into(name, manifest, out, workers):
    """``main``'s exit code and stderr, and the files in ``out``."""
    argv = RUNS[name]
    stderr = io.StringIO()
    with helpers.workers(workers), contextlib.redirect_stderr(stderr):
        code = main([argv[0], "--manifest", str(manifest),
                     "--out", str(out), *argv[1:]])
    return code, stderr.getvalue(), files_in(out)


def ledger(out) -> set:
    """The report in ``out`` and each plane, sidecar and PGM its band
    records name."""
    names = set()
    for report in set(os.listdir(out)) & set(cli.REPORTS.values()):
        names.add(report)
        for entry in json.loads((out / report).read_text())[
                "images"].values():
            for record in entry["bands"].values():
                names |= {record["path"], record["path"] + ".json"}
                if "pgm" in record:
                    names.add(record["pgm"])
    return names


class OneRunPerOut(RuleBasedStateMachine):
    """Runs into one ``--out``, one after another.  After each, ``--out``
    holds the files of a run into an empty folder, byte for byte, and the
    file no report ever named; the exit code and stderr are that run's,
    and its report names every other file left."""

    def __init__(self, flights, fresh):
        super().__init__()
        self.flights, self.fresh = flights, fresh
        self.root = tempfile.TemporaryDirectory()
        self.out = Path(self.root.name, "out")
        self.out.mkdir()
        (self.out / "notes.txt").write_bytes(b"no command names this\n")
        self.kept = files_in(self.out)

    @rule(command=st.sampled_from(sorted(RUNS)),
          fault=st.sampled_from(sorted(EXIT_CODES)),
          workers=st.integers(1, 4))
    def run(self, command, fault, workers):
        code, err, files = run_into(command, self.flights[fault], self.out,
                                    workers)
        fresh = self.fresh(command, fault, workers)
        assert (code, err) == fresh[:2]
        assert code == EXIT_CODES[fault]
        assert files == {**self.kept, **fresh[2]}

    @invariant()
    def the_report_names_every_imagery_file(self):
        assert set(os.listdir(self.out)) - ledger(self.out) == {"notes.txt"}
        helpers.no_child_left()

    def teardown(self):
        self.root.cleanup()


class TestOneRunPerOut:
    # Each step runs one command, and each new (command, flight, workers)
    # one more into an empty folder.
    def test_a_run_leaves_what_a_fresh_run_leaves(self, flights):
        runs = {}

        def fresh(command, fault, workers):
            if (command, fault, workers) not in runs:
                with tempfile.TemporaryDirectory() as root:
                    runs[command, fault, workers] = run_into(
                        command, flights[fault], Path(root, "out"), workers)
            return runs[command, fault, workers]

        run_state_machine_as_test(
            lambda: OneRunPerOut(flights, fresh),
            settings=settings(max_examples=settings.default.max_examples // 4,
                              stateful_step_count=6))


def hostile_reports(victim):
    """A report's text by case, each naming a file no run may remove:
    ``victim``, a file outside ``--out``, or ``cal_a_b1.pgm``, a frame."""
    def naming(**record):
        return json.dumps({"images": {"field_9": {"bands": {"1": record}}}})

    return {"parent": naming(path="../x_b1.f32"),
            "dot-dot": naming(path="a/../x_b1.f32"),
            "absolute": naming(path=str(victim), pgm=str(victim)),
            "nul": naming(path="x\u0000_b1.f32", pgm="x\u0000_b1.pgm"),
            "frame": naming(path="cal_a_b1.pgm", pgm="cal_a_b1.pgm"),
            "non-string": naming(path=["x_b1.f32"], pgm={"x": 1}),
            "images-list": json.dumps({"images": [
                {"bands": {"1": {"path": "x_b1.f32"}}}]}),
            "truncated": naming(path="x_b1.f32")[:-9],
            "nested": "[" * 100_000}


#: A link to ``x_b1.f32`` outside ``--out`` by case: how it is made, and
#: the output name it sits at, a planned plane's or the report's.
LINKS = {f"{kind}-{at}": (make, name)
         for kind, make in (("symlink", os.symlink), ("hardlink", os.link))
         for at, name in (("plane", "field_1_b2.f32"),
                          ("report", "conversion_log.json"))}


class TestHostileLedger:
    """A report in ``--out`` is read as its ledger, but a name in it is
    trusted only as a plain output name (``<id>_b<n>.f32``, ``.f32.json``
    or ``.pgm``) that is no band-frame of the manifest.  A report that
    does not parse, or holds the wrong JSON kinds, names only itself.  A
    link at an output name is replaced, never written through."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("case",
                             sorted(hostile_reports(Path("x"))) + [*LINKS])
    def test_a_run_removes_nothing_it_may_not(self, tmp_path, case,
                                              workers):
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        flight = manifest.parent
        out = flight if case == "frame" else tmp_path / "out"
        victims = tmp_path / "victims"
        (victims / "inner").mkdir(parents=True)
        for victim in (tmp_path / "x_b1.f32", victims / "x_b1.f32"):
            victim.write_bytes(b"not an output\n")
        out.mkdir(exist_ok=True)
        # out/a/../x_b1.f32 is victims/x_b1.f32.
        (out / "a").symlink_to(victims / "inner")
        if case in LINKS:
            make, name = LINKS[case]
            make(tmp_path / "x_b1.f32", out / name)
        else:
            (out / "reflectance_report.json").write_text(
                hostile_reports(victims / "x_b1.f32")[case])
        outside = {path: path.read_bytes() for path in tmp_path.rglob("*")
                   if path.is_file() and out not in path.parents}
        frames = {path: path.read_bytes() for path in flight.glob("*.pgm")}
        argv = ["convert", "--manifest", str(manifest)]
        stderr = io.StringIO()
        with helpers.workers(workers), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
            fresh = main([*argv, "--out", str(tmp_path / "fresh")])
        assert code == fresh == 0
        assert {path: path.read_bytes() for path in tmp_path.rglob("*")
                if path.is_file() and out not in path.parents
                and tmp_path / "fresh" not in path.parents} == outside
        assert {path: path.read_bytes()
                for path in flight.glob("*.pgm")} == frames
        warnings = [line for line in stderr.getvalue().splitlines()
                    if line.startswith("warning: ")]
        assert stderr.getvalue() == "".join(line + "\n" for line in warnings)
        # A link at the report name reads as a report that does not parse.
        assert len(warnings) == (case in ("images-list", "truncated",
                                          "nested", "symlink-report",
                                          "hardlink-report"))
        assert not (out / "reflectance_report.json").exists()
        if case in LINKS:
            left = out / LINKS[case][1]
            assert not left.is_symlink() and left.stat().st_nlink == 1
            assert left.read_bytes() == (tmp_path / "fresh" /
                                         left.name).read_bytes()


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
