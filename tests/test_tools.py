"""The scripts under ``tools/``."""

import csv
import importlib.util
import json
import shutil
import subprocess
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import helpers

TOOLS = Path(__file__).resolve().parents[1] / "tools"
DATA = TOOLS.parent / "src" / "suascal" / "data"


def load_tool(name: str):
    """The script ``tools/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_pairs():
    return load_tool("bench_pairs")


def checkout(root: Path) -> Path:
    """A tree with the layout ``bench_pairs`` reads, and no bytecode."""
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_text("")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text("")
    shutil.copy(TOOLS.parent / "BENCHMARK.json", root)
    return root


class TestBenchPairs:
    @pytest.mark.parametrize("side, stale, named", [
        ("parent", "src/pkg/__pycache__", "src/pkg/__pycache__"),
        ("change", "perfbench/__pycache__/spans.cpython-311.pyc",
         "perfbench/__pycache__"),
        ("change", "src/pkg/mod.pyc", "src/pkg/mod.pyc"),
    ])
    def test_checkout_with_bytecode_is_refused(self, bench_pairs, tmp_path,
                                               monkeypatch, capsys, side,
                                               stale, named):
        trees = {name: checkout(tmp_path / name)
                 for name in ("parent", "change")}
        path = trees[side] / stale
        if path.suffix == ".pyc":
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"")
        else:
            path.mkdir()
        runs = []
        monkeypatch.setattr(bench_pairs, "run_once",
                            lambda *args: runs.append(args))
        code = bench_pairs.main(["--parent", str(trees["parent"]),
                                 "--change", str(trees["change"]),
                                 "--workload", "sim_grid", "--pairs", "1"])
        assert code == 1
        assert runs == []
        assert capsys.readouterr().err.startswith(
            f"error: {trees[side] / named}: compiled bytecode")

    def test_clean_checkouts_run_without_writing_bytecode(
            self, bench_pairs, tmp_path, monkeypatch):
        trees = [checkout(tmp_path / name) for name in ("parent", "change")]
        runs = []

        def run(argv, cwd, env, **kwargs):
            runs.append((cwd, env.get("PYTHONDONTWRITEBYTECODE")))
            result = {"correct": True, "failed": 0, "metrics": {
                name: {"value": 1.0}
                for name in ("setup_s", "ops_per_s", "peak_rss_mb")}}
            return SimpleNamespace(returncode=0, stderr="",
                                   stdout=json.dumps(result) + "\n")

        monkeypatch.setattr(bench_pairs.subprocess, "run", run)
        code = bench_pairs.main(["--parent", str(trees[0]), "--change",
                                 str(trees[1]), "--workload", "sim_grid",
                                 "--pairs", "2"])
        assert code == 0
        assert runs == [(tree, "1") for tree in
                        (trees[0], trees[1], trees[1], trees[0])]

    @pytest.mark.parametrize("parent, change, expected", [
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [120, 121, 119, 120, 122, 118, 120, 121, 119, 120], "gain"),
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [70, 71, 69, 70, 72, 68, 70, 71, 69, 70], "regression"),
        ([50, 150, 60, 140, 70, 130, 80, 120, 90, 110],
         [55, 145, 65, 135, 75, 125, 85, 115, 95, 105], "unresolved"),
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [101, 100, 100, 99, 101, 99, 101, 100, 100, 101], "same"),
    ], ids=["gain", "regression", "unresolved", "same"])
    def test_verdict_of_the_claim_rule(self, bench_pairs, tmp_path,
                                       monkeypatch, capsys, parent, change,
                                       expected):
        trees = {name: checkout(tmp_path / name)
                 for name in ("parent", "change")}
        values = {trees["parent"]: iter(parent), trees["change"]: iter(change)}

        def run_once(tree, workload, seconds):
            metrics = {"setup_s": 0.3, "ops_per_s": next(values[tree]),
                       "peak_rss_mb": 44.0}
            return {"correct": True, "failed": 0, "metrics": {
                name: {"value": value} for name, value in metrics.items()}}

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        out = tmp_path / "bench.json"
        code = bench_pairs.main(["--parent", str(trees["parent"]),
                                 "--change", str(trees["change"]),
                                 "--workload", "sim_grid", "--pairs", "10",
                                 "--json-out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())["workloads"]["sim_grid"]
        assert {name: row["verdict"] for name, row in report.items()} == {
            "setup_s": "same", "ops_per_s": expected, "peak_rss_mb": "same"}
        lines = capsys.readouterr().out.splitlines()
        assert [line.rsplit(": ", 1)[1] for line in lines] == [
            "same", expected, "same"]

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_json_names_each_side_commit(self, bench_pairs, tmp_path,
                                         monkeypatch):
        trees = {name: checkout(tmp_path / name)
                 for name in ("parent", "change")}
        git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@test"]
        for argv in (["init", "-q"], ["add", "-A"],
                     ["commit", "-q", "-m", "change"]):
            subprocess.run(git + argv, cwd=trees["change"], check=True)
        head = subprocess.run(["git", "rev-parse", "HEAD"],
                              cwd=trees["change"], capture_output=True,
                              text=True, check=True).stdout.strip()

        def run_once(tree, workload, seconds):
            return {"correct": True, "failed": 0, "metrics": {
                name: {"value": 1.0}
                for name in ("setup_s", "ops_per_s", "peak_rss_mb")}}

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        out = tmp_path / "bench.json"
        assert bench_pairs.main(["--parent", str(trees["parent"]),
                                 "--change", str(trees["change"]),
                                 "--workload", "sim_grid", "--pairs", "1",
                                 "--json-out", str(out)]) == 0
        assert json.loads(out.read_text())["commits"] == {
            "parent": None, "change": head}


def read_columns(path: Path) -> tuple[list[str], list[tuple[str, ...]]]:
    """A CSV file's header and its columns of text fields."""
    with path.open(newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    assert all(len(row) == len(header) for row in rows)
    return header, list(zip(*rows))


class TestGenerateFixtures:
    def test_bundled_data_is_what_the_generator_writes(self, tmp_path,
                                                       monkeypatch):
        """Every file under ``src/suascal/data`` comes from the generator:
        the same files, headers and rows.  Spectral values are compared to
        1e-15 relative, not as bytes, since numpy's ``exp`` and ``expm1``
        may differ by an ulp between SIMD paths; every other field,
        wavelengths included, must be the same text."""
        generator = load_tool("generate_fixtures")
        monkeypatch.setattr(generator, "DATA_DIR", tmp_path)
        generator.main()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(p.name for p in DATA.iterdir())
        for path in sorted(DATA.iterdir()):
            header, expected = read_columns(path)
            got_header, got = read_columns(tmp_path / path.name)
            assert (got_header, len(got)) == (header, len(expected)), \
                path.name
            for name, want, have in zip(header, expected, got):
                if name == "value":
                    np.testing.assert_allclose(
                        np.array(have, dtype=float),
                        np.array(want, dtype=float), rtol=1e-15, atol=0,
                        err_msg=path.name)
                else:
                    assert have == want, (path.name, name)


class TestPeakRss:
    def test_command_and_largest_part(self, tmp_path, capsys):
        peak_rss = load_tool("peak_rss")
        manifest = helpers.build_flight(tmp_path / "flight", field_images=2)
        runs = {}
        for workers in (1, 2):
            out = tmp_path / str(workers)
            assert peak_rss.main(["--workers", str(workers), "--", "convert",
                                  "--manifest", str(manifest),
                                  "--out", str(out)]) == 0
            runs[workers] = json.loads(capsys.readouterr().out)
            assert len(list(out.iterdir())) == 31
        assert runs[1]["exit"] == runs[2]["exit"] == 0
        # numpy and the package take about 30 MB, the helper flight little
        # more; the test run's own peak, whatever it is, is not carried in.
        assert 20 < runs[1]["command_mb"] < 80
        assert runs[1]["largest_part_mb"] == 0
        assert 0 < runs[2]["largest_part_mb"] < 80

    def test_exit_code_of_a_failed_command(self, tmp_path, capsys):
        peak_rss = load_tool("peak_rss")
        assert peak_rss.main(["convert", "--manifest",
                              str(tmp_path / "missing.json"),
                              "--out", str(tmp_path / "out")]) == 0
        assert json.loads(capsys.readouterr().out)["exit"] == 1
