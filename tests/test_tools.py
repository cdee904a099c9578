"""The scripts under ``tools/``."""

import importlib.util
import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
