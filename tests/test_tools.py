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
