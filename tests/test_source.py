"""Checks on the package source itself.

No linter ships with the test dependencies, so the package's three lint
rules are checked here with the standard library's ``ast``: no module
imports a name it does not use; no private top-level name goes
unreferenced in the package, as one a deletion leaves behind would; and
only ``parts.removed_on_error`` and ``cli._write_run`` create or remove
files and folders, so what a command leaves in its folder is decided in
one place.
"""

import ast
from pathlib import Path

import pytest

import suascal

PACKAGE = Path(suascal.__file__).parent
#: ``__init__.py`` imports names to re-export them, not to use them.
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(
        imported.items(), key=lambda item: item[1]) if name not in used]


class TestUnusedImports:
    def test_finds_an_unused_name(self):
        source = ("from __future__ import annotations\n"
                  "import os.path\n"
                  "from math import inf, pi as half_turn, tau\n"
                  "print(os, tau)\n")
        assert unused_imports(source) == ["line 3: inf", "line 3: half_turn"]

    @pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
    def test_module_uses_every_name_it_imports(self, module):
        assert unused_imports(module.read_text(encoding="utf-8")) == []


def private_names(source: str) -> dict[str, int]:
    """The private top-level names a module defines (``_name``, not
    ``__name__``), each with its line."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [target.id for target in getattr(
                node, "targets", [getattr(node, "target", None)])
                if isinstance(target, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names.setdefault(name, node.lineno)
    return names


def referenced_names(source: str) -> set[str]:
    """Every name a module reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The private top-level names of ``sources`` (module name to source)
    that no module of them refers to."""
    used = set().union(*map(referenced_names, sources.values()))
    return [f"{module} line {line}: {name}"
            for module, source in sorted(sources.items())
            for name, line in private_names(source).items()
            if name not in used]


class TestUnreferencedPrivateNames:
    def test_finds_an_orphan(self):
        sources = {"a.py": ("_LIMIT: int = 3\n"
                            "_unused = 1\n"
                            "def _helper():\n"
                            "    return _LIMIT\n"
                            "class _Orphan:\n"
                            "    _unused = 2\n"
                            "__version__ = '1'\n"),
                   "b.py": "from a import _helper\n"}
        assert unreferenced_private_names(sources) == [
            "a.py line 2: _unused", "a.py line 5: _Orphan"]

    def test_package_refers_to_every_private_name(self):
        sources = {path.name: path.read_text(encoding="utf-8")
                   for path in PACKAGE.glob("*.py")}
        assert unreferenced_private_names(sources) == []


#: The calls that create or remove a file or folder.
FILESYSTEM_CALLS = {"mkdir", "makedirs", "rmdir", "removedirs", "rmtree",
                    "unlink"}
#: Their owners: the one rule for what a command leaves in its folder,
#: and the band pass's removal of a failed image's files.
FILESYSTEM_OWNERS = {("parts.py", "removed_on_error"),
                     ("cli.py", "_write_run")}


def filesystem_calls(sources: dict[str, str]) -> list[str]:
    """The calls of :data:`FILESYSTEM_CALLS` in ``sources`` (module name
    to source) that a top-level definition other than one of
    :data:`FILESYSTEM_OWNERS` makes."""
    found = []
    for module, source in sorted(sources.items()):
        for top in ast.parse(source).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr",
                               getattr(node.func, "id", None))
                if name in FILESYSTEM_CALLS and \
                        (module, owner) not in FILESYSTEM_OWNERS:
                    found.append(f"{module} line {node.lineno}: {name} "
                                 f"in {owner}")
    return found


class TestFilesystemCalls:
    def test_finds_a_call_outside_its_owners(self):
        sources = {"parts.py": ("def removed_on_error(folder):\n"
                                "    folder.mkdir()\n"
                                "def other(path):\n"
                                "    path.unlink()\n"),
                   "cli.py": ("from os import rmdir\n"
                              "class Run:\n"
                              "    def _write_run(self, path):\n"
                              "        rmdir(path)\n"
                              "def _write_run(path):\n"
                              "    path.parent.mkdir()\n"
                              "    path.unlink(missing_ok=True)\n"
                              "shutil.rmtree('x')\n")}
        assert filesystem_calls(sources) == [
            "cli.py line 4: rmdir in Run", "cli.py line 8: rmtree in None",
            "parts.py line 4: unlink in other"]

    def test_only_the_owners_create_or_remove_files(self):
        sources = {path.name: path.read_text(encoding="utf-8")
                   for path in PACKAGE.glob("*.py")}
        assert filesystem_calls(sources) == []
