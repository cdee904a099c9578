"""Checks on the package source itself.

No linter ships with the test dependencies, so the one lint rule the
package keeps, no unused imports, is checked here with the standard
library's ``ast``.
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
