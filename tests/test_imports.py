"""No module imports a name it never uses: the check of an unused-import
lint rule, over the package and the tests."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "shiftfem").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """The names that `source` imports and reads nowhere, with their line
    numbers.  `from __future__` imports and lines marked `# noqa: F401`
    are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re\n"
              "from json import dumps, loads as read\n"
              "from math import pi  # noqa: F401\n"
              "os.path.join(read('1'))\n")
    assert unused_imports(source) == [(3, "re"), (4, "dumps")]
