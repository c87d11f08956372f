"""No module imports a name it never uses, over the package, the tests
and the benchmark (read, never edited); the package defines no function,
class, method or module-level constant that neither the package nor the
benchmark uses; no package module but `trialspace` casts a line query;
and no package module imports a SciPy submodule when it is itself
imported: the checks of four lint rules."""
import ast
import collections
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "shiftfem").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + BENCH
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")


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


def dead_definitions(package, bench=None):
    """The functions, classes and methods (dunders excepted) and the
    module-level UPPER_CASE constants defined in the `package` sources
    that are used nowhere outside their own definition, as sorted
    (module, line, name) triples.  `package` and `bench` map
    module names to sources.

    A package module uses a name when it reads it as a bare name or an
    attribute.  A benchmark module uses one only by an attribute read, a
    `from shiftfem... import`, or a string constant equal to it (the
    attribute names it patches): a bare name there is its own function,
    which may share a package method's name."""
    used = collections.Counter()
    trees = {module: ast.parse(source) for module, source in package.items()}
    for tree in trees.values():
        used.update(_read_names(tree))
    for source in (bench or {}).values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used[node.attr] += 1
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").startswith("shiftfem")):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used[node.value] += 1
    dead = []
    for module, tree in trees.items():
        for node, name in _definitions(tree):
            if used[name] == _read_names(node)[name]:
                dead.append((module, node.lineno, name))
    return sorted(dead)


def line_query_readers(package):
    """The modules of `package` (module name -> source), `trialspace`
    excepted, that read `nearest_line_intersection`: as a name or an
    attribute, by an import or as a string constant.
    `trialspace.shift_from_entities` alone forms the search bracket of a
    line query and names the entity of a line that misses."""
    readers = []
    for module, source in package.items():
        tree = ast.parse(source)
        names = set(_read_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant):
                names.add(node.value)
        if module != "trialspace" and "nearest_line_intersection" in names:
            readers.append(module)
    return sorted(readers)


def eager_scipy_imports(source):
    """The (line, name) of each SciPy submodule, or name from one, that
    `source` imports outside a function body, so when it is itself
    imported.  A bare `import scipy` loads no submodule: SciPy loads each
    on first attribute access."""
    found = []
    nodes = list(ast.parse(source).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("scipy.")]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] == "scipy":
                found += [(node.lineno, node.module + "." + alias.name)
                          for alias in node.names]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes.extend(ast.iter_child_nodes(node))
    return sorted(found)


def _definitions(tree):
    """The functions, classes and methods of `tree` (dunders excepted) and
    the UPPER_CASE names its module body assigns, as (node, name) pairs."""
    for node in ast.walk(tree):
        if (isinstance(node, DEFINITIONS)
                and not (node.name.startswith("__")
                         and node.name.endswith("__"))):
            yield node, node.name
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and CONSTANT.match(target.id):
                yield node, target.id


def _read_names(tree):
    """How often `tree` reads each bare name and attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load))


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


def test_every_package_definition_is_used():
    assert dead_definitions({p.stem: p.read_text() for p in PACKAGE},
                            {p.stem: p.read_text() for p in BENCH}) == []


def test_the_check_finds_an_unused_definition():
    package = {
        "geometry": ("class Shape:\n"
                     "    def __init__(self):\n        self.size = 1\n"
                     "    def area(self):\n        return self.area()\n"
                     "    def volume(self):\n        return 0\n"
                     "    def patched(self):\n        return 0\n"
                     "def helper():\n    return Shape()\n"
                     "def spare():\n    return helper()\n"
                     "SIDES = 4\n_LIMIT: int = 2 ** 10\n"
                     "_STEP = _STEP_BASE = 2\nscale = 1\n"),
        "run": ("from .geometry import helper, SIDES\n"
                "helper().volume()\nprint(SIDES)\n"),
    }
    bench = {"trace": ("from shiftfem.geometry import spare\n"
                       "PATCHES = [('patched', None), ('_STEP', 1)]\n"
                       "def area():\n    return 0\nprint(area())\n")}
    # `area` reads only itself; the bench reads its own `area`, a bare
    # name; lower-case module names are not constants
    assert dead_definitions(package, bench) == [
        ("geometry", 4, "area"), ("geometry", 15, "_LIMIT"),
        ("geometry", 16, "_STEP_BASE")]
    assert dead_definitions(package) == [
        ("geometry", 4, "area"), ("geometry", 8, "patched"),
        ("geometry", 12, "spare"), ("geometry", 15, "_LIMIT"),
        ("geometry", 16, "_STEP"), ("geometry", 16, "_STEP_BASE")]


def test_only_trialspace_casts_lines():
    assert line_query_readers({p.stem: p.read_text() for p in PACKAGE}) == []


def test_the_check_finds_a_line_query_outside_trialspace():
    package = {
        "surfaces": ("class Surface:\n"
                     "    def nearest_line_intersection(self, o, d, b):\n"
                     "        return o\n"),
        "trialspace": "def shift(s):\n    return s.nearest_line_intersection\n",
        "direct": "def f(s):\n    return s.nearest_line_intersection(0, 1, 2)\n",
        "indirect": ("def f(s):\n"
                     "    return getattr(s, 'nearest_line_intersection')\n"),
        "named": "from .surfaces import nearest_line_intersection as q\n",
    }
    assert line_query_readers(package) == ["direct", "indirect", "named"]


def test_package_defers_scipy_submodules():
    imports = {p.stem: eager_scipy_imports(p.read_text()) for p in PACKAGE}
    assert {module: found for module, found in imports.items() if found} == {}


def test_the_check_finds_an_eager_scipy_import():
    source = ("import scipy\nimport scipy as sc\nimport scipyx\n"
              "import scipy.sparse as sp\nfrom scipy import linalg\n"
              "from scipy.sparse.linalg import splu\nfrom . import scipy_io\n"
              "try:\n    import numpy, scipy.io\nexcept ImportError:\n"
              "    pass\nclass Solver:\n    from scipy import special\n"
              "def f():\n    import scipy.optimize\n"
              "    from scipy.io import mmwrite\n")
    assert eager_scipy_imports(source) == [
        (4, "scipy.sparse"), (5, "scipy.linalg"),
        (6, "scipy.sparse.linalg.splu"), (9, "scipy.io"),
        (13, "scipy.special")]
