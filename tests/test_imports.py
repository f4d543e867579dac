"""Every module of the package uses each name it imports, and declares it.

No linter ships with the project, so this stdlib ``ast`` walk catches
imports left behind when code is deleted, and private module-level
names (``_x`` functions, classes and assignments) that their module
never reads. ``__init__.py`` re-exports names on purpose and is not
checked for unused names. Every package a module imports from outside
the standard library must be listed in ``pyproject.toml``'s
``[project].dependencies``.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

import gsfa

PACKAGE = Path(gsfa.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

#: Imports kept as module attributes for callers that reach them there.
REEXPORTED = {
    # cli and the benchmark call builders.eliminate_negative_weights
    ("builders", "eliminate_negative_weights"),
}


def _imported_names(tree):
    """(bound name, line) of every import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _private_definitions(tree):
    """(name, line) of every ``_x`` def, class or assignment at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    return [(name, line) for name, line in _imported_names(tree)
            if name not in used and (path.stem, name) not in REEXPORTED]


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    assert unused_imports(PACKAGE / module) == []


def unread_private_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [(name, line) for name, line in _private_definitions(tree)
            if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_every_private_name(module):
    assert unread_private_names(PACKAGE / module) == []


def test_unread_private_name_is_reported(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "_NAMES = ('a', 'b')\n_USED = 1\n_pair, _other = 2, 3\n"
        "__all__ = []\n\n\ndef _helper():\n    return _USED + _pair\n\n\n"
        "def _unused():\n    _local = 4\n    return _local\n\n\n"
        "class _Spare:\n    pass\n\n\nprint(_helper())\n")
    assert unread_private_names(path) == [
        ("_NAMES", 1), ("_other", 3), ("_unused", 11), ("_Spare", 16)]


def test_unused_import_is_reported(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nimport numpy as np\nfrom math import pi, tau\n"
                    "from .graph import load_graph\n\nx = np.pi * tau\n")
    assert unused_imports(path) == [("os", 1), ("pi", 3), ("load_graph", 4)]


def _third_party_imports(tree):
    """Top-level names of the absolute imports outside the standard library."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names:
                yield top


def undeclared_imports(package, pyproject_text):
    """Sorted third-party import names of ``package/*.py`` not declared."""
    requirements = tomllib.loads(pyproject_text)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
                .replace("-", "_") for req in requirements}
    imported = set()
    for path in package.glob("*.py"):
        imported.update(_third_party_imports(ast.parse(path.read_text())))
    return sorted(imported - declared)


def test_third_party_imports_are_declared():
    assert undeclared_imports(PACKAGE, PYPROJECT.read_text()) == []


def test_undeclared_import_is_reported():
    text = PYPROJECT.read_text()
    without = re.sub(r'\n\s*"orjson[^"]*",', "", text)
    assert without != text
    assert undeclared_imports(PACKAGE, without) == ["orjson"]
