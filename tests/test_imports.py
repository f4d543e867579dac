"""Every module of the package uses each name it imports.

No linter ships with the project, so this stdlib ``ast`` walk catches
imports left behind when code is deleted. ``__init__.py`` re-exports
names on purpose and is not checked.
"""

import ast
from pathlib import Path

import pytest

import gsfa

PACKAGE = Path(gsfa.__file__).parent

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


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    return [(name, line) for name, line in _imported_names(tree)
            if name not in used and (path.stem, name) not in REEXPORTED]


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    assert unused_imports(PACKAGE / module) == []


def test_unused_import_is_reported(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nimport numpy as np\nfrom math import pi, tau\n"
                    "from .graph import load_graph\n\nx = np.pi * tau\n")
    assert unused_imports(path) == [("os", 1), ("pi", 3), ("load_graph", 4)]
