"""Every name a library module imports is used in it, so a deletion
cannot leave a dead import behind."""

import ast
from pathlib import Path

import pytest

import pmuplace

MODULES = sorted(path for path in Path(pmuplace.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def imported_names(tree: ast.AST) -> set[str]:
    """The names the module's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported_names(tree) - used) == []
