"""Every name a library module imports is used in it, every parameter
of a library function is read in its body, and every module-level name
is read somewhere in the library or exported, so a deletion cannot
leave a dead import, parameter or helper behind; every attribute the
benchmark's tracer wraps exists, so a rename cannot leave it behind."""

import ast
import importlib
import itertools
from pathlib import Path

import pytest

import pmuplace
from conftest import load_perfbench

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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    unread = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [arg.arg for arg in itertools.chain(
            args.posonlyargs, args.args, args.kwonlyargs,
            filter(None, (args.vararg, args.kwarg)))]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name)
                and isinstance(name.ctx, ast.Load)}
        unread += [f"{node.name}({param})" for param in params
                   if param not in read]
    assert unread == []


def defined_names(tree: ast.Module) -> set[str]:
    """The functions, classes and assigned names at the module's top
    level, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names |= {name.id for target in targets
                      for name in ast.walk(target)
                      if isinstance(name, ast.Name)}
    return {name for name in names if not name.startswith("__")}


def test_every_module_level_name_is_used():
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(pmuplace.__file__).parent.glob("*.py")}
    loaded = set()
    for node in itertools.chain.from_iterable(map(ast.walk, trees.values())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            loaded.add(node.attr)
    unused = [f"{module}:{name}" for module, tree in sorted(trees.items())
              for name in sorted(defined_names(tree) - loaded
                                 - set(pmuplace.__all__))]
    assert unused == []


def test_every_traced_target_resolves():
    """`perfbench/tracing.py` wraps each (module, attribute) of `TARGETS`
    by name, so a renamed or removed function fails here and not only in
    a traced benchmark run."""
    for module, attribute, _ in load_perfbench("tracing").TARGETS:
        assert callable(getattr(importlib.import_module(module), attribute))
