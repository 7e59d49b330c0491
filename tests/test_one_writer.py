"""Only `report.py` touches the disk: no other library module writes,
moves or removes a file, so every output goes through its one writer."""

import ast
from pathlib import Path

import pytest

import pmuplace

MODULES = sorted(path for path in Path(pmuplace.__file__).parent.glob("*.py")
                 if path.name not in ("__init__.py", "report.py"))

# Path and os methods that change the disk. `replace` is also a str
# method (two or more arguments) and `dataclasses.replace` (a bare
# name), so `writes` counts it only as a method of `os` or one taking
# one argument.
WRITERS = {"write_text", "write_bytes", "unlink", "rename", "mkdir"}


def open_mode(call: ast.Call) -> str:
    """The mode of an `open(file, mode)` or `path.open(mode)` call: "r"
    when none is given, "w" when it is not a constant."""
    args = call.args[isinstance(call.func, ast.Name):]
    mode = args[0] if args else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"),
        ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) else "w"


def writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        name, method = func.id, False
    elif isinstance(func, ast.Attribute):
        name, method = func.attr, True
    else:
        return False
    if name == "open":
        return not set(open_mode(call)).isdisjoint("wax+")
    if name == "replace" and method:
        on_os = isinstance(func.value, ast.Name) and func.value.id == "os"
        return on_os or len(call.args) == 1
    return method and name in WRITERS


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_report_writes_files(path):
    tree = ast.parse(path.read_text())
    found = [f"line {node.lineno}: {ast.unparse(node.func)}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and writes(node)]
    assert found == []


@pytest.mark.parametrize("source, expected", [
    ("path.write_text('x')", True), ("p.unlink(missing_ok=True)", True),
    ("temp.replace(target)", True), ("os.replace(a, b)", True),
    ("open(p, 'w')", True), ("open(p, mode='a')", True),
    ("p.open('x')", True), ("open(p, mode)", True), ("p.mkdir()", True),
    ("text.replace('a', 'b')", False), ("replace(cfg, mode='count')", False),
    ("open(p)", False), ("open(p, 'rb')", False), ("p.open()", False),
    ("p.read_text()", False)])
def test_writer_calls_are_recognised(source, expected):
    assert writes(ast.parse(source, mode="eval").body) is expected
