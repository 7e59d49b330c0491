"""Only `PowerCase.__post_init__` reads a `Bus.fault` or a
`Branch.fault`: a case is checked when it is made, so no stage
re-applies the model's rules to the case it is given, and no reader
checks a record before the case does."""

import ast
from pathlib import Path

import pytest

import pmuplace

CASES = Path(pmuplace.__file__).parent / "cases.py"
MODULES = sorted(path for path in CASES.parent.glob("*.py") if path != CASES)


def fault_reads(tree: ast.AST) -> list[str]:
    """Each `x.fault` in `tree`."""
    return [f"line {node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "fault"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_cases_reads_faults(path):
    assert fault_reads(ast.parse(path.read_text())) == []


def test_only_the_case_reads_faults_in_cases():
    tree = ast.parse(CASES.read_text())
    post_init, = (node for cls in tree.body if isinstance(cls, ast.ClassDef)
                  and cls.name == "PowerCase" for node in cls.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "__post_init__")
    checked = fault_reads(post_init)
    assert checked
    assert sorted(fault_reads(tree)) == sorted(checked)


@pytest.mark.parametrize("source, expected", [
    ("br.fault", 1), ("f'{bus.fault}'", 1), ("case.buses[0].fault", 1),
    ("fault", 0), ("'fault'", 0), ("br.faults", 0)])
def test_fault_reads_are_recognised(source, expected):
    assert len(fault_reads(ast.parse(source))) == expected
