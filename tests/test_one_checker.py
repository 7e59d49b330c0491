"""Only `cases.py` reads a `Bus.fault` or a `Branch.fault`: a
`PowerCase` is checked when it is made, so no stage re-applies the
readers' rules to the case it is given."""

import ast
from pathlib import Path

import pytest

import pmuplace

MODULES = sorted(path for path in Path(pmuplace.__file__).parent.glob("*.py")
                 if path.name != "cases.py")


def fault_reads(tree: ast.AST) -> list[str]:
    """Each `x.fault` in `tree`."""
    return [f"line {node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "fault"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_cases_reads_faults(path):
    assert fault_reads(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("source, expected", [
    ("br.fault", 1), ("f'{bus.fault}'", 1), ("case.buses[0].fault", 1),
    ("fault", 0), ("'fault'", 0), ("br.faults", 0)])
def test_fault_reads_are_recognised(source, expected):
    assert len(fault_reads(ast.parse(source))) == expected
