"""Shared fixtures: bundled systems, tiny literal case files, random
connected instances, the benchmark's tied-grid builder."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import pmuplace as pp

BUNDLED = ["ieee9", "ieee14", "ieee30", "ieee39", "ieee57", "ieee118"]

TWO_BUS_CDF = (
    " 08/08/26 PMUPLACE ARCHIVE      100.0 2026 S TWO BUS MINIMAL\n"
    "BUS DATA FOLLOWS                            2 ITEMS\n"
    "   1 BUS 1         1  1  3 1.0000   0.00     0.00      0.00"
    "    0.00    0.00    0.00 1.000    0.00    0.00  0.0000  0.0000    0\n"
    "   2 BUS 2         1  1  0 1.0000   0.00     0.00      0.00"
    "    0.00    0.00    0.00 1.000    0.00    0.00  0.0000  0.0000    0\n"
    "-999\n"
    "BRANCH DATA FOLLOWS                         1 ITEMS\n"
    "   1    2  1  1  10   0.00000    0.50000   0.00000     0     0"
    "     0   0 0  0.0000    0.00\n"
    "-999\n"
    "END OF DATA\n"
)

TWO_SLACK_CDF = TWO_BUS_CDF.replace(
    "   2 BUS 2         1  1  0", "   2 BUS 2         1  1  3").replace(
    "TWO BUS MINIMAL", "TWO SLACKS")

TRIANGLE_CSV = """\
[case]
name = triangle
mva_base = 100.0

[buses]
id,type,vmag,vang_deg,pload,qload,pgen,qgen,gs,bs
1,slack,1.0,0.0,0,0,0,0,0,0
2,PQ,1.0,0.0,0,0,0,0,0,0
3,PQ,1.0,0.0,0,0,0,0,0,0

[branches]
from,to,r,x,b,tap,shift_deg
1,2,0.0,1.0,0.0,1.0,0.0
2,3,0.0,1.0,0.0,1.0,0.0
1,3,0.0,1.0,0.0,1.0,0.0
"""

# At the flat start the PQ bus's reactive mismatch does not move with
# its voltage (shunt b = 1/(2x)), so the first Newton Jacobian is
# exactly singular.
SINGULAR_JACOBIAN_CSV = """\
[case]
name = singular
mva_base = 100.0

[buses]
id,type,vmag,vang_deg,pload,qload,pgen,qgen,gs,bs
1,slack,1.0,0.0,0,0,0,0,0,0
2,PQ,1.0,0.0,0,0,0,0,0,1.0

[branches]
from,to,r,x,b,tap,shift_deg
1,2,0.0,0.5,0.0,1.0,0.0
"""


# Two parallel circuits between the only two buses.
PARALLEL_PAIR_CSV = """\
[case]
name = pair
mva_base = 100.0

[buses]
id,type,vmag,vang_deg,pload,qload,pgen,qgen,gs,bs
1,slack,1.0,0.0,0,0,0,0,0,0
2,PQ,1.0,0.0,0,0,0,0,0,0

[branches]
from,to,r,x,b,tap,shift_deg
1,2,0.0,0.5,0.0,1.0,0.0
1,2,0.0,0.5,0.0,1.0,0.0
"""


@pytest.fixture(scope="session")
def cases():
    """All bundled systems, parsed once."""
    return {name: pp.load_bundled_case(name) for name in BUNDLED}


@pytest.fixture(scope="session")
def ieee9(cases):
    return cases["ieee9"]


@pytest.fixture(scope="session")
def ieee14(cases):
    return cases["ieee14"]


@pytest.fixture
def two_bus():
    return pp.parse_cdf(TWO_BUS_CDF)


@pytest.fixture
def triangle():
    return pp.parse_csv_fallback(TRIANGLE_CSV)


def write_bundle(directory, text):
    """Write a CSV fallback document as a case.toml/buses.csv/branches.csv
    bundle directory."""
    directory.mkdir()
    for fname, section in zip(("case.toml", "buses.csv", "branches.csv"),
                              text.split("\n\n")):
        body = section.split("\n", 1)[1]
        (directory / fname).write_text(body.rstrip("\n") + "\n")
    return directory


def renumbered(case, rng):
    """`case` written as a CSV document with its bus rows shuffled by
    `rng` (a `random.Random`), then read back, and the permutation: the
    old 0-based position of each new one. Every bus keeps its external
    id and the branches their order; only the internal numbering
    moves."""
    lines = pp.dumps_csv_fallback(case).splitlines()
    first = lines.index("[buses]") + 2
    order = list(range(case.n))
    rng.shuffle(order)
    lines[first:first + case.n] = [lines[first + i] for i in order]
    return pp.parse_csv_fallback("\n".join(lines)), np.array(order)


def random_connected_adjacency(rng: np.random.Generator, n: int):
    """Unit-diagonal adjacency of a random connected graph (random
    spanning tree plus a few extra edges)."""
    bits = np.eye(n, dtype=np.int8)
    order = rng.permutation(n)
    for pos in range(1, n):
        i = int(order[pos])
        j = int(order[int(rng.integers(0, pos))])
        bits[i, j] = bits[j, i] = 1
    for _ in range(int(rng.integers(0, n))):
        i, j = (int(v) for v in rng.integers(0, n, 2))
        if i != j:
            bits[i, j] = bits[j, i] = 1
    return bits


def load_perfbench(name: str):
    """`perfbench/<name>.py`, loaded as the module `perfbench_<name>`
    (registered, as its dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", Path(__file__).resolve().parents[1]
        / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tied():
    """`perfbench/tied.py`, which builds k IEEE-118 copies joined by
    seeded tie lines."""
    return load_perfbench("tied")


def laplacian_from_adjacency(bits: np.ndarray,
                             weights: np.ndarray | None = None):
    """Graph Laplacian with optional positive edge weights."""
    a = np.asarray(bits, dtype=float).copy()
    np.fill_diagonal(a, 0.0)
    if weights is not None:
        a = a * weights
    lap = -a
    np.fill_diagonal(lap, a.sum(axis=1))
    return lap


def pytest_terminal_summary(terminalreporter):
    from acceptance_log import LINES
    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in LINES:
            terminalreporter.write_line(line)
