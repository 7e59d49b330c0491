"""Admittance matrix and topological adjacency tests."""

from dataclasses import replace

import numpy as np
import pytest

import pmuplace as pp
from pmuplace.cases import PowerCase
from pmuplace.errors import InvalidBranch, UnknownBusReference
from conftest import PARALLEL_PAIR_CSV
from oracles import distinct_pairs


def test_two_bus_ybus(two_bus):
    y = pp.build_ybus(two_bus)
    assert y[0, 1] == pytest.approx(2j)
    assert y[1, 0] == pytest.approx(2j)
    assert y[0, 0] == pytest.approx(-2j)
    assert y[1, 1] == pytest.approx(-2j)


def test_vanishing_tap_rejected(two_bus):
    # 1e-170 squares to zero, which the pi model divides by
    branch = replace(two_bus.branches[0], tap_ratio=1e-170)
    with pytest.raises(InvalidBranch, match="1-2 has tap ratio 1e-170"):
        pp.build_ybus(replace(two_bus, branches=(branch,)))


@pytest.mark.parametrize("field, value", [
    ("x", float("nan")), ("x", 1e-320), ("tap_ratio", 1e-160)])
def test_non_finite_branch_admittance_rejected(two_bus, field, value):
    # 1/x and 1/tap^2 overflow; the readers reject nan, in-memory cases
    # reach the same check
    branch = replace(two_bus.branches[0], **{field: value})
    with pytest.raises(InvalidBranch, match="branch 1-2 has a non-finite"):
        pp.build_ybus(replace(two_bus, branches=(branch,)))


def test_overflowing_admittance_sum_rejected():
    # each circuit's admittance is finite; the two sum past the float range
    case = pp.parse_csv_fallback(
        PARALLEL_PAIR_CSV.replace(",0.5,", ",1e-308,"))
    with pytest.raises(InvalidBranch, match="pair: bus 1: admittance sum"):
        pp.build_ybus(case)


# IEEE-9's first branch, 1-4, built by hand with one fault each: the
# readers' branch rules, and an end outside the bus indices.
HAND_BUILT_FAULTS = {
    "zero-impedance": ({"x": 0.0}, InvalidBranch,
                       "ieee9: branch 1-4 has zero impedance"),
    "self-loop": ({"to_bus": 1}, InvalidBranch,
                  "ieee9: branch 1-1 is a self-loop"),
    "negative-x": ({"x": -0.05}, InvalidBranch,
                   "ieee9: branch 1-4 has negative series reactance -0.05; "
                   "the distance construction needs nonnegative reactances"),
    "negative-tap": ({"tap_ratio": -1.0}, InvalidBranch,
                     "ieee9: branch 1-4 has negative tap ratio -1.0; a phase "
                     "shift belongs in shift_deg"),
    "end-past-n": ({"to_bus": 99}, UnknownBusReference,
                   "ieee9: branches[0] references bus index 99, outside 1..9"),
    "end-zero": ({"from_bus": 0}, UnknownBusReference,
                 "ieee9: branches[0] references bus index 0, outside 1..9"),
}


@pytest.mark.parametrize("fault", HAND_BUILT_FAULTS)
def test_hand_built_branch_fault(ieee9, fault):
    fields, error, message = HAND_BUILT_FAULTS[fault]
    assert ieee9.branches[0].r == 0.0
    branch = replace(ieee9.branches[0], **fields)
    with pytest.raises(error) as exc:
        replace(ieee9, branches=(branch, *ieee9.branches[1:]))
    assert str(exc.value) == message
    assert exc.value.exit_code == 5


# The topological structure reads branch ends with no check of its
# own, so an end outside the buses, or one that is not an integer, is
# refused when the case is made: by the constructor as by `replace`.
@pytest.mark.parametrize("end, shown", [
    ({"from_bus": 0}, "0"), ({"to_bus": 99}, "99"), ({"to_bus": 4.0}, "4.0")],
    ids=["from-zero", "to-past-n", "to-float"])
def test_bad_end_refused_before_any_structure(ieee9, end, shown):
    branches = (replace(ieee9.branches[0], **end), *ieee9.branches[1:])
    message = (rf"^ieee9: branches\[0\] references bus index {shown}, "
               r"outside 1\.\.9$")
    with pytest.raises(UnknownBusReference, match=message):
        PowerCase(ieee9.name, ieee9.mva_base, ieee9.buses, branches)
    with pytest.raises(UnknownBusReference, match=message) as exc:
        replace(ieee9, branches=branches)
    assert exc.value.exit_code == 5


def test_triangle_ybus(triangle):
    y = pp.build_ybus(triangle)
    assert np.allclose(np.diag(y), -2j)
    off = y[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 1j)


def test_ieee14_sparsity_matches_branch_list(ieee14):
    y = pp.build_ybus(ieee14)
    connected = {frozenset((br.from_bus, br.to_bus))
                 for br in ieee14.branches}
    for i in range(14):
        for j in range(i + 1, 14):
            present = abs(y[i, j]) > 1e-12
            assert present == (frozenset((i + 1, j + 1)) in connected)


def test_tap_asymmetry(ieee14):
    # off-nominal tap makes the two off-diagonal entries differ from a
    # tapless line but keeps the matrix symmetric without phase shifters
    y = pp.build_ybus(ieee14)
    assert np.allclose(y, y.T)
    tap_branch = next(br for br in ieee14.branches if br.tap_ratio != 1.0)
    i, j = tap_branch.from_bus - 1, tap_branch.to_bus - 1
    y_series = 1 / complex(tap_branch.r, tap_branch.x)
    assert y[i, j] == pytest.approx(-y_series / tap_branch.tap_ratio)


def test_parallel_branches_sum():
    case = pp.parse_csv_fallback(PARALLEL_PAIR_CSV)
    assert case.m == 2
    assert distinct_pairs(case) == 1
    y = pp.build_ybus(case)
    assert y[0, 1] == pytest.approx(4j)


def test_row_sums_equal_shunts_when_no_charging(triangle):
    # Kirchhoff consistency: series terms cancel in each row sum
    y = pp.build_ybus(triangle)
    assert np.allclose(y.sum(axis=1), 0.0, atol=1e-12)

    shunted = pp.parse_csv_fallback(
        "[case]\nname = shunted\nmva_base = 100\n[buses]\n"
        "id,type,vmag,vang_deg,pload,qload,pgen,qgen,gs,bs\n"
        "1,slack,1.0,0,0,0,0,0,0.05,-0.4\n2,PQ,1.0,0,0,0,0,0,0.0,0.19\n"
        "[branches]\nfrom,to,r,x,b,tap,shift_deg\n"
        "1,2,0.01,0.5,0.0,1.0,0.0\n")
    y = pp.build_ybus(shunted)
    assert np.allclose(y.sum(axis=1),
                       [complex(0.05, -0.4), complex(0.0, 0.19)], atol=1e-12)


def test_topological_adjacency_two_bus(two_bus):
    a = pp.topological_adjacency(two_bus)
    assert a.bits.tolist() == [[1, 1], [1, 1]]


def test_topological_adjacency_star():
    lines = ["[case]", "name = star", "mva_base = 100", "", "[buses]",
             "id,type,vmag,vang_deg,pload,qload,pgen,qgen,gs,bs",
             "1,slack,1.0,0,0,0,0,0,0,0"]
    for leaf in range(2, 6):
        lines.append(f"{leaf},PQ,1.0,0,0,0,0,0,0,0")
    lines += ["", "[branches]", "from,to,r,x,b,tap,shift_deg"]
    for leaf in range(2, 6):
        lines.append(f"1,{leaf},0.0,1.0,0.0,1.0,0.0")
    case = pp.parse_csv_fallback("\n".join(lines))
    a = pp.topological_adjacency(case)
    assert a.bits[0].tolist() == [1, 1, 1, 1, 1]
    assert a.bits.sum() == 5 + 2 * 4


def test_adjacency_invariant_under_branch_permutation(ieee14):
    a1 = pp.topological_adjacency(ieee14)
    shuffled = PowerCase(
        name=ieee14.name, mva_base=ieee14.mva_base, buses=ieee14.buses,
        branches=tuple(reversed(ieee14.branches)),
    )
    a2 = pp.topological_adjacency(shuffled)
    assert np.array_equal(a1.bits, a2.bits)


def test_offdiagonal_count_is_twice_distinct_pairs(cases):
    for case in cases.values():
        a = pp.topological_adjacency(case)
        off = int(a.bits.sum()) - case.n
        assert off == 2 * distinct_pairs(case)


def test_adjacency_symmetric_unit_diagonal(cases):
    for case in cases.values():
        a = pp.topological_adjacency(case)
        assert np.array_equal(a.bits, a.bits.T)
        assert np.all(np.diag(a.bits) == 1)
