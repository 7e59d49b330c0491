"""Exact cover solver tests against independent oracles: exhaustive
search (`brute_force_cover` for the witness, every k-subset from
`itertools.combinations` for the full list of optima) on small
instances, and an integer program solved by `scipy.optimize.milp` for
the count on every bundled system. The search's dominance reductions
are checked against the plain all-pairs versions kept here, and its
memo against a fresh engine."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

import pmuplace as pp
from pmuplace.cover import _Engine
from pmuplace.errors import AsymmetryWarning
from pmuplace.network import BinaryAdjacency
from conftest import BUNDLED, random_connected_adjacency
from oracles import NoSolutionWithinK, brute_force_cover


def inst_from_bits(bits):
    return pp.CoverInstance(adjacency=BinaryAdjacency(
        n=bits.shape[0], bits=bits))


def feasible(inst, sol):
    cols = [i - 1 for i in sol.nodes]
    return bool(np.asarray(inst.adjacency.bits)[:, cols].any(axis=1).all())


def milp_count(inst):
    """Minimum cover size as the integer program of Gou (IEEE Trans.
    Power Syst. 23(3), 2008): minimise sum(x) subject to A x >= 1 with
    x binary."""
    n = inst.n
    res = milp(np.ones(n), integrality=np.ones(n), bounds=Bounds(0, 1),
               constraints=LinearConstraint(
                   np.asarray(inst.adjacency.bits, dtype=float), lb=1))
    assert res.success
    return round(res.fun)


def all_optima(bits):
    """Every minimum covering subset (1-based), lexicographically."""
    covers = np.asarray(bits, dtype=bool)
    n = covers.shape[0]
    for k in range(1, n + 1):
        found = [tuple(i + 1 for i in combo)
                 for combo in itertools.combinations(range(n), k)
                 if covers[:, combo].any(axis=1).all()]
        if found:
            return found
    return []


def quadratic_reduce_rows(eng, uncovered, allowed):
    """Constraint dominance comparing every live pair."""
    live = [(i, eng.rows[i] & allowed) for i in eng._bits_of(uncovered)]
    dropped = 0
    for i, cand_i in live:
        for j, cand_j in live:
            if i == j or (dropped >> j) & 1:
                continue
            if cand_i and cand_i | cand_j == cand_j and (
                    cand_i != cand_j or i < j):
                dropped |= 1 << j
    return uncovered & ~dropped


def quadratic_reduce_cols(eng, uncovered, allowed):
    """Candidate dominance comparing every live pair."""
    live = [(j, eng.cols[j] & uncovered) for j in eng._bits_of(allowed)]
    banned = 0
    for j, cov_j in live:
        for k, cov_k in live:
            if j == k or (banned >> k) & 1:
                continue
            if cov_j | cov_k == cov_k and (cov_j != cov_k or k < j):
                banned |= 1 << j
                break
    return allowed & ~banned


def random_mask(rng, n, density):
    return sum(1 << i for i in range(n) if rng.random() < density)


@pytest.fixture(scope="module")
def electrical_insts(cases):
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsymmetryWarning)
        for name in BUNDLED:
            case = cases[name]
            g = pp.p_theta_jacobian(case, pp.solve_power_flow(case))
            dist = pp.resistance_matrix(g, case.slack_index)
            out[name] = pp.CoverInstance(
                adjacency=pp.electrical_adjacency(dist, case.m))
    return out


class TestSolveCover:
    def test_all_ones_single_pick(self):
        sol = pp.solve_cover(inst_from_bits(np.ones((3, 3), dtype=np.int8)))
        assert sol.count == 1
        assert sol.nodes == (1,)

    def test_identity_needs_everyone(self):
        sol = pp.solve_cover(inst_from_bits(np.eye(4, dtype=np.int8)))
        assert sol.count == 4
        assert sol.nodes == (1, 2, 3, 4)

    def test_path_center(self):
        bits = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=np.int8)
        sol = pp.solve_cover(inst_from_bits(bits))
        assert sol.count == 1
        assert sol.nodes == (2,)

    def test_lexicographically_smallest_witness(self):
        # two optima of size 1: {1} and {2}; the smaller set wins
        bits = np.ones((2, 2), dtype=np.int8)
        assert pp.solve_cover(inst_from_bits(bits)).nodes == (1,)

    def test_solution_vector_consistent(self, cases):
        a = pp.topological_adjacency(cases["ieee30"])
        sol = pp.solve_cover(pp.CoverInstance(adjacency=a))
        assert sol.count == len(sol.nodes) == len(set(sol.nodes))
        assert list(sol.nodes) == sorted(sol.nodes)

    def test_unit_diagonal_required(self):
        bits = np.ones((3, 3), dtype=np.int8)
        bits[1, 1] = 0
        with pytest.raises(ValueError):
            inst_from_bits(bits)

    def test_deterministic(self, cases):
        a = pp.topological_adjacency(cases["ieee57"])
        inst = pp.CoverInstance(adjacency=a)
        assert pp.solve_cover(inst) == pp.solve_cover(inst)


class TestOracleEquivalence:
    @pytest.mark.parametrize("name", ["ieee9", "ieee14"])
    def test_topological(self, cases, name):
        inst = pp.CoverInstance(
            adjacency=pp.topological_adjacency(cases[name]))
        exact = pp.solve_cover(inst)
        brute = brute_force_cover(inst, cases[name].n)
        assert exact.count == brute.count
        assert feasible(inst, exact)

    @pytest.mark.parametrize("name", ["ieee9", "ieee14"])
    def test_electrical(self, electrical_insts, name):
        inst = electrical_insts[name]
        exact = pp.solve_cover(inst)
        brute = brute_force_cover(inst, inst.n)
        assert exact.count == brute.count
        assert feasible(inst, exact)
        # the witness sets agree too: both are lexicographically first
        assert exact.nodes == brute.nodes


class TestIlpOracle:
    @pytest.mark.parametrize("structure", ["topological", "electrical"])
    @pytest.mark.parametrize("name", BUNDLED)
    def test_count_matches_ilp(self, cases, electrical_insts, name,
                               structure):
        if structure == "electrical":
            inst = electrical_insts[name]
        else:
            inst = pp.CoverInstance(
                adjacency=pp.topological_adjacency(cases[name]))
        want = milp_count(inst)
        assert pp.optimal_count(inst) == want
        sol = pp.solve_cover(inst)
        assert sol.count == want
        assert feasible(inst, sol)


class TestEnumerateOptima:
    def test_all_ones_three(self):
        optima = pp.enumerate_optima(
            inst_from_bits(np.ones((3, 3), dtype=np.int8)), cap=10)
        assert [s.nodes for s in optima] == [(1,), (2,), (3,)]
        assert not optima.truncated

    def test_identity_unique(self):
        optima = pp.enumerate_optima(
            inst_from_bits(np.eye(4, dtype=np.int8)), cap=10)
        assert [s.nodes for s in optima] == [(1, 2, 3, 4)]

    def test_cap_truncates(self):
        optima = pp.enumerate_optima(
            inst_from_bits(np.ones((5, 5), dtype=np.int8)), cap=2)
        assert len(optima) == 2
        assert optima.truncated

    def test_electrical_nine_bus_all_feasible(self, electrical_insts):
        inst = electrical_insts["ieee9"]
        k = pp.solve_cover(inst).count
        optima = pp.enumerate_optima(inst, cap=1000)
        assert len(optima) >= 1
        for sol in optima:
            assert sol.count == k
            assert feasible(inst, sol)
        sets = [s.nodes for s in optima]
        assert sets == sorted(sets)

    def test_first_enumerated_matches_solver(self, cases):
        inst = pp.CoverInstance(
            adjacency=pp.topological_adjacency(cases["ieee14"]))
        optima = pp.enumerate_optima(inst, cap=5)
        assert optima.solutions[0].nodes == pp.solve_cover(inst).nodes


class TestBruteForce:
    def test_path_of_three(self):
        bits = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=np.int8)
        sol = brute_force_cover(inst_from_bits(bits), 3)
        assert sol.count == 1

    def test_budget_exhausted(self):
        with pytest.raises(NoSolutionWithinK):
            brute_force_cover(inst_from_bits(np.eye(4, dtype=np.int8)), 3)

    def test_lexicographic_first(self):
        bits = np.ones((3, 3), dtype=np.int8)
        assert brute_force_cover(inst_from_bits(bits), 3).nodes == (1,)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(3, 12))
def test_random_graphs_match_oracle(seed, n):
    rng = np.random.default_rng(seed)
    bits = random_connected_adjacency(rng, n)
    inst = inst_from_bits(bits)
    exact = pp.solve_cover(inst)
    brute = brute_force_cover(inst, n)
    assert exact.count == brute.count
    assert exact.nodes == brute.nodes
    assert feasible(inst, exact)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(3, 10))
def test_adding_coverage_never_hurts(seed, n):
    rng = np.random.default_rng(seed)
    bits = random_connected_adjacency(rng, n)
    inst = inst_from_bits(bits)
    before = pp.solve_cover(inst).count
    zeros = np.argwhere(bits == 0)
    if len(zeros):
        i, j = zeros[int(rng.integers(0, len(zeros)))]
        richer = bits.copy()
        richer[i, j] = richer[j, i] = 1
        after = pp.solve_cover(inst_from_bits(richer)).count
        assert after <= before


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 10), st.integers(0, 12))
def test_enumeration_lists_every_optimum_in_order(seed, n, cap):
    rng = np.random.default_rng(seed)
    bits = random_connected_adjacency(rng, n)
    want = all_optima(bits)
    optima = pp.enumerate_optima(inst_from_bits(bits), cap)
    assert [s.nodes for s in optima] == want[:cap]
    assert optima.truncated == (len(want) > cap)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.lists(st.integers(1, 6), min_size=2, max_size=3).filter(
           lambda sizes: sum(sizes) <= 12),
       st.integers(0, 40))
def test_disjoint_union_splits_into_components(seed, sizes, cap):
    rng = np.random.default_rng(seed)
    parts = [random_connected_adjacency(rng, n) for n in sizes]
    n = sum(sizes)
    bits = np.zeros((n, n), dtype=np.int8)
    at = 0
    for part in parts:
        bits[at:at + part.shape[0], at:at + part.shape[0]] = part
        at += part.shape[0]
    inst = inst_from_bits(bits)
    count = pp.optimal_count(inst)
    assert count == brute_force_cover(inst, n).count
    assert count == sum(pp.optimal_count(inst_from_bits(p)) for p in parts)
    want = all_optima(bits)
    optima = pp.enumerate_optima(inst, cap)
    assert [s.nodes for s in optima] == want[:cap]
    assert optima.truncated == (len(want) > cap)



def block_diagonal(parts):
    n = sum(part.shape[0] for part in parts)
    bits = np.zeros((n, n), dtype=np.int8)
    at = 0
    for part in parts:
        bits[at:at + part.shape[0], at:at + part.shape[0]] = part
        at += part.shape[0]
    return bits


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.lists(st.integers(1, 6), min_size=2, max_size=3).filter(
           lambda sizes: sum(sizes) <= 12),
       st.integers(0, 40))
def test_interleaved_components_merge_in_order(seed, sizes, cap):
    # Relabelling the buses interleaves the components in index order,
    # so the optima are not a product order of the components' optima.
    rng = np.random.default_rng(seed)
    bits = block_diagonal([random_connected_adjacency(rng, n)
                           for n in sizes])
    perm = rng.permutation(bits.shape[0])
    bits = bits[np.ix_(perm, perm)]
    want = all_optima(bits)
    optima = pp.enumerate_optima(inst_from_bits(bits), cap)
    assert [s.nodes for s in optima] == want[:cap]
    assert optima.truncated == (len(want) > cap)


def test_interleaved_bundled_witness_is_union_of_parts(cases):
    """IEEE-14 on the even indices and IEEE-30 on the odd ones, then
    the rest of IEEE-30: the witness is the union of the parts'
    witnesses, each mapped in order."""
    parts = [pp.topological_adjacency(cases[name]).bits
             for name in ("ieee14", "ieee30")]
    small, large = (part.shape[0] for part in parts)
    n = small + large
    at = [list(range(0, 2 * small, 2)),
          list(range(1, 2 * small, 2)) + list(range(2 * small, n))]
    bits = np.zeros((n, n), dtype=np.int8)
    want = []
    for part, where in zip(parts, at):
        bits[np.ix_(where, where)] = part
        want += [where[b - 1] + 1
                 for b in pp.solve_cover(inst_from_bits(part)).nodes]
    inst = inst_from_bits(bits)
    assert pp.solve_cover(inst).nodes == tuple(sorted(want))
    assert pp.optimal_count(inst) == len(want) == milp_count(inst)

class TestLocalDominance:
    """The reductions test only the pairs that can dominate; they must
    give the masks of the all-pairs versions."""

    def check(self, eng, uncovered, allowed):
        assert eng._reduce_rows(uncovered, allowed) == \
            quadratic_reduce_rows(eng, uncovered, allowed)
        assert eng._reduce_cols(uncovered, allowed) == \
            quadratic_reduce_cols(eng, uncovered, allowed)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 14))
    def test_random_graphs(self, seed, n):
        rng = np.random.default_rng(seed)
        eng = _Engine(random_connected_adjacency(rng, n))
        for _ in range(10):
            self.check(eng, random_mask(rng, n, rng.random()),
                       random_mask(rng, n, rng.random()))
        self.check(eng, eng.full, eng.full)

    @pytest.mark.parametrize("structure", ["topological", "electrical"])
    def test_ieee118(self, cases, electrical_insts, structure):
        if structure == "electrical":
            bits = electrical_insts["ieee118"].adjacency.bits
        else:
            bits = pp.topological_adjacency(cases["ieee118"]).bits
        eng = _Engine(bits)
        rng = np.random.default_rng(118)
        self.check(eng, eng.full, eng.full)
        for density in (0.1, 0.5, 0.9):
            for _ in range(5):
                self.check(eng, random_mask(rng, eng.n, density),
                           random_mask(rng, eng.n, density))


class TestMemo:
    @pytest.mark.parametrize("structure", ["topological", "electrical"])
    @pytest.mark.parametrize("name", BUNDLED)
    def test_warmed_engine_agrees_with_fresh(self, cases, electrical_insts,
                                             name, structure):
        if structure == "electrical":
            inst = electrical_insts[name]
        else:
            inst = pp.CoverInstance(
                adjacency=pp.topological_adjacency(cases[name]))
        pp.enumerate_optima(inst, 10)
        warmed = inst._engine
        assert warmed.memo
        full = warmed.full
        for budget in range(inst.n + 1):
            fresh = _Engine(inst.adjacency.bits)
            assert warmed.exists_cover(full, full, budget) == \
                fresh.exists_cover(full, full, budget), budget

    def test_one_engine_per_instance(self, cases):
        inst = pp.CoverInstance(
            adjacency=pp.topological_adjacency(cases["ieee14"]))
        assert inst._engine is inst._engine
        assert inst == pp.CoverInstance(adjacency=inst.adjacency)
