"""Exact cover solver tests against independent oracles: exhaustive
search (`brute_force_cover` for the witness, every k-subset from
`itertools.combinations` for the full list of optima, also of random
residuals) on small instances, and integer programs solved by
`scipy.optimize.milp` for the count and its packing dual, on every
bundled system and on tied grids of up to 944 buses, and, by
sequential fixing (`lex_first_cover`), for the witness on every
bundled system and, with no-good cuts, for every optimum of four. The
dominance reductions, plain and lex-safe, are checked against the
all-pairs versions kept here, the incremental fixpoints against the
fixpoint reduced from scratch, and the memo against a fresh instance
and against the covers it holds."""

import functools
import hashlib
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

import pmuplace as pp
from pmuplace.network import BinaryAdjacency
from conftest import BUNDLED, load_tied, random_connected_adjacency
from oracles import NoSolutionWithinK, brute_force_cover, lex_first_cover


def inst_from_bits(bits):
    return pp.CoverInstance(adjacency=BinaryAdjacency(bits))


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
    # Column i as a mask: the buses a monitor at i observes.
    seen = [sum(1 << int(j) for j in np.flatnonzero(col)) for col in covers.T]
    full = (1 << n) - 1
    for k in range(1, n + 1):
        found = [tuple(i + 1 for i in combo)
                 for combo in itertools.combinations(range(n), k)
                 if functools.reduce(operator.or_, map(seen.__getitem__,
                                                       combo)) == full]
        if found:
            return found
    return []


def quadratic_reduce_rows(inst, uncovered, allowed, dirty=-1):
    """Constraint dominance comparing every live pair whose implying
    constraint is in `dirty`."""
    live = [(i, inst.nbr[i] & allowed) for i in inst._bits_of(uncovered)]
    dropped = 0
    for i, cand_i in live:
        if not (dirty >> i) & 1:
            continue
        for j, cand_j in live:
            if i == j or (dropped >> j) & 1:
                continue
            if cand_i and cand_i | cand_j == cand_j and (
                    cand_i != cand_j or i < j):
                dropped |= 1 << j
    return uncovered & ~dropped


def quadratic_reduce_cols(inst, uncovered, allowed, dirty=-1, lex=False):
    """Candidate dominance comparing every live pair whose dominated
    candidate is in `dirty` (and, with `lex`, whose dominating one has
    the lower index)."""
    live = [(j, inst.nbr[j] & uncovered) for j in inst._bits_of(allowed)]
    banned = 0
    for j, cov_j in live:
        if not (dirty >> j) & 1:
            continue
        for k, cov_k in live:
            if j == k or (banned >> k) & 1 or (lex and k > j):
                continue
            if cov_j | cov_k == cov_k and (cov_j != cov_k or k < j):
                banned |= 1 << j
                break
    return allowed & ~banned


def random_mask(rng, n, density):
    return sum(1 << i for i in range(n) if rng.random() < density)


def residual_optima(inst, uncovered, allowed):
    """Every minimum cover of the uncovered buses by allowed buses, as
    masks in set-lexicographic order, from every subset of the allowed
    buses in `itertools.combinations` order; empty when some uncovered
    bus has no allowed candidate."""
    bits = np.asarray(inst.adjacency.bits, dtype=bool)
    rows = [i for i in range(inst.n) if uncovered >> i & 1]
    cands = [i for i in range(inst.n) if allowed >> i & 1]
    for k in range(len(cands) + 1):
        found = [sum(1 << i for i in combo)
                 for combo in itertools.combinations(cands, k)
                 if bits[np.ix_(rows, combo)].any(axis=1).all()]
        if found:
            return found
    return []


@pytest.fixture(scope="module")
def tied_adjacencies():
    """Topological adjacencies of 2, 4 and 8 IEEE-118 copies joined by
    the seed-1 tie lines."""
    tied = load_tied()
    return {k: pp.topological_adjacency(tied.tied_case(k, 1))
            for k in (2, 4, 8)}


@pytest.fixture(scope="module")
def electrical_insts(cases):
    out = {}
    for name in BUNDLED:
        case = cases[name]
        ybus = pp.build_ybus(case)
        g = pp.p_theta_jacobian(case, pp.solve_power_flow(case, ybus),
                                ybus)
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
        with pytest.raises(ValueError, match="unit diagonal"):
            BinaryAdjacency(bits)

    # All-ones matrices of four shapes, then square ones that are not
    # symmetric or hold an entry other than 0 and 1 (which int8 would
    # truncate, wrap or keep).
    @pytest.mark.parametrize("shape", [
        (2, 3), (3, 2), (0, 0), (3,), np.tri(3, dtype=np.int8),
        np.array([[1, 0.5], [0.5, 1]]), np.array([[1, 257], [257, 1]]),
        np.array([[1, 2], [2, 1]])])
    def test_square_nonempty_adjacency_required(self, shape):
        bits = (shape if isinstance(shape, np.ndarray)
                else np.ones(shape, dtype=np.int8))
        with pytest.raises(ValueError, match="nonempty square symmetric"):
            BinaryAdjacency(bits)

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

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="^cap must be nonnegative$"):
            pp.enumerate_optima(inst_from_bits(np.eye(2, dtype=np.int8)), -1)

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
    check_interleaved_blocks(rng, sizes, cap)


def check_interleaved_blocks(rng, sizes, cap):
    bits = block_diagonal([random_connected_adjacency(rng, n)
                           for n in sizes])
    perm = rng.permutation(bits.shape[0])
    bits = bits[np.ix_(perm, perm)]
    want = all_optima(bits)
    optima = pp.enumerate_optima(inst_from_bits(bits), cap)
    assert [s.nodes for s in optima] == want[:cap]
    assert optima.truncated == (len(want) > cap)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(6, 9), st.integers(17, 18),
       st.integers(0, 600))
def test_many_interleaved_components_merge_in_order(seed, blocks, n, cap):
    """Six to nine groups on 17 or more buses: the merge's keys, the
    unions' bit reversals over whole bytes, span three bytes."""
    rng = np.random.default_rng(seed)
    sizes = 1 + rng.multinomial(n - blocks, [1 / blocks] * blocks)
    check_interleaved_blocks(rng, sizes, cap)


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
    give the masks of the all-pairs versions, also when only the `dirty`
    buses are tried."""

    def check(self, inst, uncovered, allowed, dirty=-1):
        assert inst._reduce_rows(uncovered, allowed, dirty) == \
            quadratic_reduce_rows(inst, uncovered, allowed, dirty)
        for lex in (False, True):
            assert inst._reduce_cols(uncovered, allowed, dirty, lex) == \
                quadratic_reduce_cols(inst, uncovered, allowed, dirty, lex)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 14))
    def test_random_graphs(self, seed, n):
        rng = np.random.default_rng(seed)
        inst = inst_from_bits(random_connected_adjacency(rng, n))
        for _ in range(10):
            uncovered = random_mask(rng, n, rng.random())
            allowed = random_mask(rng, n, rng.random())
            self.check(inst, uncovered, allowed)
            self.check(inst, uncovered, allowed,
                       random_mask(rng, n, rng.random()))
        self.check(inst, inst.full, inst.full)

    @pytest.mark.parametrize("structure", ["topological", "electrical"])
    def test_ieee118(self, cases, electrical_insts, structure):
        if structure == "electrical":
            bits = electrical_insts["ieee118"].adjacency.bits
        else:
            bits = pp.topological_adjacency(cases["ieee118"]).bits
        inst = inst_from_bits(bits)
        rng = np.random.default_rng(118)
        self.check(inst, inst.full, inst.full)
        for density in (0.1, 0.5, 0.9):
            for _ in range(5):
                uncovered = random_mask(rng, inst.n, density)
                allowed = random_mask(rng, inst.n, density)
                self.check(inst, uncovered, allowed)
                self.check(inst, uncovered, allowed,
                           random_mask(rng, inst.n, density))


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
        assert inst.memo
        full = inst.full
        for budget in range(inst.n + 1):
            fresh = pp.CoverInstance(adjacency=inst.adjacency)
            # The covers found may differ; whether one exists may not.
            assert (inst.exists_cover(full, full, budget) is None) == \
                (fresh.exists_cover(full, full, budget) is None), budget

    @staticmethod
    def adjacencies(cases, electrical_insts):
        for name in BUNDLED:
            yield electrical_insts[name].adjacency
            yield pp.topological_adjacency(cases[name])
        rng = np.random.default_rng(15)
        for n in (6, 9, 12, 12):
            yield BinaryAdjacency(random_connected_adjacency(rng, n))

    def test_entries_hold_their_covers(self, cases, electrical_insts):
        for adjacency in self.adjacencies(cases, electrical_insts):
            inst = pp.CoverInstance(adjacency=adjacency)
            # A probe with slack first, whose cover is smaller than its
            # budget; the count and the witness probe at the minimum.
            inst.exists_cover(inst.full, inst.full, inst.n)
            pp.enumerate_optima(inst, 10)
            for (uncovered, allowed), node in inst.memo.items():
                cover = node.cover
                if cover is None:
                    continue
                assert node.lo <= cover.bit_count()
                covered = 0
                for j in inst._bits_of(cover):
                    covered |= inst.nbr[j]
                assert uncovered & ~covered == 0
                assert cover & ~allowed == 0

    def test_each_key_is_reduced_once(self, cases):
        inst = pp.CoverInstance(
            adjacency=pp.topological_adjacency(cases["ieee118"]))
        budgets, residuals, splits, raised = {}, set(), [], set()
        reductions = {False: [], True: []}
        search, reduce, components, covers, minimum = (
            inst._search, inst._reduce, inst._components, inst.covers,
            inst.minimum)

        def counted_search(uncovered, allowed, budget, *rest):
            key = uncovered, allowed
            budgets[key] = max(budgets.get(key, 0), budget)
            return search(uncovered, allowed, budget, *rest)

        def counted_reduce(uncovered, allowed, rows, cols, lex):
            reductions[lex].append((uncovered, allowed))
            return reduce(uncovered, allowed, rows, cols, lex)

        def counted_components(*args):
            splits.append(args)
            return components(*args)

        def counted_covers(uncovered, allowed, *rest):
            if uncovered:
                residuals.add((uncovered, allowed))
            return covers(uncovered, allowed, *rest)

        def counted_minimum(uncovered, allowed, *rest):
            raised.add((uncovered, allowed))
            return minimum(uncovered, allowed, *rest)

        # The search enters the fixpoint once per key whose packing
        # bound some budget reaches, unless a split recorded the key
        # as one of its groups; a key refuted by the bound is searched
        # but never reduced. The search, `covers` and each residual of
        # the witness's worklist split a key once.
        inst._search, inst._reduce = counted_search, counted_reduce
        inst._components, inst.covers = counted_components, counted_covers
        inst.minimum = counted_minimum
        pp.optimal_count(inst)
        pp.solve_cover(inst)
        pp.enumerate_optima(inst, 10)
        reached = {key for key, budget in budgets.items()
                   if inst.lower_bound(*key)[0] <= budget}
        # Every `minimum` call but the count's raises a split's group.
        recorded = raised - {(inst.full, inst.full)}
        assert residuals and reductions[True]
        # Keys searched, reached and recorded by a split: the bound
        # refutes 29 unreduced, and 34 are reduced. Before the
        # enumeration started each group from its first cover, (128, 92)
        # searched and reached.
        assert (len(budgets), len(reached), len(recorded)) == (120, 91, 57)
        assert recorded <= reached
        assert sorted(reductions[False]) == sorted(reached - recorded)
        assert len(splits) == (len(reductions[False]) + len(residuals)
                               + len(reductions[True]))


def recorded_reductions(inst):
    """Run the count, the witness and `enumerate_optima(·, 10)`, and
    return every `_reduce` call made with its result."""
    calls = []
    reduce = inst._reduce

    def recording(*args):
        got = reduce(*args)
        calls.append((args, got))
        return got

    inst._reduce = recording
    pp.enumerate_optima(inst, 10)
    del inst._reduce
    return calls


def check_fixpoints(inst):
    """Every hinted reduction equals the fixpoint of the same rules
    reduced in full from scratch, and leaves no dominated pair by the
    all-pairs references (with lower rivals only for a lex-safe one);
    every search reduction the memo keeps, whether reduced or recorded
    by a split, is that of the full fixpoint, and every split `covers`
    keeps is that of the full constraint reduction; returns the hint
    kinds seen."""
    kinds = set()
    for (uncovered, allowed, rows, cols, lex), (u, a) in \
            recorded_reductions(inst):
        # Full; a scan probe (every candidate dirty); a branch child,
        # or a residual of the witness's worklist.
        kind = ("full" if rows == cols == -1 else "probe" if cols == -1
                else "child")
        kinds.add("lex " + kind if lex else kind)
        assert inst._reduce(uncovered, allowed, -1, -1, lex) == (u, a)
        assert quadratic_reduce_rows(inst, u, a) == u
        assert quadratic_reduce_cols(inst, u, a, lex=lex) == a
    # A search reduction, whether reduced or recorded by a split, is
    # the full fixpoint's split; `covers` reduced each residual with its
    # parent's row hint.
    for (uncovered, allowed), node in inst.memo.items():
        if node.groups is not None:
            assert node.groups == [
                (u, a, *inst.lower_bound(u, a)) for u, a in inst._components(
                    *inst._reduce(uncovered, allowed, -1, -1, False))]
        if node.parts is not None:
            assert node.parts == inst._components(
                quadratic_reduce_rows(inst, uncovered, allowed), allowed)
    return kinds


class TestFixpoint:
    """A node's dirty masks only save comparisons: the hinted
    reductions of the search and of the witness reach the full
    fixpoint."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 14))
    def test_random_graphs(self, seed, n):
        rng = np.random.default_rng(seed)
        check_fixpoints(inst_from_bits(random_connected_adjacency(rng, n)))

    # The electrical instance never branches: each node's packing
    # bound is its minimum.
    @pytest.mark.parametrize("structure, kinds", [
        ("topological", {"full", "probe", "child", "lex full",
                         "lex child"}),
        ("electrical", {"full", "probe", "lex full", "lex child"})])
    def test_ieee118(self, cases, electrical_insts, structure, kinds):
        if structure == "electrical":
            adjacency = electrical_insts["ieee118"].adjacency
        else:
            adjacency = pp.topological_adjacency(cases["ieee118"])
        assert check_fixpoints(pp.CoverInstance(adjacency=adjacency)) == kinds


@pytest.mark.parametrize("structure", ["topological", "electrical"])
@pytest.mark.parametrize("name", BUNDLED)
def test_witness_is_ilp_lex_first(cases, electrical_insts, name, structure):
    if structure == "electrical":
        inst = electrical_insts[name]
    else:
        inst = pp.CoverInstance(
            adjacency=pp.topological_adjacency(cases[name]))
    assert pp.solve_cover(inst).nodes == lex_first_cover(inst)


@pytest.mark.parametrize("name, structure", [
    ("ieee9", "topological"), ("ieee9", "electrical"),
    ("ieee14", "topological"), ("ieee30", "electrical")])
def test_optima_by_no_good_cuts(cases, electrical_insts, name, structure):
    """The ILP oracle, each optimum found cut off from the next solve,
    lists every optimum in order, and is infeasible after the last."""
    if structure == "electrical":
        inst = electrical_insts[name]
    else:
        inst = pp.CoverInstance(
            adjacency=pp.topological_adjacency(cases[name]))
    listed = []
    while (cover := lex_first_cover(inst, listed)) is not None:
        listed.append(cover)
    optima = pp.enumerate_optima(inst, 10)
    assert [s.nodes for s in optima] == listed
    assert not optima.truncated


# The ILP checks below take seconds each; `pytest -m slow` runs them.
@pytest.mark.slow
@pytest.mark.parametrize("structure", ["topological", "electrical"])
@pytest.mark.parametrize("name", BUNDLED)
def test_first_optima_by_no_good_cuts(cases, electrical_insts, name,
                                      structure):
    """The first three optima of every bundled system, the solved
    electrical one too, against the ILP oracle with no-good cuts."""
    if structure == "electrical":
        inst = electrical_insts[name]
    else:
        inst = pp.CoverInstance(
            adjacency=pp.topological_adjacency(cases[name]))
    listed = []
    while len(listed) < 3 and (
            cover := lex_first_cover(inst, listed)) is not None:
        listed.append(cover)
    assert [s.nodes for s in pp.enumerate_optima(inst, 3)] == listed


@pytest.mark.slow
def test_tied_grid_witness_is_ilp_lex_first(tied_adjacencies):
    inst = pp.CoverInstance(adjacency=tied_adjacencies[2])
    assert pp.solve_cover(inst).nodes == lex_first_cover(inst)


def search_work(inst, *steps):
    """The `_search` calls that running `steps` on `inst` makes, and the
    uncovered buses entering `_reduce`, summed over its calls."""
    calls, buses = [], []
    search, reduce = inst._search, inst._reduce

    def counted_search(*args):
        calls.append(args)
        return search(*args)

    def counted_reduce(uncovered, *rest):
        buses.append(uncovered.bit_count())
        return reduce(uncovered, *rest)

    inst._search, inst._reduce = counted_search, counted_reduce
    for step in steps:
        step(inst)
    return len(calls), sum(buses)


# (`_search` calls, uncovered buses entering `_reduce`): IEEE-118
# topological count + witness + `enumerate_optima(·, 10)`, the tied
# 2x118 seed 1 witness and the tied 8x118 seed 1 witness. Before the
# dominance fixpoint (calls only), before the lex-first witness search,
# before the enumeration started each group from its first cover,
# before a split recorded its groups' reductions, and now.
SEARCH_CALLS_BEFORE_FIXPOINT = {"ieee118": 281, "tied": 890}
SEARCH_WORK_BEFORE_FIRST_COVER = {"ieee118": (170, 3378),
                                  "tied": (451, 10687),
                                  "tied8": (1594, 108226)}
SEARCH_WORK_BEFORE_ONE_SCAN = {"ieee118": (149, 1682)}
SEARCH_WORK_BEFORE_RECORDED_GROUPS = {"ieee118": (141, 1747),
                                      "tied": (405, 7055),
                                      "tied8": (1281, 23686)}
SEARCH_WORK = {"ieee118": (141, 1385), "tied": (405, 5380),
               "tied8": (1281, 18565)}


def test_search_calls_pinned(cases, tied_adjacencies):
    """A machine-independent guard on the fixpoint's pruning and on the
    witness search's probes."""
    got = {
        "ieee118": search_work(
            pp.CoverInstance(
                adjacency=pp.topological_adjacency(cases["ieee118"])),
            pp.optimal_count, pp.solve_cover,
            lambda inst: pp.enumerate_optima(inst, 10)),
        "tied": search_work(
            pp.CoverInstance(adjacency=tied_adjacencies[2]), pp.solve_cover),
        "tied8": search_work(
            pp.CoverInstance(adjacency=tied_adjacencies[8]), pp.solve_cover)}
    assert got == SEARCH_WORK
    assert all(SEARCH_WORK[k][0] < SEARCH_CALLS_BEFORE_FIXPOINT[k]
               for k in SEARCH_CALLS_BEFORE_FIXPOINT)
    assert all(SEARCH_WORK[k][0] < SEARCH_WORK_BEFORE_FIRST_COVER[k][0]
               and SEARCH_WORK[k][1] < SEARCH_WORK_BEFORE_FIRST_COVER[k][1]
               for k in SEARCH_WORK)
    assert 3 * SEARCH_WORK["tied8"][1] <= \
        SEARCH_WORK_BEFORE_FIRST_COVER["tied8"][1]
    assert SEARCH_WORK["ieee118"][0] < \
        SEARCH_WORK_BEFORE_ONE_SCAN["ieee118"][0]
    # Recording a split's groups saves reductions, not searches.
    for k, (calls, buses) in SEARCH_WORK.items():
        assert calls == SEARCH_WORK_BEFORE_RECORDED_GROUPS[k][0]
        assert buses < SEARCH_WORK_BEFORE_RECORDED_GROUPS[k][1]


# SHA-256 of the repr of the first 500 IEEE-118 electrical optima
# (solved operating point) as node tuples, as listed when the merge
# still keyed its heap on sorted bus tuples.
ELECTRICAL_118_FIRST_500 = (
    "eea4214159a0bca0f4bd0ecd500bcfd37d6adfa47a64e81a88fff67b2c616c87")


def test_deep_electrical_merge_pinned(electrical_insts):
    """A guard on the merge where it has the most groups: IEEE-118
    electrical splits into 51 groups at the root."""
    inst = pp.CoverInstance(adjacency=electrical_insts["ieee118"].adjacency)
    optima = pp.enumerate_optima(inst, 500)
    assert len(inst.memo[inst.full, inst.full].parts) == 51
    assert optima.truncated
    assert hashlib.sha256(repr([s.nodes for s in optima]).encode()
                          ).hexdigest() == ELECTRICAL_118_FIRST_500


# (`_search` calls, uncovered buses entering `_reduce`): IEEE-57
# topological `enumerate_optima(·, 500)`, before the enumeration started
# each group from its first cover, before a split recorded its groups'
# reductions, and now.
DEEP_WORK_BEFORE_ONE_SCAN = (460, 2929)
DEEP_WORK_BEFORE_RECORDED_GROUPS = (334, 3972)
DEEP_WORK = (334, 3712)


def test_deep_enumeration_work_pinned(cases):
    """A guard on the enumeration past the first few optima, which the
    count and the witness never reach."""
    inst = pp.CoverInstance(
        adjacency=pp.topological_adjacency(cases["ieee57"]))
    assert search_work(
        inst, lambda inst: pp.enumerate_optima(inst, 500)) == DEEP_WORK
    assert DEEP_WORK[0] < DEEP_WORK_BEFORE_ONE_SCAN[0]
    assert DEEP_WORK[0] == DEEP_WORK_BEFORE_RECORDED_GROUPS[0]
    assert DEEP_WORK[1] < DEEP_WORK_BEFORE_RECORDED_GROUPS[1]


# Tied 2x118 seed 1, topological: the witness, and the buses of it
# that each of the first ten optima swaps for their successors.
TIED_WITNESS = (
    1, 5, 9, 11, 12, 17, 18, 20, 23, 25, 28, 34, 37, 40, 45, 49, 52, 56,
    62, 63, 68, 71, 75, 77, 80, 85, 86, 90, 94, 101, 105, 110, 114, 119,
    123, 127, 129, 130, 135, 139, 143, 146, 152, 155, 158, 163, 167, 170,
    174, 180, 181, 186, 190, 193, 195, 198, 203, 204, 208, 212, 219, 223,
    228, 232)
TIED_SWAPS = ((), (219,), (208,), (208, 219), (204,), (204, 219),
              (204, 208), (204, 208, 219), (181,), (181, 219))


def test_tied_grid_witness_and_optima(tied_adjacencies):
    """Two IEEE-118 copies joined by a seeded tie line: the scan splits
    known covers across groups there more often than on any bundled
    system."""
    inst = pp.CoverInstance(adjacency=tied_adjacencies[2])
    assert pp.optimal_count(inst) == milp_count(inst) == 64
    witness = pp.solve_cover(inst)
    assert feasible(inst, witness)
    assert witness.nodes == TIED_WITNESS
    optima = pp.enumerate_optima(inst, 10)
    assert [s.nodes for s in optima] == [
        tuple(sorted(b + 1 if b in swap else b for b in TIED_WITNESS))
        for swap in TIED_SWAPS]
    assert optima.truncated


# Tied 4x118 and 8x118 seed 1, topological, as the search before the
# lex-first witness search found them: the witness, and the buses of it
# that each of the first ten optima swaps for their successors.
TIED_WITNESSES = {
    4: (
        1, 5, 9, 11, 12, 17, 18, 20, 23, 25, 28, 34, 37, 40, 45, 49, 52,
        56, 62, 63, 68, 71, 75, 77, 80, 85, 86, 90, 94, 101, 105, 110,
        114, 119, 123, 127, 129, 130, 135, 139, 143, 146, 152, 155, 158,
        163, 167, 170, 174, 180, 181, 186, 190, 193, 195, 198, 203, 204,
        208, 212, 219, 223, 228, 232, 237, 241, 245, 247, 248, 253, 256,
        259, 261, 264, 270, 273, 276, 281, 285, 288, 292, 298, 299, 304,
        307, 311, 313, 316, 321, 322, 326, 330, 337, 341, 346, 350, 355,
        359, 363, 365, 366, 371, 374, 377, 379, 382, 388, 391, 394, 399,
        403, 406, 410, 416, 417, 422, 425, 429, 431, 434, 439, 440, 444,
        448, 455, 459, 464, 468),
    8: (
        1, 5, 9, 11, 12, 17, 18, 20, 23, 25, 28, 34, 37, 40, 45, 49, 52,
        56, 62, 63, 68, 71, 75, 77, 80, 85, 86, 90, 94, 101, 105, 110,
        114, 119, 123, 127, 129, 130, 135, 139, 143, 146, 152, 155, 158,
        163, 167, 170, 174, 180, 181, 186, 190, 193, 195, 198, 203, 204,
        208, 212, 219, 223, 228, 232, 237, 241, 245, 247, 248, 253, 256,
        259, 261, 264, 270, 273, 276, 281, 285, 288, 292, 298, 299, 304,
        307, 311, 313, 316, 321, 322, 326, 330, 337, 341, 346, 350, 355,
        359, 363, 365, 366, 371, 374, 377, 379, 382, 388, 391, 394, 399,
        403, 406, 410, 416, 417, 422, 425, 429, 431, 434, 439, 440, 444,
        448, 455, 459, 464, 468, 473, 477, 481, 483, 484, 489, 492, 495,
        497, 500, 506, 509, 512, 517, 521, 524, 528, 534, 535, 540, 543,
        547, 549, 552, 557, 558, 562, 566, 573, 577, 582, 586, 591, 595,
        599, 601, 602, 607, 610, 613, 615, 618, 624, 627, 630, 635, 639,
        642, 646, 652, 653, 658, 661, 665, 667, 670, 675, 676, 680, 684,
        691, 695, 700, 704, 709, 713, 717, 719, 720, 725, 728, 731, 733,
        736, 742, 745, 748, 753, 757, 760, 764, 770, 771, 776, 779, 783,
        785, 788, 793, 794, 798, 802, 809, 813, 818, 822, 827, 831, 835,
        837, 838, 843, 846, 849, 851, 854, 860, 863, 866, 871, 875, 878,
        882, 888, 889, 894, 897, 901, 903, 906, 911, 912, 916, 920, 927,
        931, 936, 940),
}
TIED_SWAPS_AT = {
    4: ((), (468,), (455,), (455, 468), (444,), (444, 468), (444, 455),
        (444, 455, 468), (440,), (440, 468)),
    8: ((), (940,), (927,), (927, 940), (916,), (916, 940), (916, 927),
        (916, 927, 940), (912,), (912, 940))}


@pytest.mark.parametrize("copies", [4, 8])
def test_larger_tied_grids(tied_adjacencies, copies):
    """The count against the integer program, and the witness and the
    first ten optima against the constants above."""
    inst = pp.CoverInstance(adjacency=tied_adjacencies[copies])
    assert pp.optimal_count(inst) == milp_count(inst) == 32 * copies
    witness = TIED_WITNESSES[copies]
    assert pp.solve_cover(inst).nodes == witness
    optima = pp.enumerate_optima(inst, 10)
    assert [s.nodes for s in optima] == [
        tuple(sorted(b + 1 if b in swap else b for b in witness))
        for swap in TIED_SWAPS_AT[copies]]
    assert optima.truncated


def adjacency_of(cases, electrical_insts, tied_adjacencies, name,
                 structure):
    """The adjacency of a bundled case under `structure`, or of the
    tied grid `tied<k>` (topological)."""
    if name.startswith("tied"):
        return tied_adjacencies[int(name[4:])]
    if structure == "electrical":
        return electrical_insts[name].adjacency
    return pp.topological_adjacency(cases[name])


@pytest.mark.parametrize("name, structure", [
    (name, structure) for name in BUNDLED
    for structure in ("topological", "electrical")] + [
    ("tied2", "topological")])
def test_neighbourhood_table_matches_bits(cases, electrical_insts,
                                          tied_adjacencies, name, structure):
    """`nbr[i]` holds bit j exactly when buses i and j are adjacent."""
    adjacency = adjacency_of(cases, electrical_insts, tied_adjacencies, name,
                             structure)
    inst = pp.CoverInstance(adjacency=adjacency)
    assert inst.nbr == [sum(1 << int(j) for j in np.flatnonzero(row))
                        for row in adjacency.bits]


@pytest.mark.parametrize("copies", [2, 4, 8])
def test_tie_lines_lower_the_count_by_at_most_one_each(cases,
                                                       tied_adjacencies,
                                                       copies):
    """A cover of a grid with one more link, plus one end of that link,
    covers the grid without it, so each of the k - 1 tie lines lowers
    the count of k separate copies by at most one; and a link never
    raises it."""
    single = pp.optimal_count(pp.CoverInstance(
        adjacency=pp.topological_adjacency(cases["ieee118"])))
    count = pp.optimal_count(pp.CoverInstance(
        adjacency=tied_adjacencies[copies]))
    assert copies * single - (copies - 1) <= count <= copies * single


def milp_packing(adjacency):
    """A maximum 2-packing by `milp`: the most buses whose closed
    neighbourhoods are pairwise disjoint, max sum(x) subject to A x <= 1
    with x binary (each bus lies in at most one chosen neighbourhood).
    Returns the chosen buses."""
    bits = np.asarray(adjacency.bits, dtype=float)
    n = bits.shape[0]
    res = milp(-np.ones(n), integrality=np.ones(n), bounds=Bounds(0, 1),
               constraints=LinearConstraint(bits, ub=1))
    assert res.success
    return np.flatnonzero(np.round(res.x))


# Where the maximum 2-packing falls short of the minimum cover: the two
# are LP duals and meet on trees (Meir & Moon, Pacific J. Math. 61,
# 1975), but not on every grid.
PACKING_GAP = {("ieee57", "topological"): 1}


@pytest.mark.parametrize("name, structure", [
    (name, structure) for name in BUNDLED
    for structure in ("topological", "electrical")] + [
    (f"tied{k}", "topological") for k in (2, 4, 8)])
def test_packing_duality(cases, electrical_insts, tied_adjacencies, name,
                         structure):
    """Buses with disjoint closed neighbourhoods each need their own
    monitor, so a packing bounds the count from below; an oracle that
    trusts no search pins the gap."""
    adjacency = adjacency_of(cases, electrical_insts, tied_adjacencies, name,
                             structure)
    chosen = milp_packing(adjacency)
    assert np.asarray(adjacency.bits)[:, chosen].sum(axis=1).max() == 1
    count = pp.optimal_count(pp.CoverInstance(adjacency=adjacency))
    assert len(chosen) == count - PACKING_GAP.get((name, structure), 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 12))
def test_first_cover_from_every_optimum(seed, n):
    """On the whole grid and on random residuals: `first_cover` started
    from each minimum cover finds the first, the lex-safe fixpoint keeps
    all of it, and `covers` started from the first lists every minimum
    cover in order."""
    rng = np.random.default_rng(seed)
    adjacency = BinaryAdjacency(random_connected_adjacency(rng, n))
    inst = pp.CoverInstance(adjacency=adjacency)
    full = inst.full
    brute = brute_force_cover(inst, n).nodes
    assert residual_optima(inst, full, full)[0] == \
        sum(1 << (b - 1) for b in brute)
    residuals = [(full, full)] + [
        (random_mask(rng, n, rng.random()), random_mask(rng, n, rng.random()))
        for _ in range(3)]
    for uncovered, allowed in residuals:
        optima = residual_optima(inst, uncovered, allowed)
        if not optima:
            continue
        first = optima[0]
        _, kept = inst._reduce(uncovered, allowed, -1, -1, True)
        assert first & ~kept == 0
        for known in optima:
            assert pp.CoverInstance(adjacency=adjacency).first_cover(
                uncovered, allowed, known) == first
        assert list(inst.covers(uncovered, allowed, first)) == optima
