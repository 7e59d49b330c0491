"""Resistance-distance construction tests."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmuplace as pp
from pmuplace.errors import SingularSubmatrix, TieAtThreshold
from pmuplace.pipeline import RunConfig, run_structure
from conftest import (BUNDLED, laplacian_from_adjacency,
                      random_connected_adjacency)
from oracles import verify_metric

TRIANGLE_LAP = np.array([[2.0, -1.0, -1.0],
                         [-1.0, 2.0, -1.0],
                         [-1.0, -1.0, 2.0]])
PATH3_LAP = np.array([[1.0, -1.0, 0.0],
                      [-1.0, 2.0, -1.0],
                      [0.0, -1.0, 1.0]])


def pinv_distance(g):
    """Resistance distances from the pseudoinverse of the symmetric
    zero-row-sum part of `g`, built here from its mutual couplings: the
    off-diagonal weight of pair (i, j) is minus the mean of g[i, j] and
    g[j, i], and each diagonal entry the sum of its row's weights."""
    weights = -0.5 * (g + g.T)
    np.fill_diagonal(weights, 0.0)
    lap = np.diag(weights.sum(axis=1)) - weights
    lp = np.linalg.pinv(lap)
    d = np.diag(lp)
    e = d[:, None] + d[None, :] - lp - lp.T
    np.fill_diagonal(e, 0.0)
    return e


class TestGroundedInverse:
    def test_two_node_unit(self):
        g = np.array([[1.0, -1.0], [-1.0, 1.0]])
        inv = pp.grounded_inverse(g, 2)
        assert inv.shape == (2, 2)
        assert inv == pytest.approx(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_triangle(self):
        inv = pp.grounded_inverse(TRIANGLE_LAP, 3)
        assert np.allclose(inv, np.array([[2, 1, 0], [1, 2, 0],
                                          [0, 0, 0]]) / 3.0)
        assert not inv[2].any() and not inv[:, 2].any()

    def test_disconnected_singular(self):
        g = laplacian_from_adjacency(np.array([
            [1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]))
        with pytest.raises(SingularSubmatrix):
            pp.grounded_inverse(g, 4)

    def test_bad_reference_rejected(self):
        with pytest.raises(ValueError):
            pp.grounded_inverse(TRIANGLE_LAP, 4)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError,
                           match="^conductance matrix must be square$"):
            pp.grounded_inverse(np.zeros((2, 3)), 1)


# A connected grid can still ground to a singular matrix: at the flat
# point a branch without susceptance (x = 0) carries no angle
# sensitivity, so IEEE-9's bus 1, whose only branch is 1-4, is joined
# to nothing.
def test_branch_without_susceptance_singular_at_flat_point(ieee9):
    case = replace(ieee9, branches=(
        replace(ieee9.branches[0], r=0.05, x=0.0), *ieee9.branches[1:]))
    cfg = RunConfig(case_path="unused", structure="electrical",
                    jacobian_mode="flat", mode="count")
    with pytest.raises(SingularSubmatrix) as exc:
        run_structure(case, "electrical", cfg, pp.build_ybus(case))
    assert type(exc.value) is SingularSubmatrix
    assert exc.value.exit_code == 6


class TestResistanceMatrix:
    def test_single_resistor(self):
        g = np.array([[1.0, -1.0], [-1.0, 1.0]])
        dist = pp.resistance_matrix(g, 1)
        assert dist.e[0, 1] == pytest.approx(1.0)

    def test_triangle_two_thirds(self):
        dist = pp.resistance_matrix(TRIANGLE_LAP, 3)
        off = dist.e[~np.eye(3, dtype=bool)]
        assert off == pytest.approx(np.full(6, 2.0 / 3.0))

    def test_path_series_resistors(self):
        dist = pp.resistance_matrix(PATH3_LAP, 1)
        assert dist.e[0, 1] == pytest.approx(1.0)
        assert dist.e[1, 2] == pytest.approx(1.0)
        assert dist.e[0, 2] == pytest.approx(2.0)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_metric_on_solved_case(self, cases, name):
        case = cases[name]
        ybus = pp.build_ybus(case)
        g = pp.p_theta_jacobian(case, pp.solve_power_flow(case, ybus), ybus)
        dist = pp.resistance_matrix(g, case.slack_index)
        assert verify_metric(dist).ok
        assert np.abs(dist.e - pinv_distance(g)).max() <= 1e-8

    def test_reference_node_immaterial(self, ieee14):
        g = pp.p_theta_jacobian(ieee14, pp.flat_point(ieee14),
                                pp.build_ybus(ieee14))
        base = pp.resistance_matrix(g, 1).e
        for r in (2, 7, 14):
            assert np.abs(pp.resistance_matrix(g, r).e - base).max() <= 1e-8


class TestElectricalAdjacency:
    def test_triangle_complete_selection(self):
        dist = pp.resistance_matrix(TRIANGLE_LAP, 3)
        b = pp.electrical_adjacency(dist, 3)
        assert b.bits.sum() == 9

    def test_path_selection(self):
        dist = pp.resistance_matrix(PATH3_LAP, 1)
        b = pp.electrical_adjacency(dist, 2)
        assert b.bits[0, 1] == 1 and b.bits[1, 2] == 1
        assert b.bits[0, 2] == 0

    def test_exactly_m_upper_triangle_ones(self, cases):
        for case in cases.values():
            g = pp.p_theta_jacobian(case, pp.flat_point(case),
                                    pp.build_ybus(case))
            dist = pp.resistance_matrix(g, case.slack_index)
            b = pp.electrical_adjacency(dist, case.m)
            upper = np.triu(b.bits, k=1)
            assert int(upper.sum()) == case.m
            assert np.array_equal(b.bits, b.bits.T)
            assert np.all(np.diag(b.bits) == 1)

    def test_tie_at_threshold_warns(self):
        e = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        dist = pp.ResistanceDistance(e)
        with pytest.warns(TieAtThreshold):
            b = pp.electrical_adjacency(dist, 2)
        # deterministic index-order tie break: pairs (1,2) and (1,3)
        assert b.bits[0, 1] == 1 and b.bits[0, 2] == 1 and b.bits[1, 2] == 0

    def test_no_tie_no_warning(self):
        dist = pp.resistance_matrix(PATH3_LAP, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TieAtThreshold)
            pp.electrical_adjacency(dist, 2)

    def test_branch_count_bounds(self):
        dist = pp.resistance_matrix(TRIANGLE_LAP, 3)
        with pytest.raises(ValueError):
            pp.electrical_adjacency(dist, 0)
        # parallel circuits: more branches than pairs link every pair
        assert pp.electrical_adjacency(dist, 4).bits.sum() == 9


# Tie-heavy distances, ±0.0 among them: the selected pairs and the tie
# warning must follow (value, i, j) order, as a lexsort spells it out.
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_order_matches_lexsort(data):
    n = data.draw(st.integers(2, 14))
    iu, ju = np.triu_indices(n, k=1)
    values = np.array(data.draw(st.lists(
        st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0000000000000002]),
        min_size=iu.size, max_size=iu.size)))
    m = data.draw(st.integers(1, iu.size + 1))
    e = np.zeros((n, n))
    e[iu, ju] = e[ju, iu] = values
    order = np.lexsort((ju, iu, values))
    chosen = order[:m]
    expected = np.eye(n, dtype=np.int8)
    expected[iu[chosen], ju[chosen]] = expected[ju[chosen], iu[chosen]] = 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TieAtThreshold)
        bits = pp.electrical_adjacency(pp.ResistanceDistance(e), m).bits
    assert np.array_equal(bits, expected)
    tie = bool(m < iu.size and values[order[m - 1]] == values[order[m]])
    assert [w.category for w in caught] == [TieAtThreshold] * tie
    # The warning names the m-th value of the order, sign of zero and all.
    if tie:
        assert str(caught[0].message) == (
            f"distance threshold ties at the {m}-th smallest entry "
            f"({values[order[m - 1]]!r}); keeping index order")


@pytest.mark.parametrize("values, m, named", [
    ([-0.0, 0.0, 0.0], 1, -0.0),
    ([0.0, -0.0, 0.0], 1, 0.0),
    ([0.0, -0.0, 0.0], 2, -0.0),
    ([1.0, -0.0, 0.0], 1, -0.0),
])
def test_tie_warning_names_signed_zero(values, m, named):
    """Among tied zeros the cutoff falls on the m-th in index order, and
    the warning names that one's sign."""
    e = np.zeros((3, 3))
    iu, ju = np.triu_indices(3, k=1)
    e[iu, ju] = e[ju, iu] = values
    with pytest.warns(TieAtThreshold) as caught:
        pp.electrical_adjacency(pp.ResistanceDistance(e), m)
    assert f"entry ({np.float64(named)!r});" in str(caught[0].message)


class TestVerifyMetric:
    def test_triangle_clean(self):
        dist = pp.resistance_matrix(TRIANGLE_LAP, 1)
        assert verify_metric(dist).ok

    def test_hand_built_triangle_violation(self):
        e = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        rep = verify_metric(pp.ResistanceDistance(e))
        assert rep.triangle_violations == [(1, 2, 3)]
        assert not rep.ok

    def test_ieee14_clean_both_modes(self, ieee14):
        ybus = pp.build_ybus(ieee14)
        for op in (pp.flat_point(ieee14), pp.solve_power_flow(ieee14, ybus)):
            g = pp.p_theta_jacobian(ieee14, op, ybus)
            dist = pp.resistance_matrix(g, ieee14.slack_index)
            assert verify_metric(dist).ok


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_laplacians_match_pinv_oracle(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(2, 9))
    bits = random_connected_adjacency(rng, n)
    weights = rng.uniform(0.2, 5.0, size=(n, n))
    weights = 0.5 * (weights + weights.T)
    g = laplacian_from_adjacency(bits, weights)
    dist = pp.resistance_matrix(g, 1)
    assert verify_metric(dist).ok
    assert np.abs(dist.e - pinv_distance(g)).max() <= 1e-8


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_scaling_property(data):
    # distinct random weights keep the pair ordering tie-free, so the
    # rank selection must be exactly scale-invariant
    seed = data.draw(st.integers(0, 10 ** 6))
    c = data.draw(st.floats(min_value=0.01, max_value=100.0))
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(3, 8))
    bits = random_connected_adjacency(rng, n)
    weights = rng.uniform(0.2, 5.0, size=(n, n))
    weights = 0.5 * (weights + weights.T)
    g = laplacian_from_adjacency(bits, weights)
    d1 = pp.resistance_matrix(g, 1)
    d2 = pp.resistance_matrix(c * g, 1)
    assert np.allclose(d2.e, d1.e / c, rtol=1e-9, atol=1e-12)
    m = min(n, n * (n - 1) // 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TieAtThreshold)
        b1 = pp.electrical_adjacency(d1, m)
        b2 = pp.electrical_adjacency(d2, m)
    assert np.array_equal(b1.bits, b2.bits)
