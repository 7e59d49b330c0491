"""Singular-decomposition and placement-assignment tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmuplace as pp
from pmuplace.errors import AsymmetryWarning, DecompositionError
from oracles import reconstruction_error


@pytest.fixture(scope="module")
def nine_bus_distance(cases):
    case = cases["ieee9"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AsymmetryWarning)
        g = pp.p_theta_jacobian(case, pp.solve_power_flow(case))
        return pp.resistance_matrix(g, case.slack_index).e


class TestComputeSvd:
    def test_identity(self):
        d = pp.compute_svd(np.eye(3))
        assert d.sigma == pytest.approx([1.0, 1.0, 1.0])

    def test_diagonal(self):
        d = pp.compute_svd(np.diag([3.0, 1.0]))
        assert d.sigma == pytest.approx([3.0, 1.0])
        assert np.allclose(np.abs(d.u), np.eye(2))
        assert np.allclose(np.abs(d.v), np.eye(2))

    def test_sigma_nonincreasing(self, nine_bus_distance):
        d = pp.compute_svd(nine_bus_distance)
        assert np.all(np.diff(d.sigma) <= 0)

    def test_reconstruction_nine_bus(self, nine_bus_distance):
        d = pp.compute_svd(nine_bus_distance)
        assert reconstruction_error(d, nine_bus_distance) <= 1e-8

    def test_orthonormal_columns(self, nine_bus_distance):
        d = pp.compute_svd(nine_bus_distance)
        n = d.n
        assert np.abs(d.u.conj().T @ d.u - np.eye(n)).max() <= 1e-10
        assert np.abs(d.v.conj().T @ d.v - np.eye(n)).max() <= 1e-10

    def test_complex_admittance_input(self, cases):
        y = pp.build_ybus(cases["ieee14"])
        d = pp.compute_svd(y)
        assert reconstruction_error(d, y) <= 1e-8

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        # the decomposition guards its own input; the model check in
        # build_ybus already stops a 1e-320 reactance before this stage
        with pytest.raises(DecompositionError, match="non-finite"):
            pp.compute_svd(np.array([[1.0, bad], [bad, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            pp.compute_svd(np.ones((2, 3)))


class TestRankVectors:
    def test_tie_broken_by_index(self):
        u = np.eye(4)
        d = pp.SingularDecomposition(
            u=u, sigma=np.array([5.0, 2.0, 2.0, 1.0]), v=u)
        ranked = pp.rank_vectors(d, 2)
        assert [n for n, _ in ranked] == [1, 2]

    def test_equal_sigma_ignores_norm_rounding(self):
        # ||u_2|| rounds one ulp above ||u_1||; the singular values tie
        u = np.diag([1.0, 1.0 + 2.0 ** -52])
        d = pp.SingularDecomposition(
            u=u, sigma=np.array([1.0, 1.0]), v=u)
        assert [n for n, _ in pp.rank_vectors(d, 2)] == [1, 2]

    def test_full_budget_keeps_sigma_order(self, nine_bus_distance):
        d = pp.compute_svd(nine_bus_distance)
        ranked = pp.rank_vectors(d, d.n)
        assert [n for n, _ in ranked] == list(range(1, d.n + 1))

    def test_magnitude_equals_singular_value(self, nine_bus_distance):
        d = pp.compute_svd(nine_bus_distance)
        for n, magnitude in pp.rank_vectors(d, 4):
            assert magnitude == pytest.approx(d.sigma[n - 1])

    def test_budget_bounds(self, nine_bus_distance):
        d = pp.compute_svd(nine_bus_distance)
        with pytest.raises(ValueError):
            pp.rank_vectors(d, 0)
        with pytest.raises(ValueError):
            pp.rank_vectors(d, d.n + 1)


class TestAssignBuses:
    def test_two_by_two_diagonal(self):
        d = pp.compute_svd(np.diag([3.0, 1.0]))
        ranking = pp.assign_buses(d, pp.rank_vectors(d, 2))
        assert ranking.buses == (1, 2)
        assert all(a.rank == 1 for a in ranking.selected)

    def test_conflict_falls_to_next_entry(self):
        u = np.array([[0.9, 0.8, 0.1],
                      [0.3, 0.5, 0.2],
                      [0.2, 0.1, 0.9]])
        # orthonormality is irrelevant for the assignment rule itself
        d = pp.SingularDecomposition(
            u=u, sigma=np.array([3.0, 2.0, 1.0]), v=u)
        ranking = pp.assign_buses(d, [(1, 3.0), (2, 2.0), (3, 1.0)])
        first, second, third = ranking.selected
        assert (first.bus, first.rank) == (1, 1)
        assert (second.bus, second.rank) == (2, 2)  # bus 1 already taken
        assert second.intended_bus == 1
        assert (third.bus, third.rank) == (3, 1)

    def test_deep_fallback_terminates(self):
        # every vector peaks on the same bus ordering: ranks 1, 2, 3
        u = np.tile(np.array([[0.8], [0.5], [0.3]]), (1, 3))
        d = pp.SingularDecomposition(
            u=u, sigma=np.array([3.0, 2.0, 1.0]), v=u)
        ranking = pp.assign_buses(d, [(1, 3.0), (2, 2.0), (3, 1.0)])
        assert ranking.buses == (1, 2, 3)
        assert [a.rank for a in ranking.selected] == [1, 2, 3]

    def test_within_vector_tie_prefers_lower_bus(self):
        u = np.array([[0.5, 1.0], [0.5, 0.0]])
        d = pp.SingularDecomposition(
            u=u, sigma=np.array([2.0, 1.0]), v=u)
        ranking = pp.assign_buses(d, [(1, 2.0), (2, 1.0)])
        assert ranking.selected[0].bus == 1

    def test_distinct_buses_always(self, nine_bus_distance):
        d = pp.compute_svd(nine_bus_distance)
        for p in range(1, d.n + 1):
            ranking = pp.assign_buses(d, pp.rank_vectors(d, p))
            assert len(set(a.bus for a in ranking.selected)) == p

    def test_sign_invariance(self, nine_bus_distance):
        d = pp.compute_svd(nine_bus_distance)
        flipped = pp.SingularDecomposition(
            u=d.u * np.where(np.arange(d.n) % 2 == 0, -1.0, 1.0),
            sigma=d.sigma, v=d.v)
        r1 = pp.assign_buses(d, pp.rank_vectors(d, 4))
        r2 = pp.assign_buses(flipped, pp.rank_vectors(flipped, 4))
        assert r1 == r2

    def test_priority_soundness(self, nine_bus_distance):
        # on conflict the stronger vector keeps the bus
        d = pp.compute_svd(nine_bus_distance)
        ranking = pp.assign_buses(d, pp.rank_vectors(d, d.n))
        magnitudes = {a.vector_index: a.magnitude for a in ranking.selected}
        for a in ranking.conflicts:
            holder = next(b for b in ranking.selected
                          if b.bus == a.intended_bus)
            assert magnitudes[holder.vector_index] >= a.magnitude


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 8))
def test_random_matrices_invariants(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    d = pp.compute_svd(m)
    assert reconstruction_error(d, m) <= 1e-8
    assert np.abs(d.u.conj().T @ d.u - np.eye(n)).max() <= 1e-10
    assert np.all(np.diff(d.sigma) <= 0)
    p = int(rng.integers(1, n + 1))
    ranking = pp.assign_buses(d, pp.rank_vectors(d, p))
    assert len(set(a.bus for a in ranking.selected)) == p
    mags = [a.magnitude for a in ranking.selected]
    assert mags == sorted(mags, reverse=True)
