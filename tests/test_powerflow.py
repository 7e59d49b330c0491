"""Power flow and angle-sensitivity tests.

The reference solver used as an oracle here goes through
scipy.optimize.root with numerically estimated derivatives and complex
injection arithmetic, so it shares no code path with the Newton
implementation under test.
"""

import numpy as np
import pytest
from scipy.optimize import root

import pmuplace as pp
from pmuplace.cases import PQ, PV, SLACK
from pmuplace.errors import NonConvergence
from pmuplace.powerflow import _derivatives, flat_point
from conftest import SINGULAR_JACOBIAN_CSV


def _complex_injections(case, v_mag, v_ang):
    y = pp.build_ybus(case)
    v = v_mag * np.exp(1j * v_ang)
    return v * np.conj(y @ v)


def _scipy_reference(case):
    """Independent power-flow solution via a generic root finder."""
    types = [b.bus_type for b in case.buses]
    pv = [i for i, t in enumerate(types) if t == PV]
    pq = [i for i, t in enumerate(types) if t == PQ]
    slack = types.index(SLACK)
    ang_idx = sorted(pv + pq)
    p_sched = np.array([b.p_gen - b.p_load for b in case.buses])
    q_sched = np.array([b.q_gen - b.q_load for b in case.buses])
    v_fixed = np.ones(case.n)
    for i in pv + [slack]:
        v_fixed[i] = case.buses[i].v_mag

    def residual(x):
        v_ang = np.zeros(case.n)
        v_ang[ang_idx] = x[:len(ang_idx)]
        v_mag = v_fixed.copy()
        v_mag[pq] = x[len(ang_idx):]
        s = _complex_injections(case, v_mag, v_ang)
        return np.concatenate([s.real[ang_idx] - p_sched[ang_idx],
                               s.imag[pq] - q_sched[pq]])

    x0 = np.concatenate([np.zeros(len(ang_idx)), np.ones(len(pq))])
    sol = root(residual, x0, method="hybr", tol=1e-12)
    assert sol.success
    v_ang = np.zeros(case.n)
    v_ang[ang_idx] = sol.x[:len(ang_idx)]
    v_mag = v_fixed.copy()
    v_mag[pq] = sol.x[len(ang_idx):]
    return v_mag, v_ang


class TestSolvePowerFlow:
    def test_two_bus_zero_load_flat_fixed_point(self, two_bus):
        op = pp.solve_power_flow(two_bus)
        assert op.mismatch_inf_norm <= 1e-8
        assert op.iterations <= 1
        assert np.allclose(op.v_ang, 0.0)
        assert np.allclose(op.v_mag, 1.0)

    def test_ieee14_converges_quickly(self, ieee14):
        op = pp.solve_power_flow(ieee14)
        assert op.iterations <= 10
        assert op.mismatch_inf_norm <= 1e-8

    def test_ieee14_angles_match_reference_solver(self, ieee14):
        op = pp.solve_power_flow(ieee14)
        v_ref, a_ref = _scipy_reference(ieee14)
        assert np.abs(op.v_ang - a_ref).max() <= 1e-6
        assert np.abs(op.v_mag - v_ref).max() <= 1e-6

    def test_ieee14_matches_archived_profile(self, ieee14):
        # file voltages are rounded to about 1e-3 / 0.01 degrees
        op = pp.solve_power_flow(ieee14)
        file_v = np.array([b.v_mag for b in ieee14.buses])
        file_a = np.array([b.v_ang for b in ieee14.buses])
        assert np.abs(op.v_mag - file_v).max() < 2e-3
        assert np.abs(op.v_ang - file_a).max() < 2e-3

    def test_zero_iteration_budget_raises(self, ieee14):
        with pytest.raises(NonConvergence) as exc:
            pp.solve_power_flow(ieee14, max_iter=0)
        assert exc.value.iterations == 0

    def test_nan_mismatch_raises(self, ieee14):
        # NaN compares false against the tolerance; it must not read as
        # converged. `build_ybus` rejects a nan reactance, so the nan
        # comes in with the admittance matrix, at one branch's cells.
        br = ieee14.branches[3]
        ends = [br.from_bus - 1, br.to_bus - 1]
        ybus = pp.build_ybus(ieee14)
        ybus[np.ix_(ends, ends)] = complex(float("nan"), float("nan"))
        with pytest.raises(NonConvergence) as exc:
            pp.solve_power_flow(ieee14, ybus=ybus)
        assert exc.value.iterations == 0
        assert np.isnan(exc.value.mismatch)

    def test_singular_jacobian_raises(self):
        case = pp.parse_csv_fallback(SINGULAR_JACOBIAN_CSV)
        with pytest.raises(NonConvergence) as exc:
            pp.solve_power_flow(case)
        assert exc.value.iterations == 0
        assert exc.value.mismatch == 1.0

    def test_deterministic_bit_identical(self, ieee14):
        op1 = pp.solve_power_flow(ieee14)
        op2 = pp.solve_power_flow(ieee14)
        assert np.array_equal(op1.v_mag, op2.v_mag)
        assert np.array_equal(op1.v_ang, op2.v_ang)

    def test_all_bundled_cases_converge(self, cases):
        for name, case in cases.items():
            op = pp.solve_power_flow(case)
            assert op.mismatch_inf_norm <= 1e-8, name
            assert op.iterations == 4, name


class TestNewtonJacobian:
    """The four N x N blocks the Newton step takes its Jacobian from,
    against central differences of the complex injections."""

    @pytest.mark.parametrize("perturbed", [False, True],
                             ids=["solved", "perturbed"])
    @pytest.mark.parametrize("name", ["ieee14", "ieee118"])
    def test_blocks_match_central_differences(self, cases, name, perturbed):
        case = cases[name]
        op = pp.solve_power_flow(case)
        v_mag, v_ang = op.v_mag.copy(), op.v_ang.copy()
        if perturbed:
            rng = np.random.default_rng(0)
            v_mag += rng.uniform(-0.05, 0.05, case.n)
            v_ang += rng.uniform(-0.1, 0.1, case.n)
        s = _complex_injections(case, v_mag, v_ang)
        # [[dP/dtheta, dP/dV], [dQ/dtheta, dQ/dV]], each N x N
        blocks = np.array(_derivatives(pp.build_ybus(case), v_mag, v_ang,
                                       s.real, s.imag))
        fd = np.zeros_like(blocks)
        step = 1e-6
        width = 2 * step
        for j in range(case.n):
            e = np.zeros(case.n)
            e[j] = step
            d_ang = (_complex_injections(case, v_mag, v_ang + e)
                     - _complex_injections(case, v_mag, v_ang - e)) / width
            d_mag = (_complex_injections(case, v_mag + e, v_ang)
                     - _complex_injections(case, v_mag - e, v_ang)) / width
            fd[:, :, :, j] = [[d_ang.real, d_mag.real],
                              [d_ang.imag, d_mag.imag]]
        err = np.abs(blocks - fd) / np.maximum(np.abs(blocks), 1.0)
        assert (err.max(axis=(2, 3)) <= 1e-6).all(), err.max(axis=(2, 3))


class TestAngleSensitivity:
    def test_two_bus_flat(self, two_bus):
        g = pp.p_theta_jacobian(two_bus, flat_point(two_bus))
        assert np.allclose(g, [[2.0, -2.0], [-2.0, 2.0]])

    def test_flat_equals_susceptance_laplacian(self, ieee9):
        # with r = 0 on a branch the flat-start entry is exactly -1/x;
        # in general it is the series-susceptance magnitude
        g = pp.p_theta_jacobian(ieee9, flat_point(ieee9))
        expected = np.zeros((9, 9))
        for br in ieee9.branches:
            w = br.x / (br.r ** 2 + br.x ** 2) / br.tap_ratio
            i, j = br.from_bus - 1, br.to_bus - 1
            expected[i, j] -= w
            expected[j, i] -= w
            expected[i, i] += w
            expected[j, j] += w
        assert np.allclose(g, expected, atol=1e-12)

    def test_row_sums_vanish_at_solved_point(self, cases):
        for name, case in cases.items():
            op = pp.solve_power_flow(case)
            g = pp.p_theta_jacobian(case, op)
            assert np.abs(g.sum(axis=1)).max() <= 1e-9, name

    @pytest.mark.parametrize("name", ["ieee9", "ieee14"])
    def test_finite_difference_agreement(self, cases, name):
        case = cases[name]
        op = pp.solve_power_flow(case)
        g = pp.p_theta_jacobian(case, op)
        step = 1e-6
        for j in range(case.n):
            up = op.v_ang.copy()
            up[j] += step
            down = op.v_ang.copy()
            down[j] -= step
            fd = (_complex_injections(case, op.v_mag, up).real
                  - _complex_injections(case, op.v_mag, down).real) / (2 * step)
            scale = np.maximum(np.abs(g[:, j]), 1e-6)
            assert (np.abs(g[:, j] - fd) / scale).max() <= 1e-4

    def test_wrong_size_operating_point_rejected(self, ieee14, two_bus):
        op = flat_point(two_bus)
        with pytest.raises(ValueError):
            pp.p_theta_jacobian(ieee14, op)
