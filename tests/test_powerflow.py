"""Power flow and angle-sensitivity tests.

The reference solver used as an oracle here goes through
scipy.optimize.root with numerically estimated derivatives and complex
injection arithmetic, so it shares no code path with the Newton
implementation under test. A second reference, `oracles.
dense_power_flow`, runs the same Newton method on full N x N derivative
blocks; the pattern-built one must match it bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import root

import pmuplace as pp
from pmuplace.cases import PQ, PV, SLACK
from pmuplace.errors import MissingSlack, NonConvergence
from pmuplace.pipeline import RunConfig, run_structure
from pmuplace.powerflow import (_derivatives, _injections, _newton_layout,
                                _newton_matrix, _pattern, flat_point)
from conftest import BUNDLED, SINGULAR_JACOBIAN_CSV, load_tied
from oracles import (dense_newton_matrix, dense_p_theta_jacobian,
                     dense_power_flow, newton_unknowns)


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
        op = pp.solve_power_flow(two_bus, pp.build_ybus(two_bus))
        assert op.mismatch_inf_norm <= 1e-8
        assert op.iterations <= 1
        assert np.allclose(op.v_ang, 0.0)
        assert np.allclose(op.v_mag, 1.0)

    def test_ieee14_converges_quickly(self, ieee14):
        op = pp.solve_power_flow(ieee14, pp.build_ybus(ieee14))
        assert op.iterations <= 10
        assert op.mismatch_inf_norm <= 1e-8

    def test_ieee14_angles_match_reference_solver(self, ieee14):
        op = pp.solve_power_flow(ieee14, pp.build_ybus(ieee14))
        v_ref, a_ref = _scipy_reference(ieee14)
        assert np.abs(op.v_ang - a_ref).max() <= 1e-6
        assert np.abs(op.v_mag - v_ref).max() <= 1e-6

    def test_ieee14_matches_archived_profile(self, ieee14):
        # file voltages are rounded to about 1e-3 / 0.01 degrees
        op = pp.solve_power_flow(ieee14, pp.build_ybus(ieee14))
        file_v = np.array([b.v_mag for b in ieee14.buses])
        file_a = np.radians([b.v_ang_deg for b in ieee14.buses])
        assert np.abs(op.v_mag - file_v).max() < 2e-3
        assert np.abs(op.v_ang - file_a).max() < 2e-3

    def test_zero_iteration_budget_raises(self, ieee14):
        with pytest.raises(NonConvergence) as exc:
            pp.solve_power_flow(ieee14, pp.build_ybus(ieee14), max_iter=0)
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
            pp.solve_power_flow(case, pp.build_ybus(case))
        assert exc.value.iterations == 0
        assert exc.value.mismatch == 1.0

    def test_deterministic_bit_identical(self, ieee14):
        ybus = pp.build_ybus(ieee14)
        op1 = pp.solve_power_flow(ieee14, ybus)
        op2 = pp.solve_power_flow(ieee14, ybus)
        assert np.array_equal(op1.v_mag, op2.v_mag)
        assert np.array_equal(op1.v_ang, op2.v_ang)

    def test_all_bundled_cases_converge(self, cases):
        for name, case in cases.items():
            op = pp.solve_power_flow(case, pp.build_ybus(case))
            assert op.mismatch_inf_norm <= 1e-8, name
            assert op.iterations == 4, name


@pytest.fixture
def no_slack(ieee14):
    """IEEE-14 with its slack made a PV bus. No reader builds such a
    case; a hand-built one reaches the stages."""
    slack = ieee14.slack_index - 1
    buses = list(ieee14.buses)
    buses[slack] = replace(buses[slack], bus_type=PV)
    return replace(ieee14, buses=tuple(buses))


def test_power_flow_without_slack_is_missing_slack(no_slack):
    with pytest.raises(MissingSlack, match="^case has no slack bus$"):
        pp.solve_power_flow(no_slack, pp.build_ybus(no_slack))


@pytest.mark.parametrize("jacobian_mode", ["solved", "flat"])
def test_electrical_stages_without_slack(no_slack, jacobian_mode):
    config = RunConfig(case_path="unused", structure="electrical",
                       jacobian_mode=jacobian_mode)
    with pytest.raises(MissingSlack, match="^case has no slack bus$") as exc:
        run_structure(no_slack, "electrical", config,
                      pp.build_ybus(no_slack))
    assert exc.value.exit_code == 5


class TestNewtonJacobian:
    """The four blocks the Newton step takes its Jacobian from, scattered
    from the admittance pattern into N x N, against central differences
    of the complex injections. Every difference off the pattern must
    vanish, so this also shows the pattern is complete."""

    @pytest.mark.parametrize("perturbed", [False, True],
                             ids=["solved", "perturbed"])
    @pytest.mark.parametrize("name", ["ieee14", "ieee118"])
    def test_blocks_match_central_differences(self, cases, name, perturbed):
        case = cases[name]
        ybus = pp.build_ybus(case)
        op = pp.solve_power_flow(case, ybus)
        v_mag, v_ang = op.v_mag.copy(), op.v_ang.copy()
        if perturbed:
            rng = np.random.default_rng(0)
            v_mag += rng.uniform(-0.05, 0.05, case.n)
            v_ang += rng.uniform(-0.1, 0.1, case.n)
        s = _complex_injections(case, v_mag, v_ang)
        at = _pattern(ybus)
        # [[dP/dtheta, dP/dV], [dQ/dtheta, dQ/dV]], each N x N
        blocks = np.zeros((2, 2, case.n, case.n))
        for blk, values in zip(blocks.reshape(4, case.n, case.n),
                               _derivatives(ybus, at, v_mag, v_ang,
                                            s.real, s.imag)):
            blk[at] = values
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
        g = pp.p_theta_jacobian(two_bus, flat_point(two_bus),
                                pp.build_ybus(two_bus))
        assert np.allclose(g, [[2.0, -2.0], [-2.0, 2.0]])

    def test_flat_equals_susceptance_laplacian(self, ieee9):
        # with r = 0 on a branch the flat-start entry is exactly -1/x;
        # in general it is the series-susceptance magnitude
        g = pp.p_theta_jacobian(ieee9, flat_point(ieee9),
                                pp.build_ybus(ieee9))
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
            ybus = pp.build_ybus(case)
            g = pp.p_theta_jacobian(case, pp.solve_power_flow(case, ybus),
                                    ybus)
            assert np.abs(g.sum(axis=1)).max() <= 1e-9, name

    @pytest.mark.parametrize("name", ["ieee9", "ieee14"])
    def test_finite_difference_agreement(self, cases, name):
        case = cases[name]
        ybus = pp.build_ybus(case)
        op = pp.solve_power_flow(case, ybus)
        g = pp.p_theta_jacobian(case, op, ybus)
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
            pp.p_theta_jacobian(ieee14, op, pp.build_ybus(ieee14))


def _operating_points(case, ybus):
    """The solved point, the flat point and a seeded perturbation of the
    solved one."""
    solved = pp.solve_power_flow(case, ybus=ybus)
    rng = np.random.default_rng(1)
    perturbed = pp.OperatingPoint(
        v_mag=solved.v_mag + rng.uniform(-0.05, 0.05, case.n),
        v_ang=solved.v_ang + rng.uniform(-0.1, 0.1, case.n),
        mismatch_inf_norm=0.0)
    return {"solved": solved, "flat": flat_point(case),
            "perturbed": perturbed}


@pytest.fixture(scope="module")
def reference_cases(cases):
    """The bundled systems and the tied 2x118 seed-1 grid."""
    return {**cases, "tied2": load_tied().tied_case(2, 1)}


@pytest.mark.parametrize("name", [*BUNDLED, "tied2"])
class TestDenseReference:
    """The pattern-built derivatives against the dense N x N blocks of
    `oracles.dense_derivatives`, cut and joined by `np.ix_`/`np.block`."""

    def test_newton_matrix_equals_dense(self, reference_cases, name):
        case = reference_cases[name]
        ybus = pp.build_ybus(case)
        at = _pattern(ybus)
        ang_idx, pq = newton_unknowns(case)
        layout = _newton_layout(at, case.n, ang_idx, pq)
        for point, op in _operating_points(case, ybus).items():
            p, q = _injections(ybus, op.v_mag, op.v_ang)
            ours = _newton_matrix(
                _derivatives(ybus, at, op.v_mag, op.v_ang, p, q), layout)
            dense = dense_newton_matrix(ybus, (ang_idx, pq), op.v_mag,
                                        op.v_ang, p, q)
            assert np.array_equal(ours, dense), point

    def test_solution_bit_identical(self, reference_cases, name):
        case = reference_cases[name]
        ybus = pp.build_ybus(case)
        ours = pp.solve_power_flow(case, ybus=ybus)
        dense = dense_power_flow(case, ybus)
        assert ours.v_mag.tobytes() == dense.v_mag.tobytes()
        assert ours.v_ang.tobytes() == dense.v_ang.tobytes()
        assert ours.mismatch_inf_norm.hex() == dense.mismatch_inf_norm.hex()
        assert ours.iterations == dense.iterations

    def test_distance_bit_identical(self, reference_cases, name):
        # Off the pattern the dense block can hold -0.0 where ours holds
        # 0.0; the distances must not see it.
        case = reference_cases[name]
        ybus = pp.build_ybus(case)
        for point, op in _operating_points(case, ybus).items():
            g = pp.p_theta_jacobian(case, op, ybus=ybus)
            dense = dense_p_theta_jacobian(ybus, op)
            assert np.array_equal(g, dense), point
            ours = pp.resistance_matrix(g, case.slack_index).e
            ref = pp.resistance_matrix(dense, case.slack_index).e
            assert ours.tobytes() == ref.tobytes(), point
