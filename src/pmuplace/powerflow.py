"""Newton-Raphson AC power flow and the real power / angle sensitivity.

The solver is a plain full-Newton method in polar coordinates: active
mismatch at PV and PQ buses, reactive mismatch at PQ buses, no reactive
limit enforcement. Everything is deterministic; identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cases import PQ, PV, SLACK, PowerCase
from .errors import NonConvergence
from .network import build_ybus

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 50


@dataclass(frozen=True)
class OperatingPoint:
    """Voltage solution in per-unit magnitudes and radian angles."""

    v_mag: np.ndarray
    v_ang: np.ndarray
    converged: bool
    mismatch_inf_norm: float
    iterations: int = 0


def flat_point(case: PowerCase) -> OperatingPoint:
    """All magnitudes 1.0, all angles zero."""
    n = case.n
    return OperatingPoint(v_mag=np.ones(n), v_ang=np.zeros(n),
                          converged=True, mismatch_inf_norm=0.0)


def _injections(ybus: np.ndarray, v_mag, v_ang):
    """Complex nodal injections S = V . (Y V)* at the given voltages."""
    v = v_mag * np.exp(1j * v_ang)
    s = v * np.conj(ybus @ v)
    return s.real, s.imag


def solve_power_flow(case: PowerCase, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER,
                     ybus: np.ndarray | None = None) -> OperatingPoint:
    """Solve the AC power flow with full Newton iterations.

    PV buses hold their file voltage magnitude, the slack holds both
    magnitude and a zero angle. Raises `NonConvergence` if the mismatch
    inf-norm is still above `tol` after `max_iter` Newton steps, becomes
    non-finite, or meets a singular Newton Jacobian.
    """
    if ybus is None:
        ybus = build_ybus(case)
    n = case.n
    g, b = ybus.real, ybus.imag

    types = [bus.bus_type for bus in case.buses]
    pv = np.array([i for i, t in enumerate(types) if t == PV], dtype=int)
    pq = np.array([i for i, t in enumerate(types) if t == PQ], dtype=int)
    slack = next(i for i, t in enumerate(types) if t == SLACK)
    ang_idx = np.sort(np.concatenate([pv, pq]))  # unknown angles
    n_ang = len(ang_idx)

    p_sched = np.array([bus.p_gen - bus.p_load for bus in case.buses])
    q_sched = np.array([bus.q_gen - bus.q_load for bus in case.buses])

    v_mag = np.ones(n)
    for i in (*pv, slack):
        v_mag[i] = case.buses[i].v_mag
    v_ang = np.zeros(n)

    def mismatch(v_mag, v_ang):
        p, q = _injections(ybus, v_mag, v_ang)
        return np.concatenate([p_sched[ang_idx] - p[ang_idx],
                               q_sched[pq] - q[pq]])

    iterations = 0
    while True:
        mis = mismatch(v_mag, v_ang)
        norm = float(np.abs(mis).max()) if mis.size else 0.0
        # A NaN mismatch compares false against any tolerance, so test
        # for finiteness before convergence.
        if not np.isfinite(norm):
            raise NonConvergence(iterations, norm)
        if norm <= tol:
            break
        if iterations >= max_iter:
            raise NonConvergence(iterations, norm)
        jac = _newton_jacobian(g, b, v_mag, v_ang, ang_idx, pq)
        try:
            step = np.linalg.solve(jac, mis)
        except np.linalg.LinAlgError:
            raise NonConvergence(iterations, norm) from None
        v_ang = v_ang.copy()
        v_mag = v_mag.copy()
        v_ang[ang_idx] += step[:n_ang]
        v_mag[pq] += step[n_ang:]
        iterations += 1

    return OperatingPoint(v_mag=v_mag, v_ang=v_ang, converged=True,
                          mismatch_inf_norm=norm, iterations=iterations)


def _angle_block(g, b, v_mag, v_ang, q=None):
    """Full N x N matrix of dP_i/dtheta_j at the given voltages."""
    theta = v_ang[:, None] - v_ang[None, :]
    vv = v_mag[:, None] * v_mag[None, :]
    h = vv * (g * np.sin(theta) - b * np.cos(theta))
    if q is None:
        _, q = _injections(g + 1j * b, v_mag, v_ang)
    np.fill_diagonal(h, -q - b.diagonal() * v_mag ** 2)
    return h


def _newton_jacobian(g, b, v_mag, v_ang, ang_idx, pq):
    """Mismatch Jacobian: angle block over PV+PQ, voltage block over PQ."""
    theta = v_ang[:, None] - v_ang[None, :]
    vv = v_mag[:, None] * v_mag[None, :]
    p, q = _injections(g + 1j * b, v_mag, v_ang)

    h_full = _angle_block(g, b, v_mag, v_ang, q)
    # dP_i/dV_j and dQ_i/dtheta_j, dQ_i/dV_j
    n_mat = v_mag[:, None] * (g * np.cos(theta) + b * np.sin(theta))
    np.fill_diagonal(n_mat, p / v_mag + g.diagonal() * v_mag)
    j_mat = -vv * (g * np.cos(theta) + b * np.sin(theta))
    np.fill_diagonal(j_mat, p - g.diagonal() * v_mag ** 2)
    l_mat = v_mag[:, None] * (g * np.sin(theta) - b * np.cos(theta))
    np.fill_diagonal(l_mat, q / v_mag - b.diagonal() * v_mag)

    top = np.hstack([h_full[np.ix_(ang_idx, ang_idx)],
                     n_mat[np.ix_(ang_idx, pq)]])
    bottom = np.hstack([j_mat[np.ix_(pq, ang_idx)],
                        l_mat[np.ix_(pq, pq)]])
    # Mismatch is (scheduled - computed), so Newton solves J step = mis
    # with J the derivative of the computed injections.
    return np.vstack([top, bottom])


def p_theta_jacobian(case: PowerCase, op: OperatingPoint,
                     ybus: np.ndarray | None = None) -> np.ndarray:
    """Sensitivity of every active injection to every bus angle.

    Returns the full N x N block over all buses (slack included) with
    voltage magnitudes held constant. Rows sum to zero: a uniform angle
    shift moves no power, so the matrix behaves like a Laplacian of the
    operating-point coupling strengths.
    """
    if ybus is None:
        ybus = build_ybus(case)
    if len(op.v_mag) != case.n or len(op.v_ang) != case.n:
        raise ValueError("operating point does not match the case size")
    return _angle_block(ybus.real, ybus.imag, np.asarray(op.v_mag, float),
                        np.asarray(op.v_ang, float))
