"""Newton-Raphson AC power flow and the real power / angle sensitivity.

The solver is a plain full-Newton method in polar coordinates: active
mismatch at PV and PQ buses, reactive mismatch at PQ buses, no reactive
limit enforcement. One derivative builder serves the Newton step and
the sensitivity, its dP/dtheta block. Everything is deterministic;
identical inputs give bit-identical outputs.
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
    mismatch_inf_norm: float
    iterations: int = 0


def flat_point(case: PowerCase) -> OperatingPoint:
    """All magnitudes 1.0, all angles zero."""
    n = case.n
    return OperatingPoint(v_mag=np.ones(n), v_ang=np.zeros(n),
                          mismatch_inf_norm=0.0)


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

    types = [bus.bus_type for bus in case.buses]
    pv = np.array([i for i, t in enumerate(types) if t == PV], dtype=int)
    pq = np.array([i for i, t in enumerate(types) if t == PQ], dtype=int)
    slack = next(i for i, t in enumerate(types) if t == SLACK)
    ang_idx = np.sort(np.concatenate([pv, pq]))  # unknown angles
    n_ang = len(ang_idx)
    unknowns = (ang_idx, pq)  # P and theta at PV+PQ, Q and V at PQ

    p_sched = np.array([bus.p_gen - bus.p_load for bus in case.buses])
    q_sched = np.array([bus.q_gen - bus.q_load for bus in case.buses])

    v_mag = np.ones(case.n)
    for i in (*pv, slack):
        v_mag[i] = case.buses[i].v_mag
    v_ang = np.zeros(case.n)

    iterations = 0
    while True:
        p, q = _injections(ybus, v_mag, v_ang)
        mis = np.concatenate([p_sched[ang_idx] - p[ang_idx],
                              q_sched[pq] - q[pq]])
        norm = float(np.abs(mis).max()) if mis.size else 0.0
        # A NaN mismatch compares false against any tolerance, so test
        # for finiteness before convergence.
        if not np.isfinite(norm):
            raise NonConvergence(iterations, norm)
        if norm <= tol:
            break
        if iterations >= max_iter:
            raise NonConvergence(iterations, norm)
        # Mismatch is (scheduled - computed), so Newton solves J step = mis
        # with J the derivative of the computed injections.
        blocks = _derivatives(ybus, v_mag, v_ang, p, q)
        try:
            step = np.linalg.solve(np.block(
                [[blk[np.ix_(rows, cols)] for blk, cols in zip(row, unknowns)]
                 for row, rows in zip(blocks, unknowns)]), mis)
        except np.linalg.LinAlgError:
            raise NonConvergence(iterations, norm) from None
        v_ang = v_ang.copy()
        v_mag = v_mag.copy()
        v_ang[ang_idx] += step[:n_ang]
        v_mag[pq] += step[n_ang:]
        iterations += 1

    return OperatingPoint(v_mag=v_mag, v_ang=v_ang, mismatch_inf_norm=norm,
                          iterations=iterations)


def _derivatives(ybus: np.ndarray, v_mag, v_ang, p, q):
    """Injection derivatives [[dP/dtheta, dP/dV], [dQ/dtheta, dQ/dV]] as
    full N x N blocks at the given voltages, where `p`, `q` are the
    injections at the same voltages."""
    g, b = ybus.real, ybus.imag
    theta = v_ang[:, None] - v_ang[None, :]
    vv = v_mag[:, None] * v_mag[None, :]
    sin, cos = np.sin(theta), np.cos(theta)
    gs_bc = g * sin - b * cos
    gc_bs = g * cos + b * sin
    del theta, sin, cos  # three fewer N x N arrays alive below
    h = vv * gs_bc
    np.fill_diagonal(h, -q - b.diagonal() * v_mag ** 2)
    n_mat = v_mag[:, None] * gc_bs
    np.fill_diagonal(n_mat, p / v_mag + g.diagonal() * v_mag)
    j_mat = -vv * gc_bs
    np.fill_diagonal(j_mat, p - g.diagonal() * v_mag ** 2)
    l_mat = v_mag[:, None] * gs_bc
    np.fill_diagonal(l_mat, q / v_mag - b.diagonal() * v_mag)
    return [[h, n_mat], [j_mat, l_mat]]


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
    v_mag = np.asarray(op.v_mag, float)
    v_ang = np.asarray(op.v_ang, float)
    p, q = _injections(ybus, v_mag, v_ang)
    return _derivatives(ybus, v_mag, v_ang, p, q)[0][0]
