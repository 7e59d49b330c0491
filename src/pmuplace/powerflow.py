"""Newton-Raphson AC power flow and the real power / angle sensitivity.

The solver is a plain full-Newton method in polar coordinates: active
mismatch at PV and PQ buses, reactive mismatch at PQ buses, no reactive
limit enforcement. One derivative builder serves the Newton step and
the sensitivity, its dP/dtheta block. It evaluates the derivatives only
at the nonzeros of the admittance matrix and its diagonal, so a Newton
step costs O(nnz) before the dense solve, not O(N^2) trigonometry; the
Newton matrix is scattered from them through index maps built once per
solve. Everything is deterministic; identical inputs give bit-identical
outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cases import PQ, PV, PowerCase
from .errors import NonConvergence

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


def solve_power_flow(case: PowerCase, ybus: np.ndarray,
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> OperatingPoint:
    """Solve the AC power flow on `ybus` with full Newton iterations.

    PV buses hold their file voltage magnitude, the slack holds both
    magnitude and a zero angle. Raises `MissingSlack` without a slack,
    and `NonConvergence` if the mismatch inf-norm is still above `tol`
    after `max_iter` Newton steps, becomes non-finite, or meets a
    singular Newton Jacobian.
    """
    slack = case.slack_index - 1
    types = [bus.bus_type for bus in case.buses]
    pv = np.array([i for i, t in enumerate(types) if t == PV], dtype=int)
    pq = np.array([i for i, t in enumerate(types) if t == PQ], dtype=int)
    ang_idx = np.sort(np.concatenate([pv, pq]))  # unknown angles
    n_ang = len(ang_idx)
    at = _pattern(ybus)
    layout = _newton_layout(at, case.n, ang_idx, pq)

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
        jac = _newton_matrix(
            _derivatives(ybus, at, v_mag, v_ang, p, q), layout)
        try:
            step = np.linalg.solve(jac, mis)
        except np.linalg.LinAlgError:
            raise NonConvergence(iterations, norm) from None
        v_ang = v_ang.copy()
        v_mag = v_mag.copy()
        v_ang[ang_idx] += step[:n_ang]
        v_mag[pq] += step[n_ang:]
        iterations += 1

    return OperatingPoint(v_mag=v_mag, v_ang=v_ang, mismatch_inf_norm=norm,
                          iterations=iterations)


def _pattern(ybus: np.ndarray):
    """Row and column indices, in row-major order, of the nonzeros of
    `ybus` plus its whole diagonal: every entry an injection derivative
    can be nonzero at."""
    return np.nonzero((ybus != 0) | np.eye(len(ybus), dtype=bool))


def _derivatives(ybus: np.ndarray, at, v_mag, v_ang, p, q):
    """Injection derivatives dP/dtheta, dP/dV, dQ/dtheta and dQ/dV at
    the entries `at` (from `_pattern`), where `p`, `q` are the
    injections at the given voltages. Every other entry is zero. The
    formulas are the elementwise ones of the full N x N blocks, so each
    entry has the same bits as there."""
    rows, cols = at
    y = ybus[at]
    g, b = y.real, y.imag
    theta = v_ang[rows] - v_ang[cols]
    vv = v_mag[rows] * v_mag[cols]
    sin, cos = np.sin(theta), np.cos(theta)
    gs_bc = g * sin - b * cos
    gc_bs = g * cos + b * sin
    diag = rows == cols  # one per row, so in bus order
    y_ii = ybus.diagonal()
    h = vv * gs_bc
    h[diag] = -q - y_ii.imag * v_mag ** 2
    n_mat = v_mag[rows] * gc_bs
    n_mat[diag] = p / v_mag + y_ii.real * v_mag
    j_mat = -vv * gc_bs
    j_mat[diag] = p - y_ii.real * v_mag ** 2
    l_mat = v_mag[rows] * gs_bc
    l_mat[diag] = q / v_mag - y_ii.imag * v_mag
    return h, n_mat, j_mat, l_mat


def _newton_layout(at, n: int, ang_idx, pq):
    """Where the four `_derivatives` blocks go in the Newton matrix,
    whose rows are P at `ang_idx` then Q at `pq` and whose columns are
    theta at `ang_idx` then V at `pq`: its size, and per block the
    pattern entries it keeps with their flat indices there."""
    size = len(ang_idx) + len(pq)
    place = np.full((2, n), -1)  # -1: not an unknown of that kind
    place[0, ang_idx] = np.arange(len(ang_idx))
    place[1, pq] = np.arange(len(ang_idx), size)
    rows, cols = at
    blocks = []
    for r in place[:, rows]:
        for c in place[:, cols]:
            keep = np.flatnonzero((r >= 0) & (c >= 0))
            blocks.append((keep, r[keep] * size + c[keep]))
    return size, blocks


def _newton_matrix(derivatives, layout) -> np.ndarray:
    """The square Newton matrix: the `_derivatives` blocks scattered by
    their `_newton_layout` places into zeros."""
    size, blocks = layout
    jac = np.zeros(size * size)
    for values, (keep, flat) in zip(derivatives, blocks):
        jac[flat] = values[keep]
    return jac.reshape(size, size)


def p_theta_jacobian(case: PowerCase, op: OperatingPoint,
                     ybus: np.ndarray) -> np.ndarray:
    """Sensitivity of every active injection to every bus angle on `ybus`.

    Returns the full N x N block over all buses (slack included) with
    voltage magnitudes held constant. Rows sum to zero: a uniform angle
    shift moves no power, so the matrix behaves like a Laplacian of the
    operating-point coupling strengths.
    """
    if len(op.v_mag) != case.n or len(op.v_ang) != case.n:
        raise ValueError("operating point does not match the case size")
    v_mag = np.asarray(op.v_mag, float)
    v_ang = np.asarray(op.v_ang, float)
    p, q = _injections(ybus, v_mag, v_ang)
    at = _pattern(ybus)
    g = np.zeros((case.n, case.n))
    g[at] = _derivatives(ybus, at, v_mag, v_ang, p, q)[0]
    return g
