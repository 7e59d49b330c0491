"""Independent reference checks that only the tests read: an exhaustive
cover search, the lexicographically first minimum cover by sequential
fixing on an integer program, a dense power-flow Newton method on full
N x N derivative blocks, a metric-axiom check of distance matrices, the
reconstruction residual of a singular-value decomposition, the
number of distinct branch pairs and the buses a PMU set leaves
unobserved under the linear measurement model."""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from pmuplace.cases import PQ, PV, SLACK, PowerCase
from pmuplace.cover import CoverInstance, PlacementSolution
from pmuplace.distance import ResistanceDistance
from pmuplace.errors import NonConvergence, SolverError
from pmuplace.powerflow import OperatingPoint
from pmuplace.spectral import SingularDecomposition


class NoSolutionWithinK(SolverError):
    """Exhaustive search found no cover within the size budget."""


def brute_force_cover(inst: CoverInstance, k_max: int) -> PlacementSolution:
    """Exhaustive oracle: try every subset of size 1..k_max in
    lexicographic order and return the first feasible one."""
    bits = np.asarray(inst.adjacency.bits, dtype=bool)
    n = inst.n
    for k in range(1, min(k_max, n) + 1):
        for combo in itertools.combinations(range(n), k):
            if bits[:, combo].any(axis=1).all():
                return PlacementSolution(tuple(i + 1 for i in combo))
    raise NoSolutionWithinK(f"no cover of size <= {k_max} exists")


def lex_first_cover(inst: CoverInstance,
                    exclude=()) -> tuple[int, ...] | None:
    """The set-lexicographically first minimum cover (1-based), by
    sequential fixing on the integer program min sum(x), A x >= 1, x
    binary: take the minimum k from `milp`, then for each bus i in index
    order fix x_i = 1 when a k-cover with x_i = 1 and the earlier
    fixings exists, else x_i = 0. The last solution found respects every
    fixing so far, so a bus it holds is fixed to 1 without a solve, and
    once k buses are fixed to 1 the rest are 0.

    `exclude` lists minimum covers (1-based) to cut off, each S by the
    no-good constraint sum of x_i over S <= k - 1, with sum(x) <= k
    holding the program to their size k. The first minimum cover not
    among them is returned, or None when the program is infeasible, as
    it is once every minimum cover is cut off."""
    n = inst.n
    constraints = [LinearConstraint(
        np.asarray(inst.adjacency.bits, dtype=float), lb=1)]
    if exclude:
        k = len(exclude[0])
        cuts = np.zeros((len(exclude), n))
        for row, cover in zip(cuts, exclude):
            row[[i - 1 for i in cover]] = 1
        constraints += [LinearConstraint(cuts, ub=k - 1),
                        LinearConstraint(np.ones((1, n)), ub=k)]
    lo, hi = np.zeros(n), np.ones(n)

    def solve():
        res = milp(np.ones(n), integrality=np.ones(n),
                   bounds=Bounds(lo, hi), constraints=constraints)
        if res.status == 2:  # infeasible
            return None
        assert res.success
        return np.round(res.x)

    x = solve()
    if x is None:
        return None
    k = x.sum()
    for i in range(n):
        if lo.sum() == k:
            break
        lo[i] = 1
        if not x[i]:
            y = solve()
            if y is not None and y.sum() == k:
                x = y
            else:
                lo[i] = hi[i] = 0
    return tuple(int(i) + 1 for i in np.flatnonzero(lo))


def injections(ybus: np.ndarray, v_mag, v_ang):
    """Real and reactive nodal injections S = V . conj(Y V), with the
    library's operation order, so that the dense Newton method and
    `solve_power_flow` can agree bit for bit."""
    v = v_mag * np.exp(1j * v_ang)
    s = v * np.conj(ybus @ v)
    return s.real, s.imag


def dense_derivatives(ybus: np.ndarray, v_mag, v_ang, p, q):
    """Injection derivatives [[dP/dtheta, dP/dV], [dQ/dtheta, dQ/dV]] as
    full N x N blocks at the given voltages, where `p`, `q` are the
    injections at the same voltages."""
    g, b = ybus.real, ybus.imag
    theta = v_ang[:, None] - v_ang[None, :]
    vv = v_mag[:, None] * v_mag[None, :]
    sin, cos = np.sin(theta), np.cos(theta)
    gs_bc = g * sin - b * cos
    gc_bs = g * cos + b * sin
    h = vv * gs_bc
    np.fill_diagonal(h, -q - b.diagonal() * v_mag ** 2)
    n_mat = v_mag[:, None] * gc_bs
    np.fill_diagonal(n_mat, p / v_mag + g.diagonal() * v_mag)
    j_mat = -vv * gc_bs
    np.fill_diagonal(j_mat, p - g.diagonal() * v_mag ** 2)
    l_mat = v_mag[:, None] * gs_bc
    np.fill_diagonal(l_mat, q / v_mag - b.diagonal() * v_mag)
    return [[h, n_mat], [j_mat, l_mat]]


def newton_unknowns(case: PowerCase):
    """(angle buses, PQ buses), 0-based: theta and P at PV and PQ
    buses in index order, V and Q at PQ buses."""
    types = [bus.bus_type for bus in case.buses]
    pv = np.array([i for i, t in enumerate(types) if t == PV], dtype=int)
    pq = np.array([i for i, t in enumerate(types) if t == PQ], dtype=int)
    return np.sort(np.concatenate([pv, pq])), pq


def dense_newton_matrix(ybus: np.ndarray, unknowns, v_mag, v_ang, p, q):
    """The Newton matrix cut from the dense blocks by `np.ix_` and
    joined by `np.block`."""
    blocks = dense_derivatives(ybus, v_mag, v_ang, p, q)
    return np.block(
        [[blk[np.ix_(rows, cols)] for blk, cols in zip(row, unknowns)]
         for row, rows in zip(blocks, unknowns)])


def dense_power_flow(case: PowerCase, ybus: np.ndarray, tol: float = 1e-8,
                     max_iter: int = 50) -> OperatingPoint:
    """Full Newton power flow on the dense Newton matrix, from the same
    start and with the same stopping rule as `solve_power_flow`."""
    ang_idx, pq = unknowns = newton_unknowns(case)
    n_ang = len(ang_idx)
    fixed = [i for i, bus in enumerate(case.buses)
             if bus.bus_type in (PV, SLACK)]
    p_sched = np.array([bus.p_gen - bus.p_load for bus in case.buses])
    q_sched = np.array([bus.q_gen - bus.q_load for bus in case.buses])
    v_mag = np.ones(case.n)
    for i in fixed:
        v_mag[i] = case.buses[i].v_mag
    v_ang = np.zeros(case.n)
    iterations = 0
    while True:
        p, q = injections(ybus, v_mag, v_ang)
        mis = np.concatenate([p_sched[ang_idx] - p[ang_idx],
                              q_sched[pq] - q[pq]])
        norm = float(np.abs(mis).max()) if mis.size else 0.0
        if not np.isfinite(norm):
            raise NonConvergence(iterations, norm)
        if norm <= tol:
            break
        if iterations >= max_iter:
            raise NonConvergence(iterations, norm)
        step = np.linalg.solve(
            dense_newton_matrix(ybus, unknowns, v_mag, v_ang, p, q), mis)
        v_ang = v_ang.copy()
        v_mag = v_mag.copy()
        v_ang[ang_idx] += step[:n_ang]
        v_mag[pq] += step[n_ang:]
        iterations += 1
    return OperatingPoint(v_mag=v_mag, v_ang=v_ang, iterations=iterations)


def dense_p_theta_jacobian(ybus: np.ndarray, op: OperatingPoint):
    """dP/dtheta over all buses, the full dense block."""
    p, q = injections(ybus, op.v_mag, op.v_ang)
    return dense_derivatives(ybus, op.v_mag, op.v_ang, p, q)[0][0]


@dataclass(frozen=True)
class MetricReport:
    symmetry_violations: list
    negativity_violations: list
    diagonal_violations: list
    triangle_violations: list

    @property
    def ok(self) -> bool:
        return not (self.symmetry_violations or self.negativity_violations
                    or self.diagonal_violations or self.triangle_violations)


def verify_metric(dist: ResistanceDistance, tol: float = 1e-9) -> MetricReport:
    """Check symmetry, nonnegativity, zero diagonal and the triangle
    inequality; returns the violations (1-based indices) instead of
    raising, so callers can report them."""
    e = dist.e
    n = dist.n
    sym = [(int(i) + 1, int(j) + 1)
           for i, j in zip(*np.nonzero(np.abs(e - e.T) > tol)) if i < j]
    neg = [(int(i) + 1, int(j) + 1)
           for i, j in zip(*np.nonzero(e < -tol)) if i <= j]
    diag = [int(i) + 1 for i in np.nonzero(np.abs(np.diag(e)) > tol)[0]]

    triangle = []
    for k in range(n):
        slack = e[:, k, None] + e[None, k, :] - e
        bad = np.nonzero(slack < -tol)
        for i, j in zip(*bad):
            if i < j:
                triangle.append((int(i) + 1, int(k) + 1, int(j) + 1))
    return MetricReport(symmetry_violations=sym, negativity_violations=neg,
                        diagonal_violations=diag,
                        triangle_violations=sorted(set(triangle)))


def reconstruction_error(d: SingularDecomposition, matrix: np.ndarray) -> float:
    """Relative Frobenius residual of U diag(sigma) V* against `matrix`."""
    rebuilt = (d.u * d.sigma) @ d.v.conj().T
    denom = np.linalg.norm(matrix)
    return float(np.linalg.norm(rebuilt - matrix) / (denom or 1.0))


def distinct_pairs(case: PowerCase) -> int:
    """Number of distinct connected bus pairs (parallel circuits count once)."""
    return len({frozenset((br.from_bus, br.to_bus)) for br in case.branches})


def unobserved_count(case: PowerCase, pmu_buses) -> int:
    """N - rank(H) for the PMUs at `pmu_buses` (internal indices). H has
    a row e_i for each PMU bus's voltage and, for each branch end at a
    PMU bus, a row of that end's current in the two bus voltages: the
    pi-model coefficients, tap and phase shift on the from side. Read
    from the branch records alone, not from any adjacency or cover."""
    n = case.n
    pmus = set(pmu_buses)
    rows = list(np.eye(n)[[k - 1 for k in pmus]])
    for br in case.branches:
        y_series = 1.0 / complex(br.r, br.x)
        y_shunt = 0.5j * br.b_charging
        t = br.tap_ratio * cmath.exp(1j * math.radians(br.shift_deg))
        ends = [(br.from_bus, (y_series + y_shunt) / abs(t) ** 2,
                 br.to_bus, -y_series / t.conjugate()),
                (br.to_bus, y_series + y_shunt, br.from_bus, -y_series / t)]
        for here, own, there, mutual in ends:
            if here in pmus:
                row = np.zeros(n, dtype=complex)
                row[here - 1] += own
                row[there - 1] += mutual
                rows.append(row / np.abs(row).max())
    return n - int(np.linalg.matrix_rank(np.array(rows)))
