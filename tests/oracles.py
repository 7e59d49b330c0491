"""Independent reference checks that only the tests read: an exhaustive
cover search, the lexicographically first minimum cover by sequential
fixing on an integer program, a metric-axiom check of distance matrices, the
reconstruction residual of a singular-value decomposition and the
number of distinct branch pairs."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from pmuplace.cases import PowerCase
from pmuplace.cover import CoverInstance, PlacementSolution
from pmuplace.distance import ResistanceDistance
from pmuplace.errors import SolverError
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


def lex_first_cover(inst: CoverInstance) -> tuple[int, ...]:
    """The set-lexicographically first minimum cover (1-based), by
    sequential fixing on the integer program min sum(x), A x >= 1, x
    binary: take the minimum k from `milp`, then for each bus i in index
    order fix x_i = 1 when a k-cover with x_i = 1 and the earlier
    fixings exists, else x_i = 0. The last solution found respects every
    fixing so far, so a bus it holds is fixed to 1 without a solve, and
    once k buses are fixed to 1 the rest are 0."""
    n = inst.n
    covered = LinearConstraint(np.asarray(inst.adjacency.bits, dtype=float),
                               lb=1)
    lo, hi = np.zeros(n), np.ones(n)

    def solve():
        res = milp(np.ones(n), integrality=np.ones(n),
                   bounds=Bounds(lo, hi), constraints=covered)
        assert res.success
        return np.round(res.x)

    x = solve()
    k = x.sum()
    for i in range(n):
        if lo.sum() == k:
            break
        lo[i] = 1
        if not x[i]:
            y = solve()
            if y.sum() == k:
                x = y
            else:
                lo[i] = hi[i] = 0
    return tuple(int(i) + 1 for i in np.flatnonzero(lo))


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
