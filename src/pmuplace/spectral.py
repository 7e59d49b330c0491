"""Singular-value analysis of network matrices and bus assignment.

The placement rule: decompose the chosen network matrix, rank the left
singular vectors by the magnitude of the singular-value-scaled columns,
then walk the ranked vectors assigning each to the bus where it has the
largest absolute entry. A bus can host only one monitor, so later
(weaker) vectors fall through to their next-largest entry; the fallback
recurses to arbitrary depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError


@dataclass(frozen=True)
class SingularDecomposition:
    """Factors of S = U diag(sigma) V*; sigma is nonincreasing."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def n(self) -> int:
        return len(self.sigma)


@dataclass(frozen=True)
class Assignment:
    """One placed monitor: singular vector `n` (1-based, strongest
    first) put on `bus`, using that vector's `rank`-th largest entry.
    `intended_bus` is where the vector would have gone with no
    conflicts (its largest-entry bus)."""

    vector_index: int
    magnitude: float
    bus: int
    rank: int
    intended_bus: int


@dataclass(frozen=True)
class CouplingRanking:
    selected: tuple[Assignment, ...]

    @property
    def buses(self) -> tuple[int, ...]:
        return tuple(sorted(a.bus for a in self.selected))

    @property
    def conflicts(self) -> tuple[Assignment, ...]:
        return tuple(a for a in self.selected if a.rank > 1)


def compute_svd(matrix: np.ndarray) -> SingularDecomposition:
    """Full SVD of a square matrix (complex inputs use conjugate-
    transpose semantics). Non-finite entries, which extreme branch
    values can give, and kernel convergence failures surface as
    `DecompositionError`."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(matrix).all():
        raise DecompositionError("matrix has non-finite entries")
    try:
        u, sigma, vh = np.linalg.svd(matrix)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD failed to converge: {exc}") from exc
    return SingularDecomposition(u=u, sigma=sigma, v=vh.conj().T)


def rank_vectors(d: SingularDecomposition, p: int) -> list[tuple[int, float]]:
    """Top `p` singular vectors, strongest first: the first `p`, as
    `sigma` is nonincreasing, so equal singular values keep index order.
    Each comes with its scaled-column magnitude ||sigma_n u_n||.

    Unit-norm columns make the magnitude equal the singular value; the
    equality is asserted rather than assumed. Ranking by the singular
    value keeps the rounding of ||u_n|| from reordering equal ones.
    """
    if not 1 <= p <= d.n:
        raise ValueError(f"budget {p} outside 1..{d.n}")
    magnitudes = d.sigma * np.linalg.norm(d.u, axis=0)
    if not np.allclose(magnitudes, d.sigma, rtol=1e-10, atol=1e-12):
        raise AssertionError("singular-vector columns are not unit norm")
    return [(n + 1, float(magnitudes[n])) for n in range(p)]


def assign_buses(d: SingularDecomposition,
                 ranked: list[tuple[int, float]]) -> CouplingRanking:
    """Place one monitor per entry of `ranked`, walking it
    strongest-first.

    Every decision uses absolute entry values, so singular-vector sign
    indeterminacy cannot change the outcome. Within a vector, equal
    magnitudes resolve to the lower bus index. Terminates with
    `len(ranked)` distinct buses whenever that is at most N.
    """
    taken: set[int] = set()
    selected: list[Assignment] = []
    for vector_index, magnitude in ranked:
        column = np.abs(d.u[:, vector_index - 1])
        order = np.argsort(-column, kind="stable")
        intended = int(order[0]) + 1
        for rank, entry in enumerate(order, start=1):
            bus = int(entry) + 1
            if bus not in taken:
                taken.add(bus)
                selected.append(Assignment(vector_index=vector_index,
                                           magnitude=magnitude,
                                           bus=bus, rank=rank,
                                           intended_bus=intended))
                break
    return CouplingRanking(selected=tuple(selected))
