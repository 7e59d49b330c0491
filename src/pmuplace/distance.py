"""Resistance distances from a Laplacian-like conductance matrix.

Grounding one node makes the conductance matrix invertible; diagonal
entries of that inverse are the voltage changes from unit current
injections, and pairwise distances follow from the usual four-term
combination. The closest pairs then define a binary "electrical"
adjacency with as many off-diagonal links as the network has branches,
or every pair when parallel circuits make the branches outnumber them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SingularSubmatrix, TieAtThreshold
from .network import BinaryAdjacency

# Relative residual above which a grounded matrix is treated as singular.
_SINGULAR_RTOL = 1e-8


@dataclass(frozen=True)
class ResistanceDistance:
    """Symmetric nonnegative distance matrix with a zero diagonal.

    Entries are per-unit resistances (radians per per-unit power when
    the conductances come from the power/angle sensitivity).
    """

    e: np.ndarray

    @property
    def n(self) -> int:
        return self.e.shape[0]


def grounded_inverse(g: np.ndarray, r: int) -> np.ndarray:
    """Inverse of `g` with node `r` (1-based) grounded: the inverse of
    the matrix without row and column r, at full size with a zero row
    and column at r.

    Raises `SingularSubmatrix` when the reduced matrix is not
    invertible to working precision. A case's branch graph is
    connected, but the conductances need not be: an angle sensitivity
    joins no bus whose every branch carries no susceptance (zero
    reactance, at the flat point).
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    if g.shape != (n, n):
        raise ValueError("conductance matrix must be square")
    if not 1 <= r <= n:
        raise ValueError(f"reference node {r} outside 1..{n}")
    others = np.arange(n) != r - 1
    kept = np.ix_(others, others)
    sub = g[kept]
    try:
        inv = np.linalg.inv(sub)
    except np.linalg.LinAlgError as exc:
        raise SingularSubmatrix(
            f"grounded matrix at node {r} is singular: {exc}") from exc
    residual = np.abs(sub @ inv - np.eye(n - 1)).max()
    scale = max(1.0, float(np.abs(sub).max()))
    if not np.isfinite(residual) or residual > _SINGULAR_RTOL * scale * (n - 1):
        raise SingularSubmatrix(
            f"grounded matrix at node {r} is numerically singular "
            f"(inverse residual {residual:.3e})")
    full = np.zeros((n, n))
    full[kept] = inv
    return full


def _laplacian_part(g: np.ndarray) -> np.ndarray:
    """Symmetric zero-row-sum projection of a conductance matrix.

    Resistance distance is defined on a symmetric Laplacian, so this
    projection is the distance's definition, not a repair of its input.
    Away from a flat voltage profile the power/angle sensitivities are
    not symmetric (the skew part carries the loss gradients) and their
    row sums differ; the projection drops those gradients by design. The
    off-diagonal part is averaged with its transpose and the diagonal
    rebuilt as minus the row sums, which keeps the distance matrix a
    metric and independent of the grounding node.
    """
    g = np.asarray(g, dtype=float)
    lap = 0.5 * (g + g.T)
    np.fill_diagonal(lap, 0.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def resistance_matrix(g: np.ndarray, r: int) -> ResistanceDistance:
    """Full pairwise resistance-distance matrix from conductances `g`.

    `g` is first projected onto its Laplacian part (see
    `_laplacian_part`). With G the grounded inverse and γ its diagonal,
    entry (i, j) is γᵢ + γⱼ − Gᵢⱼ − Gⱼᵢ; the zero row and column of G
    at the reference node make its distances the γⱼ themselves.
    Conductances so large or small that a sum overflows the float range
    are `SingularSubmatrix` too.
    """
    with np.errstate(all="ignore"):  # non-finite values are refused
        inv = grounded_inverse(_laplacian_part(g), r)
        gamma = np.diag(inv)
        e = gamma[None, :] + gamma[:, None] - inv - inv.T
        e = 0.5 * (e + e.T)
    if not np.isfinite(e).all():
        raise SingularSubmatrix(f"grounded matrix at node {r} gives "
                                "distances beyond the float range")
    np.fill_diagonal(e, 0.0)
    return ResistanceDistance(e)


def electrical_adjacency(dist: ResistanceDistance, m: int) -> BinaryAdjacency:
    """Binary adjacency of the `m` electrically closest bus pairs.

    The m smallest strictly-off-diagonal distances become symmetric
    links; the diagonal is set to one separately (a monitor always
    observes its own bus). When m reaches the number of bus pairs, as
    parallel circuits can make it, every pair is linked. Ties
    straddling the cutoff are resolved by (i, j) index order and
    reported as a warning.

    The pairs are those of a stable sort by distance, found in O(P)
    for P pairs: every pair below the m-th smallest distance, then the
    lowest-index pairs at it. The warning names the last pair taken,
    whose value (sign of zero included) is the stable sort's m-th.
    """
    n = dist.n
    if m < 1:
        raise ValueError(f"branch count {m} must be at least 1")
    max_pairs = n * (n - 1) // 2
    m = min(m, max_pairs)
    iu, ju = np.triu_indices(n, k=1)
    chosen = slice(None)  # every pair
    if m < max_pairs:
        values = dist.e[iu, ju]
        kth = np.partition(values, m - 1)[m - 1]
        below = np.flatnonzero(values < kth)
        ties = np.flatnonzero(values == kth)
        chosen = np.concatenate([below, ties[:m - below.size]])
        if below.size + ties.size > m:
            warnings.warn(
                f"distance threshold ties at the {m}-th smallest entry "
                f"({float(values[chosen[-1]])!r}); keeping index order",
                TieAtThreshold, stacklevel=2)
    bits = np.eye(n, dtype=np.int8)
    bits[iu[chosen], ju[chosen]] = 1
    bits[ju[chosen], iu[chosen]] = 1
    return BinaryAdjacency(bits)
