"""Exact minimum-cover solver for the observability program.

The problem: pick the fewest buses so that every bus is adjacent
(including self-adjacency) to a picked one. One exact search answers
it: `_Engine.exists_cover` decides by branch and bound over bit masks
whether at most `budget` allowed buses cover the uncovered ones, with
classic reductions:

* constraint dominance - a bus whose candidate set contains another
  bus's candidate set is covered for free and drops out;
* candidate dominance - a bus covering a subset of what another covers
  never helps a feasibility question;
* disjoint-candidate-packing lower bound;
* branching on the uncovered bus with the fewest candidates.

`_Engine.covers` builds on it to yield the covers of a given size in
set-lexicographic order: it scans buses by index and takes a bus
whenever the buses after it can still complete a cover. The minimum
count is the smallest feasible budget, the witness is the first cover
yielded and the enumeration is a prefix of the sequence, so the
witness is always the first enumerated optimum.
`brute_force_cover` provides an independent exhaustive oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, NoSolutionWithinK
from .network import BinaryAdjacency

_INF = 10 ** 9


@dataclass(frozen=True)
class CoverInstance:
    adjacency: BinaryAdjacency

    @property
    def n(self) -> int:
        return self.adjacency.n

    def __post_init__(self):
        bits = self.adjacency.bits
        if not np.all(np.diag(bits) == 1):
            raise ValueError("cover instance needs a unit diagonal "
                             "(every bus must be able to cover itself)")


@dataclass(frozen=True)
class PlacementSolution:
    """A feasible monitor set; `nodes` are sorted internal bus indices."""

    x: tuple[int, ...]
    count: int
    nodes: tuple[int, ...]


@dataclass(frozen=True)
class Optima:
    """All optimal solutions found, in set-lexicographic order."""

    solutions: tuple[PlacementSolution, ...]
    truncated: bool

    def __iter__(self):
        return iter(self.solutions)

    def __len__(self):
        return len(self.solutions)


def _solution(n: int, members: set[int]) -> PlacementSolution:
    nodes = tuple(sorted(i + 1 for i in members))
    x = tuple(1 if i in members else 0 for i in range(n))
    return PlacementSolution(x=x, count=len(nodes), nodes=nodes)


class _Engine:
    """Bitmask search shared by the count, the witness and the
    enumeration."""

    def __init__(self, bits: np.ndarray):
        self.n = int(bits.shape[0])
        b = np.asarray(bits, dtype=bool)
        # Plain-int shifts: numpy scalars would overflow past 63 bits.
        self.rows = [sum(1 << int(j) for j in np.nonzero(b[i])[0])
                     for i in range(self.n)]
        self.cols = [sum(1 << int(i) for i in np.nonzero(b[:, j])[0])
                     for j in range(self.n)]
        self.full = (1 << self.n) - 1

    @staticmethod
    def _bits_of(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def _reduce_rows(self, uncovered: int, allowed: int) -> int:
        """Drop constraints implied by another constraint."""
        live = [(i, self.rows[i] & allowed) for i in self._bits_of(uncovered)]
        dropped = 0
        for i, cand_i in live:
            for j, cand_j in live:
                if i == j or (dropped >> j) & 1:
                    continue
                # candidates of i inside candidates of j: covering i
                # automatically covers j
                if cand_i and cand_i | cand_j == cand_j and (
                        cand_i != cand_j or i < j):
                    dropped |= 1 << j
        return uncovered & ~dropped

    def _reduce_cols(self, uncovered: int, allowed: int) -> int:
        """Drop candidates dominated by another candidate."""
        live = [(j, self.cols[j] & uncovered) for j in self._bits_of(allowed)]
        banned = 0
        for j, cov_j in live:
            for k, cov_k in live:
                if j == k or (banned >> k) & 1:
                    continue
                if cov_j | cov_k == cov_k and (cov_j != cov_k or k < j):
                    banned |= 1 << j
                    break
        return allowed & ~banned

    def lower_bound(self, uncovered: int, allowed: int) -> int:
        """Uncovered buses with pairwise-disjoint candidate sets each
        need their own pick."""
        order = sorted(self._bits_of(uncovered),
                       key=lambda i: ((self.rows[i] & allowed).bit_count(), i))
        used = 0
        bound = 0
        for i in order:
            cand = self.rows[i] & allowed
            if cand == 0:
                return _INF
            if cand & used == 0:
                bound += 1
                used |= cand
        return bound

    def _branch_bus(self, uncovered: int, allowed: int) -> int:
        best_i, best_k = -1, _INF + 1
        for i in self._bits_of(uncovered):
            k = (self.rows[i] & allowed).bit_count()
            if k < best_k:
                best_i, best_k = i, k
        return best_i

    def exists_cover(self, uncovered: int, allowed: int, budget: int) -> bool:
        """Whether some selection of at most `budget` allowed buses
        covers everything."""
        if uncovered == 0:
            return True
        if budget <= 0:
            return False
        uncovered = self._reduce_rows(uncovered, allowed)
        allowed = self._reduce_cols(uncovered, allowed)
        if self.lower_bound(uncovered, allowed) > budget:
            return False
        pivot = self._branch_bus(uncovered, allowed)
        remaining = allowed
        for j in self._bits_of(self.rows[pivot] & allowed):
            remaining &= ~(1 << j)
            if self.exists_cover(uncovered & ~self.cols[j], remaining,
                                 budget - 1):
                return True
        return False

    def covers(self, k: int):
        """Yield every cover of exactly `k` buses as a tuple of indices,
        in set-lexicographic order."""

        def completes(uncovered: int, allowed: int, budget: int) -> bool:
            # A cover of at most `budget` allowed buses pads to exactly
            # `budget` when enough allowed buses remain.
            return (allowed.bit_count() >= budget
                    and self.exists_cover(uncovered, allowed, budget))

        def extend(chosen: tuple[int, ...], uncovered: int, allowed: int):
            budget = k - len(chosen)
            if budget == 0:
                yield chosen
                return
            for i in self._bits_of(allowed):
                allowed &= ~(1 << i)
                rest = uncovered & ~self.cols[i]
                if completes(rest, allowed, budget - 1):
                    yield from extend(chosen + (i,), rest, allowed)
                    # Go on past bus i only while covers without it
                    # remain; when the probe for i fails, they remain
                    # whenever any cover does, so that case needs none.
                    if not completes(uncovered, allowed, budget):
                        return

        yield from extend((), self.full, self.full)


def optimal_count(inst: CoverInstance) -> int:
    """Size of the minimum cover: the smallest budget, counting up from
    the packing lower bound, for which a cover exists."""
    eng = _Engine(inst.adjacency.bits)
    k = eng.lower_bound(eng.full, eng.full)
    while not eng.exists_cover(eng.full, eng.full, k):
        k += 1
    return k


def solve_cover(inst: CoverInstance) -> PlacementSolution:
    """Provably optimal cover; among optima, the set-lexicographically
    smallest (preferring low bus indices) is returned."""
    eng = _Engine(inst.adjacency.bits)
    first = next(eng.covers(optimal_count(inst)), None)
    # A cover of the optimal size always exists; none would be a
    # solver bug.
    if first is None:
        raise Infeasible("internal error: optimal witness extraction failed")
    sol = _solution(eng.n, set(first))
    _check_feasible(inst, sol)
    return sol


def _check_feasible(inst: CoverInstance, sol: PlacementSolution):
    cover = inst.adjacency.bits @ np.array(sol.x, dtype=np.int64)
    if not np.all(cover >= 1):
        raise Infeasible("solution leaves buses unobserved")


def enumerate_optima(inst: CoverInstance, cap: int) -> Optima:
    """All optimal covers, set-lexicographically ordered, up to `cap`;
    `truncated` says that more exist."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    eng = _Engine(inst.adjacency.bits)
    covers = eng.covers(optimal_count(inst))
    found = tuple(_solution(eng.n, set(c))
                  for c in itertools.islice(covers, cap))
    return Optima(solutions=found,
                  truncated=next(covers, None) is not None)


def brute_force_cover(inst: CoverInstance, k_max: int) -> PlacementSolution:
    """Exhaustive oracle: try every subset of size 1..k_max in
    lexicographic order and return the first feasible one."""
    bits = np.asarray(inst.adjacency.bits, dtype=bool)
    n = inst.n
    for k in range(1, min(k_max, n) + 1):
        for combo in itertools.combinations(range(n), k):
            if bits[:, combo].any(axis=1).all():
                return _solution(n, set(combo))
    raise NoSolutionWithinK(f"no cover of size <= {k_max} exists")
