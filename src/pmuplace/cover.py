"""Exact minimum-cover solver for the observability program.

The problem: pick the fewest buses so that every bus is adjacent
(including self-adjacency) to a picked one. One exact search answers
it: `CoverInstance.exists_cover` decides by branch and bound over bit
masks whether at most `budget` allowed buses cover the uncovered ones.
At each node it applies

* constraint dominance - a bus whose candidate set contains another
  bus's candidate set is covered for free and drops out;
* candidate dominance - a bus covering a subset of what another covers
  never helps a feasibility question;

both local: only a bus sharing the lowest candidate of a bus, or a
candidate covering the lowest bus of a candidate, can dominate it, so
only those pairs are compared. The uncovered buses left then split
into components, groups linked by shared allowed candidates. Groups
with disjoint candidates are independent, so the node is feasible
exactly when the group minima sum to at most `budget`; each group's
minimum is found by raising its budget from its packing bound while
the shared slack lasts. A single group is decided by the
disjoint-candidate-packing lower bound and by branching on the first
bus of the packing order, the one with the fewest candidates. Every
decision is memoised per `(uncovered, allowed)` as the largest budget
proven infeasible and the smallest proven feasible, so a later probe
of the same residual group, as the witness scan makes again and
again, costs one lookup.

`CoverInstance.covers` builds on it to yield the minimum covers of a
residual in set-lexicographic order; its budget is always the
residual's exact minimum, so no cover is ever padded with a useless
bus. It drops implied constraints and splits the rest into the same
groups. Every optimum then uses exactly each group's minimum, and the
covers are the unions of one minimum cover per group. Their order
follows from the groups having disjoint candidates: for same-size sets
S < T exactly when min(S ^ T) lies in S, and that bus lies in one
group, so the union of the groups' first covers is the first cover and
raising one group's cover never lowers the union. A heap over index
tuples into the groups' lazily drawn sequences merges them. A single
group is scanned by bus index: bus i is taken when the buses after it
complete a cover of the rest, and the scan goes past i only while
covers without i remain. The minimum count is the smallest feasible
budget, the witness is the first cover yielded and the enumeration is
a prefix of the sequence, so the witness is always the first
enumerated optimum. The count, the witness and the enumeration of
one `CoverInstance` share its memo.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible
from .network import BinaryAdjacency

_INF = 10 ** 9


@dataclass(frozen=True)
class PlacementSolution:
    """A feasible monitor set; `nodes` are sorted internal bus indices."""

    nodes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class Optima:
    """All optimal solutions found, in set-lexicographic order."""

    solutions: tuple[PlacementSolution, ...]
    truncated: bool

    def __iter__(self):
        return iter(self.solutions)

    def __len__(self):
        return len(self.solutions)


class CoverInstance:
    """The cover problem on a bus adjacency and its bitmask search; the
    count, the witness and the enumeration share the instance's memo."""

    def __init__(self, adjacency: BinaryAdjacency):
        if not np.all(np.diag(adjacency.bits) == 1):
            raise ValueError("cover instance needs a unit diagonal "
                             "(every bus must be able to cover itself)")
        self.adjacency = adjacency
        self.n = adjacency.n
        b = np.asarray(adjacency.bits, dtype=bool)
        # Plain-int shifts: numpy scalars would overflow past 63 bits.
        self.rows = [sum(1 << int(j) for j in np.nonzero(b[i])[0])
                     for i in range(self.n)]
        self.cols = [sum(1 << int(i) for i in np.nonzero(b[:, j])[0])
                     for j in range(self.n)]
        self.full = (1 << self.n) - 1
        # (uncovered, allowed) -> (lo, hi): budgets below lo are proven
        # infeasible, budgets from hi on feasible.
        self.memo: dict[tuple[int, int], tuple[int, int]] = {}

    @staticmethod
    def _bits_of(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def _reduce_rows(self, uncovered: int, allowed: int) -> int:
        """Drop constraints implied by another constraint."""
        rows, cols = self.rows, self.cols
        dropped = 0
        for i in self._bits_of(uncovered):
            cand_i = rows[i] & allowed
            if not cand_i:
                continue
            # Only a bus that shares i's lowest candidate can have a
            # candidate set containing i's.
            low = (cand_i & -cand_i).bit_length() - 1
            for j in self._bits_of(cols[low] & uncovered & ~dropped
                                   & ~(1 << i)):
                cand_j = rows[j] & allowed
                # candidates of i inside candidates of j: covering i
                # automatically covers j
                if cand_i | cand_j == cand_j and (cand_i != cand_j or i < j):
                    dropped |= 1 << j
        return uncovered & ~dropped

    def _reduce_cols(self, uncovered: int, allowed: int) -> int:
        """Drop candidates dominated by another candidate."""
        rows, cols = self.rows, self.cols
        banned = 0
        for j in self._bits_of(allowed):
            cov_j = cols[j] & uncovered
            # Only a candidate covering j's lowest bus can cover a
            # superset of j's buses; any candidate dominates one that
            # covers nothing.
            rivals = (rows[(cov_j & -cov_j).bit_length() - 1] & allowed
                      if cov_j else allowed)
            for k in self._bits_of(rivals & ~banned & ~(1 << j)):
                cov_k = cols[k] & uncovered
                if cov_j | cov_k == cov_k and (cov_j != cov_k or k < j):
                    banned |= 1 << j
                    break
        return allowed & ~banned

    def _components(self, uncovered: int, allowed: int):
        """Split the uncovered buses into groups linked by shared
        allowed candidates, as (buses, candidates) mask pairs in order
        of their lowest bus."""
        groups = []
        rest = uncovered
        while rest:
            group = frontier = rest & -rest
            cand = 0
            while frontier:
                new_cand = 0
                for i in self._bits_of(frontier):
                    new_cand |= self.rows[i]
                new_cand &= allowed & ~cand
                cand |= new_cand
                reached = 0
                for j in self._bits_of(new_cand):
                    reached |= self.cols[j]
                frontier = reached & rest & ~group
                group |= frontier
            groups.append((group, cand))
            rest &= ~group
        return groups

    def lower_bound(self, uncovered: int, allowed: int) -> tuple[int, int]:
        """Uncovered buses with pairwise-disjoint candidate sets each
        need their own pick. Returns the bound and the first bus of the
        packing order: the lowest-index bus with the fewest candidates,
        the one to branch on."""
        order = sorted(self._bits_of(uncovered),
                       key=lambda i: ((self.rows[i] & allowed).bit_count(), i))
        used = 0
        bound = 0
        for i in order:
            cand = self.rows[i] & allowed
            if cand == 0:
                return _INF, order[0]
            if cand & used == 0:
                bound += 1
                used |= cand
        return bound, order[0]

    def exists_cover(self, uncovered: int, allowed: int, budget: int) -> bool:
        """Whether some selection of at most `budget` allowed buses
        covers everything."""
        if uncovered == 0:
            return True
        if budget <= 0:
            return False
        key = (uncovered, allowed)
        lo, hi = self.memo.get(key, (0, _INF))
        if budget >= hi:
            return True
        if budget < lo:
            return False
        found = self._search(uncovered, allowed, budget)
        self.memo[key] = (lo, budget) if found else (budget + 1, hi)
        return found

    def _search(self, uncovered: int, allowed: int, budget: int) -> bool:
        """`exists_cover` without the memo: reduce, split into
        components, then bound and branch."""
        uncovered = self._reduce_rows(uncovered, allowed)
        allowed = self._reduce_cols(uncovered, allowed)
        groups = self._components(uncovered, allowed)
        if len(groups) > 1:
            # Groups share no candidate, so the minimum is the sum of
            # the group minima: raise each group's budget from its
            # packing bound while the shared slack lasts.
            bounds = [self.lower_bound(u, a)[0] for u, a in groups]
            slack = budget - sum(bounds)
            for (u, a), need in zip(groups, bounds):
                if slack < 0:
                    return False
                slack -= self.minimum(u, a, need, need + slack) - need
            return slack >= 0
        uncovered, allowed = groups[0]
        bound, pivot = self.lower_bound(uncovered, allowed)
        if bound > budget:
            return False
        remaining = allowed
        for j in self._bits_of(self.rows[pivot] & allowed):
            remaining &= ~(1 << j)
            if self.exists_cover(uncovered & ~self.cols[j], remaining,
                                 budget - 1):
                return True
        return False

    def minimum(self, uncovered: int, allowed: int, start: int,
                cap: int = _INF) -> int:
        """The first budget from `start` up to `cap` that admits a cover
        of the residual, or `cap + 1` when none does."""
        k = start
        while k <= cap and not self.exists_cover(uncovered, allowed, k):
            k += 1
        return k

    def covers(self, uncovered: int, allowed: int, budget: int):
        """Yield every cover of `uncovered` by exactly `budget` allowed
        buses, as tuples of indices in set-lexicographic order.
        `budget` must be the residual's minimum."""
        if uncovered == 0:
            yield ()
            return
        # Constraint dominance keeps the set of covers; candidate
        # dominance would lose optima, so it is not applied here.
        uncovered = self._reduce_rows(uncovered, allowed)
        groups = self._components(uncovered, allowed)
        if len(groups) == 1:
            yield from self._scan(*groups[0], budget)
        else:
            yield from self._merge([
                self._scan(u, a, self.minimum(u, a, self.lower_bound(u, a)[0]))
                for u, a in groups])

    def _scan(self, uncovered: int, allowed: int, budget: int):
        """`covers` of one group: take bus i, in index order, when the
        buses after it complete a cover."""
        for i in self._bits_of(allowed):
            allowed &= ~(1 << i)
            rest = uncovered & ~self.cols[i]
            if self.exists_cover(rest, allowed, budget - 1):
                for tail in self.covers(rest, allowed, budget - 1):
                    yield (i,) + tail
                # Go on past bus i only while covers without it remain;
                # when the probe for i fails, they remain whenever any
                # cover does, so that case needs none.
                if not self.exists_cover(uncovered, allowed, budget):
                    return

    @staticmethod
    def _merge(sequences):
        """Unions of one cover per group, in set-lexicographic order.

        Raising one group's index never makes the union smaller (see
        the module notes), so a heap of index tuples pops the unions in
        order. A tuple raises only the coordinates at or after the one
        it raised last, so each tuple is pushed once."""
        seen = [[] for _ in sequences]

        def cover(g: int, idx: int):
            # Indices grow by one, so at most one more cover is drawn;
            # None marks the end of the group's sequence.
            got = seen[g]
            if idx == len(got):
                got.append(next(sequences[g], None))
            return got[idx]

        def entry(idx: tuple[int, ...], last: int):
            parts = [cover(g, i) for g, i in enumerate(idx)]
            if None in parts:
                return None
            return (tuple(sorted(itertools.chain.from_iterable(parts))),
                    idx, last)

        heap = [entry((0,) * len(sequences), 0)]
        while heap:
            union, idx, last = heapq.heappop(heap)
            yield union
            for g in range(last, len(idx)):
                nxt = entry(idx[:g] + (idx[g] + 1,) + idx[g + 1:], g)
                if nxt is not None:
                    heapq.heappush(heap, nxt)


def optimal_count(inst: CoverInstance) -> int:
    """Size of the minimum cover: the smallest budget, counting up from
    the packing lower bound, for which a cover exists."""
    full = inst.full
    return inst.minimum(full, full, inst.lower_bound(full, full)[0])


def solve_cover(inst: CoverInstance) -> PlacementSolution:
    """Provably optimal cover; among optima, the set-lexicographically
    smallest (preferring low bus indices) is returned."""
    first = next(inst.covers(inst.full, inst.full, optimal_count(inst)), None)
    # A cover of the optimal size always exists; none would be a
    # solver bug.
    if first is None:
        raise Infeasible("internal error: optimal witness extraction failed")
    if not inst.adjacency.bits[:, first].any(axis=1).all():
        raise Infeasible("solution leaves buses unobserved")
    return PlacementSolution(tuple(i + 1 for i in first))


def enumerate_optima(inst: CoverInstance, cap: int) -> Optima:
    """All optimal covers, set-lexicographically ordered, up to `cap`;
    `truncated` says that more exist."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    covers = inst.covers(inst.full, inst.full, optimal_count(inst))
    found = tuple(PlacementSolution(tuple(i + 1 for i in c))
                  for c in itertools.islice(covers, cap))
    return Optima(solutions=found,
                  truncated=next(covers, None) is not None)
