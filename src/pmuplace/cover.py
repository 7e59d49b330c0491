"""Exact minimum-cover solver for the observability program.

The problem: pick the fewest buses so that every bus is adjacent
(including self-adjacency) to a picked one. One exact search answers
it: `CoverInstance.exists_cover` decides by branch and bound over bit
masks whether at most `budget` allowed buses cover the uncovered ones,
and returns such a cover when they do. The adjacency is symmetric, so
one table, `nbr[i]` = bus i and its neighbours, gives both the buses
that can cover bus i and the buses a monitor at i covers. A node whose
packing bound (below) exceeds its budget is refuted as it was asked:
the bound holds for every residual, reduced or not. Any other node is
first reduced to its dominance fixpoint, alternating

* constraint dominance - a bus whose candidate set contains another
  bus's candidate set is covered for free and drops out;
* candidate dominance - a bus covering a subset of what another covers
  never helps a feasibility question;

until neither drops anything. Both are local: only a bus sharing the
lowest candidate of a bus, or a candidate covering the lowest bus of a
candidate, can dominate it, so only those pairs are compared. Both are
also incremental. At a fixpoint no pair dominates. A pair can start to
only when the dominating bus's candidate set, or the dominated
candidate's covered set, has lost a member: the other set of the pair
only shrinks, so a containment that holds now held before. Each pass
therefore tries only the "dirty" buses in that role. A pass after a
drop tries those next to what was dropped, and a caller that knows how
the node differs from a fixpoint names the first dirty buses. A branch
child's, and those of a residual on the witness's worklist (below),
are the buses next to its parent's removed candidates and the
candidates of the buses the pick covers; a probe of a scan (below) has
the buses next to the candidates the scan has dropped, and every
candidate. Any other node tries everything.
Every drop is a true dominance, so a hint that is too small could only
weaken pruning; a correct one drops, pass by pass, exactly what a full
pass drops, so the fixpoint, and with it every count, witness and
enumeration, does not depend on the hints.

The uncovered buses left then split into components, groups linked by
shared allowed candidates. Groups with disjoint candidates are
independent, so the node is feasible exactly when the group minima sum
to at most `budget`; each group's minimum is found by raising its
budget from its packing bound while the shared slack lasts. A single
group is decided by the disjoint-candidate-packing lower bound and by
branching on the first bus of the packing order, the one with the
fewest candidates. A feasible search returns the cover it found as a
bit mask: a branch adds its bus to the child's cover, and a split node
joins its groups' covers.

Every decision is memoised per `(uncovered, allowed)`, the residual as
it was asked, before any reduction. An entry holds the decided
budgets: none below `lo` suffices, and the smallest cover found proves
every budget from its size on. It also holds the node's reduction: the
groups left after the fixpoint and the split, each with its packing
bound and branch bus. A group of a fixpoint is a fixpoint and one
component, so a split records each group as its entry's reduction
before `minimum` raises the group's budget. A probe at a decided
budget costs one lookup and answers with that cover; one at an
undecided budget searches again but reduces nothing again. The entry
also keeps the split `covers` makes, so each residual is split once
for each use, and the first minimum cover `first_cover` found.

Minimum covers are ordered set-lexicographically: for same-size sets
S < T exactly when min(S ^ T) lies in S. Groups with disjoint
candidates order independently. Every bus of a minimum cover covers
some bus left, so a minimum cover restricted to a group's candidates
is a minimum cover of the group, and every optimum is a union of one
minimum cover per group. min(S ^ T) lies in one group, so the union of
the groups' first covers is the first cover, and raising one group's
cover never lowers the union.

The witness is the first minimum cover L, and `first_cover` finds it
from any minimum cover `known`. It reduces each residual to a lex-safe
fixpoint: constraint dominance keeps every cover, and candidate
dominance keeps L when only a lower-index rival may ban. If an allowed
k < j covers every uncovered bus j covers and j were in L, L - j + k
would be a cover that is either earlier (k not in L) or smaller (k in
L). A rival banned later is banned by a yet lower one, whose covered
set still holds what j covers, as covered sets only shrink. So every
banned bus has a kept lower rival that covers what it covers, the
fixpoint keeps L, and swapping each banned bus of `known` for such a
rival leaves a minimum cover. The residual then splits into groups,
and each group is scanned by index up to the first bus of its part of
L: a bus of `known` is that bus without a probe, and any other is when
budget - 1 buses above it cover the rest of the group. L less that bus
is the first cover of the rest on the candidates above it, with the
proof's cover or `known`'s tail as a minimum cover of it, so that
residual goes on a worklist and the group is done. The chain of taken
buses is as long as the count, so there is no recursion.

`CoverInstance.covers` yields the minimum covers of a residual in
order, as bit masks, given the first of them; its budget is always
that cover's size, the residual's exact minimum, so no cover is ever
padded with a useless bus. It drops implied constraints only, splits
the rest into groups the same way, and merges the groups' sequences
with a heap over index tuples into them; one group needs no merge. A
heap entry carries its union's mask, and its key is that mask's bit
reversal over whole bytes, negated. The unions all have one size, and
for same-size sets S comes before T exactly when the lowest bit of
S ^ T lies in S; reversed, that bit is the highest differing bit, so
the earlier set has the larger reversal and the smaller key. Each
group is scanned from its first cover L, with lowest bus i. A cover
holding a bus below i would come before L, so none does. The covers holding i
come first: i with each cover of the rest on the candidates above i,
whose first is L - i. The covers without i follow: the covers on the
candidates above i. One probe finds any of them, `first_cover` finds
the first from it, and the scan goes on from that; it stops when the
probe finds none. The rest of i is the row-reduced group less what i
covers, on the candidates above i, so only the buses next to the
candidates dropped are dirty for its constraint dominance; a bus that
a covered bus implied is covered by i as well, so no earlier drop
needs undoing. The minimum count is the smallest feasible budget, its
cover seeds the witness, and the witness seeds the enumeration, so the
witness is always the first enumerated optimum. The count, the
witness and the enumeration of one `CoverInstance` share its memo.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible
from .network import BinaryAdjacency

_INF = 10 ** 9
# Byte b with its eight bits in reverse order, for `bytes.translate`.
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class _Node:
    """A memo entry: budgets below `lo` admit no cover, budgets from
    the size of `cover` (a mask) on admit it. `groups` is the search's
    reduction, the components of the dominance fixpoint as (buses,
    candidates, bound, branch bus): the node itself when a split found
    it as a group, unbuilt while the packing bound refutes the node;
    `parts` is the split of `covers`, the components after constraint
    dominance alone (with the row hint of the scan step that reached
    it) as (buses, candidates); `first` is the first minimum cover,
    found by `first_cover` for the witness or for a scan's restart.
    Each is built on first use."""

    # A plain class: building a dataclass would slow every import.
    __slots__ = ("lo", "cover", "groups", "parts", "first")

    def __init__(self):
        self.lo = 0
        self.cover: int | None = None
        self.groups: list[tuple[int, int, int, int]] | None = None
        self.parts: list[tuple[int, int]] | None = None
        self.first: int | None = None


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
        self.adjacency = adjacency
        self.n = adjacency.n
        # Bit j of row i's little-endian bytes is entry (i, j); plain
        # ints, as numpy scalars would overflow past 63 bits.
        self.nbr = [int.from_bytes(row.tobytes(), "little") for row in
                    np.packbits(adjacency.bits, axis=1, bitorder="little")]
        self.full = (1 << self.n) - 1
        self.memo: dict[tuple[int, int], _Node] = {}

    @staticmethod
    def _bits_of(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def _neighbours(self, mask: int) -> int:
        """The buses adjacent to a bus of `mask`, those buses included."""
        nbr = self.nbr
        out = 0
        while mask:
            low = mask & -mask
            out |= nbr[low.bit_length() - 1]
            mask ^= low
        return out

    def _reduce_rows(self, uncovered: int, allowed: int,
                     dirty: int = -1) -> int:
        """Drop constraints implied by another constraint, trying only
        the buses in `dirty` as the implying one."""
        nbr = self.nbr
        dropped = 0
        # Bit walks inline: a generator frame per bit costs more than the
        # comparison it feeds.
        rows = uncovered & dirty
        while rows:
            bit_i = rows & -rows
            rows ^= bit_i
            cand_i = nbr[bit_i.bit_length() - 1] & allowed
            if not cand_i:
                continue
            # Only a bus that shares i's lowest candidate can have a
            # candidate set containing i's.
            rivals = (nbr[(cand_i & -cand_i).bit_length() - 1] & uncovered
                      & ~dropped & ~bit_i)
            while rivals:
                bit_j = rivals & -rivals
                rivals ^= bit_j
                cand_j = nbr[bit_j.bit_length() - 1] & allowed
                # candidates of i inside candidates of j: covering i
                # automatically covers j
                if cand_i | cand_j == cand_j and (cand_i != cand_j
                                                  or bit_i < bit_j):
                    dropped |= bit_j
        return uncovered & ~dropped

    def _reduce_cols(self, uncovered: int, allowed: int,
                     dirty: int = -1, lex: bool = False) -> int:
        """Drop candidates dominated by another candidate, trying only
        the candidates in `dirty` as the dominated one and, with `lex`,
        only lower-index candidates as the dominating one."""
        nbr = self.nbr
        banned = 0
        cols = allowed & dirty
        while cols:
            bit_j = cols & -cols
            cols ^= bit_j
            cov_j = nbr[bit_j.bit_length() - 1] & uncovered
            # Only a candidate covering j's lowest bus can cover a
            # superset of j's buses; any candidate dominates one that
            # covers nothing.
            rivals = (nbr[(cov_j & -cov_j).bit_length() - 1] & allowed
                      if cov_j else allowed) & ~banned & ~bit_j
            if lex:
                rivals &= bit_j - 1
            while rivals:
                bit_k = rivals & -rivals
                rivals ^= bit_k
                cov_k = nbr[bit_k.bit_length() - 1] & uncovered
                if cov_j | cov_k == cov_k and (cov_j != cov_k
                                               or bit_k < bit_j):
                    banned |= bit_j
                    break
        return allowed & ~banned

    def _reduce(self, uncovered: int, allowed: int, rows: int, cols: int,
                lex: bool) -> tuple[int, int]:
        """The dominance fixpoint: alternate constraint and candidate
        dominance (lex-safe with `lex`) until neither drops anything.
        The first passes try the `rows` and `cols` masks (-1 for every
        bus); a later pass tries only the buses next to what the pass
        before dropped, the only ones whose comparisons changed."""
        while True:
            kept = self._reduce_rows(uncovered, allowed, rows)
            cols |= self._neighbours(uncovered & ~kept)
            uncovered = kept
            kept = self._reduce_cols(uncovered, allowed, cols, lex)
            if kept == allowed:
                return uncovered, allowed
            rows = self._neighbours(allowed & ~kept)
            allowed, cols = kept, 0

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
                new_cand = self._neighbours(frontier) & allowed & ~cand
                cand |= new_cand
                frontier = self._neighbours(new_cand) & rest & ~group
                group |= frontier
            groups.append((group, cand))
            rest &= ~group
        return groups

    def lower_bound(self, uncovered: int, allowed: int) -> tuple[int, int]:
        """Uncovered buses with pairwise-disjoint candidate sets each
        need their own pick. Returns the bound and the first bus of the
        packing order: the lowest-index bus with the fewest candidates,
        the one to branch on."""
        nbr = self.nbr
        order = []
        while uncovered:
            low = uncovered & -uncovered
            i = low.bit_length() - 1
            cand = nbr[i] & allowed
            order.append((cand.bit_count(), i, cand))
            uncovered ^= low
        # (count, bus) is unique, so the tuples sort without a key.
        order.sort()
        pivot = order[0][1]
        used = 0
        bound = 0
        for _, _, cand in order:
            if cand == 0:
                return _INF, pivot
            if cand & used == 0:
                bound += 1
                used |= cand
        return bound, pivot

    def _node(self, uncovered: int, allowed: int) -> _Node:
        node = self.memo.get((uncovered, allowed))
        if node is None:
            node = self.memo[uncovered, allowed] = _Node()
        return node

    def exists_cover(self, uncovered: int, allowed: int, budget: int,
                     rows: int = -1, cols: int = -1) -> int | None:
        """A cover of the uncovered buses by at most `budget` allowed
        buses, as a bit mask, or None when there is none. `rows` and
        `cols` are the reduction's dirty masks (see `_reduce`)."""
        if uncovered == 0:
            return 0
        if budget <= 0:
            return None
        node = self._node(uncovered, allowed)
        if node.cover is not None and budget >= node.cover.bit_count():
            return node.cover
        if budget < node.lo:
            return None
        cover = self._search(uncovered, allowed, budget, node, rows, cols)
        if cover is None:
            node.lo = budget + 1
        else:
            node.cover = cover
        return cover

    def _search(self, uncovered: int, allowed: int, budget: int,
                node: _Node, rows: int, cols: int) -> int | None:
        """`exists_cover` past the memo's budgets: reduce to the
        dominance fixpoint and split into components (once per node),
        then bound and branch."""
        groups = node.groups
        if groups is None:
            # The packing bounds every residual, reduced or not.
            if self.lower_bound(uncovered, allowed)[0] > budget:
                return None
            uncovered, allowed = self._reduce(uncovered, allowed, rows, cols,
                                              False)
            groups = node.groups = [
                (u, a, *self.lower_bound(u, a))
                for u, a in self._components(uncovered, allowed)]
        if len(groups) > 1:
            # Groups share no candidate, so the minimum is the sum of
            # the group minima: raise each group's budget from its
            # packing bound while the shared slack lasts. A group of a
            # fixpoint is a fixpoint and one component: its own reduction.
            slack = budget - sum(need for _, _, need, _ in groups)
            for u, a, need, pivot in groups:
                if slack < 0:
                    return None
                self._node(u, a).groups = [(u, a, need, pivot)]
                slack -= self.minimum(u, a, need, need + slack) - need
            if slack < 0:
                return None
            cover = 0
            for u, a, _, _ in groups:
                cover |= self.memo[u, a].cover
            return cover
        uncovered, allowed, bound, pivot = groups[0]
        if bound > budget:
            return None
        remaining = allowed
        lost = 0
        for j in self._bits_of(self.nbr[pivot] & allowed):
            remaining &= ~(1 << j)
            # Dirty in the child: the buses that lost a candidate (j or
            # an earlier sibling), and the candidates of the buses j
            # covers, which lost a bus to cover.
            lost |= self.nbr[j]
            hit = uncovered & self.nbr[j]
            cover = self.exists_cover(uncovered & ~hit, remaining, budget - 1,
                                      lost, self._neighbours(hit))
            if cover is not None:
                return cover | 1 << j
        return None

    def minimum(self, uncovered: int, allowed: int, start: int,
                cap: int = _INF) -> int:
        """The first budget from `start` up to `cap` that admits a cover
        of the residual, or `cap + 1` when none does."""
        k = start
        while k <= cap and self.exists_cover(uncovered, allowed, k) is None:
            k += 1
        return k

    def first_cover(self, uncovered: int, allowed: int, known: int) -> int:
        """The set-lexicographically first minimum cover of the residual,
        as a mask, given `known`, any minimum cover of it."""
        node = self._node(uncovered, allowed)
        if node.first is not None:
            return node.first
        nbr = self.nbr
        first = 0
        # (uncovered, allowed, a minimum cover, dirty rows, dirty cols):
        # a worklist, as the chain of taken buses is as long as the count.
        work = [(uncovered, allowed, known, -1, -1)]
        while work:
            uncovered, allowed, known, rows, cols = work.pop()
            if uncovered == 0:
                continue
            uncovered, kept = self._reduce(uncovered, allowed, rows, cols,
                                           True)
            # A banned bus of the known cover has a kept lower rival that
            # covers all it covers; the swap keeps the cover minimum.
            for j in self._bits_of(known & ~kept):
                cov_j = nbr[j] & uncovered
                k = next(k for k in self._bits_of(kept & ((1 << j) - 1))
                         if nbr[k] & cov_j == cov_j)
                known ^= 1 << j | 1 << k
            # Each group's first taken bus is its first bus of the first
            # cover: a bus of the known cover without a probe, any other
            # when the buses above it complete a cover of the rest. A
            # probe is dirty next to the buses passed, and in every
            # candidate.
            for u, a in self._components(uncovered, kept):
                part = known & a
                budget = part.bit_count()
                touched = 0
                for i in self._bits_of(a):
                    a &= ~(1 << i)
                    touched |= nbr[i]
                    rest = u & ~nbr[i]
                    tail = (part & ~(1 << i) if part >> i & 1 else
                            self.exists_cover(rest, a, budget - 1, touched))
                    if tail is not None:
                        break
                # The rest on the buses above i, dirty as a branch child.
                first |= 1 << i
                work.append((rest, a, tail, touched,
                             self._neighbours(u & nbr[i])))
        node.first = first
        return first

    def covers(self, uncovered: int, allowed: int, first: int,
               rows: int = -1):
        """Yield every minimum cover of `uncovered` by allowed buses, as
        bit masks in set-lexicographic order, from `first`, the first of
        them; `rows` is the row reduction's dirty mask."""
        if uncovered == 0:
            yield 0
            return
        # Constraint dominance keeps the set of covers; candidate
        # dominance would lose optima, so it is not applied here.
        node = self._node(uncovered, allowed)
        if node.parts is None:
            node.parts = self._components(
                self._reduce_rows(uncovered, allowed, rows), allowed)
        scans = [self._scan(u, a, first & a) for u, a in node.parts]
        yield from scans[0] if len(scans) == 1 else self._merge(scans)

    def _scan(self, uncovered: int, allowed: int, first: int):
        """`covers` of one group from its first cover: those holding its
        lowest bus i, then those on the candidates above i."""
        budget = first.bit_count()
        # The group is reduced by constraint dominance only: the rest of
        # i and the probe are dirty next to the candidates dropped, and
        # the probe in every candidate.
        touched = 0
        while True:
            bit = first & -first
            i = bit.bit_length() - 1
            passed = allowed & ((bit << 1) - 1)
            allowed &= ~passed
            touched |= self._neighbours(passed)
            for tail in self.covers(uncovered & ~self.nbr[i], allowed,
                                    first ^ bit, touched):
                yield tail | bit
            known = self.exists_cover(uncovered, allowed, budget, touched)
            if known is None:
                return
            first = self.first_cover(uncovered, allowed, known)

    def _merge(self, sequences):
        """Unions of one cover per group, as masks, in set-lexicographic
        order.

        Raising one group's index never makes the union smaller (see
        the module notes), so a heap of index tuples pops the unions in
        order. A tuple raises only the coordinates at or after the one
        it raised last, so each tuple is pushed once. An entry carries
        its union: groups share no candidate, so raising group g swaps
        g's old cover for its new one with two xors. The heap key is the
        union's bit reversal over whole bytes, negated (see the module
        notes): the earlier union has the smaller key."""
        width = (self.n + 7) // 8
        seen = [[next(seq)] for seq in sequences]
        union = 0
        for got in seen:
            union |= got[0]
        # The first entry is popped alone, so its key is never compared.
        heap = [(0, union, (0,) * len(seen), 0)]
        while heap:
            _, union, idx, last = heapq.heappop(heap)
            yield union
            for g in range(last, len(idx)):
                # Indices grow by one, so at most one more cover is
                # drawn; None marks the end of the group's sequence.
                got, i = seen[g], idx[g] + 1
                if i == len(got):
                    got.append(next(sequences[g], None))
                new = got[i]
                if new is not None:
                    raised = union ^ got[i - 1] ^ new
                    heapq.heappush(heap, (
                        -int.from_bytes(raised.to_bytes(width, "big")
                                        .translate(_REVERSED), "little"),
                        raised, idx[:g] + (i,) + idx[g + 1:], g))


def optimal_count(inst: CoverInstance) -> int:
    """Size of the minimum cover: the smallest budget, counting up from
    the packing lower bound, for which a cover exists."""
    full = inst.full
    return inst.minimum(full, full, inst.lower_bound(full, full)[0])


def _witness(inst: CoverInstance) -> int:
    """The witness as a mask: the first minimum cover, found from the
    count's cover."""
    full = inst.full
    known = inst.exists_cover(full, full, optimal_count(inst))
    # A cover of the optimal size always exists; none would be a
    # solver bug.
    if known is None:
        raise Infeasible("internal error: optimal witness extraction failed")
    return inst.first_cover(full, full, known)


def solve_cover(inst: CoverInstance) -> PlacementSolution:
    """Provably optimal cover; among optima, the set-lexicographically
    smallest (preferring low bus indices) is returned."""
    first = list(inst._bits_of(_witness(inst)))
    if not inst.adjacency.bits[:, first].any(axis=1).all():
        raise Infeasible("solution leaves buses unobserved")
    return PlacementSolution(tuple(i + 1 for i in first))


def enumerate_optima(inst: CoverInstance, cap: int) -> Optima:
    """All optimal covers, set-lexicographically ordered, up to `cap`;
    `truncated` says that more exist."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    full = inst.full
    covers = inst.covers(full, full, _witness(inst))
    found = tuple(PlacementSolution(tuple(i + 1 for i in inst._bits_of(c)))
                  for c in itertools.islice(covers, cap))
    return Optima(solutions=found,
                  truncated=next(covers, None) is not None)
