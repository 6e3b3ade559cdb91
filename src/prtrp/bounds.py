"""Pruning bounds from arc lengths and the power-tree structure.

Both kinds rest on one fact: every vertex not yet reached is dark, so the
k-th last leg of a tour carries at least k dark vertices. The position
bounds (BoundsTable) pair best-case dark counts with the sorted shortest
arcs (rearrangement inequality); the walk bound the solver prunes with
(WalkTable) follows cheap walks out of a path's endpoint instead.
Everything is exact integer arithmetic.

A position bound L_k(i) bounds every tour that visits vertex i at position
k from below. It exists only where some earlier slot is forced to hold a
successor of i, k > n - |S_i| with S_i the vertices i powers: once such a
successor is in place, nothing new can be energized until i itself is
repaired. Over the n shortest arcs s_1 <= ... <= s_n of the (n+1)*n
directed arcs, depot arcs included, L_k(i) charges s_p its best-case dark
count: n-p+1 before and after the stalled stretch, |S_i| inside it
(p = n-|S_i|+1..k). BoundsTable keeps, per vertex, the row of its
bounds over exactly those positions, so it holds no position the bound
does not cover; each row is non-decreasing.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import List, NamedTuple, Tuple

from .instance import Instance
from .power_eval import PrecedenceIndex

# Cost of a walk that does not exist; it never reaches a stored table.
_NO_WALK = float("inf")


@dataclass
class BoundsTable:
    """The position bounds, one row per vertex.

    rows[i-1] is (L_k(i) for k = n-|S_i|+1..n), |S_i| entries. The table
    serves compute_beta and `prtrp bounds`; the solver prunes with the
    walk bound of WalkTable instead and never builds it.
    """

    n: int
    rows: Tuple[Tuple[int, ...], ...]


def build_bounds_table(instance: Instance, index: PrecedenceIndex) -> BoundsTable:
    n = instance.n
    shortest = heapq.nsmallest(n, chain.from_iterable(
        chain(row[:i], row[i + 1:]) for i, row in enumerate(instance.travel)
    ))
    # plain[j] sums the j shortest arcs; weighted[j] charges arc p its
    # dark count n-p+1.
    plain = (0, *accumulate(shortest))
    weighted = (0, *accumulate((n - p) * s for p, s in enumerate(shortest)))
    rows = []
    for count in index.successor_count:
        free = n - count
        rows.append(tuple(
            weighted[free] + count * (plain[k] - plain[free]) + weighted[n] - weighted[k]
            for k in range(free + 1, n + 1)
        ))
    return BoundsTable(n=n, rows=tuple(rows))


def compute_beta(table: BoundsTable, upper: int) -> List[int]:
    """Largest admissible position per vertex given an upper bound.

    Returns beta with beta[i-1] = (smallest k whose position bound exceeds
    upper) - 1, or n when no position is ruled out. Each row is
    non-decreasing, so the first threshold settles all later positions. A
    negative upper raises ValueError, since no tour has a negative
    objective.
    """
    if upper < 0:
        raise ValueError(f"upper bound must be >= 0, got {upper}")
    n = table.n
    return [n - len(row) + bisect_right(row, upper) for row in table.rows]


class WalkTable(NamedTuple):
    """Walk-relaxation completion bounds for the label search.

    A path that ends at v with r legs left to drive and w vertices dark
    completes at cost at least

        H[r][v] + (w - r) * minout[v]   once the source is repaired,
        G[r][v]                         while the source is dark.

    The t-th of the r legs left carries at least r - t + 1 dark vertices,
    one per vertex not yet reached, and the first carries exactly w >= r.
    H[r][v] is the cheapest r-leg walk out of v with leg weights r, ..., 1,
    and minout[v], v's shortest arc, pays the first leg's w - r extra dark
    vertices. While the source is dark so is every vertex, so G[r][v]
    weighs every leg up to and including the one into the source n, which
    is also the path's exact dark count, and the legs after it as H does.
    Walks run over the fault vertices alone (the depot is never a later
    stop) and may revisit a vertex, but never turn straight back
    (x -> y -> x). G[r][source] is H[r][source], since a walk standing on
    the source has repaired it, and G[0] is all zero: no path ends with the
    source dark and no legs left. Rows run over r = 0..n-1 and columns over
    vertex labels; column 0, the depot, is unused.
    """

    H: Tuple[Tuple[int, ...], ...]
    G: Tuple[Tuple[int, ...], ...]
    minout: Tuple[int, ...]


def nearest_rows(travel) -> List[List[Tuple[int, int, int]]]:
    """Per endpoint e = 0..n, the depot included, (travel[e][v], v,
    1 << (v - 1)) for every fault vertex v other than e, sorted: nearest
    first, ties to the smaller label. The solver sorts them once per solve
    for the walk table's scans, its label search and its refresh."""
    labels = range(1, len(travel))
    bits = [1 << (v - 1) for v in labels]
    rows = []
    for e, row in enumerate(travel):
        entries = list(zip(row[1:], labels, bits))
        if e:
            del entries[e - 1]
        entries.sort()
        rows.append(entries)
    return rows


def _one_leg_longer(nearest, n: int, weight: int, walks):
    """Walks out of every vertex, one leg longer than `walks`.

    walks is (best, first, second) per vertex: the cheapest walk, its first
    stop, and the cheapest walk with another first stop. The new first leg
    v -> x costs weight * d(v, x) and continues with x's cheapest walk that
    does not step straight back to v. nearest[v] is v's row of nearest_rows,
    so each row is scanned nearest-first.

    Every continuation costs at least floor, the least entry of best, so
    once weight * d(v, x) + floor reaches the second-best cost b2 so far,
    no x at least as far can undercut b2, and the row stops. The costs
    equal those of a scan of the whole row in label order. Only the first
    stop kept on a tie for the cheapest walk may differ, and it changes no
    cost: the tie makes second equal to best, so the next round reads the
    same continuation cost whichever stop is kept. O(n^2) at most.
    """
    best, first, second = walks
    floor = min(best[1:])
    new_best = [0] * (n + 1)
    new_first = [0] * (n + 1)
    new_second = [_NO_WALK] * (n + 1)
    for v in range(1, n + 1):
        b1 = b2 = _NO_WALK
        f = 0
        for dist, x, _ in nearest[v]:
            leg = weight * dist
            if leg + floor >= b2:
                break
            c = leg + (second[x] if first[x] == v else best[x])
            if c < b1:
                b1, b2, f = c, b1, x
            elif c < b2:
                b2 = c
        new_best[v], new_first[v], new_second[v] = b1, f, b2
    return new_best, new_first, new_second


def build_walk_table(
    instance: Instance, index: PrecedenceIndex, rows=None
) -> WalkTable:
    """H, G and minout of the walk bound; O(n^3) exact integer work at most.

    Walks of r <= n-1 legs always exist without a straight turn-back, so
    every stored entry is a finite integer. Each round scans the rows
    nearest-first and stops a row once no farther first stop can lower
    its best or second-best cost (_one_leg_longer), so the tables equal
    those of a full scan of every row. rows, when given, is
    nearest_rows(instance.travel), which the solver shares.
    """
    n = instance.n
    source = index.source
    nearest = nearest_rows(instance.travel) if rows is None else rows
    # First stop 0 marks the empty walk, which has no turn-back to avoid.
    h = ([0] * (n + 1), [0] * (n + 1), [_NO_WALK] * (n + 1))
    g = ([_NO_WALK] * (n + 1), [0] * (n + 1), [_NO_WALK] * (n + 1))
    for part, h_part in zip(g, h):
        part[source] = h_part[source]
    H = [tuple(h[0])]
    G = [(0,) * (n + 1)]
    for r in range(1, n):
        h = _one_leg_longer(nearest, n, r, h)
        g = _one_leg_longer(nearest, n, n, g)
        for part, h_part in zip(g, h):
            part[source] = h_part[source]
        H.append(tuple(h[0]))
        G.append(tuple(g[0]))
    # minout is H's one-leg row: v's shortest arc to another fault vertex.
    # At n = 1 no such arc exists and H[0], all zero, stands in.
    return WalkTable(H=tuple(H), G=tuple(G), minout=H[1] if n > 1 else H[0])
