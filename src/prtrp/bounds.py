"""Pruning bounds from sorted arc lengths and the power-tree structure.

All bounds share one idea: the number of dark vertices per travel leg is
non-increasing along a tour, so pairing a best-case dark-count vector with
the sorted shortest arcs lower-bounds any completion (rearrangement
inequality). Everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .instance import Instance
from .power_eval import PrecedenceIndex


@dataclass
class BoundsTable:
    """Sorted arc lengths with the prefix/tail sums the bound queries need.

    sorted_arcs covers all (n+1)*n directed arcs, depot arcs included.
    prefix_plain[j] is the sum of the j shortest arcs; prefix_weighted[j]
    weights arc p by (n-p+1), defined for j <= n.

    outgoing_tail[k] serves the outgoing-path bound the solver applies to
    a path from the depot through k vertices, with accumulated disruption
    u and w vertices still dark at its end:

        u + w * sorted_arcs[0] + outgoing_tail[k]

    The next leg carries w dark vertices on at best the shortest arc; the
    remaining n-k-1 legs carry at least n-k-1, ..., 1 on the next shortest
    arcs (rearrangement inequality). For k = n, w and outgoing_tail[n] are
    0 and the bound is u itself. The solver applies it as a per-level cut:
    outgoing_tail[k] depends on the level alone, so it is subtracted once
    from the level's threshold, and each candidate compares only
    u + w * sorted_arcs[0] with the result (see bidp).
    """

    n: int
    sorted_arcs: Tuple[int, ...]
    prefix_plain: Tuple[int, ...]
    prefix_weighted: Tuple[int, ...]
    outgoing_tail: Tuple[int, ...]
    successor_count: Tuple[int, ...]


def build_bounds_table(instance: Instance, index: PrecedenceIndex) -> BoundsTable:
    n = instance.n
    arcs = sorted(
        instance.travel[i][j]
        for i in range(n + 1)
        for j in range(n + 1)
        if i != j
    )
    prefix_plain = [0] * (len(arcs) + 1)
    for p, s in enumerate(arcs, start=1):
        prefix_plain[p] = prefix_plain[p - 1] + s
    prefix_weighted = [0] * (n + 1)
    for p in range(1, n + 1):
        prefix_weighted[p] = prefix_weighted[p - 1] + (n - p + 1) * arcs[p - 1]

    # outgoing_tail[k] = sum_{p=2}^{n-k} (n-k+1-p) s_p
    outgoing_tail = [0] * (n + 1)
    for k in range(n + 1):
        q = n - k
        outgoing_tail[k] = sum((q + 1 - p) * arcs[p - 1] for p in range(2, q + 1))

    return BoundsTable(
        n=n,
        sorted_arcs=tuple(arcs),
        prefix_plain=tuple(prefix_plain),
        prefix_weighted=tuple(prefix_weighted),
        outgoing_tail=tuple(outgoing_tail),
        successor_count=index.successor_count,
    )


def position_lower_bound(table: BoundsTable, i: int, k: int) -> int:
    """Lower bound on any tour visiting vertex i at position k.

    Only positions late enough that some earlier slot is forced to hold a
    successor of i are covered (k > n - |S_i|): once such a successor is in
    place, nothing new can be energized until i itself is repaired. The
    bound charges arc p the best-case dark count: n-p+1 before and after
    the stalled stretch, |S_i| inside it.
    """
    n = table.n
    if not 1 <= k <= n:
        raise ValueError(f"position {k} outside 1..{n}")
    si = table.successor_count[i - 1]
    if k <= n - si:
        raise ValueError(
            f"bound not applicable: vertex {i} needs position > {n - si}, got {k}"
        )
    a1 = table.prefix_plain
    a2 = table.prefix_weighted
    free = n - si
    return a2[free] + si * (a1[k] - a1[free]) + (a2[n] - a2[k])


def compute_beta(table: BoundsTable, upper: int) -> List[int]:
    """Largest admissible position per vertex given an upper bound.

    Returns beta with beta[i-1] = (smallest applicable k whose position
    bound exceeds upper) - 1, or n when no position is ruled out. The
    position bound is non-decreasing in k on its applicable range, so the
    first threshold settles all later positions. A negative upper raises
    ValueError, since no tour has a negative objective.
    """
    n = table.n
    beta = [n] * n
    if upper < 0:
        raise ValueError(f"upper bound must be >= 0, got {upper}")
    for i in range(1, n + 1):
        k_min = n - table.successor_count[i - 1] + 1
        for k in range(max(k_min, 1), n + 1):
            if position_lower_bound(table, i, k) > upper:
                beta[i - 1] = k - 1
                break
    return beta
