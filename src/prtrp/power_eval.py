"""Precedence semantics of the power tree and exact route evaluation.

Ancestor sets are n-bit masks with bit v-1 standing for vertex v, so the
solver hot loops compare and hash sets as single integers; the tree is
read top-down from per-vertex successor lists. Supports up to 63 fault
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

from .instance import Instance, Route


@dataclass(frozen=True)
class PrecedenceIndex:
    """Per-vertex ancestor sets and successors of the power tree.

    ancestors[v-1] holds v plus everything on its path up to the source;
    successors[v-1] lists v plus everything below it, ascending: the
    vertices whose ancestor sets hold v; its length is |S_v|. Vertex v is
    energized exactly when its whole ancestor set has been repaired.
    """

    source: int
    successors: Tuple[Tuple[int, ...], ...]
    ancestors: Tuple[int, ...]


def build_index(instance: Instance) -> PrecedenceIndex:
    """Index a valid instance, O(sum of depths): the walk up from each v
    sets v's ancestor mask and appends v to the successor list of every
    vertex it passes. v runs upward, so each list comes out ascending.
    """
    n = instance.n
    parent = instance.power_parent
    source = instance.source
    ancestors = [0] * n
    successors = [[] for _ in range(n)]
    for v in range(1, n + 1):
        mask = 1 << (v - 1)
        successors[v - 1].append(v)
        cur = v
        while cur != source:
            cur = parent[cur]
            mask |= 1 << (cur - 1)
            successors[cur - 1].append(v)
        ancestors[v - 1] = mask

    return PrecedenceIndex(
        source=source,
        successors=tuple(map(tuple, successors)),
        ancestors=tuple(ancestors),
    )


def disrupted_count(index: PrecedenceIndex, repaired: int) -> int:
    """Number of fault vertices still without power given a repaired mask.

    A vertex is energized iff all its ancestors are repaired. Depot bits
    (>= n) in the mask are ignored by construction.
    """
    dark = 0
    for a in index.ancestors:
        if a & repaired != a:
            dark += 1
    return dark


def make_newly_lit(index: PrecedenceIndex) -> Callable[[int, int], int]:
    """newly_lit(v, mask): how many vertices repairing v energizes when
    mask, holding v, is the repaired set after it; that is,
    disrupted_count(mask ^ bit(v)) - disrupted_count(mask).

    Nothing lights unless v's ancestor set is in mask; then v does, and so
    does each other successor of v whose ancestor set is in mask, at
    O(|successors of v|). The tables are built here, not in build_index,
    so an index that never counts pays nothing for them.
    """
    ancestors = index.ancestors
    # Per vertex v, at table[v]: v's ancestor set and those of the rest of
    # its successors.
    table = [(0, ())] + [
        (ancestors[v - 1], tuple(ancestors[u - 1] for u in succ if u != v))
        for v, succ in enumerate(index.successors, 1)
    ]

    def newly_lit(v: int, mask: int) -> int:
        a, below = table[v]
        if a & mask != a:
            return 0
        lit = 1
        for b in below:
            if b & mask == b:
                lit += 1
        return lit

    return newly_lit


def evaluate_route(
    instance: Instance, index: PrecedenceIndex, order: Sequence[int]
) -> Route:
    """Evaluate a full visiting order on a zero-duration instance.

    Arrival times accumulate travel from the depot; the disruption time of a
    vertex is the largest arrival time among its ancestors (itself
    included). One walk over the order finds both: arriving at v sets the
    disruption time of each successor of v, and since arrival times never
    decrease, the last such write, from the ancestor reached last, is the
    largest. The per-vertex sum is cross-checked against the equivalent
    leg-weighted sum, where each travel leg costs its duration times the
    number of dark vertices while it is driven.
    """
    n = instance.n
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order is not a permutation of 1..{n}: {tuple(order)}")
    if any(instance.repair_duration):
        raise ValueError("repair durations must be absorbed before evaluation")

    travel = instance.travel
    ancestors, successors = index.ancestors, index.successors
    t = [0] * n
    r = [0] * n
    now = 0
    prev = 0
    mask = 0
    dark = n
    legs_total = 0
    for v in order:
        leg = travel[prev][v]
        legs_total += dark * leg
        now += leg
        t[v - 1] = now
        mask |= 1 << (v - 1)
        # Repairing v can only energize v's successors, so only they are
        # tested: O(sum of depths) per route. This is make_newly_lit's rule,
        # kept inline: through it a call took about twice as long on Python 3.11
        # (n=10: 7-12 -> 14-26 us; n=63: 41-72 -> 75-95 us uniform, 28-41 ->
        # 63-82 us star). v is an ancestor of each of them, and `now` never
        # decreases, so the last write to r[u-1] is the latest ancestor arrival.
        for u in successors[v - 1]:
            r[u - 1] = now
            a = ancestors[u - 1]
            if a & mask == a:
                dark -= 1
        prev = v
    # The leg back to the depot has everything repaired and costs nothing.

    objective = sum(r)
    if objective != legs_total:
        raise RuntimeError(
            "internal error: disruption-sum and leg-sum objectives disagree "
            f"({objective} vs {legs_total})"
        )
    return Route(order=tuple(order), objective=objective, r=tuple(r), t=tuple(t))
