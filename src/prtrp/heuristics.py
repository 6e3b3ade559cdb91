"""Greedy construction, greedy completion and local-search descent.

Each returns a fully evaluated route on a zero-duration instance and is
deterministic: greedy ties always go to the smallest vertex label, and the
descent scans its moves in a fixed order.
"""

from __future__ import annotations

import functools
import time
from typing import List, Optional, Sequence, Tuple

from .instance import Instance, Route
from .power_eval import (
    PrecedenceIndex,
    check_partial,
    evaluate_route,
    make_disrupted_counter,
)


def _greedy_extend(
    instance: Instance, start: Sequence[int], weight: Sequence[int]
) -> Tuple[int, ...]:
    """Extend a partial order by always moving to the unvisited vertex v
    with the least d(cur, v) / weight[v].

    Ratios are compared exactly by cross multiplication; ties go to the
    smallest label. Unit weights give the nearest-first rule.
    """
    travel = instance.travel
    order: List[int] = list(start)
    started = set(order)
    unvisited = [v for v in range(1, instance.n + 1) if v not in started]
    cur = order[-1] if order else 0
    while unvisited:
        row = travel[cur]
        best = unvisited[0]
        for v in unvisited[1:]:
            # v beats best iff d_v / w_v < d_best / w_best
            if row[v] * weight[best] < row[best] * weight[v]:
                best = v
        order.append(best)
        unvisited.remove(best)
        cur = best
    return tuple(order)


def greedy_distance(instance: Instance, index: PrecedenceIndex) -> Route:
    """Nearest-unvisited-first tour."""
    order = _greedy_extend(instance, (), (1,) * (instance.n + 1))
    return evaluate_route(instance, index, order)


def greedy_priority_distance(instance: Instance, index: PrecedenceIndex) -> Route:
    """Tour greedy in travel time divided by successor count.

    From vertex i the next stop minimizes d_ij / |S_j|, so vertices feeding
    large subtrees get pulled forward.
    """
    order = _greedy_extend(instance, (), (0, *index.successor_count))
    return evaluate_route(instance, index, order)


def greedy_incumbent(instance: Instance, index: PrecedenceIndex) -> Route:
    """The better of the two greedy tours; a tie goes to the smaller order."""
    return min(
        (greedy_distance(instance, index), greedy_priority_distance(instance, index)),
        key=lambda rt: (rt.objective, rt.order),
    )


def greedy_complete(
    instance: Instance, index: PrecedenceIndex, prefix: Sequence[int]
) -> Route:
    """Complete a duplicate-free outgoing prefix by the nearest-first rule."""
    check_partial(instance.n, prefix)
    order = _greedy_extend(instance, prefix, (1,) * (instance.n + 1))
    return evaluate_route(instance, index, order)


@functools.cache
def _move_table(n: int) -> Tuple[Tuple[int, int, Tuple[int, ...]], ...]:
    """The descent's moves on n vertices as (first, end, positions): the
    move rewrites order[first:end] to [order[p] for p in positions].

    Relocations of a segment of 1-3 vertices come first, then swaps of two
    vertices, then 2-opt reversals. Each distinct move is listed once, at
    its first place in that order:
    - a segment of s vertices moves left past more than s vertices, or
      right past at least s; a shorter move is the relocation, listed
      earlier, of the vertices it jumps;
    - swapped vertices are not adjacent, since that swap is a relocation;
    - a reversal spans four or more vertices, since reversing three swaps
      the ends.
    Each table is built once per n and kept for the life of the process:
    281 moves at n = 11, 14,529 (about 4 MB) at n = 63.
    """
    moves = []
    for size in (1, 2, 3):
        for a in range(n - size + 1):
            seg = tuple(range(a, a + size))
            for b in range(a - size):
                moves.append((b, a + size, (*seg, *range(b, a))))
            for b in range(a + size, n - size + 1):
                moves.append((a, b + size, (*range(a + size, b + size), *seg)))
    for a in range(n - 2):
        for b in range(a + 2, n):
            moves.append((a, b + 1, (b, *range(a + 1, b), a)))
    for a in range(n - 3):
        for b in range(a + 3, n):
            moves.append((a, b + 1, tuple(range(b, a - 1, -1))))
    return tuple(moves)


def descent(
    instance: Instance,
    index: PrecedenceIndex,
    start: Sequence[int],
    deadline: Optional[float] = None,
) -> Route:
    """First-improvement descent from a full order over the moves of
    _move_table.

    The first move that lowers the leg-sum objective is taken and the scan
    starts over; a scan with no such move ends the descent at a local
    optimum. A move is scored in place from the first position it
    changes, reading order[p] for each of its positions; a window list is
    built only for the move taken. The prefix before the window is kept,
    and the legs after the one out of it cost what they did (the same
    vertices are repaired by then), so the move improves iff its window
    and that exit leg cost less than pre[end + 1], what the prefix, the
    window and the exit leg cost now; scoring stops once the partial sum
    reaches it. The order ends in a depot sentinel, order[n] = 0, with
    dark[n] = 0 and pre[n + 1] = pre[n], so a window at the start leaves
    the depot and one at the end adds no exit leg. When time.perf_counter()
    passes deadline, checked before every move, the best order so far is
    returned; a deadline already past returns the start.
    """
    check_partial(instance.n, start)
    travel = instance.travel
    wcount = make_disrupted_counter(index)
    n = len(start)
    moves = _move_table(n)
    order = [*start, 0]
    # Per position p: the mask repaired before order[p], its dark count,
    # and the cost of the legs before it (pre[n] is the objective).
    masks = [0] * (n + 1)
    dark = [0] * (n + 1)
    pre = [0] * (n + 2)
    improved = True
    while improved:
        improved = False
        prev = 0
        for p in range(n):
            v = order[p]
            dark[p] = wcount(masks[p])
            pre[p + 1] = pre[p] + dark[p] * travel[prev][v]
            masks[p + 1] = masks[p] | (1 << (v - 1))
            prev = v
        pre[n + 1] = pre[n]
        for first, end, positions in moves:
            if deadline is not None and time.perf_counter() > deadline:
                return evaluate_route(instance, index, order[:n])
            limit = pre[end + 1]
            cost = pre[first]
            prev = order[first - 1]
            mask = masks[first]
            for p in positions:
                v = order[p]
                cost += wcount(mask) * travel[prev][v]
                if cost >= limit:
                    break
                mask |= 1 << (v - 1)
                prev = v
            else:
                if cost + dark[end] * travel[prev][order[end]] < limit:
                    order[first:end] = [order[p] for p in positions]
                    improved = True
                    break
    return evaluate_route(instance, index, order[:n])
