"""Greedy construction, greedy completion and local-search descent.

Each returns a fully evaluated route on a zero-duration instance and is
deterministic: greedy ties always go to the smallest vertex label, and the
descent scans its moves in a fixed order.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Sequence, Tuple

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


def _moves(order: List[int]) -> Iterator[Tuple[int, List[int]]]:
    """The descent's moves as (first, window): the move rewrites
    order[first:first + len(window)] to window.

    Relocations of a segment of 1-3 vertices come first, then swaps of two
    vertices, then 2-opt reversals. Each distinct move is yielded once, at
    its first place in that order:
    - a segment of s vertices moves left past more than s vertices, or
      right past at least s; a shorter move is the relocation, scanned
      earlier, of the vertices it jumps;
    - swapped vertices are not adjacent, since that swap is a relocation;
    - a reversal spans four or more vertices, since reversing three swaps
      the ends.
    """
    n = len(order)
    for size in (1, 2, 3):
        for a in range(n - size + 1):
            seg = order[a:a + size]
            for b in range(a - size):
                yield b, seg + order[b:a]
            for b in range(a + size, n - size + 1):
                yield a, order[a + size:b + size] + seg
    for a in range(n - 2):
        for b in range(a + 2, n):
            yield a, [order[b]] + order[a + 1:b] + [order[a]]
    for a in range(n - 3):
        for b in range(a + 3, n):
            yield a, order[a:b + 1][::-1]


def descent(
    instance: Instance,
    index: PrecedenceIndex,
    start: Sequence[int],
    deadline: Optional[float] = None,
) -> Route:
    """First-improvement descent from a full order over the moves of _moves.

    The first move that lowers the leg-sum objective is taken and the scan
    starts over; a scan with no such move ends the descent at a local
    optimum. A move is scored from the first position it changes: the
    prefix before it is kept, the legs after its window cost what they
    did (the same vertices are repaired by then), and scoring stops once
    the partial sum reaches the current value. When time.perf_counter()
    passes deadline, checked before every move, the best order so far is
    returned; a deadline already past returns the start.
    """
    check_partial(instance.n, start)
    travel = instance.travel
    wcount = make_disrupted_counter(index)
    order = list(start)
    n = len(order)
    # Per position p: the mask repaired before order[p], its dark count,
    # and the cost of the legs before it (pre[n] is the objective).
    masks = [0] * (n + 1)
    dark = [0] * (n + 1)
    pre = [0] * (n + 1)
    improved = True
    while improved:
        improved = False
        prev = 0
        for p, v in enumerate(order):
            dark[p] = wcount(masks[p])
            pre[p + 1] = pre[p] + dark[p] * travel[prev][v]
            masks[p + 1] = masks[p] | (1 << (v - 1))
            prev = v
        total = pre[n]
        for first, window in _moves(order):
            if deadline is not None and time.perf_counter() > deadline:
                return evaluate_route(instance, index, order)
            end = first + len(window)
            cost = pre[first]
            prev = order[first - 1] if first else 0
            mask = masks[first]
            for v in window:
                cost += wcount(mask) * travel[prev][v]
                if cost >= total:
                    break
                mask |= 1 << (v - 1)
                prev = v
            else:
                if end < n:
                    cost += dark[end] * travel[prev][order[end]] + total - pre[end + 1]
                if cost < total:
                    order[first:end] = window
                    improved = True
                    break
    return evaluate_route(instance, index, order)
