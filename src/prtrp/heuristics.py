"""Greedy construction heuristics and greedy completion of partial tours.

Each returns a fully evaluated route on a zero-duration instance and is
deterministic: ties always go to the smallest vertex label.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .instance import Instance, Route
from .power_eval import PrecedenceIndex, check_partial, evaluate_route


def _greedy_extend(instance: Instance, start: Sequence[int]) -> Tuple[int, ...]:
    """Extend a partial order by always moving to the nearest unvisited vertex."""
    travel = instance.travel
    order: List[int] = list(start)
    started = set(order)
    unvisited = [v for v in range(1, instance.n + 1) if v not in started]
    cur = order[-1] if order else 0
    while unvisited:
        row = travel[cur]
        best = min(unvisited, key=lambda v: (row[v], v))
        order.append(best)
        unvisited.remove(best)
        cur = best
    return tuple(order)


def greedy_distance(instance: Instance, index: PrecedenceIndex) -> Route:
    """Nearest-unvisited-first tour."""
    return evaluate_route(instance, index, _greedy_extend(instance, ()))


def greedy_priority_distance(instance: Instance, index: PrecedenceIndex) -> Route:
    """Tour greedy in travel time divided by successor count.

    From vertex i the next stop minimizes d_ij / |S_j|, so vertices feeding
    large subtrees get pulled forward. Ratios are compared exactly by cross
    multiplication; ties go to the smallest label.
    """
    travel = instance.travel
    count = index.successor_count
    order: List[int] = []
    unvisited = list(range(1, instance.n + 1))
    cur = 0
    while unvisited:
        row = travel[cur]
        best = unvisited[0]
        for v in unvisited[1:]:
            # v beats best iff d_v / |S_v| < d_best / |S_best|
            if row[v] * count[best - 1] < row[best] * count[v - 1]:
                best = v
        order.append(best)
        unvisited.remove(best)
        cur = best
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
    return evaluate_route(instance, index, _greedy_extend(instance, prefix))
