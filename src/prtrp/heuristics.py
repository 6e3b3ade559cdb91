"""Greedy construction, greedy completion and local-search descent.

Each returns a fully evaluated route on a zero-duration instance and is
deterministic: greedy ties always go to the smallest vertex label, and the
descent scans its moves in a fixed order.
"""

from __future__ import annotations

import functools
import time
from itertools import accumulate
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .instance import Instance, Route
from .power_eval import PrecedenceIndex, evaluate_route, make_newly_lit


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
    order = _greedy_extend(instance, (), (0, *map(len, index.successors)))
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
    n = instance.n
    if len(set(prefix)) < len(prefix) or not all(1 <= v <= n for v in prefix):
        raise ValueError(f"path is not duplicate-free over 1..{n}: {tuple(prefix)}")
    order = _greedy_extend(instance, prefix, (1,) * (n + 1))
    return evaluate_route(instance, index, order)


@functools.cache
def _move_table(n: int) -> Tuple[
    Tuple[Tuple[int, int, range, range], ...],
    Tuple[Tuple[int, int, Tuple[int, ...]], ...],
]:
    """The descent's moves on n vertices, in scan order, as
    (relocations, windows).

    relocations holds one group (size, a, lefts, rights) per segment
    order[a:a + size] of 1-3 vertices, by size, then a. Each b in lefts,
    then each b in rights, ascending, moves the segment so that it starts
    at position b: a left move rewrites order[b:a + size] to the segment
    followed by order[b:a], a right move rewrites order[a:b + size] to
    order[a + size:b + size] followed by the segment. windows then lists
    swaps of two vertices and then 2-opt reversals as (first, end,
    positions): the move rewrites order[first:end] to [order[p] for p in
    positions]. Each distinct move is listed once, at its first place in
    that order:
    - a segment of s vertices moves left past more than s vertices, or
      right past at least s; a shorter move is the relocation, listed
      earlier, of the vertices it jumps;
    - swapped vertices are not adjacent, since that swap is a relocation;
    - a reversal spans four or more vertices, since reversing three swaps
      the ends.
    Each table is built once per n and kept for the life of the process;
    a relocation group is two ranges, not a tuple per move, so at n = 63
    the table holds 186 groups and 3,721 windows.
    """
    relocations = []
    for size in (1, 2, 3):
        for a in range(n - size + 1):
            lefts, rights = range(a - size), range(a + size, n - size + 1)
            if lefts or rights:
                relocations.append((size, a, lefts, rights))
    windows = []
    for a in range(n - 2):
        for b in range(a + 2, n):
            windows.append((a, b + 1, (b, *range(a + 1, b), a)))
    for a in range(n - 3):
        for b in range(a + 3, n):
            windows.append((a, b + 1, tuple(range(b, a - 1, -1))))
    return tuple(relocations), tuple(windows)


def _first_improving_move(
    order, masks, dark, pre, legs, travel, cols, newly_lit, table, deadline
):
    """The first move of table that lowers the objective, as (first, end,
    window) to write over order[first:end]; None when none does, and ()
    when time.perf_counter() passes deadline, read before every move it
    scores.

    A move improves iff its window and the exit leg out of it cost less
    than pre[end + 1]: the prefix before the window is kept, and the legs
    after the exit leg cost what they did (the same vertices are repaired
    by then). Each dark count is stepped from a known one by newly_lit.
    For a relocation group, with segbits the segment's mask:
    - left moves: the legs into order[b + 1:a] keep their length and are
      driven with the segment repaired, at the count of masks[p] |
      segbits, stepped down from dark[end]. One descending pass over p < a
      carries the cost of that block, and each b is scored as the pass
      reaches it; the exit leg, out of order[a - 1], is the same for every
      b. The least improving b is the one a scan in table order meets
      first, so the pass keeps the last it finds;
    - right moves: the block order[a + size:b + size] keeps its inner legs,
      driven at the count of masks[p] ^ segbits, stepped up from dark[a].
      The block sum is carried from b to b + 1, gaining one leg driven at
      the count the leg into the segment at b used.
    Either way a move then adds only the segment's legs, stepped from
    dark[b] or the block's count, and its exit leg; the inner legs are
    scored only when the rest does not already reach the limit. A swap or
    reversal is charged its exit leg first, then scored leg by leg from
    dark[first] until the sum reaches the limit.

    The right moves of a group stop before the target j = b + size once
    block - pre[j] >= maxsave[j], the largest dark[q] * legs[q] over q >=
    j. A move at j costs at least its block and improves only below
    pre[j + 1] = pre[j] + dark[j] * legs[j], so it needs block - pre[j] <
    dark[j] * legs[j]. That gap never shrinks as j grows: the leg block
    gains is driven without the segment repaired, so at no fewer dark
    vertices than the leg into order[j] it stands for. And maxsave only
    falls. The rule needs non-negative travel times, not the triangle
    inequality.
    """
    relocations, windows = table
    # maxsave[j]: the most that one leg into order[j:] costs, and so saves.
    maxsave = [*accumulate(map(mul, dark[::-1], legs[::-1]), max)][::-1]
    for size, a, lefts, rights in relocations:
        end = a + size
        seg = order[a:end]
        head, tail = seg[0], seg[-1]
        segbits = masks[end] ^ masks[a]
        to_head, from_tail = cols[head], travel[tail]
        # The segment's inner legs: the vertex before, its bit, length.
        inner = () if size == 1 else [(u, 1 << (u - 1), travel[u][seg[i]])
                                      for i, u in enumerate(seg[:-1], 1)]
        if lefts:
            limit = pre[end + 1] - dark[end] * travel[order[a - 1]][order[end]]
            # after: the legs into order[p + 1:a], driven with the segment
            # repaired; d, the dark count at order[p] with it repaired.
            after = 0
            d = dark[end]
            found = None
            stop = a - size
            for p in range(a - 1, -1, -1):
                d += newly_lit(order[p], masks[p + 1] | segbits)
                if p < stop:
                    if deadline is not None and time.perf_counter() > deadline:
                        return ()
                    cost = (pre[p] + dark[p] * to_head[order[p - 1]]
                            + d * from_tail[order[p]] + after)
                    if cost < limit:
                        mask, c = masks[p], dark[p]
                        for u, bit, leg in inner:
                            mask |= bit
                            c -= newly_lit(u, mask)
                            cost += c * leg
                        if cost < limit:
                            found = p
                after += d * legs[p]
            if found is not None:
                return found, end, [*seg, *order[found:a]]
        if rights:
            # The block order[end:j] with j = b + size, driven first.
            block = pre[a] + dark[a] * travel[order[a - 1]][order[end]]
            d = dark[a]
            for p in range(end + 1, end + size):
                d -= newly_lit(order[p - 1], masks[p] ^ segbits)
                block += d * legs[p]
            for j in range(rights.start + size, rights.stop + size):
                if block - pre[j] >= maxsave[j]:
                    break
                if deadline is not None and time.perf_counter() > deadline:
                    return ()
                mask = masks[j] ^ segbits
                d -= newly_lit(order[j - 1], mask)
                cost = block + d * to_head[order[j - 1]] + dark[j] * from_tail[order[j]]
                limit = pre[j + 1]
                if cost < limit:
                    c = d
                    for u, bit, leg in inner:
                        mask |= bit
                        c -= newly_lit(u, mask)
                        cost += c * leg
                    if cost < limit:
                        return a, j, [*order[end:j], *seg]
                block += d * legs[j]
    for first, end, positions in windows:
        if deadline is not None and time.perf_counter() > deadline:
            return ()
        limit = pre[end + 1]
        prev = order[first - 1]
        cost = pre[first] + dark[end] * travel[order[positions[-1]]][order[end]]
        mask, d = masks[first], dark[first]
        for p in positions:
            v = order[p]
            cost += d * travel[prev][v]
            if cost >= limit:
                break
            mask |= 1 << (v - 1)
            d -= newly_lit(v, mask)
            prev = v
        else:
            return first, end, [order[p] for p in positions]
    return None


def descent(
    instance: Instance,
    index: PrecedenceIndex,
    start: Sequence[int],
    deadline: Optional[float] = None,
    proved: Optional[Dict[Tuple[int, ...], Route]] = None,
    newly_lit: Optional[Callable[[int, int], int]] = None,
) -> Route:
    """First-improvement descent from a full order over the moves of
    _move_table.

    The first move that lowers the leg-sum objective is taken and the scan
    starts over; a scan with no such move ends the descent at a local
    optimum. Each scan works from, per position p, the mask repaired before
    order[p], its dark count (stepped from dark[0] = n by newly_lit), the
    leg into order[p] and pre[p], the cost of the legs before it. A move
    over order[first:end] leaves all four as they were at every p <=
    first but legs[first], so they are rebuilt from position first on.
    _first_improving_move scores the moves against them, a relocation
    group's blocks from running sums, and builds a window list only for the
    move taken. Every move's cost is exact, so the scan takes the same
    moves in the same order as scoring each whole tour would. The order
    ends in a depot sentinel, order[n] = 0, with dark[n] = 0 and pre[n + 1]
    = pre[n], so a window at the start leaves the depot and one at the end
    adds no exit leg. Each move taken must lower pre[n], or RuntimeError is
    raised. When time.perf_counter() passes deadline, read before every
    move the scan scores, the best order so far is returned; a deadline
    already past returns the start.

    proved, when given, maps orders to the local optimum a descent from
    them reaches, keyed by the order with its sentinel. Before each scan
    the descent looks its order up there and, once it finds it, returns
    that route: the first improving move depends on the order alone, so
    the descent would take the same moves from there again. A descent
    whose last scan found no improving move maps every order it scanned to
    its result; one that stops at a known order maps those it scanned
    before to that order's route; one the deadline stopped adds nothing.
    newly_lit, when given, is make_newly_lit(index), so callers running
    several descents build its table once.

    Raises ValueError, before any move, when start is not a permutation
    of 1..n or the instance still has repair durations.
    """
    n = instance.n
    if sorted(start) != list(range(1, n + 1)):
        raise ValueError(f"start is not a permutation of 1..{n}: {tuple(start)}")
    if any(instance.repair_duration):
        raise ValueError("repair durations must be absorbed before the descent")
    travel = instance.travel
    if newly_lit is None:
        newly_lit = make_newly_lit(index)
    table = _move_table(n)
    order = [*start, 0]
    masks = [0] * (n + 1)
    dark = [n] + [0] * n
    pre = [0] * (n + 2)
    legs = [0] * (n + 1)
    cols = list(zip(*travel))
    objective = None
    first = 0
    # The orders scanned so far, with their sentinel, when proved is given.
    scanned: List[Tuple[int, ...]] = []
    while True:
        # order[-1] is the depot sentinel, so the first leg leaves the depot.
        prev, d = order[first - 1], dark[first]
        for p in range(first, n):
            v = order[p]
            dark[p] = d
            legs[p] = travel[prev][v]
            pre[p + 1] = pre[p] + d * legs[p]
            masks[p + 1] = mask = masks[p] | (1 << (v - 1))
            d -= newly_lit(v, mask)
            prev = v
        pre[n + 1] = pre[n]
        if objective is not None and pre[n] >= objective:
            raise RuntimeError(
                "internal error: a descent move scored as improving took the "
                f"objective from {objective} to {pre[n]}"
            )
        objective = pre[n]
        if proved is not None:
            key = tuple(order)
            known = proved.get(key)
            if known is not None:
                proved.update(dict.fromkeys(scanned, known))
                return known
            scanned.append(key)
        move = _first_improving_move(
            order, masks, dark, pre, legs, travel, cols, newly_lit, table, deadline
        )
        if not move:
            route = evaluate_route(instance, index, order[:n])
            # None: no move improves; (): the deadline passed mid-scan.
            if move is None and proved is not None:
                proved.update(dict.fromkeys(scanned, route))
            return route
        first, end, window = move
        order[first:end] = window


def best_descent(
    instance: Instance,
    index: PrecedenceIndex,
    starts: Sequence[Sequence[int]],
    deadline: Optional[float] = None,
    newly_lit: Optional[Callable[[int, int], int]] = None,
) -> Route:
    """The least (objective, order) of a descent from each start, run in
    turn. They share the orders they scanned (see descent's proved), so a
    descent that reaches an order an earlier descent scanned stops there
    with that descent's local optimum, without scanning it again. newly_lit
    is passed to each descent.
    """
    proved: Dict[Tuple[int, ...], Route] = {}
    return min(
        (descent(instance, index, start, deadline, proved, newly_lit)
         for start in starts),
        key=lambda rt: (rt.objective, rt.order),
    )
