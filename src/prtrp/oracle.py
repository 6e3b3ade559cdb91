"""Brute-force reference solvers for cross-validation.

Deliberately independent of the main engine: brute_force shares only the
route evaluator, and the subset-DP solver re-derives even the dark-vertex
count from the raw parent map. Both exist for correctness, not speed.
"""

from __future__ import annotations

from itertools import permutations
from typing import List, Optional, Tuple

from .errors import EngineLimitError
from .instance import Instance, Route
from .power_eval import PrecedenceIndex, evaluate_route

BRUTE_FORCE_LIMIT = 10
SUBSET_DP_LIMIT = 20


def _dark_counts(n: int, ancestor_masks: List[int]) -> List[int]:
    """Dark-vertex count for every repaired-set mask."""
    table = [0] * (1 << n)
    for mask in range(1 << n):
        dark = 0
        for a in ancestor_masks:
            if a & mask != a:
                dark += 1
        table[mask] = dark
    return table


def brute_force(instance: Instance, index: PrecedenceIndex) -> Route:
    """Enumerate every visiting order and return the best route.

    Orders are generated lexicographically and partial objectives are
    monotone (all terms non-negative), so an order whose partial sum
    already reaches the incumbent is abandoned early; the minimum and the
    lexicographic tie-winner are unaffected.
    """
    n = instance.n
    if n > BRUTE_FORCE_LIMIT:
        raise EngineLimitError(
            f"brute force refuses n={n} (> {BRUTE_FORCE_LIMIT})"
        )
    if any(instance.repair_duration):
        raise ValueError("repair durations must be absorbed before solving")

    dark = _dark_counts(n, list(index.ancestors))
    travel = instance.travel
    best_obj: Optional[int] = None
    best_order: Optional[Tuple[int, ...]] = None
    for order in permutations(range(1, n + 1)):
        obj = 0
        mask = 0
        row = travel[0]
        for v in order:
            obj += dark[mask] * row[v]
            if best_obj is not None and obj >= best_obj:
                obj = -1
                break
            mask |= 1 << (v - 1)
            row = travel[v]
        if obj >= 0 and (best_obj is None or obj < best_obj):
            best_obj = obj
            best_order = order
    return evaluate_route(instance, index, best_order)


def held_karp_forward(instance: Instance) -> Route:
    """Plain forward subset DP over (visited set, endpoint) states.

    No pruning of any kind; states cost O(2^n * n^2) time and O(2^n * n)
    memory, so the vertex cap is low. Everything, including the ancestor
    masks, is rebuilt here from the raw instance.
    """
    n = instance.n
    if n > SUBSET_DP_LIMIT:
        raise EngineLimitError(f"subset DP refuses n={n} (> {SUBSET_DP_LIMIT})")
    if any(instance.repair_duration):
        raise ValueError("repair durations must be absorbed before solving")

    anc = []
    for v in range(1, n + 1):
        mask = 1 << (v - 1)
        cur = v
        while cur != instance.source:
            cur = instance.power_parent[cur]
            mask |= 1 << (cur - 1)
        anc.append(mask)
    dark = _dark_counts(n, anc)

    travel = instance.travel
    full = (1 << n) - 1
    inf = float("inf")
    value = [inf] * ((full + 1) * n)
    pred = [0] * ((full + 1) * n)
    for mask in range(1, full + 1):
        base = mask * n
        bits = mask
        while bits:
            low = bits & -bits
            bits ^= low
            i = low.bit_length()
            prev_mask = mask ^ low
            if prev_mask == 0:
                value[base + i - 1] = n * travel[0][i]
                continue
            prev_base = prev_mask * n
            w = dark[prev_mask]
            best = inf
            best_j = 0
            rest = prev_mask
            while rest:
                jlow = rest & -rest
                rest ^= jlow
                j = jlow.bit_length()
                cand = value[prev_base + j - 1] + w * travel[j][i]
                if cand < best:
                    best = cand
                    best_j = j
            value[base + i - 1] = best
            pred[base + i - 1] = best_j

    end = min(range(1, n + 1), key=lambda i: (value[full * n + i - 1], i))
    objective = value[full * n + end - 1]

    order = []
    mask = full
    cur = end
    while cur:
        order.append(cur)
        nxt = pred[mask * n + cur - 1]
        mask ^= 1 << (cur - 1)
        cur = nxt
    order.reverse()

    # Timing rebuilt locally; the DP value must match the disruption sum.
    t = [0] * n
    now = 0
    prev = 0
    for v in order:
        now += travel[prev][v]
        t[v - 1] = now
        prev = v
    r = [max(t[b.bit_length() - 1] for b in _bits(anc[v - 1])) for v in range(1, n + 1)]
    if sum(r) != objective:
        raise RuntimeError(
            f"internal error: subset DP value {objective} does not match "
            f"disruption sum {sum(r)}"
        )
    return Route(order=tuple(order), objective=int(objective), r=tuple(r), t=tuple(t))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low
