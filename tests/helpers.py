"""Independent reference implementations used only by the tests.

Everything here recomputes precedence data from the raw parent map and
works with plain Python sets, on purpose sharing nothing with the package
internals it checks.
"""

from itertools import permutations
from typing import Dict, FrozenSet, Sequence, Tuple


def ancestor_sets(instance) -> Dict[int, FrozenSet[int]]:
    anc = {}
    for v in range(1, instance.n + 1):
        chain = {v}
        cur = v
        while cur != instance.source:
            cur = instance.power_parent[cur]
            chain.add(cur)
        anc[v] = frozenset(chain)
    return anc


def dark_count(anc: Dict[int, FrozenSet[int]], repaired) -> int:
    repaired = set(repaired)
    return sum(1 for a in anc.values() if not a <= repaired)


def sim_objective_with_durations(instance, order: Sequence[int]) -> int:
    """Completion-time simulation honoring explicit repair durations.

    The crew arrives, repairs for the vertex's duration, then departs; a
    vertex has power once every ancestor's repair has completed.
    """
    anc = ancestor_sets(instance)
    p = instance.repair_duration
    done = {}
    now = 0
    prev = 0
    for v in order:
        now += instance.travel[prev][v] + p[v - 1]
        done[v] = now
        prev = v
    return sum(max(done[a] for a in anc[v]) for v in anc)


def leg_sum_objective(instance, order: Sequence[int], anc=None) -> int:
    """Total disruption as sum over legs of (dark vertices) * (leg time).

    anc, the instance's ancestor_sets, is built here when not passed.
    """
    if anc is None:
        anc = ancestor_sets(instance)
    repaired = set()
    total = 0
    prev = 0
    for v in order:
        total += dark_count(anc, repaired) * instance.travel[prev][v]
        repaired.add(v)
        prev = v
    return total


def walk_bound(walks, instance, anc, prefix: Sequence[int]) -> int:
    """The solver's walk bound on completing an outgoing prefix.

    walks is the WalkTable under test; the prefix value and its dark count
    are computed here from the raw instance (anc from ancestor_sets).
    """
    r = instance.n - len(prefix)
    v = prefix[-1]
    value = leg_sum_objective(instance, prefix)
    if instance.source in prefix:
        w = dark_count(anc, prefix)
        return value + walks.H[r][v] + (w - r) * walks.minout[v]
    return value + walks.G[r][v]


def reference_walk_table(instance):
    """(H, G, minout) of the walk bound, every row of every round scanned
    in full and in label order; ties for the cheapest walk go to the
    first stop scanned first."""
    n, travel, source = instance.n, instance.travel, instance.source
    inf = float("inf")

    def one_leg_longer(weight, walks):
        best, first, second = walks
        out = ([0] * (n + 1), [0] * (n + 1), [inf] * (n + 1))
        for v in range(1, n + 1):
            b1 = b2 = inf
            f = 0
            for x in range(1, n + 1):
                if x == v:
                    continue
                c = weight * travel[v][x] + (second[x] if first[x] == v else best[x])
                if c < b1:
                    b1, b2, f = c, b1, x
                elif c < b2:
                    b2 = c
            out[0][v], out[1][v], out[2][v] = b1, f, b2
        return out

    h = ([0] * (n + 1), [0] * (n + 1), [inf] * (n + 1))
    g = ([inf] * (n + 1), [0] * (n + 1), [inf] * (n + 1))
    for part, h_part in zip(g, h):
        part[source] = h_part[source]
    H = [tuple(h[0])]
    G = [(0,) * (n + 1)]
    for r in range(1, n):
        h = one_leg_longer(r, h)
        g = one_leg_longer(n, g)
        for part, h_part in zip(g, h):
            part[source] = h_part[source]
        H.append(tuple(h[0]))
        G.append(tuple(g[0]))
    return tuple(H), tuple(G), H[1] if n > 1 else H[0]


def random_asymmetric(rng, n: int, high: int):
    """(travel, power_parent, source) of a random instance: travel times
    drawn from 0..high per arc, so the matrix is asymmetric and, at a small
    high, full of ties; the power tree attaches each vertex to a random
    earlier one, in a random order from a random source."""
    travel = [[0 if i == j else rng.randint(0, high) for j in range(n + 1)]
              for i in range(n + 1)]
    placed = rng.sample(range(1, n + 1), n)
    parent = {v: rng.choice(placed[:k]) for k, v in enumerate(placed) if k}
    return travel, parent, placed[0]


def breaks_triangle(travel) -> bool:
    """Whether some arc i -> k is longer than a detour i -> j -> k."""
    size = len(travel)
    return any(travel[i][k] > travel[i][j] + travel[j][k]
               for i in range(size) for j in range(size) for k in range(size))


def dark_profile(instance, order: Sequence[int]) -> Tuple[int, ...]:
    """Dark count right before each arrival along the tour."""
    anc = ancestor_sets(instance)
    repaired = set()
    out = []
    for v in order:
        out.append(dark_count(anc, repaired))
        repaired.add(v)
    return tuple(out)


def latency_objective(travel, order: Sequence[int]) -> int:
    """Classic minimum-latency value: sum of arrival times from the depot."""
    now = 0
    prev = 0
    total = 0
    for v in order:
        now += travel[prev][v]
        total += now
        prev = v
    return total


def latency_brute_force(travel) -> int:
    n = len(travel) - 1
    return min(
        latency_objective(travel, order)
        for order in permutations(range(1, n + 1))
    )


def pure_backward_recursion(instance):
    """Memoized v(current, unvisited) from the backward recursion.

    Returns a callable v(k, Y) with Y a frozenset; v(0, all) is the optimum.
    """
    anc = ancestor_sets(instance)
    travel = instance.travel
    everything = frozenset(range(1, instance.n + 1))
    memo = {}

    def v(k, unvisited):
        if not unvisited:
            return 0
        key = (k, unvisited)
        if key in memo:
            return memo[key]
        w = dark_count(anc, everything - unvisited)
        best = min(
            w * travel[k][j] + v(j, unvisited - {j}) for j in sorted(unvisited)
        )
        memo[key] = best
        return best

    return v


def pure_backward_optimum(instance) -> int:
    v = pure_backward_recursion(instance)
    return v(0, frozenset(range(1, instance.n + 1)))


def pure_forward_optimum(instance) -> int:
    """min over endpoints of u(everything, endpoint) from the forward recursion."""
    anc = ancestor_sets(instance)
    travel = instance.travel
    n = instance.n
    memo = {}

    def u(visited, i):
        if visited == frozenset((i,)):
            return n * travel[0][i]
        key = (visited, i)
        if key in memo:
            return memo[key]
        rest = visited - {i}
        w = dark_count(anc, rest)
        best = min(u(rest, j) + w * travel[j][i] for j in sorted(rest))
        memo[key] = best
        return best

    everything = frozenset(range(1, n + 1))
    return min(u(everything, i) for i in range(1, n + 1))


def random_orders(rng, n: int, count: int):
    verts = list(range(1, n + 1))
    for _ in range(count):
        rng.shuffle(verts)
        yield tuple(verts)


def plain_moves(order: Sequence[int]):
    """Every relocate, swap and 2-opt move as (first, window), in the
    descent's scan order and with repeats: relocates of 1-3 vertices to
    every other place, swaps of every pair, reversals of every stretch of
    three or more."""
    order = list(order)
    n = len(order)
    for size in (1, 2, 3):
        for a in range(n - size + 1):
            seg = order[a:a + size]
            for b in range(n - size + 1):
                if b < a:
                    yield b, seg + order[b:a]
                elif b > a:
                    yield a, order[a + size:b + size] + seg
    for a in range(n - 1):
        for b in range(a + 1, n):
            yield a, [order[b]] + order[a + 1:b] + [order[a]]
    for a in range(n - 2):
        for b in range(a + 2, n):
            yield a, order[a:b + 1][::-1]


def reference_descent(instance, start: Sequence[int]) -> Tuple[int, ...]:
    """First-improvement descent over plain_moves, scored by leg_sum_objective:
    take the first move that lowers the objective and rescan, until none does."""
    anc = ancestor_sets(instance)
    order = list(start)
    value = leg_sum_objective(instance, order, anc)
    improved = True
    while improved:
        improved = False
        for first, window in plain_moves(order):
            moved = order[:first] + window + order[first + len(window):]
            moved_value = leg_sum_objective(instance, moved, anc)
            if moved_value < value:
                order, value, improved = moved, moved_value, True
                break
    return tuple(order)


MAX_TRAVEL = 2**63 - 1


def reference_travel_report(travel) -> list:
    """validate's travel messages, walked entry by entry in row order."""
    bad = []
    for i, row in enumerate(travel):
        for j, v in enumerate(row):
            if type(v) is not int:
                bad.append(f"every value in travel row {i} must be an integer, got {v!r}")
                continue
            if i == j and v != 0:
                bad.append(f"nonzero diagonal: travel[{i}][{i}] = {v}")
            if v < 0:
                bad.append(f"negative travel time: travel[{i}][{j}] = {v}")
            if v > MAX_TRAVEL:
                bad.append(f"travel[{i}][{j}] exceeds the 64-bit range")
    return bad


TOLERANCE = 1e-6


def reference_time_row_report(travel, big_m, x, t) -> list:
    """check_assignment's big-M time-row messages, walked entry by entry:
    time_i_j for j = 1..n, and within each j for i = 0..n, i != j."""
    bad = []
    for j in range(1, len(t)):
        for i in range(len(t)):
            if i == j:
                continue
            lhs = t[j] - t[i] - big_m * x[i][j]
            rhs = travel[i][j] - big_m
            if lhs < rhs - TOLERANCE:
                bad.append(f"time_{i}_{j}: {lhs} < {rhs}")
    return bad


def reference_absorbed_travel(travel, durations):
    """Every arc into vertex i >= 1 lengthened by durations[i-1], one arc
    at a time in row order; OverflowError names the first arc that leaves
    the 64-bit range."""
    rows = []
    for j, row in enumerate(travel):
        row = list(row)
        for i in range(1, len(row)):
            if i != j:
                row[i] += durations[i - 1]
                if row[i] > MAX_TRAVEL:
                    raise OverflowError(f"travel[{j}][{i}] + duration exceeds the 64-bit range")
        rows.append(tuple(row))
    return tuple(rows)
