"""Label-extension solver.

The paper's method grows outgoing paths from the depot and return paths
into it, level by level, and joins the two at the midpoint. Here the
outgoing side takes all n levels: the return-path bound is too weak to hold
a deep backward frontier down (at n=16 it built 3-27 times as many labels
as the outgoing side), and the one return leg that is left, from the last
vertex into the depot, costs nothing because every vertex is then repaired.
A label is the tuple (value, mask, endpoint, parent, w), keyed by its
configuration (visited mask, endpoint); within one level only the best
value per configuration survives, since any completion of one path
completes every path sharing its configuration. The dark count w is
carried: n at the depot, and a child ending at v has its parent's w minus
newly_lit(v, mask) of power_eval.make_newly_lit.

New labels are screened by the walk-relaxation bound of bounds.WalkTable
against the incumbent upper bound ub: at the start, the better of two
local-search descents (heuristics.best_descent), one from each greedy tour,
where the second stops at the first order the first one scanned, with the
first one's local optimum. Both share the solver's newly_lit table.
Exact mode keeps that incumbent until the final pick. Heuristic mode lowers
it after each level but the last by the UB_REFRESH_WIDTH (32) best
labels' completions, when one beats it. A label reaching level k+1
survives when its bound is at most (theta + k * delta) times ub. That
threshold is one integer cut per level,

    cut = (theta_pct + k * delta_pct) * ub // 100

For an integer bound b, 100 * b > T holds exactly when b > T // 100, so
the cut prunes the same labels as the percent-scaled test. A parent of
value u at endpoint e with w vertices dark picks its bound row once, B =
G[r] while its source is dark and B = H[r] once it is repaired, with r =
n-k-1 legs left after the candidate, and has room = cut - u. Its
candidate v, whose child has w' vertices dark, is pruned by either of two
tests:

    first = w * d(e, v) + B[v] > room
    first + (w' - r) * minout[v] > room   (lit source, or v the source)

The second runs only after the first passes, and only where w' is
carried: while the source is dark so is every vertex (w' = w = n), and G
already weighs each leg up to the one into the source by n. The leg into
the source may read G too, as G[r][source] is H[r][source]. The per-vertex
position thresholds of bounds.compute_beta are not applied during the
search; they form the threshold table `prtrp bounds` prints.

The search stops scoring a parent's candidates once none can pass, with
one of two scans chosen per level; both apply the two tests above. A
narrow level walks nearest-first rows: each endpoint keeps its fault
vertices sorted by (travel, label), in rows that bounds.nearest_rows
builds once per solve and that the walk table's scans and the refresh
read too. The parent walks e's row until

    w * d(e, v) + floor > room

where floor is the least entry of B. Each candidate's first test is at
least that left side, and every later vertex is at least as far. A wide
level, one with more than _WIDE_LEVEL * n^2 = 2 n^2 parents, sorts e's
row instead by the first test's key, w * d(e, v) + B[v], once per (e, w)
among its parents, and a parent walks it up to the first key above room.
Every candidate before that key passes the first test and every one
after it fails, so the first test is not repeated. (e, w) fixes the row
because w == n exactly while the source is dark: a dark source leaves
every vertex dark, and a repaired source is lit. Both scans pass the same
candidates, so they build the same labels and make the same counts and
newly_lit calls; only the order of one parent's children, and so the
order of the next frontier, differs. The sorts pay only on a wide level:
sorting every level made the solves of the benchmark's small-batch pool
15% slower. The rule puts 91.1% of the exact workload's parents, 9.5% of
small-batch's and none of relaxed's on wide levels (seed-1 passes). The
vertices never reached count as pruned by the bound, so each level still
accounts for all n - k candidates of every parent.

Heuristic mode's refresh completes each of the best labels nearest-first,
the rule of heuristics.greedy_complete, and scores the completion on the
leg sum from the label's value, mask, endpoint and w, stepping w leg by
leg, and drops it once it reaches ub or the level's best so far. So a
winner is strictly better than the incumbent, and a level without one
builds nothing. Only a winner is built by greedy_complete, whose
evaluate_route objective must equal the score, and it becomes the
incumbent. A ranked label is not scored when the previous level's refresh
ranked its parent and it ends at the parent's nearest-first next vertex:
its completion is then the parent's tour at the same cost, which that
refresh found no lower than its final best, the ub this refresh starts
from, so it cannot win. Labels are ranked as tuples (value, mask,
endpoint), so a value tie never falls to the order candidates were
generated in. Exact mode runs no refresh: there it barely pruned (on the
benchmark's small-batch pool, 473 more labels of 40,330 without it, and
no result moved) at about the cost of the search itself. Its
u_trajectory stays at the start incumbent until the final pick. The
nearest-first start tour is greedy_complete of the empty prefix.

Exact mode keeps every label whose bound ties the incumbent and returns a
provably optimal tour. Heuristic mode tightens acceptance to a fraction
(theta + level * delta) of the incumbent, trading the guarantee for speed;
once it has pruned every path, the incumbent is the result.
"""

from __future__ import annotations

import heapq
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .bounds import build_walk_table, nearest_rows
from .errors import EngineLimitError
from .heuristics import best_descent, greedy_complete, greedy_priority_distance
from .instance import Instance, Route
from .power_eval import (
    PrecedenceIndex,
    build_index,
    evaluate_route,
    make_newly_lit,
)

EXACT = "exact"
HEURISTIC = "heuristic"

# Best labels greedily completed after each level but the last, in
# heuristic mode only; exact mode keeps its start incumbent.
UB_REFRESH_WIDTH = 32

# A level is wide when it has more than _WIDE_LEVEL * n^2 parents; they then
# scan rows in bound order (_bound_order_row), one sorted per (endpoint,
# dark count) the level meets, and a narrow level, whose few parents do not
# repay those sorts, scans the nearest-first rows.
_WIDE_LEVEL = 2

# Masks are machine words with bit v-1 per vertex; 6 low bits of a store key
# hold the endpoint, so 63 fault vertices is the hard ceiling.
ENGINE_VERTEX_LIMIT = 63

# A label is (value, visited_mask, endpoint, parent_label, w): the last
# vertex reached, and w dark vertices. w follows the parent, so it never
# decides a comparison (equal masks have equal counts).
Label = Tuple[int, int, int, Optional[tuple], int]

# Columns of stats["levels"] the forward search never counts. They keep the
# paper's position-threshold and backward counters because perfbench/run.py
# reads them; level 1 overrides bwd_created with the n return legs, which
# are never built and so not counted in labels_total.
_UNCOUNTED = {
    "fwd_pruned_beta": 0,
    "bwd_created": 0,
    "bwd_dominated": 0,
    "bwd_pruned_bound": 0,
    "bwd_pruned_beta": 0,
}


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs, six fields.

    theta/delta drive the dynamic acceptance threshold: a label survives
    when its lower bound is at most (theta + level * delta) times the
    incumbent upper bound. Both must be whole percents (0.83, not 0.835),
    so the comparison stays in exact integers and no value is rounded
    behind the caller's back. Exact mode requires theta=1 and delta=0.
    use_dominance=False keys every label apart, the unpruned reference
    search acceptance criterion 6 compares against. labels_cap and
    time_limit (seconds, 0 allowed) stop the search; None means no limit.
    The cap is compared with the labels built, the depot label included.
    Both are read before every parent label and between levels, never
    after the last one (see solve).
    The incumbent refresh is not a knob: heuristic mode completes a fixed
    UB_REFRESH_WIDTH (32) best labels after each level but the last, and
    exact mode runs none, keeping its start incumbent until the final pick
    (stats["u_trajectory"] is flat until its last entry).
    """

    mode: str = EXACT
    theta: float = 1.0
    delta: float = 0.0
    use_dominance: bool = True
    labels_cap: Optional[int] = None
    time_limit: Optional[float] = None

    def __post_init__(self):
        if self.mode not in (EXACT, HEURISTIC):
            raise ValueError(f"mode must be {EXACT!r} or {HEURISTIC!r}")
        # Types first, so a bad one is a ValueError, not a comparison's
        # TypeError; a bool is not taken as 0 or 1.
        if not isinstance(self.use_dominance, bool):
            raise ValueError(f"use_dominance must be a bool, got {self.use_dominance!r}")
        for name, kind, optional in (
            ("theta", numbers.Real, False),
            ("delta", numbers.Real, False),
            ("labels_cap", numbers.Integral, True),
            ("time_limit", numbers.Real, True),
        ):
            value = getattr(self, name)
            if (value is not None or not optional) and (
                isinstance(value, bool) or not isinstance(value, kind)
            ):
                what = "an int" if kind is numbers.Integral else "a number"
                raise ValueError(f"{name} must be {what}, got {value!r}")
        if not (0.0 < self.theta <= 1.0 and round(self.theta, 2) == self.theta):
            raise ValueError("theta must be a whole percent in (0, 1]")
        if not (
            math.isfinite(self.delta) and self.delta >= 0.0
            and round(self.delta, 2) == self.delta
        ):
            raise ValueError("delta must be a finite whole percent >= 0")
        if self.mode == EXACT and (self.theta != 1.0 or self.delta != 0.0):
            raise ValueError("exact mode requires theta=1 and delta=0")
        if self.labels_cap is not None and self.labels_cap < 0:
            raise ValueError(f"labels_cap must be >= 0, got {self.labels_cap}")
        if self.time_limit is not None and not (
            math.isfinite(self.time_limit) and self.time_limit >= 0.0
        ):
            raise ValueError(
                f"time_limit must be a finite number of seconds >= 0, "
                f"got {self.time_limit}"
            )

    @property
    def theta_pct(self) -> int:
        return round(self.theta * 100)

    @property
    def delta_pct(self) -> int:
        return round(self.delta * 100)


@dataclass
class SolveReport:
    """Best route found plus proof status and search statistics."""

    route: Route
    objective: int
    proven_optimal: bool
    stats: Dict[str, object] = field(default_factory=dict)


def _forward_order(label: Label) -> Tuple[int, ...]:
    """Outgoing order depot -> endpoint encoded by a forward label chain."""
    out = []
    while label[3] is not None:
        out.append(label[2])
        label = label[3]
    out.reverse()
    return tuple(out)


def _bound_order_row(nearest_row, w, bound_row):
    """nearest_row's entries as (w * d + bound_row[v], v, low, w * d),
    sorted: the key is the left side of a candidate's first test, for a
    parent with w vertices dark whose bound row (H[r], or G[r] while the
    source is dark) is bound_row."""
    return sorted([(w * d + bound_row[v], v, low, w * d) for d, v, low in nearest_row])


def _completion_cost(lab, limit, nearest, newly_lit, full) -> int:
    """The leg sum of lab's nearest-first completion, the rule of
    heuristics.greedy_complete, stepped from its value, mask, endpoint and
    dark count; the partial sum once it reaches limit, so the result is
    below limit exactly when the completion is.
    """
    cost, mask, cur, _, w = lab
    while mask != full and cost < limit:
        for d, v, low in nearest[cur]:
            if not mask & low:
                break
        cost += w * d
        mask |= low
        w -= newly_lit(v, mask)
        cur = v
    return cost


def solve(
    instance: Instance,
    config: Optional[SolverConfig] = None,
    index: Optional[PrecedenceIndex] = None,
) -> SolveReport:
    """Run the label search on a zero-duration instance.

    Exact mode returns a provably optimal route. Heuristic mode returns the
    best route found with proven_optimal False. The label cap is compared
    with stats["labels_total"], the labels built: the depot label and each
    level's new ones. It and the deadline are read before every parent
    label is expanded and between levels, so a capped run overshoots the
    cap by at most one parent's children (fewer than n labels). In both
    modes a passed limit ends the search with the incumbent, unproven: the
    descents' best tour (or, in heuristic mode, a better greedy
    completion). Neither limit is read once the last level is fully built,
    so a finished search returns its result under both. The descents stop
    at the deadline too, so at time_limit=0 the incumbent is the better
    greedy tour. EngineLimitError means only n > ENGINE_VERTEX_LIMIT.
    """
    cfg = config or SolverConfig()
    n = instance.n
    if n > ENGINE_VERTEX_LIMIT:
        raise EngineLimitError(
            f"instance has {n} fault vertices; the engine supports up to "
            f"{ENGINE_VERTEX_LIMIT}"
        )
    if any(instance.repair_duration):
        raise ValueError("repair durations must be absorbed before solving")
    if index is None:
        index = build_index(instance)

    t_start = time.perf_counter()
    deadline = t_start + cfg.time_limit if cfg.time_limit is not None else None

    full = (1 << n) - 1
    newly_lit = make_newly_lit(index)

    # The incumbent: the better (objective, then order) descent from the
    # two greedy tours. The nearest-first one is the empty prefix's
    # completion, by the rule the refresh also uses.
    incumbent = best_descent(
        instance,
        index,
        (
            greedy_complete(instance, index, ()).order,
            greedy_priority_distance(instance, index).order,
        ),
        deadline,
        newly_lit,
    )
    ub = incumbent.objective
    inc_order = incumbent.order

    # Per endpoint, (travel time, vertex, mask bit) of the other fault
    # vertices, nearest first with ties to the smaller label: the walk
    # table's scans, the label search and the refresh read these rows.
    nearest = nearest_rows(instance.travel)
    walks = build_walk_table(instance, index, nearest)
    minout = walks.minout
    src_bit = 1 << (index.source - 1)
    theta_pct = cfg.theta_pct
    delta_pct = cfg.delta_pct
    dominance = cfg.use_dominance

    # Labels are keyed by configuration, so a new label meets the one it
    # dominates or loses to. With dominance off every label gets its own
    # key, the running count of labels created in its level.
    frontier: Dict[int, Label] = {0: (0, 0, 0, None, n)}

    labels_cap = cfg.labels_cap
    # With neither limit set, no parent needs stop_reason.
    limited = labels_cap is not None or deadline is not None

    def stop_reason(labels):
        """Why the search stops with this many labels built: "labels_cap"
        once they exceed the cap, else "time_limit" once the deadline has
        passed, else None."""
        if labels_cap is not None and labels > labels_cap:
            return "labels_cap"
        if deadline is not None and time.perf_counter() > deadline:
            return "time_limit"
        return None

    # The labels built: the depot label, then each level's new ones.
    labels_total = 1
    level_stats: List[Dict[str, int]] = []
    u_trajectory = [ub]
    stop = None
    # The previous refresh's ranked labels by id, each held alive with its
    # nearest-first next vertex.
    last_ranked: Dict[int, Tuple[Label, int]] = {}

    for level in range(n):
        # The level's acceptance threshold and the walk bound's rows for
        # the r legs left after the candidate (see bounds.WalkTable).
        cut = (theta_pct + level * delta_pct) * ub // 100
        r = n - level - 1
        h_r = walks.H[r]
        g_r = walks.G[r]
        # The rows' floors for the early exit (G[r][source] is
        # H[r][source], so g_floor also covers the leg into the source).
        h_floor = min(h_r[1:])
        g_floor = min(g_r[1:])
        # A wide level's bound-order rows, built as its parents need them;
        # None on a narrow level.
        ordered = {} if len(frontier) > _WIDE_LEVEL * n * n else None
        # Counters stay in locals: a dict update per candidate is not free.
        created = dominated = expanded = 0
        nxt: Dict[int, Label] = {}
        for lab in frontier.values():
            if limited and (stop := stop_reason(labels_total + created)):
                break
            expanded += 1
            value, mask, endpoint, _, w = lab
            # While the source is dark, so is every vertex: w == n. Its row
            # may bound the leg into the source too, as G[r][source] is
            # H[r][source].
            source_dark = mask & src_bit == 0
            bound_row = g_r if source_dark else h_r
            room = cut - value
            if ordered is not None:
                # A row's key is its candidate's first test, so every
                # candidate past the first key above room fails it.
                # (endpoint, w) fixes the row: w == n exactly while the
                # source is dark.
                slot = w * (n + 1) + endpoint
                row = ordered.get(slot)
                if row is None:
                    row = ordered[slot] = _bound_order_row(
                        nearest[endpoint], w, bound_row
                    )
                for first, v, low, leg in row:
                    if first > room:
                        break
                    if mask & low:
                        continue
                    new_mask = mask | low
                    if source_dark and low != src_bit:
                        new_w = w
                    else:
                        new_w = w - newly_lit(v, new_mask)
                        if first + (new_w - r) * minout[v] > room:
                            continue
                    new_value = value + leg
                    key = (new_mask << 6) | v if dominance else created
                    old = nxt.get(key)
                    if old is None:
                        nxt[key] = (new_value, new_mask, v, lab, new_w)
                        created += 1
                        continue
                    # The same pick as a nearest-first scan makes below.
                    dominated += 1
                    if new_value < old[0] or (
                        new_value == old[0]
                        and _forward_order(lab) < _forward_order(old[3])
                    ):
                        nxt[key] = (new_value, new_mask, v, lab, new_w)
                continue
            # A leg longer than reach fails the first test on the row's
            # floor alone, and the list runs nearest first.
            reach = (room - (g_floor if source_dark else h_floor)) // w
            for d, v, low in nearest[endpoint]:
                if d > reach:
                    break
                if mask & low:
                    continue
                leg = w * d
                first = leg + bound_row[v]
                if first > room:
                    continue
                new_mask = mask | low
                if source_dark and low != src_bit:
                    new_w = w
                else:
                    new_w = w - newly_lit(v, new_mask)
                    if first + (new_w - r) * minout[v] > room:
                        continue
                new_value = value + leg
                key = (new_mask << 6) | v if dominance else created
                old = nxt.get(key)
                if old is None:
                    nxt[key] = (new_value, new_mask, v, lab, new_w)
                    created += 1
                    continue
                # Both end at v, so on a value tie the parents' orders
                # decide which order is smaller.
                dominated += 1
                if new_value < old[0] or (
                    new_value == old[0]
                    and _forward_order(lab) < _forward_order(old[3])
                ):
                    nxt[key] = (new_value, new_mask, v, lab, new_w)
        frontier = nxt
        # Each parent has n - level candidates; those not built or
        # dominated failed the bound test, the skipped ones included.
        pruned_bound = (n - level) * expanded - created - dominated

        labels_total += created
        level_stats.append({
            "level": level + 1,
            "fwd_created": created,
            "fwd_dominated": dominated,
            "fwd_pruned_bound": pruned_bound,
            **(_UNCOUNTED if level else {**_UNCOUNTED, "bwd_created": n}),
        })
        # A fully built last level is the finished search: no limit is read
        # after it, so a cap or deadline crossed by its final labels cannot
        # discard it. Its labels are complete tours, so the final pick, not a
        # refresh, compares them, and that pick's result ends u_trajectory.
        if stop or level + 1 == n or (stop := stop_reason(labels_total)):
            break

        # Heuristic mode refreshes the incumbent from the best new labels,
        # compared as tuples (with dominance off, equal (value, mask,
        # endpoint) falls to the parents): score each nearest-first
        # completion, stopping once it reaches ub or the level's best, so
        # only a completion that beats the incumbent can win; a ranked
        # parent's nearest-first child is not scored. Exact mode keeps its
        # start incumbent, which the refresh barely lowered.
        if cfg.mode == HEURISTIC:
            best_cost, winner = ub, None
            ranked = {}
            for lab in heapq.nsmallest(UB_REFRESH_WIDTH, frontier.values()):
                mask, endpoint, parent = lab[1:4]
                for _, v, low in nearest[endpoint]:
                    if not mask & low:
                        break
                ranked[id(lab)] = lab, v
                # A ranked parent's nearest-first child completes to the
                # parent's tour, which the last refresh found no lower
                # than its best, the ub this one starts from: it cannot win.
                known = last_ranked.get(id(parent))
                if known is not None and known[1] == endpoint:
                    continue
                cost = _completion_cost(lab, best_cost, nearest, newly_lit, full)
                if cost < best_cost:
                    best_cost, winner = cost, lab
            last_ranked = ranked
            if winner is not None:
                # Only a winner is built and evaluated, which cross-checks
                # the score against evaluate_route; it becomes the incumbent.
                route = greedy_complete(
                    instance, index, _forward_order(winner)
                )
                if route.objective != best_cost:
                    raise RuntimeError(
                        "internal error: scored completion does not "
                        f"re-evaluate ({best_cost} vs {route.objective})"
                    )
                ub = route.objective
                inc_order = route.order

        u_trajectory.append(ub)
        if not frontier:
            # Relaxed acceptance has pruned every path; no later level can
            # build a label, so the incumbent is the result.
            break

    # Each label left has visited every vertex, and the leg back into the
    # depot costs nothing, so its value is the tour's. The result is the
    # least (objective, order) among these tours and the incumbent.
    tours = []
    if stop is None:
        tours = [(lab[0], _forward_order(lab)) for lab in frontier.values()]
        if cfg.mode == EXACT:
            if not tours:
                raise RuntimeError("internal error: exact search built no complete tour")
            if min(tours)[0] > ub:
                raise RuntimeError(
                    "internal error: exact search ended worse than the incumbent"
                )
    final_obj, final_order = min([(ub, inc_order), *tours])
    if len(level_stats) == n and stop is None:
        u_trajectory.append(final_obj)

    route = evaluate_route(instance, index, final_order)
    if route.objective != final_obj:
        raise RuntimeError(
            "internal error: reported objective does not re-evaluate "
            f"({final_obj} vs {route.objective})"
        )

    wall = time.perf_counter() - t_start
    stats = {
        "n": n,
        "mode": cfg.mode,
        "theta": cfg.theta,
        "delta": cfg.delta,
        "initial_upper_bound": u_trajectory[0],
        "u_trajectory": u_trajectory,
        "levels": level_stats,
        "labels_total": labels_total,
        "join_candidates": len(tours),
        "time_limit_reached": stop == "time_limit",
        "labels_cap_reached": stop == "labels_cap",
        "wall_time_sec": wall,
    }
    proven = cfg.mode == EXACT and stop is None
    return SolveReport(
        route=route, objective=route.objective, proven_optimal=proven, stats=stats
    )
