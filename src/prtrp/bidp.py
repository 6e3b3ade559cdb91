"""Label-extension solver.

The paper's method grows outgoing paths from the depot and return paths
into it, level by level, and joins the two at the midpoint. Here the
outgoing side takes all n levels: the return-path bound is too weak to hold
a deep backward frontier down (at n=16 it built 3-27 times as many labels
as the outgoing side), and the one return leg that is left, from the last
vertex into the depot, costs nothing because every vertex is then repaired.
A label is keyed by its configuration (visited mask, endpoint); within one
level only the best value per configuration survives, since any completion
of one path completes every path sharing its configuration. New labels are
screened against path lower bounds relative to the incumbent upper bound,
which is refreshed each level by greedily completing the best labels. The
per-vertex position thresholds of bounds.compute_beta are not applied
during the search; they form the threshold table `prtrp bounds` prints.

Exact mode keeps every label whose bound ties the incumbent and returns a
provably optimal tour. Heuristic mode tightens acceptance to a fraction
(theta + level * delta) of the incumbent, trading the guarantee for speed,
and may cap the source's position by the greedy tours; once it has pruned
every path, the incumbent is the result.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .bounds import build_bounds_table
from .errors import EngineLimitError
from .heuristics import greedy_complete, greedy_distance, greedy_priority_distance
from .instance import Instance, Route
from .power_eval import (
    PrecedenceIndex,
    build_index,
    check_partial,
    disrupted_count,
    evaluate_route,
    make_disrupted_counter,
)

EXACT = "exact"
HEURISTIC = "heuristic"

# Parent labels expanded between two checks of the label cap and the
# deadline inside a level.
LIMIT_CHECK_EVERY = 256

# Masks are machine words with bit v-1 per vertex; 6 low bits of a store key
# hold the endpoint, so 63 fault vertices is the hard ceiling.
ENGINE_VERTEX_LIMIT = 63

# A label is (value, visited_mask, endpoint, parent_label); the endpoint is
# the last vertex reached.
Label = Tuple[int, int, int, Optional[tuple]]
_DEPOT_LABEL: Label = (0, 0, 0, None)

# Backward counters of a level that builds no return legs. stats["levels"]
# keeps the paper's forward and backward columns; perfbench/run.py reads
# both.
_NO_RETURN_LEGS = {
    "bwd_created": 0,
    "bwd_dominated": 0,
    "bwd_pruned_bound": 0,
    "bwd_pruned_beta": 0,
}


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    theta/delta drive the dynamic acceptance threshold: a label survives
    when its lower bound is at most (theta + level * delta) times the
    incumbent upper bound. They are held to percent resolution so the
    comparison stays in exact integers. use_heuristic_source_beta keeps
    the source out of every position past heuristic_source_beta. Exact
    mode requires theta=1, delta=0 and no heuristic source position.
    use_dominance and use_path_bounds switch the two prunings off, which
    leaves an unpruned reference search for tests.
    """

    mode: str = EXACT
    theta: float = 1.0
    delta: float = 0.0
    use_heuristic_source_beta: bool = False
    ub_refresh_width: int = 32
    use_dominance: bool = True
    use_path_bounds: bool = True
    labels_cap: Optional[int] = None
    time_limit: Optional[float] = None

    def __post_init__(self):
        if self.mode not in (EXACT, HEURISTIC):
            raise ValueError(f"mode must be {EXACT!r} or {HEURISTIC!r}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if self.delta < 0.0:
            raise ValueError("delta must be non-negative")
        if self.mode == EXACT and (
            self.theta_pct != 100 or self.delta_pct != 0 or self.use_heuristic_source_beta
        ):
            raise ValueError(
                "exact mode requires theta=1, delta=0 and no heuristic source position"
            )
        if self.ub_refresh_width < 0:
            raise ValueError("ub_refresh_width must be >= 0")

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


def forward_value(
    instance: Instance, index: PrecedenceIndex, order: Sequence[int]
) -> int:
    """Disruption accumulated by the outgoing path depot -> order[-1].

    Each leg costs its travel time multiplied by the number of dark
    vertices before the leg's destination is repaired; the first leg always
    counts all n.
    """
    check_partial(instance.n, order)
    travel = instance.travel
    value = 0
    mask = 0
    prev = 0
    for v in order:
        value += disrupted_count(index, mask) * travel[prev][v]
        mask |= 1 << (v - 1)
        prev = v
    return value


def backward_value(
    instance: Instance, index: PrecedenceIndex, order: Sequence[int]
) -> int:
    """Disruption accumulated by the return path order[0] -> ... -> depot.

    Vertices not on the path count as already repaired, so the value only
    depends on the path itself. The final leg into the depot has everything
    repaired and costs nothing.
    """
    check_partial(instance.n, order)
    travel = instance.travel
    full = (1 << instance.n) - 1
    repaired = full
    for v in order:
        repaired &= ~(1 << (v - 1))
    value = 0
    for a in range(len(order) - 1):
        repaired |= 1 << (order[a] - 1)
        value += disrupted_count(index, repaired) * travel[order[a]][order[a + 1]]
    return value


def heuristic_source_beta(
    instance: Instance,
    index: PrecedenceIndex,
    tours: Optional[Sequence[Route]] = None,
) -> int:
    """Largest 1-based position the source takes in the two greedy tours.

    tours are the greedy-distance and greedy-priority-distance routes when
    the caller has them already; they are built here otherwise. Used as an
    optional cap on the source's admissible positions; it can cut off
    optima, which is why only heuristic mode may apply it.
    """
    if tours is None:
        tours = (
            greedy_distance(instance, index),
            greedy_priority_distance(instance, index),
        )
    return max(route.order.index(instance.source) for route in tours) + 1


def _forward_order(label: Label) -> Tuple[int, ...]:
    """Outgoing order depot -> endpoint encoded by a forward label chain."""
    out = []
    while label[3] is not None:
        out.append(label[2])
        label = label[3]
    out.reverse()
    return tuple(out)


def solve(
    instance: Instance,
    config: Optional[SolverConfig] = None,
    index: Optional[PrecedenceIndex] = None,
) -> SolveReport:
    """Run the label search on a zero-duration instance.

    Exact mode returns a provably optimal route. Heuristic mode (theta < 1,
    delta > 0 or the heuristic source position cap) returns the best route
    found with proven_optimal False. A passed time limit falls back to the
    incumbent greedy-completed route; so does a passed label cap in
    heuristic mode, while exact mode raises EngineLimitError.
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

    travel = instance.travel
    full = (1 << n) - 1
    wcount = make_disrupted_counter(index)

    # Pre-processing: greedy incumbent and the optional source cap.
    gid = greedy_distance(instance, index)
    gipd = greedy_priority_distance(instance, index)
    incumbent = min((gid, gipd), key=lambda rt: (rt.objective, rt.order))
    ub = incumbent.objective
    inc_order = incumbent.order

    source_cap = n
    if cfg.use_heuristic_source_beta:
        source_cap = heuristic_source_beta(instance, index, (gid, gipd))
    source_bit = 1 << (instance.source - 1)

    table = build_bounds_table(instance, index)
    s1 = table.sorted_arcs[0]
    out_tail = table.outgoing_tail
    theta_pct = cfg.theta_pct
    delta_pct = cfg.delta_pct
    use_bounds = cfg.use_path_bounds
    dominance = cfg.use_dominance

    if dominance:
        frontier: Dict[int, object] = {0: _DEPOT_LABEL}
    else:
        frontier = {0: [_DEPOT_LABEL]}

    def store_labels(store):
        if dominance:
            return store.values()
        return (lab for bucket in store.values() for lab in bucket)

    def allowed_at(position, store):
        """Mask of the vertices a label may add at a tour position, and the
        number of source-cap prunes: one per label that lacks the source
        once the position is past the cap."""
        if position <= source_cap:
            return full, 0
        return full ^ source_bit, sum(
            1 for lab in store_labels(store) if not lab[1] & source_bit
        )

    labels_cap = cfg.labels_cap

    def limit_reached(labels):
        """True once labels exceed the cap or the deadline has passed;
        records which in cap_hit / timed_out."""
        nonlocal cap_hit, timed_out
        if labels_cap is not None and labels > labels_cap:
            cap_hit = True
        elif deadline is not None and time.perf_counter() > deadline:
            timed_out = True
        return cap_hit or timed_out

    # The return legs into the depot, one from each vertex that may come
    # last, are reported as level 1's backward labels. labels_total also
    # counts the depot label once per direction.
    return_legs = dict(_NO_RETURN_LEGS)
    return_legs["bwd_created"], return_legs["bwd_pruned_beta"] = (
        (n, 0) if n <= source_cap else (n - 1, 1)
    )
    labels_total = 2 + return_legs["bwd_created"]
    level_stats: List[Dict[str, int]] = []
    u_trajectory = [ub]
    timed_out = False
    cap_hit = False

    for level in range(n):
        threshold = (theta_pct + level * delta_pct) * ub
        # Counters stay in locals: a dict update per candidate is not free.
        created = dominated = pruned_bound = 0
        nxt: Dict[int, object] = {}
        allowed, pruned_beta = allowed_at(level + 1, frontier)
        tail = out_tail[level + 1]
        for i, lab in enumerate(store_labels(frontier)):
            if not i % LIMIT_CHECK_EVERY and limit_reached(labels_total + created):
                break
            value, mask, endpoint, _ = lab
            w = wcount(mask)
            row = travel[endpoint]
            rem = allowed & ~mask
            while rem:
                low = rem & -rem
                rem ^= low
                v = low.bit_length()
                new_mask = mask | low
                new_value = value + w * row[v]
                if use_bounds and (
                    new_value + wcount(new_mask) * s1 + tail
                ) * 100 > threshold:
                    pruned_bound += 1
                    continue
                key = (new_mask << 6) | v
                if not dominance:
                    nxt.setdefault(key, []).append((new_value, new_mask, v, lab))
                    created += 1
                    continue
                old = nxt.get(key)
                if old is None:
                    nxt[key] = (new_value, new_mask, v, lab)
                    created += 1
                    continue
                # Both end at v, so on a value tie the parents' orders
                # decide which order is smaller.
                dominated += 1
                if new_value < old[0] or (
                    new_value == old[0]
                    and _forward_order(lab) < _forward_order(old[3])
                ):
                    nxt[key] = (new_value, new_mask, v, lab)
        frontier = nxt

        labels_total += created
        level_stats.append({
            "level": level + 1,
            "fwd_created": created,
            "fwd_dominated": dominated,
            "fwd_pruned_bound": pruned_bound,
            "fwd_pruned_beta": pruned_beta,
            **(return_legs if level == 0 else _NO_RETURN_LEGS),
        })
        if labels_cap is not None and labels_total > labels_cap:
            cap_hit = True
        if cap_hit and cfg.mode == EXACT:
            raise EngineLimitError(
                f"label cap {labels_cap} exceeded at level {level + 1} "
                f"({labels_total} labels); raise the cap or use heuristic mode"
            )
        if cap_hit or timed_out:
            break

        # Refresh the incumbent by greedily completing the best new labels.
        if cfg.ub_refresh_width > 0 and frontier:
            best_labels = heapq.nsmallest(
                cfg.ub_refresh_width, store_labels(frontier), key=lambda lb: lb[0]
            )
            for lab in best_labels:
                route = greedy_complete(instance, index, _forward_order(lab))
                if route.objective < ub:
                    ub = route.objective
                    inc_order = route.order

        u_trajectory.append(ub)
        if not frontier:
            # Relaxed acceptance has pruned every path; no later level can
            # build a label, so the incumbent is the result.
            break
        if deadline is not None and time.perf_counter() > deadline:
            timed_out = True
            break

    # Each label left has visited every vertex, and the leg back into the
    # depot costs nothing, so its value is the tour's. join_candidates
    # counts the complete tours compared.
    best: Optional[Tuple[int, Tuple[int, ...]]] = None
    join_candidates = 0
    if not timed_out and not cap_hit:
        for lab in store_labels(frontier):
            join_candidates += 1
            if best is None or lab[0] < best[0] or (
                lab[0] == best[0] and _forward_order(lab) < best[1]
            ):
                best = (lab[0], _forward_order(lab))
        if cfg.mode == EXACT:
            if best is None:
                raise RuntimeError("internal error: exact search built no complete tour")
            if best[0] > ub:
                raise RuntimeError(
                    "internal error: exact search ended worse than the incumbent"
                )

    if best is None or (ub, inc_order) < best:
        final_obj, final_order = ub, inc_order
    else:
        final_obj, final_order = best

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
        "join_candidates": join_candidates,
        "time_limit_reached": timed_out,
        "labels_cap_reached": cap_hit,
        "wall_time_sec": wall,
    }
    proven = cfg.mode == EXACT and not timed_out and not cap_hit
    return SolveReport(
        route=route, objective=route.objective, proven_optimal=proven, stats=stats
    )
