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
screened against the outgoing-path lower bound of bounds.BoundsTable
relative to the incumbent upper bound, which is refreshed each level by
greedily completing the best labels. The per-vertex position thresholds of
bounds.compute_beta are not applied during the search; they form the
threshold table `prtrp bounds` prints.

Exact mode keeps every label whose bound ties the incumbent and returns a
provably optimal tour. Heuristic mode tightens acceptance to a fraction
(theta + level * delta) of the incumbent, trading the guarantee for speed;
once it has pruned every path, the incumbent is the result.
"""

from __future__ import annotations

import heapq
import math
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

# Columns of stats["levels"] the forward search never counts. They keep the
# paper's position-threshold and backward counters because perfbench/run.py
# reads them; level 1 overrides bwd_created with the n return legs.
_UNCOUNTED = {
    "fwd_pruned_beta": 0,
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
    comparison stays in exact integers. Exact mode requires theta=1 and
    delta=0.
    use_dominance and use_path_bounds switch the two prunings off, which
    leaves an unpruned reference search for tests. labels_cap and
    time_limit (seconds, 0 allowed) stop the search; None means no limit.
    """

    mode: str = EXACT
    theta: float = 1.0
    delta: float = 0.0
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
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ValueError(f"delta must be a finite number >= 0, got {self.delta}")
        if self.mode == EXACT and (self.theta_pct != 100 or self.delta_pct != 0):
            raise ValueError("exact mode requires theta=1 and delta=0")
        if self.ub_refresh_width < 0:
            raise ValueError("ub_refresh_width must be >= 0")
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

    Exact mode returns a provably optimal route. Heuristic mode returns the
    best route found with proven_optimal False. A passed time limit falls
    back to the incumbent greedy-completed route; so does a passed label cap
    in heuristic mode, while exact mode raises EngineLimitError.
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

    # Pre-processing: greedy incumbent.
    incumbent = min(
        (greedy_distance(instance, index), greedy_priority_distance(instance, index)),
        key=lambda rt: (rt.objective, rt.order),
    )
    ub = incumbent.objective
    inc_order = incumbent.order

    table = build_bounds_table(instance, index)
    s1 = table.sorted_arcs[0]
    out_tail = table.outgoing_tail
    theta_pct = cfg.theta_pct
    delta_pct = cfg.delta_pct
    use_bounds = cfg.use_path_bounds
    dominance = cfg.use_dominance

    # Labels are keyed by configuration, so a new label meets the one it
    # dominates or loses to. With dominance off every label gets its own
    # key, the running count of labels created in its level.
    frontier: Dict[int, Label] = {0: _DEPOT_LABEL}

    labels_cap = cfg.labels_cap

    def limit_reached(labels, clock=True):
        """True once labels exceed the cap or, when clock is set, the
        deadline has passed; records which in cap_hit / timed_out."""
        nonlocal cap_hit, timed_out
        if labels_cap is not None and labels > labels_cap:
            cap_hit = True
        elif clock and deadline is not None and time.perf_counter() > deadline:
            timed_out = True
        return cap_hit or timed_out

    # The n return legs into the depot are reported as level 1's backward
    # labels. labels_total also counts the depot label once per direction.
    return_legs = {**_UNCOUNTED, "bwd_created": n}
    labels_total = 2 + n
    level_stats: List[Dict[str, int]] = []
    u_trajectory = [ub]
    timed_out = False
    cap_hit = False

    for level in range(n):
        threshold = (theta_pct + level * delta_pct) * ub
        # Counters stay in locals: a dict update per candidate is not free.
        created = dominated = pruned_bound = 0
        nxt: Dict[int, Label] = {}
        tail = out_tail[level + 1]
        for i, lab in enumerate(frontier.values()):
            if not i % LIMIT_CHECK_EVERY and limit_reached(labels_total + created):
                break
            value, mask, endpoint, _ = lab
            w = wcount(mask)
            row = travel[endpoint]
            rem = full ^ mask
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
                key = (new_mask << 6) | v if dominance else created
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
            **(return_legs if level == 0 else _UNCOUNTED),
        })
        # A fully built last level is the finished search: the clock is not
        # read there, so a deadline passing now cannot discard it.
        if limit_reached(labels_total, clock=level + 1 < n):
            if cap_hit and cfg.mode == EXACT:
                raise EngineLimitError(
                    f"label cap {labels_cap} exceeded at level {level + 1} "
                    f"({labels_total} labels); raise the cap or use heuristic mode"
                )
            break

        # Refresh the incumbent by greedily completing the best new labels.
        if cfg.ub_refresh_width > 0 and frontier:
            best_labels = heapq.nsmallest(
                cfg.ub_refresh_width, frontier.values(), key=lambda lb: lb[0]
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

    # Each label left has visited every vertex, and the leg back into the
    # depot costs nothing, so its value is the tour's. join_candidates
    # counts the complete tours compared.
    best: Optional[Tuple[int, Tuple[int, ...]]] = None
    join_candidates = 0
    if not timed_out and not cap_hit:
        for lab in frontier.values():
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
