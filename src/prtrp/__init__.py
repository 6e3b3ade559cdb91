"""Single-crew repair routing on a radial power distribution network.

Exact labeling dynamic programming with proved pruning, greedy and
relaxed-bound heuristic modes, brute-force reference solvers, and
mixed-integer model export.
"""

from .bidp import EXACT, HEURISTIC, SolveReport, SolverConfig, solve
from .bounds import (
    BoundsTable,
    WalkTable,
    build_bounds_table,
    build_walk_table,
    compute_beta,
)
from .errors import EngineLimitError
from .heuristics import greedy_complete, greedy_distance, greedy_priority_distance
from .instance import (
    Instance,
    Route,
    absorb_repair_durations,
    extract_subtree,
    generate_random,
    generate_star_reduction,
    make_instance,
    validate,
)
from .mip_export import MipModel, build_model, check_assignment, encode_route, write_lp_text
from .oracle import brute_force, held_karp_forward
from .power_eval import (
    PrecedenceIndex,
    build_index,
    disrupted_count,
    evaluate_route,
    make_newly_lit,
)

__all__ = [
    "EXACT",
    "HEURISTIC",
    "BoundsTable",
    "EngineLimitError",
    "Instance",
    "MipModel",
    "PrecedenceIndex",
    "Route",
    "SolveReport",
    "SolverConfig",
    "WalkTable",
    "absorb_repair_durations",
    "brute_force",
    "build_bounds_table",
    "build_index",
    "build_model",
    "build_walk_table",
    "check_assignment",
    "compute_beta",
    "disrupted_count",
    "encode_route",
    "evaluate_route",
    "extract_subtree",
    "generate_random",
    "generate_star_reduction",
    "greedy_complete",
    "greedy_distance",
    "greedy_priority_distance",
    "held_karp_forward",
    "make_instance",
    "make_newly_lit",
    "solve",
    "validate",
    "write_lp_text",
]

__version__ = "0.1.0"
