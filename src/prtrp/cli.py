"""Command-line interface.

Subcommands: solve, bench, generate, bounds, export-mip, check-mip,
evaluate. Instances travel as JSON files in the documented contract; solve
results are JSON on stdout and bench results are CSV. Exit codes: 0 ok,
2 unusable input (missing file or failed validation, report on stderr),
3 engine limit exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import bidp, bounds, heuristics, instance as inst_mod, mip_export, oracle
from .errors import EngineLimitError
from .instance import Instance
from .power_eval import build_index, evaluate_route

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_ENGINE_LIMIT = 3


def _load_instance(path: str) -> Instance:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"instance file not found: {path}")
    loaded = inst_mod.load(p)
    bad = inst_mod.validate(loaded)
    if bad:
        raise ValueError(
            "instance failed validation:\n" + "\n".join(f"- {b}" for b in bad)
        )
    return loaded


def _solver_config(args, method: str) -> bidp.SolverConfig:
    # Built in heuristic mode first, so that a bad value is reported under
    # its own field before theta and delta are rounded to percent.
    config = bidp.SolverConfig(
        mode=bidp.HEURISTIC,
        theta=getattr(args, "theta", 1.0),
        delta=getattr(args, "delta", 0.0),
        ub_refresh_width=getattr(args, "ub_refresh", 32),
        labels_cap=getattr(args, "labels_cap", None),
        time_limit=getattr(args, "time_limit", None),
    )
    exact = method == "bidp" and config.theta_pct == 100 and config.delta_pct == 0
    return dataclasses.replace(config, mode=bidp.EXACT) if exact else config


def _run_method(inst: Instance, method: str, config: bidp.SolverConfig):
    """Solve with one method; returns (route, proven_optimal, stats)."""
    work = inst_mod.absorb_repair_durations(inst)
    index = build_index(work)
    if method == "bidp":
        report = bidp.solve(work, config, index)
        return report.route, report.proven_optimal, report.stats
    if method == "gid":
        return heuristics.greedy_distance(work, index), False, {}
    if method == "gipd":
        return heuristics.greedy_priority_distance(work, index), False, {}
    if method == "brute":
        return oracle.brute_force(work, index), True, {}
    if method == "hk":
        return oracle.held_karp_forward(work), True, {}
    raise ValueError(f"unknown method {method!r}")


def _recheck(inst: Instance, route) -> None:
    # Every emitted objective is recomputed from scratch before printing.
    work = inst_mod.absorb_repair_durations(inst)
    again = evaluate_route(work, build_index(work), route.order)
    if again.objective != route.objective:
        raise RuntimeError(
            "internal error: emitted objective does not re-evaluate "
            f"({route.objective} vs {again.objective})"
        )


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    config = _solver_config(args, args.method)
    start = time.perf_counter()
    route, proven, stats = _run_method(inst, args.method, config)
    wall = time.perf_counter() - start
    _recheck(inst, route)
    record = {
        "instance": inst.name,
        "n": inst.n,
        "method": args.method,
        "objective": route.objective,
        "order": list(route.order),
        "r": list(route.r),
        "proven_optimal": proven,
        "wall_time_sec": None if args.no_timing else round(wall, 6),
        "config": {
            "theta": config.theta,
            "delta": config.delta,
            "ub_refresh": config.ub_refresh_width,
            "labels_cap": config.labels_cap,
            "time_limit": config.time_limit,
        },
        "stats": _strip_timing(stats) if args.no_timing else stats,
    }
    print(json.dumps(record, indent=2))
    return EXIT_OK


def _strip_timing(stats: Dict[str, object]) -> Dict[str, object]:
    return {k: v for k, v in stats.items() if k != "wall_time_sec"}


def _parse_method_token(token: str) -> Tuple[str, str, Dict[str, object]]:
    """Parse a bench method token: name[:theta[:delta]]."""
    parts = token.split(":")
    name = parts[0]
    if name not in ("bidp", "gid", "gipd", "brute", "hk"):
        raise ValueError(f"unknown method {name!r} in token {token!r}")
    opts: Dict[str, object] = {"theta": 1.0, "delta": 0.0}
    rest = parts[1:]
    if rest:
        opts["theta"] = float(rest[0])
    if len(rest) > 1:
        opts["delta"] = float(rest[1])
    if len(rest) > 2:
        raise ValueError(f"bad method token {token!r}")
    return token, name, opts


def _bench_instances(args) -> List[Instance]:
    if args.dir:
        directory = Path(args.dir)
        if not directory.is_dir():
            raise FileNotFoundError(f"instance directory not found: {args.dir}")
        paths = sorted(directory.glob("*.json"))
        if not paths:
            raise ValueError(f"no *.json instance files in {args.dir}")
        return [_load_instance(str(p)) for p in paths]
    if not args.n:
        raise ValueError("bench needs --dir or --n/--count/--seed")
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    out = []
    for n in args.n:
        for k in range(args.count):
            seed = args.seed + k
            if args.family == "star":
                base = inst_mod.generate_random(n, seed, args.coord_range)
                made = inst_mod.generate_star_reduction(
                    base.travel, name=f"star-n{n}-s{seed}"
                )
            else:
                made = inst_mod.generate_random(n, seed, args.coord_range)
            out.append(made)
    return out


def cmd_bench(args) -> int:
    # The limits every method shares are checked once: a bad one is an
    # input error, not a failure of each row.
    _solver_config(args, "bidp")
    instances = _bench_instances(args)
    tokens = [_parse_method_token(t) for t in args.methods.split(",")]

    rows = []
    results: Dict[str, Dict[str, Optional[int]]] = {}
    for inst in instances:
        results[inst.name] = {}
        for token, name, opts in tokens:
            ns = argparse.Namespace(
                theta=opts["theta"],
                delta=opts["delta"],
                ub_refresh=args.ub_refresh,
                labels_cap=args.labels_cap,
                time_limit=args.time_limit,
            )
            start = time.perf_counter()
            try:
                config = _solver_config(ns, name)
                route, proven, _ = _run_method(inst, name, config)
                wall = time.perf_counter() - start
                _recheck(inst, route)
                results[inst.name][token] = route.objective
                rows.append(
                    [inst.name, inst.n, token, route.objective, wall, proven, ""]
                )
            except (EngineLimitError, ValueError) as exc:
                results[inst.name][token] = None
                rows.append([inst.name, inst.n, token, "", None, "", str(exc)])

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["instance", "n", "method", "z", "t_sec", "gap_pct", "proven_optimal", "error"]
    )
    gaps: Dict[str, List[float]] = {token: [] for token, _, _ in tokens}
    for name, n, token, z, wall, proven, err in rows:
        best = min(
            (v for v in results[name].values() if v is not None), default=None
        )
        gap = ""
        if z != "" and best:
            pct = 100.0 * (z - best) / best
            gaps[token].append(pct)
            gap = f"{pct:.2f}"
        elif z != "" and best == 0:
            gaps[token].append(0.0)
            gap = "0.00"
        tcell = "" if args.no_timing or wall is None else f"{wall:.3f}"
        writer.writerow([name, n, token, z, tcell, gap, str(proven).lower(), err])
    for token, _, _ in tokens:
        vals = gaps[token]
        if not vals:
            continue
        avg = sum(vals) / len(vals)
        for label, value in (
            ("Avg. Deviation", avg),
            ("Min. Deviation", min(vals)),
            ("Max. Deviation", max(vals)),
        ):
            writer.writerow([label, "", token, "", "", f"{value:.2f}", "", ""])
    sys.stdout.write(out.getvalue())
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.subtree:
        if args.root is None:
            raise ValueError("generate --subtree needs --root")
        base = _load_instance(args.subtree)
        made = inst_mod.extract_subtree(base, args.root)
    elif args.family == "star":
        if args.n is None or args.seed is None:
            raise ValueError("generate needs --n and --seed")
        base = inst_mod.generate_random(args.n, args.seed, args.coord_range)
        made = inst_mod.generate_star_reduction(
            base.travel, name=f"star-n{args.n}-s{args.seed}"
        )
    else:
        if args.n is None or args.seed is None:
            raise ValueError("generate needs --n and --seed")
        made = inst_mod.generate_random(args.n, args.seed, args.coord_range)

    bad = inst_mod.validate(made)
    if bad:
        raise RuntimeError("generated instance failed validation: " + "; ".join(bad))
    out = Path(args.output) if args.output else Path(".")
    path = out / f"{made.name}.json" if out.is_dir() else out
    inst_mod.save(made, path)
    print(path)
    return EXIT_OK


def cmd_bounds(args) -> int:
    inst = _load_instance(args.instance)
    work = inst_mod.absorb_repair_durations(inst)
    index = build_index(work)
    table = bounds.build_bounds_table(work, index)
    if args.ub is not None:
        ub = args.ub
    else:
        gid = heuristics.greedy_distance(work, index)
        gipd = heuristics.greedy_priority_distance(work, index)
        ub = min(gid.objective, gipd.objective)
    beta = bounds.compute_beta(table, ub)
    n = work.n
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["vertex", "successor_count", "beta"] + [f"L_k{k}" for k in range(1, n + 1)]
    )
    for i in range(1, n + 1):
        row: List[object] = [i, index.successor_count[i - 1], beta[i - 1]]
        for k in range(1, n + 1):
            if k > n - index.successor_count[i - 1]:
                row.append(bounds.position_lower_bound(table, i, k))
            else:
                row.append("")
        writer.writerow(row)
    return EXIT_OK


def cmd_export_mip(args) -> int:
    inst = _load_instance(args.instance)
    work = inst_mod.absorb_repair_durations(inst)
    model = mip_export.build_model(work, build_index(work), big_m=args.big_m)
    text = mip_export.write_lp_text(model)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(args.output)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _numbers(values, where: str) -> List[float]:
    """values as floats; ValueError unless a list of finite numbers."""
    if not isinstance(values, list):
        raise ValueError(f"{where} must be a list of numbers, got {values!r}")
    for i, v in enumerate(values):
        if type(v) not in (int, float) or not math.isfinite(v):
            raise ValueError(f"{where}[{i}] must be a finite number, got {v!r}")
    return [float(v) for v in values]


def _solution_arcs(x_raw, n: int) -> List[List[float]]:
    """x of a solution file as a dense (n+1)x(n+1) matrix.

    x is either that matrix or a list of used [i, j] arcs. A zero diagonal
    disambiguates the 2x2 case, where both shapes agree.
    """
    if not isinstance(x_raw, list):
        raise ValueError(f"x must be a matrix or a list of [i, j] arcs, got {x_raw!r}")
    if len(x_raw) == n + 1 and all(
        isinstance(row, list) and len(row) == n + 1 for row in x_raw
    ):
        x = [_numbers(row, f"x[{i}]") for i, row in enumerate(x_raw)]
        if all(abs(x[i][i]) < 0.5 for i in range(n + 1)):
            return x
    x = [[0.0] * (n + 1) for _ in range(n + 1)]
    for arc in x_raw:
        if not (
            isinstance(arc, list) and len(arc) == 2
            and all(type(v) is int and 0 <= v <= n for v in arc)
            and arc[0] != arc[1]
        ):
            raise ValueError(
                f"every arc in x must be a pair of distinct vertices in 0..{n}, "
                f"got {arc!r}"
            )
        x[arc[0]][arc[1]] = 1.0
    return x


def cmd_check_mip(args) -> int:
    sol_path = Path(args.solution)
    if not sol_path.is_file():
        raise FileNotFoundError(f"solution file not found: {args.solution}")
    data = json.loads(sol_path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("solution file must hold a JSON object")
    missing = [key for key in ("x", "t", "r") if key not in data]
    if missing:
        raise ValueError(f"solution file missing keys: {', '.join(missing)}")

    if args.instance:
        inst = _load_instance(args.instance)
    elif isinstance(data.get("instance"), str):
        inst = _load_instance(str(sol_path.parent / data["instance"]))
    elif isinstance(data.get("instance"), dict):
        inst = inst_mod.from_dict(data["instance"])
        bad = inst_mod.validate(inst)
        if bad:
            raise ValueError("inline instance failed validation: " + "; ".join(bad))
    else:
        raise ValueError("solution file does not name its instance")

    work = inst_mod.absorb_repair_durations(inst)
    index = build_index(work)
    model = mip_export.build_model(work, index)
    res = mip_export.check_assignment(
        model, work, index, _solution_arcs(data["x"], work.n),
        _numbers(data["t"], "t"), _numbers(data["r"], "r"),
    )
    print(
        json.dumps(
            {
                "feasible": res.feasible,
                "single_tour": res.single_tour,
                "order": list(res.order) if res.order else None,
                "objective": res.objective,
                "route_objective": res.route_objective,
                "violations": res.violations,
            },
            indent=2,
        )
    )
    return EXIT_OK if res.feasible else EXIT_FAILURE


def cmd_evaluate(args) -> int:
    inst = _load_instance(args.instance)
    work = inst_mod.absorb_repair_durations(inst)
    order = [int(v) for v in args.order.split(",")]
    route = evaluate_route(work, build_index(work), order)
    print(
        json.dumps(
            {
                "instance": inst.name,
                "order": list(route.order),
                "objective": route.objective,
                "r": list(route.r),
                "t": list(route.t),
            },
            indent=2,
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prtrp",
        description="Route one repair crew over a damaged radial power "
        "distribution network, minimizing total customer disruption time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--theta", type=float, default=1.0,
                       help="bound-acceptance fraction in (0,1], 1.0 = exact")
        p.add_argument("--delta", type=float, default=0.0,
                       help="per-level relaxation added to theta")
        p.add_argument("--ub-refresh", type=int, default=32, dest="ub_refresh",
                       help="greedy completions per level for the upper bound")
        p.add_argument("--labels-cap", type=int, default=None, dest="labels_cap",
                       help="abort when the label store exceeds this size")
        p.add_argument("--time-limit", type=float, default=None, dest="time_limit",
                       help="seconds before falling back to the incumbent")
        p.add_argument("--no-timing", action="store_true", dest="no_timing",
                       help="omit wall times for byte-stable output")

    p_solve = sub.add_parser("solve", help="solve one instance")
    p_solve.add_argument("instance")
    p_solve.add_argument("--method", default="bidp",
                         choices=["bidp", "gid", "gipd", "brute", "hk"])
    add_solver_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="compare methods over an instance set")
    p_bench.add_argument("--dir", default=None, help="directory of instance JSON files")
    p_bench.add_argument("--n", type=int, nargs="*", default=None,
                         help="sizes to generate when no --dir is given")
    p_bench.add_argument("--count", type=int, default=1, help="instances per size")
    p_bench.add_argument("--seed", type=int, default=0, help="base seed")
    p_bench.add_argument("--coord-range", type=int, default=1000, dest="coord_range")
    p_bench.add_argument("--family", default="uniform", choices=["uniform", "star"])
    p_bench.add_argument("--methods", default="gid,gipd,bidp",
                         help="comma list; bidp accepts bidp:THETA:DELTA")
    p_bench.add_argument("--ub-refresh", type=int, default=32, dest="ub_refresh")
    p_bench.add_argument("--labels-cap", type=int, default=None, dest="labels_cap")
    p_bench.add_argument("--time-limit", type=float, default=None, dest="time_limit")
    p_bench.add_argument("--no-timing", action="store_true", dest="no_timing")
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("generate", help="write instance files")
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--coord-range", type=int, default=1000, dest="coord_range")
    p_gen.add_argument("--family", default="uniform", choices=["uniform", "star"])
    p_gen.add_argument("--subtree", default=None,
                       help="base instance file to cut a subtree from")
    p_gen.add_argument("--root", type=int, default=None,
                       help="vertex whose subtree becomes the new instance")
    p_gen.add_argument("-o", "--output", default=None,
                       help="output file or directory (default: cwd)")
    p_gen.set_defaults(func=cmd_generate)

    p_bounds = sub.add_parser("bounds", help="dump position bounds as CSV")
    p_bounds.add_argument("instance")
    p_bounds.add_argument("--ub", type=int, default=None,
                          help="upper bound; default is the best greedy tour")
    p_bounds.set_defaults(func=cmd_bounds)

    p_exp = sub.add_parser("export-mip", help="write the model as an LP file")
    p_exp.add_argument("instance")
    p_exp.add_argument("-o", "--output", default=None)
    p_exp.add_argument("--big-m", type=int, default=None, dest="big_m")
    p_exp.set_defaults(func=cmd_export_mip)

    p_chk = sub.add_parser("check-mip", help="verify an externally produced solution")
    p_chk.add_argument("solution", help='JSON with "instance", "x", "t", "r"')
    p_chk.add_argument("--instance", default=None,
                       help="instance file overriding the solution's reference")
    p_chk.set_defaults(func=cmd_check_mip)

    p_eval = sub.add_parser("evaluate", help="evaluate one visiting order")
    p_eval.add_argument("instance")
    p_eval.add_argument("--order", required=True, help="comma list, e.g. 1,3,2")
    p_eval.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EngineLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE_LIMIT
    except (FileNotFoundError, ValueError, OverflowError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
