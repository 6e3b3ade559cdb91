"""Command-line interface.

Subcommands: solve, bench, generate, bounds, export-mip, check-mip,
evaluate. Instances travel as JSON files in the documented contract; solve
results are JSON on stdout and bench results are CSV. Exit codes: 0 ok (a
passed --labels-cap or --time-limit too: bidp returns its incumbent,
unproven), 2 unusable input (missing file or failed validation, report on
stderr), 3 more fault vertices than the method's engine supports.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
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

METHODS = ("bidp", "gid", "gipd", "brute", "hk")


def _load_instance(path: str) -> Instance:
    """The valid instance in a file; load raises ValueError with the
    validation report for one that is not."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"instance file not found: {path}")
    return inst_mod.load(p)


def _solver_config(
    args, method: str, theta: Optional[float] = None, delta: Optional[float] = None
) -> bidp.SolverConfig:
    """The config one method runs with. theta and delta (None when not
    given) belong to bidp alone; bidp at theta 1 and delta 0 is exact."""
    if method != "bidp" and (theta is not None or delta is not None):
        raise ValueError(f"method {method} takes no theta or delta")
    theta = 1.0 if theta is None else theta
    delta = 0.0 if delta is None else delta
    exact = method == "bidp" and theta == 1 and delta == 0
    return bidp.SolverConfig(
        mode=bidp.EXACT if exact else bidp.HEURISTIC,
        theta=theta,
        delta=delta,
        labels_cap=args.labels_cap,
        time_limit=args.time_limit,
    )


def _given(args, *flags: str) -> List[str]:
    """The flags among these that the command line set."""
    return [f for f in flags if getattr(args, f[2:].replace("-", "_")) is not None]


def _refuse(args, mode: str, *flags: str) -> None:
    """Refuse, rather than ignore, flags that this mode does not read."""
    given = _given(args, *flags)
    if given:
        raise ValueError(f"{mode} takes no {' or '.join(given)}")


def _limits_need_bidp(args, methods: Sequence[str]) -> None:
    """--labels-cap and --time-limit bound the bidp search alone: refuse
    them, rather than ignore them, when no method given is bidp."""
    given = _given(args, "--labels-cap", "--time-limit")
    if given and "bidp" not in methods:
        raise ValueError(
            f"only bidp takes {' or '.join(given)}, not {','.join(methods)}"
        )


def _prepare(inst: Instance):
    """(work, index): inst with its repair durations folded into the arcs,
    and the power-tree index of that copy."""
    work = inst_mod.absorb_repair_durations(inst)
    return work, build_index(work)


def _run_method(inst: Instance, method: str, config: bidp.SolverConfig):
    """Solve with one method; returns (route, proven_optimal, stats)."""
    work, index = _prepare(inst)
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
    again = evaluate_route(*_prepare(inst), route.order)
    if again.objective != route.objective:
        raise RuntimeError(
            "internal error: emitted objective does not re-evaluate "
            f"({route.objective} vs {again.objective})"
        )


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    config = _solver_config(args, args.method, args.theta, args.delta)
    _limits_need_bidp(args, [args.method])
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
            "labels_cap": config.labels_cap,
            "time_limit": config.time_limit,
        },
        "stats": {k: v for k, v in stats.items()
                  if k != "wall_time_sec" or not args.no_timing},
    }
    print(inst_mod.json_text(record))
    return EXIT_OK


def _parse_method_token(args, token: str) -> Tuple[str, str, bidp.SolverConfig]:
    """Parse a bench method token, a method name or bidp[:theta[:delta]],
    into (token, method, config)."""
    name, *rest = token.split(":")
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r} in token {token!r}")
    if len(rest) > 2:
        raise ValueError(f"bad method token {token!r}")
    try:
        return token, name, _solver_config(args, name, *map(float, rest))
    except ValueError as exc:
        raise ValueError(f"{exc}, got {token!r}") from None


def _family_instance(
    family: Optional[str], n: int, seed: int, coord_range: Optional[int]
) -> Instance:
    """A random instance, or its star reduction when family is "star".
    An unset family is uniform and an unset coord_range 1000."""
    made = inst_mod.generate_random(
        n, seed, 1000 if coord_range is None else coord_range
    )
    if family == "star":
        return inst_mod.generate_star_reduction(made.travel, name=f"star-n{n}-s{seed}")
    return made


def _bench_instances(args) -> List[Instance]:
    if args.dir:
        _refuse(args, "bench --dir",
                "--n", "--count", "--seed", "--coord-range", "--family")
        directory = Path(args.dir)
        if not directory.is_dir():
            raise FileNotFoundError(f"instance directory not found: {args.dir}")
        paths = sorted(p for p in directory.glob("*.json") if p.is_file())
        if not paths:
            raise ValueError(f"no *.json instance files in {args.dir}")
        return [_load_instance(str(p)) for p in paths]
    if not args.n:
        raise ValueError("bench needs --dir or --n/--count/--seed")
    count = 1 if args.count is None else args.count
    if count < 1:
        raise ValueError(f"--count must be >= 1, got {count}")
    seed = 0 if args.seed is None else args.seed
    return [
        _family_instance(args.family, n, seed + k, args.coord_range)
        for n in args.n
        for k in range(count)
    ]


def cmd_bench(args) -> int:
    # The limits every method shares, then each token's config, are checked
    # once: a bad one is an input error, not a failure of each row.
    _solver_config(args, "bidp")
    names = args.methods.split(",")
    if "" in names:
        raise ValueError(
            f"empty method token '' in --methods {args.methods!r}"
        )
    for t in names:
        if names.count(t) > 1:
            raise ValueError(f"method token {t!r} given more than once")
    tokens = [_parse_method_token(args, t) for t in names]
    _limits_need_bidp(args, [name for _, name, _ in tokens])
    instances = _bench_instances(args)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["instance", "n", "method", "z", "t_sec", "gap_pct", "proven_optimal", "error"]
    )
    gaps: Dict[str, List[float]] = {token: [] for token, *_ in tokens}
    for inst in instances:
        rows = []
        for token, name, config in tokens:
            start = time.perf_counter()
            try:
                route, proven, _ = _run_method(inst, name, config)
                wall = time.perf_counter() - start
                _recheck(inst, route)
                rows.append((token, route.objective, wall, str(proven).lower(), ""))
            except (EngineLimitError, ValueError) as exc:
                rows.append((token, "", None, "", str(exc)))
        # Scored against this instance's own best: names may repeat in a --dir.
        best = min((row[1] for row in rows if row[1] != ""), default=None)
        for token, z, wall, proven, err in rows:
            gap = ""
            if z != "" and best:
                pct = 100.0 * (z - best) / best
                gaps[token].append(pct)
                gap = f"{pct:.2f}"
            elif z == best == 0:
                # No ratio exists against a best of 0: only a tie scores
                # 0.00, any other row gets no gap and no deviation.
                gaps[token].append(0.0)
                gap = "0.00"
            tcell = "" if args.no_timing or wall is None else f"{wall:.3f}"
            writer.writerow([inst.name, inst.n, token, z, tcell, gap, proven, err])
    for token, *_ in tokens:
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


def _check_output_dir(output: Optional[str]) -> None:
    """A trailing separator names a directory, never a file to write."""
    if output and output.endswith(("/", os.sep)) and not Path(output).is_dir():
        raise FileNotFoundError(f"output directory not found: {output}")


def cmd_generate(args) -> int:
    _check_output_dir(args.output)
    out = Path(args.output or ".")
    if args.subtree:
        if args.root is None:
            raise ValueError("generate --subtree needs --root")
        if args.n is not None or args.seed is not None:
            raise ValueError("generate --subtree takes no --n or --seed")
        _refuse(args, "generate --subtree", "--coord-range", "--family")
        base = _load_instance(args.subtree)
        made = inst_mod.extract_subtree(base, args.root)
    elif args.root is not None:
        raise ValueError("generate --root needs --subtree")
    elif args.n is None or args.seed is None:
        raise ValueError("generate needs --n and --seed")
    else:
        made = _family_instance(args.family, args.n, args.seed, args.coord_range)

    bad = inst_mod.validate(made)
    if bad:
        raise RuntimeError("generated instance failed validation: " + "; ".join(bad))
    if out.is_dir() and Path(made.name).name != made.name:
        raise ValueError(f"instance name {made.name!r} is not a file name; give -o FILE")
    path = out / f"{made.name}.json" if out.is_dir() else out
    inst_mod.save(made, path)
    print(path)
    return EXIT_OK


def cmd_bounds(args) -> int:
    work, index = _prepare(_load_instance(args.instance))
    rows = bounds.build_bounds_table(work, index)
    if args.ub is not None:
        ub = args.ub
    else:
        ub = heuristics.greedy_incumbent(work, index).objective
    beta = bounds.compute_beta(rows, ub)
    n = work.n
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["vertex", "successor_count", "beta"] + [f"L_k{k}" for k in range(1, n + 1)]
    )
    for i, (row, b) in enumerate(zip(rows, beta), 1):
        # A row holds L_k from position n - |S_i| + 1 on, |S_i| entries.
        writer.writerow([i, len(row), b, *[""] * (n - len(row)), *row])
    return EXIT_OK


def cmd_export_mip(args) -> int:
    _check_output_dir(args.output)
    if args.output and Path(args.output).is_dir():
        raise ValueError(f"export-mip -o names a directory, not a file: {args.output}")
    work, index = _prepare(_load_instance(args.instance))
    model = mip_export.build_model(work, index)
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
    if not _all_finite(values):
        for i, v in enumerate(values):
            if not _all_finite([v]):
                raise ValueError(f"{where}[{i}] must be a finite number, got {v!r}")
    return list(map(float, values))


def _all_finite(values: list) -> bool:
    """Every entry is an int or a float, and finite as a float."""
    try:
        return {*map(type, values)} <= {int, float} and all(map(math.isfinite, values))
    except OverflowError:  # an int too large for a float
        return False


def _solution_arcs(x_raw, n: int) -> List[List[float]]:
    """x of a solution file as a dense (n+1)x(n+1) matrix.

    x is either that matrix, zero on the diagonal, or a list of used [i, j]
    arcs; in the 2x2 case, where both fit, a diagonal entry >= 0.5 marks arcs.
    """
    if not isinstance(x_raw, list):
        raise ValueError(f"x must be a matrix or a list of [i, j] arcs, got {x_raw!r}")
    if len(x_raw) == n + 1 and all(
        isinstance(row, list) and len(row) == n + 1 for row in x_raw
    ):
        x = [_numbers(row, f"x[{i}]") for i, row in enumerate(x_raw)]
        if n > 1 or all(abs(x[i][i]) < 0.5 for i in range(2)):
            for i in range(n + 1):
                if x[i][i]:
                    raise ValueError(f"x[{i}][{i}] must be 0, got {x_raw[i][i]!r}: "
                                     "the model has no arc from a vertex to itself")
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
    data = inst_mod.decode_json(sol_path.read_text(encoding="utf-8"))
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
    else:
        raise ValueError("solution file does not name its instance")

    work, index = _prepare(inst)
    model = mip_export.build_model(work, index)
    res = mip_export.check_assignment(
        model, work, index, _solution_arcs(data["x"], work.n),
        _numbers(data["t"], "t"), _numbers(data["r"], "r"),
    )
    print(inst_mod.json_text({
        "feasible": res.feasible,
        "single_tour": res.single_tour,
        "order": list(res.order) if res.order else None,
        "objective": res.objective,
        "route_objective": res.route_objective,
        "violations": res.violations,
    }))
    return EXIT_OK if res.feasible else EXIT_FAILURE


def _parse_order(text: str) -> List[int]:
    """The vertices of an --order comma list, each written in ASCII digits
    alone: no sign, space, underscore or other script's digit."""
    entries = text.split(",")
    for entry in entries:
        if not (entry.isascii() and entry.isdigit()):
            raise ValueError(
                f"--order entry {entry!r} is not a vertex number in ASCII "
                f"digits, got {text!r}"
            )
    return [int(entry) for entry in entries]


def cmd_evaluate(args) -> int:
    inst = _load_instance(args.instance)
    work, index = _prepare(inst)
    order = _parse_order(args.order)
    route = evaluate_route(work, index, order)
    print(inst_mod.json_text({
        "instance": inst.name,
        "order": list(route.order),
        "objective": route.objective,
        "r": list(route.r),
        "t": list(route.t),
    }))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later main() call in the process (parse_args keeps no state between
    calls)."""
    parser = argparse.ArgumentParser(
        prog="prtrp",
        description="Route one repair crew over a damaged radial power "
        "distribution network, minimizing total customer disruption time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_limit_flags(p):
        p.add_argument("--labels-cap", type=int, default=None, dest="labels_cap",
                       help="bidp only: stop once more than this many labels are "
                       "built and return the incumbent, unproven, as a passed "
                       "--time-limit does")
        p.add_argument("--time-limit", type=float, default=None, dest="time_limit",
                       help="seconds before falling back to the incumbent")
        p.add_argument("--no-timing", action="store_true", dest="no_timing",
                       help="omit wall times for byte-stable output")

    def add_family_flags(p):
        p.add_argument("--coord-range", type=int, default=None, dest="coord_range",
                       help="coordinate range (default 1000)")
        p.add_argument("--family", default=None, choices=["uniform", "star"],
                       help="power tree shape (default uniform)")

    p_solve = sub.add_parser("solve", help="solve one instance")
    p_solve.add_argument("instance")
    p_solve.add_argument("--method", default="bidp", choices=METHODS)
    p_solve.add_argument("--theta", type=float, default=None,
                         help="bidp only: bound-acceptance fraction in (0,1], "
                         "a whole percent; 1.0 (default) = exact")
    p_solve.add_argument("--delta", type=float, default=None,
                         help="bidp only: per-level relaxation added to theta, "
                         "a whole percent; default 0")
    add_limit_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="compare methods over an instance set")
    p_bench.add_argument("--dir", default=None, help="directory of instance JSON files")
    p_bench.add_argument("--n", type=int, nargs="*", default=None,
                         help="sizes to generate when no --dir is given")
    p_bench.add_argument("--count", type=int, default=None,
                         help="instances per size (default 1)")
    p_bench.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    add_family_flags(p_bench)
    p_bench.add_argument("--methods", default="gid,gipd,bidp",
                         help="comma list; bidp accepts bidp:THETA:DELTA")
    add_limit_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("generate", help="write instance files")
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=None)
    add_family_flags(p_gen)
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
    except (FileNotFoundError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
