"""Acceptance suite: one test per criterion, in criterion order.

Heavy artifacts (instance sets, oracle solves, exact solves) are computed
once in module-level caches and shared across criteria. Each test prints a
single CRITERION line; run with `-v` (test names carry the criterion
numbers) or `-s` to see the lines directly.
"""

import random
import time
from itertools import permutations

from prtrp import (
    SolverConfig,
    brute_force,
    build_bounds_table,
    build_index,
    build_model,
    build_walk_table,
    check_assignment,
    encode_route,
    evaluate_route,
    generate_random,
    held_karp_forward,
    solve,
    write_lp_text,
)
from prtrp.bidp import HEURISTIC

from helpers import (
    ancestor_sets,
    dark_profile,
    leg_sum_objective,
    random_orders,
    walk_bound,
)
from lp_lint import lint_lp

SMALL_COUNT = 200  # n in [4, 9], criterion 1 set
MID_COUNT = 50  # n in [10, 15], criterion 2 set
PRUNE_COUNT = 100  # n in [5, 8], criteria 4-5 set
ROUTE_INSTANCE_COUNT = 20  # criteria 7-8: 1000 routes over these
PERF_COUNT = 20  # n in [13, 16], criterion 9 set

_cache = {}


def small_instances():
    if "small" not in _cache:
        _cache["small"] = [
            generate_random(4 + i % 6, seed=10_000 + i) for i in range(SMALL_COUNT)
        ]
    return _cache["small"]


def mid_instances():
    if "mid" not in _cache:
        _cache["mid"] = [
            generate_random(10 + i % 6, seed=20_000 + i) for i in range(MID_COUNT)
        ]
    return _cache["mid"]


def prune_instances():
    if "prune" not in _cache:
        _cache["prune"] = [
            generate_random(5 + i % 4, seed=30_000 + i) for i in range(PRUNE_COUNT)
        ]
    return _cache["prune"]


def perf_instances():
    if "perf" not in _cache:
        _cache["perf"] = [
            generate_random(13 + i % 4, seed=40_000 + i) for i in range(PERF_COUNT)
        ]
    return _cache["perf"]


def small_results():
    """(instance, index, oracle route, exact report) plus sweep wall times."""
    if "small_results" not in _cache:
        rows = []
        brute_time = 0.0
        bidp_time = 0.0
        for inst in small_instances():
            index = build_index(inst)
            t0 = time.perf_counter()
            best = brute_force(inst, index)
            brute_time += time.perf_counter() - t0
            t0 = time.perf_counter()
            report = solve(inst, index=index)
            bidp_time += time.perf_counter() - t0
            rows.append((inst, index, best, report))
        _cache["small_results"] = (rows, brute_time, bidp_time)
    return _cache["small_results"]


def mid_results():
    """(instance, index, subset-DP route, exact report) plus sweep wall time."""
    if "mid_results" not in _cache:
        rows = []
        total = 0.0
        for inst in mid_instances():
            index = build_index(inst)
            t0 = time.perf_counter()
            hk = held_karp_forward(inst)
            report = solve(inst, index=index)
            total += time.perf_counter() - t0
            rows.append((inst, index, hk, report))
        _cache["mid_results"] = (rows, total)
    return _cache["mid_results"]


def _enumeration_tables(inst):
    """Exhaustive per-instance optima, computed independently of the solver.

    Returns (best_at, best_prefix): the best tour objective with vertex i
    at position k, and the best completion of every ordered prefix of
    length 1..3. Dark counts come from the raw parent map.
    """
    n = inst.n
    travel = inst.travel
    anc_sets = ancestor_sets(inst)
    anc_masks = [0] * n
    for v, chain in anc_sets.items():
        m = 0
        for a in chain:
            m |= 1 << (a - 1)
        anc_masks[v - 1] = m
    dark = [0] * (1 << n)
    for mask in range(1 << n):
        dark[mask] = sum(1 for a in anc_masks if a & mask != a)

    huge = 1 << 62
    best_at = [[huge] * (n + 1) for _ in range(n + 1)]
    best_prefix = {}
    for perm in permutations(range(1, n + 1)):
        obj = 0
        mask = 0
        prev = 0
        for v in perm:
            obj += dark[mask] * travel[prev][v]
            mask |= 1 << (v - 1)
            prev = v
        for pos, v in enumerate(perm, start=1):
            if obj < best_at[v][pos]:
                best_at[v][pos] = obj
        for length in (1, 2, 3):
            pre = perm[:length]
            if obj < best_prefix.get(pre, huge):
                best_prefix[pre] = obj
    return best_at, best_prefix


def test_criterion_01_oracle_equivalence():
    rows, brute_time, bidp_time = small_results()
    assert len(rows) == SMALL_COUNT
    for inst, _, best, report in rows:
        # brute_force keeps the lexicographically first optimal order, as
        # the solver's tie-breaks do, so the orders must agree too.
        assert report.objective == best.objective, inst.name
        assert report.route.order == best.order, inst.name
        assert report.proven_optimal
    total = brute_time + bidp_time
    assert total < 300.0, f"criterion 1 sweep took {total:.1f}s"
    print(
        f"CRITERION 1 (oracle equivalence, {SMALL_COUNT} instances, "
        f"{total:.1f}s): PASS"
    )


def test_criterion_02_oracle_triangulation():
    rows, _, _ = small_results()
    for inst, _, best, _ in rows:
        assert held_karp_forward(inst).objective == best.objective, inst.name
    mid_rows, mid_time = mid_results()
    assert len(mid_rows) == MID_COUNT
    for inst, _, hk, report in mid_rows:
        assert hk.objective == report.objective, inst.name
    assert mid_time < 600.0, f"criterion 2 mid sweep took {mid_time:.1f}s"
    print(
        f"CRITERION 2 (oracle triangulation, +{MID_COUNT} mid instances, "
        f"{mid_time:.1f}s): PASS"
    )


def test_criterion_03_heuristic_mode_theta_one_is_exact():
    config = SolverConfig(mode=HEURISTIC, theta=1.0, delta=0.0)
    rows, _, _ = small_results()
    for inst, index, _, report in rows:
        heur = solve(inst, config, index)
        assert heur.objective == report.objective, inst.name
        assert not heur.proven_optimal
    mid_rows, _ = mid_results()
    for inst, index, _, report in mid_rows:
        assert solve(inst, config, index).objective == report.objective, inst.name
    print("CRITERION 3 (theta=1 heuristic mode matches exact): PASS")


def test_criterion_04_pruning_soundness():
    checked = 0
    source_states = set()
    for inst in prune_instances():
        index = build_index(inst)
        table = build_bounds_table(inst, index)
        walks = build_walk_table(inst, index)
        best_at, best_prefix = _enumeration_tables(inst)
        anc = ancestor_sets(inst)
        n = inst.n
        for prefix, best in best_prefix.items():
            # the walk bound as the solver applies it (WalkTable), with the
            # prefix value and dark count from the test helpers
            lb = walk_bound(walks, inst, anc, prefix)
            assert lb <= best, (inst.name, prefix, lb, best)
            source_states.add(inst.source in prefix)
            checked += 1
        for i, row in enumerate(table.rows, 1):
            # row holds L_k(i) for k = lo..n
            lo = n - index.successor_count[i - 1] + 1
            for k in range(lo, n + 1):
                assert row[k - lo] <= best_at[i][k], (inst.name, i, k)
                checked += 1
    assert source_states == {True, False}
    print(f"CRITERION 4 (pruning soundness, {checked} bound checks): PASS")


def test_criterion_05_position_bound_monotone():
    checked = 0
    for inst in prune_instances():
        index = build_index(inst)
        table = build_bounds_table(inst, index)
        n = inst.n
        for i, row in enumerate(table.rows, 1):
            lo = n - index.successor_count[i - 1] + 1
            for k in range(lo + 1, n + 1):
                assert row[k - lo] >= row[k - lo - 1], (inst.name, i, k)
                checked += 1
    print(f"CRITERION 5 (position bound monotone, {checked} steps): PASS")


def test_criterion_06_dominance_soundness():
    config = SolverConfig(use_dominance=False)
    count = 0
    for inst, index, _, report in small_results()[0]:
        if inst.n > 8:
            continue
        plain = solve(inst, config, index)
        assert plain.objective == report.objective, inst.name
        count += 1
    assert count > 0
    print(f"CRITERION 6 (dominance off unchanged, {count} instances): PASS")


def _thousand_routes():
    rng = random.Random(987)
    per_instance = 1000 // ROUTE_INSTANCE_COUNT
    for i in range(ROUTE_INSTANCE_COUNT):
        inst = generate_random(5 + i % 8, seed=50_000 + i)
        index = build_index(inst)
        for order in random_orders(rng, inst.n, per_instance):
            yield inst, index, order


def test_criterion_07_dual_objective_formula():
    count = 0
    for inst, index, order in _thousand_routes():
        route = evaluate_route(inst, index, order)
        assert sum(route.r) == leg_sum_objective(inst, order), (inst.name, order)
        count += 1
    assert count == 1000
    print(f"CRITERION 7 (dual objective formula, {count} routes): PASS")


def test_criterion_08_rearrangement_lemma():
    count = 0
    for inst, index, order in _thousand_routes():
        route = evaluate_route(inst, index, order)
        profile = dark_profile(inst, order)
        legs = []
        prev = 0
        for v in order:
            legs.append(inst.travel[prev][v])
            prev = v
        floor = sum(c * d for c, d in zip(profile, sorted(legs)))
        assert route.objective >= floor, (inst.name, order)
        count += 1
    assert count == 1000
    print(f"CRITERION 8 (rearrangement floor, {count} routes): PASS")


def test_criterion_09_heuristic_speedup_direction():
    relaxed_config = SolverConfig(mode=HEURISTIC, theta=0.80, delta=0.01)
    exact_times = []
    relaxed_times = []
    gaps = []
    for inst in perf_instances():
        index = build_index(inst)
        t0 = time.perf_counter()
        exact = solve(inst, index=index)
        exact_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        relaxed = solve(inst, relaxed_config, index)
        relaxed_times.append(time.perf_counter() - t0)
        assert relaxed.objective >= exact.objective
        gaps.append(100.0 * (relaxed.objective - exact.objective) / exact.objective)
    mean_exact = sum(exact_times) / len(exact_times)
    mean_relaxed = sum(relaxed_times) / len(relaxed_times)
    mean_gap = sum(gaps) / len(gaps)
    reduction = 100.0 * (1.0 - mean_relaxed / mean_exact)
    assert mean_relaxed <= mean_exact, (mean_relaxed, mean_exact)
    assert mean_gap <= 1.0, gaps
    print(
        f"CRITERION 9 (speedup direction, mean gap {mean_gap:.2f}%, "
        f"mean time reduction {reduction:.0f}%, informational): PASS"
    )


def test_criterion_10_mip_encoding_consistency():
    linted = 0
    for inst, index, _, report in small_results()[0]:
        model = build_model(inst, index)
        x, t, r = encode_route(inst, index, report.route.order)
        res = check_assignment(model, inst, index, x, t, r)
        assert res.feasible, (inst.name, res.violations)
        assert res.single_tour
        assert res.objective == report.objective
        problems = lint_lp(write_lp_text(model))
        assert problems == [], (inst.name, problems)
        linted += 1
    print(f"CRITERION 10 (MIP encoding + lint, {linted} models): PASS")


def test_criterion_11_repeat_run_determinism(tmp_path, capsys):
    for inst, _, _, report in small_results()[0]:
        again = solve(inst)
        assert again.route == report.route, inst.name
        assert again.stats["levels"] == report.stats["levels"], inst.name
    # same check end to end through the CLI on a sample
    from prtrp import cli
    from prtrp import instance as inst_mod

    for inst, _, _, _ in small_results()[0][:5]:
        path = str(inst_mod.save(inst, tmp_path / f"{inst.name}.json"))
        outputs = []
        for _ in range(2):
            assert cli.main(["solve", path, "--no-timing"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], inst.name
    print("CRITERION 11 (repeat-run determinism): PASS")
