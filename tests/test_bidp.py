import itertools
import random
import re

import pytest

from prtrp import (
    EngineLimitError,
    SolverConfig,
    brute_force,
    build_index,
    disrupted_count,
    evaluate_route,
    generate_random,
    generate_star_reduction,
    make_instance,
    solve,
)
from prtrp import bidp
from prtrp.bidp import EXACT, HEURISTIC
from prtrp.heuristics import greedy_incumbent

from helpers import (
    ancestor_sets,
    dark_count,
    pure_backward_optimum,
    pure_backward_recursion,
    pure_forward_optimum,
    random_asymmetric,
    report_fields,
)

# Values of the private width constant that force one scan on every level:
# at 0 every level with a parent scans in bound order, and no frontier
# reaches the other.
SCANS = {"bound-order": 0, "nearest-first": 10**9}


@pytest.fixture
def expansions(monkeypatch):
    """Records the solver's newly_lit calls, in order, under the key
    "sizes": the number of vertices in each call's mask. A candidate that
    passes the first bound test with the source repaired makes one call,
    its mask holding as many vertices as its level; each leg heuristic
    mode's incumbent refresh scores makes one, its mask holding what is
    repaired by the leg's end. The start-up descents share the solver's
    newly_lit, so their calls come first. A patched clock can read
    len(sizes) to pick its moment."""
    record = {"sizes": []}
    real_factory = bidp.make_newly_lit

    def counting_factory(index):
        newly_lit = real_factory(index)

        def counted(v, mask):
            record["sizes"].append(bin(mask).count("1"))
            return newly_lit(v, mask)

        return counted

    monkeypatch.setattr(bidp, "make_newly_lit", counting_factory)
    return record


class TestSolverConfig:
    def test_exact_mode_rejects_relaxation(self):
        with pytest.raises(ValueError):
            SolverConfig(mode=EXACT, theta=0.9)
        with pytest.raises(ValueError):
            SolverConfig(mode=EXACT, delta=0.01)
        with pytest.raises(ValueError):
            SolverConfig(theta=0.0)
        with pytest.raises(ValueError, match="^mode must be 'exact' or 'heuristic'"):
            SolverConfig(mode="fast")

    def test_percent_resolution(self):
        cfg = SolverConfig(mode=HEURISTIC, theta=0.8, delta=0.01)
        assert cfg.theta_pct == 80
        assert cfg.delta_pct == 1
        # Values off the percent grid are rejected, not rounded.
        with pytest.raises(ValueError, match="^theta must be"):
            SolverConfig(mode=HEURISTIC, theta=0.996)
        with pytest.raises(ValueError, match="^delta must be"):
            SolverConfig(mode=HEURISTIC, theta=0.8, delta=0.015)


class TestSolveExact:
    def test_star(self, star):
        report = solve(star)
        assert report.objective == 6
        assert report.route.order == (1, 2, 3)
        assert report.proven_optimal

    def test_single_vertex(self):
        inst = generate_random(1, seed=3)
        report = solve(inst)
        assert report.objective == inst.travel[0][1]

    def test_matches_oracle_on_random_sweep(self):
        for k in range(60):
            n = 4 + k % 6
            inst = generate_random(n, seed=1600 + k)
            index = build_index(inst)
            report = solve(inst, index=index)
            best = brute_force(inst, index)
            assert report.objective == best.objective, inst.name
            assert report.proven_optimal

    def test_matches_pure_recursions(self):
        for k in range(12):
            n = 4 + k % 5
            inst = generate_random(n, seed=1700 + k)
            opt = solve(inst).objective
            assert opt == pure_backward_optimum(inst)
            assert opt == pure_forward_optimum(inst)

    def test_bellman_tightness_certificate(self):
        # the returned route must satisfy the backward optimality condition
        # at every split position
        for k in range(8):
            n = 4 + k % 4
            inst = generate_random(n, seed=1800 + k)
            report = solve(inst)
            v = pure_backward_recursion(inst)
            anc = ancestor_sets(inst)
            order = report.route.order
            rest = frozenset(order)
            prev = 0
            repaired = set()
            for p, vertex in enumerate(order):
                lhs = v(prev, rest)
                w = dark_count(anc, repaired)
                rhs = w * inst.travel[prev][vertex] + v(vertex, rest - {vertex})
                assert lhs == rhs, (inst.name, p)
                repaired.add(vertex)
                rest = rest - {vertex}
                prev = vertex

    def test_every_label_carries_its_dark_count(self, star, monkeypatch):
        # The final pick reads each complete label's order, and every
        # label there, and every parent up its chain (one per level), must
        # carry the dark count of its mask.
        seen = []
        real_order = bidp._forward_order

        def recording_order(label):
            seen.append(label)
            return real_order(label)

        monkeypatch.setattr(bidp, "_forward_order", recording_order)
        base = generate_random(9, seed=5)
        for inst in (star, base, generate_star_reduction(base.travel)):
            index = build_index(inst)
            seen.clear()
            for config in (SolverConfig(),
                           SolverConfig(mode=HEURISTIC, theta=0.8, delta=0.01)):
                solve(inst, config, index)
            assert seen, inst.name
            for lab in seen:
                while lab is not None:
                    assert lab[4] == disrupted_count(index, lab[1]), lab[:3]
                    lab = lab[3]

    def test_rejects_unabsorbed_durations(self, star):
        from prtrp import Instance

        withp = Instance(
            name="p", n=3, travel=star.travel,
            power_parent=dict(star.power_parent), source=1,
            repair_duration=(1, 0, 0),
        )
        with pytest.raises(ValueError):
            solve(withp)

    def test_vertex_limit(self):
        from prtrp import Instance

        silly = Instance(
            name="big", n=64, travel=((0,),) * 65,
            power_parent={}, source=1, repair_duration=(0,) * 64,
        )
        with pytest.raises(EngineLimitError):
            solve(silly)


class TestSolveVariants:
    def test_dominance_off_objective_unchanged(self):
        for k in range(16):
            n = 4 + k % 5
            inst = generate_random(n, seed=1900 + k)
            index = build_index(inst)
            on = solve(inst, index=index).objective
            off = solve(inst, SolverConfig(use_dominance=False), index).objective
            assert on == off, inst.name

    def test_heuristic_mode_theta_one_equals_exact(self):
        for k in range(12):
            n = 4 + k % 5
            inst = generate_random(n, seed=2200 + k)
            index = build_index(inst)
            exact = solve(inst, index=index)
            heur = solve(inst, SolverConfig(mode=HEURISTIC), index)
            assert heur.objective == exact.objective
            assert not heur.proven_optimal

    def test_relaxed_mode_feasible_and_no_better_than_exact(self):
        for k in range(12):
            n = 5 + k % 5
            inst = generate_random(n, seed=2300 + k)
            index = build_index(inst)
            exact = solve(inst, index=index)
            relaxed = solve(
                inst,
                SolverConfig(mode=HEURISTIC, theta=0.8, delta=0.01),
                index,
            )
            assert relaxed.objective >= exact.objective
            again = evaluate_route(inst, index, relaxed.route.order)
            assert again.objective == relaxed.objective

    def test_labels_cap_exact_aborts(self):
        inst = generate_random(9, seed=2600)
        with pytest.raises(EngineLimitError, match="label cap"):
            solve(inst, SolverConfig(labels_cap=4))

    def test_labels_cap_heuristic_falls_back(self):
        inst = generate_random(9, seed=2600)
        report = solve(inst, SolverConfig(mode=HEURISTIC, labels_cap=4))
        assert not report.proven_optimal
        assert report.stats["labels_cap_reached"]
        index = build_index(inst)
        assert evaluate_route(inst, index, report.route.order).objective == \
            report.objective

    def test_time_limit_falls_back_to_incumbent(self):
        inst = generate_random(12, seed=2700)
        report = solve(inst, SolverConfig(mode=HEURISTIC, time_limit=0.0))
        assert not report.proven_optimal
        assert report.stats["time_limit_reached"]

    def test_time_limit_zero_returns_the_greedy_incumbent(self, monkeypatch):
        inst = generate_random(10, seed=1)
        index = build_index(inst)
        greedy = greedy_incumbent(inst, index)
        # The descent improves on the greedy tours when given the time.
        assert solve(inst, index=index).stats["initial_upper_bound"] < \
            greedy.objective
        # Every clock read is one tick later, so a zero limit has passed
        # before the descent's first move.
        ticks = itertools.count()
        monkeypatch.setattr(bidp.time, "perf_counter", lambda: float(next(ticks)))
        report = solve(inst, SolverConfig(time_limit=0.0), index)
        assert report.stats["time_limit_reached"]
        assert not report.proven_optimal
        assert report.stats["initial_upper_bound"] == greedy.objective
        assert report.route == greedy

    def test_labels_cap_stops_inside_a_level(self):
        inst = generate_random(14, seed=2700)
        full = solve(inst).stats["levels"]
        created = [st["fwd_created"] for st in full]
        # One label past level 4 (the depot label and the labels built by
        # levels 1-4); level 5 expands over a thousand parents, so the cap
        # is crossed long before that level ends.
        cap = 1 + sum(created[:4]) + 1
        after_level_5 = cap - 1 + created[4]
        report = solve(inst, SolverConfig(mode=HEURISTIC, labels_cap=cap))
        levels = report.stats["levels"]
        assert report.stats["labels_cap_reached"]
        assert not report.proven_optimal
        assert len(levels) == 5
        assert 0 < levels[-1]["fwd_created"] < full[4]["fwd_created"]
        assert report.stats["labels_total"] < after_level_5
        # Limits are read before every parent, so the overshoot is at most
        # one parent's children, fewer than n.
        assert report.stats["labels_total"] <= cap + inst.n
        # The incumbent after the descents and after each of the 4 levels
        # built in full; the stopped level adds none.
        assert report.stats["u_trajectory"] == [34773, 34773, 34220, 34220, 34220]
        assert report.objective == 34220
        with pytest.raises(EngineLimitError, match=r"at level 5 \((\d+) labels\)") as exc:
            solve(inst, SolverConfig(labels_cap=cap))
        stopped_at = int(re.search(r"\((\d+) labels\)", str(exc.value)).group(1))
        assert cap < stopped_at < after_level_5

    @pytest.mark.parametrize("mode", [EXACT, HEURISTIC])
    def test_cap_crossed_by_the_last_labels_keeps_the_search(self, mode):
        # 21 labels in all; the last level's single label is the 21st, and
        # no limit is read once it is built.
        inst = generate_random(6, seed=9)
        report = solve(inst, SolverConfig(mode=mode, labels_cap=20))
        stats = report.stats
        assert stats["labels_total"] == 21
        assert len(stats["levels"]) == inst.n
        assert not stats["labels_cap_reached"]
        assert stats["join_candidates"] == stats["levels"][-1]["fwd_created"] > 0
        assert report.objective == 7233
        assert report.proven_optimal == (mode == EXACT)

    def test_cap_crossed_inside_the_last_level_still_stops(self):
        # 18 labels in all; the last level's single label comes from the
        # first of its two parents, so the cap is read again after it.
        inst = generate_random(6, seed=4)
        assert solve(inst).stats["labels_total"] == 18
        with pytest.raises(EngineLimitError, match=r"at level 6 \(18 labels\)"):
            solve(inst, SolverConfig(labels_cap=17))
        report = solve(inst, SolverConfig(mode=HEURISTIC, labels_cap=17))
        assert report.stats["labels_cap_reached"]
        assert report.stats["join_candidates"] == 0

    def test_cap_counts_only_the_labels_built(self):
        # The cap is compared with the depot label plus the labels built,
        # so a cap of 6 at n = 6 still lets level 1 build its labels; the
        # n return legs reported at level 1 are not counted.
        inst = generate_random(6, seed=1)
        stats = solve(inst, SolverConfig(mode=HEURISTIC, labels_cap=6)).stats
        assert stats["labels_cap_reached"]
        assert stats["levels"][0]["fwd_created"] > 0
        assert stats["labels_total"] == \
            1 + sum(st["fwd_created"] for st in stats["levels"])

    def test_time_limit_stops_inside_a_level(self, monkeypatch, expansions):
        inst = generate_random(14, seed=2700)
        full = solve(inst).stats["levels"]
        # The clock jumps past the deadline at the middle call made at the
        # size of the largest level. The refresh scores at most 32 legs of
        # that size after each earlier level, far fewer than the level's
        # candidates, so the jump falls inside that level. The start-up
        # descents make the same calls first in both solves.
        peak = max(full, key=lambda st: st["fwd_created"])["level"]
        sizes = expansions["sizes"]
        at_peak = [i for i, size in enumerate(sizes) if size == peak]
        flip_at = at_peak[len(at_peak) // 2]
        sizes.clear()
        with monkeypatch.context() as m:
            m.setattr(bidp.time, "perf_counter",
                      lambda: 1e9 if len(sizes) > flip_at else 0.0)
            report = solve(inst, SolverConfig(mode=HEURISTIC, time_limit=1.0))
        levels = report.stats["levels"]
        assert report.stats["time_limit_reached"]
        assert not report.proven_optimal
        assert len(levels) == peak
        stopped = levels[-1]
        assert 0 < stopped["fwd_created"] < full[peak - 1]["fwd_created"]
        index = build_index(inst)
        assert evaluate_route(inst, index, report.route.order).objective == \
            report.objective

    @pytest.mark.parametrize("mode", [EXACT, HEURISTIC])
    def test_deadline_after_the_last_level_keeps_the_search(
        self, monkeypatch, mode
    ):
        inst = generate_random(6, seed=3)
        config = SolverConfig(mode=mode, time_limit=10.0)
        full = solve(inst, config)
        # Each level first takes its walk-bound row H[r], r being the legs
        # left after it, so level n takes H[0]. It then expands one parent
        # per label of level n - 1, each after one clock read. The clock
        # passes the deadline from the read after the last of those on:
        # only once every label of level n has been built.
        parents = full.stats["levels"][-2]["fwd_created"]
        clock = {"rows": [], "reads": 0}
        real_table = bidp.build_walk_table

        class Rows(tuple):
            def __getitem__(self, r):
                clock["rows"].append(r)
                return tuple.__getitem__(self, r)

        def recording_table(instance, index, rows):
            walks = real_table(instance, index, rows)
            return walks._replace(H=Rows(walks.H))

        def perf_counter():
            if 0 not in clock["rows"]:
                return 0.0
            clock["reads"] += 1
            return 1e9 if clock["reads"] > parents else 0.0

        with monkeypatch.context() as m:
            m.setattr(bidp, "build_walk_table", recording_table)
            m.setattr(bidp.time, "perf_counter", perf_counter)
            report = solve(inst, config)
        assert clock["reads"] > parents
        stats = report.stats
        assert len(stats["levels"]) == inst.n
        assert not stats["time_limit_reached"]
        assert stats["join_candidates"] == stats["levels"][-1]["fwd_created"] > 0
        assert report.proven_optimal == (mode == EXACT)
        assert (report.objective, report.route.order) == \
            (full.objective, full.route.order)
        # Every level was entered once, and the final pick compares the
        # last level's complete tours; its result ends the trajectory.
        assert clock["rows"] == list(range(inst.n - 1, -1, -1))
        assert len(stats["u_trajectory"]) == inst.n + 1
        assert stats["u_trajectory"][-1] == report.objective

    def test_relaxed_search_stops_once_every_path_is_pruned(self):
        inst = generate_random(10, seed=2900)
        report = solve(inst, SolverConfig(mode=HEURISTIC, theta=0.7, delta=0.01))
        stats = report.stats
        created = [st["fwd_created"] for st in stats["levels"]]
        # The level that builds no label is the last one recorded.
        assert len(created) < inst.n
        assert created[-1] == 0 and all(created[:-1])
        assert stats["u_trajectory"] == [18756] * (len(created) + 1)
        assert stats["join_candidates"] == 0
        assert not stats["time_limit_reached"] and not stats["labels_cap_reached"]
        assert report.objective == stats["u_trajectory"][-1]
        index = build_index(inst)
        assert evaluate_route(inst, index, report.route.order).objective == \
            report.objective


class TestBoundCut:
    # Per level (fwd_created, fwd_pruned_bound) of two n=10 instances. A
    # cut one unit looser or tighter than the bound test moves these
    # counts, while the objective can stay the same. On the default
    # 1000-wide grid no walk bound of generate_random(10, seed=1) lands one
    # past the cut, so its 20-wide twin, whose many equal arcs make such
    # ties, is pinned as well.
    EXACT_LEVELS = [
        (10, 0), (45, 45), (97, 241), (146, 466), (131, 654),
        (94, 486), (39, 309), (16, 93), (7, 23), (3, 4),
    ]
    RELAXED_LEVELS = [
        (4, 6), (16, 20), (35, 93), (30, 210), (20, 152),
        (9, 87), (1, 35), (0, 3),
    ]
    NARROW_EXACT_LEVELS = [
        (5, 5), (18, 27), (46, 85), (72, 229), (82, 329),
        (55, 341), (24, 193), (7, 64), (2, 12), (1, 1),
    ]
    NARROW_RELAXED_LEVELS = [
        (2, 8), (6, 12), (11, 35), (14, 61), (9, 72), (4, 41), (0, 16),
    ]
    RELAXED = SolverConfig(mode=HEURISTIC, theta=0.83, delta=0.01)
    # (objective, order) of each instance, the same in both modes
    WIDE = (19020, (8, 3, 2, 7, 10, 6, 5, 4, 1, 9))
    NARROW = (394, (2, 10, 7, 3, 4, 9, 5, 6, 8, 1))

    @pytest.mark.parametrize(
        "coord_range, config, levels, result",
        [
            (1000, SolverConfig(), EXACT_LEVELS, WIDE),
            (1000, RELAXED, RELAXED_LEVELS, WIDE),
            (20, SolverConfig(), NARROW_EXACT_LEVELS, NARROW),
            (20, RELAXED, NARROW_RELAXED_LEVELS, NARROW),
        ],
        ids=["exact", "theta-0.83-delta-0.01", "narrow-exact",
             "narrow-theta-0.83-delta-0.01"],
    )
    def test_per_level_counts_are_pinned(
        self, monkeypatch, coord_range, config, levels, result
    ):
        # Both scans: the bound-order rows must stop where the bound test
        # does, ties to the cut included.
        inst = generate_random(10, seed=1, coord_range=coord_range)
        for scan, width in SCANS.items():
            monkeypatch.setattr(bidp, "_WIDE_LEVEL", width)
            report = solve(inst, config)
            got = [(st["fwd_created"], st["fwd_pruned_bound"])
                   for st in report.stats["levels"]]
            assert got == levels, scan
            assert (report.objective, report.route.order) == result, scan


class TestIncumbentRefresh:
    # The incumbent after the descents and after each level, then the final
    # pick's, and the objective of each refresh completion that lowered it.
    # In heuristic mode the refresh lowers it on these instances; exact mode
    # runs no refresh, so its incumbent stays flat until the final pick.
    CASES = pytest.mark.parametrize(
        "inst, config, trajectory, drops, result",
        [
            (generate_random(9, seed=10), SolverConfig(),
             [14143] * 9 + [13514],
             [], (13514, (2, 5, 4, 8, 1, 9, 7, 3, 6))),
            (generate_random(9, seed=10), SolverConfig(mode=HEURISTIC, theta=0.8),
             [14143, 14143, 13900, 13900, 13900, 13900, 13900],
             [13900], (13900, (2, 5, 4, 8, 1, 3, 9, 7, 6))),
            (generate_star_reduction(generate_random(9, seed=13).travel),
             SolverConfig(), [14293] * 9 + [14046],
             [], (14046, (7, 5, 4, 6, 1, 2, 3, 8, 9))),
        ],
        ids=["exact", "theta-0.8", "star-exact"],
    )

    @CASES
    def test_trajectory_is_pinned(self, inst, config, trajectory, drops, result):
        report = solve(inst, config)
        assert report.stats["u_trajectory"] == trajectory
        assert (report.objective, report.route.order) == result

    @CASES
    def test_only_a_completion_that_lowers_the_incumbent_is_built(
        self, monkeypatch, inst, config, trajectory, drops, result
    ):
        # greedy_complete builds the nearest-first start tour, then one
        # completion per refresh that lowers the incumbent: a winner's
        # scoring must beat ub, so a refresh that cannot win builds none.
        built = []
        real_complete = bidp.greedy_complete

        def recording_complete(instance, index, prefix):
            route = real_complete(instance, index, prefix)
            built.append((tuple(prefix), route.objective))
            return route

        monkeypatch.setattr(bidp, "greedy_complete", recording_complete)
        report = solve(inst, config)
        assert report.stats["u_trajectory"] == trajectory
        assert (report.objective, report.route.order) == result
        assert len(built) == 1 + len(drops)
        assert built[0][0] == ()
        assert [objective for _, objective in built[1:]] == drops

    def test_only_heuristic_mode_refreshes(self, monkeypatch):
        # Exact mode ranks no labels and builds only the start tour; a
        # heuristic solve of the same instance ranks the labels after each
        # level it builds but the last one of a finished search.
        calls = {"nsmallest": 0, "complete": 0}
        real_nsmallest = bidp.heapq.nsmallest
        real_complete = bidp.greedy_complete

        def counted_nsmallest(*args):
            calls["nsmallest"] += 1
            return real_nsmallest(*args)

        def counted_complete(*args):
            calls["complete"] += 1
            return real_complete(*args)

        monkeypatch.setattr(bidp.heapq, "nsmallest", counted_nsmallest)
        monkeypatch.setattr(bidp, "greedy_complete", counted_complete)
        relaxed = SolverConfig(mode=HEURISTIC, theta=0.8, delta=0.01)
        base = generate_random(10, seed=1)
        for inst in (generate_random(9, seed=10), base,
                     generate_star_reduction(base.travel)):
            calls.update(nsmallest=0, complete=0)
            report = solve(inst)
            assert calls == {"nsmallest": 0, "complete": 1}, inst.name
            trajectory = report.stats["u_trajectory"]
            assert trajectory[:-1] == [trajectory[0]] * inst.n
            calls.update(nsmallest=0, complete=0)
            levels = solve(inst, relaxed).stats["levels"]
            assert calls["nsmallest"] == min(len(levels), inst.n - 1) > 0
            assert calls["complete"] >= 1


    # theta 0.8/delta 0.01 on the instances above, and theta 0.70/delta
    # 0.01 on the relaxed benchmark pool's uniform n=17 instance: per solve
    # the trajectory, the refresh winners built as (prefix, objective), each
    # level's (created, dominated, pruned by the bound), and how many labels
    # the refreshes rank and how many of them they score.
    RELAXED = SolverConfig(mode=HEURISTIC, theta=0.8, delta=0.01)
    SKIP_CASES = pytest.mark.parametrize(
        "inst, config, trajectory, winners, levels, ranked, scored",
        [
            (generate_random(9, seed=10), RELAXED,
             [14143, 14143, 13900, 13900, 13900, 13900, 13900],
             [((2, 5), 13900)],
             [(1, 0, 8), (2, 0, 6), (1, 0, 13), (1, 0, 5), (1, 0, 4), (0, 0, 4)],
             6, 3),
            (generate_random(10, seed=1), RELAXED, [19473] * 8, [],
             [(3, 0, 7), (9, 0, 18), (20, 0, 52), (21, 3, 116), (13, 8, 105),
              (4, 3, 58), (0, 0, 16)],
             70, 31),
            (generate_star_reduction(generate_random(10, seed=1).travel),
             RELAXED, [17885] * 2, [], [(0, 0, 10)], 0, 0),
            (generate_random(17, seed=1),
             SolverConfig(mode=HEURISTIC, theta=0.7, delta=0.01),
             [38017] * 12, [],
             [(7, 0, 10), (31, 0, 81), (75, 23, 367), (132, 41, 877),
              (194, 52, 1470), (207, 53, 2068), (151, 44, 2082), (72, 29, 1409),
              (17, 8, 623), (2, 2, 132), (0, 0, 14)],
             249, 155),
        ],
        ids=["n9-theta-0.8-delta-0.01", "n10-theta-0.8-delta-0.01",
             "star-n10-theta-0.8-delta-0.01", "n17-theta-0.7-delta-0.01"],
    )

    @SKIP_CASES
    def test_a_known_completion_is_not_scored_again(
        self, monkeypatch, inst, config, trajectory, winners, levels, ranked,
        scored,
    ):
        # A ranked label that is the nearest-first child of a label scored
        # one level earlier completes to that label's tour, which cannot
        # beat the incumbent, so it is not scored.
        record = {"ranked": 0, "scored": [], "built": []}
        real_nsmallest = bidp.heapq.nsmallest
        real_cost = bidp._completion_cost
        real_complete = bidp.greedy_complete

        def counted_nsmallest(*args):
            labels = real_nsmallest(*args)
            record["ranked"] += len(labels)
            return labels

        def recording_cost(lab, *rest):
            record["scored"].append(lab)
            return real_cost(lab, *rest)

        def recording_complete(instance, index, prefix):
            route = real_complete(instance, index, prefix)
            record["built"].append((tuple(prefix), route.objective))
            return route

        monkeypatch.setattr(bidp.heapq, "nsmallest", counted_nsmallest)
        monkeypatch.setattr(bidp, "_completion_cost", recording_cost)
        monkeypatch.setattr(bidp, "greedy_complete", recording_complete)
        report = solve(inst, config)

        def nearest_next(lab):
            _, mask, endpoint = lab[:3]
            return min((inst.travel[endpoint][v], v) for v in range(1, inst.n + 1)
                       if not mask >> (v - 1) & 1)[1]

        # The list holds every scored label, so ids stay unique.
        scored_ids = {id(lab) for lab in record["scored"]}
        for lab in record["scored"]:
            parent = lab[3]
            assert not (id(parent) in scored_ids and lab[2] == nearest_next(parent)), \
                bidp._forward_order(lab)
        stats = report.stats
        assert stats["u_trajectory"] == trajectory
        assert record["built"][1:] == winners
        assert [(st["fwd_created"], st["fwd_dominated"], st["fwd_pruned_bound"])
                for st in stats["levels"]] == levels
        assert (record["ranked"], len(record["scored"])) == (ranked, scored)


def _chain_tree(base):
    """base's travel times on a chain power tree: the source 1 feeds 2,
    which feeds 3, and so on."""
    return make_instance(
        f"chain-{base.name}", base.travel,
        {v: v - 1 for v in range(2, base.n + 1)}, source=1,
    )


def _asymmetric(n, seed):
    travel, parent, source = random_asymmetric(random.Random(seed), n, 9)
    return make_instance(f"asym-n{n}-s{seed}", travel, parent, source)


class TestBoundOrderScan:
    # A wide level scans each parent's candidates in bound order and stops
    # at the first one its first bound test fails; a narrow one scans them
    # nearest first. Only the order of one parent's children may differ.
    FAMILIES = {
        "uniform": lambda n, seed: generate_random(n, seed=seed),
        "star": lambda n, seed: generate_star_reduction(
            generate_random(n, seed=seed).travel),
        "chain": lambda n, seed: _chain_tree(generate_random(n, seed=seed)),
        "asymmetric": _asymmetric,
    }
    CONFIGS = pytest.mark.parametrize(
        "config",
        [SolverConfig(), SolverConfig(mode=HEURISTIC, theta=0.7, delta=0.01),
         SolverConfig(use_dominance=False)],
        ids=["exact", "theta-0.7-delta-0.01", "dominance-off"],
    )

    @pytest.mark.parametrize("family", list(FAMILIES))
    @CONFIGS
    def test_both_scans_give_the_same_report(self, monkeypatch, family, config):
        for n, seed in itertools.product((2, 5, 8, 10), (1, 2)):
            inst = self.FAMILIES[family](n, seed)
            index = build_index(inst)
            reports = {}
            for scan, width in SCANS.items():
                monkeypatch.setattr(bidp, "_WIDE_LEVEL", width)
                reports[scan] = report_fields(solve(inst, config, index))
            assert reports["bound-order"] == reports["nearest-first"], inst.name

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_bound_order_scan_matches_the_oracle(self, monkeypatch, family):
        monkeypatch.setattr(bidp, "_WIDE_LEVEL", SCANS["bound-order"])
        for n, seed in itertools.product((3, 6, 8), (1, 2, 3)):
            inst = self.FAMILIES[family](n, seed)
            index = build_index(inst)
            report = solve(inst, index=index)
            best = brute_force(inst, index)
            assert (report.objective, report.route.order) == \
                (best.objective, best.order), inst.name
            assert report.proven_optimal

    def test_rows_are_sorted_only_on_wide_levels(self, monkeypatch):
        # Each row sorted during an exact n=15 solve: the level it serves,
        # read from the walk-table row it was keyed on, and whether that
        # is G's (the source dark) and its parent's dark count is n.
        inst = generate_random(15, seed=1)
        n = inst.n
        table = {}
        built = []
        real_table = bidp.build_walk_table
        real_row = bidp._bound_order_row

        def recording_table(*args):
            table["walks"] = real_table(*args)
            return table["walks"]

        def recording_row(nearest_row, w, bound_row):
            walks = table["walks"]
            keyed_on_g = any(row is bound_row for row in walks.G)
            r = next(r for r in range(n)
                     if bound_row is (walks.G if keyed_on_g else walks.H)[r])
            built.append((n - r - 1, keyed_on_g, w == n))
            return real_row(nearest_row, w, bound_row)

        monkeypatch.setattr(bidp, "build_walk_table", recording_table)
        monkeypatch.setattr(bidp, "_bound_order_row", recording_row)
        levels = solve(inst).stats["levels"]
        parents = [1] + [st["fwd_created"] for st in levels[:-1]]
        wide = {k for k, count in enumerate(parents)
                if count > bidp._WIDE_LEVEL * n * n}
        assert built
        assert {level for level, _, _ in built} == wide
        assert all(keyed_on_g == dark for _, keyed_on_g, dark in built)


class TestReportShape:
    def test_stats_fields(self, star):
        report = solve(star)
        stats = report.stats
        assert stats["initial_upper_bound"] == 6
        assert stats["u_trajectory"][0] == 6
        assert len(stats["levels"]) >= 1
        level = stats["levels"][0]
        for key in (
            "fwd_created", "fwd_dominated", "fwd_pruned_bound", "fwd_pruned_beta",
            "bwd_created", "bwd_dominated", "bwd_pruned_bound", "bwd_pruned_beta",
        ):
            assert key in level
        assert stats["wall_time_sec"] >= 0
        assert report.route.objective == report.objective

    @pytest.mark.parametrize("family", ["uniform", "star"])
    @pytest.mark.parametrize(
        "config",
        [SolverConfig(), SolverConfig(mode=HEURISTIC, theta=0.7, delta=0.01),
         SolverConfig(use_dominance=False)],
        ids=["exact", "theta-0.7-delta-0.01", "dominance-off"],
    )
    def test_every_candidate_is_counted_once(self, monkeypatch, family, config):
        # At 0-based level k each parent has n - k candidates, and each is
        # built, dominated or pruned by the bound, whichever scan reads it.
        for (scan, width), seed in itertools.product(SCANS.items(), (1, 2, 3)):
            monkeypatch.setattr(bidp, "_WIDE_LEVEL", width)
            inst = generate_random(9, seed=seed)
            if family == "star":
                inst = generate_star_reduction(inst.travel)
            parents = 1
            for k, st in enumerate(solve(inst, config).stats["levels"]):
                assert st["fwd_created"] + st["fwd_dominated"] + \
                    st["fwd_pruned_bound"] == (inst.n - k) * parents, \
                    (scan, seed, k)
                parents = st["fwd_created"]

    def test_return_legs_are_counted_at_level_one(self):
        inst = generate_random(10, seed=5)
        exact = solve(inst)
        relaxed = solve(inst, SolverConfig(mode=HEURISTIC, theta=0.7, delta=0.01))
        assert len(exact.stats["levels"]) == 10
        # The relaxed search stops at the level whose frontier empties.
        assert len(relaxed.stats["levels"]) < 10
        for report in (exact, relaxed):
            stats = report.stats
            levels = stats["levels"]
            assert levels[0]["bwd_created"] == 10
            assert all(st["fwd_pruned_beta"] == 0 for st in levels)
            assert all(
                st[key] == 0
                for st in levels[1:]
                for key in ("bwd_created", "bwd_dominated", "bwd_pruned_bound",
                            "bwd_pruned_beta")
            )
            assert stats["labels_total"] == \
                1 + sum(st["fwd_created"] for st in levels)
            assert stats["join_candidates"] == levels[-1]["fwd_created"]
            assert report.objective == 16115
