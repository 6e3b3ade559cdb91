import re

import pytest

from prtrp import (
    EngineLimitError,
    SolverConfig,
    brute_force,
    build_index,
    evaluate_route,
    generate_random,
    solve,
)
from prtrp import bidp
from prtrp.bidp import EXACT, HEURISTIC, forward_value

from helpers import (
    ancestor_sets,
    dark_count,
    pure_backward_optimum,
    pure_backward_recursion,
    pure_forward_optimum,
)


@pytest.fixture
def expansions(monkeypatch):
    """Counts the solver's disrupted-count calls (one or two per candidate)
    under the key "calls"; a patched clock can read it to pick its moment."""
    counter = {"calls": 0}
    real_counter = bidp.make_disrupted_counter

    def counting_counter(index):
        count = real_counter(index)

        def counted(mask):
            counter["calls"] += 1
            return count(mask)

        return counted

    monkeypatch.setattr(bidp, "make_disrupted_counter", counting_counter)
    return counter


class TestPathValues:
    def test_forward_star(self, star, star_index):
        assert forward_value(star, star_index, (1,)) == 3
        assert forward_value(star, star_index, (1, 2)) == 5
        assert forward_value(star, star_index, (2, 3)) == 9

    def test_full_paths_meet_the_route_objective(self, star, star_index):
        route = evaluate_route(star, star_index, (2, 3, 1))
        assert forward_value(star, star_index, (2, 3, 1)) == route.objective

    def test_rejects_duplicates(self, star, star_index):
        with pytest.raises(ValueError):
            forward_value(star, star_index, (1, 1))


class TestSolverConfig:
    def test_exact_mode_rejects_relaxation(self):
        with pytest.raises(ValueError):
            SolverConfig(mode=EXACT, theta=0.9)
        with pytest.raises(ValueError):
            SolverConfig(mode=EXACT, delta=0.01)
        with pytest.raises(ValueError):
            SolverConfig(theta=0.0)

    def test_percent_resolution(self):
        cfg = SolverConfig(mode=HEURISTIC, theta=0.8, delta=0.01)
        assert cfg.theta_pct == 80
        assert cfg.delta_pct == 1


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

    def test_all_pruning_off_objective_unchanged(self):
        for k in range(16):
            n = 4 + k % 5
            inst = generate_random(n, seed=2000 + k)
            index = build_index(inst)
            on = solve(inst, index=index).objective
            off = solve(inst, SolverConfig(use_path_bounds=False), index).objective
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

    def test_labels_cap_stops_inside_a_level(self):
        inst = generate_random(12, seed=2700)
        full = solve(inst).stats["levels"]
        created = [st["fwd_created"] + st["bwd_created"] for st in full]
        # One label past level 4; level 5 expands over a thousand parents,
        # so the cap is crossed long before that level ends.
        cap = 2 + sum(created[:4]) + 1
        after_level_5 = cap - 1 + created[4]
        report = solve(inst, SolverConfig(mode=HEURISTIC, labels_cap=cap))
        levels = report.stats["levels"]
        assert report.stats["labels_cap_reached"]
        assert not report.proven_optimal
        assert len(levels) == 5
        assert 0 < levels[-1]["fwd_created"] < full[4]["fwd_created"]
        assert report.stats["labels_total"] < after_level_5
        with pytest.raises(EngineLimitError, match=r"at level 5 \((\d+) labels\)") as exc:
            solve(inst, SolverConfig(labels_cap=cap))
        stopped_at = int(re.search(r"\((\d+) labels\)", str(exc.value)).group(1))
        assert cap < stopped_at < after_level_5

    def test_time_limit_stops_inside_a_level(self, monkeypatch, expansions):
        inst = generate_random(12, seed=2700)
        full = solve(inst).stats["levels"]
        # The clock jumps past the deadline halfway through the label
        # expansions, which falls inside one of the large middle levels.
        flip_at, expansions["calls"] = expansions["calls"] // 2, 0
        with monkeypatch.context() as m:
            m.setattr(bidp.time, "perf_counter",
                      lambda: 1e9 if expansions["calls"] >= flip_at else 0.0)
            report = solve(inst, SolverConfig(mode=HEURISTIC, time_limit=1.0))
        levels = report.stats["levels"]
        assert report.stats["time_limit_reached"]
        assert not report.proven_optimal
        stopped = levels[-1]
        assert 0 < stopped["fwd_created"] < full[len(levels) - 1]["fwd_created"]
        index = build_index(inst)
        assert evaluate_route(inst, index, report.route.order).objective == \
            report.objective

    @pytest.mark.parametrize("mode", [EXACT, HEURISTIC])
    def test_deadline_after_the_last_level_keeps_the_search(
        self, monkeypatch, expansions, mode
    ):
        inst = generate_random(6, seed=3)
        config = SolverConfig(mode=mode, time_limit=10.0)
        full = solve(inst, config)
        # The clock passes the deadline only once every label of level n
        # has been built.
        flip_at, expansions["calls"] = expansions["calls"], 0
        with monkeypatch.context() as m:
            m.setattr(bidp.time, "perf_counter",
                      lambda: 1e9 if expansions["calls"] >= flip_at else 0.0)
            report = solve(inst, config)
        stats = report.stats
        assert len(stats["levels"]) == inst.n
        assert not stats["time_limit_reached"]
        assert stats["join_candidates"] == stats["levels"][-1]["fwd_created"] > 0
        assert report.proven_optimal == (mode == EXACT)
        assert (report.objective, report.route.order) == \
            (full.objective, full.route.order)

    def test_relaxed_search_stops_once_every_path_is_pruned(self):
        inst = generate_random(10, seed=2900)
        report = solve(inst, SolverConfig(mode=HEURISTIC, theta=0.7, delta=0.01))
        stats = report.stats
        created = [st["fwd_created"] for st in stats["levels"]]
        # The level that builds no label is the last one recorded.
        assert len(created) < inst.n
        assert created[-1] == 0 and all(created[:-1])
        assert len(stats["u_trajectory"]) == len(created) + 1
        assert stats["join_candidates"] == 0
        assert not stats["time_limit_reached"] and not stats["labels_cap_reached"]
        assert report.objective == stats["u_trajectory"][-1]
        index = build_index(inst)
        assert evaluate_route(inst, index, report.route.order).objective == \
            report.objective

    def test_ub_refresh_zero_still_exact(self):
        for k in range(8):
            inst = generate_random(6, seed=2800 + k)
            index = build_index(inst)
            assert (
                solve(inst, SolverConfig(ub_refresh_width=0), index).objective
                == solve(inst, index=index).objective
            )


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
                2 + 10 + sum(st["fwd_created"] for st in levels)
            assert stats["join_candidates"] == levels[-1]["fwd_created"]
            assert report.objective == 16115
