import random
from itertools import permutations

import pytest

from prtrp import (
    brute_force,
    build_bounds_table,
    build_index,
    build_walk_table,
    compute_beta,
    evaluate_route,
    generate_random,
    generate_star_reduction,
    greedy_distance,
    make_instance,
    position_lower_bound,
)
from prtrp import bidp
from prtrp.bounds import nearest_rows

from helpers import (
    ancestor_sets,
    breaks_triangle,
    random_asymmetric,
    reference_walk_table,
    walk_bound,
)


@pytest.fixture
def star_table(star, star_index):
    return build_bounds_table(star, star_index)


class TestTable:
    def test_star_prefix_sums(self, star_table):
        # The 3 shortest of the 12 arcs all have length 1.
        assert star_table.prefix_plain == (0, 1, 2, 3)
        assert star_table.prefix_weighted == (0, 3, 5, 6)

    def test_prefix_sums_consistent(self):
        inst = generate_random(7, seed=5)
        table = build_bounds_table(inst, build_index(inst))
        arcs = sorted(
            inst.travel[i][j] for i in range(8) for j in range(8) if i != j
        )[:7]
        for j in range(8):
            assert table.prefix_plain[j] == sum(arcs[:j])
            assert table.prefix_weighted[j] == sum(
                (7 - p) * a for p, a in enumerate(arcs[:j])
            )


class TestPositionLowerBound:
    def test_star_source_values(self, star_table):
        assert position_lower_bound(star_table, 1, 1) == 6
        assert position_lower_bound(star_table, 1, 2) == 7
        assert position_lower_bound(star_table, 1, 3) == 9

    def test_star_leaf_value(self, star_table):
        # leaves only become applicable at the last position
        assert position_lower_bound(star_table, 2, 3) == 6

    def test_not_applicable(self, star_table):
        with pytest.raises(ValueError, match="not applicable"):
            position_lower_bound(star_table, 2, 2)
        with pytest.raises(ValueError):
            position_lower_bound(star_table, 1, 0)

    def test_monotone_on_applicable_range(self):
        for k in range(10):
            n = 5 + k % 4
            inst = generate_random(n, seed=910 + k)
            index = build_index(inst)
            table = build_bounds_table(inst, index)
            for i in range(1, n + 1):
                lo = n - index.successor_count[i - 1] + 1
                values = [
                    position_lower_bound(table, i, k2)
                    for k2 in range(max(lo, 1), n + 1)
                ]
                assert values == sorted(values)


class TestComputeBeta:
    def test_star_with_greedy_bound(self, star, star_index, star_table):
        ub = greedy_distance(star, star_index).objective
        assert ub == 6
        assert compute_beta(star_table, ub) == [1, 3, 3]

    def test_beta_never_cuts_the_optimum(self):
        # with U = optimal objective, the optimal route respects every beta
        for k in range(15):
            n = 5 + k % 4
            inst = generate_random(n, seed=940 + k)
            index = build_index(inst)
            table = build_bounds_table(inst, index)
            best = brute_force(inst, index)
            beta = compute_beta(table, best.objective)
            for pos, v in enumerate(best.order, start=1):
                assert pos <= beta[v - 1], (inst.name, v, pos, beta)


class TestPathLowerBounds:
    def test_walk_table_star_values(self, star, star_index):
        walks = build_walk_table(star, star_index)
        # shortest arc out of 1, 2, 3 (column 0, the depot, is unused)
        assert walks.minout == (0, 1, 1, 1)
        # H[2][2]: 2->1->3 and 2->3->1 both cost 2*1 + 2; a walk never
        # turns straight back, so 2->1->2 (2*1 + 1) is not counted
        assert walks.H == ((0, 0, 0, 0), (0, 1, 1, 1), (0, 3, 4, 3))
        # source 1 dark: legs up to and including the one into 1 weigh 3.
        # G[2][2] = 3*d(2,1) + 1*d(1,3) = 5; G[2][3] = 3*d(3,2) + 3*d(2,1) = 6
        # beats 3*d(3,1) + d(1,2) = 7; G[r][1] is H[r][1]
        assert walks.G == ((0, 0, 0, 0), (0, 1, 3, 6), (0, 3, 5, 6))

    def test_star_prefix_bounds(self, star, star_index):
        walks = build_walk_table(star, star_index)
        anc = ancestor_sets(star)
        # (1): value 3, two dark after it; ties the optimum 6, must not prune
        assert walk_bound(walks, star, anc, (1,)) == 6
        # (2) and (3) leave the source dark; both meet their best completion,
        # (2, 1, 3) = 11 and (3, 2, 1) = 15
        assert walk_bound(walks, star, anc, (2,)) == 11
        assert walk_bound(walks, star, anc, (3,)) == 15
        # complete path: the bound collapses to the accumulated value
        assert walk_bound(walks, star, anc, (1, 2, 3)) == 6

    def test_bounds_below_best_completion_exhaustive(self):
        # enumerate every tour of small instances; no prefix, with the
        # source repaired or dark, may be bounded above its best completion
        seen = set()
        for k in range(6):
            n = 6
            inst = generate_random(n, seed=970 + k)
            index = build_index(inst)
            walks = build_walk_table(inst, index)
            best_for_prefix = {}
            for perm in permutations(range(1, n + 1)):
                obj = evaluate_route(inst, index, perm).objective
                for L in range(1, n + 1):
                    pre = perm[:L]
                    if obj < best_for_prefix.get(pre, 1 << 62):
                        best_for_prefix[pre] = obj
            anc = ancestor_sets(inst)
            for pre, best in best_for_prefix.items():
                assert walk_bound(walks, inst, anc, pre) <= best, (inst.name, pre)
                seen.add(inst.source in pre)
        assert seen == {True, False}


class TestWalkTableScan:
    """build_walk_table stops each row early; it must equal the full scan."""

    def test_equals_the_full_scan_on_uniform_and_star_trees(self):
        # coord_range 5 puts many equal distances, and so cost ties, in a row.
        for n in range(2, 21):
            for coord_range in (1000, 5):
                base = generate_random(n, seed=2400 + n, coord_range=coord_range)
                for inst in (base, generate_star_reduction(base.travel)):
                    walks = build_walk_table(inst, build_index(inst))
                    assert tuple(walks) == reference_walk_table(inst), \
                        (n, coord_range, inst.name)

    def test_equals_the_full_scan_off_the_triangle_inequality(self):
        rng = random.Random(2410)
        broken = 0
        for k in range(90):
            n = 2 + k % 14
            travel, parent, source = random_asymmetric(rng, n, (3, 1000, 10**6)[k % 3])
            broken += breaks_triangle(travel)
            inst = make_instance(f"asym-{k}", travel, parent, source=source)
            walks = build_walk_table(inst, build_index(inst))
            assert tuple(walks) == reference_walk_table(inst), k
        assert broken >= 80


class TestNearestRows:
    """The travel rows the solver sorts once per solve and shares."""

    @staticmethod
    def instances():
        rng = random.Random(2420)
        for n in (1, 2, 5, 9, 14):
            for coord_range in (1000, 5):
                base = generate_random(n, seed=2420 + n, coord_range=coord_range)
                yield base
                yield generate_star_reduction(base.travel)
        for k in range(30):
            travel, parent, source = random_asymmetric(rng, 1 + k % 10, (3, 10**6)[k % 2])
            yield make_instance(f"asym-{k}", travel, parent, source=source)

    def test_each_row_lists_the_other_fault_vertices_nearest_first(self):
        for inst in self.instances():
            rows = nearest_rows(inst.travel)
            assert len(rows) == inst.n + 1
            for e, row in enumerate(rows):
                others = [v for v in range(1, inst.n + 1) if v != e]
                assert sorted(v for _, v, _ in row) == others, (inst.name, e)
                assert [d for d, _, _ in row] == [inst.travel[e][v] for _, v, _ in row]
                assert [bit for _, v, bit in row] == [1 << (v - 1) for _, v, _ in row]
                keys = [(d, v) for d, v, _ in row]
                assert keys == sorted(keys), (inst.name, e)

    def test_a_table_from_the_rows_equals_the_full_scan(self):
        for inst in self.instances():
            index = build_index(inst)
            walks = build_walk_table(inst, index, nearest_rows(inst.travel))
            assert tuple(walks) == reference_walk_table(inst), inst.name

    def test_solve_builds_its_table_from_the_rows_its_refresh_reads(
        self, monkeypatch
    ):
        inst = generate_random(10, seed=2426)
        tables, scored = [], []
        real_table, real_cost = bidp.build_walk_table, bidp._completion_cost

        def recording_table(instance, index, rows):
            tables.append(rows)
            return real_table(instance, index, rows)

        def recording_cost(lab, limit, nearest, newly_lit, full):
            scored.append(nearest)
            return real_cost(lab, limit, nearest, newly_lit, full)

        monkeypatch.setattr(bidp, "build_walk_table", recording_table)
        monkeypatch.setattr(bidp, "_completion_cost", recording_cost)
        bidp.solve(inst, bidp.SolverConfig(mode=bidp.HEURISTIC, theta=0.8, delta=0.01))
        assert tables == [nearest_rows(inst.travel)]
        assert scored and all(rows is tables[0] for rows in scored)
