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
)
from prtrp import bidp
from prtrp.bounds import nearest_rows

from helpers import (
    ancestor_sets,
    breaks_triangle,
    random_asymmetric,
    reference_position_rows,
    reference_walk_table,
    walk_bound,
)


@pytest.fixture
def star_table(star, star_index):
    return build_bounds_table(star, star_index)


class TestTable:
    def test_star_rows(self, star_table):
        # The source powers all three vertices, so its row covers every
        # position; a leaf's covers only the last.
        assert len(star_table) == 3
        assert [len(row) for row in star_table] == [3, 1, 1]

    @staticmethod
    def instances():
        rng = random.Random(2430)
        for n in (1, 2, 5, 9):
            base = generate_random(n, seed=2430 + n)
            yield base
            yield generate_star_reduction(base.travel)
            yield make_instance(f"chain-{n}", base.travel,
                                {v: v - 1 for v in range(2, n + 1)}, source=1)
            for high in (3, 1000):
                travel, parent, source = random_asymmetric(rng, n, high)
                yield make_instance(f"asym-{n}-{high}", travel, parent, source=source)

    def test_rows_equal_the_reference(self):
        for inst in self.instances():
            table = build_bounds_table(inst, build_index(inst))
            anc = ancestor_sets(inst)
            assert len(table) == inst.n
            assert table == reference_position_rows(inst), inst.name
            for i, row in enumerate(table, 1):
                # one entry per applicable position k = n-|S_i|+1..n
                assert len(row) == sum(1 for a in anc.values() if i in a), \
                    (inst.name, i)


class TestPositionLowerBound:
    # The 3 shortest of the star's 12 arcs all have length 1.
    def test_star_source_values(self, star_table):
        assert star_table[0] == (6, 7, 9)

    def test_star_leaf_value(self, star_table):
        # leaves only become applicable at the last position
        assert star_table[1] == star_table[2] == (6,)

    def test_monotone_on_applicable_range(self):
        for k in range(10):
            n = 5 + k % 4
            inst = generate_random(n, seed=910 + k)
            table = build_bounds_table(inst, build_index(inst))
            for row in table:
                assert list(row) == sorted(row)


class TestComputeBeta:
    def test_star_with_greedy_bound(self, star, star_index, star_table):
        ub = greedy_distance(star, star_index).objective
        assert ub == 6
        assert compute_beta(star_table, ub) == [1, 3, 3]

    def test_beta_is_the_position_before_the_first_bound_above_upper(self):
        for inst in TestTable.instances():
            n = inst.n
            table = build_bounds_table(inst, build_index(inst))
            rows = reference_position_rows(inst)
            values = {b for row in rows for b in row}
            for upper in {0, 10**18, *values, *(b - 1 for b in values if b)}:
                expected = [
                    next((n - len(row) + j for j, b in enumerate(row) if b > upper), n)
                    for row in rows
                ]
                assert compute_beta(table, upper) == expected, (inst.name, upper)

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
