from itertools import permutations

import pytest

from prtrp import (
    brute_force,
    build_bounds_table,
    build_index,
    compute_beta,
    evaluate_route,
    generate_random,
    greedy_distance,
    position_lower_bound,
)

from helpers import ancestor_sets, dark_count, leg_sum_objective


@pytest.fixture
def star_table(star, star_index):
    return build_bounds_table(star, star_index)


class TestTable:
    def test_star_sorted_arcs(self, star_table):
        assert star_table.sorted_arcs == (1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3)

    def test_prefix_sums_consistent(self, star_table):
        for j in range(1, len(star_table.sorted_arcs) + 1):
            assert star_table.prefix_plain[j] == sum(star_table.sorted_arcs[:j])


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


def outgoing_bound(table, value, k, dark):
    """The solver's outgoing-path bound for a k-vertex path (BoundsTable)."""
    return value + dark * table.sorted_arcs[0] + table.outgoing_tail[k]


class TestPathLowerBounds:
    def test_outgoing_examples(self, star_table):
        # the star's three shortest arcs are 1: tail k holds the legs
        # after the next one, charged 2 and 1 (k=0) or 1 (k=1) dark vertices
        assert star_table.outgoing_tail == (3, 1, 0, 0)
        # P = (0,2): value 6, three vertices dark
        assert outgoing_bound(star_table, 6, 1, 3) == 10
        # P = (0,1): value 3, two dark; ties the optimum, must not prune
        assert outgoing_bound(star_table, 3, 1, 2) == 6
        # complete path: bound collapses to the accumulated value
        assert outgoing_bound(star_table, 123, 3, 0) == 123

    def test_bounds_below_best_completion_exhaustive(self):
        # enumerate every tour of small instances; prefixes up to length 3
        # must never be bounded above their best completion
        for k in range(6):
            n = 6
            inst = generate_random(n, seed=970 + k)
            index = build_index(inst)
            table = build_bounds_table(inst, index)
            best_for_prefix = {}
            for perm in permutations(range(1, n + 1)):
                obj = evaluate_route(inst, index, perm).objective
                for L in (1, 2, 3):
                    pre = perm[:L]
                    if obj < best_for_prefix.get(pre, 1 << 62):
                        best_for_prefix[pre] = obj
            anc = ancestor_sets(inst)
            for pre, best in best_for_prefix.items():
                lb = outgoing_bound(
                    table,
                    leg_sum_objective(inst, pre),
                    len(pre),
                    dark_count(anc, pre),
                )
                assert lb <= best, (inst.name, pre)
