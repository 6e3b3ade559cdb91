import random

import pytest
from hypothesis import given, settings, strategies as st

from prtrp import (
    build_index,
    disrupted_count,
    evaluate_route,
    generate_random,
    generate_star_reduction,
    make_newly_lit,
)

from helpers import ancestor_sets, dark_profile, leg_sum_objective, random_orders

EXAMPLES = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def mask(*vertices):
    out = 0
    for v in vertices:
        out |= 1 << (v - 1)
    return out


class TestBuildIndex:
    def test_star_masks(self, star_index):
        assert tuple(map(len, star_index.successors)) == (3, 1, 1)
        assert star_index.ancestors[2] == mask(1, 3)

    def test_chain_masks(self, chain_index):
        assert tuple(map(len, chain_index.successors)) == (3, 2, 1)
        assert chain_index.ancestors[2] == mask(1, 2, 3)

    def test_partition_into_child_subtrees(self):
        # Every vertex's subtree is itself plus the disjoint union of its
        # children's subtrees, so its count is 1 plus theirs.
        for k in range(8):
            inst = generate_random(9, seed=400 + k)
            index = build_index(inst)
            below = {v: 0 for v in range(1, 10)}
            for c, p in inst.power_parent.items():
                below[p] += len(index.successors[c - 1])
            for v in range(1, 10):
                assert len(index.successors[v - 1]) == 1 + below[v]

    def test_successor_ancestor_duality(self):
        # The vertices at or below i are those whose ancestor sets hold i,
        # listed in ascending order: uniform and star trees up to n = 63.
        for n, seed in ((8, 414), (12, 415), (30, 416), (63, 1), (63, 417)):
            base = generate_random(n, seed=seed)
            for inst in (base, generate_star_reduction(base.travel)):
                index = build_index(inst)
                for i in range(1, n + 1):
                    holders = tuple(
                        u for u, a in enumerate(index.ancestors, 1) if a & mask(i)
                    )
                    assert index.successors[i - 1] == holders, (inst.name, i)
                    assert len(index.successors[i - 1]) == len(holders)


class TestDisruptedCount:
    def test_star_values(self, star_index):
        assert disrupted_count(star_index, 0) == 3
        assert disrupted_count(star_index, mask(2)) == 3
        assert disrupted_count(star_index, mask(1, 2)) == 1
        assert disrupted_count(star_index, mask(1, 2, 3)) == 0

    def test_depot_bits_ignored(self, star_index):
        extra = mask(1, 2) | (1 << 60)
        assert disrupted_count(star_index, extra) == 1

    def test_monotone_in_repaired_set(self):
        rng = random.Random(99)
        for k in range(10):
            inst = generate_random(8, seed=500 + k)
            index = build_index(inst)
            for _ in range(50):
                small = rng.getrandbits(8)
                big = small | rng.getrandbits(8)
                assert disrupted_count(index, small) >= disrupted_count(index, big)

    def test_newly_lit_is_the_count_difference(self):
        # Every mask at n <= 8 and every vertex v in it, on uniform and star
        # trees: newly_lit(v, mask) is what repairing v last lights.
        for n in range(1, 9):
            for seed in (1, 2, 3):
                base = generate_random(n, seed=seed)
                for inst in (base, generate_star_reduction(base.travel)):
                    index = build_index(inst)
                    newly_lit = make_newly_lit(index)
                    counts = [disrupted_count(index, m) for m in range(1 << n)]
                    for m in range(1 << n):
                        for v in range(1, n + 1):
                            if m & mask(v):
                                assert newly_lit(v, m) == \
                                    counts[m ^ mask(v)] - counts[m], (inst.name, m, v)

    def test_newly_lit_at_the_vertex_limit(self):
        # Seeded masks of every density at n = 63, so deep vertices light
        # as well as shallow ones.
        rng = random.Random(63)
        base = generate_random(63, seed=1)
        for inst in (base, generate_star_reduction(base.travel)):
            index = build_index(inst)
            newly_lit = make_newly_lit(index)
            lit = 0
            for _ in range(500):
                density = rng.random()
                m = sum(mask(v) for v in range(1, 64) if rng.random() < density)
                dark = disrupted_count(index, m)
                for v in range(1, 64):
                    if m & mask(v):
                        got = newly_lit(v, m)
                        assert got == disrupted_count(index, m ^ mask(v)) - dark, \
                            (inst.name, m, v)
                        lit += got > 1
            assert lit, "no vertex lit a successor"


class TestEvaluateRoute:
    def test_source_first(self, star, star_index):
        route = evaluate_route(star, star_index, (1, 2, 3))
        assert route.t == (1, 2, 3)
        assert route.r == (1, 2, 3)
        assert route.objective == 6

    def test_source_last_blocks_everything(self, star, star_index):
        route = evaluate_route(star, star_index, (2, 3, 1))
        assert route.t == (5, 2, 3)
        assert route.r == (5, 5, 5)
        assert route.objective == 15

    def test_single_vertex(self):
        inst = generate_random(1, seed=8)
        index = build_index(inst)
        route = evaluate_route(inst, index, (1,))
        assert route.objective == inst.travel[0][1]

    def test_rejects_non_permutation(self, star, star_index):
        with pytest.raises(ValueError):
            evaluate_route(star, star_index, (1, 2))
        with pytest.raises(ValueError):
            evaluate_route(star, star_index, (1, 2, 2))

    def test_rejects_unabsorbed_durations(self, star, star_index):
        from prtrp import Instance

        withp = Instance(
            name="p", travel=star.travel,
            power_parent=dict(star.power_parent), source=1,
            repair_duration=(1, 0, 0),
        )
        with pytest.raises(ValueError):
            evaluate_route(withp, star_index, (1, 2, 3))


@st.composite
def orders_on_trees(draw):
    """A uniform or star tree of up to 63 vertices and a visiting order.

    Small coordinate ranges put vertices on one point, so some legs have
    length zero and arrival times tie.
    """
    n = draw(st.integers(1, 63))
    base = generate_random(
        n, seed=draw(st.integers(0, 9999)),
        coord_range=draw(st.sampled_from([0, 1, 2, 5, 1000])),
    )
    inst = draw(st.sampled_from([base, generate_star_reduction(base.travel)]))
    return inst, draw(st.permutations(range(1, n + 1)))


class TestRouteProperties:
    @EXAMPLES
    @given(orders_on_trees())
    def test_disruption_is_the_latest_ancestor_arrival(self, case):
        inst, order = case
        route = evaluate_route(inst, build_index(inst), order)
        t = {}
        now = prev = 0
        for v in order:
            now += inst.travel[prev][v]
            t[v] = now
            prev = v
        assert route.t == tuple(t[v] for v in range(1, inst.n + 1))
        for u, anc in ancestor_sets(inst).items():
            assert route.r[u - 1] == max(t[a] for a in anc), (inst.name, order, u)

    def test_leg_sum_equals_disruption_sum(self):
        rng = random.Random(123)
        for k in range(12):
            n = 3 + k % 6
            inst = generate_random(n, seed=600 + k)
            index = build_index(inst)
            for order in random_orders(rng, n, 30):
                route = evaluate_route(inst, index, order)
                assert route.objective == leg_sum_objective(inst, order)

    def test_dark_profile_non_increasing(self):
        rng = random.Random(321)
        for k in range(8):
            n = 4 + k % 5
            inst = generate_random(n, seed=700 + k)
            for order in random_orders(rng, n, 20):
                profile = dark_profile(inst, order)
                assert all(a >= b for a, b in zip(profile, profile[1:]))

    def test_rearrangement_floor(self):
        # Total disruption is at least the dark profile paired with the
        # sorted leg lengths.
        rng = random.Random(231)
        for k in range(10):
            n = 4 + k % 5
            inst = generate_random(n, seed=800 + k)
            index = build_index(inst)
            for order in random_orders(rng, n, 25):
                route = evaluate_route(inst, index, order)
                profile = dark_profile(inst, order)
                legs = []
                prev = 0
                for v in order:
                    legs.append(inst.travel[prev][v])
                    prev = v
                floor = sum(c * d for c, d in zip(profile, sorted(legs)))
                assert route.objective >= floor
