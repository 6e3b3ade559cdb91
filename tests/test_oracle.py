import pytest

from prtrp import (
    EngineLimitError,
    brute_force,
    build_index,
    evaluate_route,
    generate_random,
    held_karp_forward,
    make_instance,
)


class TestBruteForce:
    def test_star(self, star, star_index):
        route = brute_force(star, star_index)
        assert route.objective == 6
        assert route.order == (1, 2, 3)

    def test_single_vertex(self):
        inst = generate_random(1, seed=4)
        route = brute_force(inst, build_index(inst))
        assert route.objective == inst.travel[0][1]

    def test_two_vertex_chain(self):
        travel = [[0, 3, 4], [3, 0, 2], [4, 2, 0]]
        inst = make_instance("c2", travel, {2: 1}, source=1)
        index = build_index(inst)
        both = [
            evaluate_route(inst, index, order).objective
            for order in ((1, 2), (2, 1))
        ]
        assert brute_force(inst, index).objective == min(both)

    def test_ties_break_lexicographically(self):
        travel = [
            [0, 5, 5, 5],
            [5, 0, 5, 5],
            [5, 5, 0, 5],
            [5, 5, 5, 0],
        ]
        inst = make_instance("flat", travel, {2: 1, 3: 1}, source=1)
        route = brute_force(inst, build_index(inst))
        assert route.order == (1, 2, 3)

    def test_refuses_large_instances(self):
        inst = generate_random(11, seed=5)
        with pytest.raises(EngineLimitError):
            brute_force(inst, build_index(inst))


class TestHeldKarpForward:
    def test_star(self, star):
        route = held_karp_forward(star)
        assert route.objective == 6
        assert route.order == (1, 2, 3)

    def test_single_vertex(self):
        inst = generate_random(1, seed=4)
        assert held_karp_forward(inst).objective == inst.travel[0][1]

    def test_matches_brute_force(self):
        for k in range(30):
            n = 4 + k % 6
            inst = generate_random(n, seed=3000 + k)
            index = build_index(inst)
            assert held_karp_forward(inst).objective == \
                brute_force(inst, index).objective, inst.name

    def test_route_is_consistent(self):
        for k in range(8):
            inst = generate_random(8, seed=3100 + k)
            route = held_karp_forward(inst)
            index = build_index(inst)
            again = evaluate_route(inst, index, route.order)
            assert again == route

    def test_refuses_large_instances(self):
        inst = generate_random(21, seed=5)
        with pytest.raises(EngineLimitError):
            held_karp_forward(inst)

    def test_rejects_unabsorbed_durations(self, star):
        from prtrp import Instance

        withp = Instance(
            name="p", travel=star.travel,
            power_parent=dict(star.power_parent), source=1,
            repair_duration=(1, 0, 0),
        )
        with pytest.raises(ValueError):
            held_karp_forward(withp)
        with pytest.raises(ValueError):
            brute_force(withp, build_index(withp))
