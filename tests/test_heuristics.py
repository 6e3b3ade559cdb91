import inspect
import itertools
import random
import sys

import pytest

from prtrp import (
    brute_force,
    build_index,
    evaluate_route,
    generate_random,
    generate_star_reduction,
    greedy_complete,
    greedy_distance,
    greedy_priority_distance,
    make_instance,
)
from prtrp import heuristics
from prtrp.heuristics import best_descent, descent, greedy_incumbent

from helpers import (
    breaks_triangle,
    plain_moves,
    random_asymmetric,
    reference_descent,
)


def table_moves(n):
    """Every move of heuristics._move_table(n) in its scan order, as
    (first, end, window): the window it writes over order[first:end] when
    order is 1..n."""
    order = list(range(1, n + 1))
    relocations, windows = heuristics._move_table(n)
    for size, a, lefts, rights in relocations:
        seg = order[a:a + size]
        for b in lefts:
            yield b, a + size, tuple(seg + order[b:a])
        for b in rights:
            yield a, b + size, tuple(order[a + size:b + size] + seg)
    for first, end, positions in windows:
        yield first, end, tuple(order[p] for p in positions)


class TestGreedyDistance:
    def test_star_trace(self, star, star_index):
        route = greedy_distance(star, star_index)
        assert route.order == (1, 2, 3)
        assert route.objective == 6

    def test_single_vertex(self):
        inst = generate_random(1, seed=2)
        route = greedy_distance(inst, build_index(inst))
        assert route.order == (1,)

    def test_never_beats_the_oracle(self):
        for k in range(20):
            n = 4 + k % 6
            inst = generate_random(n, seed=1200 + k)
            index = build_index(inst)
            best = brute_force(inst, index).objective
            assert greedy_distance(inst, index).objective >= best

    def test_tie_breaks_to_smallest_label(self):
        travel = [
            [0, 5, 5, 5],
            [5, 0, 5, 5],
            [5, 5, 0, 5],
            [5, 5, 5, 0],
        ]
        inst = make_instance("flat", travel, {2: 1, 3: 1}, source=1)
        route = greedy_distance(inst, build_index(inst))
        assert route.order == (1, 2, 3)


class TestGreedyPriorityDistance:
    def test_star_trace(self, star, star_index):
        # from the depot: 1/3 beats 2/1 and 3/1; then 1/1 beats 2/1
        route = greedy_priority_distance(star, star_index)
        assert route.order == (1, 2, 3)
        assert route.objective == 6

    def test_equal_counts_degenerate_to_distance(self):
        # leaves tie on successor count, so distance decides among them
        travel = [
            [0, 9, 4, 2],
            [9, 0, 4, 7],
            [4, 4, 0, 3],
            [2, 7, 3, 0],
        ]
        inst = make_instance("t", travel, {2: 1, 3: 1}, source=1)
        index = build_index(inst)
        gipd = greedy_priority_distance(inst, index)
        # ratios from 0: 9/3 = 3, 4/1 = 4, 2/1 = 2 -> nearest leaf wins
        assert gipd.order[0] == 3

    def test_single_vertex(self):
        inst = generate_random(1, seed=2)
        route = greedy_priority_distance(inst, build_index(inst))
        assert route.order == (1,)

    def test_never_beats_the_oracle(self):
        for k in range(20):
            n = 4 + k % 6
            inst = generate_random(n, seed=1300 + k)
            index = build_index(inst)
            best = brute_force(inst, index).objective
            assert greedy_priority_distance(inst, index).objective >= best

    def test_pulls_big_subtrees_forward(self):
        # source guards everything at equal distances: must be visited first
        travel = [
            [0, 6, 6, 6, 6],
            [6, 0, 6, 6, 6],
            [6, 6, 0, 6, 6],
            [6, 6, 6, 0, 6],
            [6, 6, 6, 6, 0],
        ]
        inst = make_instance("even", travel, {2: 1, 3: 1, 4: 1}, source=1)
        route = greedy_priority_distance(inst, build_index(inst))
        assert route.order[0] == 1


class TestGreedyComplete:
    def test_prefix_extension(self, star, star_index):
        route = greedy_complete(star, star_index, (1,))
        assert route.order == (1, 2, 3)
        assert route.objective == 6

    def test_complete_prefix_is_returned_evaluated(self, star, star_index):
        route = greedy_complete(star, star_index, (2, 3, 1))
        assert route.order == (2, 3, 1)
        assert route.objective == 15

    def test_empty_prefix_equals_greedy_distance(self, star, star_index):
        assert greedy_complete(star, star_index, ()).order == \
            greedy_distance(star, star_index).order

    def test_rejects_duplicates(self, star, star_index):
        with pytest.raises(ValueError):
            greedy_complete(star, star_index, (2, 2))
        with pytest.raises(ValueError):
            greedy_complete(star, star_index, (0,))


class TestGreedyIncumbent:
    def test_better_tour_wins_and_a_tie_goes_to_the_smaller_order(self):
        winners = set()
        for k in range(30):
            inst = generate_random(8, seed=1500 + k)
            index = build_index(inst)
            tours = [
                greedy_distance(inst, index), greedy_priority_distance(inst, index)
            ]
            best = greedy_incumbent(inst, index)
            assert best == min(tours, key=lambda rt: (rt.objective, rt.order))
            winners.add(tours.index(best))
        assert winners == {0, 1}
        inst = generate_random(4, seed=11, coord_range=6)
        index = build_index(inst)
        gid, gipd = greedy_distance(inst, index), greedy_priority_distance(inst, index)
        assert gid.objective == gipd.objective and gipd.order < gid.order
        assert greedy_incumbent(inst, index) == gipd


class TestDescent:
    def test_star_from_the_worst_tour(self, star, star_index):
        assert evaluate_route(star, star_index, (3, 2, 1)).objective == 15
        route = descent(star, star_index, (3, 2, 1))
        assert (route.objective, route.order) == (6, (1, 2, 3))

    def test_never_beats_the_oracle(self):
        for k in range(20):
            n = 4 + k % 6
            inst = generate_random(n, seed=1300 + k)
            index = build_index(inst)
            start = greedy_distance(inst, index)
            route = descent(inst, index, start.order)
            assert brute_force(inst, index).objective <= route.objective
            assert route.objective <= start.objective
            assert route == evaluate_route(inst, index, route.order)

    def test_matches_the_reference_off_the_triangle_inequality(self):
        # The right-move stop needs only non-negative travel: asymmetric
        # matrices with values 0-3 (many ties) or up to 10^6, on random
        # power trees, from a random start and both greedy tours.
        rng = random.Random(2420)
        broken = 0
        for k in range(120):
            n = 3 + k % 6
            travel, parent, source = random_asymmetric(rng, n, (3, 10**6)[k % 2])
            broken += breaks_triangle(travel)
            inst = make_instance(f"asym-{k}", travel, parent, source=source)
            index = build_index(inst)
            for start in (tuple(rng.sample(range(1, n + 1), n)),
                          greedy_distance(inst, index).order,
                          greedy_priority_distance(inst, index).order):
                route = descent(inst, index, start)
                assert route.order == reference_descent(inst, start), (k, start)
        assert broken >= 110

    def test_matches_the_reference_on_deep_power_trees(self):
        # Planar travel times under deep random power trees: each vertex
        # hangs from one of the two placed before it, so one repair can
        # light a long stretch at once.
        rng = random.Random(2421)
        for k in range(60):
            n = 3 + k % 6
            base = generate_random(n, seed=2430 + k)
            placed = rng.sample(range(1, n + 1), n)
            parent = {v: rng.choice(placed[max(0, i - 2):i])
                      for i, v in enumerate(placed) if i}
            inst = make_instance(f"deep-{k}", base.travel, parent, source=placed[0])
            start = tuple(rng.sample(range(1, n + 1), n))
            route = descent(inst, build_index(inst), start)
            assert route.order == reference_descent(inst, start), (k, start)

    def test_deadline_keeps_the_best_tour_so_far(self, monkeypatch):
        inst = generate_random(10, seed=1)
        index = build_index(inst)
        start = greedy_distance(inst, index)
        # The clock is read once before every move; it jumps past the
        # deadline at read number `flip`, or never when flip is None.
        clock = {"reads": 0, "flip": None}

        def perf_counter():
            clock["reads"] += 1
            flip = clock["flip"]
            return 1e9 if flip is not None and clock["reads"] >= flip else 0.0

        def run(flip):
            clock["reads"], clock["flip"] = 0, flip
            return descent(inst, index, start.order, deadline=1.0)

        monkeypatch.setattr(heuristics.time, "perf_counter", perf_counter)
        full = run(None)
        stopped = run(clock["reads"] // 2)
        assert start.objective > stopped.objective > full.objective
        assert stopped == evaluate_route(inst, index, stopped.order)
        # A deadline already past returns the start.
        assert run(0) == start

    def test_deadline_in_a_left_scan_returns_the_scan_start(self, monkeypatch):
        inst = generate_random(12, seed=5)
        index = build_index(inst)
        start = greedy_distance(inst, index)
        # The clock read that scores a left move: the one inside the
        # relocation group's `if lefts:` block.
        lines, first_line = inspect.getsourcelines(heuristics._first_improving_move)
        in_lefts = False
        for offset, text in enumerate(lines):
            if text.strip() == "if lefts:":
                in_lefts = True
            elif text.strip() == "if rights:":
                in_lefts = False
            elif in_lefts and "perf_counter()" in text:
                left_read = first_line + offset
        # Each read is recorded as (whether it scores a left move, the
        # number of scans begun); from read number `flip` on, the clock is
        # past the deadline.
        reads, scans, clock = [], [], {"flip": None}

        def perf_counter():
            frame = sys._getframe(1)
            reads.append((frame.f_code is scan.__code__
                          and frame.f_lineno == left_read, len(scans)))
            flip = clock["flip"]
            return 1e9 if flip is not None and len(reads) >= flip else 0.0

        scan = heuristics._first_improving_move

        def recording_scan(order, *rest):
            scans.append(tuple(order[:-1]))
            return scan(order, *rest)

        monkeypatch.setattr(heuristics.time, "perf_counter", perf_counter)
        monkeypatch.setattr(heuristics, "_first_improving_move", recording_scan)
        descent(inst, index, start.order, deadline=1.0)
        # The flip: the first read of the second scan that scores a left move.
        flip = next(k for k, (left, scan_count) in enumerate(reads, 1)
                    if left and scan_count == 2)
        reads.clear()
        scans.clear()
        clock["flip"] = flip
        stopped = descent(inst, index, start.order, deadline=1.0)
        assert len(reads) == flip and reads[-1] == (True, 2)
        assert len(scans) == 2 and scans[0] == start.order
        assert stopped == evaluate_route(inst, index, scans[-1])
        assert stopped.objective < start.objective

    def test_rejects_a_bad_start_before_any_move(self, star, monkeypatch):
        from prtrp import Instance

        def no_work(index):
            raise AssertionError("the descent started work on a bad start")

        monkeypatch.setattr(heuristics, "make_newly_lit", no_work)
        inst = generate_random(6, seed=1)
        index = build_index(inst)
        for start in [(1, 2, 3), (1, 2, 3, 4, 5, 6, 7), (1, 1, 2, 3, 4, 5),
                      (0, 1, 2, 3, 4, 5), (2, 3, 4, 5, 6, 7)]:
            with pytest.raises(ValueError) as err:
                descent(inst, index, start)
            assert str(err.value) == \
                f"start is not a permutation of 1..6: {start}", start
        withp = Instance(
            name="p", n=3, travel=star.travel,
            power_parent=dict(star.power_parent), source=1,
            repair_duration=(1, 0, 0),
        )
        with pytest.raises(ValueError, match="repair durations must be absorbed"):
            descent(withp, build_index(withp), (1, 2, 3))

    def test_a_move_that_does_not_lower_the_objective_raises(self, monkeypatch):
        inst = generate_random(8, seed=1)
        index = build_index(inst)
        start = greedy_distance(inst, index).order

        def rewrite_first_vertex(order, *rest):
            return 0, 1, [order[0]]

        monkeypatch.setattr(heuristics, "_first_improving_move", rewrite_first_vertex)
        with pytest.raises(RuntimeError, match="internal error"):
            descent(inst, index, start)


class TestDescentPair:
    @staticmethod
    def count_scans(monkeypatch):
        scans = []
        scan = heuristics._first_improving_move

        def recording_scan(order, *rest):
            scans.append(tuple(order[:-1]))
            return scan(order, *rest)

        monkeypatch.setattr(heuristics, "_first_improving_move", recording_scan)
        return scans

    def test_a_proved_optimum_is_not_scanned_again(self, monkeypatch):
        inst = generate_random(10, seed=1)
        index = build_index(inst)
        first_start = greedy_distance(inst, index).order
        second_start = greedy_priority_distance(inst, index).order
        scans = self.count_scans(monkeypatch)
        alone = descent(inst, index, second_start)
        alone_scans = len(scans)
        proved = {}
        first = descent(inst, index, first_start, proved=proved)
        # Both descents end at the same local optimum, reached by moves.
        assert alone.order == first.order
        assert first.order not in (first_start, second_start)
        assert proved == dict.fromkeys(
            ((*order, 0) for order in scans[alone_scans:]), first)
        scans.clear()
        second = descent(inst, index, second_start, proved=proved)
        assert len(scans) == alone_scans - 1
        assert first.order not in scans
        assert second == alone
        assert best_descent(inst, index, (first_start, second_start)) == alone

    def test_a_descent_stops_at_an_order_an_earlier_one_scanned(
        self, monkeypatch
    ):
        # The second descent meets the first one's path at an order the
        # first scanned on its way, before its local optimum.
        inst = generate_random(10, seed=4)
        index = build_index(inst)
        first_start = greedy_distance(inst, index).order
        second_start = greedy_priority_distance(inst, index).order
        scans = self.count_scans(monkeypatch)
        alone = descent(inst, index, second_start)
        alone_scans = scans[:]
        scans.clear()
        proved = {}
        first = descent(inst, index, first_start, proved=proved)
        first_scans = scans[:]
        meet = next(order for order in alone_scans if order in first_scans)
        assert meet not in (first.order, second_start)
        assert proved == dict.fromkeys(((*order, 0) for order in first_scans), first)
        # A descent the deadline cut adds none of the orders it scanned.
        before = dict(proved)
        cut = descent(inst, index, second_start, deadline=0.0, proved=proved)
        assert cut.order == second_start
        assert proved == before
        scans.clear()
        second = descent(inst, index, second_start, proved=proved)
        assert second is first
        assert second == alone
        assert scans == alone_scans[:alone_scans.index(meet)]
        assert len(scans) < len(alone_scans)
        # The orders it scanned before the meeting map to that optimum too.
        assert proved == dict.fromkeys(
            ((*order, 0) for order in first_scans + scans), first)
        assert best_descent(inst, index, (first_start, second_start)) == \
            min(first, alone, key=lambda rt: (rt.objective, rt.order))

    def test_a_start_at_a_proved_optimum_is_not_scanned(self, monkeypatch):
        # The priority-weighted tour is already the nearest-first tour's
        # local optimum.
        inst = generate_random(6, seed=1)
        index = build_index(inst)
        proved = {}
        first = descent(inst, index, greedy_distance(inst, index).order,
                        proved=proved)
        start = greedy_priority_distance(inst, index).order
        assert start == first.order
        scans = self.count_scans(monkeypatch)
        assert descent(inst, index, start, proved=proved) == first
        assert scans == []

    def test_an_order_the_deadline_cut_is_not_proved(self, monkeypatch):
        inst = generate_random(10, seed=1)
        index = build_index(inst)
        start = greedy_distance(inst, index).order
        # The clock is read before every move; it passes the deadline at
        # read number `flip`, or never when flip is None.
        clock = {"reads": 0, "flip": None}

        def perf_counter():
            clock["reads"] += 1
            flip = clock["flip"]
            return 1e9 if flip is not None and clock["reads"] >= flip else 0.0

        monkeypatch.setattr(heuristics.time, "perf_counter", perf_counter)
        full = descent(inst, index, start, deadline=1.0)
        # At the last read the final scan has found no improving move yet,
        # so the descent ends at the optimum without having proved it.
        clock["reads"], clock["flip"] = 0, clock["reads"]
        proved = {}
        stopped = descent(inst, index, start, deadline=1.0, proved=proved)
        assert stopped == full
        assert proved == {}
        # A later descent from that order scans it once, and proves it.
        clock["flip"] = None
        scans = self.count_scans(monkeypatch)
        assert descent(inst, index, stopped.order, proved=proved) == full
        assert scans == [full.order]
        assert proved == {(*full.order, 0): full}

    def test_the_pair_is_the_better_of_two_lone_descents(self):
        for k in range(40):
            n = 4 + k % 8
            inst = generate_random(n, seed=1900 + k)
            if k % 2:
                inst = generate_star_reduction(inst.travel)
            index = build_index(inst)
            starts = (greedy_distance(inst, index).order,
                      greedy_priority_distance(inst, index).order)
            lone = [descent(inst, index, start) for start in starts]
            assert best_descent(inst, index, starts) == \
                min(lone, key=lambda rt: (rt.objective, rt.order)), k


class TestMoves:
    def test_each_move_once_at_its_first_place(self):
        for n in range(1, 31):
            order = list(range(1, n + 1))
            firsts = dict.fromkeys((a, tuple(w)) for a, w in plain_moves(order))
            moves = [(first, window) for first, _, window in table_moves(n)]
            assert moves == list(firsts), n

    def test_each_move_permutes_its_window(self):
        for n in range(1, 31):
            for first, end, window in table_moves(n):
                assert 0 <= first < end <= n, (n, first, end)
                assert sorted(window) == list(range(first + 1, end + 1)), (n, first)

    def test_descent_matches_the_reference_over_every_move(self):
        rng = random.Random(2012)
        # n = 4-9, then the small-batch sizes n = 10-12.
        sizes = [4 + k % 6 for k in range(100)] + [10 + k % 3 for k in range(24)]
        for k, n in enumerate(sizes):
            inst = generate_random(n, seed=1600 + k)
            if k // 6 % 2:
                inst = generate_star_reduction(inst.travel)
            start = rng.sample(range(1, n + 1), n)
            route = descent(inst, build_index(inst), start)
            assert route.order == reference_descent(inst, start), k

    def test_descent_matches_the_reference_at_n_13_to_20(self):
        rng = random.Random(2013)
        for n in range(13, 21):
            base = generate_random(n, seed=1700 + n)
            for inst in (base, generate_star_reduction(base.travel)):
                index = build_index(inst)
                starts = [
                    greedy_distance(inst, index).order,
                    greedy_priority_distance(inst, index).order,
                    tuple(rng.sample(range(1, n + 1), n)),
                ]
                for start in starts:
                    route = descent(inst, index, start)
                    assert route.order == reference_descent(inst, start), \
                        (n, inst.name, start)

    def test_descent_matches_the_reference_from_every_start(self):
        # Every start at n <= 6 puts segments of 2-3 vertices against both
        # ends of the tour.
        for n in range(1, 7):
            base = generate_random(n, seed=1800 + n)
            for inst in (base, generate_star_reduction(base.travel)):
                index = build_index(inst)
                for start in itertools.permutations(range(1, n + 1)):
                    route = descent(inst, index, start)
                    assert route.order == reference_descent(inst, start), \
                        (n, inst.name, start)


class TestDeterminism:
    def test_identical_inputs_identical_routes(self):
        for k in range(5):
            inst = generate_random(8, seed=1400 + k)
            index = build_index(inst)
            assert greedy_distance(inst, index) == greedy_distance(inst, index)
            assert greedy_priority_distance(inst, index) == \
                greedy_priority_distance(inst, index)
