import json
import random

import pytest

from prtrp import (
    Instance,
    absorb_repair_durations,
    brute_force,
    build_index,
    evaluate_route,
    extract_subtree,
    generate_random,
    generate_star_reduction,
    make_instance,
    validate,
)
from prtrp import instance as inst_mod

from conftest import STAR_TRAVEL
from helpers import latency_brute_force, random_orders, sim_objective_with_durations


def unchecked(**fields):
    """The star built directly as an Instance, so that no rule is checked,
    with the given fields replaced."""
    star = {"name": "bad", "n": 3, "travel": STAR_TRAVEL,
            "power_parent": {2: 1, 3: 1}, "source": 1, "repair_duration": (0, 0, 0)}
    return Instance(**{**star, **fields})


def with_arc(i, j, value):
    travel = [list(row) for row in STAR_TRAVEL]
    travel[i][j] = value
    return travel


class TestValidate:
    def test_star_is_valid(self, star):
        assert validate(star) == []

    def test_parent_cycle_is_one_violation(self):
        bad = validate(unchecked(power_parent={2: 3, 3: 2}))
        assert len(bad) == 1
        assert "power graph not a tree" in bad[0]

    def test_negative_travel_is_one_violation(self):
        bad = validate(unchecked(travel=with_arc(0, 1, -1)))
        assert len(bad) == 1
        assert "negative travel time" in bad[0]

    def test_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            make_instance("bad", with_arc(2, 2, 5), {2: 1, 3: 1}, source=1)

    def test_source_out_of_range(self):
        with pytest.raises(ValueError, match="source"):
            make_instance("bad", STAR_TRAVEL, {2: 1, 3: 1}, source=7)

    def test_parent_keys_must_cover_non_source_vertices(self):
        with pytest.raises(ValueError, match="power_parent"):
            make_instance("bad", STAR_TRAVEL, {2: 1}, source=1)

    def test_negative_duration(self, star):
        wrong = Instance(
            name="bad",
            n=3,
            travel=star.travel,
            power_parent=dict(star.power_parent),
            source=1,
            repair_duration=(0, -2, 0),
        )
        assert any("repair duration" in b for b in validate(wrong))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"name": 5}, "name must be a string, got 5"),
            ({"travel": with_arc(0, 1, 1.5)},
             "every value in travel row 0 must be an integer, got 1.5"),
            ({"travel": with_arc(1, 2, "1")},
             "every value in travel row 1 must be an integer, got '1'"),
            ({"source": "1"}, "source must be an integer, got '1'"),
            ({"source": True}, "source must be an integer, got True"),
            ({"power_parent": {"2": 1, 3: 1}},
             "power edge child must be an integer, got '2'"),
            ({"power_parent": {2: "1", 3: 1}},
             "power parent of 2 must be an integer, got '1'"),
            ({"repair_duration": (0, "0", 0)},
             "repair duration must be an integer, got '0'"),
            ({"n": "1"}, "n must be an integer, got '1'"),
            ({"n": 1.0}, "n must be an integer, got 1.0"),
            ({"travel": None}, "travel must be a list of rows, got None"),
            ({"travel": [STAR_TRAVEL[0], None, *STAR_TRAVEL[2:]]},
             "travel row 1 must be a list of integers, got None"),
            ({"repair_duration": None},
             "repair_duration must be a list of integers, got None"),
            ({"power_parent": None}, "power_parent must be a dict, got None"),
            ({"repair_duration": (0, 0)}, "repair_duration must have length 3"),
        ],
        ids=["name", "float-arc", "string-arc", "source", "bool-source", "child",
             "parent", "duration", "string-n", "float-n", "no-travel", "no-row",
             "no-durations", "no-parent-map", "short-durations"],
    )
    def test_type_is_reported_before_any_comparison(self, fields, message):
        # On an Instance built directly; a string here would raise
        # TypeError if it were compared as a number.
        assert validate(unchecked(**fields)) == [message]


class TestMakeInstanceGate:
    @pytest.mark.parametrize(
        "travel, power_parent, message",
        [
            (STAR_TRAVEL, {2: 3, 3: 2}, "power graph not a tree: cycle through vertex"),
            (STAR_TRAVEL, {2: 9, 3: 1}, "power parent of 2 outside 1..3"),
            (STAR_TRAVEL, {2: 1}, "power_parent must map exactly"),
            (with_arc(0, 1, -1), {2: 1, 3: 1},
             "negative travel time: travel[0][1] = -1"),
            ([*STAR_TRAVEL[:2], STAR_TRAVEL[2][:3], STAR_TRAVEL[3]], {2: 1, 3: 1},
             "travel matrix must be 4x4"),
            ([[0]], {}, "n must be >= 1, got 0"),
        ],
        ids=["cyclic-parents", "parent-outside", "missing-parent", "negative-arc",
             "ragged-travel", "no-fault-vertex"],
    )
    def test_invalid_instance_raises_the_report(self, travel, power_parent, message):
        with pytest.raises(ValueError) as caught:
            make_instance("bad", travel, power_parent, source=1)
        assert str(caught.value).startswith("instance failed validation:\n- ")
        assert message in str(caught.value)

    def test_report_lists_every_violation(self):
        travel = with_arc(2, 2, 5)
        travel[0][1] = -1
        with pytest.raises(ValueError) as caught:
            make_instance("bad", travel, {2: 1, 3: 1}, source=1)
        assert str(caught.value) == (
            "instance failed validation:\n"
            "- negative travel time: travel[0][1] = -1\n"
            "- nonzero diagonal: travel[2][2] = 5"
        )


class TestAbsorbRepairDurations:
    def test_zero_durations_are_identity(self, star):
        assert absorb_repair_durations(star) is star
        # Nothing is folded, so an arc past 2^63 - 1 is left for validate
        # to report, not named as an absorbed one.
        wide = unchecked(travel=with_arc(0, 2, 2**63))
        assert absorb_repair_durations(wide) is wide
        assert validate(wide) == ["travel[0][2] exceeds the 64-bit range"]

    def test_star_with_source_duration(self, star):
        withp = Instance(
            name="star",
            n=3,
            travel=star.travel,
            power_parent=dict(star.power_parent),
            source=1,
            repair_duration=(5, 0, 0),
        )
        out = absorb_repair_durations(withp)
        assert out.travel[0][1] == 6
        assert out.travel[2][1] == 6
        assert out.travel[3][1] == 7
        assert out.travel[1][1] == 0
        # arcs into the depot and into other vertices untouched
        assert [row[0] for row in out.travel] == [row[0] for row in star.travel]
        assert out.travel[0][2] == star.travel[0][2]
        assert out.repair_duration == (0, 0, 0)

    def test_objective_preserved_on_random_instances(self):
        rng = random.Random(4242)
        for k in range(20):
            n = 4 + k % 5
            base = generate_random(n, seed=900 + k, coord_range=60)
            withp = Instance(
                name=base.name,
                n=n,
                travel=base.travel,
                power_parent=dict(base.power_parent),
                source=base.source,
                repair_duration=tuple(rng.randint(0, 30) for _ in range(n)),
            )
            absorbed = absorb_repair_durations(withp)
            index = build_index(absorbed)
            for order in random_orders(rng, n, 100):
                expected = sim_objective_with_durations(withp, order)
                got = evaluate_route(absorbed, index, order).objective
                assert got == expected

    def test_overflow_rejected(self, star):
        big = Instance(
            name="big",
            n=3,
            travel=star.travel,
            power_parent=dict(star.power_parent),
            source=1,
            repair_duration=(2**63 - 1, 0, 0),
        )
        with pytest.raises(OverflowError):
            absorb_repair_durations(big)


class TestExtractSubtree:
    def test_extract_at_source_keeps_everything(self, star):
        out = extract_subtree(star, 1)
        assert out.n == 3
        assert out.travel == star.travel
        assert out.power_parent == star.power_parent
        assert out.source == 1

    def test_extract_leaf(self, star):
        out = extract_subtree(star, 2)
        assert out.n == 1
        assert out.source == 1
        assert out.power_parent == {}
        assert out.travel == ((0, star.travel[0][2]), (star.travel[2][0], 0))

    def test_extract_chain_middle(self, chain):
        out = extract_subtree(chain, 2)
        assert out.n == 2
        assert out.source == 1  # old vertex 2, relabeled
        assert out.power_parent == {2: 1}
        # Old vertices 2 and 3 become 1 and 2, in label order.
        idx = (0, 2, 3)
        assert out.travel == tuple(
            tuple(chain.travel[a][b] for b in idx) for a in idx
        )
        assert validate(out) == []

    def test_unknown_vertex(self, star):
        with pytest.raises(ValueError):
            extract_subtree(star, 9)

    def test_random_subtrees_stay_valid(self):
        for k in range(10):
            base = generate_random(9, seed=50 + k)
            for root in range(1, 10):
                out = extract_subtree(base, root)
                assert validate(out) == [], (base.name, root)


class TestGenerators:
    def test_single_vertex(self):
        inst = generate_random(1, seed=3)
        assert inst.n == 1
        assert inst.power_parent == {}
        assert inst.source == 1
        assert validate(inst) == []

    def test_generated_instances_are_valid_and_symmetric(self):
        inst = generate_random(9, seed=42)
        assert validate(inst) == []
        for i in range(10):
            for j in range(10):
                assert inst.travel[i][j] == inst.travel[j][i]

    def test_coord_range_keeps_travel_in_64_bits(self):
        # At 2^62 every rounded distance fits; one more is refused.
        for seed in range(20):
            assert validate(generate_random(5, seed, 2**62)) == []
        with pytest.raises(ValueError, match="coord_range must be <= 2"):
            generate_random(5, 1, 2**62 + 1)

    def test_determinism(self):
        a = inst_mod.dumps(generate_random(7, seed=11))
        b = inst_mod.dumps(generate_random(7, seed=11))
        assert a == b
        assert inst_mod.dumps(generate_random(7, seed=12)) != a

    def test_star_reduction_edges(self):
        inst = generate_star_reduction([[0, 4, 5], [4, 0, 3], [5, 3, 0]])
        assert inst.n == 2
        assert inst.power_parent == {2: 1}
        assert inst.source == 1

    def test_star_reduction_rejects_bad_matrix(self):
        with pytest.raises(ValueError) as caught:
            generate_star_reduction([[0, -1], [1, 0]])
        assert str(caught.value) == (
            "instance failed validation:\n- negative travel time: travel[0][1] = -1"
        )


def _co_located_star(travel):
    """Star-reduction instance with vertex 1 sharing the depot's location."""
    n = len(travel) - 1
    t = [list(row) for row in travel]
    t[0][1] = t[1][0] = 0
    for j in range(2, n + 1):
        t[0][j] = t[1][j]
        t[j][0] = t[j][1]
    return generate_star_reduction(t, name="co-located")


class TestStarReductionEquivalence:
    def test_three_vertex_matches_latency_optimum(self, star):
        inst = _co_located_star(star.travel)
        route = brute_force(inst, build_index(inst))
        assert route.objective == latency_brute_force(inst.travel)

    def test_five_vertex_matches_latency_optimum(self):
        # Manhattan distances keep the triangle inequality exact.
        rng = random.Random(77)
        pts = [(rng.randint(0, 50), rng.randint(0, 50)) for _ in range(6)]
        travel = [
            [abs(ax - bx) + abs(ay - by) for (bx, by) in pts] for (ax, ay) in pts
        ]
        inst = _co_located_star(travel)
        route = brute_force(inst, build_index(inst))
        assert route.objective == latency_brute_force(inst.travel)


class TestJsonContract:
    def test_round_trip_is_identity(self, star):
        text = inst_mod.dumps(star)
        again = inst_mod.dumps(inst_mod.loads(text))
        assert text == again

    def test_key_order(self, star):
        data = json.loads(inst_mod.dumps(star))
        assert list(data) == [
            "name", "n", "source", "power_edges", "travel", "repair_durations",
        ]
        assert data["power_edges"] == [[1, 2], [1, 3]]
        assert data["travel"][0] == [0, 1, 2, 3]
        assert data["repair_durations"] == [0, 0, 0]

    def test_save_load(self, tmp_path, star):
        path = inst_mod.save(star, tmp_path / "star.json")
        loaded = inst_mod.load(path)
        assert loaded == star

    def test_generated_round_trip(self, tmp_path):
        inst = generate_random(8, seed=5)
        path = inst_mod.save(inst, tmp_path / "x.json")
        assert inst_mod.dumps(inst_mod.load(path)) == inst_mod.dumps(inst)
