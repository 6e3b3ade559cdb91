import hashlib
import random

import pytest

from prtrp import (
    build_index,
    build_model,
    check_assignment,
    encode_route,
    evaluate_route,
    generate_random,
    generate_star_reduction,
    write_lp_text,
)

from helpers import random_orders
from lp_lint import lint_lp


class TestBuildModel:
    def test_star_counts_and_big_m(self, star, star_index):
        model = build_model(star, star_index)
        assert model.big_m == 20
        assert model.linkage == ((1, 1), (2, 1), (2, 2), (3, 1), (3, 3))

    def test_single_vertex_counts(self):
        inst = generate_random(1, seed=9)
        model = build_model(inst, build_index(inst))
        assert len(model.linkage) == 1

    def test_big_m_override(self, star, star_index):
        assert build_model(star, star_index, big_m=99).big_m == 99

    def test_rejects_unabsorbed_durations(self, star, star_index):
        from prtrp import Instance

        withp = Instance(
            name="p", n=3, travel=star.travel,
            power_parent=dict(star.power_parent), source=1,
            repair_duration=(1, 0, 0),
        )
        with pytest.raises(ValueError):
            build_model(withp, star_index)


class TestWriteLpText:
    def test_star_row_count(self, star, star_index):
        model = build_model(star, star_index)
        text = write_lp_text(model)
        lines = text.splitlines()
        # 1 objective + 8 degree + 9 big-M + 5 linkage constraint lines
        rows = [
            ln for ln in lines
            if ln.startswith((" deg_", " time_", " link_"))
        ]
        assert len(rows) == 8 + 9 + 5
        assert sum(1 for ln in lines if ln.strip().startswith("obj:")) == 1

    def test_idempotent(self, star, star_index):
        model = build_model(star, star_index)
        assert write_lp_text(model) == write_lp_text(model)

    def test_lints_clean(self, star, star_index):
        assert lint_lp(write_lp_text(build_model(star, star_index))) == []

    def test_single_vertex_lints_clean(self):
        inst = generate_random(1, seed=9)
        model = build_model(inst, build_index(inst))
        assert lint_lp(write_lp_text(model)) == []

    @pytest.mark.parametrize(
        "which, big_m, digest",
        [
            ("uniform", None,
             "ffefe9f8d5827ea4979700f5762e13f61a3956c6ead445ac44722ecdbbbbf8dd"),
            ("star", None,
             "4cd5acf62bfe95bc5c1ab03289002efd122d643b1fa800138be40d2014f99fa1"),
            ("uniform-40", 5000,
             "fccbfe53c08fc805386ce291360ac9a528c56cac681c8fc00fc668c09bf17fa0"),
        ],
        ids=["uniform-63", "star-63", "uniform-40-big-m-5000"],
    )
    def test_text_is_byte_stable(self, which, big_m, digest):
        # sha256 of the text written by the entry-by-entry writer that the
        # row and column passes replaced; any changed byte moves it.
        inst = generate_random(40, 2) if which == "uniform-40" else generate_random(63, 1)
        if which == "star":
            inst = generate_star_reduction(inst.travel)
        text = write_lp_text(build_model(inst, build_index(inst), big_m=big_m))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_linter_rejects_garbage(self):
        assert lint_lp("Minimize\n obj: r_1\nEnd\n") != []
        assert lint_lp("hello world") != []


class TestCheckAssignment:
    def test_star_optimal_route_encoding(self, star, star_index):
        model = build_model(star, star_index)
        x, t, r = encode_route(star, star_index, (1, 2, 3))
        res = check_assignment(model, star, star_index, x, t, r)
        assert res.feasible
        assert res.single_tour
        assert res.order == (1, 2, 3)
        assert res.objective == 6
        assert res.route_objective == 6

    def test_lowered_r_is_infeasible_at_the_named_row(self, star, star_index):
        model = build_model(star, star_index)
        x, t, r = encode_route(star, star_index, (1, 2, 3))
        r[2] = t[1] - 1  # below the source's arrival time
        res = check_assignment(model, star, star_index, x, t, r)
        assert not res.feasible
        assert any("link_3_1" in v for v in res.violations)

    def test_two_cycles_break_the_time_chain(self, star, star_index):
        # depot<->1 and 2<->3: degrees hold but arrival times cannot chain
        model = build_model(star, star_index)
        x = [[0.0] * 4 for _ in range(4)]
        x[0][1] = x[1][0] = 1.0
        x[2][3] = x[3][2] = 1.0
        t = [0.0, 1.0, 0.0, 1.0]
        r = [1.0, 1.0, 1.0]
        res = check_assignment(model, star, star_index, x, t, r)
        assert not res.feasible
        assert not res.single_tour
        assert any(v.startswith("time_") for v in res.violations)
        assert "degree-feasible but not a single tour" in res.violations

    def test_fractional_x_is_reported(self, star, star_index):
        model = build_model(star, star_index)
        x, t, r = encode_route(star, star_index, (1, 2, 3))
        x[0][1] = 0.5
        x[0][2] = 0.5
        res = check_assignment(model, star, star_index, x, t, r)
        assert not res.feasible
        assert any("not binary" in v for v in res.violations)

    @pytest.mark.parametrize(
        "case, violations",
        [
            ("fractional", [
                *[f"x_{i}_{j} = {v} is not binary" for i, j, v in (
                    (0, 1, 0.2), (0, 2, 0.3), (0, 3, 0.2), (0, 4, 0.1), (0, 5, 0.1),
                    (1, 0, 0.2), (1, 2, 0.2), (1, 3, 0.1), (1, 4, 0.1), (1, 5, 0.2),
                    (2, 0, 0.3), (2, 1, 0.2), (2, 3, 0.1), (2, 4, 0.2), (2, 5, 0.3),
                    (3, 0, 0.2), (3, 1, 0.1), (3, 2, 0.1), (3, 4, 0.3), (3, 5, 0.2),
                    (4, 0, 0.1), (4, 1, 0.1), (4, 2, 0.2), (4, 3, 0.3), (4, 5, 0.1),
                    (5, 0, 0.1), (5, 1, 0.2), (5, 2, 0.3), (5, 3, 0.2), (5, 4, 0.1),
                )],
                # Rows 3 and 5 hold the same five values; only the order of
                # addition tells 0.8999999999999999 from 0.9.
                "deg_out_0: sum = 0.8999999999999999",
                "deg_in_0: sum = 0.8999999999999999",
                "deg_out_1: sum = 0.8", "deg_in_1: sum = 0.8",
                "deg_out_2: sum = 1.1", "deg_in_2: sum = 1.1",
                "deg_out_3: sum = 0.8999999999999999",
                "deg_in_3: sum = 0.8999999999999999",
                "deg_out_4: sum = 0.7999999999999999",
                "deg_in_4: sum = 0.7999999999999999",
                "deg_out_5: sum = 0.9", "deg_in_5: sum = 0.9",
            ]),
            ("non-binary", [
                "x_3_5 = 0.25 is not binary",
                "deg_out_3: sum = 1.25",
                "deg_in_5: sum = 1.25",
            ]),
            ("subtour", [
                "time_3_1: -13057 < -11522",
                "degree-feasible but not a single tour",
            ]),
        ],
    )
    def test_report_is_pinned(self, case, violations):
        # Reports of the entry-by-entry checker, pinned row by row.
        inst = generate_random(5, seed=4)
        index = build_index(inst)
        x, t, r = encode_route(inst, index, (2, 4, 1, 5, 3))
        if case == "fractional":
            values = [0.1, 0.2, 0.3, 0.2, 0.1]
            x = [[0.0 if i == j else values[(i + j) % 5] for j in range(6)]
                 for i in range(6)]
            t, r = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [5.0] * 5
        elif case == "non-binary":
            x[3][5] = 0.25
        else:  # 0 -> 2 -> 4 -> 0 and 1 -> 5 -> 3 -> 1
            x = [[0] * 6 for _ in range(6)]
            for a, b in [(0, 2), (2, 4), (4, 0), (1, 5), (5, 3), (3, 1)]:
                x[a][b] = 1
        res = check_assignment(build_model(inst, index), inst, index, x, t, r)
        assert not res.feasible
        assert res.single_tour == (case == "non-binary")
        assert res.violations == violations

    def test_canonical_encodings_always_feasible(self):
        rng = random.Random(7)
        for k in range(12):
            n = 4 + k % 6
            inst = generate_random(n, seed=3200 + k)
            index = build_index(inst)
            model = build_model(inst, index)
            for order in random_orders(rng, n, 10):
                x, t, r = encode_route(inst, index, order)
                res = check_assignment(model, inst, index, x, t, r)
                assert res.feasible, (inst.name, order, res.violations)
                assert res.order == tuple(order)
                expected = evaluate_route(inst, index, order).objective
                assert res.objective == expected

    def test_shape_errors(self, star, star_index):
        model = build_model(star, star_index)
        x, t, r = encode_route(star, star_index, (1, 2, 3))
        with pytest.raises(ValueError):
            check_assignment(model, star, star_index, x[:2], t, r)
        with pytest.raises(ValueError):
            check_assignment(model, star, star_index, x, t[:2], r)
        with pytest.raises(ValueError):
            check_assignment(model, star, star_index, x, t, r[:1])
