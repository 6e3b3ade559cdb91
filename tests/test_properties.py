"""Property tests over small drawn instances.

Travel matrices are asymmetric, often hold zero arcs and need not satisfy
the triangle inequality; power trees are chains, stars or random trees
rooted at a drawn source. Examples are derandomized, so every run draws
the same instances.
"""

import json
from dataclasses import replace
from itertools import permutations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from prtrp import (  # noqa: E402
    SolverConfig,
    absorb_repair_durations,
    brute_force,
    build_index,
    build_model,
    build_walk_table,
    check_assignment,
    disrupted_count,
    encode_route,
    evaluate_route,
    generate_random,
    generate_star_reduction,
    make_instance,
    solve,
    validate,
)
from prtrp import bidp, instance as inst_mod  # noqa: E402
from prtrp.bidp import HEURISTIC  # noqa: E402
from prtrp.heuristics import best_descent, descent  # noqa: E402

from helpers import (  # noqa: E402
    MAX_TRAVEL,
    TOLERANCE,
    ancestor_sets,
    leg_sum_objective,
    reference_absorbed_travel,
    reference_time_row_report,
    reference_travel_report,
    report_fields,
    sim_objective_with_durations,
    walk_bound,
)

EXAMPLES = settings(max_examples=100, derandomize=True, database=None, deadline=None)


class _Text(str):
    """A str subclass: json.dumps writes it as a string."""


class _Count(int):
    """An int subclass: json.dumps writes it as an int."""


class _Items(list):
    """A list subclass: json.dumps writes it as a list."""


@st.composite
def instances(draw, max_n=7, durations=False):
    n = draw(st.integers(1, max_n))
    arc = st.one_of(st.just(0), st.integers(0, 40))
    travel = [[0 if i == j else draw(arc) for j in range(n + 1)] for i in range(n + 1)]
    # vertices[0] is the source; every other vertex hangs off an earlier one
    vertices = draw(st.permutations(range(1, n + 1)))
    shape = draw(st.sampled_from(["chain", "star", "random"]))
    parent = {}
    for pos in range(1, n):
        if shape == "chain":
            up = pos - 1
        elif shape == "star":
            up = 0
        else:
            up = draw(st.integers(0, pos - 1))
        parent[vertices[pos]] = vertices[up]
    repair = [draw(st.integers(0, 20)) for _ in range(n)] if durations else None
    inst = make_instance(
        f"drawn-{shape}-n{n}", travel, parent, vertices[0], repair_duration=repair
    )
    assert validate(inst) == []
    return inst


@st.composite
def instances_with_order(draw, durations=False):
    inst = draw(instances(durations=durations))
    return inst, tuple(draw(st.permutations(range(1, inst.n + 1))))


@EXAMPLES
@given(instances())
def test_solve_matches_brute_force(inst):
    index = build_index(inst)
    report = solve(inst, index=index)
    best = brute_force(inst, index)
    assert (report.objective, report.route.order) == (best.objective, best.order)
    assert report.proven_optimal


@EXAMPLES
@given(instances())
def test_pruning_switches_leave_the_result_unchanged(inst):
    index = build_index(inst)
    default = solve(inst, index=index)
    other = solve(inst, SolverConfig(use_dominance=False), index)
    assert (other.objective, other.route.order) == \
        (default.objective, default.route.order)


@EXAMPLES
@given(instances())
def test_bound_order_scan_matches_nearest_first(inst):
    # The private width constant forces one scan on every level: 0 the
    # bound-order rows, a width no frontier reaches the nearest-first ones.
    # Both must report the same search, and the bound-order one the oracle's
    # optimum.
    index = build_index(inst)
    for config in (SolverConfig(),
                   SolverConfig(mode=HEURISTIC, theta=0.7, delta=0.01),
                   SolverConfig(use_dominance=False)):
        reports = []
        for width in (0, 10**9):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(bidp, "_WIDE_LEVEL", width)
                reports.append(solve(inst, config, index))
        assert report_fields(reports[0]) == report_fields(reports[1])
        if config == SolverConfig():
            best = brute_force(inst, index)
            assert (reports[0].objective, reports[0].route.order) == \
                (best.objective, best.order)


@EXAMPLES
@given(instances(max_n=8), st.data())
def test_capped_exact_solve_is_proven_or_its_incumbent(inst, data):
    # One stop rule in exact mode: a finished search proves the oracle's
    # optimum, and a passed cap returns the start incumbent unproven,
    # within one parent's children (fewer than n labels) of the cap.
    index = build_index(inst)
    uncapped = solve(inst, index=index).stats["labels_total"]
    # Half the draws fall within n labels of the end, where a cap can be
    # crossed inside the last level or only by its final labels.
    cap = data.draw(st.one_of(
        st.integers(0, uncapped), st.integers(max(0, uncapped - inst.n), uncapped)
    ))
    report = solve(inst, SolverConfig(labels_cap=cap), index)
    stats = report.stats
    if report.proven_optimal:
        assert not stats["labels_cap_reached"]
        assert report.objective == brute_force(inst, index).objective
    else:
        assert stats["labels_cap_reached"]
        assert report.objective == stats["initial_upper_bound"]
        assert stats["labels_total"] <= cap + inst.n
    assert not stats["time_limit_reached"]


@EXAMPLES
@given(instances())
def test_theta_delta_solve_lies_between_the_optimum_and_its_incumbent(inst):
    # A theta/delta solve proves nothing, but its tour is a real one that
    # re-evaluates to its objective, no worse than the start incumbent and
    # no better than the oracle's optimum; each refresh can only lower the
    # incumbent. With nothing relaxed it finds the optimum. Every setting
    # runs on every draw: few small instances start above their optimum.
    index = build_index(inst)
    best = brute_force(inst, index).objective
    for theta in (0.5, 0.7, 0.9, 1.0):
        for delta in (0.0, 0.01, 0.05):
            config = SolverConfig(mode=HEURISTIC, theta=theta, delta=delta)
            report = solve(inst, config, index)
            stats = report.stats
            assert best <= report.objective <= stats["initial_upper_bound"]
            trajectory = stats["u_trajectory"]
            assert all(a >= b for a, b in zip(trajectory, trajectory[1:]))
            assert trajectory[-1] == report.objective
            route = evaluate_route(inst, index, report.route.order)
            assert route.objective == report.objective
            assert not report.proven_optimal
            if theta == 1.0 and delta == 0.0:
                assert report.objective == best


@EXAMPLES
@given(instances(max_n=6))
def test_table_bound_below_best_completion_of_every_prefix(inst):
    n = inst.n
    index = build_index(inst)
    walks = build_walk_table(inst, index)
    best = {}
    for perm in permutations(range(1, n + 1)):
        obj = evaluate_route(inst, index, perm).objective
        for k in range(1, n + 1):
            if obj < best.get(perm[:k], obj + 1):
                best[perm[:k]] = obj
    anc = ancestor_sets(inst)
    for prefix, completion in best.items():
        # the walk bound as the solver applies it (WalkTable), with the
        # source repaired or still dark
        assert walk_bound(walks, inst, anc, prefix) <= completion, prefix


@EXAMPLES
@given(instances_with_order())
def test_descent_is_no_worse_than_its_start_and_repeats(drawn):
    inst, order = drawn
    index = build_index(inst)
    route = descent(inst, index, order)
    assert sorted(route.order) == list(range(1, inst.n + 1))
    assert route.objective <= leg_sum_objective(inst, order)
    assert route.objective == leg_sum_objective(inst, route.order)
    assert descent(inst, index, order) == route


@EXAMPLES
@given(instances(max_n=8), st.data())
def test_descent_pair_is_the_better_of_two_lone_descents(inst, data):
    # The second descent stops at any order the first one scanned, which is
    # exact only because first improvement depends on the order alone. The
    # second start is drawn whole or as the first with two entries swapped,
    # so the two paths often meet before either optimum.
    index = build_index(inst)
    first = data.draw(st.permutations(range(1, inst.n + 1)))
    if data.draw(st.booleans()):
        second = data.draw(st.permutations(first))
    else:
        second = list(first)
        i, j = (data.draw(st.integers(0, inst.n - 1)) for _ in range(2))
        second[i], second[j] = second[j], second[i]
    starts = [tuple(first), tuple(second)]
    lone = [descent(inst, index, start) for start in starts]
    assert best_descent(inst, index, starts) == \
        min(lone, key=lambda rt: (rt.objective, rt.order))


@EXAMPLES
@given(instances(durations=True))
def test_json_round_trip_preserves_the_instance(inst):
    assert inst_mod.loads(inst_mod.dumps(inst)) == inst


@EXAMPLES
@given(instances_with_order(durations=True))
def test_absorbing_durations_keeps_route_objectives(drawn):
    inst, order = drawn
    absorbed = absorb_repair_durations(inst)
    got = evaluate_route(absorbed, build_index(absorbed), order).objective
    assert got == sim_objective_with_durations(inst, order)


@EXAMPLES
@given(instances_with_order(durations=True))
def test_encoded_route_is_a_feasible_assignment(drawn):
    inst, order = drawn
    work = absorb_repair_durations(inst)
    index = build_index(work)
    x, t, r = encode_route(work, index, order)
    res = check_assignment(build_model(work, index), work, index, x, t, r)
    assert res.feasible, res.violations
    assert res.single_tour and res.order == order
    assert res.objective == evaluate_route(work, index, order).objective


@EXAMPLES
@given(st.data())
def test_leg_sum_is_each_prefix_dark_count_times_its_leg(data):
    # Uniform and star trees up to the 63-vertex limit; evaluate_route
    # raises unless its incremental leg sum equals its disruption sum.
    n = data.draw(st.integers(1, 63))
    inst = generate_random(n, data.draw(st.integers(1, 10**6)))
    if data.draw(st.booleans()):
        inst = generate_star_reduction(inst.travel)
    index = build_index(inst)
    order = data.draw(st.permutations(range(1, n + 1)))
    expected, repaired, prev = 0, 0, 0
    for v in order:
        expected += disrupted_count(index, repaired) * inst.travel[prev][v]
        repaired |= 1 << (v - 1)
        prev = v
    assert evaluate_route(inst, index, order).objective == expected


BAD_ENTRIES = st.sampled_from(
    [-1, -(2**63), MAX_TRAVEL + 1, 1.5, 0.0, "3", True, None, 7]
)


@EXAMPLES
@given(instances(max_n=10), st.data())
def test_validate_reports_bad_entries_in_entry_order(inst, data):
    # A bad entry in a late row or on the diagonal is reported, in entry
    # order, as a walk over the whole matrix reports it.
    travel = [list(row) for row in inst.travel]
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.one_of(st.just(inst.n), st.integers(0, inst.n)))
        j = data.draw(st.one_of(st.just(i), st.integers(0, inst.n)))
        travel[i][j] = data.draw(BAD_ENTRIES)
    assert validate(replace(inst, travel=travel)) == reference_travel_report(travel)


# Arc values a perturbed x entry takes: binary, just off binary within the
# tolerance, and far from it.
ARC_VALUES = st.sampled_from([0, 1, 0.5, 1 + TOLERANCE / 2, -TOLERANCE / 2, 2])


@EXAMPLES
@given(instances(max_n=8), st.data())
def test_check_reports_time_rows_in_entry_order(inst, data):
    # Several t and x entries of an encoded tour are perturbed, some putting
    # a row time_i_j just inside or just past TOLERANCE of its floor; the
    # time-row reports must be those of a walk over every row, in order.
    index = build_index(inst)
    model = build_model(inst, index)
    big_m = model.big_m
    order = data.draw(st.permutations(range(1, inst.n + 1)))
    x, t, r = encode_route(inst, index, order)
    # On the tour's arc into j, moving t_j to the floor leaves j's other
    # rows satisfied, so that row alone is near its floor.
    tour_arc_into = dict(zip(order, (0, *order)))
    for _ in range(data.draw(st.integers(1, 6))):
        j = data.draw(st.integers(1, inst.n))
        i = data.draw(st.sampled_from([k for k in range(inst.n + 1) if k != j]))
        kind = data.draw(st.sampled_from(["x", "t", "floor", "tour floor"]))
        if kind == "x":
            x[i][j] = data.draw(ARC_VALUES)
        elif kind == "t":
            t[j] = data.draw(st.one_of(st.integers(-50, 3000),
                                       st.floats(-50, 3000, allow_nan=False)))
        else:
            if kind == "tour floor":
                i = tour_arc_into[j]
            eps = data.draw(st.sampled_from([-2, -1.25, -1, -0.75, 0, 0.75, 1, 2]))
            t[j] = t[i] + big_m * x[i][j] + inst.travel[i][j] - big_m + eps * TOLERANCE
    res = check_assignment(model, inst, index, x, t, r)
    assert [v for v in res.violations if v.startswith("time_")] == \
        reference_time_row_report(model.travel, big_m, x, t)


@EXAMPLES
@given(instances(max_n=6, durations=True), st.data())
def test_absorb_names_the_first_overflowing_arc(inst, data):
    near_max = st.integers(MAX_TRAVEL - 40, MAX_TRAVEL)
    travel = [list(row) for row in inst.travel]
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.integers(0, inst.n)), data.draw(st.integers(0, inst.n))
        travel[i][j] = data.draw(near_max)
    durations = list(inst.repair_duration)
    if data.draw(st.booleans()):
        durations[data.draw(st.integers(0, inst.n - 1))] = data.draw(near_max)
    raw = replace(inst, travel=tuple(map(tuple, travel)),
                  repair_duration=tuple(durations))
    try:
        expected = reference_absorbed_travel(travel, durations)
    except OverflowError as exc:
        with pytest.raises(OverflowError) as caught:
            absorb_repair_durations(raw)
        assert str(caught.value) == str(exc)
    else:
        assert absorb_repair_durations(raw).travel == expected


# The values prtrp emits, and every corner json.dumps has: non-ASCII,
# quotes, backslashes and control characters, ints past 2^64, bools beside
# ints (printed true/false, never 1/0), NaN, infinities and -0.0, None,
# empty and nested containers, and tuples.
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-(2**64)),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-7, 1e300]),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f", "Ströme é € \U0001f600", "\ud800"]),
)
_INTS_AND_BOOLS = st.one_of(st.integers(), st.booleans())


def _json_containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(), children, max_size=5),
        st.lists(_INTS_AND_BOOLS, max_size=6),
        st.dictionaries(st.text(), _INTS_AND_BOOLS, max_size=5),
    )


_JSON_VALUES = st.recursive(_JSON_SCALARS, _json_containers, max_leaves=40)


def _dumps_outcome(dumps, value):
    """What dumps does with value: its text, or the error it raises."""
    try:
        return "text", dumps(value)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return "raises", type(exc), str(exc)


@EXAMPLES
@given(_JSON_VALUES)
def test_json_text_is_json_dumps_indent_2(value):
    assert inst_mod.json_text(value) == json.dumps(value, indent=2)


# Values json.dumps converts (non-str keys, int and str subclasses) or
# rejects (sets, bytes, objects), anywhere in a plain value.
_ODD_LEAVES = st.one_of(
    st.sampled_from([set(), {1, 2}, frozenset(), b"bytes", object, _Count(3)]),
    st.text().map(_Text),
)
_ODD_KEYS = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.tuples(st.integers())
)


def _odd_containers(children):
    return st.one_of(
        _json_containers(children),
        st.dictionaries(_ODD_KEYS, children, max_size=4),
        st.lists(children, max_size=4).map(_Items),
    )


@EXAMPLES
@given(st.recursive(st.one_of(_JSON_SCALARS, _ODD_LEAVES), _odd_containers,
                    max_leaves=20))
def test_json_text_converts_and_rejects_as_json_dumps(value):
    assert _dumps_outcome(inst_mod.json_text, value) == \
        _dumps_outcome(lambda v: json.dumps(v, indent=2), value)


def test_json_text_rejects_a_circular_value_as_json_dumps():
    loop = {"level": [1, 2]}
    loop["level"].append(loop)
    outcome = _dumps_outcome(inst_mod.json_text, [loop])
    assert outcome == _dumps_outcome(lambda v: json.dumps(v, indent=2), [loop])
    assert outcome[:2] == ("raises", ValueError)
