"""The exported MIP's optimum is the tour optimum.

The LP text that write_lp_text writes is read back by lp_lint.read_lp and
solved with SciPy's HiGHS MILP solver, so the artifact users get is what
gets solved. Skipped where SciPy is not installed.
"""

import pytest

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")

from prtrp import (  # noqa: E402
    brute_force,
    build_index,
    build_model,
    check_assignment,
    generate_random,
    generate_star_reduction,
    write_lp_text,
)

from lp_lint import read_lp  # noqa: E402


def solve_lp(text: str, integral: bool = True):
    """The solved model as (value, {variable name: value}); with integral
    False, its LP relaxation."""
    objective, rows, bounds, binaries = read_lp(text)
    names = sorted({*objective, *binaries, *(name for name, _, _ in bounds),
                    *(name for coefs, _, _ in rows for name in coefs)})
    col = {name: k for k, name in enumerate(names)}
    a = np.zeros((len(rows), len(names)))
    row_lo = np.full(len(rows), -np.inf)
    row_hi = np.full(len(rows), np.inf)
    for k, (coefs, sense, rhs) in enumerate(rows):
        for name, coef in coefs.items():
            a[k, col[name]] = coef
        if sense in ("=", ">="):
            row_lo[k] = rhs
        if sense in ("=", "<="):
            row_hi[k] = rhs
    # LP-format defaults: every variable at least 0, binaries at most 1.
    lo = np.zeros(len(names))
    hi = np.full(len(names), np.inf)
    for name in binaries:
        hi[col[name]] = 1
    for name, sense, value in bounds:
        if sense in ("=", ">="):
            lo[col[name]] = value
        if sense in ("=", "<="):
            hi[col[name]] = value
    integrality = np.zeros(len(names))
    if integral:
        integrality[[col[name] for name in binaries]] = 1
    res = optimize.milp(
        [objective.get(name, 0.0) for name in names],
        constraints=optimize.LinearConstraint(a, row_lo, row_hi),
        bounds=optimize.Bounds(lo, hi),
        integrality=integrality,
    )
    assert res.success, res.message
    return res.fun, dict(zip(names, res.x))


def small_instances():
    """30 instances: n = 3-5, coordinate range 20 and 1000, uniform power
    trees at seeds 1-3 and their star reductions at seeds 1-2."""
    for n in (3, 4, 5):
        for coord_range in (20, 1000):
            for seed in (1, 2, 3):
                base = generate_random(n, seed, coord_range)
                tag = f"n{n}-c{coord_range}-s{seed}"
                yield pytest.param(base, id=f"uniform-{tag}")
                if seed < 3:
                    star = generate_star_reduction(base.travel)
                    yield pytest.param(star, id=f"star-{tag}")


@pytest.mark.parametrize("inst", small_instances())
def test_mip_optimum_is_the_tour_optimum(inst):
    index = build_index(inst)
    model = build_model(inst, index)
    text = write_lp_text(model)
    value, var = solve_lp(text)
    optimum = brute_force(inst, index).objective
    assert round(value) == optimum
    # The big-M rows go slack once the arcs are fractional, so the LP
    # relaxation bounds nothing.
    assert solve_lp(text, integral=False)[0] == 0
    n = inst.n
    x = [[var[f"x_{i}_{j}"] if i != j else 0.0 for j in range(n + 1)]
         for i in range(n + 1)]
    t = [var[f"t_{i}"] for i in range(n + 1)]
    r = [var[f"r_{j}"] for j in range(1, n + 1)]
    verdict = check_assignment(model, inst, index, x, t, r)
    assert verdict.feasible, verdict.violations
    assert verdict.single_tour and verdict.route_objective == optimum
