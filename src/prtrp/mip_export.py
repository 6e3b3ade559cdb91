"""Mixed-integer model export and assignment checking.

Builds the arc-based formulation of the routing problem: binary arc
choices, big-M chained arrival times, and disruption variables tied to
every ancestor's arrival. The model is written as an LP-format text file
for external solvers; nothing is solved here. The checker verifies a
complete (possibly fractional) assignment row by row and decodes the tour
when the arc values describe one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .instance import Instance, Matrix
from .power_eval import PrecedenceIndex, evaluate_route

TOLERANCE = 1e-6


@dataclass(frozen=True)
class MipModel:
    """Model data: travel matrix, big-M value, and the linkage pair list.

    linkage holds (j, i) pairs meaning "disruption of j is at least the
    arrival time at i", one for every ancestor i of j, j itself included.
    """

    name: str
    n: int
    travel: Matrix
    big_m: int
    linkage: Tuple[Tuple[int, int], ...]

    @property
    def num_binaries(self) -> int:
        return (self.n + 1) * self.n

    @property
    def num_degree_rows(self) -> int:
        return 2 * (self.n + 1)

    @property
    def num_bigm_rows(self) -> int:
        return self.n * self.n

    @property
    def num_linkage_rows(self) -> int:
        return len(self.linkage)


def build_model(
    instance: Instance, index: PrecedenceIndex, big_m: Optional[int] = None
) -> MipModel:
    """Assemble the model for a zero-duration instance.

    The default big-M is the sum of all arc lengths, which is always large
    enough; pass big_m >= 0 to override with something tighter.
    """
    if any(instance.repair_duration):
        raise ValueError("repair durations must be absorbed before model export")
    if big_m is not None and big_m < 0:
        # With x_ij = 0 the time row would still demand t_j - t_i >= d_ij + |M|.
        raise ValueError(f"big_m must be >= 0, got {big_m}")
    n = instance.n
    if big_m is None:
        big_m = sum(
            instance.travel[i][j]
            for i in range(n + 1)
            for j in range(n + 1)
            if i != j
        )
    linkage = []
    for j in range(1, n + 1):
        m = index.ancestors[j - 1]
        while m:
            low = m & -m
            m ^= low
            linkage.append((j, low.bit_length()))
    return MipModel(
        name=instance.name,
        n=n,
        travel=instance.travel,
        big_m=big_m,
        linkage=tuple(linkage),
    )


def write_lp_text(model: MipModel) -> str:
    """Serialize the model in LP format, one row per line, stable order."""
    n = model.n
    big_m = model.big_m
    lines = [f"\\ model {model.name}"]
    lines.append("Minimize")
    lines.append(" obj: " + " + ".join(f"r_{j}" for j in range(1, n + 1)))
    lines.append("Subject To")
    for i in range(n + 1):
        terms = " + ".join(f"x_{i}_{j}" for j in range(n + 1) if j != i)
        lines.append(f" deg_out_{i}: {terms} = 1")
    for i in range(n + 1):
        terms = " + ".join(f"x_{j}_{i}" for j in range(n + 1) if j != i)
        lines.append(f" deg_in_{i}: {terms} = 1")
    for j in range(1, n + 1):
        for i in range(n + 1):
            if i == j:
                continue
            rhs = model.travel[i][j] - big_m
            lines.append(f" time_{i}_{j}: t_{j} - t_{i} - {big_m} x_{i}_{j} >= {rhs}")
    for j, i in model.linkage:
        lines.append(f" link_{j}_{i}: r_{j} - t_{i} >= 0")
    lines.append("Bounds")
    lines.append(" t_0 = 0")
    lines.append("Binaries")
    for i in range(n + 1):
        for j in range(n + 1):
            if j != i:
                lines.append(f" x_{i}_{j}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def encode_route(
    instance: Instance, index: PrecedenceIndex, order: Sequence[int]
) -> Tuple[List[List[int]], List[int], List[int]]:
    """Canonical assignment (x, t, r) for a visiting order.

    x is a dense (n+1)x(n+1) 0/1 matrix over the tour arcs, t the arrival
    times (t[0] = 0), r the per-vertex disruption times.
    """
    n = instance.n
    route = evaluate_route(instance, index, order)
    x = [[0] * (n + 1) for _ in range(n + 1)]
    prev = 0
    for v in order:
        x[prev][v] = 1
        prev = v
    x[prev][0] = 1
    return x, [0] + list(route.t), list(route.r)


@dataclass
class CheckResult:
    """Row-by-row verdict for a complete assignment."""

    feasible: bool
    violations: List[str] = field(default_factory=list)
    single_tour: bool = False
    order: Optional[Tuple[int, ...]] = None
    objective: float = 0.0
    route_objective: Optional[int] = None


def check_assignment(
    model: MipModel,
    instance: Instance,
    index: PrecedenceIndex,
    x: Sequence[Sequence[float]],
    t: Sequence[float],
    r: Sequence[float],
    tol: float = TOLERANCE,
) -> CheckResult:
    """Verify every model row within tol and decode the tour if x is one.

    Arc values must be integral within tol. When the rounded arcs form
    degree-feasible cycles that do not make one tour, the verdict says so;
    the big-M rows then fail as well because arrival times cannot chain
    around a subtour. For a genuine single tour the disruption total is
    cross-checked against the independently evaluated route, which it can
    only meet or exceed.
    """
    n = model.n
    if len(x) != n + 1 or any(len(row) != n + 1 for row in x):
        raise ValueError(f"x must be {n + 1}x{n + 1}")
    if len(t) != n + 1:
        raise ValueError(f"t must have length {n + 1}")
    if len(r) != n:
        raise ValueError(f"r must have length {n}")

    res = CheckResult(feasible=True)

    def violated(msg: str) -> None:
        res.violations.append(msg)
        res.feasible = False

    rounded = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(n + 1):
            if i == j:
                continue
            v = x[i][j]
            rounded[i][j] = int(round(v))
            if abs(v - rounded[i][j]) > tol or not -tol <= v <= 1 + tol:
                violated(f"x_{i}_{j} = {v} is not binary")

    for i in range(n + 1):
        out = sum(x[i][j] for j in range(n + 1) if j != i)
        if abs(out - 1) > tol:
            violated(f"deg_out_{i}: sum = {out}")
        inc = sum(x[j][i] for j in range(n + 1) if j != i)
        if abs(inc - 1) > tol:
            violated(f"deg_in_{i}: sum = {inc}")

    if abs(t[0]) > tol:
        violated(f"t_0 = {t[0]} must be 0")
    for i in range(1, n + 1):
        if t[i] < -tol:
            violated(f"t_{i} = {t[i]} below 0")
    for j in range(1, n + 1):
        if r[j - 1] < -tol:
            violated(f"r_{j} = {r[j - 1]} below 0")

    big_m = model.big_m
    for j in range(1, n + 1):
        for i in range(n + 1):
            if i == j:
                continue
            lhs = t[j] - t[i] - big_m * x[i][j]
            rhs = model.travel[i][j] - big_m
            if lhs < rhs - tol:
                violated(f"time_{i}_{j}: {lhs} < {rhs}")
    for j, i in model.linkage:
        if r[j - 1] < t[i] - tol:
            violated(f"link_{j}_{i}: r_{j} = {r[j - 1]} < t_{i} = {t[i]}")

    res.objective = float(sum(r))

    degree_ok = all(
        sum(rounded[i][j] for j in range(n + 1) if j != i) == 1
        and sum(rounded[j][i] for j in range(n + 1) if j != i) == 1
        for i in range(n + 1)
    )
    if degree_ok:
        succ = {
            i: next(j for j in range(n + 1) if j != i and rounded[i][j])
            for i in range(n + 1)
        }
        tour = [0]
        cur = succ[0]
        while cur != 0 and len(tour) <= n + 1:
            tour.append(cur)
            cur = succ[cur]
        if len(tour) == n + 1:
            res.single_tour = True
            res.order = tuple(tour[1:])
            res.route_objective = evaluate_route(instance, index, res.order).objective
            if res.objective < res.route_objective - tol:
                violated(
                    f"total disruption {res.objective} below the evaluated "
                    f"route value {res.route_objective}"
                )
        else:
            res.violations.append("degree-feasible but not a single tour")
            res.feasible = False
    return res
