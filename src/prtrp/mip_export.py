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
from itertools import chain, compress, count
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
        big_m = sum(sum(row) - row[i] for i, row in enumerate(instance.travel))
    # Each i's successor list names the j whose ancestor sets hold i;
    # sorting the pairs lists each j's ancestors in ascending label order.
    linkage = sorted(
        (j, i) for i, below in enumerate(index.successors, 1) for j in below
    )
    return MipModel(
        name=instance.name,
        n=n,
        travel=instance.travel,
        big_m=big_m,
        linkage=tuple(linkage),
    )


def write_lp_text(model: MipModel) -> str:
    """Serialize the model in LP format, one row per line, stable order.

    Each arc name is formatted once per pass over the arcs: the row pass
    writes the out-degree rows and the Binaries section, the column pass
    the in-degree and big-M rows. No table of all n^2 names is held.
    """
    n = model.n
    big_m = model.big_m
    labels = [str(i) for i in range(n + 1)]
    out_rows, binaries = [], []
    for i, si in enumerate(labels):
        names = [f"x_{si}_{sj}" for sj in labels]
        del names[i]
        out_rows.append(f" deg_out_{si}: {' + '.join(names)} = 1")
        binaries.append(" " + "\n ".join(names))
    in_rows, time_rows = [], []
    for j, (sj, column) in enumerate(zip(labels, zip(*model.travel))):
        names = [f"x_{si}_{sj}" for si in labels]
        del names[j]
        in_rows.append(f" deg_in_{sj}: {' + '.join(names)} = 1")
        if j:
            tail = f"_{sj}: t_{sj} - t_"
            rhs = [d - big_m for d in column]
            del rhs[j]
            time_rows.append("\n".join([
                f" time_{si}{tail}{si} - {big_m} {x} >= {b}"
                for si, x, b in zip(labels[:j] + labels[j + 1:], names, rhs)
            ]))
    lines = [
        f"\\ model {model.name}",
        "Minimize",
        " obj: " + " + ".join([f"r_{sj}" for sj in labels[1:]]),
        "Subject To",
        *out_rows,
        *in_rows,
        *time_rows,
        *[f" link_{j}_{i}: r_{j} - t_{i} >= 0" for j, i in model.linkage],
        "Bounds",
        " t_0 = 0",
        "Binaries",
        *binaries,
        "End",
    ]
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
) -> CheckResult:
    """Verify every model row within TOLERANCE and decode the tour if x is one.

    Arc values must be integral within TOLERANCE. When the rounded arcs form
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

    # An x row all 0 or 1 off the diagonal passes the binary test in one set
    # comparison; only another row is walked entry by entry to report.
    rounded = []
    for i, row in enumerate(x):
        off = [*row[:i], *row[i + 1:]]
        if {*off} <= {0, 1}:
            near = off
        else:
            near = []
            for j, v in zip(chain(range(i), range(i + 1, n + 1)), off):
                near.append(int(round(v)))
                if (abs(v - near[-1]) > TOLERANCE
                        or not -TOLERANCE <= v <= 1 + TOLERANCE):
                    violated(f"x_{i}_{j} = {v} is not binary")
        near.insert(i, 0)
        rounded.append(near)

    columns = list(zip(*x))
    for i, (row, column) in enumerate(zip(x, columns)):
        # Summed in label order, as the model rows list the arcs.
        out = sum(chain(row[:i], row[i + 1:]))
        if abs(out - 1) > TOLERANCE:
            violated(f"deg_out_{i}: sum = {out}")
        inc = sum(chain(column[:i], column[i + 1:]))
        if abs(inc - 1) > TOLERANCE:
            violated(f"deg_in_{i}: sum = {inc}")

    if abs(t[0]) > TOLERANCE:
        violated(f"t_0 = {t[0]} must be 0")
    for i in range(1, n + 1):
        if t[i] < -TOLERANCE:
            violated(f"t_{i} = {t[i]} below 0")
    for j in range(1, n + 1):
        if r[j - 1] < -TOLERANCE:
            violated(f"r_{j} = {r[j - 1]} below 0")

    big_m = model.big_m
    for j in range(1, n + 1):
        # Rows time_i_j, i != j: t_j - t_i - M x_ij >= d_ij - M, walked entry
        # by entry; a pre-test that skipped passing columns cost more than it saved.
        for i in range(n + 1):
            if i == j:
                continue
            lhs = t[j] - t[i] - big_m * x[i][j]
            rhs = model.travel[i][j] - big_m
            if lhs < rhs - TOLERANCE:
                violated(f"time_{i}_{j}: {lhs} < {rhs}")
    for j, i in model.linkage:
        if r[j - 1] < t[i] - TOLERANCE:
            violated(f"link_{j}_{i}: r_{j} = {r[j - 1]} < t_{i} = {t[i]}")

    res.objective = float(sum(r))

    degree_ok = all(sum(row) == 1 for row in rounded) and all(
        sum(column) == 1 for column in zip(*rounded)
    )
    if degree_ok:
        # The first arc out of each vertex; the diagonal is 0.
        succ = {i: next(compress(count(), row)) for i, row in enumerate(rounded)}
        tour = [0]
        cur = succ[0]
        while cur != 0 and len(tour) <= n + 1:
            tour.append(cur)
            cur = succ[cur]
        if len(tour) == n + 1:
            res.single_tour = True
            res.order = tuple(tour[1:])
            res.route_objective = evaluate_route(instance, index, res.order).objective
            if res.objective < res.route_objective - TOLERANCE:
                violated(
                    f"total disruption {res.objective} below the evaluated "
                    f"route value {res.route_objective}"
                )
        else:
            res.violations.append("degree-feasible but not a single tour")
            res.feasible = False
    return res
