"""Problem instances: data model, validation, transforms, generators, JSON I/O.

An instance couples a complete directed road network (integer travel times
over the depot 0 and fault vertices 1..n) with a power tree rooted at the
source vertex. A fault vertex has power only once every fault on the tree
path from the source down to it has been repaired.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

# Travel times and absorbed durations must stay inside a signed 64-bit word
# so that exact integer comparisons stay portable.
MAX_TRAVEL = 2**63 - 1

Matrix = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class Instance:
    """Immutable routing instance.

    Attributes:
        name: identifier used for file naming and reports.
        n: number of fault vertices, labeled 1..n (the depot is vertex 0).
        travel: (n+1) x (n+1) matrix of non-negative integer travel times,
            zero diagonal. Asymmetry is allowed.
        power_parent: immediate predecessor in the power tree for every
            fault vertex except the source.
        source: root of the power tree, in 1..n.
        repair_duration: per-vertex repair time, index i-1 for vertex i.
        meta: free-form annotations (e.g. original labels after a subtree
            extraction); never serialized.
    """

    name: str
    n: int
    travel: Matrix
    power_parent: Dict[int, int]
    source: int
    repair_duration: Tuple[int, ...]
    meta: Dict[str, object] = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Route:
    """A complete repair tour and its timing.

    order: visit order over the fault vertices; the depot is implicit at
    both ends. t[i-1] is the arrival time at vertex i, r[i-1] the service
    disruption time of vertex i (the moment the last fault on its source
    path is repaired), and objective the sum of all disruption times.
    """

    order: Tuple[int, ...]
    objective: int
    r: Tuple[int, ...]
    t: Tuple[int, ...]


def _not_int(value, where: str) -> NoReturn:
    raise ValueError(f"{where} must be an integer, got {value!r}")


def _is_list(value) -> bool:
    return isinstance(value, (list, tuple))


def make_instance(
    name: str,
    travel: Sequence[Sequence[int]],
    power_parent: Dict[int, int],
    source: int,
    repair_duration: Optional[Sequence[int]] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Instance:
    """Build an Instance from plain containers.

    Every number must already be an int: floats, booleans and strings are
    rejected with ValueError rather than truncated or coerced, and so is a
    travel matrix or duration list that is not a list of lists or a list.
    The structure is not validated.
    """
    if not _is_list(travel) or not all(_is_list(row) for row in travel):
        raise ValueError("travel must be a list of rows, each a list of integers")
    if repair_duration is not None and not _is_list(repair_duration):
        raise ValueError("repair durations must be a list of integers")
    n = len(travel) - 1
    if repair_duration is None:
        repair_duration = (0,) * n
    return Instance(
        name=name,
        n=n,
        travel=tuple(
            tuple(
                x if type(x) is int else _not_int(x, f"every value in travel row {i}")
                for x in row
            )
            for i, row in enumerate(travel)
        ),
        power_parent={
            c if type(c) is int else _not_int(c, "power edge child"):
            p if type(p) is int else _not_int(p, f"power parent of {c}")
            for c, p in power_parent.items()
        },
        source=source if type(source) is int else _not_int(source, "source"),
        repair_duration=tuple(
            p if type(p) is int else _not_int(p, "repair duration")
            for p in repair_duration
        ),
        meta=dict(meta or {}),
    )


def validate(instance: Instance) -> List[str]:
    """Return every violated structural invariant; empty when well-formed."""
    bad: List[str] = []
    n = instance.n
    if n < 1:
        bad.append(f"n must be >= 1, got {n}")
        return bad

    size = n + 1
    if len(instance.travel) != size or any(len(row) != size for row in instance.travel):
        bad.append(f"travel matrix must be {size}x{size}")
        return bad
    for i in range(size):
        for j in range(size):
            v = instance.travel[i][j]
            if i == j and v != 0:
                bad.append(f"nonzero diagonal: travel[{i}][{i}] = {v}")
            if v < 0:
                bad.append(f"negative travel time: travel[{i}][{j}] = {v}")
            if v > MAX_TRAVEL:
                bad.append(f"travel[{i}][{j}] exceeds the 64-bit range")

    if not 1 <= instance.source <= n:
        bad.append(f"source {instance.source} outside 1..{n}")
        return bad

    expected = set(range(1, n + 1)) - {instance.source}
    if set(instance.power_parent) != expected:
        bad.append(
            "power_parent must map exactly the non-source fault vertices, "
            f"got keys {sorted(instance.power_parent)}"
        )
        return bad
    for child, parent in instance.power_parent.items():
        if not 1 <= parent <= n:
            bad.append(f"power parent of {child} outside 1..{n}")
            return bad

    # Every vertex must reach the source without revisiting anything,
    # otherwise the parent map hides a cycle.
    for v in range(1, n + 1):
        seen = set()
        cur = v
        while cur != instance.source:
            if cur in seen:
                bad.append(f"power graph not a tree: cycle through vertex {cur}")
                return bad
            seen.add(cur)
            cur = instance.power_parent[cur]

    if len(instance.repair_duration) != n:
        bad.append(f"repair_duration must have length {n}")
    else:
        for i, p in enumerate(instance.repair_duration):
            if p < 0:
                bad.append(f"negative repair duration at vertex {i + 1}")
    return bad


def absorb_repair_durations(instance: Instance) -> Instance:
    """Fold repair times into the travel matrix.

    Every arc into fault vertex i gets lengthened by its repair time, after
    which all durations are zero. Arrival times in the returned instance
    equal repair-completion times in the original, so every route keeps its
    objective. Raises OverflowError if a lengthened arc leaves the 64-bit
    range.
    """
    n = instance.n
    p = instance.repair_duration
    rows = []
    for j in range(n + 1):
        row = list(instance.travel[j])
        for i in range(1, n + 1):
            if i != j:
                row[i] += p[i - 1]
                if row[i] > MAX_TRAVEL:
                    raise OverflowError(
                        f"travel[{j}][{i}] + duration exceeds the 64-bit range"
                    )
        rows.append(tuple(row))
    return Instance(
        name=instance.name,
        n=n,
        travel=tuple(rows),
        power_parent=dict(instance.power_parent),
        source=instance.source,
        repair_duration=(0,) * n,
        meta=dict(instance.meta),
    )


def extract_subtree(instance: Instance, new_source: int) -> Instance:
    """Restrict the instance to new_source and its power-tree descendants.

    Surviving vertices are relabeled 1..m preserving their relative order;
    the original labels are recorded in meta["original_labels"].
    """
    if not 1 <= new_source <= instance.n:
        raise ValueError(f"unknown vertex {new_source}")

    children: Dict[int, List[int]] = {}
    for c, p in instance.power_parent.items():
        children.setdefault(p, []).append(c)
    keep = []
    stack = [new_source]
    while stack:
        v = stack.pop()
        keep.append(v)
        stack.extend(children.get(v, ()))
    keep.sort()
    relabel = {old: new for new, old in enumerate(keep, start=1)}

    idx = [0] + keep  # matrix rows/cols to retain, depot first
    travel = tuple(tuple(instance.travel[a][b] for b in idx) for a in idx)
    parent = {
        relabel[c]: relabel[instance.power_parent[c]] for c in keep if c != new_source
    }
    return Instance(
        name=f"{instance.name}_sub{new_source}",
        n=len(keep),
        travel=travel,
        power_parent=parent,
        source=relabel[new_source],
        repair_duration=tuple(instance.repair_duration[v - 1] for v in keep),
        meta={"original_labels": tuple(keep)},
    )


def generate_random(
    n: int, seed: int, coord_range: int = 1000, name: Optional[str] = None
) -> Instance:
    """Random planar instance, deterministic in (n, seed, coord_range).

    Vertices get integer coordinates; travel times are rounded Euclidean
    distances (symmetric, zero diagonal). The power tree is a uniform
    recursive tree: each vertex attaches to a uniformly random earlier one,
    rooted at a random source. Repair durations are zero.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = random.Random(seed)
    pts = [(rng.randint(0, coord_range), rng.randint(0, coord_range)) for _ in range(n + 1)]
    travel = tuple(
        tuple(
            int(round(math.sqrt((ax - bx) ** 2 + (ay - by) ** 2)))
            for (bx, by) in pts
        )
        for (ax, ay) in pts
    )
    source = rng.randint(1, n)
    rest = [v for v in range(1, n + 1) if v != source]
    rng.shuffle(rest)
    grown = [source]
    parent: Dict[int, int] = {}
    for v in rest:
        parent[v] = rng.choice(grown)
        grown.append(v)
    return Instance(
        name=name or f"rand-n{n}-s{seed}",
        n=n,
        travel=travel,
        power_parent=parent,
        source=source,
        repair_duration=(0,) * n,
    )


def generate_star_reduction(
    travel: Sequence[Sequence[int]], name: str = "star"
) -> Instance:
    """Instance whose power tree is a star: vertex 1 feeds every other vertex.

    With vertex 1 placed at travel time 0 from the depot this is a plain
    minimum-latency tour problem; the depot row/column is otherwise taken as
    given (no co-location is enforced here).
    """
    inst = make_instance(
        name=name,
        travel=travel,
        power_parent={v: 1 for v in range(2, len(travel))},
        source=1,
    )
    bad = validate(inst)
    if bad:
        raise ValueError("invalid travel matrix: " + "; ".join(bad))
    return inst


# --- JSON contract ---------------------------------------------------------
# {"name", "n", "source", "power_edges" [[parent, child], ...], "travel",
#  "repair_durations"} with row/col 0 of travel being the depot.


def to_dict(instance: Instance) -> Dict[str, object]:
    edges = sorted(
        [[p, c] for c, p in instance.power_parent.items()], key=lambda e: e[1]
    )
    return {
        "name": instance.name,
        "n": instance.n,
        "source": instance.source,
        "power_edges": edges,
        "travel": [list(row) for row in instance.travel],
        "repair_durations": list(instance.repair_duration),
    }


def from_dict(data: Dict[str, object]) -> Instance:
    if not isinstance(data, dict):
        raise ValueError("instance data must be a JSON object")
    missing = [
        k
        for k in ("name", "n", "source", "power_edges", "travel", "repair_durations")
        if k not in data
    ]
    if missing:
        raise ValueError(f"instance data missing keys: {', '.join(missing)}")
    edges = data["power_edges"]
    if not _is_list(edges):
        raise ValueError("power_edges must be a list of [parent, child] pairs")
    parent = {}
    for edge in edges:
        if not (
            _is_list(edge) and len(edge) == 2
            and type(edge[0]) is int and type(edge[1]) is int
        ):
            raise ValueError(
                f"every power edge must be a [parent, child] pair of integers, "
                f"got {edge!r}"
            )
        p, c = edge
        if c in parent:
            raise ValueError(f"power_edges name child {c!r} more than once")
        parent[c] = p
    inst = make_instance(
        name=str(data["name"]),
        travel=data["travel"],
        power_parent=parent,
        source=data["source"],
        repair_duration=data["repair_durations"],
    )
    if type(data["n"]) is not int or data["n"] != inst.n:
        raise ValueError(
            f"declared n must be {inst.n}, as the {inst.n + 1}-row travel "
            f"matrix implies, got {data['n']!r}"
        )
    return inst


def dumps(instance: Instance) -> str:
    return json.dumps(to_dict(instance), indent=2) + "\n"


def loads(text: str) -> Instance:
    return from_dict(json.loads(text))


def save(instance: Instance, path) -> Path:
    path = Path(path)
    path.write_text(dumps(instance), encoding="utf-8")
    return path


def load(path) -> Instance:
    return loads(Path(path).read_text(encoding="utf-8"))
