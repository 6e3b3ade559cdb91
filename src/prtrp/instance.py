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
from dataclasses import dataclass
from operator import add
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

# Travel times and absorbed durations must stay inside a signed 64-bit word
# so that exact integer comparisons stay portable.
MAX_TRAVEL = 2**63 - 1

Matrix = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class Instance:
    """Immutable routing instance.

    Attributes:
        name: identifier used for file naming and reports.
        travel: (n+1) x (n+1) matrix of non-negative integer travel times,
            zero diagonal, over the depot 0 and the fault vertices 1..n.
            Asymmetry is allowed.
        power_parent: immediate predecessor in the power tree for every
            fault vertex except the source.
        source: root of the power tree, in 1..n.
        repair_duration: per-vertex repair time, index i-1 for vertex i.

    n, the number of fault vertices, is not stored: the travel matrix's
    size fixes it.
    """

    name: str
    travel: Matrix
    power_parent: Dict[int, int]
    source: int
    repair_duration: Tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.travel) - 1


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


def _is_list(value) -> bool:
    return isinstance(value, (list, tuple))


def make_instance(
    name: str,
    travel: Sequence[Sequence[int]],
    power_parent: Dict[int, int],
    source: int,
    repair_duration: Optional[Sequence[int]] = None,
) -> Instance:
    """Build a valid Instance from plain containers.

    The one gate for instances built from outside data. Raises ValueError
    when travel is not a list of lists or the durations not a list, and
    when validate reports anything: "instance failed validation:" and one
    "- ..." line per violation. Nothing is truncated or coerced.
    """
    if not _is_list(travel) or not all(_is_list(row) for row in travel):
        raise ValueError("travel must be a list of rows, each a list of integers")
    if repair_duration is not None and not _is_list(repair_duration):
        raise ValueError("repair durations must be a list of integers")
    n = len(travel) - 1
    inst = Instance(
        name=name,
        travel=tuple(tuple(row) for row in travel),
        power_parent=dict(power_parent),
        source=source,
        repair_duration=(0,) * n if repair_duration is None else tuple(repair_duration),
    )
    bad = validate(inst)
    if bad:
        raise ValueError("\n- ".join(["instance failed validation:", *bad]))
    return inst


def validate(instance: Instance) -> List[str]:
    """Return every violated instance rule, types included; empty when
    well-formed. A value of the wrong type is reported, never compared; a
    wrongly typed field, as opposed to an entry within one, ends the report.
    n is read off the travel matrix once it is known to be a list of lists."""
    bad: List[str] = []
    if type(instance.name) is not str:
        bad.append(f"name must be a string, got {instance.name!r}")
    travel = instance.travel
    if not _is_list(travel):
        bad.append(f"travel must be a list of rows, got {travel!r}")
        return bad
    for i, row in enumerate(travel):
        if not _is_list(row):
            bad.append(f"travel row {i} must be a list of integers, got {row!r}")
            return bad
    n = instance.n
    if n < 1:
        bad.append(f"n must be >= 1, got {n}")
        return bad

    size = n + 1
    if any(len(row) != size for row in travel):
        bad.append(f"travel matrix must be {size}x{size}")
        return bad
    # One walk in row order reports each bad entry; a builtin pre-test in
    # front of it cost about as much as the walk itself.
    for i, row in enumerate(travel):
        for j, v in enumerate(row):
            if type(v) is not int:
                bad.append(
                    f"every value in travel row {i} must be an integer, got {v!r}"
                )
                continue
            if i == j and v != 0:
                bad.append(f"nonzero diagonal: travel[{i}][{i}] = {v}")
            if v < 0:
                bad.append(f"negative travel time: travel[{i}][{j}] = {v}")
            if v > MAX_TRAVEL:
                bad.append(f"travel[{i}][{j}] exceeds the 64-bit range")

    if type(instance.source) is not int:
        bad.append(f"source must be an integer, got {instance.source!r}")
        return bad
    if not 1 <= instance.source <= n:
        bad.append(f"source {instance.source} outside 1..{n}")
        return bad

    if not isinstance(instance.power_parent, dict):
        bad.append(f"power_parent must be a dict, got {instance.power_parent!r}")
        return bad
    for child, parent in instance.power_parent.items():
        if type(child) is not int:
            bad.append(f"power edge child must be an integer, got {child!r}")
            return bad
        if type(parent) is not int:
            bad.append(f"power parent of {child} must be an integer, got {parent!r}")
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

    if not _is_list(instance.repair_duration):
        bad.append(
            f"repair_duration must be a list of integers, got {instance.repair_duration!r}"
        )
    elif len(instance.repair_duration) != n:
        bad.append(f"repair_duration must have length {n}")
    else:
        for i, p in enumerate(instance.repair_duration):
            if type(p) is not int:
                bad.append(f"repair duration must be an integer, got {p!r}")
            elif p < 0:
                bad.append(f"negative repair duration at vertex {i + 1}")
    return bad


def absorb_repair_durations(instance: Instance) -> Instance:
    """Fold repair times into the travel matrix.

    Every arc into fault vertex i gets lengthened by its repair time, after
    which all durations are zero. Arrival times in the returned instance
    equal repair-completion times in the original, so every route keeps its
    objective. An instance with no repair time comes back as it is. Raises
    OverflowError if a lengthened arc leaves the 64-bit range.
    """
    if not any(instance.repair_duration):
        return instance
    n = instance.n
    shift = (0, *instance.repair_duration)
    rows = []
    for j, old in enumerate(instance.travel):
        row = list(map(add, old, shift))
        row[j] = old[j]
        rows.append(tuple(row))
    if max(map(max, rows)) > MAX_TRAVEL:
        # Only a lengthened arc can overflow: name the first in row order.
        for j, row in enumerate(rows):
            for i in range(1, n + 1):
                if i != j and row[i] > MAX_TRAVEL:
                    raise OverflowError(
                        f"travel[{j}][{i}] + duration exceeds the 64-bit range"
                    )
    return Instance(
        name=instance.name,
        travel=tuple(rows),
        power_parent=dict(instance.power_parent),
        source=instance.source,
        repair_duration=(0,) * n,
    )


def extract_subtree(instance: Instance, new_source: int) -> Instance:
    """Restrict the instance to new_source and its power-tree descendants.

    Surviving vertices are relabeled 1..m in ascending order of their
    original labels, so new vertex k is the k-th smallest kept label.
    """
    if not 1 <= new_source <= instance.n:
        raise ValueError(f"unknown vertex {new_source}")

    # power_eval imports this module, so its index is imported at call time.
    from .power_eval import build_index

    keep = build_index(instance).successors[new_source - 1]
    relabel = {old: new for new, old in enumerate(keep, start=1)}

    idx = (0, *keep)  # matrix rows/cols to retain, depot first
    travel = tuple(tuple(instance.travel[a][b] for b in idx) for a in idx)
    parent = {
        relabel[c]: relabel[instance.power_parent[c]] for c in keep if c != new_source
    }
    return Instance(
        name=f"{instance.name}_sub{new_source}",
        travel=travel,
        power_parent=parent,
        source=relabel[new_source],
        repair_duration=tuple(instance.repair_duration[v - 1] for v in keep),
    )


def generate_random(n: int, seed: int, coord_range: int = 1000) -> Instance:
    """Random planar instance named rand-n{n}-s{seed}, deterministic in
    (n, seed, coord_range).

    Vertices get integer coordinates; travel times are rounded Euclidean
    distances (symmetric, zero diagonal). The power tree is a uniform
    recursive tree: each vertex attaches to a uniformly random earlier one,
    rooted at a random source. Repair durations are zero.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if coord_range < 0:
        raise ValueError(f"coord_range must be >= 0, got {coord_range}")
    if coord_range > 2**62:
        # Up to 2^62 a rounded distance is at most sqrt(2) * 2^62 < MAX_TRAVEL.
        raise ValueError(f"coord_range must be <= 2**62, got {coord_range}")
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
        name=f"rand-n{n}-s{seed}",
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
    given (no co-location is enforced here). A travel matrix that
    make_instance rejects raises its ValueError report.
    """
    return make_instance(
        name=name,
        travel=travel,
        power_parent={v: 1 for v in range(2, len(travel))},
        source=1,
    )


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
        name=data["name"],
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


# json.dumps(value, indent=2) runs json's pure-Python encoder (its C
# encoder serves only indent=None): about 100 us per record of a small
# solve. json_text writes the same bytes for the plain values prtrp emits,
# in about half that time, and hands anything else to json.dumps.
_encode_str = json.encoder.encode_basestring_ascii


class _Unhandled(Exception):
    """A value json_text leaves to json.dumps."""


def _json(value, nl: str) -> str:
    """value as json.dumps(..., indent=2) writes it where nl, a newline and
    the indent, starts each line."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        # Both json encoders print a finite float as float.__repr__ does.
        return float.__repr__(value) if math.isfinite(value) else json.dumps(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = nl + "  "
    sep = "," + inner
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        # A bool is not an int here: json prints it as true or false.
        if {*map(type, value)} == {int}:
            body = sep.join(map(int.__repr__, value))
        else:
            body = sep.join([_json(v, inner) for v in value])
        return f"[{inner}{body}{nl}]"
    if kind is dict and {*map(type, value)} <= {str}:
        if not value:
            return "{}"
        if {*map(type, value.values())} == {int}:
            body = sep.join([f"{_encode_str(k)}: {v!r}" for k, v in value.items()])
        else:
            body = sep.join(
                [f"{_encode_str(k)}: {_json(v, inner)}" for k, v in value.items()]
            )
        return f"{{{inner}{body}{nl}}}"
    raise _Unhandled


def json_text(value) -> str:
    """Exactly json.dumps(value, indent=2). Strings, ints, floats, bools,
    None, lists, tuples and str-keyed dicts of these are written here, with
    the C-level helpers json itself uses for each scalar; any other value,
    a circular one included, goes to json.dumps, so it is converted or
    rejected as json.dumps does."""
    try:
        return _json(value, "\n")
    except (_Unhandled, RecursionError):
        return json.dumps(value, indent=2)


def dumps(instance: Instance) -> str:
    return json_text(to_dict(instance)) + "\n"


def decode_json(text: str):
    """json.loads(text); a ValueError, not a RecursionError, for JSON that
    nests too deeply for the decoder."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nests too deeply to decode") from None


def loads(text: str) -> Instance:
    return from_dict(decode_json(text))


def save(instance: Instance, path) -> Path:
    path = Path(path)
    path.write_text(dumps(instance), encoding="utf-8")
    return path


def load(path) -> Instance:
    return loads(Path(path).read_text(encoding="utf-8"))
