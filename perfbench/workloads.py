"""Workload definitions, inputs and output checks for the prtrp benchmark.

A workload is a list of CLI calls (one pass) built from the benchmark seed.
The exact, relaxed and small-batch workloads solve a committed pool of base
instances whose optima are pinned in pins.json by the unpruned subset DP
(held_karp_forward), never by the solver under test. The seed relabels the
fault vertices of every base instance at random and shuffles the calls.
Relabeling keeps each problem isomorphic, so its pinned optimum still holds
and must still be met, while the files, labels and tie-breaks the solver
sees change from seed to seed. Triage instances are too large for any exact
method, so they are drawn straight from the seed and checked by feasibility
and re-evaluation instead.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from prtrp import instance as inst_mod
from prtrp.heuristics import greedy_priority_distance
from prtrp.mip_export import encode_route
from prtrp.power_eval import PrecedenceIndex, build_index, evaluate_route

PINS_PATH = Path(__file__).with_name("pins.json")

WORKLOADS = ("exact", "relaxed", "small-batch", "triage")

# (family, n, base instance seeds). One solve costs 1-6 s on exact and
# relaxed, so their passes hold one instance per stratum. Solve times of
# base instances in one stratum differ by up to 1.4x, and drawing the bases
# by seed would spread pass_s between seeds beyond its bound, so the pools
# are fixed and the seed varies only labels and order.
POOLS = {
    "exact": [(fam, n, (1,)) for n in (15, 16) for fam in ("uniform", "star")],
    "relaxed": [("uniform", 17, (1,)), ("star", 17, (1,))],
    "small-batch": [("uniform", n, tuple(range(1, 41))) for n in (9, 10, 11)],
}
TRIAGE_STRATA = tuple((fam, n) for n in (40, 50, 63) for fam in ("uniform", "star"))
TRIAGE_PER_STRATUM = 6

RELAXED_FLAGS = ("--theta", "0.70", "--delta", "0.01")

# Call kinds. Solves by bidp carry search statistics in their JSON output.
EXACT, RELAXED, GREEDY, HK = "solve-exact", "solve-relaxed", "solve-greedy", "solve-hk"
BOUNDS, EXPORT, CHECK_MIP = "bounds", "export-mip", "check-mip"
BIDP_KINDS = (EXACT, RELAXED)


@dataclass
class Case:
    """One instance as the benchmark sees it: file, pin and reference data."""

    inst: inst_mod.Instance
    path: Path
    pin: Optional[int]
    work: inst_mod.Instance = field(repr=False)  # the benchmark's own absorbed copy
    index: PrecedenceIndex = field(repr=False)
    gipd_order: Optional[Tuple[int, ...]] = None
    gipd_objective: Optional[int] = None


@dataclass
class Call:
    kind: str
    argv: List[str]
    case: Case


@dataclass
class Outcome:
    """Verdict on one call plus the counts its output carries."""

    ok: bool
    reason: str = ""
    objective: Optional[int] = None
    stats: Optional[dict] = None
    lp_bytes: int = 0


def make_instance(family: str, n: int, seed: int) -> inst_mod.Instance:
    """The instance `prtrp generate --family F --n N --seed S` writes."""
    base = inst_mod.generate_random(n, seed)
    if family == "uniform":
        return base
    return inst_mod.generate_star_reduction(base.travel, name=f"star-n{n}-s{seed}")


def relabel(inst: inst_mod.Instance, rng: random.Random) -> inst_mod.Instance:
    """The same instance with its fault vertices renamed by a random permutation."""
    n = inst.n
    label = [0] + rng.sample(range(1, n + 1), n)  # old vertex -> new; depot stays 0
    travel = [[0] * (n + 1) for _ in range(n + 1)]
    for a in range(n + 1):
        for b in range(n + 1):
            travel[label[a]][label[b]] = inst.travel[a][b]
    duration = [0] * n
    for v in range(1, n + 1):
        duration[label[v] - 1] = inst.repair_duration[v - 1]
    return inst_mod.make_instance(
        name=f"{inst.name}-relabeled",
        travel=travel,
        power_parent={label[c]: label[p] for c, p in inst.power_parent.items()},
        source=label[inst.source],
        repair_duration=duration,
    )


def pool(workload: str) -> List[Tuple[str, int, int]]:
    """Every pinned (family, n, instance seed) of a workload."""
    return [(fam, n, s) for fam, n, seeds in POOLS[workload] for s in seeds]


def load_pins() -> Dict[str, int]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def build_pass(workload: str, seed: int, workdir: Path) -> List[Call]:
    """Generate and write the inputs of one pass; returns the calls in order.

    Everything here is set-up: instance generation, JSON writing, the
    reference absorb/index used by the checks and, for triage, the
    check-mip solution files built from the greedy priority tour.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    pins = load_pins() if workload != "triage" else {}
    workdir.mkdir(parents=True, exist_ok=True)
    calls: List[Call] = []
    if workload == "triage":
        draw = [(fam, n, s) for fam, n in TRIAGE_STRATA
                for s in rng.sample(range(1, 10**6), TRIAGE_PER_STRATUM)]
    else:
        draw = pool(workload)
    for fam, n, s in draw:
        inst = make_instance(fam, n, s)
        pin = None
        if workload != "triage":
            if inst.name not in pins:
                raise KeyError(f"no pinned optimum for {inst.name}; run perfbench/pin.py")
            pin = pins[inst.name]
            inst = relabel(inst, rng)
        path = inst_mod.save(inst, workdir / f"{inst.name}.json")
        work = inst_mod.absorb_repair_durations(inst)
        case = Case(inst, path, pin, work, build_index(work))
        p = str(path)
        if workload in ("exact", "small-batch"):
            calls.append(Call(EXACT, ["solve", p, "--method", "bidp", "--no-timing"], case))
        elif workload == "relaxed":
            calls.append(Call(RELAXED, ["solve", p, *RELAXED_FLAGS, "--no-timing"], case))
        else:
            route = greedy_priority_distance(case.work, case.index)
            case.gipd_order, case.gipd_objective = route.order, route.objective
            x, t, r = encode_route(case.work, case.index, route.order)
            sol = workdir / f"{inst.name}.sol.json"
            sol.write_text(json.dumps({"instance": path.name, "x": x, "t": t, "r": r}),
                           encoding="utf-8")
            calls += [
                Call(GREEDY, ["solve", p, "--method", "gipd", "--no-timing"], case),
                Call(GREEDY, ["solve", p, "--method", "gid", "--no-timing"], case),
                Call(BOUNDS, ["bounds", p], case),
                Call(EXPORT, ["export-mip", p], case),
                Call(CHECK_MIP, ["check-mip", str(sol)], case),
            ]
    rng.shuffle(calls)
    return calls


def hk_calls(calls: List[Call]) -> List[Call]:
    """The oracle's solve of every instance of a pass, as a reference."""
    return [
        Call(HK, ["solve", str(c.case.path), "--method", "hk", "--no-timing"], c.case)
        for c in calls
    ]


def check(call: Call, rc: Optional[int], out: str) -> Outcome:
    """Check one call's exit code and output against independent references.

    Unreadable output raises (ValueError, KeyError, ...); the caller counts
    any exception as a failed call.
    """
    if rc != 0:
        return Outcome(False, f"exit code {rc}")
    case = call.case
    if call.kind in (EXACT, RELAXED, GREEDY, HK):
        return _check_solve(call, json.loads(out))
    if call.kind == BOUNDS:
        return _check_bounds(case, out)
    if call.kind == EXPORT:
        ok = out.startswith("\\ model ") and out.endswith("\nEnd\n")
        return Outcome(ok, "" if ok else "malformed LP text",
                       lp_bytes=len(out.encode("utf-8")))
    if call.kind == CHECK_MIP:
        rec = json.loads(out)
        if rec["feasible"] is not True:
            return Outcome(False, "check-mip: assignment not feasible")
        if rec["route_objective"] != case.gipd_objective:
            return Outcome(False, "check-mip: decoded tour value differs")
        return Outcome(True)
    raise ValueError(f"unknown call kind {call.kind!r}")


def _check_solve(call: Call, rec: dict) -> Outcome:
    case = call.case
    obj = rec["objective"]
    # Re-evaluated on the benchmark's own absorbed copy; raises on a
    # non-permutation.
    again = evaluate_route(case.work, case.index, rec["order"]).objective
    if again != obj:
        return Outcome(False, f"objective {obj} re-evaluates to {again}")
    if call.kind in (EXACT, HK):
        if obj != case.pin or rec["proven_optimal"] is not True:
            return Outcome(False, f"objective {obj} vs pinned optimum {case.pin}")
    elif call.kind == RELAXED:
        if obj < case.pin:
            return Outcome(False, f"objective {obj} below pinned optimum {case.pin}")
    elif rec["method"] == "gipd" and tuple(rec["order"]) != case.gipd_order:
        return Outcome(False, "gipd tour differs from the library's")
    stats = rec["stats"] if call.kind in BIDP_KINDS else None
    return Outcome(True, objective=obj, stats=stats)


def _check_bounds(case: Case, out: str) -> Outcome:
    n = case.inst.n
    rows = out.splitlines()
    if len(rows) != n + 1 or not rows[0].startswith("vertex,successor_count,beta,"):
        return Outcome(False, "bounds: wrong table shape")
    for i, row in enumerate(rows[1:], start=1):
        cells = row.split(",")
        if int(cells[0]) != i or not 1 <= int(cells[2]) <= n:
            return Outcome(False, f"bounds: bad row for vertex {i}")
    return Outcome(True)
