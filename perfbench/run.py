"""prtrp benchmark: closed-loop CLI calls on seeded workloads, checked outputs.

One client in one process makes one call at a time into the public entry
point `prtrp.cli.main([...])` with `--no-timing`, captures stdout and checks
every output (see workloads.py). Untraced run, end-to-end metrics:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Traced run, per-layer metrics (one untraced pass, then two traced passes):

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 1

Times are stated at a fixed reference speed of the machine (see speed.py);
the raw wall times are printed beside them. Human-readable lines and a run
record come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_t_import = time.perf_counter()
from srcpath import ROOT, use_checkout_src  # noqa: E402

use_checkout_src()

import prtrp.cli  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

IMPORT_S = time.perf_counter() - _t_import

SETUP_REPEATS = 7
TRACED_PASSES = 2
# The end-to-end metrics BENCHMARK.json gates: never 0 and defined on every
# workload. call_p90_s, fail_frac and the gaps are printed but not gated.
GATED = ("pass_s", "call_p50_s", "peak_rss_mb", "setup_s")
WORK_DIR = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"

# Counts a pass must reproduce exactly: a difference between two passes
# over the same inputs is a benchmark failure, not noise.
STAT_COUNTS = ("labels_total", "fwd_created", "bwd_created", "dominated",
               "pruned_bound", "pruned_beta", "join_candidates",
               "ub_improved_levels", "ub_refresh_levels", "lp_bytes")


@dataclass
class PassResult:
    times: List[float] = field(default_factory=list)  # raw seconds per call
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    norm_times: List[float] = field(default_factory=list)  # at the reference speed
    failures: List[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    objectives: List[Optional[int]] = field(default_factory=list)
    gaps: List[float] = field(default_factory=list)
    initial_gaps: List[float] = field(default_factory=list)
    peak_level_labels: int = 0
    wall_s: float = 0.0

    @property
    def pass_s(self) -> float:
        return sum(self.times)

    @property
    def norm_pass_s(self) -> float:
        return sum(self.norm_times)

    def normalize(self, sampler: speed.Sampler) -> None:
        self.norm_times = [sampler.normalize(t0, t1, raw)
                           for (t0, t1), raw in zip(self.intervals, self.times)]

    def signature(self):
        return ({k: self.counts[k] for k in STAT_COUNTS}, self.objectives,
                len(self.failures))


def _add_bidp_stats(res: PassResult, stats: dict, pin: Optional[int]) -> None:
    levels = stats["levels"]
    c = res.counts
    c["labels_total"] += stats["labels_total"]
    c["join_candidates"] += stats["join_candidates"]
    for st in levels:
        c["fwd_created"] += st["fwd_created"]
        c["bwd_created"] += st["bwd_created"]
        for side in ("fwd", "bwd"):
            c["dominated"] += st[f"{side}_dominated"]
            c["pruned_bound"] += st[f"{side}_pruned_bound"]
            c["pruned_beta"] += st[f"{side}_pruned_beta"]
        res.peak_level_labels = max(res.peak_level_labels,
                                    st["fwd_created"] + st["bwd_created"])
        # The incumbent is refreshed after every level that grew a forward frontier.
        c["ub_refresh_levels"] += st["fwd_created"] > 0
    u = stats["u_trajectory"]
    c["ub_improved_levels"] += sum(b < a for a, b in zip(u, u[1:]))
    # The two frontiers the join pairs up: the last forward and last backward level.
    c["final_fwd"] += [st["fwd_created"] for st in levels if st["fwd_created"]][-1]
    c["final_bwd"] += [st["bwd_created"] for st in levels if st["bwd_created"]][-1]
    if pin is not None:
        res.initial_gaps.append(100.0 * (stats["initial_upper_bound"] - pin) / pin)


def run_pass(calls: List[wl.Call], tracer: Optional[tracing.Tracer] = None,
             sampler: Optional[speed.Sampler] = None) -> PassResult:
    """One pass over `calls`. With a sampler, its handler time is taken out
    of each call's raw time; normalize the pass once the run is over."""
    res = PassResult()
    start = time.perf_counter()
    for k, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = k
        out, err = io.StringIO(), io.StringIO()
        # Every call starts from the same collector state, as in a new CLI
        # process. Otherwise the garbage and counts that set-up and earlier
        # calls leave decide how many full collections a solve triggers: 7 or
        # 21 per relaxed pass, 0.2 s or 3.4 s.
        gc.collect()
        spent = sampler.spent if sampler else 0.0
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = prtrp.cli.main(call.argv)
        except (Exception, SystemExit) as exc:  # every raise is a failed call
            rc, err = None, io.StringIO(repr(exc))
        t1 = time.perf_counter()
        res.times.append(t1 - t0 - ((sampler.spent if sampler else 0.0) - spent))
        res.intervals.append((t0, t1))
        try:
            got = wl.check(call, rc, out.getvalue())
        except Exception as exc:  # unreadable or inconsistent output fails the call
            got = wl.Outcome(False, f"check raised {exc!r}")
        res.objectives.append(got.objective)
        if not got.ok:
            res.failures.append(f"{' '.join(call.argv)}: {got.reason} {err.getvalue()[:200]}")
            continue
        res.counts["lp_bytes"] += got.lp_bytes
        if got.stats is not None:
            _add_bidp_stats(res, got.stats, call.case.pin)
        if call.kind in wl.BIDP_KINDS:
            res.gaps.append(100.0 * (got.objective - call.case.pin) / call.case.pin)
    res.wall_s = time.perf_counter() - start
    return res


def _fresh_import() -> None:
    """Import prtrp anew, as a new process would, then put back the modules
    the benchmark holds. Set-up times this; the first import of a process is
    timed once only and reads noisier."""
    def ours():
        return [k for k in sys.modules if k == "prtrp" or k.startswith("prtrp.")]

    saved = {k: sys.modules.pop(k) for k in ours()}
    try:
        importlib.import_module("prtrp.cli")
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _scaled(summary, res: PassResult):
    """Span times of one traced pass, restated at the reference speed with the
    pass's own raw-to-normalized ratio."""
    self_s, incl, count = summary
    k = _ratio(res.norm_pass_s, res.pass_s)
    return ({n: k * v for n, v in self_s.items()}, {n: k * v for n, v in incl.items()}, count)


def layer_metrics(traced: List[PassResult], spans: List[list], untraced_pass_s: float,
                  hk_pass: Optional[PassResult], hk_spans: List[list]) -> Dict[str, tuple]:
    """Per-layer metrics of one traced pass (medians over the traced passes)."""
    per_pass = [_scaled(tracing.summarize(s), r) for s, r in zip(spans, traced)]

    def med(fn):
        return statistics.median(fn(*p) for p in per_pass)

    def incl(*names):
        return med(lambda _s, i, _c: sum(i.get(n, 0.0) for n in names))

    def count(name):
        return per_pass[0][2][name]

    res = traced[0]
    c = res.counts
    candidates = c["fwd_created"] + c["bwd_created"] + c["dominated"] + \
        c["pruned_bound"] + c["pruned_beta"]
    traced_s = statistics.median(p.norm_pass_s for p in traced)
    bidp_self = med(lambda s, _i, _c: s["bidp"])
    gaps = res.gaps or [0.0]
    hk_incl = (_scaled(tracing.summarize(hk_spans), hk_pass)[1]
               .get("oracle.held_karp_forward", 0.0) if hk_pass else 0.0)
    m = {}
    for layer in tracing.LAYERS:
        if layer != "oracle":
            m[f"{layer}.self_s"] = (med(lambda s, _i, _c, L=layer: s[L]), "s")
    m.update({
        "cli.calls": (count("cli.main"), "count"),
        "cli.load_s": (incl("cli._load_instance"), "s"),
        "cli.recheck_s": (incl("cli._recheck"), "s"),
        "instance.validate_s": (incl("instance.validate"), "s"),
        "instance.absorb_s": (incl("instance.absorb_repair_durations"), "s"),
        "instance.absorb_calls": (count("instance.absorb_repair_durations"), "count"),
        "power_eval.build_index_s": (incl("power_eval.build_index"), "s"),
        "power_eval.build_index_calls": (count("power_eval.build_index"), "count"),
        "power_eval.evaluate_route_s": (incl("power_eval.evaluate_route"), "s"),
        "power_eval.evaluate_route_calls": (count("power_eval.evaluate_route"), "count"),
        "bounds.table_s": (incl("bounds.build_bounds_table"), "s"),
        "bounds.beta_s": (incl("bounds.compute_beta"), "s"),
        "bounds.beta_calls": (count("bounds.compute_beta"), "count"),
        "heuristics.complete_s": (incl("heuristics.greedy_complete"), "s"),
        "heuristics.complete_calls": (count("heuristics.greedy_complete"), "count"),
        "heuristics.greedy_s": (incl("heuristics.greedy_distance",
                                     "heuristics.greedy_priority_distance"), "s"),
        "heuristics.ub_improved_levels": (c["ub_improved_levels"], "count"),
        "heuristics.ub_refresh_levels": (c["ub_refresh_levels"], "count"),
        "heuristics.initial_gap_pct": (
            statistics.fmean(res.initial_gaps) if res.initial_gaps else 0.0, "%"),
        "bidp.calls": (count("bidp.solve"), "count"),
        "bidp.labels_per_s": (_ratio(c["labels_total"], bidp_self), "labels/s"),
        "bidp.labels_total": (c["labels_total"], "count"),
        "bidp.fwd_created": (c["fwd_created"], "count"),
        "bidp.bwd_created": (c["bwd_created"], "count"),
        "bidp.dominated": (c["dominated"], "count"),
        "bidp.pruned_bound": (c["pruned_bound"], "count"),
        "bidp.pruned_beta": (c["pruned_beta"], "count"),
        "bidp.join_candidates": (c["join_candidates"], "count"),
        "bidp.survive_ratio": (
            _ratio(c["fwd_created"] + c["bwd_created"], candidates), "ratio"),
        "bidp.beta_prune_ratio": (_ratio(c["pruned_beta"], candidates), "ratio"),
        "bidp.bwd_fwd_ratio": (_ratio(c["final_bwd"], c["final_fwd"]), "ratio"),
        "bidp.peak_level_labels": (res.peak_level_labels, "count"),
        "bidp.gap_pct": (statistics.fmean(gaps), "%"),
        "bidp.gap_max_pct": (max(gaps), "%"),
        "mip_export.build_model_s": (incl("mip_export.build_model"), "s"),
        "mip_export.write_lp_s": (incl("mip_export.write_lp_text"), "s"),
        "mip_export.check_s": (incl("mip_export.check_assignment"), "s"),
        "mip_export.lp_bytes": (c["lp_bytes"], "bytes"),
        "oracle.hk_s": (hk_incl, "s"),
        "trace.pass_s": (traced_s, "s"),
        "trace.untraced_pass_s": (untraced_pass_s, "s"),
        "trace.overhead_s": (traced_s - untraced_pass_s, "s"),
        "trace.overhead_pct": (100.0 * _ratio(traced_s - untraced_pass_s,
                                              untraced_pass_s), "%"),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    workdir = WORK_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    sampler = speed.Sampler()
    try:
        sampler.start()
        setups = []  # (t0, t1, raw seconds) of each set-up
        for _ in range(SETUP_REPEATS):
            spent = sampler.spent
            t0 = time.perf_counter()
            _fresh_import()
            calls = wl.build_pass(args.workload, args.seed, workdir)
            t1 = time.perf_counter()
            setups.append((t0, t1, t1 - t0 - (sampler.spent - spent)))

        untraced: List[PassResult] = []
        t_run = time.perf_counter()
        while True:
            res = run_pass(calls, sampler=sampler)
            untraced.append(res)
            if args.trace or time.perf_counter() - t_run + res.wall_s > args.seconds:
                break
        traced: List[PassResult] = []
        spans: List[List[list]] = []
        hk_spans: List[list] = []
        extra: List[PassResult] = []
        if args.trace:
            with tracing.Tracer() as tracer:
                for _ in range(TRACED_PASSES):
                    traced.append(run_pass(calls, tracer, sampler))
                    spans.append(tracer.take())
                if args.workload == "exact":
                    extra.append(run_pass(wl.hk_calls(calls), tracer, sampler))
                    hk_spans = tracer.take()
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    all_passes = untraced + traced + extra
    for p in all_passes:
        p.normalize(sampler)
    setup_s = statistics.median(sampler.normalize(t0, t1, raw) for t0, t1, raw in setups)
    setup_wall_s = statistics.median(raw for _, _, raw in setups)
    attempted = sum(len(p.times) for p in all_passes)
    failures = [f for p in all_passes for f in p.failures]
    # Determinism self-check: every pass over the same inputs gives the same counts.
    mismatches = [i for i, p in enumerate(untraced + traced)
                  if p.signature() != untraced[0].signature()]
    if traced and any(tracing.summarize(s)[2] != tracing.summarize(spans[0])[2]
                      for s in spans[1:]):
        mismatches.append("traced call counts")
    for f in failures[:10]:
        print(f"FAILED {f}")
    if mismatches:
        print(f"NONDETERMINISTIC passes {mismatches}: counts differ over identical inputs")

    first = untraced[0]
    times = [t for p in untraced for t in p.norm_times]
    wall_times = [t for p in untraced for t in p.times]
    calls_per_pass = len(calls)
    gaps = first.gaps or [0.0]
    report = {
        "pass_s": (statistics.median(p.norm_pass_s for p in untraced), "s",
                   f"median of {len(untraced)} passes of {calls_per_pass} calls, "
                   "at reference speed"),
        "pass_wall_s": (statistics.median(p.pass_s for p in untraced), "s",
                        "the same, raw wall time"),
        "call_p50_s": (statistics.median(times), "s",
                       f"median of {len(times)} calls, at reference speed"),
        "call_p50_wall_s": (statistics.median(wall_times), "s", "the same, raw wall time"),
        "fail_frac": (_ratio(len(failures), attempted), "ratio",
                      f"{len(failures)} of {attempted} calls"),
        "gap_pct": (statistics.fmean(gaps), "%",
                    f"mean over {len(first.gaps)} bidp calls vs pinned hk optima"),
        "gap_max_pct": (max(gaps), "%", f"max over {len(first.gaps)} bidp calls"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "whole benchmark process"),
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} set-ups, each a fresh "
                                  "import of prtrp and the inputs, at reference speed"),
        "setup_wall_s": (setup_wall_s, "s", "the same, raw wall time (first import of "
                                            f"the benchmark and prtrp {IMPORT_S:.4f} s)"),
    }
    if calls_per_pass >= 100:
        report["call_p90_s"] = (statistics.quantiles(times, n=10)[8], "s",
                                f"p90 of {len(times)} calls, at reference speed")
    for name, (value, unit, note) in report.items():
        print(f"{args.workload:<11} {name:<32} {value:>14.6f} {unit:<9} {note}")

    metrics = {}
    if args.trace:
        untraced_pass_s = report["pass_s"][0]  # at reference speed, as trace.pass_s
        layers = layer_metrics(traced, spans, untraced_pass_s,
                               extra[0] if extra else None, hk_spans)
        for name, (value, unit) in layers.items():
            print(f"{args.workload:<11} {name:<32} {value:>14.6f} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        TRACE_DIR.mkdir(exist_ok=True)
        span_file = TRACE_DIR / f"spans-{args.workload}-s{args.seed}.tsv"
        groups = {f"traced-pass-{i + 1}": s for i, s in enumerate(spans)}
        if hk_spans:
            groups["oracle"] = hk_spans
        tracing.write_spans(span_file, groups)
        record["span_file"] = str(span_file.relative_to(ROOT))
    else:
        for name in GATED:
            value, unit, _ = report[name]
            metrics[name] = {"value": value, "unit": unit}

    record.update({
        "loadavg_end": os.getloadavg(),
        "instances": sorted({c.case.inst.name for c in calls}),
        "calls_per_pass": calls_per_pass,
        "untraced_passes": len(untraced),
        "untraced_pass_s": [[round(p.norm_pass_s, 4), round(p.pass_s, 4)] for p in untraced],
        "traced_passes": len(traced),
        "samples": {"calls_timed": len(times), "setups": SETUP_REPEATS},
        "speed": sampler.summary(),
    })
    print("run-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures and not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
