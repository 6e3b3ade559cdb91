"""Tests of the benchmark itself: pins, output checks, tracing, determinism.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json

import pytest

from srcpath import use_checkout_src

use_checkout_src()

import prtrp.bidp  # noqa: E402
import prtrp.cli  # noqa: E402
import prtrp.heuristics  # noqa: E402

import pin  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PINNED = ("exact", "relaxed", "small-batch")


def test_every_pool_instance_is_pinned():
    names = {
        workloads.make_instance(fam, n, s).name
        for w in PINNED
        for fam, n, s in workloads.pool(w)
    }
    assert names == set(workloads.load_pins())


@pytest.mark.parametrize(
    "family,n,seed",
    [("uniform", 15, 1), ("star", 15, 1), ("uniform", 9, 7), ("uniform", 10, 23),
     ("uniform", 11, 40)],
)
def test_pin_matches_a_fresh_oracle_solve(family, n, seed):
    inst = workloads.make_instance(family, n, seed)
    assert pin.pinned_optimum(inst) == workloads.load_pins()[inst.name]


def test_relabeling_keeps_the_pinned_optimum():
    base = workloads.make_instance("uniform", 10, 3)
    inst = workloads.relabel(base, workloads.random.Random(5))
    assert inst.travel != base.travel
    assert pin.pinned_optimum(inst) == workloads.load_pins()[base.name]


def test_seed_decides_the_pass(tmp_path):
    def inputs(seed, sub):
        return [(c.argv[0], c.case.inst.name, c.case.inst.travel)
                for c in workloads.build_pass("small-batch", seed, tmp_path / sub)]

    assert inputs(1, "a") == inputs(1, "b")
    assert inputs(1, "a") != inputs(2, "c")


def test_check_rejects_a_wrong_objective(tmp_path):
    call = workloads.build_pass("small-batch", 3, tmp_path)[0]
    out = run.io.StringIO()
    with run.redirect_stdout(out):
        assert prtrp.cli.main(call.argv) == 0
    assert workloads.check(call, 0, out.getvalue()).ok
    rec = json.loads(out.getvalue())
    rec["objective"] += 1
    assert not workloads.check(call, 0, json.dumps(rec)).ok
    assert not workloads.check(call, 2, out.getvalue()).ok


def test_tracer_sees_imported_names_and_restores_them(tmp_path):
    before = (prtrp.cli.main, prtrp.bidp.greedy_complete, prtrp.cli.evaluate_route,
              prtrp.heuristics.evaluate_route)
    calls = workloads.build_pass("small-batch", 4, tmp_path)[:3]
    with tracing.Tracer() as tracer:
        assert prtrp.bidp.greedy_complete is not before[1]
        res = run.run_pass(calls, tracer)
        spans = tracer.take()
    assert (prtrp.cli.main, prtrp.bidp.greedy_complete, prtrp.cli.evaluate_route,
            prtrp.heuristics.evaluate_route) == before
    assert not res.failures
    self_s, incl, count = tracing.summarize(spans)
    assert count["cli.main"] == count["bidp.solve"] == count["cli._recheck"] == 3
    assert count["heuristics.greedy_complete"] > 0
    assert count["instance.absorb_repair_durations"] == 6
    assert 0 < self_s["bidp"] <= incl["bidp.solve"]


def test_passes_over_the_same_inputs_repeat_their_counts(tmp_path):
    calls = workloads.build_pass("triage", 5, tmp_path)[:15]
    first, second = run.run_pass(calls), run.run_pass(calls)
    assert not first.failures
    assert first.signature() == second.signature()
    assert first.counts["lp_bytes"] > 0


def test_speed_is_the_mean_of_reference_over_snippet_time():
    s = speed.Sampler()
    for i in range(40):  # one sample every 0.1 s; the second half at half speed
        s.at.append(i * 0.1)
        s.took.append(speed.REF_SNIPPET_S * (1 if i < 20 else 2))
    assert s.speed(0.6, 1.0) == pytest.approx(1.0)
    assert s.normalize(3.2, 3.4, 2.0) == pytest.approx(1.0)
    # Far from every sample, the nearest MIN_SAMPLES stand in.
    assert s.speed(100.0, 101.0) == pytest.approx(0.5)


def test_sampler_runs_during_work_and_restores_the_handler():
    before = speed.signal.getsignal(speed.signal.SIGALRM)
    with speed.Sampler() as s:
        t0 = speed.perf_counter()
        while speed.perf_counter() - t0 < 0.3:
            speed.snippet()
    assert speed.signal.getsignal(speed.signal.SIGALRM) == before
    assert len(s.at) >= 5 and 0 < s.spent < 0.3
    assert s.speed(t0, t0 + 0.3) > 0
