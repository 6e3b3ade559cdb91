import dataclasses
import json
import os

import pytest

from prtrp import cli
from prtrp import instance as inst_mod
from prtrp.instance import generate_random

from lp_lint import lint_lp


@pytest.fixture
def star_file(tmp_path, star):
    return str(inst_mod.save(star, tmp_path / "star.json"))


def _dense(arcs, loop, value):
    """The 5x5 matrix of arcs, with value at x[loop][loop]."""
    x = [[0] * 5 for _ in range(5)]
    for i, j in arcs:
        x[i][j] = 1
    x[loop][loop] = value
    return x


def run_cli(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_bidp_star(self, capsys, star_file):
        code, out, _ = run_cli(capsys, ["solve", star_file, "--method", "bidp"])
        assert code == 0
        record = json.loads(out)
        assert record["objective"] == 6
        assert record["proven_optimal"] is True
        assert record["order"] == [1, 2, 3]
        assert record["method"] == "bidp"
        assert record["stats"]["labels_total"] > 0

    def test_gipd_star(self, capsys, star_file):
        code, out, _ = run_cli(capsys, ["solve", star_file, "--method", "gipd"])
        assert code == 0
        record = json.loads(out)
        assert record["objective"] == 6
        assert record["proven_optimal"] is False

    def test_all_methods_agree_on_objective_bounds(self, capsys, tmp_path):
        path = str(inst_mod.save(generate_random(6, seed=31), tmp_path / "i.json"))
        values = {}
        for method in ("bidp", "brute", "hk", "gid", "gipd"):
            code, out, _ = run_cli(capsys, ["solve", path, "--method", method])
            assert code == 0
            values[method] = json.loads(out)["objective"]
        assert values["bidp"] == values["brute"] == values["hk"]
        assert values["gid"] >= values["bidp"]
        assert values["gipd"] >= values["bidp"]

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["solve", "no-such-file.json"])
        assert code == 2
        assert "not found" in err

    def test_invalid_instance_exits_2_with_report(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        data = json.loads(inst_mod.dumps(generate_random(3, seed=1)))
        data["travel"][0][1] = -5
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, ["solve", str(path)])
        assert code == 2
        assert "negative travel time" in err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n", 7, "declared n must be 3"),
            ("power_edges", [[1, 2], [1, 3], [2, 3]], "child 3 more than once"),
            ("travel", [[0, 1.7, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]],
             "got 1.7"),
            ("source", True, "source must be an integer"),
            ("repair_durations", [0, 0.5, 0], "repair duration must be an integer"),
            ("travel", 5, "travel must be a list of rows"),
            ("travel", [[0, 1, 2, 3], 5, [2, 1, 0, 1], [3, 2, 1, 0]],
             "travel must be a list of rows"),
            ("power_edges", 7, "power_edges must be a list"),
            ("power_edges", [[1, [2]], [1, 3]], "got [1, [2]]"),
            ("name", 5, "name must be a string, got 5"),
            ("name", [1], "name must be a string, got [1]"),
            ("name", None, "name must be a string, got None"),
            ("repair_durations", 5, "repair durations must be a list of integers"),
        ],
    )
    def test_malformed_instance_exits_2_with_report(
        self, capsys, tmp_path, star, key, value, message
    ):
        data = json.loads(inst_mod.dumps(star))
        data[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, ["solve", str(path)])
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--time-limit", "nan", "time_limit"),
            ("--time-limit", "-1", "time_limit"),
            ("--labels-cap", "-3", "labels_cap"),
            ("--delta", "nan", "delta"),
            ("--theta", "0.996", "theta"),
            ("--theta", "0.704", "theta"),
            ("--delta", "0.015", "delta"),
        ],
    )
    def test_bad_limit_exits_2_naming_the_field(
        self, capsys, star_file, flag, value, field
    ):
        code, out, err = run_cli(capsys, ["solve", star_file, flag, value])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field} must be")
        assert err.count("\n") == 1

    def test_missing_keys_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x", "n": 2}')
        code, _, err = run_cli(capsys, ["solve", str(path)])
        assert code == 2
        assert "missing keys" in err

    def test_garbage_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["solve", str(path)])
        assert code == 2

    def test_engine_limit_exits_3(self, capsys, tmp_path):
        path = str(inst_mod.save(generate_random(11, seed=3), tmp_path / "big.json"))
        code, _, err = run_cli(capsys, ["solve", path, "--method", "brute"])
        assert code == 3
        assert "refuses" in err

    def test_no_timing_makes_output_stable(self, capsys, star_file):
        _, out1, _ = run_cli(capsys, ["solve", star_file, "--no-timing"])
        _, out2, _ = run_cli(capsys, ["solve", star_file, "--no-timing"])
        assert out1 == out2
        assert json.loads(out1)["wall_time_sec"] is None

    def test_heuristic_flags_are_echoed(self, capsys, star_file):
        code, out, _ = run_cli(
            capsys,
            ["solve", star_file, "--theta", "0.8", "--delta", "0.01"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["proven_optimal"] is False
        assert record["config"] == {
            "theta": 0.8, "delta": 0.01, "labels_cap": None, "time_limit": None,
        }

    def test_durations_are_absorbed_before_solving(self, capsys, tmp_path, star):
        data = json.loads(inst_mod.dumps(star))
        data["repair_durations"] = [5, 0, 0]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, ["solve", str(path), "--method", "brute"])
        assert code == 0
        # optimum with the source repair folded in: (1,2,3) -> 6+7+8
        assert json.loads(out)["objective"] == 21


class TestBench:
    def test_generated_set_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bench", "--n", "5", "--count", "2", "--seed", "9",
             "--methods", "gid,gipd,bidp", "--no-timing"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "instance,n,method,z,t_sec,gap_pct,proven_optimal,error"
        data_rows = [ln for ln in lines[1:] if ln.startswith("rand-")]
        assert len(data_rows) == 6
        bidp_rows = [ln.split(",") for ln in data_rows if ",bidp," in ln]
        assert all(row[5] == "0.00" for row in bidp_rows)
        assert any(ln.startswith("Avg. Deviation") for ln in lines)
        assert any(ln.startswith("Max. Deviation") for ln in lines)

    def test_deterministic_with_no_timing(self, capsys):
        argv = ["bench", "--n", "4", "6", "--count", "1", "--seed", "3",
                "--methods", "gid,bidp:0.80:0.01", "--no-timing"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_directory_input(self, capsys, tmp_path):
        for k in range(2):
            inst_mod.save(generate_random(5, seed=40 + k), tmp_path / f"i{k}.json")
        code, out, _ = run_cli(
            capsys,
            ["bench", "--dir", str(tmp_path), "--methods", "gid", "--no-timing"],
        )
        assert code == 0
        assert len([ln for ln in out.splitlines() if ln.startswith("rand-")]) == 2

    def test_directory_instances_sharing_a_name(self, capsys, tmp_path):
        # b.json's instance takes a.json's name; each file's rows must still
        # be scored against that file's own best (bidp's proven optimum).
        inst_mod.save(generate_random(6, seed=1), tmp_path / "a.json")
        other = dataclasses.replace(generate_random(6, seed=2), name="rand-n6-s1")
        inst_mod.save(other, tmp_path / "b.json")
        code, out, _ = run_cli(
            capsys,
            ["bench", "--dir", str(tmp_path), "--methods", "gid,bidp", "--no-timing"],
        )
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines() if ln.startswith("rand-")]
        assert [(r[0], r[2], r[3], r[5]) for r in rows] == [
            ("rand-n6-s1", "gid", "9848", "9.01"),
            ("rand-n6-s1", "bidp", "9034", "0.00"),
            ("rand-n6-s1", "gid", "11560", "45.04"),
            ("rand-n6-s1", "bidp", "7970", "0.00"),
        ]

    def test_directory_with_a_json_named_subdirectory(self, capsys, tmp_path):
        # Only regular files are instances; a directory left with none is
        # still reported as empty.
        (tmp_path / "runs.json").mkdir()
        code, out, err = run_cli(
            capsys, ["bench", "--dir", str(tmp_path), "--methods", "gid", "--no-timing"]
        )
        assert (code, out) == (2, "")
        assert f"no *.json instance files in {tmp_path}" in err
        inst_mod.save(generate_random(5, seed=1), tmp_path / "a.json")
        code, out, _ = run_cli(
            capsys,
            ["bench", "--dir", str(tmp_path), "--methods", "gid,bidp", "--no-timing"],
        )
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines() if ln.startswith("rand-")]
        assert [(r[0], r[2]) for r in rows] == [("rand-n5-s1", "gid"), ("rand-n5-s1", "bidp")]

    def test_failures_recorded_in_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bench", "--n", "11", "--count", "1", "--seed", "2",
             "--methods", "brute,gid", "--no-timing"],
        )
        assert code == 0
        rows = [ln for ln in out.splitlines() if ln.startswith("rand-")]
        brute_row = next(ln for ln in rows if ",brute," in ln)
        assert "refuses" in brute_row
        gid_row = next(ln for ln in rows if ",gid," in ln)
        assert gid_row.split(",")[3] != ""

    def test_relaxation_sweep_layout(self, capsys):
        # three relaxation settings side by side; the theta=1 column is the
        # exact method and must win or tie every row
        code, out, _ = run_cli(
            capsys,
            ["bench", "--n", "7", "--count", "2", "--seed", "21",
             "--methods", "bidp:0.80:0.01,bidp:0.90:0.01,bidp:1.00:0",
             "--no-timing"],
        )
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines() if ln.startswith("rand-")]
        assert len(rows) == 6
        exact_rows = [r for r in rows if r[2] == "bidp:1.00:0"]
        assert all(r[5] == "0.00" and r[6] == "true" for r in exact_rows)
        relaxed_rows = [r for r in rows if r[2] != "bidp:1.00:0"]
        assert all(r[6] == "false" for r in relaxed_rows)

    def test_zero_best_scores_only_a_tie(self, capsys, tmp_path):
        # Star 1 -> {2, 3}: the tour 3, 1, 2 drives only zero arcs, while
        # both greedy tours pay 40. No ratio exists against a best of 0.
        travel = [[0, 10, 0, 0], [10, 0, 0, 10], [10, 10, 0, 10], [10, 0, 10, 0]]
        inst_mod.save(
            inst_mod.make_instance("zero", travel, {2: 1, 3: 1}, source=1),
            tmp_path / "zero.json",
        )
        code, out, _ = run_cli(
            capsys,
            ["bench", "--dir", str(tmp_path), "--methods", "gid,gipd,bidp",
             "--no-timing"],
        )
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()[1:]]
        scored = {r[2]: (r[3], r[5]) for r in rows if r[0] == "zero"}
        assert scored == {"gid": ("40", ""), "gipd": ("40", ""), "bidp": ("0", "0.00")}
        deviations = [(r[0], r[2], r[5]) for r in rows if r[0] != "zero"]
        assert deviations == [
            (label, "bidp", "0.00")
            for label in ("Avg. Deviation", "Min. Deviation", "Max. Deviation")
        ]

    def test_generation_defaults(self, capsys):
        # The flags have no parser default; bench fills in the same values
        # when it generates.
        argv = ["bench", "--n", "5", "--methods", "gid", "--no-timing"]
        code, out, _ = run_cli(capsys, argv)
        _, spelled_out, _ = run_cli(capsys, argv + [
            "--count", "1", "--seed", "0", "--coord-range", "1000",
            "--family", "uniform",
        ])
        assert code == 0
        assert out == spelled_out
        assert [ln.split(",")[0] for ln in out.splitlines()[1:3]] == [
            "rand-n5-s0", "Avg. Deviation",
        ]

    def test_bad_limit_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["bench", "--n", "4", "--seed", "1", "--methods", "gid,bidp",
             "--labels-cap", "-3"],
        )
        assert code == 2
        assert out == ""
        assert "labels_cap must be" in err

    def test_unknown_method_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["bench", "--n", "4", "--seed", "1", "--methods", "nope"]
        )
        assert code == 2
        assert "unknown method" in err

    @pytest.mark.parametrize("methods", [",", "bidp,", "bidp,,gid"])
    def test_empty_method_token_exits_2(self, capsys, methods):
        code, out, err = run_cli(
            capsys, ["bench", "--n", "4", "--seed", "1", "--methods", methods]
        )
        assert code == 2
        assert out == ""
        assert f"empty method token '' in --methods {methods!r}" in err


class TestUnusableInput:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bench", "--dir", "{tmp}/missing", "--methods", "gid"],
             "instance directory not found"),
            (["bench", "--dir", "{tmp}/empty", "--methods", "gid"],
             "no *.json instance files"),
            (["bench", "--n", "5", "--count", "0"], "--count must be >= 1, got 0"),
            (["bench", "--n", "5", "--count", "-2"], "--count must be >= 1, got -2"),
            (["export-mip", "{star}", "--big-m", "-1"], "big_m must be >= 0, got -1"),
            (["bounds", "{star}", "--ub", "-5"], "upper bound must be >= 0, got -5"),
            (["solve", "{star}", "--heuristic-source-beta"],
             "unrecognized arguments: --heuristic-source-beta"),
            (["bench", "--n", "4", "--methods", "bidp:0.8:0.01:hsb"],
             "bad method token 'bidp:0.8:0.01:hsb'"),
            (["bench", "--n", "4", "--methods", "gid:0.5"],
             "method gid takes no theta or delta, got 'gid:0.5'"),
            (["solve", "{star}", "--ub-refresh", "8"],
             "unrecognized arguments: --ub-refresh 8"),
            (["solve", "{star}", "--method", "gid", "--theta", "0.5"],
             "method gid takes no theta or delta"),
            (["bench", "--n", "4", "--methods", "gid,bidp:1.5"],
             "theta must be a whole percent in (0, 1], got 'bidp:1.5'"),
            (["bench", "--n", "4", "--methods", "bidp:0.996"],
             "theta must be a whole percent in (0, 1], got 'bidp:0.996'"),
            (["solve", "{tmp}/wide-arc.json"],
             "travel[0][2] exceeds the 64-bit range"),
            (["solve", "{tmp}/wide-absorbed-arc.json"],
             "travel[0][2] + duration exceeds the 64-bit range"),
            (["solve", "{star}", "--method", "hk", "--time-limit", "0"],
             "only bidp takes --time-limit, not hk"),
            (["solve", "{star}", "--method", "brute", "--labels-cap", "1"],
             "only bidp takes --labels-cap, not brute"),
            (["solve", "{star}", "--method", "gid", "--labels-cap", "1",
              "--time-limit", "5"],
             "only bidp takes --labels-cap or --time-limit, not gid"),
            (["solve", "{star}", "--method", "gipd", "--time-limit", "5"],
             "only bidp takes --time-limit, not gipd"),
            (["bench", "--n", "4", "--methods", "gid,hk", "--time-limit", "5"],
             "only bidp takes --time-limit, not gid,hk"),
            (["bench", "--n", "4", "--methods", "brute,gipd", "--labels-cap", "9"],
             "only bidp takes --labels-cap, not brute,gipd"),
            (["generate", "--n", "4", "--seed", "1", "--root", "2", "-o", "{tmp}"],
             "generate --root needs --subtree"),
            (["generate", "--subtree", "{star}", "--root", "1", "--n", "4",
              "-o", "{tmp}"],
             "generate --subtree takes no --n or --seed"),
            (["generate", "--subtree", "{star}", "--root", "1", "--seed", "1",
              "-o", "{tmp}"],
             "generate --subtree takes no --n or --seed"),
            (["generate", "--n", "4", "--seed", "1", "--coord-range", "-2",
              "-o", "{tmp}"],
             "coord_range must be >= 0, got -2"),
            (["bench", "--n", "4", "--coord-range", "-2"],
             "coord_range must be >= 0, got -2"),
            # Past 2^62 a rounded distance can leave the 64-bit range.
            (["generate", "--n", "3", "--seed", "1", "--coord-range", str(10**20),
              "-o", "{tmp}"],
             f"coord_range must be <= 2**62, got {10**20}"),
            (["bench", "--n", "3", "--coord-range", str(10**20), "--methods", "gid",
              "--no-timing"],
             f"coord_range must be <= 2**62, got {10**20}"),
            (["generate", "--subtree", "{star}", "--root", "1", "--family", "star",
              "--coord-range", "5", "-o", "{tmp}"],
             "generate --subtree takes no --coord-range or --family"),
            (["generate", "--subtree", "{star}", "--root", "1", "--family", "uniform",
              "-o", "{tmp}"],
             "generate --subtree takes no --family"),
            (["bench", "--dir", "{tmp}/empty", "--n", "7", "--count", "3", "--family",
              "star", "--methods", "gid"],
             "bench --dir takes no --n or --count or --family"),
            (["bench", "--dir", "{tmp}/empty", "--seed", "0", "--coord-range", "1000",
              "--methods", "gid"],
             "bench --dir takes no --seed or --coord-range"),
            (["generate", "--n", "4", "--seed", "1", "-o", "{tmp}/missing/"],
             "output directory not found: {tmp}/missing/"),
            (["bench", "--n", "4", "--methods", "gid,bidp:0.8,gid"],
             "method token 'gid' given more than once"),
            (["export-mip", "{star}", "-o", "{tmp}/missing/"],
             "output directory not found: {tmp}/missing/"),
            (["export-mip", "{star}", "-o", "{tmp}/empty"],
             "export-mip -o names a directory, not a file: {tmp}/empty"),
            (["generate", "--n", "0", "--seed", "1", "-o", "{tmp}/g.json"],
             "n must be >= 1, got 0"),
            (["bench", "--methods", "gid"], "bench needs --dir or --n/--count/--seed"),
            (["generate", "--n", "4", "-o", "{tmp}/g.json"],
             "generate needs --n and --seed"),
            (["solve", "{tmp}/list.json"], "instance data must be a JSON object"),
            (["check-mip", "{tmp}/missing/sol.json"],
             "solution file not found: {tmp}/missing/sol.json"),
        ],
        ids=["bench-missing-dir", "bench-empty-dir", "bench-count-0",
             "bench-count-negative", "export-mip-negative-big-m",
             "bounds-negative-ub", "solve-source-cap-flag", "bench-source-cap-token",
             "bench-theta-on-greedy", "solve-ub-refresh-flag", "solve-theta-on-greedy",
             "bench-theta-above-one", "bench-theta-off-percent", "arc-past-64-bits",
             "absorbed-arc-past-64-bits", "solve-time-limit-on-hk",
             "solve-labels-cap-on-brute", "solve-both-limits-on-gid",
             "solve-time-limit-on-gipd", "bench-time-limit-without-bidp",
             "bench-labels-cap-without-bidp", "generate-root-without-subtree",
             "generate-subtree-with-n", "generate-subtree-with-seed",
             "generate-negative-coord-range", "bench-negative-coord-range",
             "generate-huge-coord-range", "bench-huge-coord-range",
             "generate-subtree-with-family-and-coord-range",
             "generate-subtree-with-default-family", "bench-dir-with-generation-flags",
             "bench-dir-with-default-seed-and-coord-range",
             "generate-into-missing-directory", "bench-repeated-method-token",
             "export-mip-into-missing-directory", "export-mip-onto-directory",
             "generate-no-fault-vertex", "bench-without-instances",
             "generate-without-seed", "instance-not-an-object",
             "check-mip-missing-solution"],
    )
    def test_exits_2_with_report(self, capsys, tmp_path, star, argv, message):
        (tmp_path / "empty").mkdir()
        (tmp_path / "list.json").write_text("[]")
        star_file = inst_mod.save(star, tmp_path / "star.json")
        # Every arc must fit a signed 64-bit word, before and after the
        # repair durations are folded into it.
        data = json.loads(inst_mod.dumps(star))
        data["travel"][0][2] = 2**63
        (tmp_path / "wide-arc.json").write_text(json.dumps(data))
        data["travel"][0][2] = 2**63 - 1
        data["repair_durations"] = [0, 1, 0]
        (tmp_path / "wide-absorbed-arc.json").write_text(json.dumps(data))
        argv = [a.format(tmp=tmp_path, star=star_file) for a in argv]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert message.format(tmp=tmp_path) in err
        assert not (tmp_path / "missing").exists()
        assert list((tmp_path / "empty").iterdir()) == []


class TestParserReuse:
    def test_repeated_main_calls_share_no_state(self, capsys, monkeypatch, tmp_path):
        # main() builds its parser once per process; no call may leave
        # anything behind that a later call reads.
        path = str(inst_mod.save(generate_random(6, seed=3), tmp_path / "n6.json"))
        calls = [
            ["solve", path, "--theta", "0.8", "--delta", "0.01", "--no-timing"],
            ["solve", path, "--no-timing"],
            ["solve", path, "--no-such-flag"],
            ["solve", path, "--no-timing"],
            ["bounds", path],
            ["evaluate", path, "--order", "1,2,3,4,5,6"],
        ]
        shared = [run_cli(capsys, argv) for argv in calls]
        assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0]
        for _, out, _ in (shared[1], shared[3]):
            result = json.loads(out)
            assert (result["config"]["theta"], result["config"]["delta"]) == (1.0, 0.0)
            assert result["stats"]["mode"] == "exact"
            assert result["proven_optimal"] is True
        assert "unrecognized arguments: --no-such-flag" in shared[2][2]
        # Each call again, each with a parser of its own.
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run_cli(capsys, argv) for argv in calls]
        assert shared == fresh


class TestGenerate:
    def test_uniform_family(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            ["generate", "--n", "9", "--seed", "7", "-o", str(tmp_path)],
        )
        assert code == 0
        path = tmp_path / "rand-n9-s7.json"
        assert path.exists()
        # --family and --coord-range default to uniform and 1000
        assert inst_mod.load(path) == generate_random(9, seed=7, coord_range=1000)

    def test_star_family(self, capsys, tmp_path):
        run_cli(capsys, ["generate", "--family", "star", "--n", "6", "--seed", "1",
                         "-o", str(tmp_path)])
        inst = inst_mod.load(tmp_path / "star-n6-s1.json")
        assert inst.power_parent == {v: 1 for v in range(2, 7)}

    def test_subtree(self, capsys, tmp_path):
        base = inst_mod.save(generate_random(9, seed=2), tmp_path / "base.json")
        code, out, _ = run_cli(
            capsys,
            ["generate", "--subtree", str(base), "--root", "4", "-o", str(tmp_path)],
        )
        assert code == 0
        made = inst_mod.load(out.strip())
        assert inst_mod.validate(made) == []
        assert made.name == "rand-n9-s2_sub4"

    def test_name_that_is_not_a_file_name_stays_in_the_output_directory(
        self, capsys, tmp_path
    ):
        data = json.loads(inst_mod.dumps(generate_random(6, seed=2)))
        data["name"] = "../escaped"
        (tmp_path / "esc.json").write_text(json.dumps(data))
        (tmp_path / "outdir").mkdir()
        base = str(tmp_path / "esc.json")
        code, out, err = run_cli(capsys, ["generate", "--subtree", base, "--root", "2",
                                          "-o", f"{tmp_path}/outdir/"])
        assert code == 2
        assert out == ""
        assert "'../escaped_sub2' is not a file name; give -o FILE" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["esc.json", "outdir"]
        assert list((tmp_path / "outdir").iterdir()) == []
        # -o FILE writes to the path given.
        target = tmp_path / "outdir" / "sub.json"
        code, out, _ = run_cli(capsys, ["generate", "--subtree", base, "--root", "2",
                                        "-o", str(target)])
        assert code == 0
        assert out.strip() == str(target)
        assert inst_mod.load(target).name == "../escaped_sub2"

    def test_subtree_without_root_exits_2(self, capsys, tmp_path):
        base = inst_mod.save(generate_random(5, seed=2), tmp_path / "base.json")
        code, _, err = run_cli(capsys, ["generate", "--subtree", str(base)])
        assert code == 2
        assert "--root" in err


class TestBounds:
    def test_star_csv(self, capsys, star_file):
        code, out, _ = run_cli(capsys, ["bounds", star_file])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "vertex,successor_count,beta,L_k1,L_k2,L_k3"
        assert lines[1] == "1,3,1,6,7,9"
        assert lines[2] == "2,1,3,,,6"

    def test_ub_override(self, capsys, star_file):
        code, out, _ = run_cli(capsys, ["bounds", star_file, "--ub", "100"])
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[2] == "3"


class TestMipCommands:
    def test_export_lints_clean(self, capsys, star_file, tmp_path):
        model_path = tmp_path / "star.lp"
        code, _, _ = run_cli(
            capsys, ["export-mip", star_file, "-o", str(model_path)]
        )
        assert code == 0
        assert lint_lp(model_path.read_text()) == []

    def test_export_to_stdout(self, capsys, star_file):
        code, out, _ = run_cli(capsys, ["export-mip", star_file])
        assert code == 0
        assert out.startswith("\\ model star")
        assert lint_lp(out) == []

    def test_check_mip_roundtrip(self, capsys, star_file, tmp_path, star):
        from prtrp import build_index, encode_route

        index = build_index(star)
        x, t, r = encode_route(star, index, (1, 2, 3))
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(
            {"instance": os.path.basename(star_file), "x": x, "t": t, "r": r}
        ))
        code, out, _ = run_cli(capsys, ["check-mip", str(sol)])
        assert code == 0
        verdict = json.loads(out)
        assert verdict["feasible"] is True
        assert verdict["order"] == [1, 2, 3]
        assert verdict["objective"] == 6

    def test_check_mip_arc_pairs_and_violation(self, capsys, star_file, tmp_path):
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({
            "instance": os.path.basename(star_file),
            "x": [[0, 1], [1, 2], [2, 3], [3, 0]],
            "t": [0, 1, 2, 3],
            "r": [1, 2, 0],
        }))
        code, out, _ = run_cli(capsys, ["check-mip", str(sol)])
        assert code == 1
        verdict = json.loads(out)
        assert verdict["feasible"] is False
        assert any("link_3" in v for v in verdict["violations"])

    @pytest.mark.parametrize(
        "change, violation",
        [
            (lambda sol: {**sol, "t": [3, *sol["t"][1:]]}, "t_0 = 3.0 must be 0"),
            (lambda sol: {**sol, "r": [sol["r"][0], -1, sol["r"][2]]},
             "r_2 = -1.0 below 0"),
        ],
        ids=["depot-time", "negative-disruption"],
    )
    def test_check_mip_bound_violation_exits_1(
        self, capsys, star_file, tmp_path, star, change, violation
    ):
        from prtrp import build_index, encode_route

        x, t, r = encode_route(star, build_index(star), (1, 2, 3))
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(change(
            {"instance": os.path.basename(star_file), "x": x, "t": t, "r": r}
        )))
        code, out, _ = run_cli(capsys, ["check-mip", str(sol)])
        assert code == 1
        assert violation in json.loads(out)["violations"]

    def test_check_mip_instance_flag_overrides_the_file(
        self, capsys, star_file, tmp_path, star
    ):
        from prtrp import build_index, encode_route

        x, t, r = encode_route(star, build_index(star), (1, 2, 3))
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"instance": "missing.json", "x": x, "t": t, "r": r}))
        code, out, _ = run_cli(capsys, ["check-mip", str(sol), "--instance", star_file])
        assert code == 0
        assert json.loads(out)["objective"] == 6

    def test_check_mip_inline_instance(self, capsys, tmp_path, star):
        from prtrp import build_index, encode_route

        index = build_index(star)
        x, t, r = encode_route(star, index, (2, 3, 1))
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(
            {"instance": json.loads(inst_mod.dumps(star)), "x": x, "t": t, "r": r}
        ))
        code, out, _ = run_cli(capsys, ["check-mip", str(sol)])
        assert code == 0
        assert json.loads(out)["objective"] == 15

    def test_check_mip_invalid_inline_instance_exits_2_with_report(
        self, capsys, tmp_path, star
    ):
        from prtrp import build_index, encode_route

        x, t, r = encode_route(star, build_index(star), (1, 2, 3))
        data = json.loads(inst_mod.dumps(star))
        data["travel"][0][1] = -1
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"instance": data, "x": x, "t": t, "r": r}))
        code, out, err = run_cli(capsys, ["check-mip", str(sol)])
        assert code == 2
        assert out == ""
        assert err == (
            "error: instance failed validation:\n"
            "- negative travel time: travel[0][1] = -1\n"
        )

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda sol: {k: v for k, v in sol.items() if k != "t"},
             "missing keys: t"),
            (lambda sol: {**sol, "x": sol["x"] + [[0, 9]]}, "got [0, 9]"),
            (lambda sol: {**sol, "x": sol["x"] + [5]}, "got 5"),
            (lambda sol: {**sol, "x": [[0.4, 4]] + sol["x"][1:]}, "got [0.4, 4]"),
            (lambda sol: [sol], "must hold a JSON object"),
            (lambda sol: {**sol, "t": [True, *sol["t"][1:]]},
             "t[0] must be a finite number, got True"),
            (lambda sol: {**sol, "r": [*sol["r"][:-1], "3"]},
             "r[3] must be a finite number, got '3'"),
            (lambda sol: {**sol, "t": [*sol["t"][:-1], float("inf")]},
             "t[4] must be a finite number, got inf"),
            # Past the float range, not only inf: isfinite cannot convert these.
            (lambda sol: {**sol, "t": [*sol["t"][:2], 10**400, *sol["t"][3:]]},
             f"t[2] must be a finite number, got {10**400}"),
            (lambda sol: {**sol, "x": _dense(sol["x"], 2, 10**400)},
             f"x[2][2] must be a finite number, got {10**400}"),
            # Past n = 1 a 5x5 x is a matrix whatever its diagonal holds.
            (lambda sol: {**sol, "x": _dense(sol["x"], 2, 1)},
             "x[2][2] must be 0, got 1: the model has no arc from a vertex to itself"),
            (lambda sol: {**sol, "x": _dense(sol["x"], 3, 0.25)},
             "x[3][3] must be 0, got 0.25"),
            (lambda sol: {k: v for k, v in sol.items() if k != "instance"},
             "solution file does not name its instance"),
            (lambda sol: {**sol, "t": 5}, "t must be a list of numbers, got 5"),
            (lambda sol: {**sol, "x": 7},
             "x must be a matrix or a list of [i, j] arcs, got 7"),
        ],
        ids=["missing-t", "arc-out-of-range", "arc-not-a-pair", "float-arc",
             "top-level-list", "bool-time", "string-disruption", "infinite-time",
             "time-past-float-range", "dense-x-past-float-range",
             "dense-x-loop", "dense-x-small-loop", "no-instance", "scalar-t",
             "scalar-x"],
    )
    def test_check_mip_malformed_solution_exits_2(
        self, capsys, tmp_path, change, message
    ):
        from prtrp import build_index, encode_route

        # a feasible solution for the tour 4, 3, 2, 1, which each case spoils
        inst = generate_random(4, seed=1)
        inst_mod.save(inst, tmp_path / "i.json")
        _, t, r = encode_route(inst, build_index(inst), (4, 3, 2, 1))
        sol = {
            "instance": "i.json",
            "x": [[0, 4], [4, 3], [3, 2], [2, 1], [1, 0]],
            "t": t,
            "r": r,
        }
        path = tmp_path / "sol.json"
        path.write_text(json.dumps(change(sol)))
        code, out, err = run_cli(capsys, ["check-mip", str(path)])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and message in err

    def test_check_mip_reads_both_shapes_at_n_1(self, capsys, tmp_path):
        # At n = 1 a list of the two arcs is also 2x2; a diagonal entry of
        # 0.5 or more marks it as the list.
        inst = generate_random(1, seed=1)
        inst_mod.save(inst, tmp_path / "i.json")
        verdicts = []
        for x in ([[0, 1], [1, 0]], [[1, 0], [0, 1]]):
            path = tmp_path / "sol.json"
            path.write_text(json.dumps(
                {"instance": "i.json", "x": x, "t": [0, inst.travel[0][1]],
                 "r": [inst.travel[0][1]]}
            ))
            code, out, _ = run_cli(capsys, ["check-mip", str(path)])
            assert code == 0
            verdicts.append(json.loads(out))
        assert verdicts[0] == verdicts[1]
        assert verdicts[0]["order"] == [1]


class TestEvaluate:
    def test_order_evaluation(self, capsys, star_file):
        code, out, _ = run_cli(
            capsys, ["evaluate", star_file, "--order", "2,3,1"]
        )
        assert code == 0
        record = json.loads(out)
        assert record["objective"] == 15
        assert record["r"] == [5, 5, 5]

    def test_bad_order_exits_2(self, capsys, star_file):
        code, _, err = run_cli(capsys, ["evaluate", star_file, "--order", "1,2"])
        assert code == 2
        assert "permutation" in err

    @pytest.mark.parametrize(
        "order, entry",
        [("1,+2,3", "+2"), ("1, 2,3", " 2"), ("1,\u0662,3", "\u0662"),
         ("1,2_0,3", "2_0"), ("1,x", "x"), ("1,2,3,", ""), ("-1,2,3", "-1")],
        ids=["sign", "space", "arabic-indic-digit", "underscore", "letter",
             "empty", "negative"],
    )
    def test_entry_not_in_ascii_digits_exits_2(self, capsys, star_file, order,
                                               entry):
        # int() would read the first four as 2, 2, 2 and 20.
        code, out, err = run_cli(
            capsys, ["evaluate", star_file, f"--order={order}"]
        )
        assert code == 2
        assert out == ""
        assert f"--order entry {entry!r} is not a vertex number" in err


def _indent_2(text):
    """text as json.dumps(..., indent=2) writes what it holds, newline-ended."""
    return json.dumps(json.loads(text), indent=2) + "\n"


class TestJsonOutput:
    """Every JSON stdout and instance file is what json.dumps(..., indent=2)
    writes, byte for byte, non-ASCII names included."""

    @pytest.fixture
    def named_file(self, tmp_path):
        inst = dataclasses.replace(generate_random(9, seed=4), name="Strömnetz-ü € \"7\"")
        return str(inst_mod.save(inst, tmp_path / "named.json"))

    @pytest.mark.parametrize(
        "flags",
        [
            ["--no-timing"],
            [],
            ["--theta", "0.8", "--delta", "0.01", "--no-timing"],
            ["--theta", "0.9", "--labels-cap", "20", "--time-limit", "30", "--no-timing"],
            ["--method", "gid", "--no-timing"],
            ["--method", "gipd", "--no-timing"],
            ["--method", "hk", "--no-timing"],
        ],
        ids=["exact", "exact-timed", "theta-delta", "capped", "gid", "gipd", "hk"],
    )
    def test_solve(self, capsys, named_file, flags):
        code, out, _ = run_cli(capsys, ["solve", named_file, *flags])
        assert code == 0
        assert json.loads(out)["instance"] == "Strömnetz-ü € \"7\""
        assert out == _indent_2(out)

    def test_evaluate(self, capsys, named_file):
        code, out, _ = run_cli(
            capsys, ["evaluate", named_file, "--order", "1,2,3,4,5,6,7,8,9"]
        )
        assert code == 0
        assert out == _indent_2(out)

    def test_check_mip_feasible_and_infeasible(self, capsys, named_file, tmp_path):
        from prtrp import build_index, encode_route

        inst = inst_mod.load(named_file)
        x, t, r = encode_route(inst, build_index(inst), range(1, 10))
        sol = {"instance": os.path.basename(named_file), "x": x, "t": t, "r": r}
        (tmp_path / "ok.json").write_text(json.dumps(sol))
        (tmp_path / "bad.json").write_text(json.dumps({**sol, "t": [t[0], t[1] - 1.5, *t[2:]]}))
        for name, want in (("ok.json", 0), ("bad.json", 1)):
            code, out, _ = run_cli(capsys, ["check-mip", str(tmp_path / name)])
            assert code == want
            assert out == _indent_2(out)
        assert json.loads(out)["violations"]

    def test_instance_files(self, capsys, named_file, tmp_path):
        code, out, _ = run_cli(
            capsys, ["generate", "--n", "9", "--seed", "4", "-o", str(tmp_path)]
        )
        assert code == 0
        target = tmp_path / "sub.json"
        code, _, _ = run_cli(
            capsys, ["generate", "--subtree", named_file, "--root", "1", "-o", str(target)]
        )
        assert code == 0
        for path in (out.strip(), named_file, target):
            text = open(path, encoding="utf-8").read()
            assert text == _indent_2(text)
