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
        assert record["config"]["theta"] == 0.8
        assert record["config"]["delta"] == 0.01

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
        ],
        ids=["bench-missing-dir", "bench-empty-dir", "bench-count-0",
             "bench-count-negative", "export-mip-negative-big-m",
             "bounds-negative-ub", "solve-source-cap-flag", "bench-source-cap-token"],
    )
    def test_exits_2_with_report(self, capsys, tmp_path, star, argv, message):
        (tmp_path / "empty").mkdir()
        star_file = inst_mod.save(star, tmp_path / "star.json")
        argv = [a.format(tmp=tmp_path, star=star_file) for a in argv]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert message in err


class TestGenerate:
    def test_uniform_family(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            ["generate", "--n", "9", "--seed", "7", "-o", str(tmp_path)],
        )
        assert code == 0
        path = tmp_path / "rand-n9-s7.json"
        assert path.exists()
        assert inst_mod.validate(inst_mod.load(path)) == []

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

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda sol: {k: v for k, v in sol.items() if k != "t"},
             "missing keys: t"),
            (lambda sol: {**sol, "x": sol["x"] + [[0, 9]]}, "got [0, 9]"),
            (lambda sol: {**sol, "x": sol["x"] + [5]}, "got 5"),
            (lambda sol: {**sol, "x": [[0.4, 4]] + sol["x"][1:]}, "got [0.4, 4]"),
            (lambda sol: [sol], "must hold a JSON object"),
        ],
        ids=["missing-t", "arc-out-of-range", "arc-not-a-pair", "float-arc",
             "top-level-list"],
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
