import argparse
import dataclasses
import json
import math

import pytest

from pccplace.bench import ALGORITHMS, SOLVERS, SweepSpec, run_sweep, trial_seed
from pccplace.cli import build_parser, main
from pccplace.model import instance_to_json
from pccplace.scenario import ScenarioParams, generate_instance

from conftest import make_instance


@pytest.fixture
def tiny1_file(tmp_path, tiny1):
    path = tmp_path / "tiny1.json"
    path.write_text(instance_to_json(tiny1))
    return str(path)


@pytest.fixture
def infeasible_file(tmp_path, tiny1_infeasible):
    path = tmp_path / "infeasible.json"
    path.write_text(instance_to_json(tiny1_infeasible))
    return str(path)


@pytest.fixture
def no_candidate_file(tmp_path):
    """A valid instance whose network has no candidate node."""
    inst = make_instance(links=[("a", "b", 1.0)], candidates=[], gateway="a",
                         attachment="a", requests=[("r1", ["f1"], 1.0, ["a"])],
                         destinations={"b": 1.0})
    path = tmp_path / "no_candidate.json"
    path.write_text(instance_to_json(inst))
    return str(path)


def assert_write_error(capsys):
    """The command printed one JSON line naming the failed write."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith("cannot write output")


class TestGenerate:
    def test_generate_then_validate(self, tmp_path, capsys):
        out = tmp_path / "i.json"
        assert main(["generate", "--seed", "42", "--out", str(out)]) == 0
        assert main(["validate", "--instance", str(out)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed[-1] == "[]"

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["generate", "--seed", "7", "--set", "num_candidates=8",
                "--set", "batch_size=5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range_exits_2_naming_field(self, tmp_path, capsys):
        code = main(["generate", "--seed", "1", "--out", str(tmp_path / "x.json"),
                     "--set", "chain_length=9,3"])
        assert code == 2
        assert "chain_length" in capsys.readouterr().err

    def test_params_file_with_override(self, tmp_path):
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps({"num_candidates": 6, "batch_size": 9}))
        out = tmp_path / "i.json"
        assert main(["generate", "--seed", "1", "--params", str(cfg),
                     "--set", "batch_size=3", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["requests"]) == 3  # CLI flag beats config file
        assert len(data["network"]["candidates"]) == 6

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--seed", "1", "--set", "num_candidates=4",
                     "--set", "batch_size=2",
                     "--out", str(tmp_path / "nodir" / "x.json")])
        assert code == 2
        assert_write_error(capsys)


class TestValidate:
    def test_corrupted_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["validate", "--instance", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_semantic_violations_exit_2(self, tmp_path, tiny1, capsys):
        import dataclasses

        from pccplace.model import MobilityProfile, instance_to_json as to_json

        bad = dataclasses.replace(
            tiny1, mobility=MobilityProfile({"d": 1.0}, 0.2))
        path = tmp_path / "bad.json"
        path.write_text(to_json(bad))
        assert main(["validate", "--instance", str(path)]) == 2
        out = capsys.readouterr().out
        assert "MobilityMassExceeded" in out


class TestSolve:
    def test_exact_prints_total(self, tiny1_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = main(["solve", "--instance", tiny1_file, "--algo", "exact",
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "6"
        payload = json.loads(out.read_text())
        assert payload["status"] == "optimal"
        assert payload["total"] == 6.0
        assert payload["placement"]["x"] == [["r1", "f1", "b"]]

    def test_each_heuristic_runs(self, tiny1_file, tmp_path, capsys):
        for algo in ("ppcc", "spba", "agw"):
            code = main(["solve", "--instance", tiny1_file, "--algo", algo,
                         "--out", str(tmp_path / f"{algo}.json")])
            assert code == 0
            assert capsys.readouterr().out.strip() == "6"

    def test_exact_infeasible_exits_3(self, infeasible_file, capsys):
        code = main(["solve", "--instance", infeasible_file, "--algo", "exact"])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_exact_without_candidates_exits_3(self, no_candidate_file, capsys):
        assert main(["validate", "--instance", no_candidate_file]) == 0
        code = main(["solve", "--instance", no_candidate_file, "--algo", "exact"])
        assert code == 3
        assert "error" in json.loads(capsys.readouterr().err)

    def test_agw_never_infeasible(self, infeasible_file):
        assert main(["solve", "--instance", infeasible_file,
                     "--algo", "agw"]) == 0

    def test_ppcc_reports_unplaced_with_exit_0(self, infeasible_file,
                                               tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = main(["solve", "--instance", infeasible_file, "--algo", "ppcc",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["unplaced"] == [
            {"request": "r1", "position": 1, "nf": "f1"}]

    def test_unknown_algo_exits_2(self, tiny1_file):
        assert main(["solve", "--instance", tiny1_file,
                     "--algo", "magic"]) == 2

    def test_invalid_instance_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["solve", "--instance", str(bad), "--algo", "ppcc"]) == 2

    @pytest.mark.parametrize("algo", ["exact", "ppcc", "spba", "agw"])
    def test_infinite_link_costs_exit_2(self, tmp_path, tiny1, algo, capsys):
        net = dataclasses.replace(tiny1.network, links=tuple(
            dataclasses.replace(ln, cost=math.inf) for ln in tiny1.network.links))
        path = tmp_path / "inf.json"
        path.write_text(instance_to_json(dataclasses.replace(tiny1, network=net)))
        assert main(["solve", "--instance", str(path), "--algo", algo]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "InfiniteLinkCost" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("flag,value", [
        ("--budget-nodes", "-5"), ("--budget-seconds", "-1"),
        ("--budget-seconds", "nan")])
    def test_negative_budget_exits_2(self, tiny1_file, flag, value, capsys):
        assert main(["solve", "--instance", tiny1_file, "--algo", "exact",
                     flag, value]) == 2
        assert flag in capsys.readouterr().err

    def test_zero_budget_returns_dive_incumbent(self, tiny1_file, capsys):
        code = main(["solve", "--instance", tiny1_file, "--algo", "exact",
                     "--budget-nodes", "0", "--budget-seconds", "0"])
        assert code == 4
        assert capsys.readouterr().out.strip() == "6"

    def test_budget_stop_without_incumbent_exits_4(self, infeasible_file,
                                                   tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = main(["solve", "--instance", infeasible_file, "--algo", "exact",
                     "--budget-nodes", "0", "--out", str(out)])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "budget" in json.loads(captured.err)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["ppcc", "spba", "agw"])
    def test_placement_built_only_for_out(self, tiny1_file, tmp_path, algo,
                                          monkeypatch, capsys):
        import pccplace.heuristics as heuristics

        calls = []
        build = heuristics.build_placement

        def spy(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(heuristics, "build_placement", spy)
        assert main(["solve", "--instance", tiny1_file, "--algo", algo]) == 0
        assert calls == []
        out = tmp_path / "sol.json"
        assert main(["solve", "--instance", tiny1_file, "--algo", algo,
                     "--out", str(out)]) == 0
        assert len(calls) == 1
        assert json.loads(out.read_text())["placement"]["x"]
        assert capsys.readouterr().out.split() == ["6", "6"]

    def test_unwritable_out_exits_2(self, tiny1_file, tmp_path, capsys):
        code = main(["solve", "--instance", tiny1_file, "--algo", "ppcc",
                     "--out", str(tmp_path / "nodir" / "x.json")])
        assert code == 2
        assert_write_error(capsys)


class TestExportLp:
    def test_output_begins_with_minimize(self, tiny1_file, tmp_path):
        out = tmp_path / "model.lp"
        assert main(["export-lp", "--instance", tiny1_file,
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("Minimize")

    def test_unsafe_id_exits_2(self, tmp_path, capsys):
        inst = make_instance(links=[("a", "b", 1.0)], candidates=["b"],
                             gateway="a", attachment="a",
                             requests=[("r 1", ["f1"], 1.0, ["a"])],
                             destinations={"b": 1.0})
        path = tmp_path / "unsafe.json"
        path.write_text(instance_to_json(inst))
        code = main(["export-lp", "--instance", str(path),
                     "--out", str(tmp_path / "model.lp")])
        assert code == 2
        assert "'r 1'" in json.loads(capsys.readouterr().err)["error"]

    def test_no_candidate_exits_2(self, no_candidate_file, tmp_path, capsys):
        code = main(["export-lp", "--instance", no_candidate_file,
                     "--out", str(tmp_path / "model.lp")])
        assert code == 2
        assert "no candidate" in json.loads(capsys.readouterr().err)["error"]

    def test_unwritable_out_exits_2(self, tiny1_file, tmp_path, capsys):
        code = main(["export-lp", "--instance", tiny1_file,
                     "--out", str(tmp_path / "nodir" / "a.lp")])
        assert code == 2
        assert_write_error(capsys)


class TestBench:
    def test_rho_sweep_shape(self, tmp_path):
        outdir = tmp_path / "results"
        code = main([
            "bench", "--sweep", "rho_o=0:0.5:1", "--trials", "2",
            "--seed", "1", "--set", "num_candidates=6", "--set", "batch_size=3",
            "--format", "both", "--out", str(outdir)])
        assert code == 0
        csv_text = (outdir / "results.csv").read_text()
        rows = csv_text.strip().splitlines()
        # header + 3 rho values x 3 algorithms
        assert len(rows) == 1 + 9
        assert json.loads((outdir / "results.json").read_text())["axis"] == \
            "stay_probability"

    def test_value_list_sweep(self, tmp_path):
        outdir = tmp_path / "results"
        code = main([
            "bench", "--sweep", "batch_size=2,4", "--trials", "1",
            "--set", "num_candidates=6", "--algos", "ppcc,spba",
            "--out", str(outdir)])
        assert code == 0
        rows = (outdir / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4

    def test_determinism_across_runs_and_jobs(self, tmp_path):
        args = ["bench", "--sweep", "batch_size=2,3", "--trials", "2",
                "--seed", "5", "--set", "num_candidates=6",
                "--algos", "ppcc,spba,agw"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == \
            (out2 / "results.csv").read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_exit_2(self, tmp_path, jobs, capsys):
        assert main(["bench", "--sweep", "batch_size=2", "--trials", "1",
                     "--set", "num_candidates=6", "--jobs", jobs,
                     "--out", str(tmp_path / "r")]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_bad_sweep_exits_2(self, tmp_path, capsys):
        assert main(["bench", "--sweep", "nonsense", "--trials", "1",
                     "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("sweep, message", [
        ("batch_size=1.5,2.7", "not an integer"),
        ("batch_size=1:0.5:3", "not an integer"),
        ("num_candidates=inf", "not an integer"),
        ("batch_size=2,2", "repeat"),
        ("rho_o=0.5,0.25,0.5", "repeat"),
    ])
    def test_bad_sweep_values_exit_2(self, tmp_path, capsys, sweep, message):
        assert main(["bench", "--sweep", sweep, "--trials", "1",
                     "--set", "num_candidates=6", "--out", str(tmp_path / "r")]) == 2
        assert message in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "r").exists()

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "r"
        taken.write_text("keep")
        code = main(["bench", "--sweep", "batch_size=2", "--trials", "1",
                     "--set", "num_candidates=6", "--out", str(taken)])
        assert code == 2
        assert_write_error(capsys)
        assert taken.read_text() == "keep"


class TestSolverRegistry:
    def test_one_algorithm_list(self):
        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction))
        algo = next(a for a in commands.choices["solve"]._actions
                    if a.dest == "algo")
        expected = ("exact", "ppcc", "spba", "agw")
        assert tuple(algo.choices) == ALGORITHMS == tuple(SOLVERS) == expected

    def test_solve_matches_sweep_record(self, tmp_path):
        # Node CPU for one function each: trial 0 places everything, in
        # trial 1 the exact program is infeasible and PPCC/SPBA leave
        # positions unplaced.
        params = ScenarioParams(
            num_candidates=4, batch_size=2, chain_length=(2, 3),
            heads_per_request=(1, 2), num_destinations=(1, 1),
            node_cpu_cores=0.3, nf_cpu_cores=(0.25, 0.25))
        table = run_sweep(SweepSpec("batch_size", (2,)), params, trials=2,
                          algorithms=ALGORITHMS, base_seed=1)
        assert {r.status for r in table.records} >= {"optimal", "infeasible"}
        assert any(r.unplaced for r in table.records)
        for rec in table.records:
            assert rec.seed == trial_seed(1, "batch_size", 2, rec.trial)
            instance = tmp_path / f"{rec.trial}.json"
            instance.write_text(instance_to_json(generate_instance(params, rec.seed)))
            out = tmp_path / f"{rec.trial}-{rec.algorithm}.json"
            code = main(["solve", "--instance", str(instance),
                         "--algo", rec.algorithm, "--out", str(out)])
            if rec.status == "infeasible":
                assert code == 3 and not out.exists()
                continue
            assert code == 0
            payload = json.loads(out.read_text())
            assert (payload["status"], payload["total"],
                    len(payload["unplaced"])) == (rec.status, rec.cost,
                                                  rec.unplaced)
