import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

from pccplace.bench import ALGORITHMS, SOLVERS, SweepSpec, run_sweep, trial_seed
from pccplace.cli import MAX_SWEEP_VALUES, _parse_sweep, build_parser, main
from pccplace.exact import solve_exact
from pccplace.graph import shortest_paths
from pccplace.model import instance_to_dict, instance_to_json
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


# (params file content or None, --set items, what the error must name)
BAD_PARAMS = [
    ("null", [], "parameters"),
    ("5", [], "parameters"),
    ("[{}]", ["batch_size=3"], "parameters"),
    ('{"stay_probability": [0.1, 0.2]}', [], "stay_probability"),
    ('{"degree": [1.5, 3]}', [], "degree"),
    ('{"num_candidates": true}', [], "num_candidates"),
    ('{"link_cost": ["1", 5]}', [], "link_cost"),
    (None, ["batch_size=2.5"], "batch_size"),
    (None, ["chain_length=1,2.5"], "chain_length"),
    (None, ["placement_cost=free"], "placement_cost"),
    (None, ["link_capacity_mbps=" + "9" * 400], "link_capacity_mbps"),
]
BAD_PARAMS_IDS = ["null", "number", "list", "range_on_scalar", "fractional_degree",
                  "bool", "string_bound", "fractional_batch", "fractional_chain",
                  "string_scalar", "float_overflow"]


def params_args(tmp_path, content, sets):
    args = []
    if content is not None:
        path = tmp_path / "params.json"
        path.write_text(content)
        args += ["--params", str(path)]
    for item in sets:
        args += ["--set", item]
    return args


class TestGenerate:
    @pytest.mark.parametrize("content, sets, field", BAD_PARAMS, ids=BAD_PARAMS_IDS)
    def test_bad_params_exit_2_naming_field(self, tmp_path, capsys, content,
                                            sets, field):
        out = tmp_path / "x.json"
        code = main(["generate", "--seed", "1", "--out", str(out)]
                    + params_args(tmp_path, content, sets))
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"].startswith(
            f"invalid params: {field}: ")
        assert not out.exists()

    def test_integral_float_params_accepted(self, tmp_path):
        out = tmp_path / "x.json"
        args = params_args(tmp_path, '{"num_candidates": 6.0, "degree": [2.0, 3]}',
                           ["batch_size=3.0"])
        assert main(["generate", "--seed", "1", "--out", str(out)] + args) == 0
        data = json.loads(out.read_text())
        assert len(data["network"]["candidates"]) == 6
        assert len(data["requests"]) == 3

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

    def test_negative_seed_exits_2_naming_seed(self, tmp_path, capsys):
        code = main(["generate", "--seed", "-1", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"].startswith("seed: ")
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("command", [
        ["generate", "--seed", "1"],
        ["bench", "--sweep", "batch_size=2", "--trials", "1"],
    ], ids=["generate", "bench"])
    def test_nan_range_exits_2_naming_field(self, tmp_path, capsys, command):
        code = main(command + ["--set", "num_candidates=6", "--set", "link_cost=nan,5",
                               "--out", str(tmp_path / "x")])
        assert code == 2
        assert "link_cost" in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "x").exists()

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

    @pytest.mark.parametrize("field, code", [
        (("catalog", "f1", "cpu_cores"), "InfiniteNFDemand"),
        (("requests", 0, "flow_rate_mbps"), "InfiniteFlowRate"),
        (("placement_cost", "f1", "b"), "InfinitePlacementCost"),
    ], ids=["nf_demand", "flow_rate", "placement_cost"])
    def test_infinite_value_exits_2(self, tmp_path, tiny1, capsys, field, code):
        data = instance_to_dict(tiny1)
        data["placement_cost"] = {"f1": {"b": 1.0}}
        *parents, last = field
        target = data
        for key in parents:
            target = target[key]
        target[last] = math.inf
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--instance", str(path)]) == 2
        assert [v["code"] for v in json.loads(capsys.readouterr().out)] == [code]


    def test_unknown_link_endpoint_exits_2(self, tmp_path, capsys):
        path = unknown_endpoint_file(tmp_path)
        assert main(["validate", "--instance", path]) == 2
        assert json.loads(capsys.readouterr().out) == [
            {"code": "UnknownLinkEndpoint", "detail": "link n0-zz"}]

    def test_integer_beyond_float_range_exits_2(self, tmp_path, tiny1, capsys):
        path = huge_stay_file(tmp_path, tiny1)
        assert main(["validate", "--instance", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "$.mobility.stay_probability: number is out of float range"}


def huge_stay_file(tmp_path, tiny1):
    """tiny1 with a 401-digit integer stay probability, beyond float range."""
    text = instance_to_json(tiny1).replace('"stay_probability": 0.0',
                                           '"stay_probability": 1' + "0" * 400)
    path = tmp_path / "huge-stay.json"
    path.write_text(text)
    return str(path)


def unknown_endpoint_file(tmp_path):
    """A generated instance with a link from n0 to zz, which is no node."""
    data = instance_to_dict(generate_instance(ScenarioParams(), 0))
    data["network"]["links"].append({"u": "n0", "v": "zz", "cost": 1.0,
                                     "capacity_mbps": 1.0})
    path = tmp_path / "unknown-endpoint.json"
    path.write_text(json.dumps(data))
    return str(path)


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

    @pytest.mark.parametrize("algo", ["exact", "ppcc"])
    def test_unknown_link_endpoint_exits_2(self, tmp_path, algo, capsys):
        path = unknown_endpoint_file(tmp_path)
        assert main(["solve", "--instance", path, "--algo", algo]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "invalid instance: UnknownLinkEndpoint: link n0-zz"}

    @pytest.mark.parametrize("algo", ["exact", "ppcc"])
    def test_integer_beyond_float_range_exits_2(self, tmp_path, tiny1, algo, capsys):
        path = huge_stay_file(tmp_path, tiny1)
        assert main(["solve", "--instance", path, "--algo", algo]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "$.mobility.stay_probability: number is out of float range"}

    @pytest.mark.parametrize("flag,value", [
        ("--budget-nodes", "-5"), ("--budget-seconds", "-1"),
        ("--budget-seconds", "nan")])
    def test_negative_budget_exits_2(self, tiny1_file, flag, value, capsys):
        assert main(["solve", "--instance", tiny1_file, "--algo", "exact",
                     flag, value]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "NaN"])
    def test_nan_budget_is_reported_as_not_a_number(self, tiny1_file, value, capsys):
        assert main(["solve", "--instance", tiny1_file, "--algo", "exact",
                     "--budget-seconds", value]) == 2
        err = capsys.readouterr().err
        assert f"{value!r} is not a number" in err
        assert "is below" not in err

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

    def test_invalid_instance_exits_2_naming_violation(self, tmp_path, tiny1,
                                                       capsys):
        data = instance_to_dict(tiny1)
        data["network"]["candidates"].append("q")
        data["node_resources"]["q"] = {"memory_mb": 1000.0, "cpu_cores": 8.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "model.lp"
        code = main(["export-lp", "--instance", str(path), "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == \
            "invalid instance: CandidateNotANode: q"
        assert not out.exists()

    def test_infinite_node_capacity_exports_without_its_row(self, tmp_path):
        pytest.importorskip("scipy.optimize", reason="needs scipy MILP")
        from lp_check import solve_lp_with_milp

        inst = make_instance(
            links=[("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0)],
            candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1", "f2"], 1.0, ["a"]),
                      ("r2", ["f1"], 1.0, ["a"])],
            destinations={"d": 1.0},
            catalog={"f1": (10.0, 1.0), "f2": (10.0, 1.0)},
            node_resources={"b": (math.inf, 1.0), "c": (1000.0, math.inf)})
        path = tmp_path / "inf.json"
        path.write_text(instance_to_json(inst))
        out = tmp_path / "model.lp"
        assert main(["validate", "--instance", str(path)]) == 0
        assert main(["export-lp", "--instance", str(path), "--out", str(out)]) == 0
        text = out.read_text()
        rows = {line.split(":")[0].strip() for line in text.splitlines()
                if line.startswith(" cap_")}
        assert rows == {"cap_cpu_b", "cap_mem_c"}
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        optimum, _ = solve_lp_with_milp(text)
        assert optimum == pytest.approx(solve_exact(inst, paths).total, abs=1e-9)

    def test_unwritable_out_exits_2(self, tiny1_file, tmp_path, capsys):
        code = main(["export-lp", "--instance", tiny1_file,
                     "--out", str(tmp_path / "nodir" / "a.lp")])
        assert code == 2
        assert_write_error(capsys)


class TestBench:
    @pytest.mark.parametrize("content, sets, field", BAD_PARAMS, ids=BAD_PARAMS_IDS)
    def test_bad_params_exit_2_naming_field(self, tmp_path, capsys, content,
                                            sets, field):
        code = main(["bench", "--sweep", "num_candidates=6", "--trials", "1",
                     "--out", str(tmp_path / "r")]
                    + params_args(tmp_path, content, sets))
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"].startswith(f"{field}: ")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_generation_error_exits_2(self, tmp_path, capsys, jobs):
        # valid parameters that no graph can satisfy fail in the trials
        code = main(["bench", "--sweep", "num_candidates=1,2", "--trials", "1",
                     "--set", "degree=2,2", "--jobs", jobs, "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err) == {"error": "cannot satisfy degree >= 2 with 2 nodes"}
        assert not (tmp_path / "r").exists()

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

    @pytest.mark.parametrize("sweep", [
        "stay_probability=0:0.5:inf",
        "stay_probability=0:0.5:nan",
        "stay_probability=nan:0.5:1",
        "stay_probability=0:nan:1",
    ])
    def test_non_finite_range_sweep_exits_2(self, tmp_path, sweep):
        # In a child process with a timeout: a range that never ends fails
        # this test instead of hanging the suite.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-m", "pccplace.cli", "bench", "--sweep", sweep,
             "--trials", "1", "--set", "num_candidates=6", "--out", str(tmp_path / "r")],
            env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 2
        assert "finite" in json.loads(out.stderr)["error"]
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("sweep", [
        "stay_probability=0:1e-12:1",
        "batch_size=0:1e-12:1",
        "stay_probability=0.5:3e-11:0.6",
    ])
    def test_step_lost_to_rounding_exits_2(self, tmp_path, sweep):
        # Every value rounds to the one before it, so the range would never
        # reach its stop. The child caps its own address space and runs
        # under a timeout: a range that keeps growing fails this test with a
        # MemoryError instead of filling the machine's memory.
        cap = 512 << 20
        code = ("import resource, sys\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
                "from pccplace.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OPENBLAS_NUM_THREADS="1")
        out = subprocess.run(
            [sys.executable, "-c", code, "bench", "--sweep", sweep, "--trials", "1",
             "--set", "num_candidates=6", "--out", str(tmp_path / "r")],
            env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 2, out.stderr
        error = json.loads(out.stderr)["error"]
        assert "repeat" in error and "step" in error
        assert not (tmp_path / "r").exists()

    def test_range_with_too_many_values_exits_2(self, tmp_path):
        # 10**10 distinct values: refused at MAX_SWEEP_VALUES + 1, in a child
        # that caps its own address space, as above
        cap = 512 << 20
        code = ("import resource, sys\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
                "from pccplace.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OPENBLAS_NUM_THREADS="1")
        out = subprocess.run(
            [sys.executable, "-c", code, "bench", "--sweep", "stay_probability=0:1e-10:1",
             "--trials", "1", "--set", "num_candidates=6", "--out", str(tmp_path / "r")],
            env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 2, out.stderr
        error = json.loads(out.stderr)["error"]
        assert f"more than {MAX_SWEEP_VALUES} values" in error
        assert not (tmp_path / "r").exists()

    def test_range_size_limit_is_inclusive(self):
        spec = _parse_sweep(f"batch_size=1:1:{MAX_SWEEP_VALUES}")
        assert spec.values == tuple(float(v) for v in range(1, MAX_SWEEP_VALUES + 1))
        with pytest.raises(ValueError, match=f"more than {MAX_SWEEP_VALUES} values"):
            _parse_sweep(f"batch_size=1:1:{MAX_SWEEP_VALUES + 1}")

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
