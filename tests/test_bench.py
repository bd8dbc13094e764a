import importlib
from collections import Counter

import pytest

from pccplace.bench import (
    ALGORITHMS,
    EmptyTableError,
    ResultTable,
    SweepSpec,
    run_sweep,
    table_to_csv,
    table_to_json,
    trial_seed,
)
from pccplace.exact import solve_exact
from pccplace.graph import shortest_paths
from pccplace.heuristics import ppcc
from pccplace.scenario import ScenarioParams, generate_instance


def small_params(**overrides):
    base = dict(num_candidates=6, batch_size=4, chain_length=(2, 3))
    base.update(overrides)
    return ScenarioParams(**base)


class TestTrialSeed:
    def test_stable(self):
        assert trial_seed(0, "stay_probability", 0.5, 3) == trial_seed(
            0, "stay_probability", 0.5, 3)

    def test_varies_with_every_component(self):
        base = trial_seed(0, "stay_probability", 0.5, 3)
        assert base != trial_seed(1, "stay_probability", 0.5, 3)
        assert base != trial_seed(0, "batch_size", 0.5, 3)
        assert base != trial_seed(0, "stay_probability", 0.25, 3)
        assert base != trial_seed(0, "stay_probability", 0.5, 4)

    def test_adding_values_never_changes_existing_rows(self):
        # seeds depend on the value, not its index in the sweep
        short = [trial_seed(0, "batch_size", v, 0) for v in (50, 100)]
        long = [trial_seed(0, "batch_size", v, 0) for v in (50, 100, 150)]
        assert long[:2] == short


class TestRunSweep:
    def test_row_per_value_and_algorithm(self):
        spec = SweepSpec(axis="stay_probability", values=(0.0, 0.5, 1.0))
        table = run_sweep(spec, small_params(), trials=2,
                          algorithms=("ppcc", "spba", "agw"))
        assert len(table.rows) == 9
        assert [r.algorithm for r in table.rows[:3]] == ["ppcc", "spba", "agw"]

    def test_gains_paired_against_baselines(self):
        spec = SweepSpec(axis="stay_probability", values=(1.0,))
        table = run_sweep(spec, small_params(), trials=3)
        by_algo = {r.algorithm: r for r in table.rows}
        assert by_algo["spba"].mean_gain_vs_spba == 0.0
        assert by_algo["ppcc"].mean_gain_vs_spba == pytest.approx(0.0, abs=1e-12)
        assert by_algo["ppcc"].mean_gain_vs_agw is not None

    def test_missing_reference_yields_none(self):
        spec = SweepSpec(axis="batch_size", values=(2,))
        table = run_sweep(spec, small_params(), trials=1, algorithms=("ppcc",))
        assert table.rows[0].mean_gain_vs_spba is None

    def test_deterministic_csv_bytes(self):
        spec = SweepSpec(axis="batch_size", values=(2, 4))
        kwargs = dict(trials=2, algorithms=("ppcc", "spba", "agw"))
        a = table_to_csv(run_sweep(spec, small_params(), **kwargs))
        b = table_to_csv(run_sweep(spec, small_params(), **kwargs))
        assert a == b

    def test_jobs_do_not_change_bytes(self):
        spec = SweepSpec(axis="stay_probability", values=(0.0, 1.0))
        kwargs = dict(trials=2, algorithms=("ppcc", "spba"))
        serial = table_to_csv(run_sweep(spec, small_params(), **kwargs, jobs=1))
        parallel = table_to_csv(run_sweep(spec, small_params(), **kwargs, jobs=2))
        assert serial == parallel

    def test_exact_requires_desk_scale(self):
        spec = SweepSpec(axis="batch_size", values=(50,))
        with pytest.raises(ValueError, match="desk-scale"):
            run_sweep(spec, small_params(), trials=1,
                      algorithms=("exact", "ppcc"))

    def test_exact_runs_at_desk_scale_and_dominates(self):
        params = ScenarioParams(
            num_candidates=3, batch_size=1, chain_length=(1, 2),
            heads_per_request=(1, 2), num_destinations=(1, 1))
        spec = SweepSpec(axis="batch_size", values=(1,))
        table = run_sweep(spec, params, trials=4,
                          algorithms=("exact", "ppcc", "spba", "agw"))
        by_algo = {}
        for rec in table.records:
            by_algo.setdefault(rec.trial, {})[rec.algorithm] = rec
        for trial, recs in by_algo.items():
            if recs["exact"].status != "optimal":
                continue
            for algo in ("ppcc", "spba", "agw"):
                assert recs["exact"].cost <= recs[algo].cost + 1e-9

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            run_sweep(SweepSpec(axis="nonsense", values=(1,)),
                      small_params(), trials=1)

    def test_invalid_sweep_value_rejected_before_any_trial(self, monkeypatch):
        import pccplace.bench as bench
        calls = []
        real = bench.generate_instance

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "generate_instance", counting)
        with pytest.raises(ValueError, match="num_candidates"):
            run_sweep(SweepSpec(axis="num_candidates", values=(20, 0)),
                      small_params(), trials=3)
        assert calls == []

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            run_sweep(SweepSpec(axis="batch_size", values=(2,)),
                      small_params(), trials=1, algorithms=("magic",))

    def test_runtime_zero_by_default(self):
        spec = SweepSpec(axis="batch_size", values=(2,))
        table = run_sweep(spec, small_params(), trials=1)
        assert all(r.mean_runtime_ms == 0.0 for r in table.rows)

    def test_runtime_measured_on_request(self):
        spec = SweepSpec(axis="batch_size", values=(4,))
        table = run_sweep(spec, small_params(), trials=1, measure_runtime=True)
        assert any(r.mean_runtime_ms > 0.0 for r in table.rows)


class TestEmit:
    def test_csv_shape_and_round_trip(self, tmp_path):
        import csv as csv_mod

        spec = SweepSpec(axis="stay_probability", values=(0.0, 1.0))
        table = run_sweep(spec, small_params(), trials=2)
        text = table_to_csv(table)
        rows = list(csv_mod.reader(text.splitlines()))
        assert rows[0] == ["axis", "value", "algorithm", "mean_cost",
                           "stderr_cost", "mean_gain_vs_spba",
                           "mean_gain_vs_agw", "infeasible_count",
                           "mean_runtime_ms"]
        assert len(rows) == 1 + len(table.rows)

    def test_json_round_trips(self):
        import json

        spec = SweepSpec(axis="batch_size", values=(2,))
        table = run_sweep(spec, small_params(), trials=1)
        payload = json.loads(table_to_json(table))
        assert payload["axis"] == "batch_size"
        assert len(payload["rows"]) == len(table.rows)

    def test_empty_table_refused(self):
        empty = ResultTable(axis="batch_size", trials=0, algorithms=(),
                            records=(), rows=())
        with pytest.raises(EmptyTableError):
            table_to_csv(empty)
        with pytest.raises(EmptyTableError):
            table_to_json(empty)

    def test_emit_writes_files(self, tmp_path):
        from pccplace.bench import emit_results

        spec = SweepSpec(axis="batch_size", values=(2,))
        table = run_sweep(spec, small_params(), trials=1)
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        emit_results(table, "csv", str(csv_path))
        emit_results(table, "json", str(json_path))
        assert csv_path.read_text().startswith("axis,")
        assert json_path.read_text().startswith("{")
        with pytest.raises(ValueError, match="format"):
            emit_results(table, "xml", str(tmp_path / "r.xml"))


# Module attributes that the per-layer tracer in perfbench/tracing.py
# replaces with wrappers. The package must look each one up there at call
# time, or the traced spans read zero.
TRACED = {
    "pccplace.bench": ("generate_instance", "shortest_paths", "ppcc", "spba", "agw"),
    "pccplace.heuristics": ("evaluate_cost", "build_placement"),
    "pccplace.exact": ("lower_bound", "evaluate_cost", "build_placement_per_pair"),
}


class TestTracedAttributes:
    def test_calls_go_through_module_attributes(self, monkeypatch):
        calls = Counter()

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module_name, attrs in TRACED.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                monkeypatch.setattr(module, attr,
                                    spy(f"{module_name}.{attr}", getattr(module, attr)))

        run_sweep(SweepSpec(axis="batch_size", values=(2,)), small_params(),
                  trials=1, algorithms=("ppcc", "spba", "agw"))
        # A sweep reads totals and unplaced counts only, so the heuristics'
        # placements are never built; a read builds one, once.
        builds = "pccplace.heuristics.build_placement"
        assert calls[builds] == 0
        instance = generate_instance(ScenarioParams(
            num_candidates=3, batch_size=1, chain_length=(1, 2),
            heads_per_request=(1, 2), num_destinations=(1, 1)), 0)
        paths = shortest_paths(instance.network, instance.relevant_nodes)
        res = ppcc(instance, paths)
        assert res.placement is res.placement
        assert calls[builds] == 1
        solve_exact(instance, paths)

        # The search evaluates bounds internally, and the heuristics cost
        # their own routes; only these public attributes have to exist.
        called = {f"{m}.{a}" for m, attrs in TRACED.items() for a in attrs}
        called.discard("pccplace.exact.lower_bound")
        called.discard("pccplace.heuristics.evaluate_cost")
        assert {name for name in called if not calls[name]} == set()
