import gc
import importlib
from collections import Counter

import pytest

from pccplace import bench
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
from pccplace.scenario import GenerationError, ScenarioParams, generate_instance


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

    def test_workers_at_most_one_per_trial(self, monkeypatch):
        # a stand-in pool: records its size and maps in this process, so no
        # worker is started whatever --jobs asks for
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        spec = SweepSpec(axis="stay_probability", values=(0.0, 1.0))
        kwargs = dict(trials=2, algorithms=("ppcc", "spba"))
        serial = table_to_csv(run_sweep(spec, small_params(), **kwargs, jobs=1))
        monkeypatch.setattr(bench, "ProcessPoolExecutor", InProcessPool)
        for jobs, workers in [(2, 2), (4, 4), (5000, 4)]:
            assert table_to_csv(run_sweep(spec, small_params(), **kwargs, jobs=jobs)) == serial
            assert sizes.pop() == workers

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

    @pytest.mark.parametrize("axis, as_given, as_typed", [
        ("stay_probability", (0, 1), (0.0, 1.0)),
        ("batch_size", (2.0, 3.0), (2, 3)),
    ])
    def test_value_type_does_not_change_rows(self, axis, as_given, as_typed):
        # trial seeds hash the value's repr, so it must be normalised first
        a = run_sweep(SweepSpec(axis, as_given), small_params(), trials=2)
        b = run_sweep(SweepSpec(axis, as_typed), small_params(), trials=2)
        assert table_to_json(a) == table_to_json(b)
        assert [type(r.value) for r in a.rows] == [
            type(v) for v in as_typed for _ in a.algorithms]

    @pytest.mark.parametrize("axis", ["batch_size", "num_candidates", "stay_probability"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_sweep_value_rejected(self, axis, value):
        # float(True).is_integer() holds, but params_from_dict refuses a bool
        with pytest.raises(ValueError, match=f"^{axis}: expected a number, got bool"):
            run_sweep(SweepSpec(axis, (value,)), small_params(), trials=1)

    def test_repeated_value_across_types_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            run_sweep(SweepSpec("batch_size", (2, 2.0)), small_params(), trials=1)

    def test_runtime_zero_by_default(self):
        spec = SweepSpec(axis="batch_size", values=(2,))
        table = run_sweep(spec, small_params(), trials=1)
        assert all(r.mean_runtime_ms == 0.0 for r in table.rows)

    def test_runtime_measured_on_request(self):
        spec = SweepSpec(axis="batch_size", values=(4,))
        table = run_sweep(spec, small_params(), trials=1, measure_runtime=True)
        assert any(r.mean_runtime_ms > 0.0 for r in table.rows)

    def test_shared_fill_time_recorded_for_both(self):
        # With no mobility PPCC targets the attachment, as SPBA does, so the
        # two share one fill, and both rows carry that fill's time.
        spec = SweepSpec(axis="stay_probability", values=(1.0,))
        table = run_sweep(spec, small_params(), trials=2, measure_runtime=True)
        for trial in (0, 1):
            runtime = {r.algorithm: r.runtime_ms for r in table.records if r.trial == trial}
            assert runtime["ppcc"] == runtime["spba"] > 0.0


class TestGarbageCollection:
    """Trials hold cyclic GC off and leave the caller's setting as found."""

    @pytest.fixture
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_setting_restored(self, restore_gc, monkeypatch, enabled):
        import pccplace.bench as bench
        seen = []
        real = bench.generate_instance

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(bench, "generate_instance", recording)
        (gc.enable if enabled else gc.disable)()
        run_sweep(SweepSpec("batch_size", (2, 3)), small_params(), trials=2)
        assert seen == [False] * 4
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_setting_restored_when_a_trial_raises(self, restore_gc, monkeypatch,
                                                  enabled):
        import pccplace.bench as bench

        def failing(*args, **kwargs):
            raise GenerationError("no instance")

        monkeypatch.setattr(bench, "generate_instance", failing)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(GenerationError):
            run_sweep(SweepSpec("batch_size", (2,)), small_params(), trials=1)
        assert gc.isenabled() is enabled


class TestMeanStderr:
    def test_sums_left_to_right(self):
        from pccplace.bench import _mean_stderr

        # 1e16 + 1.0 rounds back to 1e16 when added in order; a compensated
        # sum (math.fsum, or builtin sum on Python 3.12+) gives 1.0
        assert _mean_stderr([1e16, 1.0, -1e16])[0] == 0.0

    def test_single_value_has_zero_stderr(self):
        from pccplace.bench import _mean_stderr

        assert _mean_stderr([2.5]) == (2.5, 0.0)
        assert _mean_stderr([]) == (None, None)


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
        # The exact solver too builds its placement on the first read only.
        exact_builds = "pccplace.exact.build_placement_per_pair"
        res = solve_exact(instance, paths)
        assert res.status == "optimal" and calls[exact_builds] == 0
        assert res.placement is res.placement
        assert calls[exact_builds] == 1

        # The search evaluates bounds internally, and every solver costs its
        # own result; only these public attributes have to exist.
        called = {f"{m}.{a}" for m, attrs in TRACED.items() for a in attrs}
        called.discard("pccplace.exact.lower_bound")
        called.discard("pccplace.exact.evaluate_cost")
        called.discard("pccplace.heuristics.evaluate_cost")
        assert {name for name in called if not calls[name]} == set()


class TestPathLists:
    @pytest.mark.parametrize("algorithms", [("ppcc",), ("spba",), ("agw",),
                                            ("ppcc", "spba", "agw")])
    def test_sweep_builds_no_flat_list(self, monkeypatch, algorithms):
        # the heuristics and their pricing read the path matrices only, so
        # the Python-float lists, built on first read, are never built
        # (until then the table holds None in their place)
        tables = []

        def keeping(*args):
            tables.append(shortest_paths(*args))
            return tables[-1]

        monkeypatch.setattr(bench, "shortest_paths", keeping)
        run_sweep(SweepSpec(axis="batch_size", values=(4, 40)),
                  small_params(node_cpu_cores=1.0), trials=2, algorithms=algorithms)
        assert len(tables) == 4
        for table in tables:
            assert (table._cost_list, table._bottleneck_list) == (None, None)
