"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import hashlib
import importlib
import sys
import types

import pytest

import desk
import sweeps
import tracing
from pccplace.bench import SweepSpec, emit_results, run_sweep
from pccplace.evaluation import evaluate_cost
from pccplace.exact import ExactResult
from pccplace.graph import EdgeNetwork, Link, shortest_paths
from pccplace.model import (MobilityProfile, ProblemInstance, Resources, ServiceRequest,
                             build_placement_per_pair)
from pccplace.scenario import ScenarioParams


def _patched_attributes():
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a, _, _ in tracing.PATCHES}


def test_tracer_restores_every_patched_attribute():
    before = _patched_attributes()
    with tracing.Tracer():
        during = _patched_attributes()
        assert all(during[key] is not before[key] for key in before)
    after = _patched_attributes()
    assert all(after[key] is before[key] for key in before)


def test_tracer_restores_when_the_run_raises():
    before = _patched_attributes()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    after = _patched_attributes()
    assert all(after[key] is before[key] for key in before)


def test_self_time_excludes_child_spans(monkeypatch):
    fake = types.ModuleType("perfbench_fake_layer")

    def inner():
        return 1

    def outer():
        return fake.inner() + fake.inner()

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    patches = ((fake.__name__, "outer", "outer", None),
               (fake.__name__, "inner", "inner", None))
    with tracing.Tracer(patches) as tracer:
        assert fake.outer() == 2
    assert fake.outer is outer and fake.inner is inner
    spans = tracer.spans
    assert spans[("outer", "inner")][0] == 2
    calls, total, self_s = spans[(None, "outer")]
    assert calls == 1
    assert self_s == pytest.approx(total - spans[("outer", "inner")][1])


def _two_candidate_instance(c_memory_mb=1000.0):
    """Head a, destination d (stay 1), candidates b and c, chain f1 -> f2.

    Path costs: a-b 1, a-c 4, b-d 5, c-d 1, b-c 5. Placements (f1, f2):
    (b, b) = 1 + 0 + 5 = 6, (b, c) = 1 + 5 + 1 = 7, (c, b) = 4 + 5 + 5 = 14,
    (c, c) = 4 + 0 + 1 = 5. With room for one function on c the optimum
    is (b, b) = 6.
    """
    links = (Link("a", "b", 1.0, 2000.0), Link("a", "c", 4.0, 2000.0),
             Link("b", "d", 5.0, 2000.0), Link("c", "d", 1.0, 2000.0))
    network = EdgeNetwork(nodes=frozenset("abcd"), links=links,
                          candidates=frozenset("bc"), gateway="a", attachment="d")
    instance = ProblemInstance(
        network=network,
        catalog={"f1": Resources(10.0, 0.125), "f2": Resources(10.0, 0.125)},
        node_resources={"b": Resources(1000.0, 8.0),
                        "c": Resources(c_memory_mb, 8.0)},
        requests=(ServiceRequest(id="r0", chain=("f1", "f2"), flow_rate_mbps=1.0,
                                 heads=frozenset("a")),),
        placement_cost={},
        mobility=MobilityProfile(destinations={}, stay_probability=1.0),
    )
    return instance, shortest_paths(network, instance.relevant_nodes)


def test_enumerator_finds_hand_computed_optimum_in_both_regimes():
    instance, paths = _two_candidate_instance()
    assert desk.enumerate_full(instance, paths) == ("optimal", 5.0, 4)
    assert desk.enumerate_per_chain(instance, paths) == ("optimal", 5.0)


def test_enumerator_couples_capacity_only_in_the_full_regime():
    instance, paths = _two_candidate_instance(c_memory_mb=15.0)
    assert desk.enumerate_full(instance, paths) == ("optimal", 6.0, 4)
    with pytest.raises(desk.ReferenceUnavailable):
        desk.enumerate_per_chain(instance, paths)


def _exact_result(instance, paths, f1, f2, status, total=None):
    placement = build_placement_per_pair(
        instance, {("r0", "a", "d", 1): f1, ("r0", "a", "d", 2): f2})
    cost = evaluate_cost(instance, placement, paths)
    if total is not None:
        cost = dataclasses.replace(cost, total=total)
    return ExactResult(placement, cost, status)


def test_verdict_accepts_budget_stops_only_with_a_valid_incumbent():
    instance, paths = _two_candidate_instance(c_memory_mb=15.0)

    def verdict(*args, **kwargs):
        return desk.verdict(instance, paths, _exact_result(instance, paths, *args, **kwargs))

    assert verdict("b", "b", "optimal") == "ok"
    assert verdict("b", "c", "optimal") == "wrong"  # 7, optimum is 6
    assert verdict("b", "c", "budget_exceeded") == "budget"
    assert verdict("b", "b", "budget_exceeded", total=5.5) == "wrong"  # beats the optimum
    assert verdict("c", "c", "budget_exceeded") == "wrong"  # over c's memory
    assert desk.verdict(instance, paths, ExactResult(None, None, "budget_exceeded")) == "budget"


def test_in_process_cli_sweep_matches_run_sweep_and_emit(tmp_path):
    _, _, digest = sweeps.run_call("sweep-paper", 0)
    table = run_sweep(
        SweepSpec("stay_probability", (0.0, 0.25, 0.5, 0.75, 1.0)),
        ScenarioParams(num_candidates=20, batch_size=200), 2,
        ("ppcc", "spba", "agw"), base_seed=0, jobs=1)
    path = tmp_path / "results.csv"
    emit_results(table, "csv", str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
