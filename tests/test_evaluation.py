import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pccplace.evaluation import (
    EvaluationError,
    UndefinedGainError,
    check_constraints,
    check_link_capacities,
    evaluate_cost,
    gain,
)
from pccplace.graph import shortest_paths
from pccplace.model import (
    MobilityProfile,
    Placement,
    ProblemInstance,
    build_placement,
)

from conftest import make_instance


def paths_for(instance):
    return shortest_paths(instance.network, instance.relevant_nodes)


def families(violations):
    return {v.constraint for v in violations}


class TestEvaluateCost:
    def test_single_nf_two_hop_terms(self, tiny1):
        paths = paths_for(tiny1)
        at_b = build_placement(tiny1, {("r1", 1): "b"})
        report = evaluate_cost(tiny1, at_b, paths)
        assert report.placement_term == 0.0
        assert report.head_hop_term == 1.0   # P(a,b) * rho(d)=1
        assert report.chain_hop_term == 0.0
        assert report.tail_hop_term == 5.0   # P(b,d)
        assert report.penalty_term == 0.0
        assert report.total == 6.0

    def test_both_tiny1_placements_cost_six(self, tiny1):
        paths = paths_for(tiny1)
        for node, expected in (("b", 6.0), ("c", 6.0)):
            placement = build_placement(tiny1, {("r1", 1): node})
            assert evaluate_cost(tiny1, placement, paths).total == expected

    def test_zero_distance_identity(self):
        # head, hosting node, and destination coincide at b
        inst = make_instance(
            links=[("a", "b", 1.0)], candidates=["b"], gateway="a",
            attachment="a", requests=[("r1", ["f1"], 1.0, ["b"])],
            destinations={"b": 1.0},
        )
        paths = paths_for(inst)
        placement = build_placement(inst, {("r1", 1): "b"})
        assert evaluate_cost(inst, placement, paths).total == 0.0

    def test_placement_cost_term(self, tiny1):
        inst = ProblemInstance(
            network=tiny1.network, catalog=tiny1.catalog,
            node_resources=tiny1.node_resources, requests=tiny1.requests,
            placement_cost={"f1": {"b": 2.5}}, mobility=tiny1.mobility)
        paths = paths_for(inst)
        placement = build_placement(inst, {("r1", 1): "b"})
        report = evaluate_cost(inst, placement, paths)
        assert report.placement_term == 2.5
        assert report.total == 8.5

    def test_on_path_single_nf_total_is_endpoint_cost(self, tiny1):
        # any on-path hosting node gives total = P(s, d) when L=1 and C=0
        paths = paths_for(tiny1)
        for node in ("b", "c"):
            placement = build_placement(tiny1, {("r1", 1): node})
            assert evaluate_cost(tiny1, placement, paths).total == paths.cost("a", "d")

    def test_chain_hops_between_consecutive_positions(self):
        inst = make_instance(
            links=[("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0)],
            candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1", "f2"], 1.0, ["a"])],
            destinations={"d": 1.0},
            catalog={"f1": (10.0, 0.125), "f2": (10.0, 0.125)},
        )
        paths = paths_for(inst)
        placement = build_placement(inst, {("r1", 1): "b", ("r1", 2): "c"})
        report = evaluate_cost(inst, placement, paths)
        assert report.head_hop_term == 1.0
        assert report.chain_hop_term == 2.0
        assert report.tail_hop_term == 3.0
        assert report.total == 6.0

    def test_penalty_for_missing_position(self, tiny1):
        paths = paths_for(tiny1)
        empty = build_placement(tiny1, {})
        report = evaluate_cost(tiny1, empty, paths)
        # default penalty: 2 * max pairwise cost = 12, weighted by rho over
        # both evaluation destinations (d at 1.0, attachment a at 0.0)
        assert report.penalty_term == 12.0
        assert report.total == 12.0

    def test_unknown_indices_raise(self, tiny1):
        paths = paths_for(tiny1)
        bad = Placement(x=frozenset({("r9", "f1", "b")}), y=frozenset())
        with pytest.raises(EvaluationError):
            evaluate_cost(tiny1, bad, paths)
        bad = Placement(
            x=frozenset({("r1", "f1", "b")}),
            y=frozenset({("r1", "f1", "b", "z", "d")}))
        with pytest.raises(EvaluationError):
            evaluate_cost(tiny1, bad, paths)

    def test_index_error_names_least_entry_under_any_hash_seed(self):
        # Three unknown requests in one frozenset: the error must name the
        # least entry, not whichever the set's hash order yields first.
        script = textwrap.dedent("""
            from conftest import PATH_LINKS, make_instance
            from pccplace.evaluation import EvaluationError, evaluate_cost
            from pccplace.graph import shortest_paths
            from pccplace.model import Placement

            inst = make_instance(
                links=PATH_LINKS, candidates=["b", "c"], gateway="a",
                attachment="a", requests=[("r1", ["f1"], 1.0, ["a"])],
                destinations={"d": 1.0})
            bad = Placement(x=frozenset({("r7", "f1", "c"), ("r8", "f1", "b"),
                                         ("r9", "f1", "b")}), y=frozenset())
            try:
                evaluate_cost(inst, bad,
                              shortest_paths(inst.network, inst.relevant_nodes))
            except EvaluationError as exc:
                print(exc)
        """)
        messages = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            messages.add(out.stdout.strip())
        assert len(messages) == 1
        assert "r7" in messages.pop()

    @given(alpha=st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    def test_rho_scaling_is_exactly_linear(self, alpha):
        base = make_instance(
            links=[("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0)],
            candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1"], 1.0, ["a"])],
            destinations={"d": 0.75, "c": 0.25}, stay=0.0,
        )
        scaled = ProblemInstance(
            network=base.network, catalog=base.catalog,
            node_resources=base.node_resources, requests=base.requests,
            placement_cost={},
            mobility=MobilityProfile(
                destinations={d: p * alpha
                              for d, p in base.mobility.destinations.items()},
                stay_probability=base.mobility.stay_probability * alpha))
        paths = paths_for(base)
        placement = build_placement(base, {("r1", 1): "b"})
        r0 = evaluate_cost(base, placement, paths)
        r1 = evaluate_cost(scaled, placement, paths)
        assert r1.head_hop_term == alpha * r0.head_hop_term
        assert r1.chain_hop_term == alpha * r0.chain_hop_term
        assert r1.tail_hop_term == alpha * r0.tail_hop_term

    def test_report_total_is_sum_of_terms(self, tiny1):
        paths = paths_for(tiny1)
        placement = build_placement(tiny1, {("r1", 1): "c"})
        r = evaluate_cost(tiny1, placement, paths)
        assert r.total == (r.placement_term + r.head_hop_term
                           + r.chain_hop_term + r.tail_hop_term
                           + r.penalty_term)
        assert set(r.to_dict()) == {
            "placement_term", "head_hop_term", "chain_hop_term",
            "tail_hop_term", "penalty_term", "total"}


class TestCheckConstraints:
    def test_feasible_placement_is_clean(self, tiny1):
        paths = paths_for(tiny1)
        placement = build_placement(tiny1, {("r1", 1): "b"})
        assert check_constraints(tiny1, placement, paths) == []

    def test_memory_overflow_flags_5a(self):
        inst = make_instance(
            links=[("a", "b", 1.0)], candidates=["b"], gateway="a",
            attachment="a",
            requests=[("r1", ["f1"], 1.0, ["a"]), ("r2", ["f1"], 1.0, ["a"])],
            destinations={"b": 1.0},
            node_resources={"b": (15.0, 8.0)},  # two f1 need 20
        )
        paths = paths_for(inst)
        placement = build_placement(inst, {("r1", 1): "b", ("r2", 1): "b"})
        violations = check_constraints(inst, placement, paths)
        assert [v for v in violations if v.constraint == "5a"
                and v.index == ("b", "memory_mb") and v.slack < 0]

    def test_visit_without_hosting_flags_5f(self, tiny1):
        paths = paths_for(tiny1)
        good = build_placement(tiny1, {("r1", 1): "b"})
        corrupted = Placement(x=frozenset(), y=good.y)
        assert "5f" in families(check_constraints(tiny1, corrupted, paths))

    def test_missing_visit_flags_5e(self, tiny1):
        paths = paths_for(tiny1)
        empty = build_placement(tiny1, {})
        violations = check_constraints(tiny1, empty, paths)
        assert families(violations) == {"5e"}
        # one row per (request, head, destination, position)
        assert len(violations) == 2

    def test_head_flow_over_budget_flags_5b(self):
        inst = make_instance(
            links=[("a", "b", 1.0, 5.0)], candidates=["b"], gateway="a",
            attachment="a",
            requests=[("r1", ["f1"], 4.0, ["a"]), ("r2", ["f1"], 4.0, ["a"])],
            destinations={"b": 1.0},
        )
        paths = paths_for(inst)
        placement = build_placement(inst, {("r1", 1): "b", ("r2", 1): "b"})
        violations = check_constraints(inst, placement, paths)
        assert [v for v in violations if v.constraint == "5b"
                and v.index == ("a", "b")]

    def test_explicit_z_checked(self, tiny1):
        paths = paths_for(tiny1)
        good = build_placement(tiny1, {("r1", 1): "b"})
        stray = Placement(
            x=good.x, y=good.y,
            z=frozenset({("r1", "f1", "f1", "c", "c", "a", "d")}))
        found = families(check_constraints(tiny1, stray, paths))
        assert {"5g", "5h"} <= found

    def test_missing_z_for_consecutive_pair_flags_5i(self):
        inst = make_instance(
            links=[("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0)],
            candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1", "f2"], 1.0, ["a"])],
            destinations={"d": 1.0},
            catalog={"f1": (10.0, 0.125), "f2": (10.0, 0.125)},
        )
        paths = paths_for(inst)
        base = build_placement(inst, {("r1", 1): "b", ("r1", 2): "c"})
        with_empty_z = Placement(x=base.x, y=base.y, z=frozenset())
        assert "5i" in families(check_constraints(inst, with_empty_z, paths))


class TestLinkCapacities:
    def test_clean_when_flows_fit(self, tiny1):
        paths = paths_for(tiny1)
        placement = build_placement(tiny1, {("r1", 1): "b"})
        assert check_link_capacities(tiny1, placement, paths) == []

    def test_shared_link_contention_detected(self):
        # two requests, each within the per-pair budget, overload a shared link
        inst = make_instance(
            links=[("a", "b", 1.0, 5.0), ("b", "c", 1.0)],
            candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1"], 3.0, ["a"]), ("r2", ["f1"], 3.0, ["a"])],
            destinations={"c": 1.0},
        )
        paths = paths_for(inst)
        placement = build_placement(inst, {("r1", 1): "b", ("r2", 1): "b"})
        per_pair = check_constraints(inst, placement, paths)
        per_link = check_link_capacities(inst, placement, paths)
        assert [v for v in per_link if v.index == ("a", "b")]
        assert len(per_link) >= len([v for v in per_pair if v.constraint == "5b"])


class TestGain:
    def test_ten_percent(self):
        assert gain(90.0, 100.0) == pytest.approx(0.10)

    def test_zero(self):
        assert gain(100.0, 100.0) == 0.0

    def test_high_mobility_magnitude(self):
        assert gain(74.0, 100.0) == pytest.approx(0.26)

    def test_zero_reference_undefined(self):
        with pytest.raises(UndefinedGainError):
            gain(1.0, 0.0)
