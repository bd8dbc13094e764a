import hashlib
import pickle

import pytest

from pccplace.evaluation import (
    check_constraints,
    evaluate_cost,
    gain,
)
from pccplace.graph import shortest_paths
from pccplace.heuristics import agw, ppcc, spba
from pccplace.exact import solve_exact
from pccplace.model import placement_structure_violations, placement_to_json
from pccplace.scenario import ScenarioParams, generate_instance

from conftest import flow_sum_instance, make_instance


def paths_for(instance):
    return shortest_paths(instance.network, instance.relevant_nodes)


def families(violations):
    return {v.constraint for v in violations}


class TestPpcc:
    def test_tiny1_hosts_at_first_on_path_candidate(self, tiny1):
        paths = paths_for(tiny1)
        res = ppcc(tiny1, paths)
        assert res.unplaced == ()
        assert ("r1", "f1", "b") in res.placement.x
        assert res.total == 6.0

    def test_target_is_highest_probability_destination(self):
        inst = make_instance(
            links=[("a", "b", 1.0), ("b", "d1", 1.0), ("b", "d2", 1.0)],
            candidates=["b"], gateway="a", attachment="a",
            requests=[("r1", ["f1"], 1.0, ["a"])],
            destinations={"d1": 0.3, "d2": 0.6}, stay=0.1,
        )
        weights = inst.destination_weights
        best = max(weights.values())
        assert min(d for d, w in weights.items() if w == best) == "d2"
        res = ppcc(inst, paths_for(inst))
        assert res.unplaced == ()

    def test_target_tie_breaks_to_smallest_id(self):
        inst = make_instance(
            links=[("a", "b", 1.0), ("b", "d1", 1.0), ("b", "d2", 1.0)],
            candidates=["b"], gateway="a", attachment="a",
            requests=[("r1", ["f1"], 1.0, ["a"])],
            destinations={"d2": 0.5, "d1": 0.5}, stay=0.0,
        )
        # both destinations tie at 0.5; d1 < d2 must win; either way the
        # single candidate hosts, so just assert determinism of the result
        r1 = ppcc(inst, paths_for(inst))
        r2 = ppcc(inst, paths_for(inst))
        assert r1.placement == r2.placement

    def test_saturated_node_spills_to_next_on_path(self, tiny1_saturated):
        paths = paths_for(tiny1_saturated)
        res = ppcc(tiny1_saturated, paths)
        assert res.unplaced == ()
        assert ("r1", "f1", "c") in res.placement.x
        assert res.total == 6.0

    def test_unplaced_reported_with_penalty(self, tiny1_infeasible):
        paths = paths_for(tiny1_infeasible)
        res = ppcc(tiny1_infeasible, paths)
        assert res.unplaced == (("r1", 1, "f1"),)
        assert res.cost.penalty_term > 0.0

    def test_chain_fills_in_visiting_order(self):
        inst = make_instance(
            links=[("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0)],
            candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1", "f2"], 1.0, ["a"])],
            destinations={"d": 1.0},
            catalog={"f1": (10.0, 0.125), "f2": (10.0, 0.125)},
            # b fits exactly one NF by cpu
            node_resources={"b": (1000.0, 0.125), "c": (1000.0, 8.0)},
        )
        res = ppcc(inst, paths_for(inst))
        assert res.unplaced == ()
        assert ("r1", "f1", "b") in res.placement.x
        assert ("r1", "f2", "c") in res.placement.x

    def test_flow_check_skips_saturated_path(self):
        # link a-b too small for the flow, so b is unusable for hosting:
        # the segment a->b cannot carry the request.
        inst = make_instance(
            links=[("a", "b", 1.0, 0.5), ("a", "c", 4.0, 2000.0),
                   ("b", "d", 2.0), ("c", "d", 4.0)],
            candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1"], 1.0, ["a"])],
            destinations={"d": 1.0},
        )
        res = ppcc(inst, paths_for(inst))
        assert res.unplaced == ()
        assert ("r1", "f1", "c") in res.placement.x

    @pytest.mark.parametrize("seed", range(6))
    def test_invariants_on_generated_instances(self, seed):
        params = ScenarioParams(num_candidates=8, batch_size=6,
                                chain_length=(2, 3))
        inst = generate_instance(params, seed=seed)
        paths = paths_for(inst)
        res = ppcc(inst, paths)
        assert res.unplaced == ()
        assert placement_structure_violations(inst, res.placement) == []
        assert check_constraints(inst, res.placement, paths) == []
        # node accounting: hosted demands within capacity everywhere
        used = {}
        for (r, nf, k) in res.placement.x:
            dem = inst.catalog[nf]
            acc = used.setdefault(k, [0.0, 0.0])
            acc[0] += dem.memory_mb
            acc[1] += dem.cpu_cores
        for k, (mem, cpu) in used.items():
            cap = inst.node_resources[k]
            assert mem <= cap.memory_mb + 1e-9
            assert cpu <= cap.cpu_cores + 1e-9

    @pytest.mark.parametrize("algo", [ppcc, spba])
    def test_head_flow_sums_as_the_checker_does(self, algo):
        # The greedy fill and the checker sum the 5b load of (a, b) in batch
        # order, so the third request is refused rather than flagged.
        inst = flow_sum_instance()
        paths = paths_for(inst)
        res = algo(inst, paths)
        assert res.unplaced == (("r3", 1, "f1"),)
        assert [v.constraint for v in check_constraints(inst, res.placement, paths)] \
            == ["5e"]

    def test_tail_budget_leaves_position_unplaced(self):
        # Link b-d carries less than the rate, and every route to the
        # destination d crosses it: no candidate, not even the head a,
        # has room for the 5d tail flow, so f1 stays unplaced.
        inst = make_instance(
            links=[("a", "b", 1.0), ("b", "d", 1.0, 0.5)],
            candidates=["a", "b"], gateway="a", attachment="a",
            requests=[("r1", ["f1"], 1.0, ["a"])],
            destinations={"d": 1.0},
        )
        paths = paths_for(inst)
        for algo in (ppcc, spba):
            res = algo(inst, paths)
            assert res.unplaced == (("r1", 1, "f1"),)
            assert families(check_constraints(inst, res.placement, paths)) == {"5e"}

    @pytest.mark.parametrize("capacity", [20.0, 50.0, 200.0])
    @pytest.mark.parametrize("algo", [ppcc, spba])
    def test_binding_links_leave_no_capacity_row(self, algo, capacity):
        # On these instances the per-pair budgets bind; whatever the greedy
        # fill hosts must still pass 5a-5d.
        params = ScenarioParams(num_candidates=12, batch_size=40,
                                link_capacity_mbps=capacity)
        for seed in range(6):
            inst = generate_instance(params, seed=seed)
            paths = paths_for(inst)
            res = algo(inst, paths)
            assert families(check_constraints(inst, res.placement, paths)) \
                <= {"5e"}

    def test_determinism(self):
        params = ScenarioParams(num_candidates=10, batch_size=10)
        inst = generate_instance(params, seed=7)
        paths = paths_for(inst)
        assert ppcc(inst, paths).placement == ppcc(inst, paths).placement


class TestAgw:
    def test_tiny1_everything_at_gateway(self, tiny1):
        res = agw(tiny1, paths_for(tiny1))
        assert res.placement.x == {("r1", "f1", "a")}
        assert res.total == 6.0  # P(a,a) + P(a,d)

    def test_colocated_chain_has_zero_chain_term(self):
        inst = make_instance(
            links=[("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0)],
            candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1", "f2"], 1.0, ["a"])],
            destinations={"d": 1.0},
            catalog={"f1": (10.0, 0.125), "f2": (10.0, 0.125)},
        )
        res = agw(inst, paths_for(inst))
        assert res.cost.chain_hop_term == 0.0
        assert res.unplaced == ()

    def test_never_dominated_by_exact(self, tiny1, tiny1_ext):
        for inst in (tiny1, tiny1_ext):
            paths = paths_for(inst)
            exact_total = solve_exact(inst, paths).total
            assert gain(exact_total, agw(inst, paths).total) >= 0.0

    def test_ignores_capacity(self, tiny1_infeasible):
        res = agw(tiny1_infeasible, paths_for(tiny1_infeasible))
        assert res.unplaced == ()


class TestSpba:
    def test_coincides_with_ppcc_when_target_matches(self):
        # attachment equals the top destination and the gateway-anchored
        # path equals the head-anchored one: decisions coincide, gain 0.
        inst = make_instance(
            links=[("g", "k1", 1.0), ("k1", "k2", 1.0), ("k2", "o", 1.0)],
            candidates=["k1", "k2"], gateway="g", attachment="o",
            requests=[("r1", ["f1"], 1.0, ["g"])],
            destinations={"o": 1.0},
        )
        paths = paths_for(inst)
        p = ppcc(inst, paths)
        s = spba(inst, paths)
        assert p.placement == s.placement
        assert gain(p.total, s.total) == 0.0

    def test_no_mobility_means_no_gain(self):
        params = ScenarioParams(num_candidates=10, batch_size=8,
                                stay_probability=1.0)
        for seed in range(5):
            inst = generate_instance(params, seed=seed)
            paths = paths_for(inst)
            p = ppcc(inst, paths)
            s = spba(inst, paths)
            assert p.placement == s.placement
            assert gain(p.total, s.total) == 0.0

    def test_high_mobility_direction(self):
        # with all mass on far destinations, mobility-aware placement wins
        # on average over seeded instances
        params = ScenarioParams(num_candidates=12, batch_size=10,
                                stay_probability=0.0)
        gains = []
        for seed in range(15):
            inst = generate_instance(params, seed=1000 + seed)
            paths = paths_for(inst)
            p = ppcc(inst, paths)
            s = spba(inst, paths)
            gains.append(gain(p.total, s.total))
        assert sum(gains) / len(gains) > 0.0

    def test_cost_evaluated_under_true_mobility(self):
        # SPBA targets the attachment but pays for the real destination
        inst = make_instance(
            links=[("g", "o", 1.0), ("o", "k1", 1.0), ("k1", "d", 5.0),
                   ("g", "k2", 1.0), ("k2", "d", 1.0)],
            candidates=["k1", "k2"], gateway="g", attachment="o",
            requests=[("r1", ["f1"], 1.0, ["k1", "k2"])],
            destinations={"d": 1.0}, stay=0.0,
        )
        paths = paths_for(inst)
        s = spba(inst, paths)
        p = ppcc(inst, paths)
        # k1 is nearest the attachment; k2 serves d far better
        assert ("r1", "f1", "k1") in s.placement.x
        assert ("r1", "f1", "k2") in p.placement.x
        assert gain(p.total, s.total) > 0.0

    def test_unplaced_mirrors_ppcc_mechanics(self, tiny1_infeasible):
        res = spba(tiny1_infeasible, paths_for(tiny1_infeasible))
        assert res.unplaced == (("r1", 1, "f1"),)


HEURISTICS = {"ppcc": ppcc, "spba": spba, "agw": agw}


class TestCostReport:
    """The heuristics cost their own routes; the report is evaluate_cost's."""

    @pytest.mark.parametrize("name", HEURISTICS)
    @pytest.mark.parametrize("params, seed", [
        # several heads and destinations per request
        (ScenarioParams(num_candidates=12, batch_size=20,
                        heads_per_request=(2, 4), num_destinations=(2, 4)), 3),
        # CPU-tight: positions stay unplaced after the fallback scan
        (ScenarioParams(num_candidates=10, batch_size=60, node_cpu_cores=1.0), 4),
        # placement costs set
        (ScenarioParams(num_candidates=10, batch_size=20, placement_cost=3.5), 5),
    ], ids=["heads-dests", "cpu-tight", "placement-cost"])
    def test_equals_evaluate_cost(self, name, params, seed):
        inst = generate_instance(params, seed)
        paths = paths_for(inst)
        res = HEURISTICS[name](inst, paths)
        assert res.cost == evaluate_cost(inst, res.placement, paths)
        if params.placement_cost:
            assert res.cost.placement_term > 0.0
        if params.node_cpu_cores < 2.0 and name != "agw":
            assert res.unplaced and res.cost.penalty_term > 0.0

    # Totals (float.hex) and unplaced counts on two CPU-tight instances,
    # where the fallback scan runs and the penalty term is summed; the
    # second also has placement costs. Any change to a reported total's
    # summation order moves a last bit here.
    @pytest.mark.parametrize("params, seed, pinned", [
        (ScenarioParams(num_candidates=30, batch_size=200, node_cpu_cores=4.0), 5,
         {"ppcc": ("0x1.21b6672e51cb7p+18", 191),
          "spba": ("0x1.21bed628b7f69p+18", 191),
          "agw": ("0x1.49dac61f5d378p+16", 0)}),
        (ScenarioParams(num_candidates=30, batch_size=100, node_cpu_cores=1.5,
                        placement_cost=10.0), 7,
         {"ppcc": ("0x1.89f3a5511cd1bp+17", 182),
          "spba": ("0x1.8c08a7c4ae2cdp+17", 182),
          "agw": ("0x1.8dd7cae25ae54p+15", 0)}),
    ], ids=["cpu-4", "cpu-1.5-placement-cost"])
    def test_pinned_totals(self, params, seed, pinned):
        inst = generate_instance(params, seed)
        paths = paths_for(inst)
        got = {}
        for name, algo in HEURISTICS.items():
            res = algo(inst, paths)
            got[name] = (res.total.hex(), len(res.unplaced))
        assert got == pinned


class TestLazyPlacement:
    """The placement is built on first read and kept; what it holds, the
    totals and the unplaced counts equal the values computed when every
    result built its placement eagerly."""

    # (SHA-256 of placement_to_json, total.hex(), len(unplaced)) per
    # heuristic. The first instance is sweep-large-tight's size; the second
    # has several heads per request, placement costs and unplaced positions.
    @pytest.mark.parametrize("params, seed, pinned", [
        (ScenarioParams(num_candidates=200, batch_size=2000, node_cpu_cores=8.0), 5,
         {"ppcc": ("56c36d668cb4981f0454d79c124dbffa2fdb8fd1d498d0ba093dedc800278953",
                   "0x1.91db3c6097f4ap+20", 0),
          "spba": ("cfd63b6b4358b2c17a5a565fc6e46f54b9c22f814f0e82e530f91e379659e832",
                   "0x1.91764cf7529ccp+20", 0),
          "agw": ("339c4c6854e28a14a8a064071b26dc7bc4e9edc9faa92150630f7be6813dde5b",
                  "0x1.c55e7dffcdccep+20", 0)}),
        (ScenarioParams(num_candidates=20, batch_size=200, heads_per_request=(2, 4),
                        node_cpu_cores=2.0, placement_cost=2.5), 5,
         {"ppcc": ("080b7a9ee2c36d962ce62b29add8cc37126e913342ec1bbf31c2eb934c419027",
                   "0x1.73aae06698db0p+19", 591),
          "spba": ("7a1d24796922d9d62e06507e97b98cd9129c4305c396e36b1a4590a4926769aa",
                   "0x1.736045472d47bp+19", 591),
          "agw": ("e6898b0ad22633da9d73f86816be04eef82e24b9de47a5ff1ccb05796a819a7d",
                  "0x1.7d24867c63153p+16", 0)}),
    ], ids=["K200-R2000-cpu-8", "K20-R200-placement-cost"])
    def test_pinned_placements(self, params, seed, pinned):
        inst = generate_instance(params, seed)
        paths = paths_for(inst)
        got = {}
        for name, algo in HEURISTICS.items():
            res = algo(inst, paths)
            copy = pickle.loads(pickle.dumps(res))  # unread: the builder travels
            assert res.placement is res.placement
            assert copy.placement == res.placement
            digest = hashlib.sha256(placement_to_json(res.placement).encode()).hexdigest()
            got[name] = (digest, res.total.hex(), len(res.unplaced))
        assert got == pinned
