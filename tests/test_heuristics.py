import dataclasses
import gc
import hashlib
import pickle
import random
import weakref

import numpy as np
import pytest

from pccplace.evaluation import (
    check_constraints,
    evaluate_cost,
    gain,
)
from pccplace.graph import shortest_paths
from pccplace import heuristics
from pccplace.heuristics import _by_distance, _greedy_chain_fill, agw, ppcc, spba
from pccplace.exact import solve_exact
from pccplace.model import MobilityProfile, placement_to_json
from pccplace.scenario import ScenarioParams, generate_instance

from conftest import flow_sum_instance, make_instance, make_network


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


class TestFallbackOrder:
    """The greedy's fallback scan visits candidates by (distance from the
    anchor head, id)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_equal_costs_keep_id_order(self, seed):
        # integer link costs: distances take a few values, each shared by
        # dozens of candidates, enough to show an unstable sort
        rng = random.Random(seed)
        nodes = [f"n{i:02d}" for i in range(80)]
        links = {(nodes[rng.randrange(i)], nodes[i]) for i in range(1, 80)}
        links |= {tuple(sorted(rng.sample(nodes, 2))) for _ in range(60)}
        candidates = rng.sample(nodes, 70)
        net = make_network([(u, v, rng.choice((1.0, 2.0))) for u, v in sorted(links)],
                           candidates, nodes[0], nodes[1])
        paths = shortest_paths(net, nodes)
        index = net.node_index
        ids = np.array(sorted(index[k] for k in candidates))
        ties = 0
        for head in nodes[::7]:
            want = sorted(candidates, key=lambda k: (paths.cost(head, k), k))
            got = [net.node_ids[k] for k in _by_distance(paths, index[head], ids)]
            assert got == want
            costs = [paths.cost(head, k) for k in want]
            ties = max(ties, max(costs.count(c) for c in costs))
        assert ties > 16


class TestAnchors:
    """Each request anchors at its head of least cost to the target, ties
    to the smallest head id."""

    def test_tied_head_costs_go_to_the_smallest_id(self):
        # heads b and c are both one link from the target d, a and e two
        inst = make_instance(
            links=[("a", "b", 1.0), ("a", "c", 1.0), ("b", "d", 1.0),
                   ("c", "d", 1.0), ("d", "e", 2.0)],
            candidates=["b", "c", "e"], gateway="a", attachment="d",
            requests=[("r1", ["f1"], 1.0, ["c", "b", "a"]),
                      ("r2", ["f1"], 1.0, ["c", "a"]),
                      ("r3", ["f1"], 1.0, ["a", "e"])],
            destinations={}, stay=1.0)
        paths = paths_for(inst)
        index, ids = inst.network.node_index, inst.network.node_ids
        assert paths.cost("b", "d") == paths.cost("c", "d")
        assert paths.cost("a", "d") == paths.cost("e", "d")
        anchors = heuristics._anchors(inst, paths, index["d"])
        assert [ids[k] for k in anchors] == ["b", "c", "a"]
        res = spba(inst, paths)
        assert ("r1", "f1", "b") in res.placement.x
        assert ("r2", "f1", "c") in res.placement.x

    @pytest.mark.parametrize("params, seed", [
        (ScenarioParams(num_candidates=20, batch_size=200), 1),
        (ScenarioParams(num_candidates=20, batch_size=200, stay_probability=0.0), 2),
        (ScenarioParams(num_candidates=40, batch_size=60, link_cost=(1.0, 1.0)), 3),
    ])
    def test_equals_per_request_minimum(self, params, seed):
        # unit link costs make head costs tie often
        inst = generate_instance(params, seed)
        paths = paths_for(inst)
        index = inst.network.node_index
        ties = 0
        for target in sorted(inst.destination_weights):
            column = paths.cost_matrix[:, index[target]].tolist()
            want = [min(sorted(index[s] for s in req.heads), key=column.__getitem__)
                    for req in inst.requests]
            assert heuristics._anchors(inst, paths, index[target]) == want
            ties += sum(len({column[index[s]] for s in req.heads}) < len(req.heads)
                        for req in inst.requests)
        if params.link_cost == (1.0, 1.0):
            assert ties > 0


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


def named(case, params, seed):
    """One parameter set, with `case` as its test id."""
    return pytest.param(case, params, seed, id=case)


def _ppcc_target(inst):
    weights = inst.destination_weights
    best = max(weights.values())
    return min(d for d, w in weights.items() if w == best)


class TestSharedFill:
    """PPCC and SPBA run one fill per distinct (instance, paths, target)
    and return that one result, which equals a fresh fill in every field;
    the memo behind it pins nothing."""

    INSTANCES = {
        "K20-R200-stay-0": (ScenarioParams(num_candidates=20, batch_size=200,
                                           stay_probability=0.0), 1),
        "K20-R200-stay-0.5": (ScenarioParams(num_candidates=20, batch_size=200,
                                             stay_probability=0.5), 1),
        "K20-R200-stay-1": (ScenarioParams(num_candidates=20, batch_size=200,
                                           stay_probability=1.0), 1),
        "K200-R1000-cpu-8": (ScenarioParams(num_candidates=200, batch_size=1000,
                                            node_cpu_cores=8.0), 1),
    }

    @staticmethod
    def fingerprint(result):
        return ({field: value.hex() for field, value in result.cost.to_dict().items()},
                result.status, result.unplaced, result.placement.x, result.placement.y)

    @pytest.mark.parametrize("first, second", [(ppcc, spba), (spba, ppcc)],
                             ids=["ppcc-first", "spba-first"])
    @pytest.mark.parametrize("name", INSTANCES)
    def test_equals_a_fresh_fill(self, name, first, second):
        params, seed = self.INSTANCES[name]
        inst = generate_instance(params, seed)
        paths = paths_for(inst)
        targets = {ppcc: _ppcc_target(inst), spba: inst.network.attachment}
        results = {first: first(inst, paths)}
        results[second] = second(inst, paths)
        for algo, res in results.items():
            fresh = _greedy_chain_fill(inst, paths, targets[algo])
            assert self.fingerprint(res) == self.fingerprint(fresh), algo.__name__
        shared = targets[ppcc] == targets[spba]
        assert (results[ppcc] is results[spba]) == shared

    def test_both_cases_are_covered(self):
        shared = set()
        for params, seed in self.INSTANCES.values():
            inst = generate_instance(params, seed)
            shared.add(_ppcc_target(inst) == inst.network.attachment)
        assert shared == {True, False}

    @pytest.fixture
    def fill_calls(self, monkeypatch):
        """The target of every fill `ppcc` and `spba` run, in call order."""
        calls = []

        def counting(instance, paths, target):
            calls.append(target)
            return _greedy_chain_fill(instance, paths, target)

        monkeypatch.setattr(heuristics, "_greedy_chain_fill", counting)
        return calls

    def test_one_fill_per_distinct_target(self, fill_calls):
        params = ScenarioParams(num_candidates=10, batch_size=8, stay_probability=1.0)
        inst = generate_instance(params, 3)
        paths = paths_for(inst)
        p, s, p_again = ppcc(inst, paths), spba(inst, paths), ppcc(inst, paths)
        assert p is s is p_again
        assert fill_calls == [inst.network.attachment]

    def test_other_objects_miss(self):
        params = ScenarioParams(num_candidates=10, batch_size=8, stay_probability=1.0)
        inst = generate_instance(params, 3)
        paths = paths_for(inst)
        p = ppcc(inst, paths)
        # equal but distinct paths, or an equal copy of the instance, miss
        other_paths = spba(inst, paths_for(inst))
        copy = dataclasses.replace(inst)
        other_instance = spba(copy, paths)
        assert other_paths is not p and other_instance is not p
        assert self.fingerprint(other_paths) == self.fingerprint(p)
        assert self.fingerprint(other_instance) == self.fingerprint(p)

    def test_dropped_result_is_filled_again(self, fill_calls):
        params = ScenarioParams(num_candidates=10, batch_size=8, stay_probability=1.0)
        inst = generate_instance(params, 3)
        paths = paths_for(inst)
        total = ppcc(inst, paths).total  # the result is dropped at once
        assert spba(inst, paths).total == total
        assert len(fill_calls) == 2

    def test_memo_pins_nothing(self):
        # Trials run with cyclic GC off, so reference counting alone must
        # free the instance and the paths once the caller drops them.
        enabled = gc.isenabled()
        gc.disable()
        try:
            params = ScenarioParams(num_candidates=20, batch_size=50, stay_probability=1.0)
            inst = generate_instance(params, 2)
            paths = paths_for(inst)
            p, s = ppcc(inst, paths), spba(inst, paths)
            assert p is s
            refs = (weakref.ref(inst), weakref.ref(paths), weakref.ref(p))
            del inst, paths, p, s
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            if enabled:
                gc.enable()


class TestCostReport:
    """The heuristics cost their own routes; the report is evaluate_cost's."""

    @pytest.mark.parametrize("name", HEURISTICS)
    @pytest.mark.parametrize("case, params, seed", [
        # several heads and destinations per request
        named("heads-dests", ScenarioParams(
            num_candidates=12, batch_size=20, heads_per_request=(2, 4),
            num_destinations=(2, 4)), 3),
        # CPU-tight: positions stay unplaced after the fallback scan
        named("cpu-tight", ScenarioParams(
            num_candidates=10, batch_size=60, node_cpu_cores=1.0), 4),
        named("placement-cost", ScenarioParams(
            num_candidates=10, batch_size=20, placement_cost=3.5), 5),
        # chains of one function: no chain hop
        named("chain-1", ScenarioParams(
            num_candidates=10, batch_size=30, chain_length=(1, 1)), 6),
        # no node has room for any function: every position unplaced
        named("none-placed", ScenarioParams(
            num_candidates=10, batch_size=20, node_cpu_cores=0.1), 7),
        # zero-weight destinations: the attachment at stay 0, the others at 1
        named("stay-0", ScenarioParams(
            num_candidates=10, batch_size=20, stay_probability=0.0), 8),
        named("stay-1", ScenarioParams(
            num_candidates=10, batch_size=20, stay_probability=1.0), 9),
        # one head per request, and the attachment as the only destination
        named("one-head-one-dest", ScenarioParams(
            num_candidates=10, batch_size=20, heads_per_request=(1, 1)), 10),
    ])
    def test_equals_evaluate_cost(self, name, case, params, seed):
        inst = generate_instance(params, seed)
        if case == "one-head-one-dest":
            inst = dataclasses.replace(inst, mobility=MobilityProfile({}, 1.0))
            assert len(inst.pair_order) == len(inst.requests)
        paths = paths_for(inst)
        res = HEURISTICS[name](inst, paths)
        want = evaluate_cost(inst, res.placement, paths)
        assert ({k: v.hex() for k, v in res.cost.to_dict().items()}
                == {k: v.hex() for k, v in want.to_dict().items()})
        if params.placement_cost:
            assert res.cost.placement_term > 0.0
        if case in ("cpu-tight", "none-placed") and name != "agw":
            assert res.unplaced and res.cost.penalty_term > 0.0
        if case == "none-placed" and name != "agw":
            assert len(res.unplaced) == sum(len(r.chain) for r in inst.requests)
            assert res.cost.head_hop_term == res.cost.tail_hop_term == 0.0
        if case == "chain-1":
            assert res.cost.chain_hop_term == 0.0
        if case.startswith("stay-"):
            assert 0.0 in inst.destination_weights.values()

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
        # saturation: the nodes fill early and most of the batch goes unplaced
        (ScenarioParams(num_candidates=200, batch_size=4000, node_cpu_cores=8.0), 5,
         {"ppcc": ("1d2485fb8ac4a1c0ed287b75a591fef36ca85239a40f4506075459eada53144d",
                   "0x1.04aee9b24c8e4p+24", 8008),
          "spba": ("b181fd805d1397cd28361aa3c0b00460b41f47901d8d1e160ba8675fff3aed1b",
                   "0x1.047d46e8923b0p+24", 7999),
          "agw": ("a38cc6ab09482fedbd5d7cad8004b78ebd0c6a3bdb9095b000eacd4ba7fd07f6",
                  "0x1.c36b1eec23062p+21", 0)}),
    ], ids=["K200-R2000-cpu-8", "K20-R200-placement-cost", "K200-R4000-cpu-8-saturated"])
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
