import dataclasses
import itertools
import math
import pickle
import random
import re

import pytest

from pccplace import exact
from pccplace.evaluation import check_constraints, evaluate_cost
from pccplace.exact import (
    ExportSizeError,
    SearchStats,
    SolveBudget,
    _MARGIN,
    _SearchState,
    _capacities_cannot_bind,
    _variables,
    export_lp,
    lower_bound,
    solve_exact,
)
from pccplace.graph import shortest_paths
from pccplace.model import (build_placement, build_placement_per_pair,
                             validate_instance)
from pccplace.scenario import ScenarioParams, generate_instance

from conftest import (PATH_LINKS, colliding_ids_instance, cpu_sum_instance,
                      make_instance)
from oracle import enumerate_optimal


def paths_for(instance):
    return shortest_paths(instance.network, instance.relevant_nodes)


def tiny_params(**overrides):
    base = dict(
        num_candidates=3, batch_size=1, chain_length=(1, 2),
        heads_per_request=(1, 2), num_destinations=(1, 1),
        stay_probability=None,
    )
    base.update(overrides)
    return ScenarioParams(**base)


def tight_instance(seed):
    """A generated micro instance with node and link capacities that bind."""
    inst = generate_instance(tiny_params(num_candidates=2 + seed % 2), seed)
    rng = random.Random(seed)
    chains = [nf for r in inst.requests for nf in r.chain]
    total_mem = sum(inst.catalog[nf].memory_mb for nf in chains)
    total_cpu = sum(inst.catalog[nf].cpu_cores for nf in chains)
    node_resources = {
        k: dataclasses.replace(
            cap, memory_mb=total_mem * rng.choice((0.45, 0.9, 1.5, 2.5)),
            cpu_cores=total_cpu * rng.choice((0.6, 0.9, 1.5, 2.5)))
        for k, cap in inst.node_resources.items()}
    rate = max(r.flow_rate_mbps for r in inst.requests)
    links = tuple(dataclasses.replace(
        ln, capacity_mbps=rate * rng.choice((1.2, 2.4, 6.0)))
        for ln in inst.network.links)
    return dataclasses.replace(
        inst, network=dataclasses.replace(inst.network, links=links),
        node_resources=node_resources)


class TestSolveExact:
    def test_tiny1_optimal_total(self, tiny1):
        res = solve_exact(tiny1, paths_for(tiny1))
        assert res.status == "optimal"
        assert res.total == 6.0

    def test_tiny1_ext_prefers_on_path_node(self, tiny1_ext):
        paths = paths_for(tiny1_ext)
        res = solve_exact(tiny1_ext, paths)
        assert res.status == "optimal"
        assert res.total == 6.0
        assert ("r1", "f1", "b") in res.placement.x
        # the alternative really is worse: placing at e costs 6 + 10
        at_e = build_placement(tiny1_ext, {("r1", 1): "e"})
        assert evaluate_cost(tiny1_ext, at_e, paths).total == 16.0

    def test_infeasible_when_candidate_too_small(self, tiny1_infeasible):
        res = solve_exact(tiny1_infeasible, paths_for(tiny1_infeasible))
        assert res.status == "infeasible"
        assert res.placement is None

    def test_result_is_feasible_and_clean(self, tiny1):
        paths = paths_for(tiny1)
        res = solve_exact(tiny1, paths)
        assert check_constraints(tiny1, res.placement, paths) == []

    def test_determinism_identical_placement(self, tiny1_ext):
        paths = paths_for(tiny1_ext)
        a = solve_exact(tiny1_ext, paths)
        b = solve_exact(tiny1_ext, paths)
        assert a.placement == b.placement
        assert a.total == b.total

    def test_result_pickles_with_its_placement(self, tiny1_ext):
        res = solve_exact(tiny1_ext, paths_for(tiny1_ext))
        copy = pickle.loads(pickle.dumps(res))
        assert copy == res and copy.placement == res.placement
        assert res.placement is res.placement

    def test_budget_exceeded_returns_incumbent(self, tiny1):
        res = solve_exact(tiny1, paths_for(tiny1),
                          SolveBudget(max_nodes_expanded=1, wall_time_s=None))
        assert res.status == "budget_exceeded"
        assert res.placement is not None
        assert res.total >= 6.0

    def test_stats_say_how_much_search_and_why_it_stopped(self, tiny1):
        paths = paths_for(tiny1)
        res = solve_exact(tiny1, paths)
        assert res.stats.stop == "complete"
        assert res.stats.expanded >= 1 and res.stats.leaves >= 1
        by_nodes = solve_exact(tiny1, paths,
                               SolveBudget(max_nodes_expanded=1, wall_time_s=None))
        assert by_nodes.stats.stop == "node_budget" and by_nodes.stats.expanded == 1
        # a wall budget already spent stops the search before any expansion;
        # the greedy dive has evaluated its one leaf by then
        by_time = solve_exact(tiny1, paths, SolveBudget(wall_time_s=-1.0))
        assert by_time.status == "budget_exceeded"
        assert by_time.stats == SearchStats(0, 1, "wall_time", presolved=True)

    def test_stats_stay_out_of_equality_and_repr(self, tiny1):
        res = solve_exact(tiny1, paths_for(tiny1))
        assert res.stats is not None and "stats" not in repr(res)
        assert dataclasses.replace(res, stats=None) == res

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_enumeration_oracle(self, seed):
        instance = generate_instance(tiny_params(), seed=seed)
        paths = paths_for(instance)
        res = solve_exact(instance, paths)
        status, total, _ = enumerate_optimal(instance, paths)
        assert res.status == status
        if status == "optimal":
            assert res.total == total

    def test_per_pair_visit_plans_may_differ(self):
        # head a is pulled toward d1 via b, toward d2 via c: the optimal
        # visit plan picks a different node per destination.
        inst = make_instance(
            links=[("a", "b", 1.0), ("b", "d1", 1.0),
                   ("a", "c", 1.0), ("c", "d2", 1.0),
                   ("d1", "d2", 10.0)],
            candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1"], 1.0, ["a"])],
            destinations={"d1": 0.5, "d2": 0.5},
        )
        paths = paths_for(inst)
        res = solve_exact(inst, paths)
        assert res.status == "optimal"
        by_dest = {d: k for (_, _, k, _, d) in res.placement.y}
        assert by_dest["d1"] == "b"
        assert by_dest["d2"] == "c"


    def test_node_demand_charged_once_per_hosted_nf(self):
        # Both (head, destination) pairs visit f1 and f2 at b. b holds
        # exactly one copy of each, so its memory must be charged per hosted
        # (request, nf, node), not per visiting pair; c fits neither NF.
        inst = make_instance(
            links=PATH_LINKS,
            candidates=["b", "c"], gateway="a", attachment="a", stay=0.5,
            requests=[("r1", ["f1", "f2"], 1.0, ["a"])],
            destinations={"d": 0.5},
            catalog={"f1": (10.0, 0.125), "f2": (10.0, 0.125)},
            node_resources={"b": (20.0, 8.0), "c": (5.0, 8.0)},
        )
        paths = paths_for(inst)
        assert enumerate_optimal(inst, paths)[:2] == ("optimal", 4.0)
        res = solve_exact(inst, paths)
        assert res.status == "optimal"
        assert res.total == 4.0
        assert check_constraints(inst, res.placement, paths) == []

    def test_search_accepts_exactly_what_the_checker_passes(self):
        # Every complete assignment of small tight instances: the search's
        # ledger accepts it, visit by visit, exactly when the checker finds
        # no 5a-5d row over capacity.
        mixed = 0
        for inst in [cpu_sum_instance()] + [tight_instance(i) for i in range(24)]:
            paths = paths_for(inst)
            variables = _variables(inst)
            keys = [(v.req.id, *inst.pair_order[v.chain][1:], v.l) for v in variables]
            index = inst.network.node_index  # the search runs on int node ids
            state = _SearchState(inst, paths, variables)
            outcomes = set()
            for combo in itertools.product(sorted(inst.network.candidates),
                                           repeat=len(variables)):
                record = state.root
                accepted = True
                for k in combo:
                    if index[k] not in dict(state.children(record)):
                        accepted = False
                        break
                    record = state.child(record, index[k])
                placement = build_placement_per_pair(inst, dict(zip(keys, combo)))
                rows = {v.constraint for v in check_constraints(inst, placement, paths)}
                assert accepted == rows.isdisjoint({"5a", "5b", "5c", "5d"}), combo
                outcomes.add(accepted)
            mixed += outcomes == {True, False}
        # capacities bind on about half the instances, so the agreement is
        # checked on both verdicts
        assert mixed >= 12


class TestCapacityPresolve:
    """`_capacities_cannot_bind`, the certificate that drops the 5a-5d ledger."""

    @staticmethod
    def instance(rate=1.0, catalog=None, node_resources=None, capacity=2000.0):
        return make_instance(
            links=[(u, v, cost, capacity) for u, v, cost in PATH_LINKS],
            candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1", "f2"], rate, ["a"])], destinations={"d": 1.0},
            catalog=catalog or {"f1": (10.0, 0.125), "f2": (20.0, 0.25)},
            node_resources=node_resources)

    @staticmethod
    def certified(inst):
        return _capacities_cannot_bind(inst, paths_for(inst))

    def test_roomy_instance_is_certified_and_says_so(self):
        inst = self.instance()
        assert self.certified(inst)
        assert solve_exact(inst, paths_for(inst)).stats.presolved

    def test_candidate_without_resources_is_refused(self):
        # can_host refuses c, so the search must keep testing it
        inst = self.instance(node_resources={"b": (1000.0, 8.0)})
        assert not self.certified(inst)
        res = solve_exact(inst, paths_for(inst))
        assert not res.stats.presolved
        assert {k for _, _, k in res.placement.x} == {"b"}

    @pytest.mark.parametrize("memory, certified", [
        (30.0, False),  # the total demand itself
        (30.0 * (1 + 2**-31), False),  # within the margin
        (math.nextafter(30.0 * (1 + _MARGIN), 0.0), False),
        (30.0 * (1 + _MARGIN), True),  # the least capacity the margin passes
        (30.0 * (1 + 2**-20), True),
    ])
    def test_total_demand_needs_the_margin_below_capacity(self, memory, certified):
        inst = self.instance(node_resources={"b": (memory, 8.0), "c": (1000.0, 8.0)})
        assert self.certified(inst) is certified

    def test_cpu_sum_equal_to_capacity_is_refused(self):
        # the demands sum to 0.6 in real arithmetic, but the ledger's
        # running sum is 0.6000000000000001 and binds
        assert not self.certified(cpu_sum_instance())

    def test_infinite_capacities_and_budgets_are_certified(self):
        inst = self.instance(rate=1e300, capacity=math.inf, catalog={
            "f1": (1e300, 1e300), "f2": (1e300, 1e300)},
            node_resources={k: (math.inf, math.inf) for k in "bc"})
        assert min(paths_for(inst).bottleneck_list) == math.inf
        assert self.certified(inst)

    def test_worst_flow_needs_the_margin_below_least_budget(self):
        # one head, two destinations (d and the attachment), L = 2
        count = 1 * 2 * 3
        budget = 600.0
        assert self.certified(self.instance(rate=budget / count / (1 + 2 * _MARGIN),
                                            capacity=budget))
        assert not self.certified(self.instance(rate=budget / count, capacity=budget))
        assert not self.certified(self.instance(rate=budget / count * (1 + _MARGIN),
                                                capacity=budget))

    def test_negative_demand_is_refused(self):
        inst = self.instance(catalog={"f1": (10.0, 0.125), "f2": (-20.0, 0.25)})
        assert not self.certified(inst)


class TestLowerBound:
    def test_fully_assigned_equals_evaluated_total(self, tiny1):
        paths = paths_for(tiny1)
        partial = {("r1", "a", d, 1): "b" for d in ("a", "d")}
        placement = build_placement(tiny1, {("r1", 1): "b"})
        total = evaluate_cost(tiny1, placement, paths).total
        assert lower_bound(tiny1, paths, partial) == total

    def test_empty_assignment_bounded_by_optimum(self, tiny1):
        paths = paths_for(tiny1)
        assert lower_bound(tiny1, paths, {}) <= 6.0

    def test_monotone_along_branch(self, tiny1_ext):
        paths = paths_for(tiny1_ext)
        steps = [
            {},
            {("r1", "a", "a", 1): "b"},
            {("r1", "a", "a", 1): "b", ("r1", "a", "d", 1): "b"},
        ]
        bounds = [lower_bound(tiny1_ext, paths, p) for p in steps]
        assert bounds == sorted(bounds)

    def test_admissible_on_generated_instances(self):
        for seed in range(8):
            instance = generate_instance(tiny_params(), seed=100 + seed)
            paths = paths_for(instance)
            res = solve_exact(instance, paths)
            if res.status != "optimal":
                continue
            assert lower_bound(instance, paths, {}) <= res.total + 1e-9

    @pytest.mark.parametrize("partial", [
        {("r1", "a", "d", 1): "t"},
        {("r1", "a", "d", 2): "t"},  # no priced hop reads it; the relaxation does
        {("r1", "a", "d", 3): "t"},
        {("r1", "a", "d", 1): "b", ("r1", "a", "d", 2): "t"},
        {("r1", "a", "a", 2): "zz"},  # not a node at all
    ])
    def test_node_outside_the_table_is_a_key_error(self, partial):
        # t only carries traffic between b and c, so the table has no entry for it
        inst = make_instance(
            links=[("a", "b", 1.0), ("b", "t", 1.0), ("t", "c", 1.0), ("c", "d", 1.0)],
            candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1", "f2", "f3"], 1.0, ["a"])], destinations={"d": 1.0})
        paths = paths_for(inst)
        assert "t" not in paths.relevant
        with pytest.raises(KeyError):
            lower_bound(inst, paths, partial)

    @pytest.mark.parametrize("partial, key", [
        ({("r9", "a", "d", 1): "b"}, ("r9", "a", "d", 1)),  # unknown request
        ({("r1", "a", "d", 5): "b"}, ("r1", "a", "d", 5)),  # position past the chain
        ({("r1", "a", "d", 0): "b"}, ("r1", "a", "d", 0)),  # positions start at 1
        ({("r1", "b", "d", 1): "c"}, ("r1", "b", "d", 1)),  # head not of the request
        ({("r1", "a", "c", 1): "b"}, ("r1", "a", "c", 1)),  # unknown destination
        # the least unknown key is named; a valid one beside them changes nothing
        ({("r1", "a", "d", 1): "b", ("r1", "a", "d", 2): "b", ("r0", "a", "d", 1): "b"},
         ("r0", "a", "d", 1)),
    ], ids=["request", "past-chain", "position-0", "head", "destination", "least"])
    def test_key_naming_no_variable_is_a_key_error(self, tiny1, monkeypatch, partial, key):
        paths = paths_for(tiny1)

        def priced(*args, **kwargs):
            raise AssertionError("priced before the keys were checked")

        monkeypatch.setattr(exact, "cost_of_routes", priced)
        with pytest.raises(KeyError) as caught:
            lower_bound(tiny1, paths, partial)
        assert caught.value.args == (key,)

    def test_no_candidate_is_infinite(self):
        inst = make_instance(links=[("a", "b", 1.0)], candidates=[], gateway="a",
                             attachment="a", requests=[("r1", ["f1"], 1.0, ["a"])],
                             destinations={"b": 1.0})
        paths = paths_for(inst)
        assert lower_bound(inst, paths, {}) == math.inf
        res = solve_exact(inst, paths)
        assert res.status == "infeasible"
        assert res.stats == SearchStats(0, 0, "complete", presolved=False)


def one_nf_instance(request="r1", nf="f1", candidate="b", head="a", dest="d"):
    """Path head-candidate-dest with one single-NF request; ids as given."""
    return make_instance(
        links=[(head, candidate, 1.0), (candidate, dest, 2.0)],
        candidates=[candidate], gateway=head, attachment=head,
        requests=[(request, [nf], 1.0, [head])], destinations={dest: 1.0},
        catalog={nf: (10.0, 0.125)})


class TestExportLp:
    def test_colliding_ids_rejected_naming_the_id(self):
        inst = colliding_ids_instance()
        assert validate_instance(inst) == []
        with pytest.raises(ValueError, match="'f_g'"):
            export_lp(inst)

    @pytest.mark.parametrize("field", ["request", "nf", "candidate", "head", "dest"])
    def test_hyphen_in_any_id_rejected(self, field):
        inst = one_nf_instance(**{field: "n-1"})
        assert validate_instance(inst) == []
        with pytest.raises(ValueError, match="'n-1'"):
            export_lp(inst)

    def test_non_ascii_id_rejected(self):
        # str.isalnum() holds for "é", but the LP format names are ASCII
        with pytest.raises(ValueError, match="'f\u00e9'"):
            export_lp(one_nf_instance(nf="f\u00e9"))

    def test_dotted_ids_export(self):
        text = export_lp(one_nf_instance(request="r.1", nf="f.1", candidate="n.2"))
        assert " x_r.1_f.1_n.2\n" in text

    def test_starts_with_minimize(self, tiny1):
        assert export_lp(tiny1).startswith("Minimize")

    def test_sections_present(self, tiny1):
        text = export_lp(tiny1)
        for section in ("Minimize", "Subject To", "Binaries", "End"):
            assert f"\n{section}\n" in f"\n{text}"

    def test_x_variable_count(self, tiny1):
        text = export_lp(tiny1)
        binaries = text.split("Binaries")[1]
        x_vars = set(re.findall(r"x_\w+", binaries))
        # |K| * |NFs used| = 2 * 1
        assert len(x_vars) == 2

    def test_visit_row_per_head_dest_position(self, tiny1):
        text = export_lp(tiny1)
        rows = re.findall(r"visit_\S+:", text)
        # 1 request x 1 head x 2 evaluation destinations x 1 position
        assert len(rows) == 2

    def test_zero_cost_instance_has_no_x_in_objective(self, tiny1):
        text = export_lp(tiny1)
        objective = text.split("Subject To")[0]
        assert "x_" not in objective

    def test_nonzero_placement_cost_appears(self, tiny1):
        import dataclasses
        inst = dataclasses.replace(tiny1, placement_cost={"f1": {"b": 2.5}})
        objective = export_lp(inst).split("Subject To")[0]
        assert "2.5 x_r1_f1_b" in objective

    def test_size_guard(self):
        params = ScenarioParams(num_candidates=30, batch_size=60)
        instance = generate_instance(params, seed=1)
        with pytest.raises(ExportSizeError):
            export_lp(instance)

    def test_z_rows_for_two_nf_chain(self):
        inst = make_instance(
            links=[("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0)],
            candidates=["b", "c"], gateway="a", attachment="a",
            requests=[("r1", ["f1", "f2"], 1.0, ["a"])],
            destinations={"d": 1.0},
            catalog={"f1": (10.0, 0.125), "f2": (10.0, 0.125)},
        )
        text = export_lp(inst)
        assert re.search(r"prod_a_\S+: z_\S+ - y_\S+ <= 0", text)
        assert re.search(r"prod_c_\S+: z_\S+ - y_\S+ - y_\S+ >= -1", text)
