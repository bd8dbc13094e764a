"""The exact search against its prefix-by-prefix reference.

`exact_reference.py` is the search as it was before leaf totals came from
running sums per complete chain and child bounds from cached rows. Both must
agree on every solve, budget stops included: status, the bits of every
`CostReport` field, the placement, nodes expanded and leaves evaluated; and
at every node of random walks through the search tree, on the bits of the
bound, of every child bound and of every leaf total.
"""

import dataclasses
import random

import pytest

from pccplace.exact import (SolveBudget, _capacities_cannot_bind, _SearchState,
                            _variables, solve_exact)
from pccplace.graph import shortest_paths
from pccplace.model import instance_from_dict, instance_to_dict
from pccplace.scenario import ScenarioParams, generate_instance

import exact_reference
from conftest import cpu_sum_instance
from test_acceptance import _slack_corpus, _tight_corpus

BUDGETS = [SolveBudget(max_nodes_expanded=n, wall_time_s=None)
           for n in (1, 7, 60, 2000)]


def _generated(placement_cost, count):
    """Chains up to 3, 2 heads x 2 destinations, nodes that fit 1-3 NFs."""
    out = []
    for i in range(count):
        params = ScenarioParams(
            num_candidates=2 + i % 3, batch_size=1 + i % 2, chain_length=(1, 3),
            heads_per_request=(2, 2), num_destinations=(1, 1),
            node_cpu_cores=0.5, placement_cost=placement_cost)
        out.append(generate_instance(params, seed=40_000 + 100 * i))
    return out


def _mixed_placement_costs(instances):
    """The instances with a different placing cost per (nf, node)."""
    out = []
    for inst in instances:
        rng = random.Random(len(out))
        costs = {nf: {k: rng.choice((0.0, 0.1, 0.2, 0.3, 7.5))
                      for k in sorted(inst.network.candidates)}
                 for nf in sorted(inst.catalog)}
        out.append(dataclasses.replace(inst, placement_cost=costs))
    return out


def _relabelled(instances):
    """The instances renamed node n{i} -> n{7 * i + 3}, so that string order
    and digit order of node ids differ (n10 < n3), with link costs rounded
    to positive integers, so that totals tie exactly."""
    out = []
    for inst in instances:
        data = instance_to_dict(inst)
        name = {k: f"n{7 * int(k[1:]) + 3}" for k in data["network"]["nodes"]}

        def rename(x):
            if isinstance(x, dict):
                return {rename(k): rename(v) for k, v in x.items()}
            if isinstance(x, list):
                return [rename(v) for v in x]
            return name.get(x, x)

        data = rename(data)
        for link in data["network"]["links"]:
            link["cost"] = float(max(1, round(link["cost"])))
        out.append(instance_from_dict(data))
    return out


def _fingerprint(result):
    cost = None if result.cost is None else {
        name: value.hex() for name, value in result.cost.to_dict().items()}
    placement = None if result.placement is None else (
        sorted(result.placement.x), sorted(result.placement.y))
    return result.status, cost, placement


CORPORA = {
    "slack": _slack_corpus,
    "tight": _tight_corpus,
    "placement_cost_2": lambda: _generated(2.0, 24),
    "placement_cost_35": lambda: _generated(35.0, 24),
    "mixed_placement_costs": lambda: _mixed_placement_costs(_generated(0.0, 16)),
    # certified slack capacities: the presolved search tracks hostings alone
    "slack_placement_costs": lambda: _mixed_placement_costs(_slack_corpus()),
    "cpu_sum": lambda: [cpu_sum_instance()],
    # tight and certified slack instances whose node ids sort apart from
    # their digits, with exact ties
    "relabelled_ties": lambda: _relabelled(_generated(0.0, 16) + _slack_corpus()[:16]),
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_search_matches_reference(corpus):
    instances = CORPORA[corpus]()
    stops = 0
    for i, inst in enumerate(instances):
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        for budget in BUDGETS:
            got = solve_exact(inst, paths, budget)
            want, expanded, leaves = exact_reference.solve_exact(inst, paths, budget)
            where = (corpus, i, budget.max_nodes_expanded)
            assert _fingerprint(got) == _fingerprint(want), where
            assert (got.stats.expanded, got.stats.leaves) == (expanded, leaves), where
            stopped = got.status == "budget_exceeded"
            assert got.stats.stop == ("node_budget" if stopped else "complete"), where
            stops += stopped
    # budget-stop incumbents are compared too
    assert stops > 0


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_node_values_match_reference(corpus):
    for i, inst in enumerate(CORPORA[corpus]()[:40]):
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        ours = _SearchState(inst, paths, _variables(inst))
        ref = exact_reference._SearchState(inst, paths,
                                           exact_reference._variables(inst))
        # ours runs on int node ids, the reference on node id strings
        index, ids = inst.network.node_index, inst.network.node_ids
        last = len(ours.variables) - 1
        rng = random.Random(i)
        prefix = []
        for _walk in range(12):
            # restart from a random prefix of the last walk, so goto undoes
            # part of the path and assigns the rest
            prefix = prefix[:rng.randrange(len(prefix) + 1)]
            ours.goto([index[k] for k in prefix])
            ref.goto(prefix)
            assert ours.bound().hex() == ref.bound().hex(), (corpus, i, prefix)
            while True:
                children = [(ids[k], b.hex()) for k, b in ours.children()]
                assert children == [(k, b.hex()) for k, b in ref.children()], (
                    corpus, i, prefix)
                if not children:
                    break
                if len(prefix) == last:
                    for k, _ in children:
                        assert ours.leaf_total(index[k]).hex() == ref.leaf_total(k).hex(), (
                            corpus, i, prefix, k)
                    break
                k = rng.choice(children)[0]
                prefix.append(k)
                ours.assign(index[k])
                ref.assign(k)


def test_relabelled_corpus_has_exact_ties():
    # Some optimum is reached by two assignments with the same float total,
    # so the lexicographic tie rule decides the result; the int search and
    # the string reference then agree only if int order is id order.
    tied = 0
    for inst in CORPORA["relabelled_ties"]():
        paths = shortest_paths(inst.network, inst.relevant_nodes)
        assert sorted(inst.network.nodes) != sorted(inst.network.nodes,
                                                    key=lambda k: int(k[1:]))
        result = solve_exact(inst, paths)
        if result.status != "optimal":
            continue
        # count the optimal leaves with the string reference, under the
        # search's own limit on the admissible bounds
        state = exact_reference._SearchState(inst, paths, exact_reference._variables(inst))
        last = len(state.variables) - 1
        limit = result.total + 1e-9 * max(1.0, result.total)
        optima = 0

        def walk():
            nonlocal optima
            for k, bound in state.children():
                if bound > limit:
                    continue
                if len(state.assignment) < last:
                    state.assign(k)
                    walk()
                    state.undo()
                else:
                    optima += state.leaf_total(k) == result.total

        walk()
        tied += optima >= 2
    assert tied > 0


def test_presolve_covers_slack_not_tight():
    # the benchmarked slack corpus takes the presolved search, and the tight
    # corpus the ledger search, so both stay exercised
    def certified(instances):
        return [_capacities_cannot_bind(inst, shortest_paths(inst.network,
                                                             inst.relevant_nodes))
                for inst in instances]

    assert certified(_slack_corpus()) == [True] * 120
    assert certified(_tight_corpus()) == [False] * 80
