"""The greedy fill against its scan-every-candidate reference.

`greedy_reference.py` is the fill as it was before full nodes left the
fallback scan and `Ledger.place` resolved each request once. Both must host
every position at the same node, leave the same positions unplaced and
price the result to the same bits, toward PPCC's target and toward SPBA's,
on instances where node capacity or flow budgets bind: the fallback scan
runs, nodes fill, flows are refused, costs tie and, in one corpus, nothing
fits.
"""

import dataclasses
import random

import pytest

from pccplace.graph import shortest_paths
from pccplace.heuristics import ppcc, spba
from pccplace.scenario import ScenarioParams, generate_instance

import greedy_reference

P = ScenarioParams


def _with_mixed_placement_costs(inst, seed):
    """`inst` with a different placing cost per (nf, node)."""
    rng = random.Random(seed)
    costs = {nf: {k: rng.choice((0.0, 0.5, 2.5, 40.0))
                  for k in sorted(inst.network.candidates)}
             for nf in sorted(inst.catalog)}
    return dataclasses.replace(inst, placement_cost=costs)


# (params, seeds); every corpus but the first binds node cpu
CORPORA = {
    "slack": (P(num_candidates=20, batch_size=200), (1, 2)),
    "cpu-tight-K10": (P(num_candidates=10, batch_size=60, node_cpu_cores=1.0), (1, 2, 3)),
    "cpu-tight-K20": (P(num_candidates=20, batch_size=200, node_cpu_cores=2.0), (1, 2, 3)),
    "cpu-tight-K50": (P(num_candidates=50, batch_size=400, node_cpu_cores=4.0), (1, 2)),
    "cpu-tight-K100": (P(num_candidates=100, batch_size=1000, node_cpu_cores=4.0), (1,)),
    "cpu-tight-K200": (P(num_candidates=200, batch_size=2000, node_cpu_cores=8.0), (1, 2)),
    "cpu-saturated-K200": (P(num_candidates=200, batch_size=3000, node_cpu_cores=8.0), (3,)),
    "many-heads": (P(num_candidates=20, batch_size=150, heads_per_request=(3, 5),
                     node_cpu_cores=2.0), (1, 2, 3)),
    "placement-cost": (P(num_candidates=20, batch_size=200, node_cpu_cores=2.0,
                         placement_cost=2.5), (1, 2)),
    "stay-0": (P(num_candidates=20, batch_size=200, node_cpu_cores=2.0,
                 stay_probability=0.0), (1, 2)),
    "stay-1": (P(num_candidates=20, batch_size=200, node_cpu_cores=2.0,
                 stay_probability=1.0), (1, 2)),
    "flow-tight": (P(num_candidates=20, batch_size=200, link_capacity_mbps=60.0,
                     node_cpu_cores=4.0), (1, 2, 3)),
    "flow-and-cpu-tight-K50": (P(num_candidates=50, batch_size=500, link_capacity_mbps=40.0,
                                 heads_per_request=(2, 4), node_cpu_cores=2.0), (1, 2)),
    # every link costs 1: anchors and fallback orders tie on cost
    "unit-link-costs": (P(num_candidates=30, batch_size=300, link_cost=(1.0, 1.0),
                          heads_per_request=(2, 5), node_cpu_cores=2.0), (1, 2, 3)),
    "none-placed": (P(num_candidates=10, batch_size=30, node_cpu_cores=0.1), (1, 2)),
}

CASES = [(name, seed) for name, (_, seeds) in CORPORA.items() for seed in seeds]
CASES += [("mixed-placement-costs", seed) for seed in (1, 2, 3)]


def _instance(name, seed):
    if name == "mixed-placement-costs":
        inst = generate_instance(P(num_candidates=20, batch_size=200,
                                   heads_per_request=(2, 4), node_cpu_cores=2.0), seed)
        return _with_mixed_placement_costs(inst, seed)
    return generate_instance(CORPORA[name][0], seed)


def _fingerprint(result):
    routes = result.build.args[1]  # the partial's (instance, routes)
    return (routes.tolist(), result.unplaced,
            {field: value.hex() for field, value in result.cost.to_dict().items()})


def _targets(inst):
    """PPCC's target (the most probable destination, ties to the least id)
    and SPBA's (the attachment)."""
    weights = inst.destination_weights
    best = max(weights.values())
    return {ppcc: min(d for d, w in weights.items() if w == best),
            spba: inst.network.attachment}


@pytest.mark.parametrize("name, seed", CASES, ids=[f"{n}-{s}" for n, s in CASES])
def test_fill_matches_reference(name, seed):
    inst = _instance(name, seed)
    paths = shortest_paths(inst.network, inst.relevant_nodes)
    for algo, target in _targets(inst).items():
        want = greedy_reference.greedy_chain_fill(inst, paths, target)
        assert _fingerprint(algo(inst, paths)) == _fingerprint(want), algo.__name__
