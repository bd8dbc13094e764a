"""Desk-scale exact validation: `solve_exact` against a brute-force reference.

The timed corpus is the slack half of the criterion-1 recipe of the
acceptance suite: 120 instances whose capacities provably cannot bind.
Corpus c uses generator seeds 10 000 + 100 000 c + i, so corpus 0 is the
acceptance suite's slack corpus. A run with benchmark seed n measures
corpora 1000 n, 1000 n + 1, ... until its time is up; one measured unit is
one corpus, and its rate is the corpus size divided by the summed
`solve_exact` wall time.

Every exact result is checked against the reference. A returned placement
must pass `check_constraints`; an "optimal" or "infeasible" status must be
the reference's, an optimal total within 1e-9 relative of the reference's;
a budget stop's incumbent, if any, must be no better than the reference
optimum. Anything else is a wrong output. A budget stop is a correct
outcome of a budget-limited solve; the run counts it apart.

The tightened half of the recipe is not timed: there `solve_exact` returns
wrong optima (ROADMAP item 1, the node-demand double count in
`_SearchState.assign`), so no run on it can be correct. `validate.py`
checks the whole acceptance corpus, slack and tight:

    python3 perfbench/validate.py
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import time

from common import Outcome, timed
from pccplace.evaluation import check_constraints, evaluate_cost
from pccplace.exact import SolveBudget, solve_exact
from pccplace.graph import shortest_paths
from pccplace.model import build_placement_per_pair
from pccplace.scenario import ScenarioParams, generate_instance

# Node-only, so the work of a solve does not depend on the machine. Small
# enough that one corpus takes a few seconds and a run covers ~10 corpora,
# which keeps the spread between seeds low.
BUDGET = SolveBudget(max_nodes_expanded=300, wall_time_s=None)
# Full cartesian enumeration up to this many joint assignments; larger
# instances use the per-chain regime (always valid on the slack recipe).
FULL_ENUM_LIMIT = 2000
CORPUS_STRIDE = 100_000
CORPORA_PER_SEED = 1000
REL_TOL = 1e-9


class ReferenceUnavailable(RuntimeError):
    """Neither enumeration regime applies to the instance."""


def slack_instance(index: int, offset: int):
    params = ScenarioParams(
        num_candidates=2 + index % 4,
        batch_size=1 + index % 2,
        chain_length=(1, 2),
        heads_per_request=(1, 2),
        num_destinations=(1, 1),
    )
    return generate_instance(params, seed=10_000 + offset + index)


def tight_instance(index: int, offset: int):
    params = ScenarioParams(
        num_candidates=2 + index % 2,
        batch_size=1,
        chain_length=(1, 2),
        heads_per_request=(1, 1),
        num_destinations=(1, 1),
    )
    inst = generate_instance(params, seed=20_000 + offset + index)
    rng = random.Random(30_000 + offset + index)
    total_mem = sum(inst.catalog[nf].memory_mb
                    for r in inst.requests for nf in r.chain)
    total_cpu = sum(inst.catalog[nf].cpu_cores
                    for r in inst.requests for nf in r.chain)
    node_resources = {
        k: dataclasses.replace(
            cap,
            memory_mb=total_mem * rng.choice((0.45, 0.9, 1.5, 2.5)),
            cpu_cores=total_cpu * rng.choice((0.9, 1.5, 2.5)))
        for k, cap in inst.node_resources.items()
    }
    rate = max(r.flow_rate_mbps for r in inst.requests)
    links = tuple(
        dataclasses.replace(
            ln, capacity_mbps=rate * rng.choice((0.5, 1.2, 2.4, 6.0)))
        for ln in inst.network.links)
    network = dataclasses.replace(inst.network, links=links)
    return dataclasses.replace(inst, network=network,
                               node_resources=node_resources)


def build_corpus(seed: int, index: int) -> list:
    """Timed corpus `index` of benchmark seed `seed`: (instance, PathTable) pairs."""
    offset = CORPUS_STRIDE * (CORPORA_PER_SEED * seed + index)
    instances = [slack_instance(i, offset) for i in range(120)]
    return [(inst, shortest_paths(inst.network, inst.relevant_nodes))
            for inst in instances]


# ---------------------------------------------------------------------------
# Brute-force reference
# ---------------------------------------------------------------------------

def _variables(instance) -> list[tuple[str, str, str, int]]:
    dests = sorted(instance.destination_weights)
    return [(req.id, s, d, l)
            for req in instance.requests
            for l in range(1, len(req.chain) + 1)
            for s in sorted(req.heads)
            for d in dests]


def enumerate_full(instance, paths) -> tuple[str, float | None, int]:
    """Every joint assignment, built, checked and evaluated by the package.

    Returns (status, best total or None, number of assignments checked).
    """
    candidates = sorted(instance.network.candidates)
    variables = _variables(instance)
    best = None
    checks = 0
    for combo in itertools.product(candidates, repeat=len(variables)):
        checks += 1
        placement = build_placement_per_pair(instance, dict(zip(variables, combo)))
        if check_constraints(instance, placement, paths):
            continue
        total = evaluate_cost(instance, placement, paths).total
        if best is None or total < best:
            best = total
    if best is None:
        return "infeasible", None, checks
    return "optimal", best, checks


def capacities_cannot_bind(instance, paths) -> bool:
    """Sufficient condition under which no assignment violates a capacity."""
    total_mem = sum(instance.catalog[nf].memory_mb
                    for r in instance.requests for nf in r.chain)
    total_cpu = sum(instance.catalog[nf].cpu_cores
                    for r in instance.requests for nf in r.chain)
    for cap in instance.node_resources.values():
        if total_mem > cap.memory_mb or total_cpu > cap.cpu_cores:
            return False
    n_dests = len(instance.destination_weights)
    worst_flow = sum(r.flow_rate_mbps * len(r.heads) * n_dests * (len(r.chain) + 1)
                     for r in instance.requests)
    min_budget = min((p.bottleneck for p in paths.pairs.values()
                      if not math.isinf(p.bottleneck)), default=math.inf)
    return worst_flow <= min_budget


def enumerate_per_chain(instance, paths) -> tuple[str, float]:
    """Independent per-(request, head, destination) minima.

    Valid only when placement costs are zero and capacities cannot bind: then
    chains do not interact and the optimum is assembled from per-chain
    minima of raw path costs. Raises ReferenceUnavailable otherwise.
    """
    if any(c != 0.0 for by_node in instance.placement_cost.values()
           for c in by_node.values()):
        raise ReferenceUnavailable("per-chain regime needs zero placement costs")
    if not capacities_cannot_bind(instance, paths):
        raise ReferenceUnavailable("per-chain regime needs slack capacities")
    candidates = sorted(instance.network.candidates)
    weights = instance.destination_weights
    visits = {}
    for req in instance.requests:
        for s in sorted(req.heads):
            for d in sorted(weights):
                best = None
                for combo in itertools.product(candidates, repeat=len(req.chain)):
                    hops = [s, *combo, d]
                    cost = sum(paths.cost(a, b) for a, b in zip(hops, hops[1:]))
                    if best is None or cost < best[0]:
                        best = (cost, combo)
                for l, k in enumerate(best[1], start=1):
                    visits[(req.id, s, d, l)] = k
    placement = build_placement_per_pair(instance, visits)
    return "optimal", evaluate_cost(instance, placement, paths).total


def reference(instance, paths) -> tuple[str, float | None, int]:
    """(status, total, full-enumeration checks) by the cheaper valid regime."""
    n_candidates = len(instance.network.candidates)
    if n_candidates ** len(_variables(instance)) <= FULL_ENUM_LIMIT:
        return enumerate_full(instance, paths)
    status, total = enumerate_per_chain(instance, paths)
    return status, total, 0


def verdict(instance, paths, result) -> str:
    """"ok", "budget" (a valid budget stop) or "wrong" for one exact result."""
    if result.placement is not None and check_constraints(
            instance, result.placement, paths):
        return "wrong"
    status, total, _ = reference(instance, paths)
    tol = REL_TOL * max(1.0, abs(total)) if status == "optimal" else 0.0
    if result.status == "budget_exceeded":
        if result.placement is not None and (
                status != "optimal" or result.total < total - tol):
            return "wrong"
        return "budget"
    if result.status != status:
        return "wrong"
    if status == "optimal" and abs(result.total - total) > tol:
        return "wrong"
    return "ok"


def measure(seed: int, seconds: float, first_corpus: list | None = None) -> Outcome:
    """Solve and check whole corpora until `seconds` have passed (at least one).

    `first_corpus` is corpus 0 when set-up has built it already.
    """
    outcome = Outcome()
    start = time.perf_counter()
    with outcome.probe:
        corpus = build_corpus(seed, 0) if first_corpus is None else first_corpus
        while True:
            solve_s = 0.0
            for inst, paths in corpus:
                seconds_spent, result = timed(outcome.probe, solve_exact, inst, paths, BUDGET)
                solve_s += seconds_spent
                outcome.attempted += 1
                v = verdict(inst, paths, result)
                outcome.failed += v == "wrong"
                outcome.budget_stops += v == "budget"
            outcome.units.append((len(corpus), solve_s))
            if time.perf_counter() - start >= seconds:
                break
            corpus = build_corpus(seed, len(outcome.units))
    outcome.wall_s = time.perf_counter() - start
    return outcome
