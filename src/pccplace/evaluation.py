"""Objective evaluation and constraint checking for placements.

The objective has four cost families: placing functions at nodes, routing
from the cache head to the first function, routing between consecutive
functions, and routing from the last function to each handover destination,
the three routing families weighted by the destination probabilities. A
fifth `penalty_term` (zero for fully placed solutions) charges positions a
heuristic failed to host, so partially placed batches remain comparable.

Capacity checking follows per-pair bottleneck semantics: each (endpoint,
endpoint) shortest path has an independent capacity budget, aggregated over
everything mapped to that pair. :func:`check_link_capacities` offers the
stricter per-link alternative in which paths sharing a physical link
contend for its capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import PathTable, link_key
from .model import Placement, ProblemInstance, placement_index_violations


class EvaluationError(ValueError):
    """Placement references indices unknown to the instance."""


class UndefinedGainError(ZeroDivisionError):
    """Relative gain against a zero-cost reference is undefined."""


@dataclass(frozen=True)
class CostReport:
    """Itemized objective value.

    `total` is exactly the sum of the five terms; `penalty_term` is zero
    whenever the placement hosts every chain position.
    """

    placement_term: float
    head_hop_term: float
    chain_hop_term: float
    tail_hop_term: float
    penalty_term: float
    total: float

    @classmethod
    def from_terms(cls, placement: float, head: float, chain: float,
                   tail: float, penalty: float = 0.0) -> "CostReport":
        return cls(placement, head, chain, tail, penalty,
                   placement + head + chain + tail + penalty)

    def to_dict(self) -> dict[str, float]:
        return {
            "placement_term": self.placement_term,
            "head_hop_term": self.head_hop_term,
            "chain_hop_term": self.chain_hop_term,
            "tail_hop_term": self.tail_hop_term,
            "penalty_term": self.penalty_term,
            "total": self.total,
        }


@dataclass(frozen=True)
class SolveResult:
    """What every placement algorithm returns.

    `status` is "ok" for a heuristic, and "optimal", "budget_exceeded" or
    "infeasible" for the exact solver, whose placement and cost are None
    when it has no feasible point. `unplaced` lists the (request id,
    position, nf id) chain positions a heuristic could not host.
    """

    placement: Placement | None
    cost: CostReport | None
    status: str
    unplaced: tuple[tuple[str, int, str], ...] = ()

    @property
    def total(self) -> float | None:
        return None if self.cost is None else self.cost.total


@dataclass(frozen=True)
class ConstraintViolation:
    """One violated constraint row: family id, index tuple, and slack (< 0)."""

    constraint: str
    index: tuple
    slack: float


def _check_indices(instance: ProblemInstance, placement: Placement) -> None:
    """Raise :class:`EvaluationError` naming the least bad index, if any."""
    bad = placement_index_violations(instance, placement)
    if bad:
        raise EvaluationError(str(bad[0]))


def evaluate_cost(
    instance: ProblemInstance,
    placement: Placement,
    paths: PathTable,
) -> CostReport:
    """Compute the itemized objective for `placement`.

    Destination weights are the mobility profile extended with the
    attachment node at the stay probability. Hop terms are evaluated
    literally on the visit plan: a missing position contributes nothing to
    the hop sums and instead incurs a penalty of twice the largest pairwise
    path cost per (head, destination) pair, weighted like any routed
    position.
    """
    _check_indices(instance, placement)
    # (request, head, destination, nf) -> node; of duplicate visits the
    # largest node wins, as in the sorted `Placement.visits` view
    visit: dict[tuple[str, str, str, str], str] = {}
    for r, i, k, s, d in placement.y:
        have = visit.get((r, s, d, i))
        if have is None or k > have:
            visit[(r, s, d, i)] = k
    routes = [[visit.get((req.id, s, d, nf)) for nf in req.chain]
              for req, s, d in instance.pair_order]
    return cost_of_routes(instance, paths, placement.x, routes,
                          penalty_cost=2.0 * paths.max_cost)


def cost_of_routes(
    instance: ProblemInstance,
    paths: PathTable,
    hosted: Iterable[tuple[str, str, str]],
    routes: Sequence[Sequence[str | None]],
    *,
    penalty_cost: float = 0.0,
) -> CostReport:
    """Itemized objective of a hosting set and a visit plan given per chain.

    `hosted` holds the (request, nf, node) hosting decisions. `routes` has
    one entry per (request, head, destination) chain of
    `instance.pair_order`, in that order: the node visiting each chain
    position, or None where the position is unvisited. Each term is summed
    in a fixed order (the placement term over sorted hosting decisions, the
    hop and penalty terms over `pair_order`), so equal inputs give
    bit-identical totals; this is the one implementation of the objective,
    shared by :func:`evaluate_cost` and the exact search.
    """
    weights = instance.destination_weights
    placement_term = 0.0
    if instance.placement_cost:  # otherwise every placing cost is zero
        for (r, i, k) in sorted(hosted):
            placement_term += instance.placing_cost(i, k)
    cost = paths.cost
    head_term = 0.0
    chain_term = 0.0
    tail_term = 0.0
    penalty_term = 0.0
    for (req, s, d), nodes in zip(instance.pair_order, routes):
        w = weights[d]
        prev = nodes[0]
        if prev is not None:
            head_term += w * cost(s, prev)
        for k in nodes[1:]:
            if prev is not None and k is not None:
                chain_term += w * cost(prev, k)
            prev = k
        if prev is not None:
            tail_term += w * cost(prev, d)
        missing = nodes.count(None)
        if missing:
            penalty_term += w * penalty_cost * missing
    return CostReport.from_terms(placement_term, head_term, chain_term,
                                 tail_term, penalty_term)


def check_constraints(
    instance: ProblemInstance,
    placement: Placement,
    paths: PathTable,
) -> list[ConstraintViolation]:
    """Check every constraint family; empty list means feasible.

    Families and their index tuples:
      5a  (node, resource)      hosting demand within node capacity
      5b  (head, node)          first-hop flow within the head->node budget
      5c  (node, node)          chain-hop flow within the pair budget
      5d  (node, destination)   last-hop flow within the node->dest budget
      5e  (request, head, destination, position)  visited at least once
      5f  (request, nf, node, head, destination)  visit backed by hosting
      5g/5h/5i                  product-variable links, checked only when the
                                placement carries explicit z entries; 5i is
                                restricted to consecutive chain pairs, the
                                set materialized by the LP export.

    Capacity budgets are per node-pair bottlenecks of the initial network,
    aggregated over all flows mapped to that pair.
    """
    _check_indices(instance, placement)
    reqs = instance.request_map
    out: list[ConstraintViolation] = []

    used: dict[str, list[float]] = {}
    for (r, i, k) in placement.x:
        dem = instance.catalog[i]
        acc = used.setdefault(k, [0.0, 0.0])
        acc[0] += dem.memory_mb
        acc[1] += dem.cpu_cores
    for k in sorted(instance.node_resources):
        cap = instance.node_resources[k]
        mem, cpu = used.get(k, (0.0, 0.0))
        if cap.memory_mb - mem < 0:
            out.append(ConstraintViolation("5a", (k, "memory_mb"), cap.memory_mb - mem))
        if cap.cpu_cores - cpu < 0:
            out.append(ConstraintViolation("5a", (k, "cpu_cores"), cap.cpu_cores - cpu))

    head_flow: dict[tuple[str, str], float] = {}
    pair_flow: dict[tuple[str, str], float] = {}
    tail_flow: dict[tuple[str, str], float] = {}
    y_nodes: dict[tuple[str, str, str, str], list[str]] = {}
    y_sorted = sorted(placement.y)
    for (r, i, k, s, d) in y_sorted:
        req = reqs[r]
        if i == req.chain[0]:
            head_flow[(s, k)] = head_flow.get((s, k), 0.0) + req.flow_rate_mbps
        if i == req.chain[-1]:
            tail_flow[(k, d)] = tail_flow.get((k, d), 0.0) + req.flow_rate_mbps
        y_nodes.setdefault((r, s, d, i), []).append(k)
    # chain flow is the literal sum of y-products, so malformed placements
    # with duplicate visits charge every implied pair
    for req, s, d in instance.pair_order:
        for i, j in zip(req.chain, req.chain[1:]):
            for ki in y_nodes.get((req.id, s, d, i), ()):
                for kj in y_nodes.get((req.id, s, d, j), ()):
                    pair_flow[(ki, kj)] = (
                        pair_flow.get((ki, kj), 0.0) + req.flow_rate_mbps)
    for family, flows in (("5b", head_flow), ("5c", pair_flow), ("5d", tail_flow)):
        for (a, b) in sorted(flows):
            budget = paths.bottleneck(a, b)
            if math.isinf(budget):
                continue
            slack = budget - flows[(a, b)]
            if slack < 0:
                out.append(ConstraintViolation(family, (a, b), slack))

    for req, s, d in instance.pair_order:
        for l, nf in enumerate(req.chain, start=1):
            if (req.id, s, d, nf) not in y_nodes:
                out.append(ConstraintViolation("5e", (req.id, s, d, l), -1.0))

    for (r, i, k, s, d) in y_sorted:
        if (r, i, k) not in placement.x:
            out.append(ConstraintViolation("5f", (r, i, k, s, d), -1.0))

    if placement.z is not None:
        y = placement.y
        for (r, i, j, k, m, s, d) in sorted(placement.z):
            if (r, i, k, s, d) not in y:
                out.append(ConstraintViolation("5g", (r, i, j, k, m, s, d), -1.0))
            if (r, j, m, s, d) not in y:
                out.append(ConstraintViolation("5h", (r, i, j, k, m, s, d), -1.0))
        for req, s, d in instance.pair_order:
            for i, j in zip(req.chain, req.chain[1:]):
                for ki in y_nodes.get((req.id, s, d, i), ()):
                    for kj in y_nodes.get((req.id, s, d, j), ()):
                        if (req.id, i, j, ki, kj, s, d) not in placement.z:
                            out.append(ConstraintViolation(
                                "5i", (req.id, i, j, ki, kj, s, d), -1.0))
    return out


def check_link_capacities(
    instance: ProblemInstance,
    placement: Placement,
    paths: PathTable,
) -> list[ConstraintViolation]:
    """Strict per-link capacity check.

    Charges every (request, head, destination) route's flow on each physical
    link it traverses (head->first, consecutive hosted pairs, last->dest)
    and flags links whose aggregate exceeds capacity. Stricter than the
    per-pair budgets of :func:`check_constraints` because paths sharing a
    link contend here. Violations use family id "link".
    """
    reqs = {r.id: r for r in instance.requests}
    usage: dict[tuple[str, str], float] = {}

    def charge(a: str, b: str, rate: float) -> None:
        seq = paths.sequence(a, b)
        for u, v in zip(seq, seq[1:]):
            key = link_key(u, v)
            usage[key] = usage.get(key, 0.0) + rate

    for (r, s, d), visit in placement.visits.items():
        req = reqs[r]
        rate = req.flow_rate_mbps
        chain = req.chain
        if chain[0] in visit:
            charge(s, visit[chain[0]], rate)
        for i, j in zip(chain, chain[1:]):
            if i in visit and j in visit:
                charge(visit[i], visit[j], rate)
        if chain[-1] in visit:
            charge(visit[chain[-1]], d, rate)

    link_map = instance.network.link_map
    out = []
    for key in sorted(usage):
        slack = link_map[key].capacity_mbps - usage[key]
        if slack < 0:
            out.append(ConstraintViolation("link", key, slack))
    return out


def gain(cost_a: float, cost_b: float) -> float:
    """Relative gain of `cost_a` over reference `cost_b`: (b - a) / b."""
    if cost_b == 0:
        raise UndefinedGainError("reference cost is zero; gain undefined")
    return (cost_b - cost_a) / cost_b
